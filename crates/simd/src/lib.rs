//! # ultravc-simd
//!
//! Portable `f64` vector kernels with **runtime dispatch** for the hot
//! loops of the binned Poisson-binomial pipeline.
//!
//! PR 1 collapsed the exact tail DP to a per-bin truncated-binomial
//! convolution — `f'[t] = Σ bᵢ·f[t−i]` — which is a dense dot product over
//! `min(m, K)` lanes and now dominates every tested column. This crate
//! vectorizes that convolution (and the pileup-side histogram reductions
//! feeding it) without leaving stable Rust:
//!
//! * [`F64Lanes`] — a `#[repr(align(32))]` fixed-width lane array with
//!   element-wise arithmetic. It is *not* an intrinsics wrapper: the same
//!   generic lane code is monomorphized once per backend, and the
//!   backend's `#[target_feature]` attribute tells LLVM which vector ISA
//!   to emit for it.
//! * [`Kernels`] — a table of function pointers (compensated convolution,
//!   binomial-pmf setup, `u32` histogram reductions). One table per
//!   backend.
//! * [`kernels`] — the dispatcher: detects the best available backend
//!   **once** per process (cached in a `OnceLock`) and returns its table.
//!
//! # Dispatch model
//!
//! ```text
//!            ┌ ULTRAVC_FORCE_SCALAR=1 ──────────────► SCALAR
//! kernels() ─┤
//!            └ else ─ is_x86_feature_detected!(avx2+fma)? ─► AVX2
//!                     target_arch = aarch64?             ──► NEON
//!                     otherwise                          ──► SCALAR
//! ```
//!
//! The choice is made on first call and cached for the process lifetime,
//! so the per-column hot path pays one atomic load, not a `cpuid`.
//! Setting `ULTRAVC_FORCE_SCALAR=1` (or `true`/`yes`/`on`) pins the
//! scalar reference backend — tests and CI use this to prove the fallback
//! never rots.
//!
//! # Numerical contract
//!
//! Every backend computes **bitwise-identical** results. This is by
//! construction, not by tolerance:
//!
//! * element-wise IEEE-754 operations (`+`, `−`, `×`, `÷`) are correctly
//!   rounded whether executed scalar or in vector lanes, so code that
//!   performs the same operations in the same per-element order is
//!   deterministic across backends;
//! * the vector convolution restructures the scalar loop from per-output
//!   dot products into per-coefficient `axpy` sweeps — a reordering of
//!   *independent output elements* that leaves each output's own
//!   accumulation order unchanged;
//! * every backend extracts the *exact* rounding error of every addition
//!   (branchless Knuth two-sum in the vector backends, branchy Neumaier in
//!   the scalar reference — both yield the identical, representable error
//!   value), so the compensated convolution keeps its error bound on every
//!   backend.
//!
//! The payoff: dispatch can never change a variant call, an early-exit
//! decision, or a certified bail bound — only the wall clock.
//!
//! # Adding a backend
//!
//! 1. Add a `#[cfg]`-gated module in `dispatch.rs` with one wrapper per
//!    [`Kernels`] entry. Each wrapper calls the shared generic
//!    implementation from `kernels.rs` inside a
//!    `#[target_feature(enable = ...)]` function, so the backend is the
//!    *same algorithm* compiled for a wider ISA (see the `avx2` module for
//!    the pattern — this is what keeps backends bitwise-aligned).
//! 2. Give it a `static` table with a unique `name`.
//! 3. Teach `detect()` to return it when the features are present, and
//!    `available()` to list it so the agreement tests cover it.
//!
//! Backends needing genuinely different algorithms (e.g. a GPU offload)
//! must still preserve the numerical contract above or grow their own
//! acceptance tests.
//!
//! The `arch` cargo feature (default-on) gates the `unsafe`
//! `#[target_feature]` backends; `--no-default-features` builds a
//! scalar-only crate, which CI compiles and tests separately.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]
// Unsafe is denied crate-wide and re-allowed only at the two audited
// sites (see README § Unsafety): the aligned-buffer slice views and the
// `#[target_feature]` dispatch wrappers.
#![deny(unsafe_code)]

mod aligned;
mod dispatch;
mod kernels;
mod lanes;

pub use aligned::AlignedF64;
pub use dispatch::{available, kernels, scalar, Kernels, SMALL_K_THRESHOLD};
pub use lanes::F64Lanes;
