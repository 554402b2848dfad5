//! # ultravc-core
//!
//! The paper's contribution: a quality-aware low-frequency SNV caller in
//! the LoFreq mould, accelerated by (1) a Poisson first-pass approximation
//! that skips the exact Poisson-binomial tail computation whenever the
//! column is provably uninteresting, and (2) an OpenMP-style shared-memory
//! parallel driver that replaces the original partition-and-spawn script
//! (and fixes its double-filtering bug).
//!
//! The algorithm per pileup column (the paper's Figure 1b):
//!
//! ```text
//! K ← # non-reference bases            (mismatches)
//! if K = 0                             → no variant, next column
//! if shortcut enabled:
//!     L ← max(Pr[Pois(λ) ≥ K] − d_BH,  (certified: L ≤ Pr[PoisBin ≥ K],
//!             tilted Berry–Esseen)       O(#bins))
//!     if L ≥ ε/B·(1 + 10⁻⁶)            → no variant, next column  ← the speedup
//!     U ← exp(K − λ − K·ln(K/λ))       (certified: Pr[PoisBin ≥ K] ≤ U)
//!     if U ≤ 1e-310 ∧ U·B < ε          → call variant, QUAL = 3000 (its cap)
//! p ← Pr[PoisBin{pᵢ} ≥ K]              (exact DP, with early exit)
//! if p·B < ε                           → call variant (QUAL = −10·log₁₀ p)
//! ```
//!
//! with `ε = 0.05` and Bonferroni factor `B`, per the paper's defaults.
//! [`CallerConfig::shortcut`] switches both screens off together
//! ([`CallerConfig::original`]). The screens decide a column only where
//! a certified bound proves what the exact DP would decide, so the two
//! presets write byte-identical VCFs; the contract is stated once, in
//! [`pvalue`]. The reject side is this repo's certified form of the
//! paper's Poisson screen (`p̂ ≥ ε + δ`), which bounds the tail from above
//! and so certifies nothing on low-quality reads; the accept side removes
//! the `O(K·Σ min(mᵦ, K))` exact tail from the ultra-deep true variants,
//! where `K` is in the thousands.
//!
//! Both stages consume the pileup layer's **quality-binned** column
//! representation: the screens' sums run over the quality histogram
//! (`O(1)` in depth) and the exact stage runs the grouped-trial
//! DP over `(probability, multiplicity)` bins (`O(K·Σ min(mᵦ, K))` instead
//! of `O(d·K)` — the same when every bin is thinner than `K` — and, under
//! the exponential tilt at `K`, only the few tilted standard deviations of
//! states and binomial terms that can move the tail, with a certified
//! bound on what it drops), with per-worker [`pvalue::Scratch`] buffers
//! making the whole per-column test allocation-free. That kernel is the only exact path.
//! Its referee is the workspace's `tests/naive_oracle.rs`: a one-thread
//! caller over the raw records with the per-trial `O(d·K)` DP and no bins,
//! screens or early exit, whose calls, QUALs and VCF bytes the driver must
//! reproduce on every benchmark workload shape.
//!
//! Modules: [`config`] (tuning surface), [`pvalue`] (the decision engine),
//! [`caller`] (column → VCF record), [`driver`] (the one run path: a
//! supervised parallel-for, sequential being its one-thread case), [`session`] (a reusable driver session for
//! serving region queries), [`supervisor`] (run budgets: deadlines,
//! cancellation, per-region failure reports), [`analysis`]
//! (upset intersections, truth grading).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod caller;
pub mod config;
pub mod driver;
pub mod pvalue;
pub mod session;
pub mod supervisor;

pub use caller::{call_variants, CallSet, CallStats};
pub use config::{Bonferroni, CallerConfig};
pub use driver::{CallDriver, CallOutcome, ParallelMode};
pub use pvalue::{ColumnDecision, ColumnTest, Scratch};
pub use session::CallSession;
pub use supervisor::{CancelToken, Interrupt, RegionError, RegionFailure, RunBudget};
