//! Kernel implementations shared by every backend.
//!
//! Two families live here:
//!
//! * **Scalar reference kernels** (`*_scalar`) — the loops exactly as the
//!   binned DP shipped them before this crate existed: per-output dot
//!   products with branchy Neumaier compensation. They are the semantic
//!   ground truth and the `ULTRAVC_FORCE_SCALAR` fallback.
//! * **Lane kernels** (`*_lanes`) — the same arithmetic restructured into
//!   per-coefficient `axpy` sweeps over [`F64Lanes<4>`] blocks, written
//!   `#[inline(always)]` so each backend monomorphizes them inside its
//!   `#[target_feature]` wrapper and LLVM emits that backend's vector ISA.
//!
//! Both families produce **bitwise-identical** outputs (see the crate
//! docs for why); the unit tests at the bottom pin that.

use crate::lanes::F64Lanes;

/// Lane width used by the blocked kernels: 4 × f64 = one AVX2 `ymm`.
pub(crate) const LANES: usize = 4;

// ---------------------------------------------------------------------
// Truncated-binomial convolution: g[t] = Σ_{i ≤ min(t, cut)} b[i]·f[t−i]
// ---------------------------------------------------------------------

/// Scalar reference convolution with Neumaier-compensated per-output
/// accumulation — bit-for-bit the loop `fold_chunk` shipped with PR 1.
/// `comp` is dead scratch here (the compensator lives in a register); it
/// is part of the signature so the backends are interchangeable.
pub(crate) fn conv_fold_compensated_scalar(b: &[f64], f: &[f64], g: &mut [f64], _comp: &mut [f64]) {
    debug_assert!(f.len() >= g.len());
    if b.is_empty() {
        g.fill(0.0);
        return;
    }
    for (t, slot) in g.iter_mut().enumerate() {
        let imax = t.min(b.len() - 1);
        let mut sum = 0.0f64;
        let mut comp = 0.0f64;
        for i in 0..=imax {
            let x = b[i] * f[t - i];
            let t_ = sum + x;
            if sum.abs() >= x.abs() {
                comp += (sum - t_) + x;
            } else {
                comp += (x - t_) + sum;
            }
            sum = t_;
        }
        *slot = sum + comp;
    }
}

/// Branchless exact error of `s + x` (Knuth two-sum), lane-wide. Yields
/// the identical representable error value the branchy Neumaier form
/// picks, without the data-dependent branch that defeats vectorization.
#[cfg_attr(
    not(all(feature = "arch", any(target_arch = "x86_64", target_arch = "aarch64"))),
    allow(dead_code)
)]
#[inline(always)]
fn two_sum<const N: usize>(s: F64Lanes<N>, x: F64Lanes<N>) -> (F64Lanes<N>, F64Lanes<N>) {
    let t = s + x;
    let z = t - s;
    let err = (s - (t - z)) + (x - z);
    (t, err)
}

/// Scalar Knuth two-sum for the vector kernels' remainder elements.
#[cfg_attr(
    not(all(feature = "arch", any(target_arch = "x86_64", target_arch = "aarch64"))),
    allow(dead_code)
)]
#[inline(always)]
fn two_sum_1(s: f64, x: f64) -> (f64, f64) {
    let t = s + x;
    let z = t - s;
    (t, (s - (t - z)) + (x - z))
}

/// Lane convolution with compensated accumulation: one `axpy` sweep per
/// coefficient — for each `i`, `g[i..] += b[i] · f[..k−i]`, contiguous
/// loads and stores with no loop-carried dependency inside the sweep —
/// plus a per-output compensator array (`comp`, at least `g.len()` long)
/// accumulating the exact rounding error of every addition. Each output
/// still receives its terms in ascending-`i` order, and folding `comp`
/// into `g` at the end reproduces the Neumaier `sum + comp` finish, so the
/// output is bitwise equal to [`conv_fold_compensated_scalar`] and carries
/// the same error bound.
#[cfg_attr(
    not(all(feature = "arch", any(target_arch = "x86_64", target_arch = "aarch64"))),
    allow(dead_code)
)]
#[inline(always)]
pub(crate) fn conv_fold_compensated_lanes(b: &[f64], f: &[f64], g: &mut [f64], comp: &mut [f64]) {
    let k = g.len();
    debug_assert!(f.len() >= k);
    debug_assert!(comp.len() >= k);
    g.fill(0.0);
    comp[..k].fill(0.0);
    for (i, &bi) in b.iter().take(k).enumerate() {
        let bv = F64Lanes::<LANES>::splat(bi);
        let gs = &mut g[i..];
        let cs = &mut comp[i..k];
        let fs = &f[..k - i];
        let n = fs.len();
        let mut t = 0;
        while t + LANES <= n {
            let fv = F64Lanes::<LANES>::load(&fs[t..]);
            let gv = F64Lanes::<LANES>::load(&gs[t..]);
            let (sum, err) = two_sum(gv, bv * fv);
            sum.store(&mut gs[t..]);
            let cv = F64Lanes::<LANES>::load(&cs[t..]);
            (cv + err).store(&mut cs[t..]);
            t += LANES;
        }
        while t < n {
            let (sum, err) = two_sum_1(gs[t], bi * fs[t]);
            gs[t] = sum;
            cs[t] += err;
            t += 1;
        }
    }
    for (slot, &c) in g.iter_mut().zip(comp.iter()) {
        *slot += c;
    }
}

// ---------------------------------------------------------------------
// Binomial pmf setup: b[i] = C(m, i) pⁱ q^{m−i} by the ratio recurrence
// ---------------------------------------------------------------------

/// Fill `b` with the binomial pmf prefix `b[0..]` from `b0 = q^m` and the
/// odds `ratio = p/q`, via a two-pass form of the ratio recurrence:
///
/// 1. `b[i] ← step_i = (ratio · (m − i + 1)) / i` — independent per
///    element, so the division (the latency hog of the fused recurrence)
///    vectorizes;
/// 2. `b[i] ← b[i−1] · step_i` — the sequential prefix product, now a
///    single multiply deep per element instead of mul·mul·div.
///
/// Every backend runs this same function (monomorphized per ISA), so pmf
/// terms are bitwise identical no matter which backend folds the bin.
#[inline(always)]
pub(crate) fn binomial_pmf_two_pass(b: &mut [f64], m: u64, ratio: f64, b0: f64) {
    if b.is_empty() {
        return;
    }
    b[0] = b0;
    // m ≤ 2^53 and i ≤ b.len() ≤ K, so both conversions are exact and
    // (mf − i + 1) equals the integer m − i + 1 exactly.
    let mf = m as f64;
    for (i, slot) in b.iter_mut().enumerate().skip(1) {
        *slot = (ratio * (mf - i as f64 + 1.0)) / i as f64;
    }
    for i in 1..b.len() {
        b[i] *= b[i - 1];
    }
}

// ---------------------------------------------------------------------
// Histogram reductions (pileup side)
// ---------------------------------------------------------------------

/// Widening sum of a `u32` histogram slice. Integer arithmetic — exact in
/// any order, identical on every backend.
#[inline(always)]
pub(crate) fn sum_u32_impl(counts: &[u32]) -> u64 {
    counts.iter().map(|&c| c as u64).sum()
}

/// `dst[i] += src[i]` element-wise (bin aggregation across the 8
/// base/strand groups). Caller guarantees no overflow: group counts sum
/// to the column depth, which is itself a `u32`.
#[inline(always)]
pub(crate) fn accumulate_u32_impl(dst: &mut [u32], src: &[u32]) {
    for (d, &s) in dst.iter_mut().zip(src.iter()) {
        *d += s;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    fn random_f64s(n: usize, seed: u64) -> Vec<f64> {
        let mut s = seed | 1;
        (0..n)
            .map(|_| (xorshift(&mut s) >> 11) as f64 / (1u64 << 53) as f64)
            .collect()
    }

    #[test]
    fn lane_conv_matches_scalar_bitwise() {
        for &(cut, k) in &[
            (1usize, 1usize),
            (3, 7),
            (8, 5),
            (80, 80),
            (81, 173),
            (40, 256),
        ] {
            let b = random_f64s(cut + 1, 0xA1 + cut as u64);
            let f = random_f64s(k, 0xB2 + k as u64);
            let mut comp = vec![0.0; k];
            let mut gc_scalar = vec![0.0; k];
            let mut gc_lanes = vec![0.0; k];
            conv_fold_compensated_scalar(&b, &f, &mut gc_scalar, &mut comp);
            conv_fold_compensated_lanes(&b, &f, &mut gc_lanes, &mut comp);
            for (t, (a, c)) in gc_scalar.iter().zip(gc_lanes.iter()).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    c.to_bits(),
                    "compensated conv cut={cut} k={k} t={t}: {a:e} vs {c:e}"
                );
            }
        }
    }

    #[test]
    fn compensated_conv_beats_plain_on_cancelling_sums() {
        // A sum designed to lose low-order bits without compensation.
        let b = vec![1.0, 1e-17, 1e-17, 1e-17, 1e-17, 1e-17, 1e-17, 1e-17];
        let f = vec![1.0; 8];
        let mut comp_out = vec![0.0; 8];
        let mut comp = vec![0.0; 8];
        conv_fold_compensated_lanes(&b, &f, &mut comp_out, &mut comp);
        // t = 7 accumulates 1.0 + 7·1e-17: a plain sum rounds each add to 1.0.
        let plain: f64 = (0..8).map(|i| b[i] * f[7 - i]).sum();
        assert_eq!(plain, 1.0);
        assert_eq!(comp_out[7], 1.0 + 7e-17);
    }

    #[test]
    fn empty_and_degenerate_shapes() {
        let mut comp = vec![0.0; 4];
        let mut g = vec![1.0; 4];
        conv_fold_compensated_scalar(&[], &[0.5; 4], &mut g, &mut comp);
        assert_eq!(g, vec![0.0; 4]);
        let mut g = vec![1.0; 4];
        conv_fold_compensated_lanes(&[], &[0.5; 4], &mut g, &mut comp);
        assert_eq!(g, vec![0.0; 4]);
        let mut empty: [f64; 0] = [];
        conv_fold_compensated_lanes(&[1.0], &[], &mut empty, &mut comp);
        binomial_pmf_two_pass(&mut [], 5, 0.5, 1.0);
    }

    #[test]
    fn pmf_two_pass_matches_direct_recurrence() {
        // Against an independently computed C(m,i)·pⁱ·q^(m−i).
        let (m, p) = (30u64, 0.3f64);
        let q = 1.0 - p;
        let mut b = vec![0.0; 11];
        binomial_pmf_two_pass(&mut b, m, p / q, q.powi(m as i32));
        let mut choose = 1.0f64;
        for (i, &bi) in b.iter().enumerate() {
            let direct = choose * p.powi(i as i32) * q.powi((m - i as u64) as i32);
            assert!(
                (bi - direct).abs() <= 1e-14 * direct.max(1e-300),
                "i={i}: {bi:e} vs {direct:e}"
            );
            choose = choose * (m - i as u64) as f64 / (i + 1) as f64;
        }
        let total_prefix: f64 = b.iter().sum();
        assert!(total_prefix < 1.0);
    }

    #[test]
    fn u32_reductions() {
        let counts: Vec<u32> = (0..23).map(|i| i * 7 + 1).collect();
        assert_eq!(
            sum_u32_impl(&counts),
            counts.iter().map(|&c| c as u64).sum::<u64>()
        );
        assert_eq!(sum_u32_impl(&[]), 0);

        let mut dst = vec![1u32; 10];
        accumulate_u32_impl(&mut dst, &[2u32; 10]);
        assert_eq!(dst, vec![3u32; 10]);
    }

    #[test]
    fn two_sum_error_is_exact() {
        for &(s, x) in &[(1.0f64, 1e-17f64), (1e-17, 1.0), (0.1, 0.2), (1e16, 1.0)] {
            let (t, e) = two_sum_1(s, x);
            // Knuth's two-sum and the branchy Neumaier form both extract
            // the exact (representable) rounding error — bit-identical.
            let t2 = s + x;
            let e2 = if s.abs() >= x.abs() {
                (s - t2) + x
            } else {
                (x - t2) + s
            };
            assert_eq!(t.to_bits(), t2.to_bits());
            assert_eq!(e.to_bits(), e2.to_bits());
            // Exactness spot check on a case the naive sum gets wrong.
            if (s, x) == (1e16, 1.0) {
                assert_eq!(e, 1.0 - ((s + x) - s));
            }
        }
    }
}
