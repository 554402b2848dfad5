//! Fast approximations to the Poisson-binomial right tail.
//!
//! The paper's shortcut is [`poisson_tail`]: the Hodges–Le Cam Poisson
//! approximation with rate `λ = Σ p_i`, computed in `O(d)` (one pass to sum
//! the probabilities, one incomplete-gamma evaluation). [`le_cam_bound`]
//! gives the classic total-variation distance between the two laws. The
//! caller's two screens use certified bounds instead:
//! [`poisson_tail_lower_bound`] (with the tilted bound
//! [`crate::poisson_binomial::Tilt::tail_lower_bound`]) on the reject side
//! and [`ln_tail_upper_bound`] on the accept side.

use crate::poisson::Poisson;

/// The paper's approximation: `Pr[X ≥ k] ≈ Pr[Pois(Σ p_i) ≥ k]`.
///
/// This is the `O(d)` first-pass screen of Kille et al.: if this value is
/// comfortably above the significance level, the exact dynamic program is
/// skipped and no variant is called. It bounds the Poisson-binomial tail
/// from above, not below, for `k > λ`, so the caller's screen subtracts
/// the Barbour–Hall distance from it ([`poisson_tail_lower_bound`]).
pub fn poisson_tail(probs: &[f64], k: usize) -> f64 {
    let lambda: f64 = probs.iter().sum();
    poisson_tail_from_lambda(lambda, k)
}

/// [`poisson_tail`] when the caller has already accumulated
/// `λ = Σ p_i` (the pileup engine maintains it incrementally).
pub fn poisson_tail_from_lambda(lambda: f64, k: usize) -> f64 {
    if k == 0 {
        return 1.0;
    }
    Poisson::new(lambda.max(0.0))
        .expect("λ ≥ 0 by construction")
        .sf(k as u64)
}

/// Certified upper bound on the Poisson-binomial right tail, in log space:
/// returns `ln U` with `Pr[X ≥ k] ≤ U` for **every** sum `X` of independent
/// Bernoulli trials whose mean is `lambda` — `O(1)`, no depth gate.
///
/// For `k > λ > 0` the bound is Chernoff's
///
/// `Pr[X ≥ k] ≤ exp(k − λ − k·ln(k/λ))`.
///
/// Proof. Markov on `e^{tX}`, `t > 0`: `Pr[X ≥ k] ≤ e^{−tk}·E[e^{tX}]`, and
/// `E[e^{tX}] = Π(1 + pᵢ(e^t − 1)) ≤ e^{λ(e^t − 1)}` because `1 + x ≤ e^x`
/// (any `pᵢ ∈ [0, 1]`, so `p = 1` bins are covered). Put `t = ln(k/λ)`.
///
/// Outside that domain (`k ≤ λ`, `k = 0`, `λ ≤ 0`, non-finite `λ`) it
/// returns `0.0`, i.e. the trivial `U = 1`: the result is never NaN and
/// never negative unless the inequality above proves it.
///
/// Rounding: the three terms are at most `~k·ln k` in magnitude, so the
/// computed `ln U` is within `~1e-9` of the real one up to
/// `k = 10⁶`; a `λ` that is itself off by a relative `1e-13` (a sum over
/// ~100 bins) moves it by `k·1e-13`. Callers that act on the bound must
/// leave more room than that — see [`CERTIFICATE_MARGIN_LN`].
pub fn ln_tail_upper_bound(lambda: f64, k: usize) -> f64 {
    let k = k as f64;
    if !(lambda > 0.0 && lambda < k) {
        return 0.0;
    }
    (k - lambda - k * (k / lambda).ln()).min(0.0)
}

/// Room a caller leaves between [`ln_tail_upper_bound`] and the p-value it
/// wants to prove the tail is below: ten decades (`10·ln 10 ≈ 23.03` nats).
///
/// A tail is *certified below `p`* only when `ln U ≤ ln p − margin`, so the
/// true tail is `≤ p·10⁻¹⁰`. That is ~10¹⁰× the bound's own rounding (see
/// above) and it is what carries the caller's byte-identity argument: the
/// exact binned DP adds non-negative terms only, so its value is the true
/// tail times `1 + ε` with `|ε| ≪ 1` (or an underflow towards zero) and is
/// therefore also `< p`. Both routes land on the same side of `p`.
pub const CERTIFICATE_MARGIN_LN: f64 = 10.0 * std::f64::consts::LN_10;

/// Whether `ln_upper` (from [`ln_tail_upper_bound`]) proves the tail is
/// below `p` with [`CERTIFICATE_MARGIN_LN`] to spare.
#[inline]
pub fn certifies_tail_below(ln_upper: f64, p: f64) -> bool {
    ln_upper <= p.ln() - CERTIFICATE_MARGIN_LN
}

/// Barbour–Hall refinement of Le Cam's theorem: the total-variation
/// distance between the Poisson-binomial and Poisson(`λ = Σ p_i`) is at most
/// `(1 − e^{−λ})/λ · Σ p_i²`, so every tail probability of one is within
/// this bound of the other's.
///
/// The bound is at most `Σ p_i² / λ`, a mean of the `p_i`; it does not
/// shrink with depth. On Q12 long reads (`p_i ≈ 0.063`) it is ≈ 0.063, so
/// the paper's shortcut — skip when `p̂ ≥ α + δ`, `δ = 0.01` — is not
/// certified there. The caller's screen subtracts it instead
/// ([`poisson_tail_lower_bound`]); its skip contract is stated once, in
/// `ultravc_core::pvalue`.
pub fn le_cam_bound(probs: &[f64]) -> f64 {
    let lambda: f64 = probs.iter().sum();
    let sum_sq: f64 = probs.iter().map(|p| p * p).sum();
    barbour_hall(lambda, sum_sq)
}

/// `(1 − e^{−λ})/λ · Σ p_i²`, capped at 1; `0` for `λ ≤ 0`.
fn barbour_hall(lambda: f64, sum_sq: f64) -> f64 {
    if lambda <= 0.0 {
        return 0.0;
    }
    (-(-lambda).exp_m1() / lambda * sum_sq).min(1.0)
}

/// Part (i) of the caller's reject-side screen: a certified lower bound on
/// the Poisson-binomial tail `Pr[X ≥ k]` of the quality `bins`, in
/// `O(#bins)` — the Poisson tail minus the Barbour–Hall distance
/// ([`le_cam_bound`]), which bounds the two laws' gap on every event.
///
/// Rounding: `λ` and `Σ mᵦpᵦ²` are sums over the bins (relative error
/// `~1e−14`), and the Poisson tail comes from the incomplete gamma to
/// `1e−12` relative; a `λ` off by a relative `ε` moves the tail by about
/// `k·ε`, and `ln Γ(k)` by `1e−13·k·ln k`. The tail is deflated and the
/// distance inflated by a relative `1e−10·(1 + k·(1 + ln(1 + k)))`, a
/// hundred times all of that. Non-positive where it proves nothing.
pub fn poisson_tail_lower_bound(bins: &[(f64, u32)], k: usize) -> f64 {
    let (lambda, sum_sq) = bins.iter().fold((0.0, 0.0), |(lambda, sum_sq), &(p, m)| {
        let mean = m as f64 * p;
        (lambda + mean, sum_sq + mean * p)
    });
    let kf = k as f64;
    let rounding = 1e-10 * (1.0 + kf * (1.0 + kf.ln_1p()));
    poisson_tail_from_lambda(lambda, k) * (1.0 - rounding)
        - barbour_hall(lambda, sum_sq) * (1.0 + rounding)
}

/// Relative room a caller leaves between a certified lower bound on the
/// tail and the p-value it wants to prove the tail is at or above:
/// `L ≥ p·(1 + 10⁻⁶)`.
///
/// The bounds already absorb their own rounding; the margin is for the
/// exact kernel's. That kernel agrees with the true tail to `1e−12`
/// relative (the proptest contract), so a tail certified `10⁻⁶` above
/// `p` is also above `p` as the kernel computes it: a skipped column is
/// one the kernel would not have called.
pub const LOWER_CERTIFICATE_MARGIN: f64 = 1e-6;

/// Whether the lower bound `lower` (from [`poisson_tail_lower_bound`] or
/// [`crate::poisson_binomial::Tilt::tail_lower_bound`]) proves the tail is
/// at or above `p` with [`LOWER_CERTIFICATE_MARGIN`] to spare.
#[inline]
pub fn certifies_tail_above(lower: f64, p: f64) -> bool {
    lower >= p * (1.0 + LOWER_CERTIFICATE_MARGIN)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::poisson_binomial::PoissonBinomial;
    use crate::rng::Rng;

    fn phred_probs(n: usize, seed: u64) -> Vec<f64> {
        let mut rng = Rng::new(seed);
        (0..n)
            .map(|_| 10f64.powf(-(rng.range_u64(20, 40) as f64) / 10.0))
            .collect()
    }

    #[test]
    fn all_tails_are_one_at_k_zero() {
        let probs = vec![0.01, 0.02];
        assert_eq!(poisson_tail(&probs, 0), 1.0);
        // The certified bound is the trivial `U = 1` there.
        assert_eq!(ln_tail_upper_bound(0.03, 0), 0.0);
    }

    #[test]
    fn poisson_tail_matches_exact_within_le_cam() {
        let probs = phred_probs(5_000, 3);
        let pb = PoissonBinomial::new(probs.clone()).unwrap();
        let bound = le_cam_bound(&probs);
        let lambda = pb.mean();
        for k in [1usize, (lambda as usize).max(1), lambda as usize + 5] {
            let exact = pb.tail_pruned(k);
            let approx = poisson_tail(&probs, k);
            assert!(
                (exact - approx).abs() <= bound + 1e-12,
                "k={k}: |{exact} − {approx}| > bound {bound}"
            );
        }
    }

    #[test]
    fn approximation_error_shrinks_with_depth() {
        // The discussion section's claim: the Poisson error vanishes as d
        // grows (for fixed per-read probability scale).
        let mut last_worst = f64::INFINITY;
        for &d in &[100usize, 1_000, 10_000] {
            let probs = vec![0.005f64; d];
            let pb = PoissonBinomial::new(probs.clone()).unwrap();
            let lambda = pb.mean() as usize;
            let mut worst: f64 = 0.0;
            for k in (lambda.saturating_sub(3))..=(lambda + 3) {
                let k = k.max(1);
                worst = worst.max((pb.tail_pruned(k) - poisson_tail(&probs, k)).abs());
            }
            // Relative to the Le Cam bound the error must stay under it; the
            // *bound itself* shrinks with d at fixed total λ — here λ grows,
            // so check the raw worst error is non-increasing in this sweep.
            assert!(
                worst <= last_worst * 1.5 + 1e-9,
                "d={d}: worst {worst} vs last {last_worst}"
            );
            last_worst = worst;
        }
    }

    #[test]
    fn le_cam_bound_basics() {
        assert_eq!(le_cam_bound(&[]), 0.0);
        assert_eq!(le_cam_bound(&[0.0, 0.0]), 0.0);
        // Uniform small p: bound ≈ (1−e^{−λ})/λ · d p².
        let probs = vec![0.001f64; 1_000];
        let b = le_cam_bound(&probs);
        assert!(b > 0.0 && b < 0.001, "bound {b}");
        // Never exceeds 1.
        assert!(le_cam_bound(&[1.0; 100]) <= 1.0);
    }

    #[test]
    fn paper_decision_scenario() {
        // The workflow of Fig 1b: a column whose approximate p̂ is far above
        // ε + δ must also have exact p above ε — i.e. skipping is safe.
        let probs = phred_probs(10_000, 17);
        let pb = PoissonBinomial::new(probs.clone()).unwrap();
        let eps = 0.05;
        let delta = 0.01;
        for k in 1..(pb.mean() as usize + 20) {
            let p_hat = poisson_tail(&probs, k);
            if p_hat >= eps + delta {
                let exact = pb.tail_pruned(k);
                assert!(
                    exact > eps,
                    "k={k}: shortcut would wrongly skip a significant column \
                     (p̂={p_hat}, exact={exact})"
                );
            }
        }
    }
}
