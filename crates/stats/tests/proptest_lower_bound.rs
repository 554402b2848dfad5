//! Soundness of the certified lower bounds behind the caller's reject-side
//! screen — (i) [`poisson_tail_lower_bound`], the Poisson tail minus the
//! Barbour–Hall distance, and (ii) [`Tilt::tail_lower_bound`], the
//! exponential tilt at `K` with Berry–Esseen: on random quality-binned
//! columns neither may exceed the exact binned kernel's tail, and whenever
//! the larger of the two certifies a tail at or above a threshold
//! ([`certifies_tail_above`]), the exact kernel's own tail is at or above
//! it too — the skip's byte-identity argument, checked on the kernel
//! itself.
//!
//! Corpora: `proptest_upper_bound`'s (log-uniform `p` over `[1e-9, 1]`
//! including `p = 1` bins, multiplicities up to 10⁶), and
//! `proptest_binned`'s long-read columns, Phred columns tested out to
//! λ + 60σ, and columns with `s < 1` tested at small K.

use proptest::prelude::*;
use ultravc_stats::approx::{
    certifies_tail_above, poisson_tail_lower_bound, LOWER_CERTIFICATE_MARGIN,
};
use ultravc_stats::poisson_binomial::{PoissonBinomial, Tilt};

/// Largest K the properties hand to the `O(bins·K²)` exact kernel.
const K_SPAN: usize = 600;

/// `proptest_upper_bound`'s corpus: `log10 p ∈ [−9, 0]`, every fifth bin
/// or so pinned to `p = 1`; multiplicities up to 10⁶, clipped so one bin's
/// mean stays ≤ `bin_mean`. Sorted by ascending probability.
fn wide_strategy(max_bins: usize, bin_mean: f64) -> impl Strategy<Value = Vec<(f64, u32)>> {
    prop::collection::vec((-9.0..=0.0f64, 0.0..=6.0f64, 0u8..5), 1..max_bins + 1).prop_map(
        move |raw| {
            let mut bins: Vec<(f64, u32)> = raw
                .into_iter()
                .map(|(log_p, log_m, certain)| {
                    let p = if certain == 0 { 1.0 } else { 10f64.powf(log_p) };
                    let m = 10f64.powf(log_m).min((bin_mean / p).ceil()).max(1.0);
                    (p, m as u32)
                })
                .collect();
            bins.sort_by(|a, b| a.0.total_cmp(&b.0));
            bins
        },
    )
}

/// `(Phred, multiplicity)` pairs with distinct Phred scores in `lo..=hi`,
/// as sorted `(probability, multiplicity)` bins.
fn phred_strategy(
    lo: u8,
    hi: u8,
    max_bins: usize,
    max_mult: u32,
) -> impl Strategy<Value = Vec<(f64, u32)>> {
    prop::collection::vec((lo..=hi, 1u32..=max_mult), 1..max_bins).prop_map(|raw| {
        let mut per_qual = std::collections::BTreeMap::<u8, u32>::new();
        for (q, m) in raw {
            *per_qual.entry(q).or_default() += m;
        }
        per_qual
            .into_iter()
            .rev()
            .map(|(q, m)| (10f64.powf(-(q as f64) / 10.0), m))
            .collect()
    })
}

/// Q30–Q60 columns of up to ~48,000 reads thinned to `λ ≤ 0.9`, so
/// `s² ≤ λ < 1`: the regime where Berry–Esseen's `β` is large.
fn small_sigma_strategy() -> impl Strategy<Value = Vec<(f64, u32)>> {
    phred_strategy(30, 60, 12, 4_000).prop_map(|bins| {
        let scale = (0.9 / PoissonBinomial::mean_binned(&bins)).min(1.0);
        bins.into_iter()
            .map(|(p, m)| (p, ((m as f64 * scale) as u32).max(1)))
            .collect()
    })
}

/// `proptest_binned`'s long-read columns: Phred ~ N(μ, sd) over Q2–Q25
/// with μ ∈ [11, 15], sd ∈ [2.5, 4.5] and a jitter per bin, 400–6 000
/// reads — the `noisy_3k` shape, where the Barbour–Hall distance is ≈ 0.06.
fn long_read_strategy() -> impl Strategy<Value = Vec<(f64, u32)>> {
    (
        400u32..=6_000,
        11.0..=15.0f64,
        2.5..=4.5f64,
        prop::collection::vec(0u32..=20, 24),
    )
        .prop_map(|(depth, mean, sd, jitter)| {
            let weight = |q: u32| (-0.5 * ((q as f64 - mean) / sd).powi(2)).exp();
            let norm: f64 = (2..=25).map(weight).sum();
            (2..=25u32)
                .rev()
                .zip(jitter)
                .map(|(q, extra)| {
                    let m = (depth as f64 * weight(q) / norm).round() as u32 + extra;
                    (10f64.powf(-(q as f64) / 10.0), m.max(1))
                })
                .collect()
        })
}

fn depth(bins: &[(f64, u32)]) -> usize {
    bins.iter().map(|&(_, m)| m as usize).sum()
}

/// A K in `[1, min(depth, λ + 60σ, λ + K_SPAN)]`, scaled by `frac`.
fn pick_k(bins: &[(f64, u32)], frac: f64) -> usize {
    let lambda = PoissonBinomial::mean_binned(bins);
    let sigma = PoissonBinomial::variance_binned(bins).sqrt();
    let hi = ((lambda + 60.0 * sigma) as usize + 2)
        .min(lambda as usize + K_SPAN)
        .min(depth(bins))
        .max(1);
    1 + ((hi - 1) as f64 * frac) as usize
}

/// A caller's corrected threshold `0.05 / (3·columns)` for `columns`
/// between 1 and 10⁸, log-uniform.
fn threshold_strategy() -> impl Strategy<Value = f64> {
    (0.0..=8.0f64).prop_map(|log_columns| 0.05 / (3.0 * 10f64.powf(log_columns)))
}

/// The screen's bound: (i), and (ii) where (i) does not certify `t`.
fn screen_bound(bins: &[(f64, u32)], k: usize, t: f64) -> f64 {
    let poisson = poisson_tail_lower_bound(bins, k);
    if certifies_tail_above(poisson, t) {
        return poisson;
    }
    let tilted = Tilt::solve(bins, k).map_or(0.0, |tilt| tilt.tail_lower_bound(bins));
    poisson.max(tilted)
}

/// Both bounds at `k` are below the exact tail, and a certificate of `t`
/// implies the exact tail is at or above `t`.
fn check_sound(bins: &[(f64, u32)], k: usize, t: f64) -> Result<(), String> {
    let exact = PoissonBinomial::tail_pruned_binned(bins, k);
    let poisson = poisson_tail_lower_bound(bins, k);
    let tilted = Tilt::solve(bins, k).map(|tilt| tilt.tail_lower_bound(bins));
    let below = |bound: f64| !bound.is_nan() && bound <= exact * (1.0 + 1e-12);
    if !below(poisson) || !tilted.is_none_or(below) {
        return Err(format!(
            "k={k}: exact tail {exact:e}, Poisson bound {poisson:e}, tilted bound {tilted:?}"
        ));
    }
    let bound = screen_bound(bins, k, t);
    if certifies_tail_above(bound, t) && exact < t {
        return Err(format!(
            "k={k}: bound {bound:e} certifies {t:e}, the exact tail is {exact:e}"
        ));
    }
    Ok(())
}

/// The largest `k ≥ λ` whose screen bound still certifies `t` — the
/// certified tail closest to the threshold — checked, with the first one
/// past it.
fn check_the_last_certified_k(bins: &[(f64, u32)], t: f64) -> Result<(), String> {
    let lambda = PoissonBinomial::mean_binned(bins);
    let top = depth(bins).min(lambda as usize + K_SPAN);
    let mut k = (lambda.floor() as usize).max(1);
    while k < top && certifies_tail_above(screen_bound(bins, k + 1, t), t) {
        k += 1;
    }
    check_sound(bins, k, t)?;
    check_sound(bins, (k + 1).min(top.max(1)), t)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn bounds_stay_below_the_exact_tail(
        bins in wide_strategy(60, 8.0),
        frac in 0.0..=1.0f64,
        t in threshold_strategy(),
    ) {
        let verdict = check_sound(&bins, pick_k(&bins, frac), t);
        prop_assert!(verdict.is_ok(), "{verdict:?} — bins {bins:?}");
    }

    #[test]
    fn phred_columns_out_to_sixty_sigma(
        bins in phred_strategy(2, 64, 40, 2_000),
        frac in 0.0..=1.0f64,
        t in threshold_strategy(),
    ) {
        let verdict = check_sound(&bins, pick_k(&bins, frac), t);
        prop_assert!(verdict.is_ok(), "{verdict:?} — bins {bins:?}");
    }

    #[test]
    fn small_k_columns_with_s_below_one(
        bins in small_sigma_strategy(),
        k in 1usize..40,
        t in threshold_strategy(),
    ) {
        prop_assert!(PoissonBinomial::variance_binned(&bins) < 1.0);
        let verdict = check_sound(&bins, k.min(depth(&bins)), t);
        prop_assert!(verdict.is_ok(), "{verdict:?} — bins {bins:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn long_read_columns(
        bins in long_read_strategy(),
        frac in 0.0..=1.0f64,
        t in threshold_strategy(),
    ) {
        let verdict = check_sound(&bins, pick_k(&bins, frac), t);
        prop_assert!(verdict.is_ok(), "{verdict:?} — bins {bins:?}");
    }

    /// Where it is hardest: the last K the screen certifies.
    #[test]
    fn the_last_certified_k_is_at_or_above_the_threshold(
        bins in long_read_strategy(),
        t in threshold_strategy(),
    ) {
        let verdict = check_the_last_certified_k(&bins, t);
        prop_assert!(verdict.is_ok(), "{verdict:?} — bins {bins:?}");
    }

    #[test]
    fn the_last_certified_k_on_the_wide_corpus(
        bins in wide_strategy(30, 4.0),
        t in threshold_strategy(),
    ) {
        let verdict = check_the_last_certified_k(&bins, t);
        prop_assert!(verdict.is_ok(), "{verdict:?} — bins {bins:?}");
    }
}

/// 3,000 Q12 reads, the `noisy_3k` column: λ ≈ 189.
fn q12_column() -> Vec<(f64, u32)> {
    vec![(10f64.powf(-1.2), 3_000)]
}

#[test]
fn the_tilt_reaches_past_the_barbour_hall_distance() {
    // Bound (i) proves nothing once the Poisson tail drops below the
    // distance (≈ 0.06 here); (ii) keeps certifying the `noisy_3k`
    // threshold (0.05 / 90,000) out to K ≈ λ + 5σ, within a small factor
    // of the exact tail.
    let bins = q12_column();
    let t = 0.05 / 90_000.0;
    for k in [230usize, 240, 250] {
        let exact = PoissonBinomial::tail_pruned_binned(&bins, k);
        assert!(poisson_tail_lower_bound(&bins, k) < 0.0, "k={k}");
        let tilted = Tilt::solve(&bins, k).unwrap().tail_lower_bound(&bins);
        assert!(
            tilted <= exact && tilted * 20.0 >= exact,
            "k={k}: {tilted:e} vs {exact:e}"
        );
        assert!(certifies_tail_above(tilted, t), "k={k}: {tilted:e}");
    }
}

#[test]
fn the_tilted_bound_holds_on_small_binomials() {
    // One bin of 16–200 trials, K from 16 up to every trial: few trials
    // and a wide spread of tilts, where Berry–Esseen's β is largest.
    for m in [16u32, 20, 32, 64, 200] {
        for p in [0.02, 0.1, 0.3, 0.5, 0.9] {
            let bins = [(p, m)];
            for k in 16..=m as usize {
                let Some(tilt) = Tilt::solve(&bins, k) else {
                    continue;
                };
                let exact = PoissonBinomial::tail_pruned_binned(&bins, k);
                let bound = tilt.tail_lower_bound(&bins);
                assert!(bound <= exact, "m={m} p={p} k={k}: {bound:e} > {exact:e}");
            }
        }
    }
}

#[test]
fn certificate_threshold_is_the_margin_above_the_target() {
    let t = 1e-6;
    let edge = t * (1.0 + LOWER_CERTIFICATE_MARGIN);
    assert!(certifies_tail_above(edge, t));
    assert!(!certifies_tail_above(edge * (1.0 - 1e-12), t));
    assert!(!certifies_tail_above(f64::NAN, t));
    assert!(!certifies_tail_above(0.0, 0.0 + f64::MIN_POSITIVE));
    // No bound below the threshold certifies, however close.
    assert!(!certifies_tail_above(t, t));
}
