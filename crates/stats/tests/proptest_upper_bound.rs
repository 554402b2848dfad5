//! Soundness of the certified upper bound behind the caller's accept-side
//! screen ([`ln_tail_upper_bound`]): on random quality-binned columns it
//! must never fall below the exact binned kernel's tail, must report "no
//! certificate" (`0.0`) outside its domain, and whenever it certifies a
//! tail below a p-value the exact kernel's own result must be below it too
//! — the byte-identity argument, checked on the kernel itself.
//!
//! The corpus is wider than anything a pileup produces on purpose
//! (`p` log-uniform over `[1e-9, 1]` including `p = 1` bins, multiplicities
//! up to 10⁶, a bin whose `q^m` underflows): the bound's proof does not use
//! the Phred table, so neither may the test.

use proptest::prelude::*;
use ultravc_stats::approx::{certifies_tail_below, ln_tail_upper_bound, CERTIFICATE_MARGIN_LN};
use ultravc_stats::poisson_binomial::PoissonBinomial;

/// Stand-in for `ultravc_genome::phred::QUAL_SATURATION_P` (that crate sits
/// above this one); `core`'s tests repeat the check through the export.
const SATURATION_P: f64 = 1e-300;

/// Largest K the properties hand to the `O(bins·K²)` exact kernel.
const K_SPAN: usize = 600;

/// `(probability, multiplicity)` bins sorted by ascending probability.
/// `log10 p ∈ [−9, 0]`, every fifth bin or so pinned to `p = 1`;
/// multiplicities up to 10⁶, clipped so one bin's mean stays ≤ `bin_mean`
/// and the column's K stays within the exact kernel's reach.
fn bins_strategy(max_bins: usize, bin_mean: f64) -> impl Strategy<Value = Vec<(f64, u32)>> {
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

fn depth(bins: &[(f64, u32)]) -> usize {
    bins.iter().map(|&(_, m)| m as usize).sum()
}

/// A `k ∈ (λ, depth]`, at most `K_SPAN` above `λ`; `None` when `λ` already
/// fills the column (every trial certain).
fn pick_k(bins: &[(f64, u32)], frac: f64) -> Option<usize> {
    let lambda = PoissonBinomial::mean_binned(bins);
    let lo = lambda.floor() as usize + 1;
    let hi = depth(bins).min(lo + K_SPAN);
    (lo <= hi).then(|| lo + ((hi - lo) as f64 * frac) as usize)
}

fn check_sound(bins: &[(f64, u32)], k: usize) -> Result<(), String> {
    let lambda = PoissonBinomial::mean_binned(bins);
    let ln_upper = ln_tail_upper_bound(lambda, k);
    if ln_upper.is_nan() || ln_upper > 0.0 {
        return Err(format!(
            "λ={lambda} k={k}: bound {ln_upper} is not a log-probability"
        ));
    }
    let exact = PoissonBinomial::tail_pruned_binned(bins, k);
    if exact.is_normal() && exact.ln() > ln_upper + 1e-9 * ln_upper.abs().max(1.0) {
        return Err(format!(
            "λ={lambda} k={k}: exact tail {exact:e} (ln {}) above the bound (ln {ln_upper})",
            exact.ln()
        ));
    }
    if certifies_tail_below(ln_upper, SATURATION_P) && (exact.is_nan() || exact >= SATURATION_P) {
        return Err(format!(
            "λ={lambda} k={k}: certified (ln U = {ln_upper}) but the exact kernel returns {exact:e}"
        ));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn bound_dominates_exact_tail(bins in bins_strategy(60, 8.0), frac in 0.0..=1.0f64) {
        if let Some(k) = pick_k(&bins, frac) {
            let verdict = check_sound(&bins, k);
            prop_assert!(verdict.is_ok(), "{verdict:?} — bins {bins:?}");
        }
    }

    #[test]
    fn no_certificate_outside_the_domain(bins in bins_strategy(60, 50.0), frac in 0.0..=1.0f64) {
        let lambda = PoissonBinomial::mean_binned(&bins);
        // k ≤ λ: Chernoff's optimal t is ≤ 0 and proves nothing.
        let k_below = (lambda * frac) as usize;
        prop_assert_eq!(ln_tail_upper_bound(lambda, k_below), 0.0);
        prop_assert_eq!(ln_tail_upper_bound(lambda, 0), 0.0);
        // λ = 0 (an empty column): no certificate, whatever k.
        let k_any = 1 + (frac * 1e6) as usize;
        prop_assert_eq!(ln_tail_upper_bound(0.0, k_any), 0.0);
        prop_assert_eq!(ln_tail_upper_bound(PoissonBinomial::mean_binned(&[]), k_any), 0.0);
        for bad in [-1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            prop_assert_eq!(ln_tail_upper_bound(bad, k_any), 0.0);
        }
        // Inside the domain it is a finite log-probability and monotone.
        if let Some(k) = pick_k(&bins, frac) {
            let here = ln_tail_upper_bound(lambda, k);
            let next = ln_tail_upper_bound(lambda, k + 1);
            prop_assert!(here.is_finite() && here <= 0.0, "ln U = {here}");
            prop_assert!(next <= here, "bound must fall as k grows: {here} → {next}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Property (b) where it is hardest: the first K at which the
    /// certificate fires, i.e. the certified tail closest to the target.
    #[test]
    fn first_certified_k_saturates_in_the_exact_kernel_too(
        bins in bins_strategy(30, 4.0),
        above in 0usize..20,
    ) {
        let lambda = PoissonBinomial::mean_binned(&bins);
        let certified = |k: usize| certifies_tail_below(ln_tail_upper_bound(lambda, k), SATURATION_P);
        let first = (lambda.floor() as usize + 1..=depth(&bins)).find(|&k| certified(k));
        if let Some(first) = first {
            let k = (first + above).min(depth(&bins));
            prop_assert!(certified(k), "certificate must hold for every larger k");
            let verdict = check_sound(&bins, k);
            prop_assert!(verdict.is_ok(), "{verdict:?} — bins {bins:?}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The `q^m`-underflow regime: one bin heavy enough that the exact
    /// kernel has to fold it in sub-chunks (`m·ln q < −700`), under a few
    /// ordinary ones. λ is in the hundreds to thousands there, so K is too.
    #[test]
    fn bound_dominates_exact_tail_with_an_underflowing_bin(
        bins in bins_strategy(6, 4.0),
        heavy_p in 0.5..0.9f64,
        heavy_m in 1_200u32..2_000,
        frac in 0.0..=1.0f64,
    ) {
        prop_assert!(heavy_m as f64 * (-heavy_p).ln_1p() < -700.0);
        let mut bins = bins;
        bins.push((heavy_p, heavy_m));
        bins.sort_by(|a, b| a.0.total_cmp(&b.0));
        if let Some(k) = pick_k(&bins, frac) {
            let verdict = check_sound(&bins, k);
            prop_assert!(verdict.is_ok(), "{verdict:?} — bins {bins:?}");
        }
    }
}

/// 21 quality bins (Q20–Q40) sharing `depth` reads, the shape of a
/// `deep_100k` column.
fn phred_column(depth: u32) -> Vec<(f64, u32)> {
    let mut bins: Vec<(f64, u32)> = (20u32..=40)
        .rev()
        .map(|q| (10f64.powf(-(q as f64) / 10.0), depth / 21))
        .collect();
    bins[0].1 += depth % 21;
    bins
}

#[test]
fn certifies_the_deep_100k_shape() {
    // Depth 133,000, 21 bins, a 5 % variant: K = 6,650 — ~135 ms of exact
    // DP per column at the parent commit.
    let bins = phred_column(133_000);
    assert_eq!((bins.len(), depth(&bins)), (21, 133_000));
    let lambda = PoissonBinomial::mean_binned(&bins);
    let ln_upper = ln_tail_upper_bound(lambda, 6_650);
    assert!(
        certifies_tail_below(ln_upper, SATURATION_P),
        "ln U = {ln_upper}"
    );
    assert!(ln_upper < -10_000.0, "λ = {lambda}, ln U = {ln_upper}");
}

#[test]
fn certifies_the_depth_cap_without_the_exact_kernel() {
    // LoFreq's 1,000,000× depth cap, 5 % variant: K = 50,000. The exact
    // kernel's cost is ∝ K² (seconds); it is deliberately not run here.
    let bins = phred_column(1_000_000);
    let lambda = PoissonBinomial::mean_binned(&bins);
    let ln_upper = ln_tail_upper_bound(lambda, 50_000);
    assert!(
        certifies_tail_below(ln_upper, SATURATION_P),
        "ln U = {ln_upper}"
    );
    // Same column at its error level: K ≈ λ must not certify anything.
    let k_noise = lambda.ceil() as usize + 1;
    assert!(!certifies_tail_below(
        ln_tail_upper_bound(lambda, k_noise),
        SATURATION_P
    ));
}

#[test]
fn certificate_threshold_is_the_margin_below_the_target() {
    let edge = SATURATION_P.ln() - CERTIFICATE_MARGIN_LN;
    assert!(certifies_tail_below(edge, SATURATION_P));
    assert!(!certifies_tail_below(edge + 1e-9, SATURATION_P));
    // Ten decades: the certified tail is ≤ 1e-310.
    assert!((edge - 1e-310f64.ln()).abs() < 1e-9, "{edge}");
    assert!(!certifies_tail_below(0.0, SATURATION_P));
    assert!(!certifies_tail_below(f64::NAN, SATURATION_P));
}
