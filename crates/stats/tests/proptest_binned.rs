//! Property tests for the grouped-trial (binned) Poisson-binomial kernels:
//! on random quality-binned columns — depths up to 50 000, mixed Phred
//! qualities, random K — the binned tail must agree with the per-trial
//! pruned DP and the full pmf, and the binned moments with the per-trial
//! moments.
//!
//! Tolerances: the binned and per-trial kernels round differently (the
//! per-trial DP performs `d` sequential updates; the binned DP one
//! convolution per quality), so "agreement" is bounded by the *sum* of
//! both kernels' drifts. A double-double referee puts the binned kernel's
//! own error below the per-trial kernel's at every depth tested; their
//! mutual disagreement stays ≤ 1e−12 relative across this corpus.

use proptest::prelude::*;
use ultravc_stats::poisson_binomial::{BinnedTailScratch, PoissonBinomial};
use ultravc_stats::{TailBudget, TailOutcome};

/// Strategy: a quality-binned column. Bins are `(Phred, multiplicity)`
/// with distinct Phred scores, converted to sorted `(prob, multiplicity)`
/// pairs; total depth ranges from a handful of reads to 50 000.
fn bins_strategy(max_bins: usize, max_mult: u32) -> impl Strategy<Value = Vec<(f64, u32)>> {
    prop::collection::vec((2u8..=64, 1u32..=max_mult), 1..max_bins).prop_map(|raw| {
        let mut per_qual = std::collections::BTreeMap::<u8, u64>::new();
        for (q, m) in raw {
            *per_qual.entry(q).or_default() += m as u64;
        }
        // Descending quality = ascending probability, mirroring
        // `PileupColumn::fill_quality_bins`.
        per_qual
            .into_iter()
            .rev()
            .map(|(q, m)| {
                (
                    10f64.powf(-(q as f64) / 10.0),
                    m.min(u32::MAX as u64) as u32,
                )
            })
            .collect()
    })
}

fn rel_diff(a: f64, b: f64) -> f64 {
    (a - b).abs() / a.abs().max(b.abs()).max(f64::MIN_POSITIVE)
}

/// Pick a K inside the regime the caller exercises: between 1 and
/// min(depth, λ + 12σ, 2048), scaled by `frac`.
fn pick_k(bins: &[(f64, u32)], frac: f64) -> usize {
    let lambda = PoissonBinomial::mean_binned(bins);
    let sigma = PoissonBinomial::variance_binned(bins).sqrt();
    let depth: usize = bins.iter().map(|&(_, m)| m as usize).sum();
    let hi = ((lambda + 12.0 * sigma) as usize + 2).min(depth).min(2048);
    ((hi as f64 * frac) as usize).clamp(1, hi)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn binned_tail_matches_per_trial_pruned(bins in bins_strategy(40, 2_000), frac in 0.0..=1.0f64) {
        let k = pick_k(&bins, frac);
        let pb = PoissonBinomial::from_bins(&bins);
        let per_trial = pb.tail_pruned(k);
        let binned = PoissonBinomial::tail_pruned_binned(&bins, k);
        prop_assert!(
            rel_diff(per_trial, binned) <= 1e-12,
            "k={k} depth={}: per-trial {per_trial:e} vs binned {binned:e} (rel {:.3e})",
            pb.len(),
            rel_diff(per_trial, binned)
        );
    }

    #[test]
    fn binned_tail_matches_the_pmf_suffix_on_small_columns(bins in bins_strategy(8, 60), frac in 0.0..=1.0f64) {
        // The O(d²) pmf only tolerates modest depths; there it ties the
        // binned kernel to the paper's recurrence for every K up to d.
        let pb = PoissonBinomial::from_bins(&bins);
        let k = ((pb.len() as f64 * frac) as usize).clamp(1, pb.len());
        let binned = PoissonBinomial::tail_pruned_binned(&bins, k);
        let suffix: f64 = pb.pmf().iter().skip(k).sum();
        prop_assert!((suffix - binned).abs() < 1e-10, "pmf suffix {suffix} vs binned {binned}");
    }

    #[test]
    fn binned_early_exit_never_lies(bins in bins_strategy(30, 1_500), frac in 0.0..=1.0f64, bail in 0.001..0.5f64) {
        let k = pick_k(&bins, frac);
        let exact = PoissonBinomial::tail_pruned_binned(&bins, k);
        let mut scratch = BinnedTailScratch::new();
        match PoissonBinomial::tail_early_exit_binned(&bins, k, TailBudget { bail_above: bail }, &mut scratch) {
            TailOutcome::Exact(p) => {
                prop_assert!(rel_diff(p, exact) <= 1e-12);
                prop_assert!(p <= bail + 1e-12, "completed DP implies tail ≤ bail");
            }
            TailOutcome::Bailed { lower_bound, trials_used } => {
                prop_assert!(lower_bound > bail);
                prop_assert!(exact + 1e-12 >= lower_bound, "bound not conservative: {lower_bound} vs exact {exact}");
                let total: usize = bins.iter().map(|&(_, m)| m as usize).sum();
                prop_assert!(trials_used >= 1 && trials_used <= total);
            }
        }
    }

    #[test]
    fn binned_moments_match_per_trial(bins in bins_strategy(40, 2_000)) {
        let pb = PoissonBinomial::from_bins(&bins);
        prop_assert!(rel_diff(pb.mean(), PoissonBinomial::mean_binned(&bins)) <= 1e-12);
        prop_assert!(rel_diff(pb.variance(), PoissonBinomial::variance_binned(&bins)) <= 1e-12);
    }

    #[test]
    fn binned_tail_monotone_in_k(bins in bins_strategy(20, 300)) {
        let depth: usize = bins.iter().map(|&(_, m)| m as usize).sum();
        let mut prev = 1.0f64;
        let hi = depth.min(600);
        for k in 0..=hi {
            let t = PoissonBinomial::tail_pruned_binned(&bins, k);
            prop_assert!(t <= prev + 1e-12, "k={k}: {t} > {prev}");
            prev = t;
        }
    }

    #[test]
    fn scratch_reuse_is_sound(bins in bins_strategy(20, 800), frac in 0.0..=1.0f64) {
        // One scratch across many (bins, k) pairs must give identical
        // results to a fresh scratch each time.
        let mut shared = BinnedTailScratch::new();
        let budget = TailBudget { bail_above: f64::INFINITY };
        for step in 0..4usize {
            let k = pick_k(&bins, frac).saturating_add(step * 3).max(1);
            let fresh = PoissonBinomial::tail_pruned_binned(&bins, k);
            let reused = PoissonBinomial::tail_early_exit_binned(&bins, k, budget, &mut shared);
            prop_assert_eq!(reused.exact(), Some(fresh), "k={}", k);
        }
    }
}

// ---------------------------------------------------------------------
// SIMD dispatch agreement: every backend available on this host must
// reproduce the scalar reference exactly — same tails (the ≤1e-14
// contract; the backends are bitwise-identical by construction, so this
// holds with orders of magnitude to spare) and the same certified-bail
// decisions, down to the trial count.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn simd_backends_match_scalar_tail(bins in bins_strategy(40, 2_000), frac in 0.0..=1.0f64) {
        let k = pick_k(&bins, frac);
        let scalar = PoissonBinomial::tail_pruned_binned_with(ultravc_simd::scalar(), &bins, k);
        for kr in ultravc_simd::available() {
            let got = PoissonBinomial::tail_pruned_binned_with(kr, &bins, k);
            prop_assert!(
                rel_diff(scalar, got) <= 1e-14,
                "backend {} diverges at k={k}: scalar {scalar:e} vs {got:e} (rel {:.3e})",
                kr.name,
                rel_diff(scalar, got)
            );
        }
    }

    #[test]
    fn simd_backends_match_scalar_bail_decisions(
        bins in bins_strategy(40, 2_000),
        frac in 0.0..=1.0f64,
        bail_frac in 0.1..=4.0f64,
    ) {
        let k = pick_k(&bins, frac);
        let scalar_kr = ultravc_simd::scalar();
        let exact = PoissonBinomial::tail_pruned_binned_with(scalar_kr, &bins, k);
        // Budgets straddling the exact tail exercise both bail and
        // run-to-completion paths; degenerate tails fall back to a fixed
        // budget so the comparison still runs.
        let bail_above = if exact > 0.0 { exact * bail_frac } else { 0.05 };
        let budget = TailBudget { bail_above };
        let mut scratch = BinnedTailScratch::new();
        let reference = PoissonBinomial::tail_early_exit_binned_with(
            scalar_kr, &bins, k, budget, &mut scratch,
        );
        for kr in ultravc_simd::available() {
            let got = PoissonBinomial::tail_early_exit_binned_with(
                kr, &bins, k, budget, &mut scratch,
            );
            match (reference, got) {
                (TailOutcome::Exact(a), TailOutcome::Exact(b)) => {
                    prop_assert!(
                        rel_diff(a, b) <= 1e-14,
                        "backend {}: exact {a:e} vs {b:e}", kr.name
                    );
                }
                (
                    TailOutcome::Bailed { lower_bound: lb_a, trials_used: t_a },
                    TailOutcome::Bailed { lower_bound: lb_b, trials_used: t_b },
                ) => {
                    prop_assert_eq!(
                        t_a, t_b,
                        "backend {} certified-bail trial count diverges (k={})",
                        kr.name, k
                    );
                    prop_assert!(
                        rel_diff(lb_a, lb_b) <= 1e-14,
                        "backend {}: bail bound {lb_a:e} vs {lb_b:e}", kr.name
                    );
                }
                (a, b) => prop_assert!(
                    false,
                    "backend {} changed the early-exit decision at k={k}: {a:?} vs {b:?}",
                    kr.name
                ),
            }
        }
    }
}
