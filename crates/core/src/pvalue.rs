//! The per-column decision engine — the paper's Figure 1b as code.

use crate::config::{CallerConfig, SCREEN_DELTA, SCREEN_MIN_DEPTH};
use serde::{Deserialize, Serialize};
use ultravc_genome::alphabet::Base;
use ultravc_genome::phred::QUAL_SATURATION_P;
use ultravc_pileup::{PileupColumn, QualityBins};
use ultravc_stats::approx::{certifies_tail_below, ln_tail_upper_bound, poisson_tail_from_lambda};
use ultravc_stats::poisson_binomial::{
    BinnedTailScratch, PoissonBinomial, TailBudget, TailOutcome,
};

/// Reusable per-worker buffers for the binned calling path: the quality-bin
/// view of the column under test plus the grouped-trial DP state. One
/// `Scratch` lives per worker thread (or per sequential run) and is reused
/// across every column it tests, so the production path performs **zero
/// per-column heap allocations** — the working set is the fixed histogram,
/// ~100 bins, and a `K`-sized DP vector.
#[derive(Debug, Clone, Default)]
pub struct Scratch {
    /// After [`ColumnTest::test`] returns a non-`NoMismatch` decision,
    /// holds the tested column's quality bins (the caller reads its length
    /// for the bins-per-column statistic without re-scanning the
    /// histogram).
    pub(crate) bins: QualityBins,
    /// Whether the last tested column was called by the certified upper
    /// bound instead of the exact kernel (see [`ColumnDecision::Called`]).
    pub(crate) certified: bool,
    dp: BinnedTailScratch,
}

impl Scratch {
    /// Fresh scratch; buffers grow to the worker's high-water column.
    pub fn new() -> Scratch {
        Scratch::default()
    }

    /// Columns tested through this scratch whose exact tail fell back from
    /// the tilt window to the full range.
    pub(crate) fn window_fallbacks(&self) -> u64 {
        self.dp.window_fallbacks()
    }
}

/// How a column's test concluded.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ColumnDecision {
    /// No non-reference bases: nothing to test.
    NoMismatch,
    /// The `O(d)` Poisson screen proved the column uninteresting
    /// (`p̂ ≥ ε + δ`); the exact computation was skipped. The speedup path.
    SkippedByApprox {
        /// The approximate p-value.
        p_hat: f64,
    },
    /// The exact DP bailed early once its running tail crossed the
    /// significance threshold (LoFreq's pre-existing optimization).
    BailedEarly {
        /// Certified lower bound on the p-value at the bail point.
        lower_bound: f64,
    },
    /// Significant → variant call. Either the exact kernel ran to
    /// completion, or the certified upper bound proved the p-value is below
    /// the point where the reported QUAL saturates and the kernel was not
    /// run (`CallStats::certified_calls` counts the latter).
    Called {
        /// The exact p-value — or, for a certified call, the upper bound
        /// `U ≥ p` (≤ `1e-310`, possibly underflowed to `0`). Both
        /// Phred-scale to the same QUAL.
        pvalue: f64,
    },
    /// Exact p-value computed; not significant.
    NotSignificant {
        /// The exact p-value.
        pvalue: f64,
    },
}

impl ColumnDecision {
    /// Whether the decision produces a variant call.
    pub fn is_call(&self) -> bool {
        matches!(self, ColumnDecision::Called { .. })
    }

    /// Whether the column got past the reject-side screen: the exact
    /// kernel ran (to completion or bail), or the call was certified.
    pub fn ran_exact(&self) -> bool {
        !matches!(
            self,
            ColumnDecision::NoMismatch | ColumnDecision::SkippedByApprox { .. }
        )
    }
}

/// The column tester: configuration plus the per-region significance
/// threshold (Bonferroni-corrected), fixed once per run.
#[derive(Debug, Clone, Copy)]
pub struct ColumnTest {
    sig_level: f64,
    threshold: f64,
    shortcut: bool,
}

impl ColumnTest {
    /// Build from a config and the number of columns the run will test.
    pub fn new(config: &CallerConfig, n_columns: usize) -> ColumnTest {
        ColumnTest {
            sig_level: config.sig_level,
            threshold: config.column_threshold(n_columns),
            shortcut: config.shortcut,
        }
    }

    /// The per-column significance threshold in force.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// The accept-side screen: `Some(U)` when the Chernoff bound
    /// `U ≥ Pr[X ≥ k]` ([`ln_tail_upper_bound`]) proves, with
    /// [`ultravc_stats::approx::CERTIFICATE_MARGIN_LN`] to spare, that the
    /// p-value is below [`QUAL_SATURATION_P`] — the call's QUAL is then
    /// [`ultravc_genome::phred::QUAL_CAP`] whatever the exact kernel would
    /// return, so its `O(K·Σ min(mᵦ, K))` run (less under the tilt window)
    /// is skipped. `U < threshold` holds
    /// for every real Bonferroni factor; it is checked so that an absurd
    /// fixed one still decides the call.
    ///
    /// Rigorous at every depth (no depth gate). Output identity with
    /// [`CallerConfig::original`]: the true p is `≤ 1e-310`, and the DP
    /// sums non-negative terms only, so an exact run of the same column
    /// also lands below `1e-300` and prints the same QUAL.
    ///
    /// Out of line on purpose: [`Self::test`] is the hot body of every
    /// column, and inlining this branch cost `wide_1k` 3–6 % at two threads
    /// with zero certificates fired.
    #[inline(never)]
    fn certified_saturated(&self, lambda: f64, k: usize) -> Option<f64> {
        let ln_upper = ln_tail_upper_bound(lambda, k);
        if !certifies_tail_below(ln_upper, QUAL_SATURATION_P) {
            return None;
        }
        let upper = ln_upper.exp();
        (upper < self.threshold).then_some(upper)
    }

    /// Run the Figure 1b workflow on one column.
    ///
    /// `scratch` carries the reusable bin/DP buffers: the column's quality
    /// histogram is read straight into them, so the test allocates nothing
    /// per column.
    pub fn test(
        &self,
        column: &PileupColumn,
        ref_base: Base,
        scratch: &mut Scratch,
    ) -> ColumnDecision {
        let k = column.mismatch_count(ref_base) as usize;
        if k == 0 {
            return ColumnDecision::NoMismatch;
        }
        let depth = column.depth();

        // One histogram aggregation serves both stages: λ for the screen
        // is a sum over the bins (O(#bins), independent of depth) and the
        // exact stage consumes the same bins.
        column.fill_quality_bins(&mut scratch.bins);

        // First-pass screen (the paper's contribution), then its
        // accept-side twin for the columns it let through.
        scratch.certified = false;
        if self.shortcut {
            let lambda = scratch.bins.lambda();
            if depth >= SCREEN_MIN_DEPTH {
                let p_hat = poisson_tail_from_lambda(lambda, k);
                if p_hat >= self.sig_level + SCREEN_DELTA {
                    return ColumnDecision::SkippedByApprox { p_hat };
                }
            }
            if let Some(pvalue) = self.certified_saturated(lambda, k) {
                scratch.certified = true;
                return ColumnDecision::Called { pvalue };
            }
        }

        // Exact computation, with LoFreq's early exit: any tail above the
        // *uncorrected* sig level can never be significant after
        // correction, so the DP bails there.
        let budget = TailBudget {
            bail_above: self.sig_level,
        };
        let pvalue = match PoissonBinomial::tail_early_exit_binned(
            scratch.bins.as_slice(),
            k,
            budget,
            &mut scratch.dp,
        ) {
            TailOutcome::Exact(p) => p,
            TailOutcome::Bailed { lower_bound, .. } => {
                return ColumnDecision::BailedEarly { lower_bound };
            }
        };
        if pvalue < self.threshold {
            ColumnDecision::Called { pvalue }
        } else {
            ColumnDecision::NotSignificant { pvalue }
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::config::Bonferroni;
    use ultravc_genome::phred::Phred;
    use ultravc_pileup::PileupEntry;

    fn column(n_ref: usize, n_alt: usize, q: u8) -> PileupColumn {
        let mut col = PileupColumn::new(0);
        for i in 0..n_ref {
            col.push(PileupEntry {
                base: Base::A,
                qual: Phred::new(q),
                reverse: i % 2 == 0,
            });
        }
        for i in 0..n_alt {
            col.push(PileupEntry {
                base: Base::G,
                qual: Phred::new(q),
                reverse: i % 2 == 0,
            });
        }
        col
    }

    fn test_with(config: &CallerConfig, col: &PileupColumn) -> ColumnDecision {
        test_with_scratch(config, col, &mut Scratch::new())
    }

    fn test_with_scratch(
        config: &CallerConfig,
        col: &PileupColumn,
        scratch: &mut Scratch,
    ) -> ColumnDecision {
        ColumnTest::new(config, 1_000).test(col, Base::A, scratch)
    }

    #[test]
    fn pure_reference_column_short_circuits() {
        let cfg = CallerConfig::default();
        let col = column(500, 0, 30);
        assert_eq!(test_with(&cfg, &col), ColumnDecision::NoMismatch);
    }

    #[test]
    fn obvious_variant_is_called() {
        // 50 alt reads at Q30 among 1000: λ = 1, P[X ≥ 50] astronomically
        // small.
        let cfg = CallerConfig::default();
        let col = column(950, 50, 30);
        let d = test_with(&cfg, &col);
        assert!(d.is_call(), "{d:?}");
        if let ColumnDecision::Called { pvalue } = d {
            assert!(pvalue < 1e-30);
        }
    }

    #[test]
    fn error_level_mismatches_are_skipped_by_approx() {
        // At Q20 (p=0.01), 1000 reads ⇒ λ=10; seeing 8 mismatches is
        // thoroughly unremarkable: p̂ ≈ 0.78 ≥ 0.06 ⇒ skip.
        let cfg = CallerConfig::default();
        let col = column(992, 8, 20);
        match test_with(&cfg, &col) {
            ColumnDecision::SkippedByApprox { p_hat } => assert!(p_hat > 0.5, "{p_hat}"),
            other => panic!("expected approx skip, got {other:?}"),
        }
    }

    #[test]
    fn original_config_runs_exact_on_same_column() {
        let cfg = CallerConfig::original();
        let col = column(992, 8, 20);
        let d = test_with(&cfg, &col);
        assert!(d.ran_exact());
        assert!(!d.is_call());
        // With early exit on, an unremarkable column bails.
        assert!(matches!(d, ColumnDecision::BailedEarly { .. }), "{d:?}");
    }

    #[test]
    fn shallow_columns_bypass_the_shortcut() {
        // depth 50 < SCREEN_MIN_DEPTH: the screen must not fire even though
        // p̂ would be large.
        let cfg = CallerConfig::default();
        let col = column(48, 2, 20);
        let d = test_with(&cfg, &col);
        assert!(d.ran_exact(), "{d:?}");
    }

    #[test]
    fn skip_is_safe_near_threshold() {
        // The safety property of δ: whenever the screen skips, the exact
        // p-value is indeed above ε. Sweep K to cover the decision
        // boundary at Q20/Q30 mixes.
        let cfg = CallerConfig {
            bonferroni: Bonferroni::None,
            ..CallerConfig::default()
        };
        let mut scratch = Scratch::new();
        for q in [20u8, 30] {
            for k in 1..40usize {
                let col = column(2_000 - k, k, q);
                let tester = ColumnTest::new(&cfg, 1);
                if let ColumnDecision::SkippedByApprox { .. } =
                    tester.test(&col, Base::A, &mut scratch)
                {
                    // Exact must agree it's not significant at ε.
                    let probs = col.error_probs();
                    let pb = PoissonBinomial::new(probs).unwrap();
                    let exact = pb.tail_pruned(k);
                    assert!(
                        exact > cfg.sig_level,
                        "q={q} k={k}: skipped but exact p = {exact}"
                    );
                }
            }
        }
    }

    #[test]
    fn bonferroni_tightens_threshold() {
        // A marginal variant: significant uncorrected, not after ×3000.
        let col = column(995, 5, 20); // λ ≈ 10 … K=5 is below the mean; pick stronger
        let col2 = column(1_000, 9, 30); // λ ≈ 1.009, K=9: p ≈ 1e-7
        let _ = col;
        let loose = CallerConfig {
            bonferroni: Bonferroni::None,
            shortcut: false,
            ..CallerConfig::default()
        };
        let strict = CallerConfig {
            bonferroni: Bonferroni::Fixed(1e9),
            shortcut: false,
            ..CallerConfig::default()
        };
        assert!(test_with(&loose, &col2).is_call());
        assert!(!test_with(&strict, &col2).is_call());
    }

    /// A column of Q20–Q40 reads in equal shares (the `deep_100k` quality
    /// spectrum), `k` of them non-reference.
    pub(crate) fn mixed_quality_column(depth: usize, k: usize) -> PileupColumn {
        let mut col = PileupColumn::new(0);
        for i in 0..depth {
            col.push(PileupEntry {
                base: if i < k { Base::G } else { Base::A },
                qual: Phred::new(20 + (i % 21) as u8),
                reverse: i % 2 == 0,
            });
        }
        col
    }

    #[test]
    fn certificate_fires_only_with_ten_decades_to_spare() {
        // 1000 reads at Q30: λ = 1, so ln U = k − 1 − k·ln k. At k = 170
        // that is −704 (U ≈ 1.7e-306: below the saturation point, above
        // the 1e-310 the margin asks for) — not certified, the DP runs. At
        // k = 180 it is −756 — certified.
        let tester = ColumnTest::new(&CallerConfig::improved(), 1_000);
        let reference = ColumnTest::new(&CallerConfig::original(), 1_000);
        let mut scratch = Scratch::new();

        let col = column(830, 170, 30);
        let ln_upper = ln_tail_upper_bound(1.0, 170);
        assert!(ln_upper < QUAL_SATURATION_P.ln() && ln_upper > 1e-310f64.ln());
        let by_dp = tester.test(&col, Base::A, &mut scratch);
        assert!(by_dp.is_call() && !scratch.certified, "{by_dp:?}");
        assert_eq!(
            by_dp,
            reference.test(&col, Base::A, &mut Scratch::new()),
            "an uncertified call carries the exact kernel's p-value"
        );

        let col = column(820, 180, 30);
        let by_bound = tester.test(&col, Base::A, &mut scratch);
        assert!(by_bound.is_call() && scratch.certified, "{by_bound:?}");
        let ColumnDecision::Called { pvalue } = by_bound else {
            unreachable!()
        };
        assert!(pvalue <= 1e-310, "{pvalue:e}");
        // The flag describes the last column only.
        tester.test(&column(970, 30, 30), Base::A, &mut scratch);
        assert!(!scratch.certified);
        // The unscreened reference never certifies.
        let mut scratch = Scratch::new();
        assert!(reference.test(&col, Base::A, &mut scratch).is_call() && !scratch.certified);
    }

    #[test]
    fn certified_calls_print_the_qual_the_exact_kernel_prints() {
        // The byte-identity argument on the kernel itself: wherever the
        // certificate fires, the exact binned kernel's own p-value — and
        // the per-trial DP's over the expanded reads — Phred-scales to the
        // same saturated QUAL. Sweep K across the firing point on a shallow
        // and a deep column.
        use ultravc_genome::phred::{phred_scale_pvalue, QUAL_CAP};
        let improved = ColumnTest::new(&CallerConfig::improved(), 30_000);
        let exact = ColumnTest::new(&CallerConfig::original(), 30_000);
        let mut scratch = Scratch::new();
        let mut fired = 0;
        for (depth, ks) in [
            (300usize, vec![150, 170, 200, 300]),
            (2_000, vec![230, 250, 260, 400]),
            (20_000, vec![480, 500, 520, 600, 1_000]),
        ] {
            for k in ks {
                let col = mixed_quality_column(depth, k);
                let decision = improved.test(&col, Base::A, &mut scratch);
                if !scratch.certified {
                    continue;
                }
                fired += 1;
                let ColumnDecision::Called { pvalue } = decision else {
                    panic!("certified but not called: {decision:?}");
                };
                assert_eq!(phred_scale_pvalue(pvalue), QUAL_CAP);
                let binned = exact.test(&col, Base::A, &mut Scratch::new());
                let ColumnDecision::Called { pvalue } = binned else {
                    panic!("depth {depth} k {k}: exact did not call: {binned:?}");
                };
                let per_trial = PoissonBinomial::from_phred_probs(col.error_probs()).tail_pruned(k);
                for (kernel, p) in [("binned", pvalue), ("per-trial", per_trial)] {
                    assert_eq!(
                        phred_scale_pvalue(p),
                        QUAL_CAP,
                        "depth {depth} k {k} {kernel}: exact p = {p:e}"
                    );
                }
            }
        }
        assert!(fired >= 8, "the sweep must cross the firing point: {fired}");
    }

    #[test]
    fn certificate_respects_an_absurd_threshold_and_needs_the_shortcut() {
        // A significance level and Bonferroni factor that put the
        // threshold (1e-318) below the bound itself (k = 175: U ≈ 1e-317,
        // certifiable on its own): U < threshold fails, the DP decides.
        let strict = CallerConfig {
            sig_level: 1e-10,
            bonferroni: Bonferroni::Fixed(1e308),
            ..CallerConfig::improved()
        };
        let mut scratch = Scratch::new();
        let tester = ColumnTest::new(&strict, 1);
        let upper = ln_tail_upper_bound(1.0, 175).exp();
        assert!(certifies_tail_below(upper.ln(), QUAL_SATURATION_P));
        assert!(tester.threshold() > 0.0 && tester.threshold() < upper);
        let d = tester.test(&column(825, 175, 30), Base::A, &mut scratch);
        assert!(!scratch.certified && d.ran_exact(), "{d:?}");
        // The branch is part of the shortcut: off, the DP decides.
        let col = column(820, 180, 30);
        let cfg = CallerConfig::improved();
        assert!(test_with_scratch(&cfg, &col, &mut scratch).is_call());
        assert!(scratch.certified);
        let cfg = CallerConfig {
            shortcut: false,
            ..cfg
        };
        assert!(test_with_scratch(&cfg, &col, &mut scratch).is_call());
        assert!(!scratch.certified, "without the shortcut");
    }

    #[test]
    fn decision_predicates() {
        assert!(ColumnDecision::Called { pvalue: 0.01 }.is_call());
        assert!(!ColumnDecision::NoMismatch.is_call());
        assert!(!ColumnDecision::NoMismatch.ran_exact());
        assert!(!ColumnDecision::SkippedByApprox { p_hat: 0.5 }.ran_exact());
        assert!(ColumnDecision::BailedEarly { lower_bound: 0.1 }.ran_exact());
        assert!(ColumnDecision::NotSignificant { pvalue: 0.5 }.ran_exact());
    }
}
