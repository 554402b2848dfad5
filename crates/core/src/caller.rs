//! Region calling: pileup columns → decisions → VCF records.

use crate::config::CallerConfig;
use crate::driver::CallDriver;
use crate::pvalue::{ColumnDecision, ColumnTest, Scratch};
use serde::{Deserialize, Serialize};
use ultravc_bamlite::{BalError, BalFile, DecodeStats};
use ultravc_genome::phred::phred_scale_pvalue;
use ultravc_genome::reference::ReferenceGenome;
use ultravc_pileup::{PileupColumn, PileupIter};
use ultravc_stats::binomial::fisher_exact;
use ultravc_vcf::{FilterStatus, Info, VcfRecord};

/// Decision-path counters — the raw numbers behind the Figure 1b workflow
/// share reporting and the Table I "identical variant counts" check.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CallStats {
    /// Covered columns examined.
    pub columns: u64,
    /// Columns with at least one mismatch (entered the test).
    pub mismatch_columns: u64,
    /// Columns the Poisson screen dismissed (the fast path).
    pub skipped_by_approx: u64,
    /// Columns where the exact DP bailed early.
    pub bailed_early: u64,
    /// Columns where the exact computation ran to completion.
    pub exact_completed: u64,
    /// Variant calls made.
    pub calls: u64,
    /// Calls (a sub-count of `calls` and of `exact_completed`) settled by
    /// the certified upper bound: the p-value was proved to be below the
    /// point where QUAL saturates, so the exact kernel did not run.
    pub certified_calls: u64,
    /// Columns whose exact tail the tilt window could not certify, so the
    /// kernel re-ran it over the full range (same p-value, more work).
    pub window_fallbacks: u64,
    /// Columns whose pileup hit the depth cap.
    pub truncated_columns: u64,
    /// Σ depth over examined columns.
    pub sum_depth: u64,
    /// Σ distinct quality values over *tested* (mismatch) columns — the
    /// columns the binned kernels actually run on. Depth÷bins is the
    /// compression the binned representation achieves on the hot loop.
    pub sum_distinct_quals: u64,
}

impl CallStats {
    /// Fold another accumulator in (partition merge).
    pub fn merge(&mut self, other: &CallStats) {
        self.columns += other.columns;
        self.mismatch_columns += other.mismatch_columns;
        self.skipped_by_approx += other.skipped_by_approx;
        self.bailed_early += other.bailed_early;
        self.exact_completed += other.exact_completed;
        self.calls += other.calls;
        self.certified_calls += other.certified_calls;
        self.window_fallbacks += other.window_fallbacks;
        self.truncated_columns += other.truncated_columns;
        self.sum_depth += other.sum_depth;
        self.sum_distinct_quals += other.sum_distinct_quals;
    }

    /// Fraction of mismatch columns resolved by the approximation screen.
    pub fn skip_fraction(&self) -> f64 {
        if self.mismatch_columns == 0 {
            0.0
        } else {
            self.skipped_by_approx as f64 / self.mismatch_columns as f64
        }
    }

    /// Mean reads per column.
    pub fn mean_depth(&self) -> f64 {
        if self.columns == 0 {
            0.0
        } else {
            self.sum_depth as f64 / self.columns as f64
        }
    }

    /// Mean distinct qualities per tested (mismatch) column — the
    /// working-set width of the binned kernels.
    pub fn mean_distinct_quals(&self) -> f64 {
        if self.mismatch_columns == 0 {
            0.0
        } else {
            self.sum_distinct_quals as f64 / self.mismatch_columns as f64
        }
    }
}

/// The output of a calling run: records in position order plus counters.
#[derive(Debug, Clone, Default)]
pub struct CallSet {
    /// Variant records, position-sorted, unfiltered.
    pub records: Vec<VcfRecord>,
    /// Decision-path counters.
    pub stats: CallStats,
    /// Decode work this region's pileup actually performed. With the
    /// shared block cache, per-partition values sum to the true whole-run
    /// decode cost (each block counted once).
    pub decode: DecodeStats,
}

impl CallSet {
    /// Merge a later partition into this one (positions must follow).
    pub fn append(&mut self, mut other: CallSet) {
        debug_assert!(
            self.records
                .last()
                .map(|a| other
                    .records
                    .first()
                    .map(|b| a.pos <= b.pos)
                    .unwrap_or(true))
                .unwrap_or(true),
            "partitions merged out of order"
        );
        self.records.append(&mut other.records);
        self.stats.merge(&other.stats);
        self.decode.merge(&other.decode);
    }
}

/// Shared drain loop: test every column of an already-configured pileup
/// iterator, recycling column buffers and folding in decode accounting.
pub(crate) fn drain_pileup(
    reference: &ReferenceGenome,
    mut iter: PileupIter,
    tester: &ColumnTest,
    scratch: &mut Scratch,
) -> Result<CallSet, BalError> {
    let mut out = CallSet::default();
    while let Some(column) = iter.next() {
        let verdict = examine_column(reference, &column, tester, scratch, &mut out.stats);
        if let Some(rec) = verdict {
            out.records.push(rec);
        }
        // Hand the histogram buffer back to the engine's freelist.
        iter.recycle(column);
    }
    // Propagate the iterator's stored error *typed*: an interruption must
    // stay `Interrupted` (the supervisor reports it as cancellation, not
    // data failure) and an exhausted transient must stay `Io`.
    if let Some(e) = iter.take_error() {
        return Err(e);
    }
    out.decode = iter.decode_stats();
    Ok(out)
}

/// Test one column, update counters, build a record when a call fires.
pub(crate) fn examine_column(
    reference: &ReferenceGenome,
    column: &PileupColumn,
    tester: &ColumnTest,
    scratch: &mut Scratch,
    stats: &mut CallStats,
) -> Option<VcfRecord> {
    stats.columns += 1;
    if column.truncated() {
        stats.truncated_columns += 1;
    }
    stats.sum_depth += column.depth() as u64;
    let ref_base = reference.base(column.pos as usize);
    let fallbacks = scratch.window_fallbacks();
    let decision = tester.test(column, ref_base, scratch);
    stats.window_fallbacks += scratch.window_fallbacks() - fallbacks;
    if !matches!(decision, ColumnDecision::NoMismatch) {
        // `test` filled the bins for every mismatch column; reading their
        // count here avoids a second histogram scan.
        stats.sum_distinct_quals += scratch.bins.len() as u64;
    }
    match decision {
        ColumnDecision::NoMismatch => None,
        ColumnDecision::SkippedByApprox { .. } => {
            stats.mismatch_columns += 1;
            stats.skipped_by_approx += 1;
            None
        }
        ColumnDecision::BailedEarly { .. } => {
            stats.mismatch_columns += 1;
            stats.bailed_early += 1;
            None
        }
        ColumnDecision::NotSignificant { .. } => {
            stats.mismatch_columns += 1;
            stats.exact_completed += 1;
            None
        }
        ColumnDecision::Called { pvalue } => {
            stats.mismatch_columns += 1;
            stats.exact_completed += 1;
            stats.calls += 1;
            stats.certified_calls += scratch.certified as u64;
            Some(build_record(reference, column, ref_base, pvalue))
        }
    }
}

fn build_record(
    reference: &ReferenceGenome,
    column: &PileupColumn,
    ref_base: ultravc_genome::alphabet::Base,
    pvalue: f64,
) -> VcfRecord {
    let (alt_base, alt_count) = column
        .top_alt(ref_base)
        .expect("a call implies at least one mismatch");
    let depth = column.depth() as u32;
    let (ref_fwd, ref_rev) = column.strand_counts(ref_base);
    let (alt_fwd, alt_rev) = column.strand_counts(alt_base);
    let sb = fisher_exact(
        alt_fwd as u64,
        alt_rev as u64,
        ref_fwd as u64,
        ref_rev as u64,
    )
    .two_sided;
    VcfRecord {
        chrom: reference.name.clone(),
        pos: column.pos as usize,
        ref_base,
        alt_base,
        qual: phred_scale_pvalue(pvalue),
        filter: FilterStatus::Unfiltered,
        info: Info {
            dp: depth,
            af: alt_count as f64 / depth.max(1) as f64,
            sb: phred_scale_pvalue(sb),
            dp4: (ref_fwd, ref_rev, alt_fwd, alt_rev),
        },
    }
}

/// Call variants across the whole reference, sequentially, unfiltered.
///
/// This is the library's front door for simple uses: the one-thread,
/// unfiltered case of [`CallDriver`], whose records, decision counters and
/// decode totals it returns. A region the run lost is the error.
pub fn call_variants(
    reference: &ReferenceGenome,
    alignments: &BalFile,
    config: &CallerConfig,
) -> Result<CallSet, BalError> {
    CallDriver {
        config: config.clone(),
        filter: None,
        ..CallDriver::sequential()
    }
    .run(reference, alignments)?
    .into_call_set()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ultravc_genome::reference::GenomeParams;
    use ultravc_genome::variant::TruthSet;
    use ultravc_readsim::dataset::DatasetSpec;

    fn setup(depth: f64, n_variants: usize, seed: u64) -> (ReferenceGenome, BalFile, TruthSet) {
        let reference = ReferenceGenome::sars_cov_2_like(GenomeParams::tiny(), seed);
        let spec = DatasetSpec::new("t", depth, seed).with_variants(n_variants, 0.02, 0.08);
        let ds = spec.simulate(&reference);
        (reference, ds.alignments, ds.truth)
    }

    #[test]
    fn recovers_planted_variants() {
        let (reference, alignments, truth) = setup(400.0, 8, 11);
        let calls = call_variants(&reference, &alignments, &CallerConfig::default()).unwrap();
        // Every planted variant at ≥2 % frequency and 400× depth should be
        // found; a few extra marginal calls are acceptable pre-filter.
        let called: std::collections::HashSet<usize> =
            calls.records.iter().map(|r| r.pos).collect();
        let mut missed = 0;
        for v in &truth {
            if !called.contains(&v.snv.pos) {
                missed += 1;
            }
        }
        assert_eq!(
            missed,
            0,
            "missed {missed} of {} planted variants",
            truth.len()
        );
        assert!(calls.stats.calls as usize >= truth.len());
        // Alt alleles match the planted ones.
        for v in &truth {
            let rec = calls.records.iter().find(|r| r.pos == v.snv.pos).unwrap();
            assert_eq!(rec.alt_base, v.snv.alt_base, "at {}", v.snv);
            assert!((rec.info.af - v.frequency).abs() < 0.05);
        }
    }

    #[test]
    fn no_variants_no_calls_mostly() {
        let (reference, alignments, _) = setup(200.0, 0, 13);
        let calls = call_variants(&reference, &alignments, &CallerConfig::default()).unwrap();
        // With Bonferroni correction, pure-error data yields ~0 calls.
        assert!(
            calls.stats.calls <= 1,
            "unexpected calls on null data: {}",
            calls.stats.calls
        );
        assert!(calls.stats.columns >= 700, "most columns covered");
    }

    #[test]
    fn depth_cap_column_is_called_by_the_certificate() {
        // LoFreq's 1,000,000× depth cap with a 5 % variant: K = 50,000.
        // The exact kernel needs seconds here (∝ K²), so `original()` is
        // deliberately not run; `improved()` answers from λ alone.
        use crate::pvalue::tests::mixed_quality_column;
        use ultravc_genome::alphabet::Base;
        use ultravc_genome::phred::QUAL_CAP;
        use ultravc_genome::sequence::Seq;
        let reference = ReferenceGenome::from_seq("cap", Seq::from_bases([Base::A]));
        let column = mixed_quality_column(1_000_000, 50_000);
        let tester = ColumnTest::new(&CallerConfig::improved(), 30_000);
        let mut stats = CallStats::default();
        let record = examine_column(
            &reference,
            &column,
            &tester,
            &mut Scratch::new(),
            &mut stats,
        )
        .expect("a 5 % variant at 1,000,000× is a call");
        assert_eq!(record.qual, QUAL_CAP);
        assert_eq!((record.alt_base, record.info.dp), (Base::G, 1_000_000));
        assert_eq!(
            (stats.calls, stats.certified_calls, stats.exact_completed),
            (1, 1, 1),
            "a certified call is still a call and still closes the decision partition"
        );
        let mut merged = stats;
        merged.merge(&stats);
        assert_eq!(merged.certified_calls, 2);
    }

    #[test]
    fn stats_partition_decision_paths() {
        let (reference, alignments, _) = setup(300.0, 6, 19);
        let calls = call_variants(&reference, &alignments, &CallerConfig::default()).unwrap();
        let s = calls.stats;
        assert_eq!(
            s.mismatch_columns,
            s.skipped_by_approx + s.bailed_early + s.exact_completed,
            "decision paths must partition mismatch columns: {s:?}"
        );
        assert!(s.columns >= s.mismatch_columns);
        assert_eq!(s.calls, calls.records.len() as u64);
        assert!(
            s.skip_fraction() > 0.5,
            "deep data should mostly skip: {s:?}"
        );
    }

    #[test]
    fn record_fields_are_consistent() {
        let (reference, alignments, _) = setup(500.0, 5, 29);
        let calls = call_variants(&reference, &alignments, &CallerConfig::default()).unwrap();
        assert!(!calls.records.is_empty());
        for r in &calls.records {
            let (rf, rr, af_, ar) = r.info.dp4;
            assert!(rf + rr + af_ + ar <= r.info.dp, "DP4 exceeds depth");
            assert!(r.info.af > 0.0 && r.info.af <= 1.0);
            assert!(r.qual > 0.0);
            assert_ne!(r.ref_base, r.alt_base);
            assert_eq!(reference.base(r.pos), r.ref_base);
        }
        // Position-sorted.
        for w in calls.records.windows(2) {
            assert!(w[0].pos < w[1].pos);
        }
    }
}
