//! Property-based tests of the whole pipeline's invariants — the
//! statements the paper's correctness argument rests on, checked across
//! randomized workloads rather than hand-picked cases.

use proptest::prelude::*;
use ultravc::prelude::*;

fn build(
    genome_len: usize,
    depth: f64,
    n_variants: usize,
    seed: u64,
) -> (ReferenceGenome, Dataset) {
    let reference = ReferenceGenome::sars_cov_2_like(GenomeParams::with_length(genome_len), seed);
    let dataset = DatasetSpec::new("prop", depth, seed)
        .with_variants(n_variants, 0.01, 0.2)
        .simulate(&reference);
    (reference, dataset)
}

proptest! {
    // End-to-end cases are expensive; a modest case count across wide
    // parameter ranges beats thousands of near-identical tiny cases.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The paper's safety claim, as a universally quantified property:
    /// for any workload, the improved caller's calls are exactly the
    /// original caller's calls (the shortcut may only skip columns whose
    /// exact p-value could not have produced a call).
    #[test]
    fn improved_caller_never_changes_the_call_set(
        genome_len in 300usize..900,
        depth in 120.0..2_000.0f64,
        n_variants in 0usize..15,
        seed in 0u64..1_000_000,
    ) {
        let (reference, dataset) = build(genome_len, depth, n_variants, seed);
        let orig = call_variants(&reference, &dataset.alignments, &CallerConfig::original()).unwrap();
        let imp = call_variants(&reference, &dataset.alignments, &CallerConfig::improved()).unwrap();
        prop_assert_eq!(orig.records, imp.records);
        prop_assert_eq!(orig.stats.calls, imp.stats.calls);
    }

    /// Parallel execution is exact: any thread count and chunking yields
    /// the sequential output bit-for-bit.
    #[test]
    fn parallel_equals_sequential(
        genome_len in 300usize..800,
        depth in 100.0..1_000.0f64,
        n_threads in 2usize..6,
        chunk in 16u32..200,
        seed in 0u64..1_000_000,
    ) {
        let (reference, dataset) = build(genome_len, depth, 8, seed);
        let seq = CallDriver::sequential().run(&reference, &dataset.alignments).unwrap();
        let driver = CallDriver {
            config: CallerConfig::default(),
            filter: Some(FilterParams::default()),
            mode: ParallelMode::OpenMp {
                n_threads,
                schedule: Schedule::Dynamic { chunk: 1 },
                chunk_columns: chunk,
            },
            trace: false,
            budget: RunBudget::unbounded(),
        };
        let par = driver.run(&reference, &dataset.alignments).unwrap();
        prop_assert_eq!(seq.records, par.records);
    }

    /// Decision-path counters always partition the mismatch columns, and
    /// calls never exceed exact completions.
    #[test]
    fn call_stats_are_consistent(
        genome_len in 300usize..800,
        depth in 100.0..3_000.0f64,
        seed in 0u64..1_000_000,
    ) {
        let (reference, dataset) = build(genome_len, depth, 6, seed);
        let out = call_variants(&reference, &dataset.alignments, &CallerConfig::improved()).unwrap();
        let s = out.stats;
        prop_assert_eq!(
            s.mismatch_columns,
            s.skipped_by_approx + s.bailed_early + s.exact_completed
        );
        prop_assert!(s.calls <= s.exact_completed);
        prop_assert!(s.mismatch_columns <= s.columns);
        prop_assert_eq!(s.calls as usize, out.records.len());
    }

    /// Every record the caller emits is internally consistent: DP4 sums
    /// within depth, AF in (0,1], the reference base matches the genome.
    #[test]
    fn records_are_well_formed(
        genome_len in 300usize..800,
        depth in 200.0..1_500.0f64,
        seed in 0u64..1_000_000,
    ) {
        let (reference, dataset) = build(genome_len, depth, 10, seed);
        let out = call_variants(&reference, &dataset.alignments, &CallerConfig::improved()).unwrap();
        let mut prev_pos = None;
        for r in &out.records {
            let (rf, rr, af_, ar) = r.info.dp4;
            prop_assert!(rf + rr + af_ + ar <= r.info.dp);
            prop_assert!(r.info.af > 0.0 && r.info.af <= 1.0);
            prop_assert_eq!(reference.base(r.pos), r.ref_base);
            prop_assert_ne!(r.ref_base, r.alt_base);
            if let Some(p) = prev_pos {
                prop_assert!(r.pos > p, "records must be position-sorted");
            }
            prev_pos = Some(r.pos);
        }
    }
}
