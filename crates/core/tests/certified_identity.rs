//! The paper's identity claim at a depth where the accept-side certificate
//! fires: on an ultra-deep fixture `improved()` settles its variant columns
//! by the certified upper bound, `original()` grinds the exact DP through
//! the same columns, and the two must still produce equal records — in both
//! run shapes, and through a session's region call.

use std::sync::Arc;
use ultravc_bamlite::BalFile;
use ultravc_core::config::CallerConfig;
use ultravc_core::driver::{CallDriver, CallOutcome, ParallelMode};
use ultravc_core::session::CallSession;
use ultravc_genome::reference::{GenomeParams, ReferenceGenome};
use ultravc_readsim::dataset::DatasetSpec;

const GENOME_LEN: usize = 160;

/// 160 bp at 50,000× with eight planted variants at 0.5–5 % (K from a few
/// hundred to ~2,500 on the variant columns).
fn fixture() -> (ReferenceGenome, BalFile) {
    let reference = ReferenceGenome::sars_cov_2_like(GenomeParams::with_length(GENOME_LEN), 41);
    let ds = DatasetSpec::new("deep", 50_000.0, 41)
        .with_variants(8, 0.005, 0.05)
        .simulate(&reference);
    (reference, ds.alignments)
}

/// Two workers over 64-column chunks, so per-chunk counters are merged.
fn openmp2(config: CallerConfig) -> CallDriver {
    let mut driver = CallDriver::openmp(2);
    if let ParallelMode::OpenMp { chunk_columns, .. } = &mut driver.mode {
        *chunk_columns = 64;
    }
    driver.config = config;
    driver
}

fn sequential(config: CallerConfig) -> CallDriver {
    CallDriver {
        config,
        ..CallDriver::sequential()
    }
}

fn assert_same_calls(original: &CallOutcome, improved: &CallOutcome, what: &str) {
    assert!(original.partial.is_empty() && improved.partial.is_empty());
    assert_eq!(original.records, improved.records, "{what}: records");
    let (o, i) = (original.stats, improved.stats);
    assert_eq!(
        (o.calls, o.columns, o.mismatch_columns, o.sum_depth),
        (i.calls, i.columns, i.mismatch_columns, i.sum_depth),
        "{what}: the screens change how a column is decided, never which"
    );
    assert_eq!(o.certified_calls, 0, "{what}: original() has no shortcut");
    assert_eq!(o.skipped_by_approx, 0, "{what}");
    assert!(i.certified_calls > 0, "{what}: {i:?}");
    assert!(i.certified_calls <= i.calls && i.calls <= i.exact_completed);
    assert_eq!(
        i.mismatch_columns,
        i.skipped_by_approx + i.bailed_early + i.exact_completed,
        "{what}: certified calls stay inside the decision partition"
    );
}

#[test]
fn original_and_improved_agree_where_the_certificate_fires() {
    let (reference, alignments) = fixture();
    let seq_original = sequential(CallerConfig::original())
        .run(&reference, &alignments)
        .unwrap();
    let seq_improved = sequential(CallerConfig::improved())
        .run(&reference, &alignments)
        .unwrap();
    assert_same_calls(&seq_original, &seq_improved, "sequential");
    assert!(
        seq_improved.records.len() >= 6,
        "planted variants must be called: {}",
        seq_improved.records.len()
    );

    let omp_original = openmp2(CallerConfig::original())
        .run(&reference, &alignments)
        .unwrap();
    let omp_improved = openmp2(CallerConfig::improved())
        .run(&reference, &alignments)
        .unwrap();
    assert_same_calls(&omp_original, &omp_improved, "openmp(2)");
    assert_eq!(seq_improved.records, omp_improved.records);
    assert_eq!(seq_improved.stats, omp_improved.stats);
}

#[test]
fn session_window_equals_the_batch_slice() {
    let (reference, alignments) = fixture();
    let driver = CallDriver {
        filter: None,
        ..sequential(CallerConfig::improved())
    };
    let batch = driver.run(&reference, &alignments).unwrap();
    let window = 30..130u32;
    let session = CallSession::open(driver, Arc::new(reference), alignments);
    let served = session.call(window.clone()).unwrap();
    let slice: Vec<_> = batch
        .records
        .iter()
        .filter(|r| window.contains(&(r.pos as u32)))
        .cloned()
        .collect();
    assert_eq!(served.records, slice);
    assert!(served.stats.certified_calls > 0, "{:?}", served.stats);
    assert!(served.stats.certified_calls <= batch.stats.certified_calls);
}
