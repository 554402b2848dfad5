//! Cross-crate integration tests: the full pipeline from synthetic genome
//! to filtered VCF, exercised through the facade crate's public API.

use ultravc::prelude::*;
use ultravc_vcf::parse_vcf;

fn standard_setup(depth: f64, seed: u64) -> (ReferenceGenome, Dataset) {
    let reference = ReferenceGenome::sars_cov_2_like(GenomeParams::with_length(1_200), seed);
    let dataset = DatasetSpec::new("it", depth, seed)
        .with_variants(10, 0.02, 0.08)
        .simulate(&reference);
    (reference, dataset)
}

#[test]
fn pipeline_recovers_planted_variants_and_roundtrips_vcf() {
    let (reference, dataset) = standard_setup(500.0, 0xE2E);
    let outcome = CallDriver::sequential()
        .run(&reference, &dataset.alignments)
        .unwrap();
    let grading = grade(&outcome.records, &dataset.truth);
    assert!(
        grading.sensitivity() >= 0.9,
        "sensitivity {:.2} too low: {:?}",
        grading.sensitivity(),
        grading
    );
    assert!(
        grading.precision() >= 0.9,
        "precision {:.2} too low: {:?}",
        grading.precision(),
        grading
    );
    // VCF text roundtrip preserves the records.
    let text = write_vcf(&reference.name, "it", &outcome.records);
    let parsed = parse_vcf(std::io::Cursor::new(text.into_bytes())).unwrap();
    assert_eq!(parsed.len(), outcome.records.len());
    for (a, b) in parsed.iter().zip(&outcome.records) {
        assert_eq!(a.pos, b.pos);
        assert_eq!(a.alt_base, b.alt_base);
        assert_eq!(a.info.dp, b.info.dp);
    }
}

#[test]
fn bal_file_survives_disk_roundtrip() {
    let (reference, dataset) = standard_setup(200.0, 0xD15C);
    let bytes = dataset
        .alignments
        .as_bytes()
        .expect("simulator output is in-memory")
        .clone();
    let reloaded = ultravc::bamlite::BalFile::from_bytes(bytes).unwrap();
    let a = call_variants(&reference, &dataset.alignments, &CallerConfig::default()).unwrap();
    let b = call_variants(&reference, &reloaded, &CallerConfig::default()).unwrap();
    assert_eq!(a.records, b.records);
}

#[test]
fn depth_cap_limits_reported_depth() {
    let (reference, dataset) = standard_setup(2_000.0, 0xCA9);
    let mut config = CallerConfig::default();
    config.pileup.max_depth = 500;
    let out = call_variants(&reference, &dataset.alignments, &config).unwrap();
    assert!(out.stats.truncated_columns > 0, "cap should bind at 2000x");
    for r in &out.records {
        assert!(r.info.dp <= 500, "depth {} exceeds cap", r.info.dp);
    }
}

#[test]
fn same_seed_same_output_different_seed_different_reads() {
    let (_reference, a) = standard_setup(150.0, 0x5EED);
    let (_, b) = standard_setup(150.0, 0x5EED);
    let bytes_of = |ds: &ultravc::readsim::dataset::Dataset| {
        ds.alignments
            .as_bytes()
            .expect("simulator output is in-memory")
            .clone()
    };
    assert_eq!(bytes_of(&a), bytes_of(&b));
    let (_, c) = standard_setup(150.0, 0x5EED + 1);
    assert_ne!(bytes_of(&a), bytes_of(&c));
}
