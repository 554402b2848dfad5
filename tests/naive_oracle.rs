//! The referee: a naive caller that every calling path must agree with.
//!
//! The paper's safety claim is that the accelerated caller makes exactly
//! the calls unaccelerated LoFreq makes. Checking `improved()` against
//! `original()` only compares two fast paths — both binned, both
//! SIMD-dispatched. The oracle here shares none of that machinery: it reads
//! the raw records, stacks every surviving base per column in record order
//! (the depth cap taken in that order), and tests each column with the
//! per-trial `O(d·K)` DP over un-binned Phred probabilities — no quality
//! bins, cache, screen, certificate or early exit, one thread. It builds
//! each record itself, restating the caller's ALT rule instead of calling
//! it.
//!
//! [`CallDriver`] (unfiltered; sequential and two threads over 64-column
//! chunks; `improved()` and `original()`) must call the same columns with
//! the same fields, QUAL within 1e-6, and write the same VCF bytes, on
//! reduced-size versions of the four benchmark workload shapes and a depth
//! cap below the deepest one.

use std::collections::BTreeMap;
use std::ops::Range;

use ultravc_bamlite::BalFile;
use ultravc_core::{CallDriver, CallOutcome, CallerConfig, ParallelMode};
use ultravc_genome::alphabet::Base;
use ultravc_genome::phred::{phred_scale_pvalue, phred_to_prob};
use ultravc_genome::reference::{GenomeParams, ReferenceGenome};
use ultravc_parfor::Schedule;
use ultravc_pileup::PileupParams;
use ultravc_readsim::dataset::DatasetSpec;
use ultravc_readsim::QualityPreset;
use ultravc_stats::binomial::fisher_exact;
use ultravc_stats::PoissonBinomial;
use ultravc_vcf::{write_vcf, FilterStatus, Info, VcfRecord};

/// The significance level `ε`, restated: the paper's 0.05.
const SIG_LEVEL: f64 = 0.05;

/// One read's base on one column.
struct Observed {
    base: Base,
    qual: u8,
    reverse: bool,
}

/// Every column's surviving bases in record order: reads dropped by flag
/// or mapping quality, bases below `min_baseq` skipped, at most
/// `max_depth` kept per column (the first ones to arrive).
fn naive_pileup(
    alignments: &BalFile,
    params: PileupParams,
    len: usize,
) -> BTreeMap<usize, Vec<Observed>> {
    let records = alignments.reader().records().expect("fixture decodes");
    let mut columns: BTreeMap<usize, Vec<Observed>> = BTreeMap::new();
    for read in &records {
        if (params.skip_flagged && read.flags.is_filtered()) || read.mapq < params.min_mapq {
            continue;
        }
        for (pos, base, qual) in read.aligned_bases() {
            let pos = pos as usize;
            if pos >= len || qual.0 < params.min_baseq {
                continue;
            }
            let column = columns.entry(pos).or_default();
            if column.len() < params.max_depth {
                column.push(Observed {
                    base,
                    qual: qual.0,
                    reverse: read.flags.is_reverse(),
                });
            }
        }
    }
    columns
}

/// One oracle call, with the `K` and `λ = Σ pᵢ` its column was tested at.
struct NaiveCall {
    record: VcfRecord,
    k: usize,
    lambda: f64,
}

/// The oracle's calls over the whole reference. `K` is every
/// non-reference base of the column, pooled; the column is called when
/// `Pr[X ≥ K] < ε / (3 · reference length)`.
fn naive_calls(
    reference: &ReferenceGenome,
    alignments: &BalFile,
    params: PileupParams,
) -> Vec<NaiveCall> {
    let threshold = SIG_LEVEL / (3.0 * reference.len() as f64);
    let mut calls = Vec::new();
    for (pos, bases) in naive_pileup(alignments, params, reference.len()) {
        let ref_base = reference.base(pos);
        let k = bases.iter().filter(|o| o.base != ref_base).count();
        if k == 0 {
            continue;
        }
        let probs: Vec<f64> = bases.iter().map(|o| phred_to_prob(o.qual)).collect();
        let lambda = probs.iter().sum();
        let pvalue = PoissonBinomial::from_phred_probs(probs).tail_pruned(k);
        if pvalue < threshold {
            calls.push(NaiveCall {
                record: naive_record(reference, pos, ref_base, &bases, pvalue),
                k,
                lambda,
            });
        }
    }
    calls
}

fn naive_record(
    reference: &ReferenceGenome,
    pos: usize,
    ref_base: Base,
    bases: &[Observed],
    pvalue: f64,
) -> VcfRecord {
    let count = |base: Base, reverse: bool| {
        bases
            .iter()
            .filter(|o| o.base == base && o.reverse == reverse)
            .count() as u32
    };
    // ALT is the most frequent non-reference base; of equally frequent
    // ones, the last in A, C, G, T order.
    let mut alt: Option<(Base, u32)> = None;
    for base in Base::ALL {
        let n = count(base, false) + count(base, true);
        if base != ref_base && n > 0 && alt.is_none_or(|(_, best)| n >= best) {
            alt = Some((base, n));
        }
    }
    let (alt_base, alt_count) = alt.expect("a call has a mismatch");
    let depth = bases.len() as u32;
    let (ref_fwd, ref_rev) = (count(ref_base, false), count(ref_base, true));
    let (alt_fwd, alt_rev) = (count(alt_base, false), count(alt_base, true));
    let sb = fisher_exact(
        alt_fwd as u64,
        alt_rev as u64,
        ref_fwd as u64,
        ref_rev as u64,
    )
    .two_sided;
    VcfRecord {
        chrom: reference.name.clone(),
        pos,
        ref_base,
        alt_base,
        qual: phred_scale_pvalue(pvalue),
        filter: FilterStatus::Unfiltered,
        info: Info {
            dp: depth,
            af: alt_count as f64 / depth as f64,
            sb: phred_scale_pvalue(sb),
            dp4: (ref_fwd, ref_rev, alt_fwd, alt_rev),
        },
    }
}

/// The production driver runs under referee: unfiltered, in both run
/// shapes and both presets.
fn drivers(pileup: PileupParams) -> Vec<(String, CallDriver)> {
    let mut out = Vec::new();
    for (preset, mut config) in [
        ("improved", CallerConfig::improved()),
        ("original", CallerConfig::original()),
    ] {
        config.pileup = pileup;
        let sequential = CallDriver {
            config,
            filter: None,
            ..CallDriver::sequential()
        };
        let openmp = CallDriver {
            mode: ParallelMode::OpenMp {
                n_threads: 2,
                schedule: Schedule::Dynamic { chunk: 1 },
                chunk_columns: 64,
            },
            ..sequential.clone()
        };
        out.push((format!("{preset} sequential"), sequential));
        out.push((format!("{preset} openmp(2)"), openmp));
    }
    out
}

fn assert_matches_oracle(what: &str, chrom: &str, got: &[VcfRecord], want: &[VcfRecord]) {
    let positions = |r: &[VcfRecord]| r.iter().map(|r| r.pos).collect::<Vec<_>>();
    assert_eq!(positions(got), positions(want), "{what}: called columns");
    for (g, w) in got.iter().zip(want) {
        assert!(
            (g.qual - w.qual).abs() <= 1e-6,
            "{what} at {}: QUAL {} vs the oracle's {}",
            g.pos,
            g.qual,
            w.qual
        );
        let g = VcfRecord {
            qual: w.qual,
            ..g.clone()
        };
        assert_eq!(&g, w, "{what}: record fields");
    }
    assert_eq!(
        write_vcf(chrom, "oracle", got),
        write_vcf(chrom, "oracle", want),
        "{what}: VCF bytes"
    );
}

/// Run every driver over `span` and hold it to the oracle's whole-genome
/// calls restricted to that span. Returns the runs and the oracle's calls
/// for shape-specific checks.
fn referee(
    shape: &str,
    reference: &ReferenceGenome,
    alignments: &BalFile,
    pileup: PileupParams,
    spans: &[Range<u32>],
) -> (Vec<(String, CallOutcome)>, Vec<NaiveCall>) {
    let oracle = naive_calls(reference, alignments, pileup);
    let mut runs = Vec::new();
    for (name, driver) in drivers(pileup) {
        for span in spans {
            let outcome = driver
                .run_region(reference, alignments, span.clone())
                .expect("valid request");
            assert!(outcome.partial.is_empty(), "{shape} {name}: complete run");
            let want: Vec<VcfRecord> = oracle
                .iter()
                .map(|call| &call.record)
                .filter(|r| span.contains(&(r.pos as u32)))
                .cloned()
                .collect();
            let what = format!("{shape} {name} over {span:?}");
            assert_matches_oracle(&what, &reference.name, &outcome.records, &want);
            runs.push((name.clone(), outcome));
        }
    }
    assert!(!oracle.is_empty(), "{shape}: the shape must call something");
    (runs, oracle)
}

fn dataset(
    genome_len: usize,
    depth: f64,
    seed: u64,
    spec: impl FnOnce(DatasetSpec) -> DatasetSpec,
) -> (ReferenceGenome, BalFile) {
    let reference = ReferenceGenome::sars_cov_2_like(GenomeParams::with_length(genome_len), seed);
    let ds = spec(DatasetSpec::new("oracle", depth, seed)).simulate(&reference);
    (reference, ds.alignments)
}

/// `deep_100k` reduced: 300 bp × 20,000×, HiSeq, AF 0.2–5 % — deep enough
/// that `improved()` settles its strongest columns by the certificate.
fn deep() -> (ReferenceGenome, BalFile) {
    dataset(300, 20_000.0, 7, |s| s.with_variants(6, 0.002, 0.05))
}

#[test]
fn deep_shape_matches_the_oracle() {
    let (reference, alignments) = deep();
    let whole = 0..reference.len() as u32;
    let (runs, _) = referee(
        "deep",
        &reference,
        &alignments,
        PileupParams::default(),
        &[whole],
    );
    for (name, outcome) in &runs {
        if name.starts_with("improved") {
            assert!(
                outcome.stats.certified_calls > 0,
                "{name}: the certificate must fire: {:?}",
                outcome.stats
            );
        }
    }
}

#[test]
fn depth_cap_matches_the_oracle() {
    let (reference, alignments) = deep();
    let whole = 0..reference.len() as u32;
    let pileup = PileupParams {
        max_depth: 8_000,
        ..PileupParams::default()
    };
    let (runs, _) = referee("deep capped", &reference, &alignments, pileup, &[whole]);
    for (name, outcome) in &runs {
        assert!(
            outcome.stats.truncated_columns > 0,
            "{name}: the cap must bind"
        );
    }
}

/// `wide_1k` reduced: 3,000 bp × 300×, HiSeq.
#[test]
fn wide_shape_matches_the_oracle() {
    let (reference, alignments) = dataset(3_000, 300.0, 11, |s| s.with_variants(12, 0.01, 0.10));
    let whole = 0..reference.len() as u32;
    referee(
        "wide",
        &reference,
        &alignments,
        PileupParams::default(),
        &[whole],
    );
}

/// `noisy_3k` reduced: 1,500 bp × 1,000×, Q12 long-read qualities,
/// 150 bp reads — every column is a mismatch column. Its calls sit at
/// mid K far above λ, so every driver reaches them through the exact
/// kernel's tilt window.
#[test]
fn noisy_shape_matches_the_oracle() {
    let (reference, alignments) = dataset(1_500, 1_000.0, 13, |s| {
        s.with_read_len(150)
            .with_quality(QualityPreset::LongRead)
            .with_variants(100, 0.02, 0.20)
    });
    let whole = 0..reference.len() as u32;
    let (_, oracle) = referee(
        "noisy",
        &reference,
        &alignments,
        PileupParams::default(),
        &[whole],
    );
    // A tilt applies at K ≥ SMALL_K_THRESHOLD (16) with K above the mean.
    let windowed = oracle
        .iter()
        .filter(|call| call.k >= 64 && call.k as f64 > call.lambda)
        .count();
    assert!(
        windowed >= 20,
        "noisy: {windowed} of {} calls at K ≥ 64 and K > λ",
        oracle.len()
    );
}

/// `serve_mix` reduced: region calls over a 2,000 bp × 500× sample, each
/// held to the oracle's whole-genome calls inside its span (the Bonferroni
/// factor still counts the whole reference).
#[test]
fn served_regions_match_the_oracle() {
    let (reference, alignments) = dataset(2_000, 500.0, 17, |s| s.with_variants(8, 0.005, 0.05));
    let spans = [0..1, 37..400, 400..1_000, 1_234..1_901, 1_999..2_000];
    referee(
        "serve",
        &reference,
        &alignments,
        PileupParams::default(),
        &spans,
    );
}
