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
//! [`CallDriver`] (unfiltered; `improved()` and `original()`; sequential and
//! in a second loop shape) must call the same columns with the same fields,
//! QUAL within 1e-6, and write the same VCF bytes. Beyond the oracle, every
//! run over a span must produce bitwise-equal records, runs of one preset
//! equal [`CallStats`], runs of both presets equal decision-independent
//! counters, and each run must keep the pipeline's invariants (the decision
//! counters partition the mismatch columns, DP4 ≤ DP, AF in (0, 1], REF is
//! the genome's base, records position-sorted).
//!
//! The property draws its inputs — simulator output (50–600 bp at depths
//! 1–3,000 within `MAX_BASES`, HiSeq or long-read qualities, 0–8 planted
//! variants) or hand-built records (`S`/`I`/`D` CIGARs, filtered reads, 1
//! to 45 distinct qualities so the 40-entry dictionary spills, blocks of
//! 2–64 records) — and a run shape: the whole reference or a sub-span, a
//! depth cap from 1 to unbounded, 1–3 threads, chunk widths 1–256 and a
//! loop schedule. The
//! pinned cases keep the workload shapes the property's small inputs do not
//! reach: a deep sample where the certificate fires, a depth cap below it,
//! long reads whose calls need the exact kernel's tilt window, a wide
//! genome, regions served through a [`CallSession`], and a dense top
//! quality bin. `PROPTEST_SEED` draws a fresh set of cases.

use std::collections::BTreeMap;
use std::ops::Range;

use proptest::prelude::*;
use std::sync::Arc;
use ultravc_bamlite::{BalFile, BalWriter, Cigar, CigarOp, Flags, Record};
use ultravc_core::{CallDriver, CallOutcome, CallSession, CallStats, CallerConfig, ParallelMode};
use ultravc_genome::alphabet::Base;
use ultravc_genome::phred::{phred_scale_pvalue, phred_to_prob, Phred};
use ultravc_genome::reference::{GenomeParams, ReferenceGenome};
use ultravc_genome::sequence::Seq;
use ultravc_parfor::Schedule;
use ultravc_pileup::PileupParams;
use ultravc_readsim::dataset::DatasetSpec;
use ultravc_readsim::QualityPreset;
use ultravc_stats::binomial::fisher_exact;
use ultravc_stats::rng::Rng;
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

/// One production run over one span.
struct Run {
    preset: &'static str,
    name: String,
    span: Range<u32>,
    outcome: CallOutcome,
}

/// Unfiltered drivers, both presets, each sequential and in `mode`.
fn drivers(pileup: PileupParams, mode: ParallelMode) -> Vec<(&'static str, String, CallDriver)> {
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
        let shaped = CallDriver {
            mode,
            ..sequential.clone()
        };
        out.push((preset, format!("{preset} sequential"), sequential));
        out.push((preset, format!("{preset} {mode:?}"), shaped));
    }
    out
}

/// The same called columns and record fields as the oracle, QUAL within
/// 1e-6, and the same VCF bytes.
fn matches_oracle(what: &str, got: &[VcfRecord], want: &[VcfRecord]) -> Result<(), String> {
    let positions = |r: &[VcfRecord]| r.iter().map(|r| r.pos).collect::<Vec<_>>();
    prop_assert_eq!(positions(got), positions(want), "{}: called columns", what);
    for (g, w) in got.iter().zip(want) {
        let qual = (g.qual - w.qual).abs() <= 1e-6;
        prop_assert!(qual, "{what} at {}: QUAL {} vs {}", g.pos, g.qual, w.qual);
        let g = VcfRecord {
            qual: w.qual,
            ..g.clone()
        };
        prop_assert_eq!(&g, w, "{}: record fields", what);
    }
    let vcf = |records| write_vcf("chrom", "oracle", records);
    prop_assert!(vcf(got) == vcf(want), "{what}: VCF bytes");
    Ok(())
}

/// The pipeline's invariants on one complete, unfiltered run.
fn keeps_invariants(what: &str, genome: &ReferenceGenome, run: &CallOutcome) -> Result<(), String> {
    let s = run.stats;
    let decided = s.skipped_by_approx + s.bailed_early + s.exact_completed;
    prop_assert!(run.partial.is_empty(), "{what}: incomplete run");
    prop_assert!(
        s.mismatch_columns == decided
            && s.mismatch_columns <= s.columns
            && s.certified_calls <= s.calls
            && s.calls <= s.exact_completed
            && s.calls as usize == run.records.len(),
        "{what}: the counters do not add up: {s:?}"
    );
    for r in &run.records {
        let (rf, rr, af, ar) = r.info.dp4;
        let well_formed = rf + rr + af + ar <= r.info.dp
            && r.info.af > 0.0
            && r.info.af <= 1.0
            && r.ref_base == genome.base(r.pos)
            && r.ref_base != r.alt_base;
        prop_assert!(well_formed, "{what}: malformed {r:?}");
    }
    let sorted = run.records.windows(2).all(|w| w[0].pos < w[1].pos);
    prop_assert!(sorted, "{what}: records out of position order");
    Ok(())
}

/// A record as bits: `==` on its `f64` fields would let `0.0` equal `-0.0`.
fn bits(r: &VcfRecord) -> impl PartialEq + std::fmt::Debug + '_ {
    let i = &r.info;
    let numbers = (
        r.qual.to_bits(),
        i.af.to_bits(),
        i.sb.to_bits(),
        i.dp,
        i.dp4,
    );
    (&r.chrom, r.pos, r.ref_base, r.alt_base, &r.filter, numbers)
}

/// Runs over one span agree: bitwise-equal records, equal [`CallStats`]
/// within a preset, and across presets every counter a decision path
/// cannot move (`original()` takes no shortcut).
fn runs_agree(what: &str, runs: &[&Run]) -> Result<(), String> {
    let decision_free = |s: &CallStats| {
        let counts = [s.columns, s.mismatch_columns, s.calls, s.truncated_columns];
        (counts, s.sum_depth, s.sum_distinct_quals)
    };
    let first = runs[0];
    let want: Vec<_> = first.outcome.records.iter().map(bits).collect();
    for run in runs {
        let stats = &run.outcome.stats;
        let what = format!("{what}: {} vs", run.name);
        let got: Vec<_> = run.outcome.records.iter().map(bits).collect();
        prop_assert_eq!(&got, &want, "{} {}: records", what, first.name);
        let counters = decision_free(&first.outcome.stats);
        prop_assert_eq!(
            decision_free(stats),
            counters,
            "{} {}: counters",
            what,
            first.name
        );
        let shortcuts = (stats.skipped_by_approx, stats.certified_calls);
        prop_assert!(
            run.preset == "improved" || shortcuts == (0, 0),
            "{what}: {stats:?}"
        );
        let twin = runs
            .iter()
            .find(|o| o.preset == run.preset)
            .expect("itself");
        prop_assert_eq!(stats, &twin.outcome.stats, "{} {}: stats", what, twin.name);
    }
    Ok(())
}

/// Run every driver over every span — as one-off region calls, or on a
/// [`CallSession`] per driver when `serve` — and hold each run to the
/// invariants, to the oracle's whole-genome calls inside its span (the
/// Bonferroni factor still counts the whole reference) and to the other
/// runs over the span. Returns the runs and the oracle's calls.
fn referee(
    what: &str,
    (genome, alignments): &(ReferenceGenome, BalFile),
    pileup: PileupParams,
    spans: &[Range<u32>],
    mode: ParallelMode,
    serve: bool,
) -> Result<(Vec<Run>, Vec<NaiveCall>), String> {
    let oracle = naive_calls(genome, alignments, pileup);
    let mut runs = Vec::new();
    for (preset, name, driver) in drivers(pileup, mode) {
        let session = serve.then(|| {
            CallSession::open(driver.clone(), Arc::new(genome.clone()), alignments.clone())
        });
        for span in spans {
            let outcome = match &session {
                Some(session) => session.call(span.clone()),
                None => driver.run_region(genome, alignments, span.clone()),
            };
            let run = format!("{what} {name} over {span:?}");
            let outcome = outcome.map_err(|e| format!("{run}: {e}"))?;
            keeps_invariants(&run, genome, &outcome)?;
            let want: Vec<VcfRecord> = oracle
                .iter()
                .map(|call| call.record.clone())
                .filter(|r| span.contains(&(r.pos as u32)))
                .collect();
            matches_oracle(&run, &outcome.records, &want)?;
            let (name, span) = (name.clone(), span.clone());
            runs.push(Run {
                preset,
                name,
                span,
                outcome,
            });
        }
    }
    for span in spans {
        let same_span: Vec<&Run> = runs.iter().filter(|r| r.span == *span).collect();
        runs_agree(&format!("{what} over {span:?}"), &same_span)?;
    }
    Ok((runs, oracle))
}

/// [`referee`] on a pinned case, which must call something. Its second
/// loop shape is two workers over 64-column chunks.
fn pinned(
    what: &str,
    input: &(ReferenceGenome, BalFile),
    pileup: PileupParams,
    spans: &[Range<u32>],
    serve: bool,
) -> (Vec<Run>, Vec<NaiveCall>) {
    let mode = ParallelMode::OpenMp {
        n_threads: 2,
        schedule: Schedule::Dynamic { chunk: 1 },
        chunk_columns: 64,
    };
    let (runs, oracle) =
        referee(what, input, pileup, spans, mode, serve).unwrap_or_else(|e| panic!("{e}"));
    assert!(!oracle.is_empty(), "{what}: the shape must call something");
    (runs, oracle)
}

/// Simulator output: a SARS-CoV-2-like genome, 100 bp HiSeq reads unless
/// `spec` says otherwise.
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

/// A CIGAR for an `n`-base read: a full match, or one of five shapes that
/// open with a soft clip or a deletion or put `S`/`I`/`D` between `M`
/// runs (a shape too long for the read falls back to a full match).
fn cigar_shape(shape: usize, n: u32) -> Cigar {
    use CigarOp::{Del, Ins, Match, SoftClip};
    Cigar(match shape {
        1 if n >= 3 => vec![SoftClip(2), Match(n - 2)],
        2 => vec![Del(3), Match(n)],
        3 if n >= 4 => vec![SoftClip(1), Match(n - 3), Del(2), Match(2)],
        4 if n >= 7 => {
            let m = (n - 5) / 2;
            let tail = n - 5 - m;
            vec![
                SoftClip(1),
                Match(m),
                Ins(2),
                Match(1),
                Del(1),
                Match(tail),
                SoftClip(1),
            ]
        }
        5 if n >= 3 => vec![Match(1), Ins(1), Match(n - 2)],
        _ => vec![Match(n)],
    })
}

/// A hand-built read set: `reads` records of 1 to `max_read_len` bases
/// starting anywhere on a `len`-bp genome (so some overhang its end), with
/// [`cigar_shape`] CIGARs. A base's quality is the alphabet's top score
/// with probability `top_share`, else any of its `n_quals` distinct scores
/// in Q2–Q60 (Q2 is below the default `min_baseq`). Bases follow the
/// genome, an ALT planted at each of `variants` columns at an AF in `af`,
/// and errors at the rate their quality states. A tenth of the reads are
/// duplicates and a tenth fail the mapping-quality filter. The file holds
/// `block_capacity` records per block.
#[derive(Debug, Clone)]
struct HandBuilt {
    len: usize,
    reads: usize,
    max_read_len: usize,
    n_quals: usize,
    top_share: f64,
    variants: usize,
    af: (f64, f64),
    block_capacity: usize,
    seed: u64,
}

impl HandBuilt {
    fn build(&self) -> (ReferenceGenome, BalFile) {
        let genome =
            ReferenceGenome::sars_cov_2_like(GenomeParams::with_length(self.len), self.seed);
        let mut rng = Rng::new(self.seed);
        let mut alphabet: Vec<u8> = (2..=60).collect();
        rng.shuffle(&mut alphabet);
        alphabet.truncate(self.n_quals);
        let top = *alphabet.iter().max().expect("at least one score");
        let planted: BTreeMap<usize, (Base, f64)> = (0..self.variants)
            .map(|_| {
                let pos = rng.index(self.len);
                let alt = genome.base(pos).alternatives()[rng.index(3)];
                (pos, (alt, self.af.0 + rng.f64() * (self.af.1 - self.af.0)))
            })
            .collect();
        let mut starts: Vec<u32> = (0..self.reads)
            .map(|_| rng.index(self.len) as u32)
            .collect();
        starts.sort_unstable();
        let mut writer = BalWriter::with_block_capacity(self.block_capacity);
        for (id, pos) in starts.into_iter().enumerate() {
            let n = 1 + rng.index(self.max_read_len) as u32;
            let cigar = cigar_shape(rng.index(6), n);
            let mut qual = || match rng.bernoulli(self.top_share) {
                true => top,
                false => alphabet[rng.index(alphabet.len())],
            };
            let quals: Vec<Phred> = (0..n).map(|_| Phred::new(qual())).collect();
            let mut bases: Vec<Base> = (0..n).map(|_| Base::ALL[rng.index(4)]).collect();
            for (ref_pos, query) in cigar.aligned_pairs(pos) {
                let (ref_pos, query) = (ref_pos as usize, query as usize);
                if ref_pos < self.len {
                    let truth = match planted.get(&ref_pos) {
                        Some(&(alt, af)) if rng.bernoulli(af) => alt,
                        _ => genome.base(ref_pos),
                    };
                    let error = rng.bernoulli(phred_to_prob(quals[query].0));
                    bases[query] = [truth, truth.alternatives()[rng.index(3)]][error as usize];
                }
            }
            let mut flags = [Flags::none(), Flags::REVERSE][rng.index(2)];
            if rng.bernoulli(0.1) {
                flags = flags | Flags::DUPLICATE;
            }
            let mapq = if rng.bernoulli(0.1) { 5 } else { 60 };
            let seq = Seq::from_bases(bases);
            let record = Record::new(id as u64, pos, mapq, flags, seq, quals, cigar);
            let pushed = writer.push(record.expect("the CIGAR consumes the read"));
            pushed.expect("starts are sorted");
        }
        (genome, writer.finish())
    }
}

/// Depth × genome length ceiling for a property case: the oracle's
/// per-trial DP costs `Σ d·K` over the columns, and long-read columns carry
/// `K ≈ d/16`.
const MAX_BASES: usize = 200_000;

/// A property case's input: simulator output or a hand-built read set.
#[derive(Debug, Clone)]
enum Input {
    Simulated {
        len: usize,
        depth: usize,
        quality: QualityPreset,
        variants: usize,
        af: (f64, f64),
        seed: u64,
    },
    HandBuilt(HandBuilt),
}

impl Input {
    fn build(&self) -> (ReferenceGenome, BalFile) {
        match self {
            Input::Simulated {
                len,
                depth,
                quality,
                variants,
                af,
                seed,
            } => dataset(*len, *depth as f64, *seed, |s| {
                s.with_quality(*quality)
                    .with_variants(*variants, af.0, af.1)
            }),
            Input::HandBuilt(hand) => hand.build(),
        }
    }
}

fn allele_frequencies() -> impl Strategy<Value = (f64, f64)> {
    (0.005f64..0.2, 0.005f64..0.2).prop_map(|(a, b)| (a.min(b), a.max(b)))
}

/// Simulator inputs or hand-built records, half and half.
fn inputs() -> impl Strategy<Value = Input> {
    let qualities = vec![QualityPreset::HiSeq, QualityPreset::LongRead];
    let simulated = (
        (50usize..=600, 1usize..=3_000),
        prop::sample::select(qualities),
        0usize..=8,
        allele_frequencies(),
        any::<u64>(),
    )
        .prop_map(|((len, depth), quality, variants, af, seed)| {
            let depth = depth.min(MAX_BASES / len);
            Input::Simulated {
                len,
                depth,
                quality,
                variants,
                af,
                seed,
            }
        });
    let hand_built = (
        (50usize..=600, 1usize..=4_000, 1usize..=80),
        (1usize..=45, 0.0f64..1.0),
        (0usize..=8, allele_frequencies()),
        (2usize..=64, any::<u64>()),
    )
        .prop_map(
            |(
                (len, reads, max_read_len),
                (n_quals, top_share),
                (variants, af),
                (block_capacity, seed),
            )| {
                let reads = reads.min(2 * MAX_BASES / max_read_len);
                let hand = HandBuilt {
                    len,
                    reads,
                    max_read_len,
                    n_quals,
                    top_share,
                    variants,
                    af,
                    block_capacity,
                    seed,
                };
                Input::HandBuilt(hand)
            },
        );
    (any::<bool>(), simulated, hand_built).prop_map(|(hand, s, h)| if hand { h } else { s })
}

/// A property case's run shape: the whole reference or a sub-span (its
/// start and length as fractions), the depth cap, and the parallel-for's
/// threads, schedule and chunk width.
#[derive(Debug, Clone)]
struct Shape {
    span: Option<(f64, f64)>,
    max_depth: usize,
    mode: ParallelMode,
}

impl Shape {
    fn span(&self, len: usize) -> Range<u32> {
        let Some((at, width)) = self.span else {
            return 0..len as u32;
        };
        let start = (at * len as f64) as usize;
        let end = start + 1 + (width * (len - start) as f64) as usize;
        start as u32..end.min(len) as u32
    }
}

fn shapes() -> impl Strategy<Value = Shape> {
    let caps = vec![
        1usize, 2, 3, 7, 20, 64, 250, 1_000_000, 1_000_000, 1_000_000,
    ];
    let schedules = vec![
        Schedule::Static,
        Schedule::Dynamic { chunk: 1 },
        Schedule::Dynamic { chunk: 3 },
    ];
    let loops = (1usize..=3, prop::sample::select(schedules), 1u32..=256);
    let span = (any::<bool>(), 0.0f64..1.0, 0.0f64..1.0);
    (span, prop::sample::select(caps), loops).prop_map(|((whole, at, width), max_depth, loops)| {
        let (n_threads, schedule, chunk_columns) = loops;
        Shape {
            span: (!whole).then_some((at, width)),
            max_depth,
            mode: ParallelMode::OpenMp {
                n_threads,
                schedule,
                chunk_columns,
            },
        }
    })
}

proptest! {
    // Fixed, so tier-1 stays deterministic; `PROPTEST_SEED` draws others.
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn random_inputs_and_run_shapes_match_the_oracle(input in inputs(), shape in shapes()) {
        let input = input.build();
        let pileup = PileupParams { max_depth: shape.max_depth, ..PileupParams::default() };
        let span = shape.span(input.0.len());
        referee("case", &input, pileup, &[span], shape.mode, false)?;
    }
}

/// `deep_100k` reduced: 300 bp × 20,000×, HiSeq, AF 0.2–5 % — deep enough
/// that `improved()` settles its strongest columns by the certificate.
fn deep() -> (ReferenceGenome, BalFile) {
    dataset(300, 20_000.0, 7, |s| s.with_variants(6, 0.002, 0.05))
}

#[test]
fn deep_shape_matches_the_oracle() {
    let whole = 0..300;
    let (runs, _) = pinned("deep", &deep(), PileupParams::default(), &[whole], false);
    for run in runs.iter().filter(|run| run.preset == "improved") {
        let stats = run.outcome.stats;
        assert!(
            stats.certified_calls > 0,
            "{}: the certificate must fire: {stats:?}",
            run.name
        );
    }
}

#[test]
fn depth_cap_matches_the_oracle() {
    let pileup = PileupParams {
        max_depth: 8_000,
        ..PileupParams::default()
    };
    let whole = 0..300;
    let (runs, _) = pinned("deep capped", &deep(), pileup, &[whole], false);
    for run in &runs {
        assert!(
            run.outcome.stats.truncated_columns > 0,
            "{}: the cap must bind",
            run.name
        );
    }
}

/// `wide_1k` reduced: 3,000 bp × 300×, HiSeq.
#[test]
fn wide_shape_matches_the_oracle() {
    let wide = dataset(3_000, 300.0, 11, |s| s.with_variants(12, 0.01, 0.10));
    let whole = 0..3_000;
    pinned("wide", &wide, PileupParams::default(), &[whole], false);
}

/// `noisy_3k` reduced: 1,500 bp × 1,000×, Q12 long-read qualities,
/// 150 bp reads — every column is a mismatch column. Its calls sit at
/// mid K far above λ, so every driver reaches them through the exact
/// kernel's tilt window.
#[test]
fn noisy_shape_matches_the_oracle() {
    let noisy = dataset(1_500, 1_000.0, 13, |s| {
        s.with_read_len(150)
            .with_quality(QualityPreset::LongRead)
            .with_variants(100, 0.02, 0.20)
    });
    let whole = 0..1_500;
    let (runs, oracle) = pinned("noisy", &noisy, PileupParams::default(), &[whole], false);
    // The tilt window certifies every exact tail here: a fallback to the
    // full range keeps the p-value but means a trim or certificate
    // regressed.
    for run in &runs {
        assert_eq!(
            run.outcome.stats.window_fallbacks, 0,
            "noisy: {} re-ran columns over the full range",
            run.name
        );
    }
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

/// `serve_mix` reduced: region calls on a [`CallSession`] over a
/// 2,000 bp × 500× sample, each held to the oracle's whole-genome calls
/// inside its span.
#[test]
fn served_regions_match_the_oracle() {
    let sample = dataset(2_000, 500.0, 17, |s| s.with_variants(8, 0.005, 0.05));
    let spans = [0..1, 37..400, 400..1_000, 1_234..1_901, 1_999..2_000];
    pinned("serve", &sample, PileupParams::default(), &spans, true);
}

/// Nearly every base at the alphabet's top score: that one quality bin
/// carries each column, so a kernel that lost it would move every QUAL.
#[test]
fn dense_top_bin_matches_the_oracle() {
    let hand = HandBuilt {
        len: 120,
        reads: 1_200,
        max_read_len: 60,
        n_quals: 6,
        top_share: 0.95,
        variants: 4,
        af: (0.03, 0.15),
        block_capacity: 16,
        seed: 5,
    };
    let whole = 0..120;
    pinned(
        "dense top bin",
        &hand.build(),
        PileupParams::default(),
        &[whole],
        false,
    );
}
