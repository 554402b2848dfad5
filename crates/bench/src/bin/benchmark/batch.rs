//! Whole-file calling: the timed `ultravc call` reps (one thread and two),
//! truth scoring, and — for the traced run — a single-thread reconstruction
//! of the driver's column loop with a span around every call into a layer.

use std::fs;
use std::time::{Duration, Instant};

use ultravc_bamlite::{BalFile, RecordBatch};
use ultravc_core::config::CallerConfig;
use ultravc_core::driver::{CallDriver, CallOutcome, ParallelMode};
use ultravc_core::pvalue::{ColumnDecision, ColumnTest, Scratch};
use ultravc_parfor::Schedule;
use ultravc_pileup::{pileup_region, PileupParams};
use ultravc_vcf::{write_vcf, DynamicFilter, VcfRecord};

use crate::dataset::{load_reference, Inputs};
use crate::report::Report;
use crate::span::{self_times, Recorder, Span};
use crate::stat::{median, percentile};

/// The `##source=` value the CLI and the server write.
pub const VCF_SOURCE: &str = "ultravc-0.1";

/// Each driver warms up for at least this many discarded reps and this long
/// before its timed reps. Page cache and allocator settle in a rep or two;
/// the time is for the second core, which runs a fresh pair of worker
/// threads 20–40 % slow for a second or two after it has idled through a
/// single-threaded stretch.
const WARMUP_REPS: usize = 2;
const WARMUP: Duration = Duration::from_secs(2);
/// Timed reps of each driver a run makes however short `--seconds` is.
const MIN_REPS: usize = 3;

/// What `ultravc call` runs by default.
pub fn sequential_driver() -> CallDriver {
    let mut driver = CallDriver::sequential();
    driver.config = CallerConfig::improved();
    driver
}

/// What `ultravc call --mode openmp --threads N` runs; the server uses the
/// same driver with one thread per call.
pub fn openmp_driver(n_threads: usize) -> CallDriver {
    let mut driver = CallDriver::openmp(n_threads);
    driver.config = CallerConfig::improved();
    driver.mode = ParallelMode::OpenMp {
        n_threads,
        schedule: Schedule::Dynamic { chunk: 1 },
        chunk_columns: 256,
    };
    driver
}

/// One `ultravc call`, in process: open the file fresh, load the FASTA,
/// run, render, write the VCF. Returns the wall time in ms.
fn call_once(driver: &CallDriver, inputs: &Inputs) -> Result<(f64, CallOutcome, String), String> {
    let t = Instant::now();
    let bal = BalFile::open(&inputs.bal).map_err(|e| e.to_string())?;
    let reference = load_reference(&inputs.fasta)?;
    let outcome = driver.run(&reference, &bal).map_err(|e| e.to_string())?;
    let vcf = write_vcf(&reference.name, VCF_SOURCE, &outcome.records);
    fs::write(&inputs.vcf_out, &vcf).map_err(|e| e.to_string())?;
    let ms = t.elapsed().as_secs_f64() * 1e3;
    if !outcome.partial.is_empty() || outcome.interrupt.is_some() {
        return Err(format!("{} region(s) failed", outcome.partial.len()));
    }
    Ok((ms, outcome, vcf))
}

/// What the timed reps leave for the later phases.
pub struct BatchRun {
    /// Median sequential wall, ms.
    pub seq_ms: f64,
    /// The VCF every rep must reproduce.
    pub vcf: String,
    /// The sequential driver's outcome (records are PASS calls).
    pub outcome: CallOutcome,
    /// Blocks the two-thread run decoded, and its team reports.
    pub t2_blocks: u64,
    pub t2_imbalance: Vec<f64>,
    pub t2_barrier_waste_ms: Vec<f64>,
}

/// Warm `driver` up, then time call reps for `budget`. Every rep must
/// reproduce `expect` byte for byte; a rep that errors ends the run (the
/// workloads are chosen so none does). Returns the wall times in ms.
fn timed_reps(
    driver: &CallDriver,
    inputs: &Inputs,
    budget: Duration,
    expect: &str,
    report: &mut Report,
    mut each: impl FnMut(&CallOutcome),
) -> Result<Vec<f64>, String> {
    let start = Instant::now();
    let mut warmups = 0;
    while warmups < WARMUP_REPS || start.elapsed() < WARMUP {
        call_once(driver, inputs)?;
        warmups += 1;
    }
    let mut wall_ms = Vec::new();
    let start = Instant::now();
    while wall_ms.len() < MIN_REPS || start.elapsed() < budget {
        let (ms, outcome, vcf) = call_once(driver, inputs)?;
        wall_ms.push(ms);
        report.check(vcf == expect, "a call rep wrote a different VCF");
        each(&outcome);
    }
    Ok(wall_ms)
}

/// The timed whole-file calls: sequential reps for half of `budget`, then
/// two-thread reps for the other half. In blocks, not alternating: a
/// two-thread rep that follows a sequential one starts on a cold second
/// core, which inflated `deep_100k`'s two-thread wall by 40 %.
pub fn run_reps(
    inputs: &Inputs,
    budget: Duration,
    report: &mut Report,
) -> Result<BatchRun, String> {
    let (_, outcome, vcf) = call_once(&sequential_driver(), inputs)?;
    let seq_ms = timed_reps(
        &sequential_driver(),
        inputs,
        budget / 2,
        &vcf,
        report,
        |_| {},
    )?;
    // The default path's memory, read before any other path has run: the
    // two-thread run's peak depends on how far apart its workers drift (how
    // many decoded blocks are alive at once) and flips between two values
    // from run to run, so it is a per-layer number, as is the server's.
    report.metric("peak_rss_mb", crate::peak_rss_mb()?);

    let mut t2_blocks = 0;
    let (mut t2_imbalance, mut t2_barrier_waste_ms) = (Vec::new(), Vec::new());
    let t2_ms = timed_reps(
        &openmp_driver(2),
        inputs,
        budget / 2,
        &vcf,
        report,
        |outcome| {
            t2_blocks = outcome.decode.blocks;
            if let Some(team) = &outcome.team {
                t2_imbalance.push(team.imbalance());
                t2_barrier_waste_ms.push(team.barrier_waste().as_secs_f64() * 1e3);
            }
        },
    )?;
    report.metric("core.t2_peak_rss_mb", crate::peak_rss_mb()?);
    let seq_ms = report.median("call_wall_ms", &seq_ms);
    report.median("call_wall_t2_ms", &t2_ms);
    report.note("kernel", outcome.kernel);
    report.note("source_tier", outcome.source_tier);
    Ok(BatchRun {
        seq_ms,
        vcf,
        outcome,
        t2_blocks,
        t2_imbalance,
        t2_barrier_waste_ms,
    })
}

/// Score PASS calls against the planted variants (`(pos, alt)` pairs,
/// sorted).
pub fn score_truth(records: &[VcfRecord], truth: &[(usize, u8)], report: &mut Report) {
    let hits = records
        .iter()
        .filter(|r| truth.binary_search(&(r.pos, r.alt_base.to_ascii())).is_ok())
        .count();
    report.check(
        hits > 0 && !truth.is_empty(),
        "no planted variant was called",
    );
    report.metric("truth_recall", hits as f64 / truth.len().max(1) as f64);
    report.metric("truth_precision", hits as f64 / records.len().max(1) as f64);
}

/// One pass of the reconstructed column loop.
struct Reconstruction {
    wall_ms: f64,
    spans: Vec<Span>,
    /// One decision per column, in column order (parallel to the
    /// `core.test` spans when traced).
    decisions: Vec<ColumnDecision>,
    called: Vec<u32>,
    /// Decode time the pileup iterator reports for itself, ns.
    decode_ns: u64,
    vcf: String,
}

/// `core::caller::drain_pileup` as the sequential driver runs it, rebuilt
/// from the layers' public functions: open, load, then per column
/// `PileupIter::next` and `ColumnTest::test`, then filter and write.
/// Records are not rebuilt — the filter and writer are fed the driver's own
/// unfiltered calls, after checking the loop called the same columns.
fn reconstruct(
    inputs: &Inputs,
    config: &CallerConfig,
    unfiltered: &[VcfRecord],
    traced: bool,
) -> Result<Reconstruction, String> {
    let mut rec = Recorder::new(traced);
    let mut decisions = Vec::new();
    let mut called = Vec::new();
    let wall = Instant::now();
    let root = rec.open("call", None);

    let t0 = rec.now();
    let bal = BalFile::open(&inputs.bal).map_err(|e| e.to_string())?;
    rec.push("bamlite.open", Some(root), t0, rec.now());
    let t0 = rec.now();
    let reference = load_reference(&inputs.fasta)?;
    rec.push("genome.load_ref", Some(root), t0, rec.now());

    let tester = ColumnTest::new(config, reference.len());
    let mut scratch = Scratch::new();
    let mut iter = pileup_region(&bal, 0, reference.len() as u32, PileupParams::default());
    loop {
        let t0 = rec.now();
        let next = iter.next();
        rec.push("pileup.next", Some(root), t0, rec.now());
        let Some(column) = next else { break };
        let ref_base = reference.base(column.pos as usize);
        let t0 = rec.now();
        let decision = tester.test(&column, ref_base, &mut scratch);
        rec.push("core.test", Some(root), t0, rec.now());
        if matches!(decision, ColumnDecision::Called { .. }) {
            called.push(column.pos);
        }
        decisions.push(decision);
        iter.recycle(column);
    }
    if let Some(e) = iter.take_error() {
        return Err(e.to_string());
    }
    let decode_ns = iter.decode_stats().decode_time.as_nanos() as u64;

    let mut records = unfiltered.to_vec();
    let t0 = rec.now();
    DynamicFilter::default().apply(&mut records);
    rec.push("vcf.filter", Some(root), t0, rec.now());
    let t0 = rec.now();
    let vcf = write_vcf(&reference.name, VCF_SOURCE, &records);
    fs::write(&inputs.vcf_out, &vcf).map_err(|e| e.to_string())?;
    rec.push("vcf.write", Some(root), t0, rec.now());
    rec.close(root);

    Ok(Reconstruction {
        wall_ms: wall.elapsed().as_secs_f64() * 1e3,
        spans: rec.spans,
        decisions,
        called,
        decode_ns,
        vcf,
    })
}

fn total_ms(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::duration)
        .sum::<u64>() as f64
        / 1e6
}

/// Decode every block once through `BalReader::decode_batch`; returns
/// (ms, bases decoded, blocks).
fn decode_pass(inputs: &Inputs) -> Result<(f64, u64, usize), String> {
    let bal = BalFile::open(&inputs.bal).map_err(|e| e.to_string())?;
    let mut reader = bal.reader();
    let mut batch = RecordBatch::new();
    let mut bases = 0u64;
    let t = Instant::now();
    for i in 0..bal.n_blocks() {
        reader
            .decode_batch(i, &mut batch)
            .map_err(|e| e.to_string())?;
        bases += batch.n_bases() as u64;
    }
    Ok((t.elapsed().as_secs_f64() * 1e3, bases, bal.n_blocks()))
}

/// Reconstruction passes of each kind (traced, untraced); the ratio of their
/// fastest walls is `trace.overhead_ratio`.
const RECONSTRUCTIONS: usize = 2;
/// Standalone decode passes; `bamlite.decode_ms` is their median.
const DECODE_PASSES: usize = 3;

/// The traced run's batch layers: every `bamlite.*`, `genome.*`, `pileup.*`,
/// `stats.*`, `vcf.*`, `core.*`, `parfor.*` and `trace.*` metric, plus the
/// output checks only a second implementation of the loop can make.
/// Returns the spans of one traced reconstruction for `--trace-out`.
pub fn trace_layers(
    inputs: &Inputs,
    run: &BatchRun,
    report: &mut Report,
) -> Result<Vec<Span>, String> {
    let improved = CallerConfig::improved();

    // The calls before filtering: what the column loop must reproduce.
    let mut unfiltered_driver = sequential_driver();
    unfiltered_driver.filter = None;
    let (_, unfiltered, _) = call_once(&unfiltered_driver, inputs)?;
    let unfiltered = unfiltered.records;
    let driver_called: Vec<u32> = unfiltered.iter().map(|r| r.pos as u32).collect();

    // The fastest traced pass is the one whose spans are kept: the host's
    // slow stretches only ever add time.
    let mut traced_ms = Vec::new();
    let mut untraced_ms = Vec::new();
    let mut traced: Option<Reconstruction> = None;
    for _ in 0..RECONSTRUCTIONS {
        untraced_ms.push(reconstruct(inputs, &improved, &unfiltered, false)?.wall_ms);
        let pass = reconstruct(inputs, &improved, &unfiltered, true)?;
        traced_ms.push(pass.wall_ms);
        if traced
            .as_ref()
            .is_none_or(|best| pass.wall_ms < best.wall_ms)
        {
            traced = Some(pass);
        }
    }
    let traced = traced.expect("RECONSTRUCTIONS > 0");
    report.check(
        traced.vcf == run.vcf,
        "reconstruction VCF differs from the driver's",
    );
    report.check(
        traced.called == driver_called,
        "reconstruction called different columns than the driver",
    );

    // Decision counts, checked against the driver's own.
    let count =
        |f: fn(&ColumnDecision) -> bool| traced.decisions.iter().filter(|d| f(d)).count() as u64;
    let screened = count(|d| matches!(d, ColumnDecision::SkippedByApprox { .. }));
    let bailed = count(|d| matches!(d, ColumnDecision::BailedEarly { .. }));
    let calls = count(|d| matches!(d, ColumnDecision::Called { .. }));
    let exact_completed = calls + count(|d| matches!(d, ColumnDecision::NotSignificant { .. }));
    let mismatch = screened + bailed + exact_completed;
    let columns = traced.decisions.len() as u64;
    let stats = &run.outcome.stats;
    report.check(
        (columns, mismatch, screened, bailed, exact_completed, calls)
            == (
                stats.columns,
                stats.mismatch_columns,
                stats.skipped_by_approx,
                stats.bailed_early,
                stats.exact_completed,
                stats.calls,
            ),
        "reconstruction decision counts differ from CallOutcome.stats",
    );

    // Per-column test spans, split by what the test decided.
    let tests: Vec<&Span> = traced
        .spans
        .iter()
        .filter(|s| s.name == "core.test")
        .collect();
    let mut screen_ns = 0u64;
    let mut exact_us: Vec<f64> = Vec::new();
    for (span, decision) in tests.iter().zip(&traced.decisions) {
        if decision.ran_exact() {
            exact_us.push(span.duration() as f64 / 1e3);
        } else {
            screen_ns += span.duration();
        }
    }
    exact_us.sort_by(f64::total_cmp);

    // The paper's identity claim, and what the screen buys: the same loop
    // with the unscreened tester must call the same columns, slower.
    let original = reconstruct(inputs, &CallerConfig::original(), &unfiltered, true)?;
    report.check(
        original.called == traced.called && original.vcf == traced.vcf,
        "original() and improved() call different records",
    );

    let mut decode_ms = Vec::new();
    let mut decoded = (0u64, 0usize);
    for _ in 0..DECODE_PASSES {
        let (ms, bases, blocks) = decode_pass(inputs)?;
        decode_ms.push(ms);
        decoded = (bases, blocks);
    }
    let (bases, blocks) = decoded;
    let file_bytes = fs::metadata(&inputs.bal).map_err(|e| e.to_string())?.len();

    let root_ms = traced.spans[0].duration() as f64 / 1e6;
    let self_ns = self_times(&traced.spans);
    let attributed: u64 = self_ns
        .iter()
        .filter(|(name, _)| **name != "call")
        .map(|(_, ns)| ns)
        .sum();
    let pileup_ms =
        (total_ms(&traced.spans, "pileup.next") - traced.decode_ns as f64 / 1e6).max(0.0);
    let decode_med = median(&decode_ms);

    report.metric("bamlite.open_ms", total_ms(&traced.spans, "bamlite.open"));
    report.median("bamlite.decode_ms", &decode_ms);
    report.metric(
        "bamlite.decode_mbases_per_s",
        bases as f64 / 1e6 / (decode_med / 1e3),
    );
    report.metric("bamlite.blocks", blocks as f64);
    report.metric("bamlite.file_mb", file_bytes as f64 / 1e6);
    report.metric(
        "bamlite.decode_once_ratio",
        blocks as f64 / run.t2_blocks.max(1) as f64,
    );
    report.metric(
        "genome.load_ref_ms",
        total_ms(&traced.spans, "genome.load_ref"),
    );
    report.metric("pileup.self_ms", pileup_ms);
    report.metric("pileup.columns", columns as f64);
    report.metric("pileup.ns_per_base", pileup_ms * 1e6 / bases.max(1) as f64);
    report.metric(
        "pileup.us_per_column",
        pileup_ms * 1e3 / columns.max(1) as f64,
    );
    report.metric("stats.screen_ms", screen_ns as f64 / 1e6);
    report.metric("stats.exact_ms", exact_us.iter().sum::<f64>() / 1e3);
    report.metric(
        "stats.exact_us_p50",
        if exact_us.is_empty() {
            0.0
        } else {
            percentile(&exact_us, 50.0)
        },
    );
    report.metric(
        "stats.exact_us_max",
        exact_us.last().copied().unwrap_or(0.0),
    );
    report.metric("stats.mismatch_columns", mismatch as f64);
    report.metric("stats.screened", screened as f64);
    report.metric("stats.bailed", bailed as f64);
    report.metric("stats.exact_completed", exact_completed as f64);
    report.metric("stats.calls", calls as f64);
    report.metric(
        "stats.screen_skip_ratio",
        screened as f64 / mismatch.max(1) as f64,
    );
    report.metric(
        "stats.original_over_improved",
        total_ms(&original.spans, "core.test") / total_ms(&traced.spans, "core.test"),
    );
    report.metric("vcf.filter_ms", total_ms(&traced.spans, "vcf.filter"));
    report.metric("vcf.write_ms", total_ms(&traced.spans, "vcf.write"));
    report.metric("vcf.bytes", traced.vcf.len() as f64);
    report.metric("core.driver_overhead_ms", run.seq_ms - root_ms);
    report.metric(
        "core.t2_speedup",
        run.seq_ms / report.get("call_wall_t2_ms").map_or(f64::NAN, |m| m.value),
    );
    report.median("parfor.imbalance", &run.t2_imbalance);
    report.median("parfor.barrier_waste_ms", &run.t2_barrier_waste_ms);
    let coverage = attributed as f64 / traced.spans[0].duration() as f64;
    report.check(
        coverage >= 0.95,
        format!("spans cover {coverage:.3} of the reconstruction, below 0.95: the layer table is not evidence"),
    );
    report.metric("trace.coverage", coverage);
    report.metric("trace.reconstruction_ratio", root_ms / run.seq_ms);
    let fastest = |ms: &[f64]| ms.iter().copied().fold(f64::INFINITY, f64::min);
    report.metric(
        "trace.overhead_ratio",
        fastest(&traced_ms) / fastest(&untraced_ms),
    );
    Ok(traced.spans)
}
