//! The execution driver: one shared-memory parallel-for, one filter pass.
//!
//! The paper's §II.B replaces LoFreq's parallel wrapper script — partition
//! the genome, run an independent caller per piece, **filter each piece**,
//! merge, **filter the merged set again** with data-dependent thresholds —
//! by a dynamic parallel-for inside one process. That is the only run path
//! here: cut the region into column chunks, plan each chunk's blocks,
//! call the chunks under [`parallel_for_supervised`], merge in coordinate
//! order, filter exactly once. The workers share a run-scoped
//! [`SharedBlockCache`], so a block straddling a chunk boundary is decoded
//! exactly once per run instead of once per overlapping worker — and the
//! [`Category::Decompress`] spans of the trace sum to the true decode work
//! instead of multiply counting it.
//!
//! [`ParallelMode`] only chooses the loop's shape:
//!
//! * [`ParallelMode::Sequential`] — one worker, one chunk spanning the
//!   region. The parallel-for runs a one-thread team inline on the calling
//!   thread, so no thread is spawned.
//! * [`ParallelMode::OpenMp`] — `n_threads` workers over `chunk_columns`-wide
//!   chunks under a loop [`Schedule`] (the paper uses dynamic).
//!
//! Every shape shares one [`ColumnTest`] built from the whole reference, so
//! the calling decisions — and, filtering once, the records — are identical.
//! Workers attribute their time to [`Category`] spans, so a traced run can
//! be rendered as the paper's Figure 2 timeline. (The script's double
//! filtering survives as a demonstration beside the `double_filter` bench,
//! composed from this crate's public pieces.)

use crate::caller::{examine_column, CallSet, CallStats};
use crate::config::CallerConfig;
use crate::pvalue::{ColumnTest, Scratch};
use crate::supervisor::{Interrupt, RegionError, RegionFailure, RunBudget};
use std::time::{Duration, Instant};
use ultravc_bamlite::{BalError, BalFile, DecodeStats, IoPlan, SharedBlockCache};
use ultravc_genome::reference::ReferenceGenome;
use ultravc_parfor::{parallel_for_supervised, ItemOutcome, Schedule, TeamReport};
use ultravc_pileup::{chunk_ranges, pileup_region_windowed};
use ultravc_sync::{Arc, Mutex};
use ultravc_trace::{Category, Timeline, TraceRecorder};
use ultravc_vcf::{DynamicFilter, FilterParams, FilterReport, VcfRecord};

/// Columns per chunk wherever a caller has no reason to compute its own
/// width. Every chunk re-scans the records of the blocks it overlaps, so
/// narrow chunks pay for themselves in repeated scans: on the benchmark's
/// wide workloads one thread measured +8…+22 % over a single chunk at 256
/// columns and +42…+75 % at 64, and two threads ran 1.30–1.46× slower at 64
/// than at 256.
pub const CHUNK_COLUMNS: u32 = 256;

/// The shape of the run's parallel-for.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ParallelMode {
    /// One worker, one chunk spanning the region — the loop's one-thread
    /// case, run inline on the calling thread.
    Sequential,
    /// The paper's OpenMP port: chunked parallel-for, single filter pass.
    OpenMp {
        /// Worker count.
        n_threads: usize,
        /// Loop schedule (the paper uses dynamic).
        schedule: Schedule,
        /// Columns per chunk.
        chunk_columns: u32,
    },
}

impl ParallelMode {
    /// The loop shape as `(n_threads, schedule, chunk_columns)`.
    /// Sequential is one chunk however wide the region, not
    /// [`CHUNK_COLUMNS`]: a single reader has nothing to balance, and
    /// chunking it would only add the per-chunk re-scan.
    fn shape(self) -> (usize, Schedule, u32) {
        match self {
            ParallelMode::Sequential => (1, Schedule::Static, u32::MAX),
            ParallelMode::OpenMp {
                n_threads,
                schedule,
                chunk_columns,
            } => (n_threads, schedule, chunk_columns),
        }
    }
}

/// A full calling run: configuration + filter + execution mode.
#[derive(Debug, Clone)]
pub struct CallDriver {
    /// Caller configuration.
    pub config: CallerConfig,
    /// Post-call filter; `None` leaves records unfiltered.
    pub filter: Option<FilterParams>,
    /// Execution mode.
    pub mode: ParallelMode,
    /// Record a per-thread trace.
    pub trace: bool,
    /// Supervision policy: deadline, retry/backoff, cancellation. Every
    /// run is supervised; the default ([`RunBudget::unbounded`]) arms
    /// retries and containment with nothing that can trip.
    pub budget: RunBudget,
}

fn invalid_input(msg: String) -> BalError {
    BalError::Io(std::io::Error::new(std::io::ErrorKind::InvalidInput, msg))
}

impl CallDriver {
    /// Sequential driver with default config and single-pass filtering.
    pub fn sequential() -> CallDriver {
        CallDriver {
            config: CallerConfig::default(),
            filter: Some(FilterParams::default()),
            mode: ParallelMode::Sequential,
            trace: false,
            budget: RunBudget::unbounded(),
        }
    }

    /// OpenMP-style driver with the paper's dynamic schedule.
    pub fn openmp(n_threads: usize) -> CallDriver {
        CallDriver {
            mode: ParallelMode::OpenMp {
                n_threads,
                schedule: Schedule::Dynamic { chunk: 1 },
                chunk_columns: CHUNK_COLUMNS,
            },
            ..CallDriver::sequential()
        }
    }

    /// Run over the whole reference.
    ///
    /// Every run is supervised: the [`RunBudget`] is armed at entry
    /// (deadline anchored to now) and attached to this run's [`BalFile`]
    /// clone, so every worker's payload read retries transients and
    /// observes cancellation. Failures that survive the retry layer are
    /// contained per chunk, in every mode: the run returns `Ok` with the
    /// failed regions itemized in [`CallOutcome::partial`] (a sequential
    /// run's one chunk is the whole region) and the completed regions'
    /// calls intact. `Err` is left for requests that cannot start — see
    /// [`run_region`](CallDriver::run_region).
    pub fn run(
        &self,
        reference: &ReferenceGenome,
        alignments: &BalFile,
    ) -> Result<CallOutcome, BalError> {
        self.run_region(reference, alignments, 0..reference.len() as u32)
    }

    /// Estimate the cost of calling `region` before running it: the
    /// number of records held by index blocks overlapping the span —
    /// exactly the reads the [`IoPlan`] for the run would list, i.e.
    /// blocks × per-block depth. The estimate is computed from the index
    /// alone (no payload I/O), so a serving layer can price a request at
    /// admission time; it is monotone in both span width and depth and
    /// never zero (an empty span still costs one unit of scheduling).
    pub fn estimate_region_cost(alignments: &BalFile, region: &std::ops::Range<u32>) -> u64 {
        let index = alignments.index();
        alignments
            .blocks_overlapping(region.start, region.end)
            .iter()
            .filter_map(|&b| index.get(b))
            .map(|meta| meta.n_records as u64)
            .sum::<u64>()
            .max(1)
    }

    /// Run over one column range `[region.start, region.end)` of the
    /// reference.
    ///
    /// The [`ColumnTest`] is still built from the **whole reference**
    /// (same Bonferroni correction as a whole-genome run), so a region
    /// run's records are bitwise identical to the same columns of a
    /// whole-genome run before filtering — the property that lets a
    /// region server answer from the same statistics as the batch CLI.
    ///
    /// A request that cannot start is an `InvalidInput` I/O error: a
    /// region outside `start ≤ end ≤ reference.len()`, a zero thread count
    /// or chunk width, a zero depth cap (every column would be empty, so
    /// the run would call nothing and look complete), or a zero-duration
    /// deadline in the budget (which would expire before the run started
    /// and make every outcome trivially partial).
    pub fn run_region(
        &self,
        reference: &ReferenceGenome,
        alignments: &BalFile,
        region: std::ops::Range<u32>,
    ) -> Result<CallOutcome, BalError> {
        let tester = ColumnTest::new(&self.config, reference.len());
        self.run_region_with(reference, alignments, region, &tester)
    }

    /// [`run_region`](CallDriver::run_region) against a caller-held
    /// [`ColumnTest`] (a session builds it once and reuses it across
    /// requests).
    pub(crate) fn run_region_with(
        &self,
        reference: &ReferenceGenome,
        alignments: &BalFile,
        region: std::ops::Range<u32>,
        tester: &ColumnTest,
    ) -> Result<CallOutcome, BalError> {
        let t0 = Instant::now();
        let (n_threads, schedule, chunk_columns) = self.mode.shape();
        if region.start > region.end || region.end > reference.len() as u32 {
            return Err(invalid_input(format!(
                "region [{}, {}) out of bounds for reference of length {}",
                region.start,
                region.end,
                reference.len()
            )));
        }
        if n_threads == 0 || chunk_columns == 0 {
            return Err(invalid_input(format!(
                "thread count and chunk width must be positive, \
                 got {n_threads} thread(s) over {chunk_columns}-column chunks"
            )));
        }
        if self.config.pileup.max_depth == 0 {
            return Err(invalid_input(
                "depth cap must be positive: a zero cap stacks no bases".to_string(),
            ));
        }
        self.budget.validate().map_err(invalid_input)?;
        let budget = Arc::new(self.budget.arm());
        // One shared byte source per run: `BalFile` handles are clones
        // over one reference-counted `ByteSource`, so whether the file is
        // in memory or an open descriptor, every worker reads the same
        // backing — a disk-backed ultra-deep run opens the file once and
        // reads blocks on demand, never copying it whole.
        let alignments = alignments.clone().with_budget(Arc::clone(&budget));
        let chunks = chunk_ranges(region.start, region.end, chunk_columns);
        let recorder = self.trace.then(|| TraceRecorder::new(n_threads));
        // Decode-once block sharing: every worker pulls decompressed
        // blocks from one run-scoped cache, so chunk boundaries cost nothing
        // extra. The plan gives every chunk its block window (so workers
        // iterate precomputed windows instead of each re-walking the
        // index) and tells the cache how many chunks will request each
        // block, so it releases a block once the last one has consumed
        // it — residency is bounded by in-flight chunks, not the file.
        let plan = IoPlan::for_regions(&alignments, &chunks);
        let cache = Arc::new(SharedBlockCache::for_plan(alignments.clone(), &plan));
        // One Scratch per worker, reused across all its chunks and
        // columns: the binned test path allocates nothing per column. The
        // mutex is uncontended (each worker locks only its own slot, once
        // per chunk).
        let scratches: Vec<Mutex<Scratch>> =
            (0..n_threads).map(|_| Mutex::new(Scratch::new())).collect();
        let region_start = Instant::now();
        // Per-chunk failures are contained and the interrupt signal is
        // polled between chunks.
        let (outcomes, report) = parallel_for_supervised(
            n_threads,
            &chunks,
            schedule,
            || budget.interrupt().is_some(),
            |ctx, idx, _| {
                // Contained worker panics make a poisoned scratch lock
                // recoverable: Scratch holds no cross-column invariants
                // (every test refills it before reading).
                let mut scratch = scratches[ctx.thread_id]
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                call_chunk_traced(
                    reference,
                    &cache,
                    plan.window(idx),
                    &self.config,
                    tester,
                    &mut scratch,
                    recorder.as_ref(),
                    ctx.thread_id,
                )
            },
        );
        // Merge in chunk order; every chunk's records precede the next's.
        // A failed chunk becomes a RegionError and its neighbours' calls
        // survive.
        let mut merged = CallSet::default();
        let mut partial: Vec<RegionError> = Vec::new();
        for (region, outcome) in chunks.into_iter().zip(outcomes) {
            let failure = match outcome {
                ItemOutcome::Done(Ok(set)) => {
                    merged.append(set);
                    continue;
                }
                ItemOutcome::Done(Err(BalError::Interrupted(why))) => RegionFailure::Cancelled(why),
                ItemOutcome::Done(Err(e)) => RegionFailure::Error(e.to_string()),
                ItemOutcome::Panicked(msg) => RegionFailure::Panic(msg),
                ItemOutcome::Skipped => {
                    RegionFailure::Cancelled(budget.interrupt().unwrap_or(Interrupt::Cancelled))
                }
            };
            partial.push(RegionError { region, failure });
        }
        // Synthesize barrier spans from the team report, as HPC-Toolkit
        // displays the join idle time (dark green in the paper's Figure 2).
        let timeline = recorder.map(|rec| {
            for (t, done) in report.finished_at.iter().enumerate() {
                let start = region_start + *done;
                let end_instant = region_start + report.wall;
                if end_instant > start {
                    rec.record(t, Category::Barrier, start, end_instant);
                }
            }
            Timeline::from_spans(rec.finish())
        });
        // The single filter pass, over the merged set.
        let filter_reports = self
            .filter
            .map(|params| DynamicFilter::new(params).apply(&mut merged.records))
            .into_iter()
            .collect();
        Ok(CallOutcome {
            records: merged.records,
            stats: merged.stats,
            decode: merged.decode,
            filter_reports,
            team: Some(report),
            timeline,
            wall: t0.elapsed(),
            kernel: ultravc_simd::kernels().name,
            partial,
            interrupt: budget.interrupt(),
            io_retries: budget.retries(),
            source_tier: alignments.source().tier_name(),
        })
    }
}

/// The result of a driver run.
#[derive(Debug, Clone)]
pub struct CallOutcome {
    /// Final (filtered, unless the driver had no filter) records.
    pub records: Vec<VcfRecord>,
    /// Decision-path counters (pre-filter).
    pub stats: CallStats,
    /// Block-decode accounting summed over workers. Each worker reports
    /// only decodes it performed itself, so with the shared cache this is
    /// the true whole-run decode work (boundary blocks counted once).
    pub decode: DecodeStats,
    /// One report per filter application: the single pass over the merged
    /// set, or none for a filterless driver.
    pub filter_reports: Vec<FilterReport>,
    /// Team accounting of the run's parallel-for; always `Some` (a
    /// sequential run reports its one-worker team).
    pub team: Option<TeamReport>,
    /// Per-thread trace (drivers with `trace: true`).
    pub timeline: Option<Timeline>,
    /// Wall-clock time of the run.
    pub wall: Duration,
    /// Name of the SIMD kernel backend the run dispatched to
    /// (`"scalar"`, `"avx2"`, `"neon"`) — fixed per process, reported so
    /// perf numbers are attributable to a code path.
    pub kernel: &'static str,
    /// Regions that produced **no calls** because their chunk failed,
    /// panicked or was skipped after an interruption; empty means the run
    /// completed everywhere. Completed regions' records are bitwise
    /// identical to a fault-free run's.
    pub partial: Vec<RegionError>,
    /// Why the run stopped early, if it did (cancelled / deadline
    /// expired). `None` for runs that ran to completion.
    pub interrupt: Option<Interrupt>,
    /// Transient I/O operations that were retried away by the armed
    /// budget over the whole run (all workers).
    pub io_retries: u64,
    /// Byte source the run actually read from (`"mem"`, `"stream"`,
    /// `"fault"`), reported so failure and perf numbers are attributable
    /// to an I/O path.
    pub source_tier: &'static str,
}

impl CallOutcome {
    /// The run as a [`CallSet`] — its records, decision counters and decode
    /// totals — for a caller that takes a whole answer or none: the first
    /// lost region is the error (an interruption stays
    /// [`BalError::Interrupted`]).
    pub fn into_call_set(self) -> Result<CallSet, BalError> {
        if let Some(lost) = self.partial.into_iter().next() {
            return Err(match lost.failure {
                RegionFailure::Cancelled(why) => BalError::Interrupted(why),
                _ => BalError::Io(std::io::Error::other(lost.to_string())),
            });
        }
        Ok(CallSet {
            records: self.records,
            stats: self.stats,
            decode: self.decode,
        })
    }
}

/// Worker body: pileup + test one chunk, attributing time to trace
/// categories. Span granularity is per chunk (one span per category),
/// which keeps recording overhead negligible while preserving the
/// per-thread category totals and timeline shape that Figure 2 shows.
///
/// The [`Category::Decompress`] span covers only decode work this worker
/// **performed** — shared-cache hits cost (and record) nothing — so
/// summing the decompress spans across threads reconstructs the true
/// decode total, fixing the double counting that per-worker boundary-block
/// re-decodes used to inject into the Figure 2 reconstruction. Decode work
/// is reading a block and decompressing its streams; walking the records
/// (the cursor's checks, unpacking the kept bases) happens as the pileup
/// stacks them and lands in [`Category::BamIter`].
#[allow(clippy::too_many_arguments)]
fn call_chunk_traced(
    reference: &ReferenceGenome,
    cache: &Arc<SharedBlockCache>,
    window: &ultravc_bamlite::BlockWindow,
    config: &CallerConfig,
    tester: &ColumnTest,
    scratch: &mut Scratch,
    recorder: Option<&TraceRecorder>,
    thread_id: usize,
) -> Result<CallSet, BalError> {
    let mut iter = pileup_region_windowed(cache, window, config.pileup);
    let Some(recorder) = recorder else {
        return crate::caller::drain_pileup(reference, iter, tester, scratch);
    };
    let chunk_start = Instant::now();
    let mut d_decode = Duration::ZERO;
    let mut d_iter = Duration::ZERO;
    let mut d_approx = Duration::ZERO;
    let mut d_prob = Duration::ZERO;
    let mut out = CallSet::default();
    loop {
        let t0 = Instant::now();
        let decode_before = iter.decode_stats().decode_time;
        let column = iter.next();
        let pulled = t0.elapsed();
        // Split the pull between genuine block decoding (timed inside the
        // reader) and column assembly.
        let decoded = iter.decode_stats().decode_time - decode_before;
        d_decode += decoded;
        d_iter += pulled.saturating_sub(decoded);
        let Some(column) = column else { break };
        let t1 = Instant::now();
        let calls_before = out.stats.exact_completed + out.stats.bailed_early;
        if let Some(rec) = examine_column(reference, &column, tester, scratch, &mut out.stats) {
            out.records.push(rec);
        }
        iter.recycle(column);
        let tested = t1.elapsed();
        if out.stats.exact_completed + out.stats.bailed_early > calls_before {
            d_prob += tested;
        } else {
            d_approx += tested;
        }
    }
    if let Some(e) = iter.take_error() {
        // Propagate the pileup's stop reason typed: an interruption stays
        // an interruption (the supervisor classifies it as cancellation,
        // not corruption), a real decode error keeps its diagnosis.
        return Err(e);
    }
    out.decode = iter.decode_stats();
    // Emit the chunk's category spans back-to-back from the chunk start.
    let mut cursor = chunk_start;
    for (cat, dur) in [
        (Category::Decompress, d_decode),
        (Category::BamIter, d_iter),
        (Category::ApproxFilter, d_approx),
        (Category::ProbCompute, d_prob),
    ] {
        if !dur.is_zero() {
            recorder.record(thread_id, cat, cursor, cursor + dur);
            cursor += dur;
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ultravc_genome::reference::GenomeParams;
    use ultravc_readsim::dataset::DatasetSpec;

    fn setup(depth: f64, seed: u64) -> (ReferenceGenome, BalFile) {
        let reference = ReferenceGenome::sars_cov_2_like(GenomeParams::tiny(), seed);
        let ds = DatasetSpec::new("t", depth, seed)
            .with_variants(10, 0.02, 0.1)
            .simulate(&reference);
        (reference, ds.alignments)
    }

    #[test]
    fn sequential_is_the_one_thread_one_chunk_case() {
        let (reference, alignments) = setup(250.0, 79);
        let path =
            std::env::temp_dir().join(format!("ultravc-driver-shape-{}.bal", std::process::id()));
        alignments.write_to(&path).unwrap();
        let seq = CallDriver::sequential();
        let mut one_chunk = CallDriver::sequential();
        one_chunk.mode = ParallelMode::OpenMp {
            n_threads: 1,
            schedule: Schedule::Static,
            chunk_columns: u32::MAX,
        };
        for disk in [alignments, BalFile::open(&path).unwrap()] {
            let tier = disk.source().tier_name();
            let a = seq.run(&reference, &disk).unwrap();
            let b = one_chunk.run(&reference, &disk).unwrap();
            assert!(!a.records.is_empty(), "{tier}: scenario must call");
            assert_eq!(a.records, b.records, "{tier}");
            assert_eq!(a.stats, b.stats, "{tier}");
            assert_eq!(a.decode.blocks, b.decode.blocks, "{tier}");
            assert_eq!(a.decode.bytes_in, b.decode.bytes_in, "{tier}");
            assert_eq!(a.decode.records_out, b.decode.records_out, "{tier}");
            for out in [&a, &b] {
                let team = out.team.as_ref().expect("every run has a team");
                assert_eq!(team.items, [1], "{tier}: one worker, one chunk");
                assert!(out.partial.is_empty());
            }
            // An empty span is a valid request with nothing to call.
            for driver in [&seq, &one_chunk] {
                let empty = driver.run_region(&reference, &disk, 7..7).unwrap();
                assert!(empty.records.is_empty() && empty.partial.is_empty());
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn zero_threads_and_zero_chunk_width_are_invalid_input() {
        let (reference, alignments) = setup(100.0, 97);
        for (n_threads, chunk_columns, max_depth) in [
            (0, CHUNK_COLUMNS, 1_000_000),
            (2, 0, 1_000_000),
            (2, CHUNK_COLUMNS, 0),
        ] {
            let mut driver = CallDriver::openmp(2);
            driver.mode = ParallelMode::OpenMp {
                n_threads,
                schedule: Schedule::Dynamic { chunk: 1 },
                chunk_columns,
            };
            driver.config.pileup.max_depth = max_depth;
            let err = driver.run(&reference, &alignments).unwrap_err();
            assert!(
                matches!(&err, BalError::Io(e) if e.kind() == std::io::ErrorKind::InvalidInput),
                "{n_threads} thread(s), {chunk_columns} column(s), cap {max_depth}: {err}"
            );
        }
    }

    #[test]
    fn run_region_splits_cleanly() {
        let (reference, alignments) = setup(250.0, 23);
        let mut driver = CallDriver::sequential();
        driver.filter = None;
        let calls = |region| {
            driver
                .run_region(&reference, &alignments, region)
                .and_then(CallOutcome::into_call_set)
                .unwrap()
        };
        let end = reference.len() as u32;
        let whole = calls(0..end);
        let mut merged = calls(0..400);
        merged.append(calls(400..end));
        assert!(!whole.records.is_empty(), "scenario must call");
        assert_eq!(whole.records, merged.records);
        assert_eq!(whole.stats, merged.stats);
        assert_eq!(whole.decode.records_out, alignments.n_records());
    }

    #[test]
    fn a_lost_region_is_the_call_set_error() {
        let (reference, alignments) = setup(100.0, 89);
        let driver = CallDriver::sequential();
        driver.budget.cancel.cancel();
        let outcome = driver.run(&reference, &alignments).unwrap();
        assert!(!outcome.partial.is_empty());
        assert!(matches!(
            outcome.into_call_set(),
            Err(BalError::Interrupted(Interrupt::Cancelled))
        ));
    }

    #[test]
    fn trace_produces_figure2_materials() {
        let (reference, alignments) = setup(200.0, 47);
        let mut driver = CallDriver::openmp(3);
        driver.trace = true;
        let out = driver.run(&reference, &alignments).unwrap();
        let timeline = out.timeline.expect("trace requested");
        assert!(timeline.n_threads() >= 1);
        let summary = timeline.summary();
        // The trace must attribute time to iteration and probability work.
        let cats: Vec<Category> = summary.categories.iter().map(|c| c.category).collect();
        assert!(
            cats.contains(&Category::BamIter) || cats.contains(&Category::Decompress),
            "{cats:?}"
        );
        let art = timeline.render_ascii(60);
        assert!(art.contains("legend:"));
        assert!(out.team.is_some());
    }

    #[test]
    fn unfiltered_driver_returns_raw_calls() {
        let (reference, alignments) = setup(250.0, 53);
        let mut driver = CallDriver::sequential();
        driver.filter = None;
        let out = driver.run(&reference, &alignments).unwrap();
        assert!(out.filter_reports.is_empty());
        assert_eq!(out.records.len() as u64, out.stats.calls);
        assert!(out.wall > Duration::ZERO);
    }

    #[test]
    fn shared_cache_decodes_each_block_once() {
        let (reference, alignments) = setup(300.0, 61);
        let n_blocks = alignments.n_blocks() as u64;
        assert!(n_blocks > 1, "need multiple blocks for the boundary case");
        // Small chunks force most blocks to straddle chunk boundaries.
        let mut driver = CallDriver::openmp(4);
        driver.mode = ParallelMode::OpenMp {
            n_threads: 4,
            schedule: Schedule::Dynamic { chunk: 1 },
            chunk_columns: 16,
        };
        let chunked = driver.run(&reference, &alignments).unwrap();
        assert_eq!(
            chunked.decode.blocks, n_blocks,
            "cache must decode every block exactly once"
        );
        // Same calls as one reader walking the file front to back — the
        // cache must not change results.
        let seq = CallDriver::sequential()
            .run(&reference, &alignments)
            .unwrap();
        assert_eq!(chunked.records, seq.records);
        assert_eq!(chunked.stats, seq.stats);
    }

    #[test]
    fn decompress_spans_sum_to_true_decode_work() {
        // The Figure-2 reconstruction satellite: per-thread Decompress
        // spans must sum exactly to the decode work the run performed —
        // both durations accumulate from the same per-iterator deltas, so
        // this is an exact equality, not a tolerance check.
        let (reference, alignments) = setup(250.0, 67);
        let mut driver = CallDriver::openmp(3);
        driver.mode = ParallelMode::OpenMp {
            n_threads: 3,
            schedule: Schedule::Dynamic { chunk: 1 },
            chunk_columns: 32,
        };
        driver.trace = true;
        let out = driver.run(&reference, &alignments).unwrap();
        let timeline = out.timeline.expect("trace requested");
        let decompress_total: Duration = timeline
            .spans()
            .iter()
            .filter(|s| s.category == Category::Decompress)
            .map(|s| s.duration)
            .sum();
        assert_eq!(decompress_total, out.decode.decode_time);
        assert_eq!(out.decode.blocks, alignments.n_blocks() as u64);
    }

    #[test]
    fn sequential_decode_stats_cover_the_file() {
        let (reference, alignments) = setup(200.0, 71);
        let out = CallDriver::sequential()
            .run(&reference, &alignments)
            .unwrap();
        assert_eq!(out.decode.blocks, alignments.n_blocks() as u64);
        assert_eq!(out.decode.records_out, alignments.n_records());
    }

    #[test]
    fn disk_backed_runs_match_memory_in_all_tiers_and_modes() {
        // Tempfile roundtrip: the driver must produce bitwise-identical
        // calls whether the alignments come from memory or from
        // positioned reads on an open descriptor — in sequential and
        // OpenMP mode.
        let (reference, alignments) = setup(250.0, 73);
        let path =
            std::env::temp_dir().join(format!("ultravc-driver-disk-{}.bal", std::process::id()));
        alignments.write_to(&path).unwrap();
        let drivers = [CallDriver::sequential(), CallDriver::openmp(4)];
        let baselines: Vec<_> = drivers
            .iter()
            .map(|d| d.run(&reference, &alignments).unwrap())
            .collect();
        let disk = BalFile::open(&path).unwrap();
        for (driver, want) in drivers.iter().zip(&baselines) {
            let got = driver.run(&reference, &disk).unwrap();
            assert_eq!(got.source_tier, "stream");
            assert_eq!(got.records, want.records, "{:?}", driver.mode);
            assert_eq!(got.stats, want.stats, "{:?}", driver.mode);
            assert_eq!(
                got.decode.blocks, want.decode.blocks,
                "{:?}: decode-once accounting must not depend on the backing",
                driver.mode
            );
            assert_eq!(got.decode.bytes_in, want.decode.bytes_in);
            assert_eq!(got.decode.records_out, want.decode.records_out);
        }
        std::fs::remove_file(&path).ok();
    }
}
