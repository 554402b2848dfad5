//! End-to-end supervision tests: seeded fault plans injected under the
//! real ingest→call pipeline, across both byte-source backings and
//! execution modes.
//!
//! The contract under test (the crate's failure model):
//!
//! * **Failures** (an `EIO`, a dead device, a truncated file, a panic
//!   under the worker) are final for the read that hit them — nothing is
//!   retried — and are contained per chunk in every mode: the run returns a
//!   *partial* outcome itemizing the failed regions, whose completed
//!   regions are bitwise identical to the fault-free baseline. A
//!   sequential run is one chunk, so its partial outcome is the whole
//!   span and no records. A started run never returns `Err`.
//! * **Interruptions** (cancel, deadline) drain the run promptly and are
//!   reported on the outcome, never as panics or hangs.
//! * No scenario leaks a thread.

use std::path::PathBuf;
use std::sync::mpsc;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use proptest::prelude::*;
use ultravc_bamlite::{BalError, BalFile, FaultPlan};
use ultravc_core::driver::{CallDriver, CallOutcome, ParallelMode};
use ultravc_core::{Interrupt, RegionFailure, RunBudget};
use ultravc_genome::reference::{GenomeParams, ReferenceGenome};
use ultravc_parfor::Schedule;
use ultravc_readsim::dataset::DatasetSpec;
use ultravc_vcf::VcfRecord;

/// The shared scenario: one tiny ultra-deep dataset written to disk once,
/// reopened per test through whichever backing the test pins.
fn scenario() -> &'static (ReferenceGenome, PathBuf) {
    static SCENARIO: OnceLock<(ReferenceGenome, PathBuf)> = OnceLock::new();
    SCENARIO.get_or_init(|| {
        let reference = ReferenceGenome::sars_cov_2_like(GenomeParams::tiny(), 2021);
        let ds = DatasetSpec::new("fault", 300.0, 2021)
            .with_variants(8, 0.02, 0.1)
            .simulate(&reference);
        let path = std::env::temp_dir().join(format!(
            "ultravc_fault_supervisor_{}.bal",
            std::process::id()
        ));
        ds.alignments.write_to(&path).unwrap();
        (reference, path)
    })
}

/// Where a test's copy of the scenario file lives: read whole into
/// memory, or opened for positioned reads.
#[derive(Debug, Clone, Copy)]
enum Backing {
    Mem,
    Disk,
}

fn open(backing: Backing) -> BalFile {
    let (_, path) = scenario();
    match backing {
        Backing::Mem => BalFile::from_bytes(std::fs::read(path).unwrap().into()).unwrap(),
        Backing::Disk => BalFile::open(path).unwrap(),
    }
}

/// A filterless driver: identity assertions compare *calls*, and the
/// dynamic filter's thresholds are data-dependent (a partial record set
/// would shift them), so these tests bypass it.
fn driver(mode: ParallelMode) -> CallDriver {
    let mut d = CallDriver::sequential();
    d.filter = None;
    d.mode = mode;
    d
}

fn openmp(n_threads: usize) -> ParallelMode {
    ParallelMode::OpenMp {
        n_threads,
        schedule: Schedule::Dynamic { chunk: 1 },
        chunk_columns: 64,
    }
}

/// Run on a helper thread with a hang watchdog: a supervised run that
/// fails to return is itself a bug this suite exists to catch.
fn run_with_watchdog(
    driver: &CallDriver,
    bal: BalFile,
    timeout: Duration,
) -> Result<CallOutcome, BalError> {
    let (reference, _) = scenario();
    let reference = reference.clone();
    let driver = driver.clone();
    let (tx, rx) = mpsc::channel();
    let worker = std::thread::spawn(move || {
        let _ = tx.send(driver.run(&reference, &bal));
    });
    let result = rx
        .recv_timeout(timeout)
        .unwrap_or_else(|_| panic!("run did not return within {timeout:?} (hang)"));
    worker.join().expect("runner thread");
    result
}

/// Live thread count of this process (includes the test harness's own
/// threads, so assertions compare against a baseline, never an absolute).
fn live_threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .map(|d| d.count())
        .unwrap_or(usize::MAX)
}

/// Assert the run left no thread behind. Worker threads are joined
/// before `run` returns, but the OS entry can lag a beat — retry
/// until the count settles back to (or below) the baseline.
fn assert_no_leaked_threads(baseline: usize) {
    let t0 = Instant::now();
    while t0.elapsed() < Duration::from_secs(5) {
        if live_threads() <= baseline {
            return;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    panic!(
        "leaked threads: {} live vs baseline {}",
        live_threads(),
        baseline
    );
}

/// The partial-outcome identity check: completed regions' records must be
/// bitwise identical to the fault-free baseline's records in those
/// regions, and failed regions contribute nothing.
fn assert_partial_identity(baseline: &[VcfRecord], outcome: &CallOutcome) {
    let expected: Vec<VcfRecord> = baseline
        .iter()
        .filter(|r| {
            !outcome
                .partial
                .iter()
                .any(|e| (e.region.start as usize..e.region.end as usize).contains(&r.pos))
        })
        .cloned()
        .collect();
    assert_eq!(
        outcome.records, expected,
        "completed regions must match the fault-free baseline exactly"
    );
}

/// Fault-free baseline records (no filter). Sequential and OpenMP agree
/// exactly (pinned elsewhere), so one baseline serves every mode.
fn baseline_records() -> &'static Vec<VcfRecord> {
    static BASELINE: OnceLock<Vec<VcfRecord>> = OnceLock::new();
    BASELINE.get_or_init(|| {
        let d = driver(ParallelMode::Sequential);
        let out = d.run(&scenario().0, &open(Backing::Mem)).unwrap();
        assert!(!out.records.is_empty(), "scenario must produce calls");
        out.records.clone()
    })
}

/// The acceptance scenario: a seeded plan mixing random EIO and one
/// worker panic, on the OpenMP driver over the on-disk file. The run must
/// return a *partial* `CallOutcome` — each failed region itemized as the
/// contained panic or the read error that hit it, every completed region
/// bitwise identical to the fault-free baseline — with zero leaked
/// threads.
#[test]
fn mixed_faults_yield_a_partial_outcome_with_identical_survivors() {
    let baseline = baseline_records();
    let threads_before = live_threads();
    let bal = open(Backing::Disk);
    // Panic on the first read of a mid-file block: at most one chunk's
    // demand decode trips it (one-shot).
    let mid = bal.index()[bal.n_blocks() / 2].offset;
    let plan = FaultPlan::parse(&format!("seed=11,eio=0.25,panic_at={mid}")).unwrap();
    let d = driver(openmp(4));
    let out = run_with_watchdog(&d, bal.with_faults(plan), Duration::from_secs(60)).unwrap();

    assert_eq!(out.source_tier, "fault");
    assert!(!out.partial.is_empty(), "the faults must fail regions");
    assert!(
        out.partial
            .iter()
            .all(|e| matches!(e.failure, RegionFailure::Panic(_) | RegionFailure::Error(_))),
        "every failure is a contained panic or a read error: {:?}",
        out.partial
    );
    assert!(
        out.interrupt.is_none(),
        "a contained fault is not an interruption"
    );
    assert_partial_identity(baseline, &out);
    assert_no_leaked_threads(threads_before);
}

/// Whether a failure is the fault tier's injected `EIO`, rendered
/// unchanged from the read that returned it.
fn is_injected_eio(f: &RegionFailure) -> bool {
    matches!(f, RegionFailure::Error(msg) if msg.contains("os error 5"))
}

#[test]
fn an_eio_fails_its_region_and_survivors_are_exact() {
    let baseline = baseline_records();
    for backing in [Backing::Mem, Backing::Disk] {
        let plan = FaultPlan::parse("seed=7,eio=0.06").unwrap();
        let d = driver(openmp(2));
        let out = run_with_watchdog(&d, open(backing).with_faults(plan), Duration::from_secs(60))
            .unwrap_or_else(|e| panic!("{backing:?}: a started run reports failures, got {e}"));
        assert!(!out.partial.is_empty(), "{backing:?}: the EIOs did fire");
        assert!(
            out.partial.iter().all(|e| is_injected_eio(&e.failure)),
            "{backing:?}: every failed region carries the EIO: {:?}",
            out.partial
        );
        assert!(
            !out.records.is_empty(),
            "{backing:?}: regions no EIO hit still complete"
        );
        assert!(out.interrupt.is_none());
        assert_partial_identity(baseline, &out);
    }
}

/// One failure contract: the dead device's typed error is itemized per
/// failed region — the whole span sequentially, the chunks read after the
/// device died in parallel — and never returned as `Err`.
#[test]
fn a_dead_device_is_a_typed_error_sequentially_and_a_partial_report_in_parallel() {
    let baseline = baseline_records();
    let plan = FaultPlan::parse("seed=3,fail_after=2048").unwrap();
    let len = scenario().0.len() as u32;

    // Sequential: the first post-threshold read fails and takes the run's
    // one chunk with it.
    let seq = driver(ParallelMode::Sequential);
    let out = run_with_watchdog(
        &seq,
        open(Backing::Disk).with_faults(plan),
        Duration::from_secs(60),
    )
    .expect("a started run reports failures, it does not return them");
    assert_eq!(out.partial.len(), 1, "{:?}", out.partial);
    assert_eq!(out.partial[0].region, 0..len);
    assert!(
        is_injected_eio(&out.partial[0].failure),
        "a dead device fails with the EIO its first dead read returned: {:?}",
        out.partial[0]
    );
    assert!(out.records.is_empty() && out.interrupt.is_none());

    // OpenMP: whatever completed before the device died is reported and
    // identical to the baseline.
    let par = driver(openmp(3));
    let out = run_with_watchdog(
        &par,
        open(Backing::Disk).with_faults(plan),
        Duration::from_secs(60),
    )
    .expect("a started run reports failures, it does not return them");
    assert!(!out.partial.is_empty(), "the dead device must fail regions");
    assert!(
        out.partial.iter().all(|e| is_injected_eio(&e.failure)),
        "each failed region carries the EIO of its first dead read: {:?}",
        out.partial
    );
    assert_partial_identity(baseline, &out);
}

/// A panic under a sequential run's reader is contained like any other
/// chunk's: itemized, not unwound through the caller.
#[test]
fn a_sequential_panic_is_contained_as_a_failed_region() {
    let bal = open(Backing::Disk);
    let mid = bal.index()[bal.n_blocks() / 2].offset;
    let plan = FaultPlan::parse(&format!("seed=13,panic_at={mid}")).unwrap();
    let seq = driver(ParallelMode::Sequential);
    let out = run_with_watchdog(&seq, bal.with_faults(plan), Duration::from_secs(60)).unwrap();
    assert_eq!(out.partial.len(), 1, "{:?}", out.partial);
    assert_eq!(out.partial[0].region, 0..scenario().0.len() as u32);
    assert!(matches!(out.partial[0].failure, RegionFailure::Panic(_)));
    assert!(out.records.is_empty());
}

#[test]
fn cancellation_from_another_thread_returns_promptly_with_completed_regions() {
    let baseline = baseline_records();
    let threads_before = live_threads();
    // 20ms of injected latency per read makes the clean run take seconds
    // — long enough that a 50ms cancel lands mid-run, short enough that a
    // prompt drain is provable.
    let plan = FaultPlan::parse("seed=5,latency_us=20000").unwrap();
    let mut d = driver(openmp(2));
    let budget = RunBudget::unbounded();
    let token = budget.cancel.clone();
    d.budget = budget;

    let canceller = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(50));
        token.cancel();
        Instant::now()
    });
    let out = run_with_watchdog(
        &d,
        open(Backing::Disk).with_faults(plan),
        Duration::from_secs(60),
    )
    .expect("a cancelled run reports partially, it does not error");
    let returned = Instant::now();
    let cancelled_at = canceller.join().unwrap();

    assert_eq!(out.interrupt, Some(Interrupt::Cancelled));
    assert!(
        !out.partial.is_empty(),
        "the cancelled tail must be itemized"
    );
    assert!(out
        .partial
        .iter()
        .all(|e| e.failure == RegionFailure::Cancelled(Interrupt::Cancelled)));
    // Promptness: the drain is bounded by in-flight reads (injected
    // latency), far under the clean run's span.
    let drain = returned.saturating_duration_since(cancelled_at);
    assert!(
        drain < Duration::from_secs(2),
        "cancel → return took {drain:?}"
    );
    assert_partial_identity(baseline, &out);
    assert_no_leaked_threads(threads_before);
}

#[test]
fn an_expired_deadline_interrupts_the_run() {
    let baseline = baseline_records();
    let plan = FaultPlan::parse("seed=9,latency_us=20000").unwrap();
    let mut d = driver(openmp(2));
    d.budget = RunBudget::with_deadline(Duration::from_millis(50));
    let t0 = Instant::now();
    let out = run_with_watchdog(
        &d,
        open(Backing::Disk).with_faults(plan),
        Duration::from_secs(60),
    )
    .expect("a deadline expiry reports partially, it does not error");
    assert_eq!(out.interrupt, Some(Interrupt::DeadlineExpired));
    assert!(!out.partial.is_empty());
    assert!(
        t0.elapsed() < Duration::from_secs(5),
        "expiry must not wait out the full fault schedule"
    );
    assert_partial_identity(baseline, &out);
}

/// The concurrent-writer case on a real file, no fault plan: the file is
/// cut to half its length after `open`. Reads past the new end fail as
/// typed errors the driver contains per region; nothing in the process
/// is signalled.
#[test]
fn a_file_shrunk_after_open_is_a_failed_region_not_a_signal() {
    let baseline = baseline_records();
    let threads_before = live_threads();
    let (_, shared) = scenario();
    let path = shared.with_extension("shrunk.bal");
    std::fs::copy(shared, &path).unwrap();
    let bal = BalFile::open(&path).unwrap();
    let len = std::fs::metadata(&path).unwrap().len();
    std::fs::OpenOptions::new()
        .write(true)
        .open(&path)
        .unwrap()
        .set_len(len / 2)
        .unwrap();

    let out = run_with_watchdog(&driver(openmp(2)), bal, Duration::from_secs(60))
        .expect("a started run reports failures, it does not return them");
    std::fs::remove_file(&path).ok();
    assert!(!out.partial.is_empty(), "blocks past the cut must fail");
    for e in &out.partial {
        assert!(
            matches!(&e.failure, RegionFailure::Error(msg) if msg.contains("truncated")),
            "every failure names the truncation: {e:?}"
        );
    }
    assert!(
        !out.records.is_empty(),
        "regions before the cut still complete"
    );
    assert!(out.interrupt.is_none());
    assert_partial_identity(baseline, &out);
    assert_no_leaked_threads(threads_before);
}

/// The scenario file with block `block`'s index `max_end` lowered to one
/// past its `min_pos`: the block's records now reach past the extent
/// region planning selects blocks by.
fn lowered_extent_file(block: usize) -> BalFile {
    use ultravc_bamlite::codec::{get_varint, put_varint};
    let bytes = std::fs::read(&scenario().1).unwrap();
    let n = bytes.len();
    let index_offset = u64::from_le_bytes(bytes[n - 12..n - 4].try_into().unwrap()) as usize;
    let mut index = &bytes[index_offset + 4..];
    let mut out = bytes[..index_offset + 4].to_vec();
    let count = get_varint(&mut index).unwrap();
    put_varint(&mut out, count);
    for b in 0..count as usize {
        let mut entry: Vec<u64> = (0..5).map(|_| get_varint(&mut index).unwrap()).collect();
        if b == block {
            entry[3] = entry[2] + 1; // max_end := min_pos + 1
        }
        for field in entry {
            put_varint(&mut out, field);
        }
    }
    // Dictionary section and trailer; the index offset is unchanged.
    out.extend_from_slice(index);
    BalFile::from_bytes(out.into()).unwrap()
}

/// A record outside its block's index extent fails the block in every
/// mode — the whole span sequentially, the chunk that decodes the block in
/// parallel — instead of being stacked by one partition and dropped by
/// another.
#[test]
fn a_record_outside_its_index_extent_fails_the_run_in_both_modes() {
    let bal = lowered_extent_file(1);
    let min_pos = bal.index()[1].min_pos;
    let names_extent =
        |f: &RegionFailure| matches!(f, RegionFailure::Error(msg) if msg.contains("index extent"));
    let seq = run_with_watchdog(
        &driver(ParallelMode::Sequential),
        bal.clone(),
        Duration::from_secs(60),
    )
    .expect("a started run reports failures, it does not return them");
    assert_eq!(seq.partial.len(), 1, "{:?}", seq.partial);
    assert_eq!(seq.partial[0].region, 0..scenario().0.len() as u32);
    assert!(names_extent(&seq.partial[0].failure), "{:?}", seq.partial);
    assert!(seq.records.is_empty());

    let par = run_with_watchdog(&driver(openmp(2)), bal, Duration::from_secs(60))
        .expect("a started run reports failures, it does not return them");
    assert!(
        par.partial.iter().any(|e| e.region.contains(&min_pos)),
        "the chunk that decodes the block fails: {:?}",
        par.partial
    );
    assert!(par.partial.iter().all(|e| names_extent(&e.failure)));
}

/// Strategy for a random (but printable and replayable) fault plan.
/// Bit-flips are excluded: silent corruption deliberately breaks the
/// bitwise-identity contract the other classes must uphold (its own
/// behaviour is pinned in `ultravc-bamlite`'s fault tests).
fn plan_strategy() -> impl Strategy<Value = FaultPlan> {
    (
        any::<u64>(),
        prop::sample::select(vec![0.0, 0.04, 0.1]),
        prop::sample::select(vec![None, Some(1u64 << 11), Some(1 << 14)]),
        prop::sample::select(vec![None, Some(1usize << 12)]),
    )
        .prop_map(|(seed, eio, fail_after, truncate_at)| FaultPlan {
            seed,
            eio,
            fail_after,
            truncate_at,
            ..FaultPlan::default()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The robustness sweep: random fault plans across both backings and
    /// execution modes either (a) complete bitwise identical to the
    /// fault-free baseline or (b) return a partial report whose completed
    /// regions are bitwise identical — and never fail a started run with
    /// `Err`, panic, hang or leak a thread.
    #[test]
    fn random_fault_plans_never_panic_hang_leak_or_corrupt(
        plan in plan_strategy(),
        backing in prop::sample::select(vec![Backing::Mem, Backing::Disk]),
        parallel in any::<bool>(),
    ) {
        let baseline = baseline_records();
        let threads_before = live_threads();
        let mode = if parallel { openmp(3) } else { ParallelMode::Sequential };
        let d = driver(mode);
        // A panic would have crossed the watchdog thread and failed the
        // test; a hang trips the watchdog itself.
        let out = run_with_watchdog(
            &d,
            open(backing).with_faults(plan),
            Duration::from_secs(60),
        );
        prop_assert!(out.is_ok(), "a started run must not fail with Err: {:?}", out.err());
        let out = out.unwrap();
        // Complete or partial — either way the surviving regions are
        // exactly the baseline's.
        assert_partial_identity(baseline, &out);
        if out.partial.is_empty() {
            prop_assert_eq!(&out.records, baseline);
        }
        assert_no_leaked_threads(threads_before);
    }
}
