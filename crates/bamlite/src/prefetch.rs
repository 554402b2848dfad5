//! Scheduled I/O for disk-backed BAL ingest: turn the block index into a
//! per-run I/O plan, then overlap fetching with decoding.
//!
//! This is the third layer of the ingest stack — **format**
//! ([`crate::file`]) → **byte source** ([`crate::io`]) → **scheduled
//! I/O** (here). PR 4 moved ingest on-disk but left workers issuing
//! cold, demand-paged reads: the mmap tier faulted every payload page on
//! first touch and the streaming tier paid a synchronous `pread` per
//! block, exactly the access pattern LoFreq's per-process script variant
//! suffered from (PAPER.md §II.B). The fix is the standard htslib-shaped
//! one: *plan the block schedule from the index, then overlap I/O with
//! decode.*
//!
//! # The plan
//!
//! [`IoPlan::for_regions`] takes the driver's region partition and
//! computes, per region, its **block window** — the region's overlapping
//! blocks, so a worker only ever touches its own blocks plus the
//! boundary blocks it shares with neighbours ([`BlockWindow`]). The plan
//! also derives:
//!
//! * a **schedule**: every planned block exactly once, in first-use
//!   order — what the read-ahead walks and what
//!   [`SharedBlockCache::for_plan`] sizes its expectations from;
//! * coalesced **byte runs**: adjacent planned block payloads merged
//!   into maximal contiguous file ranges, the unit `madvise` hints are
//!   issued at. Runs are derived from the index's stored block lengths,
//!   so they are **compressed** extents: the plan covers a fraction of
//!   the decoded bytes, and every fetch-vs-decode overlap win is
//!   multiplied by the columnar format's size ratio for free.
//!
//! # The two disk tiers
//!
//! * **mmap** — [`IoPlan::advise`] hints the kernel through the new
//!   advice API on the `memmap2` shim: `MADV_SEQUENTIAL` across the
//!   mapping (aggressive readahead, early page drop) plus
//!   `MADV_WILLNEED` on each planned byte run, so the kernel starts
//!   paging payloads in before the first worker touches them. Hints are
//!   a no-op on the `Mem` tier and on the shim's buffered fallback.
//! * **stream** — [`IoPlan::spawn_readahead`] runs a bounded background
//!   thread that walks the schedule and warms the run's
//!   [`SharedBlockCache`] ([`SharedBlockCache::prefetch_block`]) ahead
//!   of the workers: the payload `pread` *and* the arena decode happen
//!   off the calling threads, which then consume cache hits.
//!
//! # Decode-once and accounting
//!
//! Read-ahead preserves both cache invariants. A slot decodes at most
//! once no matter who gets there first (`prefetch_block` only fills
//! `Empty` slots, and never counts against a window's expected
//! requests); and every decode is owned by exactly one party — the
//! prefetcher returns its [`DecodeStats`] from
//! [`ReadaheadHandle::finish`] for the driver to fold into the run
//! total, while workers consuming prefetched blocks record cache hits,
//! not decodes. Summed [`DecodeStats`] therefore stay equal to the true
//! per-run decode work with prefetch on or off.
//!
//! The thread is **bounded**, and the bound is exact: it tracks which of
//! the arenas it created have received a consumer request yet
//! ([`SharedBlockCache::block_requested`]) and never holds more than
//! `ahead` unrequested ones — so the residency the read-ahead adds stays
//! ≤ `ahead` blocks even when a dynamic schedule makes workers consume
//! blocks far out of schedule order.

use crate::batch::SharedBlockCache;
use crate::file::{BalFile, DecodeStats};
use crate::io::{Advice, ByteSource};
use crate::BalError;
use std::ops::Range;
use std::time::Duration;
use ultravc_sync::atomic::{AtomicBool, Ordering};
use ultravc_sync::Arc;

/// Schedule-blocks of read-ahead depth `--prefetch on` / `ULTRAVC_PREFETCH=on`
/// resolve to. Eight default-capacity blocks is a few MB of arenas —
/// enough to keep one prefetch thread ahead of several workers without
/// meaningfully moving peak residency.
pub const DEFAULT_PREFETCH_AHEAD: usize = 8;

/// Prefetch selection, as a CLI flag or driver field states it.
///
/// Precedence mirrors [`crate::io::SourceTier`]: an explicit mode always
/// wins and never reads the environment; only `Auto` consults (and
/// strictly validates) `ULTRAVC_PREFETCH`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PrefetchMode {
    /// Resolve against `ULTRAVC_PREFETCH` (`on`/`off`/`N`); off when the
    /// variable is unset.
    #[default]
    Auto,
    /// No hints, no read-ahead.
    Off,
    /// Read ahead with the default depth ([`DEFAULT_PREFETCH_AHEAD`]).
    On,
    /// Read ahead with an explicit depth in blocks (0 means off).
    Ahead(usize),
}

impl PrefetchMode {
    /// Parse a `--prefetch` / `ULTRAVC_PREFETCH` value: `on`, `off`, or
    /// a block count. Unrecognized values are errors — a typo must not
    /// silently disable the mode a CI leg believes it is exercising.
    pub fn parse(v: &str) -> Result<PrefetchMode, BalError> {
        match v {
            "on" => Ok(PrefetchMode::On),
            "off" => Ok(PrefetchMode::Off),
            n => n.parse::<usize>().map(PrefetchMode::Ahead).map_err(|_| {
                BalError::Io(std::io::Error::new(
                    std::io::ErrorKind::InvalidInput,
                    format!("unrecognized prefetch mode {v:?} (want on|off|N)"),
                ))
            }),
        }
    }

    /// The mode `ULTRAVC_PREFETCH` pins, if any. Consulted **only** when
    /// resolving `Auto`.
    fn env_pin() -> Result<Option<PrefetchMode>, BalError> {
        match std::env::var("ULTRAVC_PREFETCH") {
            Err(_) => Ok(None),
            Ok(v) if v.is_empty() => Ok(None),
            Ok(v) => PrefetchMode::parse(&v).map(Some),
        }
    }

    /// Resolve to a concrete decision. Explicit modes never touch the
    /// environment; `Auto` reads `ULTRAVC_PREFETCH` (strictly — an
    /// invalid value is an error, not a silent `Off`) and defaults to
    /// off when the variable is unset.
    pub fn resolved(self) -> Result<ResolvedPrefetch, BalError> {
        let concrete = |mode| match mode {
            PrefetchMode::Off | PrefetchMode::Ahead(0) => ResolvedPrefetch::Off,
            PrefetchMode::On => ResolvedPrefetch::Ahead(DEFAULT_PREFETCH_AHEAD),
            PrefetchMode::Ahead(n) => ResolvedPrefetch::Ahead(n),
            PrefetchMode::Auto => unreachable!("resolved before reaching concrete"),
        };
        match self {
            PrefetchMode::Auto => match PrefetchMode::env_pin()? {
                Some(PrefetchMode::Auto) => unreachable!("parse never yields Auto"),
                Some(mode) => Ok(concrete(mode)),
                None => Ok(ResolvedPrefetch::Off),
            },
            mode => Ok(concrete(mode)),
        }
    }
}

/// A [`PrefetchMode`] with `Auto` (and `On`) resolved away.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResolvedPrefetch {
    /// No hints, no read-ahead.
    Off,
    /// Hint + read ahead, holding at most this many prefetched arenas
    /// that no consumer has requested yet (always ≥ 1).
    Ahead(usize),
}

impl ResolvedPrefetch {
    /// Whether any prefetching is enabled.
    pub fn is_on(&self) -> bool {
        matches!(self, ResolvedPrefetch::Ahead(_))
    }
}

impl std::fmt::Display for ResolvedPrefetch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ResolvedPrefetch::Off => write!(f, "off"),
            ResolvedPrefetch::Ahead(n) => write!(f, "ahead={n}"),
        }
    }
}

/// One region's slice of the plan: the blocks whose genomic extent
/// overlaps it — its own blocks plus the boundary blocks it shares with
/// neighbouring regions, and nothing else.
#[derive(Debug, Clone)]
pub struct BlockWindow {
    region: Range<u32>,
    blocks: Arc<[usize]>,
}

impl BlockWindow {
    /// The genomic region this window serves.
    pub fn region(&self) -> Range<u32> {
        self.region.clone()
    }

    /// The window's block ids, ascending.
    pub fn blocks(&self) -> &[usize] {
        &self.blocks
    }

    /// A shared handle to the block list (what a pileup iterator keeps).
    pub fn blocks_shared(&self) -> Arc<[usize]> {
        Arc::clone(&self.blocks)
    }
}

/// A per-run I/O plan over one [`BalFile`]: per-region block windows, a
/// distinct-block schedule in first-use order, and the coalesced payload
/// byte runs advice is issued over. See the module docs for how the
/// drivers use it.
#[derive(Debug, Clone)]
pub struct IoPlan {
    windows: Vec<BlockWindow>,
    schedule: Arc<[usize]>,
    byte_runs: Vec<Range<usize>>,
    planned_bytes: u64,
}

impl IoPlan {
    /// Plan the given region partition against `file`'s index.
    pub fn for_regions(file: &BalFile, regions: &[Range<u32>]) -> IoPlan {
        let windows: Vec<BlockWindow> = regions
            .iter()
            .map(|r| BlockWindow {
                region: r.clone(),
                blocks: file.blocks_overlapping(r.start, r.end).into(),
            })
            .collect();
        let mut seen = vec![false; file.n_blocks()];
        let mut schedule = Vec::new();
        for w in &windows {
            for &b in w.blocks() {
                if !seen[b] {
                    seen[b] = true;
                    schedule.push(b);
                }
            }
        }
        // Coalesce the scheduled blocks' payload ranges into maximal
        // contiguous runs (blocks are laid out in file order, but the
        // schedule's first-use order need not be — sort by offset first).
        let index = file.index();
        let mut ranges: Vec<Range<usize>> = schedule
            .iter()
            .map(|&b| index[b].offset..index[b].offset + index[b].len)
            .collect();
        ranges.sort_by_key(|r| r.start);
        let mut byte_runs: Vec<Range<usize>> = Vec::new();
        let mut planned_bytes = 0u64;
        for r in ranges {
            planned_bytes += (r.end - r.start) as u64;
            match byte_runs.last_mut() {
                Some(last) if r.start <= last.end => last.end = last.end.max(r.end),
                _ => byte_runs.push(r),
            }
        }
        IoPlan {
            windows,
            schedule: schedule.into(),
            byte_runs,
            planned_bytes,
        }
    }

    /// The per-region block windows, in partition order.
    pub fn windows(&self) -> &[BlockWindow] {
        &self.windows
    }

    /// The window of region `i` (panics out of range, like indexing).
    pub fn window(&self, i: usize) -> &BlockWindow {
        &self.windows[i]
    }

    /// Every planned block exactly once, in first-use order.
    pub fn schedule(&self) -> &[usize] {
        &self.schedule
    }

    /// Total payload bytes the plan covers (before coalescing).
    pub fn planned_bytes(&self) -> u64 {
        self.planned_bytes
    }

    /// The coalesced payload byte runs advice is issued over.
    pub fn byte_runs(&self) -> &[Range<usize>] {
        &self.byte_runs
    }

    /// Issue access-pattern hints for this plan against `file`'s backing:
    /// `Sequential` across the whole source, then `WillNeed` on each
    /// planned byte run. Returns whether any hint was actually applied —
    /// `false` on the `Mem` and `Stream` tiers (use
    /// [`IoPlan::spawn_readahead`] for the latter).
    pub fn advise(&self, file: &BalFile) -> Result<bool, BalError> {
        let source: &ByteSource = file.source();
        let mut applied = source.advise(Advice::Sequential, 0, source.len())?;
        for run in &self.byte_runs {
            applied |= source.advise(Advice::WillNeed, run.start, run.end - run.start)?;
        }
        Ok(applied)
    }

    /// Start the bounded background read-ahead over this plan's schedule,
    /// warming `cache` while holding at most `ahead` arenas no consumer
    /// has requested yet (any cache flavour tracks the requests). The
    /// thread exits on its own once the schedule is exhausted; call
    /// [`ReadaheadHandle::finish`] to stop it early (or at run end) and
    /// collect the decode work it performed.
    pub fn spawn_readahead(&self, cache: Arc<SharedBlockCache>, ahead: usize) -> ReadaheadHandle {
        let ahead = ahead.max(1);
        let stop = Arc::new(AtomicBool::new(false));
        let schedule = Arc::clone(&self.schedule);
        let thread = {
            let stop = Arc::clone(&stop);
            let cache = Arc::clone(&cache);
            ultravc_sync::thread::spawn(move || readahead_loop(&cache, &schedule, ahead, &stop))
        };
        ReadaheadHandle {
            stop,
            cache,
            thread: Some(thread),
        }
    }
}

/// The read-ahead body: walk the schedule, keeping the number of arenas
/// this thread created that no consumer has requested yet at most
/// `ahead` — the residency bound is exact, not a schedule-position
/// heuristic, so it holds even when a dynamic schedule makes workers
/// consume blocks far out of schedule order. Decode failures are
/// recorded in the slot (the requesting worker surfaces them) and do not
/// stop the walk — later blocks may be intact, and verdict parity with
/// the non-prefetch path requires each block to be judged on its own
/// bytes.
fn readahead_loop(
    cache: &SharedBlockCache,
    schedule: &[usize],
    ahead: usize,
    stop: &AtomicBool,
) -> DecodeStats {
    let mut stats = DecodeStats::default();
    // Blocks this thread decoded that are still waiting for their first
    // consumer request (length ≤ `ahead` by construction).
    let mut outstanding: Vec<usize> = Vec::with_capacity(ahead.min(schedule.len()));
    for &block in schedule {
        loop {
            outstanding.retain(|&b| !cache.block_requested(b));
            if outstanding.len() < ahead {
                break;
            }
            // Snapshot both pacing counters *before* the stop check: a
            // stopper stores the flag and then kicks, so either the flag
            // is already visible here or the kick lands after this
            // snapshot and ends the wait below. No ordering loses it.
            let (progress, kicks) = cache.pacer_view();
            if stop.load(Ordering::Relaxed) {
                return stats;
            }
            // Sleep until the consumer frontier moves, a stop kick
            // arrives, or a timeout (so a stalled run stays stoppable),
            // then re-drain.
            cache.wait_for_pacing(progress.requested, kicks, Duration::from_millis(2));
        }
        if stop.load(Ordering::Relaxed) {
            return stats;
        }
        match cache.prefetch_block(block) {
            Ok(Some(performed)) => {
                stats.merge(&performed);
                outstanding.push(block);
            }
            Ok(None) => {}
            // The run was cancelled or ran out its deadline: every
            // remaining prefetch would be interrupted too, so drain now
            // instead of spinning through the rest of the schedule. Real
            // decode failures keep walking — later blocks may be intact,
            // and verdict parity requires judging each on its own bytes.
            Err(BalError::Interrupted(_)) => return stats,
            Err(_) => {}
        }
    }
    stats
}

/// What a finished read-ahead thread reports: the decode work it
/// performed, and whether it died to a panic — the driver's degradation
/// signal. A panicked prefetcher loses its (partial) stats, but loses no
/// *data*: every slot it warmed is `Ready`, every slot it didn't stays
/// `Empty` for workers to demand-read, bitwise identically.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReadaheadReport {
    /// Decode work the thread performed and reported back. Zero when the
    /// thread panicked (its accumulator died with it); cache-level
    /// counters ([`SharedBlockCache::decoded_blocks`]) remain exact.
    pub stats: DecodeStats,
    /// Whether the thread terminated by panicking. The run degrades to
    /// demand reads; it does not fail.
    pub panicked: bool,
}

/// Handle to a running read-ahead thread. Dropping it stops and joins
/// the thread; [`ReadaheadHandle::finish`] does the same but hands back
/// a [`ReadaheadReport`] — the decode work the thread performed (which
/// the driver must fold into the run total to keep decode accounting
/// exact) plus whether it died to a panic (the driver's cue to record
/// prefetch degradation).
#[derive(Debug)]
pub struct ReadaheadHandle {
    stop: Arc<AtomicBool>,
    cache: Arc<SharedBlockCache>,
    thread: Option<ultravc_sync::thread::JoinHandle<DecodeStats>>,
}

impl ReadaheadHandle {
    /// Stop the thread (the kick wakes it out of any pacing wait
    /// immediately) and report the decode work it performed. A panicked
    /// read-ahead thread is *contained* here — reported, never re-raised
    /// — because the run can always fall back to demand reads.
    pub fn finish(mut self) -> ReadaheadReport {
        self.stop.store(true, Ordering::Relaxed);
        self.cache.kick_progress();
        match self.thread.take().map(|t| t.join()) {
            Some(Ok(stats)) => ReadaheadReport {
                stats,
                panicked: false,
            },
            Some(Err(_)) => ReadaheadReport {
                stats: DecodeStats::default(),
                panicked: true,
            },
            None => ReadaheadReport::default(),
        }
    }
}

impl Drop for ReadaheadHandle {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        self.cache.kick_progress();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::file::BalWriter;
    use crate::record::{Flags, Record};
    use ultravc_genome::phred::Phred;
    use ultravc_genome::sequence::Seq;

    fn sample_file(n: usize, block_cap: usize) -> BalFile {
        let mut w = BalWriter::with_block_capacity(block_cap);
        for i in 0..n as u64 {
            let seq = Seq::from_ascii(b"ACGTACGTACGTACGT").unwrap();
            let quals: Vec<Phred> = (0..16)
                .map(|j| Phred::new(20 + ((i as usize + j) % 20) as u8))
                .collect();
            let rec = Record::full_match(i, (i * 3) as u32, 60, Flags::none(), seq, quals).unwrap();
            w.push(rec).unwrap();
        }
        w.finish()
    }

    #[test]
    fn mode_parsing_and_resolution() {
        assert_eq!(PrefetchMode::parse("on").unwrap(), PrefetchMode::On);
        assert_eq!(PrefetchMode::parse("off").unwrap(), PrefetchMode::Off);
        assert_eq!(PrefetchMode::parse("3").unwrap(), PrefetchMode::Ahead(3));
        assert_eq!(PrefetchMode::parse("0").unwrap(), PrefetchMode::Ahead(0));
        for bad in ["On", "yes", "", "-1", "3 "] {
            assert!(PrefetchMode::parse(bad).is_err(), "{bad:?}");
        }
        // Explicit modes resolve without touching the environment.
        assert_eq!(PrefetchMode::Off.resolved().unwrap(), ResolvedPrefetch::Off);
        assert_eq!(
            PrefetchMode::On.resolved().unwrap(),
            ResolvedPrefetch::Ahead(DEFAULT_PREFETCH_AHEAD)
        );
        assert_eq!(
            PrefetchMode::Ahead(5).resolved().unwrap(),
            ResolvedPrefetch::Ahead(5)
        );
        assert_eq!(
            PrefetchMode::Ahead(0).resolved().unwrap(),
            ResolvedPrefetch::Off,
            "depth 0 normalizes to off"
        );
        // Auto resolves to something concrete (env-dependent but valid
        // under every CI pin).
        assert!(matches!(
            PrefetchMode::Auto.resolved(),
            Ok(ResolvedPrefetch::Off | ResolvedPrefetch::Ahead(_))
        ));
        assert_eq!(ResolvedPrefetch::Off.to_string(), "off");
        assert_eq!(ResolvedPrefetch::Ahead(8).to_string(), "ahead=8");
        assert!(ResolvedPrefetch::Ahead(8).is_on());
        assert!(!ResolvedPrefetch::Off.is_on());
    }

    #[test]
    fn plan_windows_match_index_overlap_and_schedule_is_distinct() {
        let file = sample_file(100, 8);
        let regions = vec![0u32..60, 60..150, 150..400];
        let plan = IoPlan::for_regions(&file, &regions);
        assert_eq!(plan.windows().len(), regions.len());
        for (w, r) in plan.windows().iter().zip(&regions) {
            assert_eq!(w.region(), r.clone());
            assert_eq!(w.blocks(), file.blocks_overlapping(r.start, r.end));
        }
        // Schedule: every planned block exactly once, first-use order.
        let mut sorted = plan.schedule().to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), plan.schedule().len(), "no duplicates");
        assert_eq!(
            sorted,
            file.blocks_overlapping(0, 400),
            "full partition plans every overlapping block"
        );
        // Byte runs tile the planned payloads: disjoint, ascending,
        // summing to at least the planned bytes (coalescing can only
        // merge, never drop).
        let runs = plan.byte_runs();
        assert!(!runs.is_empty());
        for w in runs.windows(2) {
            assert!(w[0].end <= w[1].start, "ordered");
        }
        let run_bytes: u64 = runs.iter().map(|r| (r.end - r.start) as u64).sum();
        assert_eq!(
            run_bytes,
            plan.planned_bytes(),
            "adjacent blocks coalesce without gaps or overlap"
        );
        // Contiguous blocks of one file coalesce into a single run.
        assert_eq!(runs.len(), 1);
    }

    #[test]
    fn plan_for_partial_partition_covers_only_its_blocks() {
        let file = sample_file(200, 4);
        let plan = IoPlan::for_regions(&file, std::slice::from_ref(&(90u32..120)));
        assert_eq!(plan.schedule(), file.blocks_overlapping(90, 120));
        assert!(plan.schedule().len() < file.n_blocks());
        assert!(plan.planned_bytes() > 0);
        let empty = IoPlan::for_regions(&file, &[]);
        assert!(empty.schedule().is_empty());
        assert!(empty.byte_runs().is_empty());
        assert_eq!(empty.planned_bytes(), 0);
    }

    #[test]
    fn advise_applies_on_mmap_only() {
        let file = sample_file(120, 8);
        let path = std::env::temp_dir().join(format!(
            "ultravc-prefetch-advise-{}.bal",
            std::process::id()
        ));
        file.write_to(&path).unwrap();
        let regions = vec![0u32..200, 200..400];
        let mem_plan = IoPlan::for_regions(&file, &regions);
        assert!(!mem_plan.advise(&file).unwrap(), "mem tier: no hints");
        for (tier, expect) in [
            (
                crate::io::SourceTier::Mmap,
                memmap2::Mmap::advice_effective(),
            ),
            (crate::io::SourceTier::Stream, false),
        ] {
            let disk = BalFile::open_with(&path, tier).unwrap();
            let plan = IoPlan::for_regions(&disk, &regions);
            assert_eq!(plan.advise(&disk).unwrap(), expect, "{tier:?}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn readahead_decodes_each_block_once_and_reports_stats() {
        let file = sample_file(300, 8);
        let regions = vec![0u32..300, 300..600, 600..1000];
        let plan = IoPlan::for_regions(&file, &regions);
        let cache = Arc::new(SharedBlockCache::for_plan(file.clone(), &plan));
        let handle = plan.spawn_readahead(Arc::clone(&cache), 4);
        // Let the read-ahead win at least one block before the "workers"
        // start, so the prefetcher-owned-stats assertion is deterministic.
        let t0 = std::time::Instant::now();
        while cache.decoded_blocks() == 0 && t0.elapsed() < Duration::from_secs(5) {
            std::thread::yield_now();
        }
        // Consume the windows like workers would; every decode was done
        // by exactly one party (prefetcher or worker), never both.
        let mut worker_stats = DecodeStats::default();
        for w in plan.windows() {
            for &b in w.blocks() {
                let (batch, performed) = cache.get(b).unwrap();
                assert!(!batch.is_empty());
                if let Some(s) = performed {
                    worker_stats.merge(&s);
                }
            }
        }
        let report = handle.finish();
        assert!(!report.panicked);
        let prefetch_stats = report.stats;
        assert_eq!(
            prefetch_stats.blocks + worker_stats.blocks,
            file.n_blocks() as u64,
            "decode-once across prefetcher + workers"
        );
        assert_eq!(cache.decoded_blocks(), file.n_blocks());
        assert!(
            prefetch_stats.blocks > 0,
            "an unconsumed cache start must let the prefetcher win some blocks"
        );
        assert_eq!(
            prefetch_stats.records_out + worker_stats.records_out,
            file.n_records()
        );
    }

    #[test]
    fn readahead_stays_within_its_bound_until_consumption() {
        let file = sample_file(400, 8);
        let plan = IoPlan::for_regions(&file, std::slice::from_ref(&(0u32..2_000)));
        assert!(plan.schedule().len() > 6);
        let cache = Arc::new(SharedBlockCache::for_plan(file.clone(), &plan));
        let handle = plan.spawn_readahead(Arc::clone(&cache), 2);
        // Give the thread ample time: with nothing consumed, it may warm
        // at most `ahead` blocks.
        std::thread::sleep(Duration::from_millis(50));
        assert!(
            cache.decoded_blocks() <= 2,
            "unconsumed cache: read-ahead must hold at its bound (got {})",
            cache.decoded_blocks()
        );
        let report = handle.finish();
        assert_eq!(report.stats.blocks as usize, cache.decoded_blocks());
    }

    #[test]
    fn finishing_early_stops_the_thread_quickly() {
        let file = sample_file(200, 4);
        let plan = IoPlan::for_regions(&file, std::slice::from_ref(&(0u32..1_000)));
        let cache = Arc::new(SharedBlockCache::for_plan(file.clone(), &plan));
        let handle = plan.spawn_readahead(Arc::clone(&cache), 1);
        let t0 = std::time::Instant::now();
        let _ = handle.finish();
        assert!(
            t0.elapsed() < Duration::from_secs(2),
            "finish() must not hang on an unconsumed schedule"
        );
        // Dropping a handle (early error path) also joins cleanly.
        let dropped = plan.spawn_readahead(Arc::clone(&cache), 1);
        drop(dropped);
    }

    #[test]
    fn panicked_readahead_degrades_to_demand_reads() {
        let file = sample_file(200, 8);
        let path =
            std::env::temp_dir().join(format!("ultravc-prefetch-panic-{}.bal", std::process::id()));
        file.write_to(&path).unwrap();
        // A fault plan whose one-shot panic fires on the first payload
        // read: the prefetcher walks the schedule from block 0, so it is
        // deterministically the thread that trips it (no workers yet).
        let first_payload = file.index()[0].offset;
        let faulted = BalFile::open_with(&path, crate::io::SourceTier::Stream)
            .unwrap()
            .with_faults(crate::FaultPlan::parse(&format!("panic_at={first_payload}")).unwrap());
        let plan = IoPlan::for_regions(&faulted, std::slice::from_ref(&(0u32..1_000)));
        let cache = Arc::new(SharedBlockCache::for_plan(faulted.clone(), &plan));
        let handle = plan.spawn_readahead(Arc::clone(&cache), 4);
        // Let the thread reach its first payload read (and die to the
        // injected panic) before collecting it — finish() immediately
        // after spawn can win the race and stop a thread that never read.
        let t0 = std::time::Instant::now();
        while handle.thread.as_ref().is_some_and(|t| !t.is_finished())
            && t0.elapsed() < Duration::from_secs(5)
        {
            std::thread::yield_now();
        }
        let report = handle.finish();
        assert!(
            report.panicked,
            "the injected panic must be contained, not re-raised"
        );
        // Degradation: workers demand-read every block themselves (the
        // panic trigger disarmed with the prefetcher), bitwise identical
        // to the fault-free file.
        let clean = SharedBlockCache::new(file.clone());
        for w in plan.windows() {
            for &b in w.blocks() {
                let (batch, _) = cache.get(b).unwrap();
                assert_eq!(*batch, *clean.get(b).unwrap().0, "block {b}");
            }
        }
        std::fs::remove_file(&path).ok();
    }
}
