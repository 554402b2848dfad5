//! The streaming pileup iterator.
//!
//! Records arrive position-sorted from a [`BalReader`] (blocks decoded
//! lazily); a ring of in-flight columns receives bases from every read that
//! overlaps them; a column is emitted as soon as no unread record can still
//! touch it (i.e. the next record starts past it). Peak memory is
//! `O(read_len × depth_cap)` packed entries, independent of file size.
//!
//! # Ingest paths
//!
//! Two sources can feed the ring, both producing **bitwise-identical**
//! columns (same entries, same push order, same depth-cap decisions):
//!
//! * **Batch** ([`pileup_region`]) — blocks decode into a reusable
//!   [`RecordBatch`] arena via [`BalReader::decode_batch`]; bases are
//!   stacked straight from bin indices
//!   ([`PileupColumn::push_slot_capped`]), the `min_baseq` filter is one
//!   bin-index comparison, and a batch freelist mirrors the column
//!   freelist so steady state performs zero allocations.
//! * **Shared** ([`pileup_region_windowed`]) — batches come from a
//!   run-scoped [`SharedBlockCache`], so parallel workers whose chunks
//!   straddle a block boundary decode that block exactly once per run.
//!   The iterator walks a precomputed region-scoped [`BlockWindow`] from
//!   the run's [`ultravc_bamlite::IoPlan`] instead of re-deriving the
//!   overlap.
//!
//! # Hostile input
//!
//! Within a block, positions are delta-coded and cannot go backwards;
//! across blocks nothing in the container guarantees it. The iterator
//! checks each record against its predecessor and stops with a typed
//! [`BalError::Corrupt`] (see [`PileupIter::take_error`]) rather than
//! let an out-of-order record reach behind the ring's emission front.

use crate::column::PileupColumn;
#[cfg(test)]
use crate::column::PileupEntry;
use std::collections::VecDeque;
use std::sync::Arc;
use ultravc_bamlite::{
    BalError, BalFile, BalReader, BlockWindow, DecodeStats, QualityDict, RecordBatch, RecordView,
    SharedBlockCache,
};

/// Pileup configuration, mirroring LoFreq's relevant defaults.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PileupParams {
    /// Depth cap per column (LoFreq default: 1 000 000; the paper's Table I
    /// footnote depends on it).
    pub max_depth: usize,
    /// Minimum mapping quality; reads below are skipped entirely.
    pub min_mapq: u8,
    /// Minimum base quality; bases below are not stacked.
    pub min_baseq: u8,
    /// Skip reads flagged secondary/duplicate/QC-fail.
    pub skip_flagged: bool,
}

impl Default for PileupParams {
    fn default() -> Self {
        PileupParams {
            max_depth: 1_000_000,
            min_mapq: 13,
            min_baseq: 3,
            skip_flagged: true,
        }
    }
}

/// Stream pileup columns for `[start, end)` of the given file.
///
/// Every worker thread calls this with its own region; the readers share the
/// file bytes but decode independently. (For decode-once sharing across
/// workers, see [`pileup_region_windowed`].)
pub fn pileup_region(file: &BalFile, start: u32, end: u32, params: PileupParams) -> PileupIter {
    let source = Source::Batch {
        cur: None,
        cursor: 0,
        spare: Vec::new(),
    };
    let blocks = file.blocks_overlapping(start, end);
    PileupIter::with_blocks(file, blocks.into(), start, end, params, source)
}

/// Stream pileup columns for one **precomputed block window** of a
/// run-level [`ultravc_bamlite::IoPlan`], pulling decoded blocks from the
/// run's shared cache: each block is decoded by exactly one of the
/// iterators sharing the cache, no matter how many of their regions
/// overlap it. The iterator touches exactly the window's blocks (its
/// region's own blocks plus shared boundary blocks) instead of
/// re-deriving the overlap from the index. The window must have been
/// planned for this cache's file; a window from another file's plan
/// names unrelated blocks.
pub fn pileup_region_windowed(
    cache: &Arc<SharedBlockCache>,
    window: &BlockWindow,
    params: PileupParams,
) -> PileupIter {
    let region = window.region();
    debug_assert_eq!(
        window.blocks(),
        cache.file().blocks_overlapping(region.start, region.end),
        "window was planned against a different file"
    );
    let source = Source::Shared {
        cache: Arc::clone(cache),
        cur: None,
        cursor: 0,
    };
    PileupIter::with_blocks(
        cache.file(),
        window.blocks_shared(),
        region.start,
        region.end,
        params,
        source,
    )
}

/// Upper bound on retained spare columns. Larger than any realistic read
/// length (= ring width), so steady state never allocates; small enough
/// that a pathological consumer cannot balloon memory by recycling
/// thousands of columns.
const FREELIST_CAP: usize = 256;

/// Upper bound on retained spare record batches. One batch is in flight at
/// a time, so the freelist cycles a single arena in steady state; the cap
/// only guards against misuse.
const BATCH_FREELIST_CAP: usize = 4;

/// Where decoded records come from.
enum Source {
    /// Arena batches decoded by this iterator, recycled through a
    /// freelist.
    Batch {
        cur: Option<RecordBatch>,
        cursor: usize,
        spare: Vec<RecordBatch>,
    },
    /// Arena batches decoded at most once per run by whichever sharing
    /// iterator gets there first.
    Shared {
        cache: Arc<SharedBlockCache>,
        cur: Option<Arc<RecordBatch>>,
        cursor: usize,
    },
}

/// Iterator over non-empty pileup columns of a region, in position order.
pub struct PileupIter {
    reader: BalReader,
    blocks: Arc<[usize]>,
    next_block: usize,
    source: Source,
    /// The file's quality dictionary.
    dict: Arc<QualityDict>,
    /// Bins `>= bin_cutoff` fail the `min_baseq` filter (the dictionary
    /// is sorted descending, so too-low qualities are a suffix).
    bin_cutoff: u8,
    /// In-flight columns, front = lowest position. Invariant: contiguous
    /// positions `ring[0].pos .. ring[0].pos + ring.len()`.
    ring: VecDeque<PileupColumn>,
    /// Retired column buffers awaiting reuse: uncovered positions the
    /// iterator skipped plus whatever the consumer hands back via
    /// [`PileupIter::recycle`]. In steady state the ring allocates no new
    /// histogram per position.
    free: Vec<PileupColumn>,
    start: u32,
    end: u32,
    /// Start position of the last absorbed record; the next one must not
    /// start before it.
    last_pos: u32,
    params: PileupParams,
    done: bool,
    error: Option<BalError>,
    /// Decode work performed *by this iterator* through a shared cache
    /// (cache hits are someone else's work and are counted separately).
    shared_stats: DecodeStats,
    /// Blocks this iterator consumed from the shared cache without paying
    /// for their decode.
    cache_hits: u64,
}

impl PileupIter {
    /// Constructor taking the region's block list as given (on the
    /// windowed path a run-level plan already computed every overlap).
    fn with_blocks(
        file: &BalFile,
        blocks: Arc<[usize]>,
        start: u32,
        end: u32,
        params: PileupParams,
        source: Source,
    ) -> Self {
        let dict = Arc::clone(file.quality_dict());
        let bin_cutoff = dict.bins_at_least(params.min_baseq);
        PileupIter {
            reader: file.reader(),
            blocks,
            next_block: 0,
            source,
            dict,
            bin_cutoff,
            ring: VecDeque::new(),
            free: Vec::new(),
            start,
            end,
            last_pos: 0,
            params,
            done: false,
            error: None,
            shared_stats: DecodeStats::default(),
            cache_hits: 0,
        }
    }

    /// The first error, if the iterator stopped on one: a block that failed
    /// to decode, or records out of position order.
    pub fn error(&self) -> Option<&BalError> {
        self.error.as_ref()
    }

    /// Take ownership of the stored error, leaving `None`. The
    /// supervised driver uses this to propagate the *typed* error (an
    /// interruption must stay an interruption, a transient-exhausted `Io`
    /// must stay `Io`) instead of flattening everything to `Corrupt`.
    pub fn take_error(&mut self) -> Option<BalError> {
        self.error.take()
    }

    /// Return an emitted column's buffer for reuse. Consumers that call
    /// this after processing each column make the iterator allocation-free
    /// in steady state; not calling it is also fine (the column is simply
    /// dropped and the ring allocates replacements).
    pub fn recycle(&mut self, column: PileupColumn) {
        if self.free.len() < FREELIST_CAP {
            self.free.push(column);
        }
    }

    /// Decode accounting: blocks this iterator decoded itself (through its
    /// reader or as the first requester of a shared-cache slot). Cache
    /// hits contribute nothing here, which is what lets per-worker stats
    /// sum to the true whole-run decode work.
    pub fn decode_stats(&self) -> DecodeStats {
        let mut stats = self.reader.stats();
        stats.merge(&self.shared_stats);
        stats
    }

    /// Blocks consumed from a shared cache that some other iterator had
    /// already decoded.
    pub fn cache_hits(&self) -> u64 {
        self.cache_hits
    }

    /// Position of the next undelivered record, pulling in blocks as
    /// needed. `None` when the region's records are exhausted (or a decode
    /// error stopped the iterator — see [`PileupIter::error`]).
    fn ensure_record(&mut self) -> Option<u32> {
        loop {
            match &self.source {
                Source::Batch { cur, cursor, .. } => {
                    if let Some(batch) = cur {
                        if *cursor < batch.len() {
                            return Some(batch.pos(*cursor));
                        }
                    }
                }
                Source::Shared { cur, cursor, .. } => {
                    if let Some(batch) = cur {
                        if *cursor < batch.len() {
                            return Some(batch.pos(*cursor));
                        }
                    }
                }
            }
            if self.next_block >= self.blocks.len() {
                return None;
            }
            let block_id = self.blocks[self.next_block];
            self.next_block += 1;
            if let Err(e) = self.refill(block_id) {
                self.error = Some(e);
                self.done = true;
                return None;
            }
        }
    }

    /// Pull block `block_id` into the source.
    fn refill(&mut self, block_id: usize) -> Result<(), BalError> {
        let Self {
            reader,
            source,
            shared_stats,
            cache_hits,
            ..
        } = self;
        match source {
            Source::Batch { cur, cursor, spare } => {
                // Retire the exhausted batch to the freelist, then decode
                // into a spare arena (or a fresh one on cold start).
                if let Some(prev) = cur.take() {
                    if spare.len() < BATCH_FREELIST_CAP {
                        spare.push(prev);
                    }
                }
                let mut batch = spare.pop().unwrap_or_default();
                reader.decode_batch(block_id, &mut batch)?;
                *cur = Some(batch);
                *cursor = 0;
            }
            Source::Shared { cache, cur, cursor } => {
                let (batch, performed) = cache.get(block_id)?;
                match performed {
                    Some(stats) => shared_stats.merge(&stats),
                    None => *cache_hits += 1,
                }
                *cur = Some(batch);
                *cursor = 0;
            }
        }
        Ok(())
    }

    /// Fold the current record's aligned bases into the ring and advance
    /// past it. Must follow a successful [`PileupIter::ensure_record`].
    fn absorb_current(&mut self) {
        let Self {
            source,
            ring,
            free,
            params,
            start,
            end,
            dict,
            bin_cutoff,
            ..
        } = self;
        match source {
            Source::Batch { cur, cursor, .. } => {
                let view = cur.as_ref().expect("ensured batch").view(*cursor);
                *cursor += 1;
                absorb_view(ring, free, params, *start, *end, view, dict, *bin_cutoff);
            }
            Source::Shared { cur, cursor, .. } => {
                let view = cur.as_ref().expect("ensured batch").view(*cursor);
                *cursor += 1;
                absorb_view(ring, free, params, *start, *end, view, dict, *bin_cutoff);
            }
        }
    }
}

/// A blank column at `pos`, reusing a retired buffer when available.
fn fresh_column(free: &mut Vec<PileupColumn>, pos: u32) -> PileupColumn {
    match free.pop() {
        Some(mut col) => {
            col.reset(pos);
            col
        }
        None => PileupColumn::new(pos),
    }
}

/// Grow the ring (preserving contiguity) to cover columns `[first, last)`.
/// `first` only matters to an empty ring, which it seeds; a non-empty ring
/// must already start at or before it.
fn ensure_span(
    ring: &mut VecDeque<PileupColumn>,
    free: &mut Vec<PileupColumn>,
    first: u32,
    last: u32,
) {
    let mut next = match ring.front() {
        None => first,
        Some(front) => {
            debug_assert!(
                first >= front.pos,
                "records must not reach behind the emission front"
            );
            front.pos + ring.len() as u32
        }
    };
    while next < last {
        let col = fresh_column(free, next);
        ring.push_back(col);
        next += 1;
    }
}

/// Stack a record's bin indices straight from the arena view. The quality
/// filter is a single comparison against the dictionary cutoff and the
/// push resolves each bin to its histogram slot through the (L1-sized)
/// dictionary — no per-base Phred construction, no clamping.
#[allow(clippy::too_many_arguments)]
fn absorb_view(
    ring: &mut VecDeque<PileupColumn>,
    free: &mut Vec<PileupColumn>,
    params: &PileupParams,
    start: u32,
    end: u32,
    view: RecordView<'_>,
    dict: &QualityDict,
    bin_cutoff: u8,
) {
    if params.skip_flagged && view.flags().is_filtered() {
        return;
    }
    if view.mapq() < params.min_mapq {
        return;
    }
    // The ring covers the record's whole reference span clamped into the
    // region, from its start position — not from its first surviving
    // base: a leading base below `min_baseq` (or a CIGAR opening with a
    // deletion) must not leave the front past a column that the next
    // record, starting at the same position, still stacks into. Columns
    // covered but never filled are skipped on emission.
    let first = view.pos().max(start);
    let last = view.end_pos().min(end);
    if first >= last {
        return;
    }
    ensure_span(ring, free, first, last);
    let front_pos = ring.front().expect("span is non-empty").pos;
    let reverse = view.flags().is_reverse();
    let slots = dict.quals();
    for (ref_pos, base_code, bin) in view.aligned() {
        if ref_pos < start || ref_pos >= end {
            continue;
        }
        if bin >= bin_cutoff {
            continue;
        }
        let idx = (ref_pos - front_pos) as usize;
        ring[idx].push_slot_capped(base_code, reverse, slots[bin as usize].0, params.max_depth);
    }
}

impl Iterator for PileupIter {
    type Item = PileupColumn;

    fn next(&mut self) -> Option<PileupColumn> {
        loop {
            if self.done && self.ring.is_empty() {
                return None;
            }
            // Absorb every record that can still touch the front column.
            while !self.done {
                let front_pos = self.ring.front().map(|c| c.pos);
                match self.ensure_record() {
                    None => {
                        self.done = true;
                        break;
                    }
                    Some(p) => {
                        // If the ring is empty, absorb unconditionally to
                        // seed it; otherwise only records at or before the
                        // front column still affect it.
                        if front_pos.is_none() || p <= front_pos.expect("checked") {
                            if p < self.last_pos {
                                self.error =
                                    Some(BalError::Corrupt("records out of position order"));
                                self.done = true;
                                break;
                            }
                            self.last_pos = p;
                            self.absorb_current();
                        } else {
                            break;
                        }
                    }
                }
            }
            match self.ring.pop_front() {
                None => {
                    if self.done {
                        return None;
                    }
                }
                Some(col) => {
                    if !col.is_empty() {
                        return Some(col);
                    }
                    // Skip uncovered positions silently (mpileup
                    // behaviour), returning the buffer to the freelist.
                    self.recycle(col);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ultravc_bamlite::{Cigar, Flags, Record};
    use ultravc_genome::alphabet::Base;
    use ultravc_genome::phred::Phred;
    use ultravc_genome::sequence::Seq;

    fn mk(id: u64, pos: u32, bases: &[u8], q: u8, flags: Flags) -> Record {
        let seq = Seq::from_ascii(bases).unwrap();
        let quals = vec![Phred::new(q); seq.len()];
        Record::full_match(id, pos, 60, flags, seq, quals).unwrap()
    }

    fn file(records: Vec<Record>) -> BalFile {
        BalFile::from_records(records).unwrap()
    }

    #[test]
    fn single_read_single_column_stack() {
        let f = file(vec![mk(0, 10, b"ACGT", 30, Flags::none())]);
        let cols: Vec<_> = pileup_region(&f, 0, 100, PileupParams::default()).collect();
        assert_eq!(cols.len(), 4);
        assert_eq!(cols[0].pos, 10);
        assert_eq!(cols[3].pos, 13);
        assert_eq!(cols[0].depth(), 1);
        assert_eq!(cols[0].iter().next().unwrap().base, Base::A);
        assert_eq!(cols[3].iter().next().unwrap().base, Base::T);
    }

    #[test]
    fn overlapping_reads_stack() {
        let f = file(vec![
            mk(0, 0, b"AAAA", 30, Flags::none()),
            mk(1, 2, b"AAAA", 25, Flags::REVERSE),
            mk(2, 4, b"AAAA", 20, Flags::none()),
        ]);
        let cols: Vec<_> = pileup_region(&f, 0, 100, PileupParams::default()).collect();
        // Coverage: 0,1 depth1; 2,3 depth2; 4,5 depth2; 6,7 depth1.
        let depths: Vec<(u32, usize)> = cols.iter().map(|c| (c.pos, c.depth())).collect();
        assert_eq!(
            depths,
            vec![
                (0, 1),
                (1, 1),
                (2, 2),
                (3, 2),
                (4, 2),
                (5, 2),
                (6, 1),
                (7, 1)
            ]
        );
        // Strand accounting at column 2: one forward A, one reverse A.
        assert_eq!(cols[2].strand_counts(Base::A), (1, 1));
    }

    #[test]
    fn gap_between_reads_emits_no_empty_columns() {
        let f = file(vec![
            mk(0, 0, b"AC", 30, Flags::none()),
            mk(1, 10, b"GT", 30, Flags::none()),
        ]);
        let cols: Vec<_> = pileup_region(&f, 0, 100, PileupParams::default()).collect();
        let positions: Vec<u32> = cols.iter().map(|c| c.pos).collect();
        assert_eq!(positions, vec![0, 1, 10, 11]);
    }

    #[test]
    fn region_bounds_clip_columns() {
        let f = file(vec![mk(0, 5, b"ACGTACGT", 30, Flags::none())]);
        let cols: Vec<_> = pileup_region(&f, 7, 10, PileupParams::default()).collect();
        let positions: Vec<u32> = cols.iter().map(|c| c.pos).collect();
        assert_eq!(positions, vec![7, 8, 9]);
    }

    #[test]
    fn mapq_and_flag_filters() {
        let mut low_mapq = mk(0, 0, b"AC", 30, Flags::none());
        low_mapq.mapq = 5;
        let f = file(vec![
            low_mapq,
            mk(1, 0, b"AC", 30, Flags::DUPLICATE),
            mk(2, 0, b"AC", 30, Flags::none()),
        ]);
        let cols: Vec<_> = pileup_region(&f, 0, 10, PileupParams::default()).collect();
        assert_eq!(cols.len(), 2);
        assert_eq!(cols[0].depth(), 1, "only the clean read survives");
    }

    #[test]
    fn baseq_filter_drops_bases_not_reads() {
        let seq = Seq::from_ascii(b"ACGT").unwrap();
        let quals = vec![Phred::new(2), Phred::new(30), Phred::new(2), Phred::new(30)];
        let rec = Record::full_match(0, 0, 60, Flags::none(), seq, quals).unwrap();
        let f = file(vec![rec]);
        let cols: Vec<_> = pileup_region(&f, 0, 10, PileupParams::default()).collect();
        let positions: Vec<u32> = cols.iter().map(|c| c.pos).collect();
        assert_eq!(positions, vec![1, 3], "Q2 bases filtered by min_baseq=3");
    }

    #[test]
    fn depth_cap_enforced() {
        let records: Vec<Record> = (0..50).map(|i| mk(i, 0, b"A", 30, Flags::none())).collect();
        let f = file(records);
        let params = PileupParams {
            max_depth: 10,
            ..PileupParams::default()
        };
        let cols: Vec<_> = pileup_region(&f, 0, 10, params).collect();
        assert_eq!(cols.len(), 1);
        assert_eq!(cols[0].depth(), 10);
        assert!(cols[0].truncated());
    }

    #[test]
    fn deletion_skips_columns() {
        let seq = Seq::from_ascii(b"AAAA").unwrap();
        let quals = vec![Phred::new(30); 4];
        let rec = Record::new(
            0,
            0,
            60,
            Flags::none(),
            seq,
            quals,
            Cigar::parse("2M3D2M").unwrap(),
        )
        .unwrap();
        let f = file(vec![rec]);
        let cols: Vec<_> = pileup_region(&f, 0, 10, PileupParams::default()).collect();
        let positions: Vec<u32> = cols.iter().map(|c| c.pos).collect();
        assert_eq!(positions, vec![0, 1, 5, 6]);
    }

    #[test]
    fn empty_file_and_empty_region() {
        let f = file(vec![]);
        assert_eq!(
            pileup_region(&f, 0, 100, PileupParams::default()).count(),
            0
        );
        let f2 = file(vec![mk(0, 0, b"AC", 30, Flags::none())]);
        assert_eq!(
            pileup_region(&f2, 50, 60, PileupParams::default()).count(),
            0
        );
        assert_eq!(pileup_region(&f2, 5, 5, PileupParams::default()).count(), 0);
    }

    #[test]
    fn recycled_columns_change_nothing() {
        // Consuming with recycling must produce exactly the same columns
        // as consuming without, and recycled buffers must come back blank.
        let mut records = Vec::new();
        for i in 0..60u64 {
            records.push(mk(i, (i % 11) as u32 * 3, b"ACGTAC", 30, Flags::none()));
        }
        records.sort_by_key(|r| r.pos);
        for (i, r) in records.iter_mut().enumerate() {
            r.id = i as u64;
        }
        let f = file(records);
        let plain: Vec<_> = pileup_region(&f, 0, 100, PileupParams::default()).collect();
        let mut recycled = Vec::new();
        let mut iter = pileup_region(&f, 0, 100, PileupParams::default());
        while let Some(col) = iter.next() {
            recycled.push(col.clone());
            iter.recycle(col);
        }
        assert_eq!(plain, recycled);
        assert!(!iter.free.is_empty(), "recycled buffers retained");
    }

    #[test]
    fn freelist_is_bounded() {
        let f = file(vec![mk(0, 0, b"AC", 30, Flags::none())]);
        let mut iter = pileup_region(&f, 0, 10, PileupParams::default());
        for _ in 0..(FREELIST_CAP + 50) {
            iter.recycle(PileupColumn::new(0));
        }
        assert_eq!(iter.free.len(), FREELIST_CAP);
    }

    #[test]
    fn columns_partition_across_regions() {
        // Pileup of [0,mid) + pileup of [mid,end) must equal pileup of
        // [0,end) — the invariant the parallel caller relies on.
        let mut records = Vec::new();
        for i in 0..200u64 {
            records.push(mk(i, (i % 37) as u32 * 2, b"ACGTACGT", 30, Flags::none()));
        }
        records.sort_by_key(|r| r.pos);
        for (i, r) in records.iter_mut().enumerate() {
            r.id = i as u64;
        }
        let f = file(records);
        let whole: Vec<_> = pileup_region(&f, 0, 100, PileupParams::default()).collect();
        let mut split: Vec<_> = pileup_region(&f, 0, 40, PileupParams::default()).collect();
        split.extend(pileup_region(&f, 40, 100, PileupParams::default()));
        assert_eq!(whole, split);
    }

    /// A mixed workload: overlapping reads, strand variety, deletion and
    /// soft-clip CIGARs, low-quality bases, sub-threshold mapq, flagged
    /// reads.
    fn varied_records() -> Vec<Record> {
        let mut records = Vec::new();
        for i in 0..120u64 {
            let pos = (i % 23) as u32 * 4;
            let q = 2 + (i % 40) as u8;
            let flags = match i % 7 {
                0 => Flags::REVERSE,
                1 => Flags::DUPLICATE,
                _ => Flags::none(),
            };
            let mut rec = mk(i, pos, b"ACGTACGTACGT", q, flags);
            if i % 5 == 0 {
                rec = Record::new(
                    i,
                    pos,
                    60,
                    flags,
                    Seq::from_ascii(b"ACGTACGTACGT").unwrap(),
                    (0..12)
                        .map(|j| Phred::new(2 + ((i as usize + j) % 40) as u8))
                        .collect(),
                    Cigar::parse("2S4M3D5M1S").unwrap(),
                )
                .unwrap();
            }
            if i % 11 == 0 {
                rec.mapq = 5;
            }
            records.push(rec);
        }
        records.sort_by_key(|r| r.pos);
        for (i, r) in records.iter_mut().enumerate() {
            r.id = i as u64;
        }
        records
    }

    /// One windowed iterator per region, all pulling from `cache`.
    fn windowed(
        cache: &Arc<SharedBlockCache>,
        regions: &[std::ops::Range<u32>],
        params: PileupParams,
    ) -> Vec<PileupIter> {
        ultravc_bamlite::IoPlan::for_regions(cache.file(), regions)
            .windows()
            .iter()
            .map(|w| pileup_region_windowed(cache, w, params))
            .collect()
    }

    #[test]
    fn cached_pileup_matches_uncached() {
        let f = file(varied_records());
        let cache = Arc::new(SharedBlockCache::new(f.clone()));
        let params = PileupParams::default();
        let plain: Vec<_> = pileup_region(&f, 0, 200, params).collect();
        let cached: Vec<_> = windowed(&cache, std::slice::from_ref(&(0..200)), params)
            .remove(0)
            .collect();
        assert_eq!(plain, cached);
        // A second overlapping pass hits the cache instead of re-decoding.
        let mut second = windowed(&cache, std::slice::from_ref(&(0..200)), params).remove(0);
        let again: Vec<_> = second.by_ref().collect();
        assert_eq!(again, plain);
        assert_eq!(second.decode_stats().blocks, 0, "all blocks were hits");
        assert_eq!(second.cache_hits() as usize, f.n_blocks());
    }

    #[test]
    fn cached_split_regions_decode_each_block_once() {
        let f = file(varied_records());
        let cache = Arc::new(SharedBlockCache::new(f.clone()));
        let params = PileupParams::default();
        let whole: Vec<_> = pileup_region(&f, 0, 200, params).collect();
        let mut iters = windowed(&cache, &[0..30, 30..60, 60..200], params);
        let mut split = Vec::new();
        for it in &mut iters {
            split.extend(it.by_ref());
        }
        assert_eq!(whole, split);
        let total_decodes: u64 = iters.iter().map(|it| it.decode_stats().blocks).sum();
        assert_eq!(
            total_decodes,
            f.n_blocks() as u64,
            "boundary blocks decoded exactly once across regions"
        );
        assert!(
            iters.iter().map(|it| it.cache_hits()).sum::<u64>() > 0,
            "overlapping regions must have produced cache hits"
        );
    }

    #[test]
    fn windowed_pileup_matches_cached_and_plain() {
        // The driver's pairing: a cache scoped to the plan, which releases
        // each arena after its last planned consumer.
        use ultravc_bamlite::IoPlan;
        let f = file(varied_records());
        let params = PileupParams::default();
        let whole: Vec<_> = pileup_region(&f, 0, 200, params).collect();
        let regions = vec![0u32..30, 30..60, 60..200];
        let plan = IoPlan::for_regions(&f, &regions);
        let cache = Arc::new(SharedBlockCache::for_plan(f.clone(), &plan));
        let mut iters: Vec<_> = plan
            .windows()
            .iter()
            .map(|w| pileup_region_windowed(&cache, w, params))
            .collect();
        let mut split = Vec::new();
        for it in &mut iters {
            split.extend(it.by_ref());
        }
        assert_eq!(whole, split, "windows partition identically to regions");
        let total_decodes: u64 = iters.iter().map(|it| it.decode_stats().blocks).sum();
        assert_eq!(
            total_decodes,
            f.n_blocks() as u64,
            "windowed iterators keep decode-once"
        );
        assert_eq!(cache.resident_blocks(), 0, "every arena was released");
    }

    #[test]
    fn push_slot_equals_entry_push() {
        let mut a = PileupColumn::new(0);
        let mut b = PileupColumn::new(0);
        for (base, q, rev) in [
            (Base::A, 30u8, false),
            (Base::G, 2, true),
            (Base::T, 93, false),
        ] {
            a.push_capped(
                PileupEntry {
                    base,
                    qual: Phred::new(q),
                    reverse: rev,
                },
                10,
            );
            b.push_slot_capped(base.code(), rev, q, 10);
        }
        assert_eq!(a, b);
        // Cap behaviour matches too.
        for _ in 0..20 {
            a.push_capped(
                PileupEntry {
                    base: Base::C,
                    qual: Phred::new(10),
                    reverse: false,
                },
                4,
            );
            b.push_slot_capped(Base::C.code(), false, 10, 4);
        }
        assert_eq!(a, b);
        assert!(b.truncated());
    }
}
