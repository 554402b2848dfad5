//! The streaming pileup iterator.
//!
//! Records arrive position-sorted from a block cursor (blocks read
//! lazily); a ring of in-flight columns receives bases from every read that
//! overlaps them; a column is emitted as soon as no unread record can still
//! touch it (i.e. the next record starts past it). Peak memory is
//! `O(read_len)` columns of `8 × n_bins` counters, independent of file size
//! and depth.
//!
//! # The `M`-run kernel
//!
//! A record is stacked one CIGAR op at a time, not one base at a time.
//! Each `M` run is clamped to the region once; its packed bases,
//! quality-bin indices and the ring columns it covers are then
//! consecutive. The run's bases are unpacked into a stack buffer (up to
//! 128 at a time), so the inner loop zips three slices: the ring is split
//! at its wrap point once per run ([`VecDeque::as_mut_slices`]), and each
//! base is one `min_baseq` compare and one counter increment at
//! `group * n_bins + bin` — the column is keyed by the file's quality
//! dictionary, so the bin the decoder produced is the counter index (see
//! [`crate::column`]).
//!
//! **The depth cap is checked once per record.** A record adds at most one
//! base to any column (its `M` runs cover disjoint reference positions),
//! so the iterator keeps a conservative bound on the ring's deepest
//! column, raised by one per stacked record. While the bound is below
//! `max_depth`, no column can reach the cap during the record and its
//! bases take the uncapped loop. Once the bound reaches the cap, one scan
//! of the ring re-tightens it to the true maximum; only a record that
//! finds a column really at the cap takes the per-base capped loop, which
//! drops the base and marks the column truncated exactly as
//! [`PileupColumn::push_capped`] does.
//!
//! # Ingest paths
//!
//! The iterator stacks straight from a block's decompressed streams
//! ([`BlockStreams`]): a [`RecordCursor`] walks them in place, checking
//! each record as it yields it, and the kernel unpacks 2-bit bases (a
//! 256-entry table into a stack buffer) only for the part of each `M` run
//! clamped into the region. No record arena is built. Two sources supply
//! the streams, and both produce **bitwise-identical** columns (same
//! counts, same depth-cap decisions):
//!
//! * **Private** ([`pileup_region`]) — the iterator reads and decompresses
//!   its blocks through its own reader.
//! * **Shared** ([`pileup_region_windowed`]) — blocks come from a
//!   run-scoped [`SharedBlockCache`], so parallel workers whose chunks
//!   straddle a block boundary read and decompress that block exactly
//!   once per run. The iterator walks a precomputed region-scoped
//!   [`BlockWindow`] from the run's [`ultravc_bamlite::IoPlan`] instead
//!   of re-deriving the overlap.
//!
//! Either way the iterator keeps one [`BlockBuffers`]: the payload read
//! buffer, and the stream buffers of each block it was the last to hold,
//! are reused for the next block, so a warmed iterator reads blocks
//! without allocating. [`PileupIter::decode_stats`] times the read and
//! the decompression only; the cursor walk is iteration.
//!
//! # Hostile input
//!
//! Within a block, positions are delta-coded and cannot go backwards;
//! across blocks nothing in the container guarantees it. The iterator
//! checks each record against its predecessor and stops with a typed
//! [`BalError::Corrupt`] (see [`PileupIter::take_error`]) rather than
//! let an out-of-order record reach behind the ring's emission front. A
//! record that fails the cursor's checks stops it the same way — after
//! the block's earlier records were stacked, which a caller must treat
//! as the region failing, as the driver does.

use crate::column::PileupColumn;
use std::collections::VecDeque;
use std::sync::Arc;
use ultravc_bamlite::{
    unpack_2bit, BalError, BalFile, BalReader, BlockBuffers, BlockStreams, BlockWindow, CigarOp,
    DecodeStats, QualityDict, RecordCursor, SharedBlockCache, StreamRecord,
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
    let blocks = file.blocks_overlapping(start, end);
    PileupIter::with_blocks(file, blocks.into(), start, end, params, None)
}

/// Stream pileup columns for one **precomputed block window** of a
/// run-level [`ultravc_bamlite::IoPlan`], pulling decompressed blocks from
/// the run's shared cache: each block is read by exactly one of the
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
    PileupIter::with_blocks(
        cache.file(),
        window.blocks_shared(),
        region.start,
        region.end,
        params,
        Some(Arc::clone(cache)),
    )
}

/// Upper bound on retained spare columns. Larger than any realistic read
/// length (= ring width), so steady state never allocates; small enough
/// that a pathological consumer cannot balloon memory by recycling
/// thousands of columns.
const FREELIST_CAP: usize = 256;

/// Bases unpacked per kernel call: a clamped `M` run longer than this is
/// stacked in pieces through one stack buffer.
const RUN_CHUNK: usize = 128;

/// Iterator over non-empty pileup columns of a region, in position order.
pub struct PileupIter {
    /// Reads the private source's blocks; its stats are this iterator's
    /// own decode work on that source.
    reader: BalReader,
    /// The shared source, when there is one: blocks come from the run's
    /// decode-once cache instead of `reader`.
    cache: Option<Arc<SharedBlockCache>>,
    blocks: Arc<[usize]>,
    next_block: usize,
    /// The block being walked, and the cursor walking it.
    block: Option<Arc<BlockStreams>>,
    cursor: RecordCursor,
    /// The next undelivered record of `block`, already read off the
    /// cursor (the iterator peeks at its position before absorbing it).
    pending: Option<StreamRecord>,
    /// Read buffer and retired stream buffers, reused block to block.
    bufs: BlockBuffers,
    /// The file's quality dictionary.
    dict: Arc<QualityDict>,
    /// Bins `>= bin_cutoff` fail the `min_baseq` filter (the dictionary
    /// is sorted descending, so too-low qualities are a suffix).
    bin_cutoff: u8,
    /// In-flight columns, front = lowest position. Invariant: contiguous
    /// positions `ring[0].pos .. ring[0].pos + ring.len()`.
    ring: VecDeque<PileupColumn>,
    /// At least the depth of every ring column: raised by one per stacked
    /// record, re-tightened by a ring scan when it reaches the cap.
    depth_bound: usize,
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
        cache: Option<Arc<SharedBlockCache>>,
    ) -> Self {
        let dict = Arc::clone(file.quality_dict());
        let bin_cutoff = dict.bins_at_least(params.min_baseq);
        PileupIter {
            reader: file.reader(),
            cache,
            blocks,
            next_block: 0,
            block: None,
            cursor: RecordCursor::default(),
            pending: None,
            bufs: BlockBuffers::new(),
            dict,
            bin_cutoff,
            ring: VecDeque::new(),
            depth_bound: 0,
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
    /// to read or decompress, a record that failed the cursor's checks, or
    /// records out of position order.
    pub fn error(&self) -> Option<&BalError> {
        self.error.as_ref()
    }

    /// Take ownership of the stored error, leaving `None`. The
    /// supervised driver uses this to propagate the *typed* error (an
    /// interruption must stay an interruption, a failed read's `Io` must
    /// stay `Io`) instead of flattening everything to `Corrupt`.
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

    /// Decode accounting: blocks this iterator read and decompressed
    /// itself (through its reader or as the first requester of a
    /// shared-cache slot). Cache hits contribute nothing here, which is
    /// what lets per-worker stats sum to the true whole-run decode work.
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
    /// needed. `None` when the region's records are exhausted (or an error
    /// stopped the iterator — see [`PileupIter::error`]).
    #[inline]
    fn ensure_record(&mut self) -> Option<u32> {
        loop {
            if let Some(rec) = &self.pending {
                return Some(rec.pos);
            }
            if let Some(block) = &self.block {
                match self.cursor.next(block) {
                    Ok(Some(rec)) => {
                        self.pending = Some(rec);
                        return Some(rec.pos);
                    }
                    Ok(None) => {}
                    Err(e) => return self.stop(e),
                }
            }
            if self.next_block >= self.blocks.len() {
                return None;
            }
            let block_id = self.blocks[self.next_block];
            self.next_block += 1;
            if let Err(e) = self.refill(block_id) {
                return self.stop(e);
            }
        }
    }

    /// Stop on `error`; the ring still drains.
    #[cold]
    fn stop(&mut self, error: BalError) -> Option<u32> {
        self.error = Some(error);
        self.done = true;
        None
    }

    /// Retire the walked block and pull block `block_id` in its place.
    fn refill(&mut self, block_id: usize) -> Result<(), BalError> {
        if let Some(done) = self.block.take() {
            self.bufs.recycle(done);
        }
        let block = match &self.cache {
            None => self.reader.read_block(block_id, &mut self.bufs)?,
            Some(cache) => {
                let (block, performed) = cache.get_with(block_id, &mut self.bufs)?;
                match performed {
                    Some(stats) => self.shared_stats.merge(&stats),
                    None => self.cache_hits += 1,
                }
                block
            }
        };
        self.cursor = block.cursor();
        self.block = Some(block);
        Ok(())
    }

    /// Fold the pending record's aligned bases into the ring. Must follow
    /// a successful [`PileupIter::ensure_record`].
    fn absorb_pending(&mut self) {
        let Self {
            block,
            pending,
            ring,
            depth_bound,
            free,
            params,
            start,
            end,
            dict,
            bin_cutoff,
            ..
        } = self;
        let rec = pending.take().expect("ensured record");
        let block = block.as_deref().expect("ensured record's block");
        absorb_record(
            ring,
            depth_bound,
            free,
            params,
            *start..*end,
            &rec,
            block,
            dict,
            *bin_cutoff,
        );
    }
}

/// A blank column at `pos` keyed by `dict`, reusing a retired buffer when
/// available.
fn fresh_column(free: &mut Vec<PileupColumn>, dict: &Arc<QualityDict>, pos: u32) -> PileupColumn {
    match free.pop() {
        Some(mut col) => {
            col.reset_for(pos, dict);
            col
        }
        None => PileupColumn::with_dict(pos, dict),
    }
}

/// Grow the ring (preserving contiguity) to cover columns `[first, last)`.
/// `first` only matters to an empty ring, which it seeds; a non-empty ring
/// must already start at or before it.
fn ensure_span(
    ring: &mut VecDeque<PileupColumn>,
    free: &mut Vec<PileupColumn>,
    dict: &Arc<QualityDict>,
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
        let col = fresh_column(free, dict, next);
        ring.push_back(col);
        next += 1;
    }
}

/// Stack one record with the `M`-run kernel (see the module docs): walk
/// its CIGAR ops, clamp each `M` run to `region`, and stack the run's
/// bases and bin indices into consecutive ring columns, capped per base
/// only when `depth_bound` says a column may be at `max_depth`.
#[allow(clippy::too_many_arguments)]
#[inline]
fn absorb_record(
    ring: &mut VecDeque<PileupColumn>,
    depth_bound: &mut usize,
    free: &mut Vec<PileupColumn>,
    params: &PileupParams,
    region: std::ops::Range<u32>,
    rec: &StreamRecord,
    block: &BlockStreams,
    dict: &Arc<QualityDict>,
    bin_cutoff: u8,
) {
    if params.skip_flagged && rec.flags.is_filtered() {
        return;
    }
    if rec.mapq < params.min_mapq {
        return;
    }
    // The ring covers the record's whole reference span clamped into the
    // region, from its start position — not from its first surviving
    // base: a leading base below `min_baseq` (or a CIGAR opening with a
    // deletion) must not leave the front past a column that the next
    // record, starting at the same position, still stacks into. Columns
    // covered but never filled are skipped on emission.
    let first = rec.pos.max(region.start);
    let last = rec.end_pos.min(region.end);
    if first >= last {
        return;
    }
    ensure_span(ring, free, dict, first, last);
    let cap = if *depth_bound < params.max_depth {
        None
    } else {
        *depth_bound = ring.iter().map(PileupColumn::depth).max().unwrap_or(0);
        (*depth_bound >= params.max_depth).then_some(params.max_depth)
    };
    // One base per column at most: the bound stays a bound.
    *depth_bound += 1;
    let kernel = RunKernel {
        strand: usize::from(rec.flags.is_reverse()) << 2,
        n_bins: dict.len(),
        bin_cutoff,
        cap,
    };
    let front_pos = ring.front().expect("span is non-empty").pos;
    let (head, tail) = ring.as_mut_slices();
    let (packed, bins) = (block.packed_bases(rec), block.bins(rec));
    // The cursor validated `pos + Σ ref_len` and `Σ query_len = read_len`,
    // so neither cursor overflows and every run slice is in bounds.
    let (mut ref_pos, mut query) = (rec.pos, 0usize);
    for op in block.ops(rec) {
        match op {
            CigarOp::Match(n) => {
                let lo = ref_pos.max(region.start);
                let hi = (ref_pos + n).min(region.end);
                if lo < hi {
                    let q = query + (lo - ref_pos) as usize;
                    let len = (hi - lo) as usize;
                    let col = (lo - front_pos) as usize;
                    // The ring's wrap point splits the run at most once.
                    let in_head = head.len().saturating_sub(col).min(len);
                    if in_head > 0 {
                        kernel.stack(
                            &mut head[col..col + in_head],
                            packed,
                            q,
                            &bins[q..q + in_head],
                        );
                    }
                    if in_head < len {
                        let t = col + in_head - head.len();
                        kernel.stack(
                            &mut tail[t..t + len - in_head],
                            packed,
                            q + in_head,
                            &bins[q + in_head..q + len],
                        );
                    }
                }
                ref_pos += n;
                query += n as usize;
            }
            CigarOp::Ins(n) | CigarOp::SoftClip(n) => query += n as usize,
            CigarOp::Del(n) => ref_pos += n,
        }
    }
}

/// What every base of one record shares.
struct RunKernel {
    /// `4` on the reverse strand: the group's strand bit.
    strand: usize,
    /// Bins per counter row of the file's dictionary.
    n_bins: usize,
    /// Bins at or past this fail `min_baseq`.
    bin_cutoff: u8,
    /// `Some(max_depth)` when a column may already be at the cap.
    cap: Option<usize>,
}

impl RunKernel {
    /// Stack one clamped `M` run: read base `q + i` of the 2-bit `packed`
    /// read, with bin `bins[i]`, lands on `cols[i]`. The bases are
    /// unpacked [`RUN_CHUNK`] at a time into a stack buffer.
    #[inline]
    fn stack(&self, cols: &mut [PileupColumn], packed: &[u8], q: usize, bins: &[u8]) {
        let mut buf = [0u8; RUN_CHUNK];
        for (i, (cols, bins)) in cols
            .chunks_mut(RUN_CHUNK)
            .zip(bins.chunks(RUN_CHUNK))
            .enumerate()
        {
            let bases = &mut buf[..cols.len()];
            unpack_2bit(packed, q + i * RUN_CHUNK, bases);
            match self.cap {
                None => self.stack_run::<false>(cols, bases, bins, 0),
                Some(max_depth) => self.stack_run::<true>(cols, bases, bins, max_depth),
            }
        }
    }

    #[inline(always)]
    fn stack_run<const CAPPED: bool>(
        &self,
        cols: &mut [PileupColumn],
        bases: &[u8],
        bins: &[u8],
        max_depth: usize,
    ) {
        for ((col, &base), &bin) in cols.iter_mut().zip(bases).zip(bins) {
            if bin < self.bin_cutoff {
                let slot = (self.strand | base as usize) * self.n_bins + bin as usize;
                if CAPPED {
                    col.stack_capped(slot, max_depth);
                } else {
                    col.stack(slot);
                }
            }
        }
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
                            self.absorb_pending();
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
                    if self.ring.is_empty() {
                        // Nothing left for the bound to cover.
                        self.depth_bound = 0;
                    }
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
    use ultravc_bamlite::{BalWriter, Cigar, Flags, Record};
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
        // each block after its last planned consumer.
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
        assert_eq!(cache.resident_blocks(), 0, "every block was released");
    }

    #[test]
    fn columns_recycled_across_files_are_rekeyed() {
        // Two quality dictionaries of different widths: a buffer keyed by
        // the first must not be read against the second's bins.
        let a = file(vec![
            mk(0, 0, b"ACGTAC", 30, Flags::none()),
            mk(1, 1, b"ACGTA", 20, Flags::REVERSE),
        ]);
        let b = file(vec![
            mk(0, 2, b"GGTTAA", 41, Flags::none()),
            mk(1, 3, b"CCAA", 12, Flags::REVERSE),
            mk(2, 3, b"AC", 37, Flags::none()),
        ]);
        assert_ne!(a.quality_dict().len(), b.quality_dict().len());
        let params = PileupParams::default();
        let want: Vec<_> = pileup_region(&b, 0, 100, params).collect();
        let mut iter = pileup_region(&b, 0, 100, params);
        for col in pileup_region(&a, 0, 100, params) {
            iter.recycle(col);
        }
        let got: Vec<_> = iter.by_ref().collect();
        assert_eq!(got, want);
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(g.quality_bins(), w.quality_bins());
            assert_eq!(g.n_bins(), b.quality_dict().len());
        }
    }

    /// Naive stacker: every record's aligned bases, one at a time, onto
    /// per-position columns — no ring, cursor, `M`-run kernel or 2-bit
    /// unpacking.
    fn naive_columns(
        records: &[Record],
        region: std::ops::Range<u32>,
        params: PileupParams,
    ) -> Vec<PileupColumn> {
        let mut columns = std::collections::BTreeMap::new();
        for r in records {
            if (params.skip_flagged && r.flags.is_filtered()) || r.mapq < params.min_mapq {
                continue;
            }
            for (rp, base, qual) in r.aligned_bases() {
                if region.contains(&rp) && qual.0 >= params.min_baseq {
                    let entry = crate::column::PileupEntry {
                        base,
                        qual,
                        reverse: r.flags.is_reverse(),
                    };
                    columns
                        .entry(rp)
                        .or_insert_with(|| PileupColumn::new(rp))
                        .push_capped(entry, params.max_depth);
                }
            }
        }
        columns.into_values().filter(|c| !c.is_empty()).collect()
    }

    #[test]
    fn regions_at_every_read_phase_match_a_naive_stacker() {
        // Odd read lengths, and CIGARs that put soft clips, insertions and
        // deletions ahead of where a region clamps the `M` run, so the
        // clamp lands on every 2-bit phase of the packed read in both
        // reference and query coordinates.
        let shapes = [
            "13M",
            "3S10M",
            "2M2I9M",
            "4M3D9M",
            "1S3M1I4M2D4M",
            "27M",
            "5S95M1S",
        ];
        let mut records = Vec::new();
        for (i, shape) in shapes.iter().enumerate() {
            let cigar = Cigar::parse(shape).unwrap();
            let n = cigar.query_len() as usize;
            let bases: Vec<u8> = (0..n).map(|j| b"ACGTTGCA"[(i + j * 3) % 8]).collect();
            let quals: Vec<Phred> = (0..n)
                .map(|j| Phred::new(2 + ((i * 7 + j * 5) % 39) as u8))
                .collect();
            let flags = if i % 2 == 1 {
                Flags::REVERSE
            } else {
                Flags::none()
            };
            let seq = Seq::from_ascii(&bases).unwrap();
            records.push(
                Record::new(i as u64, 100 + i as u32 % 3, 60, flags, seq, quals, cigar).unwrap(),
            );
        }
        records.sort_by_key(|r| r.pos);
        for (i, r) in records.iter_mut().enumerate() {
            r.id = i as u64;
        }
        let mut w = BalWriter::with_block_capacity(3);
        for r in records.iter().cloned() {
            w.push(r).unwrap();
        }
        let f = w.finish();
        let stored = f.reader().records().unwrap();
        assert_eq!(stored, records);
        let params = PileupParams {
            min_baseq: 0,
            ..PileupParams::default()
        };
        for offset in 0..16u32 {
            for width in [1u32, 2, 3, 5, 9, 40, 200] {
                let region = 100 + offset..100 + offset + width;
                let want = naive_columns(&stored, region.clone(), params);
                let plain: Vec<_> = pileup_region(&f, region.start, region.end, params).collect();
                assert_eq!(plain, want, "pileup_region over {region:?}");
                let cache = Arc::new(SharedBlockCache::new(f.clone()));
                let shared: Vec<_> = windowed(&cache, std::slice::from_ref(&region), params)
                    .remove(0)
                    .collect();
                assert_eq!(shared, want, "pileup_region_windowed over {region:?}");
            }
        }
    }

    #[test]
    fn warmed_iterator_reuses_its_buffers() {
        // The first block holds the longest reads, so every later block
        // fits the buffers it warmed: a reused buffer keeps the first
        // block's capacity, a fresh one would shrink to its own block.
        let mut w = BalWriter::with_block_capacity(8);
        for i in 0..64u32 {
            let len = if i < 8 { 90 } else { 30 };
            let bases: Vec<u8> = (0..len).map(|j| b"ACGT"[((i + j) % 4) as usize]).collect();
            let seq = Seq::from_ascii(&bases).unwrap();
            let quals = (0..len).map(|j| Phred::new(10 + (j % 30) as u8)).collect();
            w.push(Record::full_match(i as u64, i, 60, Flags::none(), seq, quals).unwrap())
                .unwrap();
        }
        let path =
            std::env::temp_dir().join(format!("ultravc-engine-warmed-{}.bal", std::process::id()));
        w.finish().write_to(&path).unwrap();
        let disk = BalFile::open(&path).unwrap();
        let index = disk.index();
        assert!(index[1..].iter().all(|m| m.len < index[0].len));
        let params = PileupParams::default();
        let plan = ultravc_bamlite::IoPlan::for_regions(&disk, std::slice::from_ref(&(0..200)));
        let cache = Arc::new(SharedBlockCache::for_plan(disk.clone(), &plan));
        for (what, mut iter) in [
            ("pileup_region", pileup_region(&disk, 0, 200, params)),
            (
                "pileup_region_windowed",
                pileup_region_windowed(&cache, plan.window(0), params),
            ),
        ] {
            let mut warmed = None;
            let mut blocks_seen = 0;
            while let Some(col) = iter.next() {
                iter.recycle(col);
                let streams = iter.block.as_ref().map_or(0, |b| b.capacity());
                let caps = (streams, iter.bufs.read_capacity());
                match iter.next_block {
                    1 => warmed = Some(caps),
                    n => {
                        assert_eq!(Some(caps), warmed, "{what}: block {}", n - 1);
                        blocks_seen = n;
                    }
                }
            }
            assert!(iter.take_error().is_none());
            assert_eq!(blocks_seen, disk.n_blocks(), "{what}: every block walked");
            let (streams, read) = warmed.expect("block 0 was read");
            assert!(
                streams > 0 && read >= index[0].len,
                "{what}: {streams} / {read}"
            );
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn depth_bound_is_retightened_below_the_cap() {
        // Forty overlapping reads, two deep at every interior column: the
        // per-record bound reaches a cap of 3 after three records, and each
        // ring scan brings it back to the true maximum, so no column is
        // ever capped and the bound never runs away.
        let records: Vec<Record> = (0..40)
            .map(|i| mk(i, 2 * i as u32, b"ACGT", 30, Flags::none()))
            .collect();
        let f = file(records);
        let params = PileupParams {
            max_depth: 3,
            ..PileupParams::default()
        };
        let mut iter = pileup_region(&f, 0, 200, params);
        let mut depths = Vec::new();
        while let Some(col) = iter.next() {
            assert!(iter.depth_bound <= 3, "bound {}", iter.depth_bound);
            assert!(!col.truncated());
            depths.push(col.depth());
        }
        assert_eq!(depths.len(), 82);
        assert!(depths[2..80].iter().all(|&d| d == 2));
    }
}
