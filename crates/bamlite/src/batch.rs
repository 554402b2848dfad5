//! Quality dictionaries, the record-batch materialization, and the shared
//! decoded-block cache.
//!
//! * [`QualityDict`] is the per-file spectrum of distinct Phred scores,
//!   sorted descending (= ascending error probability). BAL blocks store
//!   each base's quality as its dictionary index, so the pileup layer can
//!   stack bin ids directly and derive its `min_baseq` filter from a
//!   single index comparison.
//! * [`SharedBlockCache`] reads and decompresses each block of a file
//!   **exactly once per run** and hands out its [`BlockStreams`], so
//!   parallel workers whose column chunks straddle a block boundary no
//!   longer re-read the boundary block — the duplicated "decompression"
//!   work the Figure 2 trace used to over-attribute. Consumers walk the
//!   streams with their own [`RecordCursor`](crate::RecordCursor).
//! * [`RecordBatch`] materializes a whole block as flat arenas — unpacked
//!   base codes, per-base quality-bin indices, CIGAR ops — with records as
//!   `(offset, len)` views ([`RecordView`]). It is built by the same
//!   cursor walk, so it makes the same checks; re-decoding a block into a
//!   warmed batch performs **zero** allocations. The pileup does not use
//!   it; whole-record consumers ([`crate::BalReader::records`]) and the
//!   benchmark's decode pass do.

use crate::cigar::{Cigar, CigarOp};
use crate::cursor::{fill_block, unpack_2bit, BlockBuffers, BlockStreams};
use crate::file::{BalFile, DecodeStats};
use crate::record::{Flags, Record};
use crate::BalError;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use ultravc_genome::alphabet::Base;
use ultravc_genome::phred::{Phred, MAX_PHRED};
use ultravc_genome::sequence::Seq;

/// Number of representable Phred scores; a spilled dictionary has one bin
/// per score.
pub const QUAL_SLOTS: usize = MAX_PHRED as usize + 1;

/// Learned-dictionary capacity. Real Illumina spectra fit in a handful of
/// plateaus and simulated ones in ≤ ~25 values; a file whose spectrum
/// exceeds this spills to the identity mapping instead of failing.
pub const QUALITY_DICT_CAP: usize = 40;

/// A file's quality spectrum: the distinct Phred scores it contains,
/// sorted descending (so ascending error probability), each addressed by
/// its **bin index**.
///
/// BAL payloads store per-base qualities as bin indices against this
/// dictionary. Sorting descending buys two things downstream:
///
/// * a `min_baseq` filter is a single comparison against a precomputed
///   cutoff index (bins `>= cutoff` are exactly the too-low qualities);
/// * the pileup layer's `(probability, multiplicity)` bins come out
///   pre-sorted without a per-column re-sort.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QualityDict {
    /// Distinct scores, strictly descending.
    quals: Vec<Phred>,
    /// Clamped Phred score → bin index (undefined entries point at 0 and
    /// are never consulted for scores absent from the spectrum).
    bin_table: [u8; QUAL_SLOTS],
    /// Whether the observed spectrum exceeded [`QUALITY_DICT_CAP`] and the
    /// dictionary fell back to the identity mapping.
    spilled: bool,
}

impl QualityDict {
    /// Build from a per-score occurrence histogram (index = clamped Phred
    /// score). Spectra wider than [`QUALITY_DICT_CAP`] spill to the
    /// identity mapping: one bin per representable score, bin `b` holding
    /// `Phred(MAX_PHRED − b)`.
    pub fn from_histogram(counts: &[u64; QUAL_SLOTS]) -> QualityDict {
        let distinct = counts.iter().filter(|&&n| n > 0).count();
        let spilled = distinct > QUALITY_DICT_CAP;
        let quals: Vec<Phred> = (0..QUAL_SLOTS)
            .rev()
            .filter(|&q| spilled || counts[q] > 0)
            .map(|q| Phred(q as u8))
            .collect();
        QualityDict::from_sorted(quals, spilled)
    }

    /// The identity mapping a spilled file uses: one bin per representable
    /// score, bin `b` holding `Phred(MAX_PHRED − b)`.
    pub fn identity() -> QualityDict {
        QualityDict::from_sorted((0..=MAX_PHRED).rev().map(Phred).collect(), true)
    }

    fn from_sorted(quals: Vec<Phred>, spilled: bool) -> QualityDict {
        debug_assert!(quals.windows(2).all(|w| w[0] > w[1]), "strictly descending");
        let mut bin_table = [0u8; QUAL_SLOTS];
        for (bin, q) in quals.iter().enumerate() {
            bin_table[q.0 as usize] = bin as u8;
        }
        QualityDict {
            quals,
            bin_table,
            spilled,
        }
    }

    /// Rebuild from serialized score bytes (strictly descending). Used by
    /// the file parser; rejects malformed dictionaries.
    pub(crate) fn from_bytes(quals: &[u8], spilled: bool) -> Result<QualityDict, BalError> {
        if quals.len() > QUAL_SLOTS {
            return Err(BalError::Corrupt("quality dict too large"));
        }
        if !quals.windows(2).all(|w| w[0] > w[1]) {
            return Err(BalError::Corrupt("quality dict not strictly descending"));
        }
        if quals.iter().any(|&q| q > MAX_PHRED) {
            return Err(BalError::Corrupt("quality dict score out of range"));
        }
        Ok(QualityDict::from_sorted(
            quals.iter().map(|&q| Phred(q)).collect(),
            spilled,
        ))
    }

    /// Number of bins (distinct scores).
    #[inline]
    pub fn len(&self) -> usize {
        self.quals.len()
    }

    /// Whether the dictionary is empty (a file with no records).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.quals.is_empty()
    }

    /// Whether construction spilled to the identity mapping.
    pub fn spilled(&self) -> bool {
        self.spilled
    }

    /// The scores, strictly descending — bin index → Phred.
    #[inline]
    pub fn quals(&self) -> &[Phred] {
        &self.quals
    }

    /// The score a bin index stands for. Panics on an out-of-range bin
    /// (the decoder validates indices before they reach consumers).
    #[inline]
    pub fn phred(&self, bin: u8) -> Phred {
        self.quals[bin as usize]
    }

    /// The bin index of a (clamped) score. Only meaningful for scores in
    /// the spectrum; the writer consults it exactly for those.
    #[inline]
    pub fn bin_of(&self, q: Phred) -> u8 {
        self.bin_table[(q.0 as usize).min(MAX_PHRED as usize)]
    }

    /// Number of leading bins whose score is `>= min_q` — the `min_baseq`
    /// filter cutoff: a base passes iff its bin index is below this.
    pub fn bins_at_least(&self, min_q: u8) -> u8 {
        self.quals.iter().take_while(|q| q.0 >= min_q).count() as u8
    }
}

/// Per-record metadata inside a [`RecordBatch`]: fixed-width fields plus
/// `(offset, len)` spans into the shared arenas.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct RecMeta {
    pub id: u64,
    pub pos: u32,
    pub end_pos: u32,
    pub seq_off: u32,
    pub seq_len: u32,
    pub cig_off: u32,
    pub cig_len: u32,
    pub mapq: u8,
    pub flags: Flags,
}

/// One decoded block as flat arenas: every record's bases, quality-bin
/// indices and CIGAR ops live in shared arrays, addressed by per-record
/// `(offset, len)` spans. Re-filling a warmed batch allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct RecordBatch {
    recs: Vec<RecMeta>,
    /// Unpacked base codes (one byte per base, [`Base::code`] values).
    bases: Vec<u8>,
    /// CIGAR operations, all records back to back.
    ops: Vec<CigarOp>,
    /// The block's decompressed streams. Their qual stream *is* the bins
    /// arena: it concatenates every record's bin indices in record order,
    /// parallel to `bases`.
    streams: BlockStreams,
    /// Payload read buffer for an on-disk file, kept warmed like the
    /// arenas. Not part of the batch's value (see `PartialEq`).
    read: Vec<u8>,
}

/// Batches compare by decoded content only — the read buffer and the
/// streams' other buffers are the decoder's scratch.
impl PartialEq for RecordBatch {
    fn eq(&self, other: &RecordBatch) -> bool {
        self.recs == other.recs
            && self.bases == other.bases
            && self.streams.qual() == other.streams.qual()
            && self.ops == other.ops
    }
}

impl RecordBatch {
    /// An empty batch.
    pub fn new() -> RecordBatch {
        RecordBatch::default()
    }

    /// Remove all records, keeping the arena allocations.
    pub fn clear(&mut self) {
        self.recs.clear();
        self.bases.clear();
        self.ops.clear();
        self.streams.clear();
    }

    /// Number of records.
    #[inline]
    pub fn len(&self) -> usize {
        self.recs.len()
    }

    /// Whether the batch holds no records.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.recs.is_empty()
    }

    /// Total bases across all records.
    pub fn n_bases(&self) -> usize {
        self.bases.len()
    }

    /// View of record `i`. Panics when out of range.
    #[inline]
    pub fn view(&self, i: usize) -> RecordView<'_> {
        let m = &self.recs[i];
        let (s0, s1) = (m.seq_off as usize, (m.seq_off + m.seq_len) as usize);
        let (c0, c1) = (m.cig_off as usize, (m.cig_off + m.cig_len) as usize);
        RecordView {
            meta: m,
            bases: &self.bases[s0..s1],
            bins: &self.streams.qual()[s0..s1],
            ops: &self.ops[c0..c1],
        }
    }

    /// Iterate all record views.
    pub fn views(&self) -> impl Iterator<Item = RecordView<'_>> + '_ {
        (0..self.len()).map(move |i| self.view(i))
    }

    /// Read and decompress block `i` of `file` into the batch's streams,
    /// dropping the previous block's records.
    pub(crate) fn read_block(&mut self, file: &BalFile, i: usize) -> Result<(), BalError> {
        self.clear();
        fill_block(file, i, &mut self.streams, &mut self.read)
    }

    /// Walk the streams [`RecordBatch::read_block`] filled with a
    /// [`RecordCursor`](crate::RecordCursor) and materialize every record
    /// into the arenas. On error the batch holds the records before the
    /// failing one.
    pub(crate) fn materialize(&mut self) -> Result<(), BalError> {
        let Self {
            recs,
            bases,
            ops,
            streams,
            ..
        } = self;
        recs.reserve(streams.len());
        let mut cursor = streams.cursor();
        while let Some(r) = cursor.next(streams)? {
            let (seq_off, cig_off) = (bases.len(), ops.len());
            ops.extend(streams.ops(&r));
            bases.resize(seq_off + r.seq_len as usize, 0);
            unpack_2bit(streams.packed_bases(&r), 0, &mut bases[seq_off..]);
            // Both offsets index arenas no longer than their streams,
            // which the decoder bounds far below `u32::MAX`.
            recs.push(RecMeta {
                id: r.id,
                pos: r.pos,
                end_pos: r.end_pos,
                seq_off: seq_off as u32,
                seq_len: r.seq_len,
                cig_off: cig_off as u32,
                cig_len: r.n_ops,
                mapq: r.mapq,
                flags: r.flags,
            });
        }
        Ok(())
    }
}

/// A zero-copy view of one record inside a [`RecordBatch`].
#[derive(Debug, Clone, Copy)]
pub struct RecordView<'a> {
    meta: &'a RecMeta,
    bases: &'a [u8],
    bins: &'a [u8],
    ops: &'a [CigarOp],
}

impl<'a> RecordView<'a> {
    /// Read identifier.
    #[inline]
    pub fn id(&self) -> u64 {
        self.meta.id
    }

    /// 0-based leftmost reference position.
    #[inline]
    pub fn pos(&self) -> u32 {
        self.meta.pos
    }

    /// Mapping quality.
    #[inline]
    pub fn mapq(&self) -> u8 {
        self.meta.mapq
    }

    /// Flag bits.
    #[inline]
    pub fn flags(&self) -> Flags {
        self.meta.flags
    }

    /// Number of read bases.
    #[inline]
    pub fn read_len(&self) -> usize {
        self.bases.len()
    }

    /// Exclusive end position on the reference (precomputed at decode).
    #[inline]
    pub fn end_pos(&self) -> u32 {
        self.meta.end_pos
    }

    /// Unpacked base codes.
    #[inline]
    pub fn base_codes(&self) -> &'a [u8] {
        self.bases
    }

    /// Per-base quality-bin indices.
    #[inline]
    pub fn bin_indices(&self) -> &'a [u8] {
        self.bins
    }

    /// CIGAR operations.
    #[inline]
    pub fn cigar_ops(&self) -> &'a [CigarOp] {
        self.ops
    }

    /// Materialize an owned [`Record`], resolving bin indices through the
    /// dictionary — what [`crate::BalReader::records`] is built on.
    pub fn to_record(&self, dict: &QualityDict) -> Record {
        let seq = Seq::from_bases(self.bases.iter().map(|&c| Base::from_code(c)));
        let quals: Vec<Phred> = self.bins.iter().map(|&b| dict.phred(b)).collect();
        Record::new(
            self.meta.id,
            self.meta.pos,
            self.meta.mapq,
            self.meta.flags,
            seq,
            quals,
            Cigar(self.ops.to_vec()),
        )
        .expect("batch records were validated at decode")
    }
}

/// One cache slot: the decompressed streams (or their read failure) plus
/// the number of outstanding expected requests before they can be
/// dropped.
#[derive(Debug)]
struct Slot {
    state: Mutex<SlotState>,
    /// Requests still expected for this block (`u32::MAX` = unbounded:
    /// keep the streams for the cache's whole lifetime).
    remaining: AtomicU32,
}

#[derive(Debug)]
enum SlotState {
    Empty,
    Ready(Arc<BlockStreams>),
    Failed(String),
    /// All expected requests served; the streams have been released.
    Retired,
}

/// A run-scoped decode-once cache over a file's blocks: each block is read
/// and decompressed once per run, and every consumer walks the shared
/// [`BlockStreams`] with its own cursor.
///
/// Parallel workers whose column chunks overlap the same block race to
/// decode it; exactly one wins (the slot mutex serializes the first
/// decode), everyone else gets the shared `Arc`. [`SharedBlockCache::get`]
/// reports whether *this* call performed the decode — and at what cost —
/// so per-worker [`DecodeStats`] sum to the true whole-run decode work
/// instead of multiply counting boundary blocks.
///
/// **Memory.** Built with [`SharedBlockCache::for_plan`], each slot
/// knows how many region iterators will request it and **releases its
/// streams after the last one** (requesters keep their own `Arc` while
/// absorbing, and the last holder recycles the buffers), so peak
/// residency is bounded by the blocks of in-flight chunks, not the whole
/// file. [`SharedBlockCache::new`] keeps every block for the cache's
/// lifetime — only appropriate for short runs and tests.
#[derive(Debug)]
pub struct SharedBlockCache {
    file: BalFile,
    slots: Vec<Slot>,
    decoded: AtomicU32,
}

impl SharedBlockCache {
    /// A cache with one empty slot per block of `file`, retaining every
    /// decompressed block until the cache is dropped.
    pub fn new(file: BalFile) -> SharedBlockCache {
        SharedBlockCache::with_expected(file, None)
    }

    /// A cache for a run whose workers will pile up exactly the regions
    /// of a prepared [`IoPlan`](crate::IoPlan): each block's streams are
    /// released as soon as every window listing it has requested it once.
    /// (A region iterator requests each of its window's blocks exactly
    /// once; extra requests after retirement fall back to an uncached
    /// decode rather than failing.)
    pub fn for_plan(file: BalFile, plan: &crate::plan::IoPlan) -> SharedBlockCache {
        let mut expected = vec![0u32; file.n_blocks()];
        for window in plan.windows() {
            for &b in window.blocks() {
                if let Some(slot) = expected.get_mut(b) {
                    *slot += 1;
                }
            }
        }
        SharedBlockCache::with_expected(file, Some(expected))
    }

    fn with_expected(file: BalFile, expected: Option<Vec<u32>>) -> SharedBlockCache {
        let slots = (0..file.n_blocks())
            .map(|i| Slot {
                state: Mutex::new(SlotState::Empty),
                remaining: AtomicU32::new(expected.as_ref().map_or(u32::MAX, |e| e[i])),
            })
            .collect();
        SharedBlockCache {
            file,
            slots,
            decoded: AtomicU32::new(0),
        }
    }

    /// The underlying file.
    pub fn file(&self) -> &BalFile {
        &self.file
    }

    /// Block `i`'s decompressed streams, reading them if this is its first
    /// request. `Some(stats)` reports the read this call performed; `None`
    /// means another request (possibly on another thread) already paid
    /// for it. The streams are only decompressed: walk them with
    /// [`BlockStreams::cursor`] to get (and check) the records.
    pub fn get(&self, i: usize) -> Result<(Arc<BlockStreams>, Option<DecodeStats>), BalError> {
        self.get_with(i, &mut BlockBuffers::new())
    }

    /// [`SharedBlockCache::get`], reading through `bufs` when this call
    /// performs the read: its payload buffer, and the stream buffers of a
    /// block its owner recycled ([`BlockBuffers::recycle`]).
    pub fn get_with(
        &self,
        i: usize,
        bufs: &mut BlockBuffers,
    ) -> Result<(Arc<BlockStreams>, Option<DecodeStats>), BalError> {
        let slot = self
            .slots
            .get(i)
            .ok_or(BalError::Corrupt("block index out of range"))?;
        // A panic while decoding (e.g. an injected worker fault) poisons
        // the slot mutex but leaves the state machine coherent — the slot
        // is still whatever it was before the panicking decode — so
        // recover the guard instead of cascading the abort.
        let mut state = slot
            .state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let (streams, performed) = match &*state {
            SlotState::Ready(streams) => (Arc::clone(streams), None),
            SlotState::Failed(msg) => {
                return Err(BalError::BadRecord(format!("cached block decode: {msg}")));
            }
            SlotState::Empty | SlotState::Retired => {
                // First request — or a request beyond the expected count
                // after retirement (caller declared fewer regions than it
                // ran): decode here. Retired slots stay retired.
                let retired = matches!(*state, SlotState::Retired);
                match self.decode(i, bufs) {
                    Ok((streams, stats)) => {
                        if !retired {
                            *state = SlotState::Ready(Arc::clone(&streams));
                        }
                        (streams, Some(stats))
                    }
                    Err(e) => {
                        // An interruption is the *run* stopping, not the
                        // block failing: leave the slot Empty so a later
                        // (uncancelled) run over the same cache could
                        // still decode it.
                        if !retired && !matches!(e, BalError::Interrupted(_)) {
                            *state = SlotState::Failed(e.to_string());
                        }
                        return Err(e);
                    }
                }
            }
        };
        // Count this request down; after the last expected one, release
        // the streams (we and any concurrent absorbers still hold Arcs).
        if slot.remaining.load(Ordering::Relaxed) != u32::MAX
            && slot.remaining.fetch_sub(1, Ordering::Relaxed) == 1
        {
            *state = SlotState::Retired;
        }
        Ok((streams, performed))
    }

    fn decode(
        &self,
        i: usize,
        bufs: &mut BlockBuffers,
    ) -> Result<(Arc<BlockStreams>, DecodeStats), BalError> {
        let t0 = Instant::now();
        let streams = bufs.read_block(&self.file, i)?;
        let stats = DecodeStats {
            blocks: 1,
            bytes_in: self.file.index()[i].len as u64,
            records_out: streams.len() as u64,
            decode_time: t0.elapsed(),
        };
        self.decoded.fetch_add(1, Ordering::Relaxed);
        Ok((streams, stats))
    }

    /// How many block decodes the cache has performed so far.
    pub fn decoded_blocks(&self) -> usize {
        self.decoded.load(Ordering::Relaxed) as usize
    }

    /// How many decompressed blocks the cache currently holds.
    pub fn resident_blocks(&self) -> usize {
        self.slots
            .iter()
            .filter(|s| {
                matches!(
                    *s.state
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner),
                    SlotState::Ready(_)
                )
            })
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::file::BalWriter;

    fn mk_record(id: u64, pos: u32, bases: &[u8], quals: &[u8]) -> Record {
        let seq = Seq::from_ascii(bases).unwrap();
        let quals: Vec<Phred> = quals.iter().map(|&q| Phred::new(q)).collect();
        Record::full_match(id, pos, 60, Flags::none(), seq, quals).unwrap()
    }

    fn sample_records(n: usize) -> Vec<Record> {
        (0..n)
            .map(|i| {
                let quals: Vec<u8> = (0..16).map(|j| 20 + ((i + j) % 20) as u8).collect();
                mk_record(i as u64, (i * 3) as u32, b"ACGTACGTACGTACGT", &quals)
            })
            .collect()
    }

    #[test]
    fn dict_from_histogram_sorted_descending() {
        let mut counts = [0u64; QUAL_SLOTS];
        counts[20] = 5;
        counts[40] = 1;
        counts[30] = 100;
        let dict = QualityDict::from_histogram(&counts);
        assert_eq!(dict.len(), 3);
        assert!(!dict.spilled());
        assert_eq!(
            dict.quals(),
            &[Phred(40), Phred(30), Phred(20)],
            "descending"
        );
        assert_eq!(dict.bin_of(Phred(40)), 0);
        assert_eq!(dict.bin_of(Phred(30)), 1);
        assert_eq!(dict.bin_of(Phred(20)), 2);
        assert_eq!(dict.phred(1), Phred(30));
    }

    #[test]
    fn dict_min_baseq_cutoff() {
        let mut counts = [0u64; QUAL_SLOTS];
        for q in [2u8, 10, 20, 30] {
            counts[q as usize] = 1;
        }
        let dict = QualityDict::from_histogram(&counts);
        // Bins: Q30, Q20, Q10, Q2. min_baseq=3 keeps the first three.
        assert_eq!(dict.bins_at_least(3), 3);
        assert_eq!(dict.bins_at_least(0), 4);
        assert_eq!(dict.bins_at_least(31), 0);
        // The cutoff is exactly the per-score `q >= min_baseq` predicate.
        for (bin, q) in dict.quals().iter().enumerate() {
            assert_eq!((bin as u8) < dict.bins_at_least(3), q.0 >= 3);
        }
    }

    #[test]
    fn dict_spills_past_cap() {
        let mut counts = [0u64; QUAL_SLOTS];
        for q in 0..(QUALITY_DICT_CAP + 1) {
            counts[q * 2] = 1; // 41 distinct scores
        }
        let dict = QualityDict::from_histogram(&counts);
        assert!(dict.spilled());
        assert_eq!(dict.len(), QUAL_SLOTS, "spill falls back to identity");
        // Identity mapping: bin b ↔ Phred(MAX_PHRED − b), and bin_of
        // inverts it over every representable score.
        for b in 0..QUAL_SLOTS {
            assert_eq!(dict.phred(b as u8), Phred(MAX_PHRED - b as u8));
        }
        for q in 0..=MAX_PHRED {
            assert_eq!(dict.phred(dict.bin_of(Phred(q))), Phred(q));
        }
        assert_eq!(dict, QualityDict::identity());
    }

    #[test]
    fn dict_from_bytes_validates() {
        assert!(QualityDict::from_bytes(&[40, 30, 20], false).is_ok());
        assert!(QualityDict::from_bytes(&[30, 30], false).is_err(), "dupes");
        assert!(
            QualityDict::from_bytes(&[20, 30], false).is_err(),
            "ascending"
        );
        assert!(
            QualityDict::from_bytes(&[94], false).is_err(),
            "out of range"
        );
        assert!(QualityDict::from_bytes(&[], false).is_ok(), "empty file");
    }

    #[test]
    fn batch_views_materialize_the_written_records() {
        let records = sample_records(100);
        let file = BalFile::from_records(records.clone()).unwrap();
        let mut batch = RecordBatch::new();
        let mut got = Vec::new();
        let mut reader = file.reader();
        for i in 0..file.n_blocks() {
            reader.decode_batch(i, &mut batch).unwrap();
            got.extend(batch.views().map(|v| v.to_record(file.quality_dict())));
        }
        assert_eq!(got, records);
    }

    #[test]
    fn warmed_batch_does_not_reallocate() {
        let records = sample_records(200);
        let file = BalFile::from_records(records).unwrap();
        let mut batch = RecordBatch::new();
        let mut reader = file.reader();
        reader.decode_batch(0, &mut batch).unwrap();
        let caps = |b: &RecordBatch| {
            (
                b.recs.capacity(),
                b.bases.capacity(),
                b.ops.capacity(),
                b.streams.capacity(),
            )
        };
        let warmed = caps(&batch);
        reader.decode_batch(0, &mut batch).unwrap();
        assert_eq!(caps(&batch), warmed);
    }

    #[test]
    fn view_accessors_match_the_record() {
        let rec = mk_record(7, 100, b"ACGT", &[30, 20, 30, 40]);
        let file = BalFile::from_records(vec![rec.clone()]).unwrap();
        let mut batch = RecordBatch::new();
        file.reader().decode_batch(0, &mut batch).unwrap();
        assert_eq!(batch.len(), 1);
        let v = batch.view(0);
        assert_eq!(v.id(), 7);
        assert_eq!(v.pos(), 100);
        assert_eq!(v.mapq(), 60);
        assert_eq!(v.read_len(), 4);
        assert_eq!(v.end_pos(), 104);
        assert_eq!(v.cigar_ops(), rec.cigar.ops());
        let dict = file.quality_dict();
        let bases: Vec<Base> = v.base_codes().iter().map(|&c| Base::from_code(c)).collect();
        let quals: Vec<Phred> = v.bin_indices().iter().map(|&b| dict.phred(b)).collect();
        assert_eq!(bases, rec.seq.iter().collect::<Vec<_>>());
        assert_eq!(quals, rec.quals);
    }

    #[test]
    fn shared_cache_decodes_each_block_once() {
        let mut w = BalWriter::with_block_capacity(16);
        for rec in sample_records(100) {
            w.push(rec).unwrap();
        }
        let file = w.finish();
        let cache = Arc::new(SharedBlockCache::new(file.clone()));
        assert_eq!(cache.decoded_blocks(), 0);
        let n_blocks = file.n_blocks();
        let decodes: usize = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let cache = Arc::clone(&cache);
                    scope.spawn(move || {
                        let mut mine = 0usize;
                        for i in 0..n_blocks {
                            let (batch, performed) = cache.get(i).unwrap();
                            assert!(!batch.is_empty());
                            if performed.is_some() {
                                mine += 1;
                            }
                        }
                        mine
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).sum()
        });
        assert_eq!(decodes, n_blocks, "each block decoded exactly once");
        assert_eq!(cache.decoded_blocks(), n_blocks);
        assert!(cache.get(n_blocks).is_err(), "out of range rejected");
    }

    #[test]
    fn cache_hits_share_the_same_batch() {
        let file = BalFile::from_records(sample_records(10)).unwrap();
        let cache = SharedBlockCache::new(file);
        let (a, first) = cache.get(0).unwrap();
        let (b, second) = cache.get(0).unwrap();
        assert!(first.is_some_and(|s| s.blocks == 1));
        assert!(second.is_none(), "second request is a cache hit");
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn region_scoped_cache_releases_served_blocks() {
        let mut w = BalWriter::with_block_capacity(10);
        for rec in sample_records(100) {
            w.push(rec).unwrap();
        }
        let file = w.finish();
        let n_blocks = file.n_blocks();
        // Two regions covering everything: every block is expected twice.
        let regions = vec![0u32..150, 100..400];
        let plan = crate::IoPlan::for_regions(&file, &regions);
        let cache = SharedBlockCache::for_plan(file.clone(), &plan);
        for window in plan.windows() {
            for &b in window.blocks() {
                let (batch, _) = cache.get(b).unwrap();
                assert!(!batch.is_empty());
            }
        }
        assert_eq!(
            cache.resident_blocks(),
            0,
            "all expected requests served: every block released"
        );
        assert_eq!(cache.decoded_blocks(), n_blocks, "still decoded once each");
        // A straggler request past the declared count still works (fresh
        // uncached decode), it just pays for itself.
        let (batch, performed) = cache.get(0).unwrap();
        assert!(!batch.is_empty());
        assert!(performed.is_some(), "post-retirement request re-decodes");
    }

    #[test]
    fn degenerate_single_bin_spectrum() {
        let records: Vec<Record> = (0..10)
            .map(|i| mk_record(i, i as u32, b"ACGT", &[37; 4]))
            .collect();
        let file = BalFile::from_records(records.clone()).unwrap();
        let dict = file.quality_dict();
        assert_eq!(dict.len(), 1);
        assert_eq!(dict.phred(0), Phred(37));
        let mut batch = RecordBatch::new();
        file.reader().decode_batch(0, &mut batch).unwrap();
        let got: Vec<Record> = batch.views().map(|v| v.to_record(dict)).collect();
        assert_eq!(got, records);
    }
}
