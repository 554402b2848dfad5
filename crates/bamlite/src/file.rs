//! The BAL container: blocked storage, genomic index, per-thread readers.
//!
//! Layout:
//!
//! ```text
//! "BAL3" · block₀ · block₁ · … · index · dict · index_offset(u64 LE) · "BEND"
//! ```
//!
//! Each block is an independently decodable run of position-sorted records.
//! The index records every block's byte range plus its genomic extent
//! `[min_pos, max_end)`, so a region query touches only the blocks it must
//! — this is the `.bai` analogue that lets each worker thread of the
//! parallel caller jump straight to its partition with its own independent
//! reader. Index entries are sorted by `min_pos` — the parser rejects an
//! index that is not — which is what lets
//! [`BalFile::blocks_overlapping`] binary-search them.
//!
//! The *dict* section is the per-file [`QualityDict`], built at write time
//! from the observed quality spectrum; blocks store each base's quality as
//! its **bin index** into it, so decode hands the pileup layer pre-binned
//! qualities without a per-base Phred→probability translation.
//!
//! **Block payloads are columnar.** A payload is a record count, four
//! varint stream lengths, then four independently compressed streams laid
//! back to back:
//!
//! ```text
//! n_records · len(meta) · len(cigar) · len(base) · len(qual)
//!   · meta-stream · cigar-stream · base-stream · qual-stream
//! ```
//!
//! The *meta* stream interleaves the small per-record fields (position
//! delta, id, mapq, flags, cigar-op count, read length); the *cigar*
//! stream concatenates every record's ops; the *base* stream concatenates
//! each record's 2-bit packed codes (byte aligned per record); the *qual*
//! stream concatenates each record's qual-bin indices verbatim. Each
//! stream is wrapped in a [`crate::codec::compress_stream`] container
//! (raw / RLE / LZ — smallest wins, but only if it at least halves the
//! bytes; marginal winners stay raw so decode CPU is never spent on
//! sub-2× savings), so the redundant base and qual columns of an
//! ultra-deep viral stack crush while the decoder stays a bulk decompress
//! plus one linear [`RecordCursor`](crate::RecordCursor) walk over the
//! decompressed streams (see [`crate::cursor`]).
//!
//! This is the only format the workspace reads or writes. Files carrying
//! the retired `"BAL1"`/`"BAL2"` magics are refused with
//! [`BalError::UnsupportedVersion`]; every producer here is the simulator,
//! so such a file is re-simulated rather than converted.

use crate::batch::{QualityDict, RecordBatch, RecordView, QUAL_SLOTS};
use crate::codec::{compress_stream, get_varint, put_u64_le, put_varint};
use crate::cursor::{BlockBuffers, BlockStreams};
use crate::io::{fault::FaultPlan, ByteSource, IoBudget};
use crate::record::Record;
use crate::BalError;
use bytes::{Buf, Bytes};
use std::borrow::Cow;
use std::path::Path;
use std::sync::Arc;

const MAGIC: &[u8; 4] = b"BAL3";
/// The format version [`MAGIC`] names, as [`BalFile::version`] reports it.
const FORMAT_VERSION: u8 = 3;
const INDEX_MAGIC: &[u8; 4] = b"BIDX";
const DICT_MAGIC: &[u8; 4] = b"BDCT";
const END_MAGIC: &[u8; 4] = b"BEND";

/// Upper bound on a single read length accepted by the decoder; corrupt
/// length fields beyond this are rejected instead of allocated.
pub(crate) const MAX_READ_LEN: usize = 1 << 20;

/// Upper bound on one decompressed stream (per block). The decoder
/// refuses anything larger before allocating, and the writer splits blocks
/// whose estimated raw streams would approach it, so legitimate files
/// always decode and corrupt headers cannot size absurd allocations.
pub(crate) const MAX_STREAM_RAW: usize = 1 << 26;

/// Convert a varint-decoded count/length to `usize`, rejecting anything
/// past [`MAX_READ_LEN`]. The conversion happens **before** the bound
/// check, so a value that would wrap a 32-bit `usize` cannot sneak under
/// the cap.
#[inline]
pub(crate) fn checked_len(v: u64, what: &'static str) -> Result<usize, BalError> {
    usize::try_from(v)
        .ok()
        .filter(|&n| n <= MAX_READ_LEN)
        .ok_or(BalError::Corrupt(what))
}

/// Default records per block. Small enough that region queries stay tight,
/// large enough that per-block overhead is negligible.
pub const DEFAULT_BLOCK_CAPACITY: usize = 1024;

/// Index entry for one block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockMeta {
    /// Byte offset of the block payload within the file.
    pub offset: usize,
    /// Byte length of the block payload.
    pub len: usize,
    /// Smallest record start position in the block.
    pub min_pos: u32,
    /// Largest exclusive record end position in the block.
    pub max_end: u32,
    /// Number of records in the block.
    pub n_records: u32,
}

/// Decode-side accounting: how much compressed data was read and
/// decompressed, and how long that took. The driver's trace attributes
/// `decode_time` to the paper's Figure 2 "decompression" band; the record
/// walk that follows is iteration, not decompression (see
/// [`crate::cursor`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DecodeStats {
    /// Blocks read and decompressed.
    pub blocks: u64,
    /// Compressed payload bytes consumed.
    pub bytes_in: u64,
    /// Records those blocks declare — what a cursor walk over them yields
    /// when they are valid.
    pub records_out: u64,
    /// Wall time spent reading payloads and decompressing their streams.
    /// The record walk is not in it: the pileup walks records as it
    /// stacks them, and [`BalReader::decode_batch`]'s arena pass is timed
    /// by its caller.
    pub decode_time: std::time::Duration,
}

impl DecodeStats {
    /// Fold another accumulator in (per-thread stats reduction).
    pub fn merge(&mut self, other: &DecodeStats) {
        self.blocks += other.blocks;
        self.bytes_in += other.bytes_in;
        self.records_out += other.records_out;
        self.decode_time += other.decode_time;
    }
}

/// Raw-vs-stored accounting for one stream kind across a whole write.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamStats {
    /// Uncompressed stream bytes.
    pub raw: u64,
    /// Bytes as stored (compression container included).
    pub compressed: u64,
}

/// Write-side accounting from [`BalWriter::finish_with_stats`] — the
/// bytes/base and per-stream compression ratios the README quotes for
/// the Table-1 scenario.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WriterStats {
    /// Blocks written.
    pub blocks: u64,
    /// Records written.
    pub records: u64,
    /// Total read bases written.
    pub bases: u64,
    /// Total block payload bytes as stored.
    pub payload_bytes: u64,
    /// Per-stream accounting in payload order (meta, cigar, base, qual).
    pub streams: [StreamStats; 4],
}

impl WriterStats {
    /// Display names for [`WriterStats::streams`] entries, in order.
    pub const STREAM_NAMES: [&'static str; 4] = ["meta", "cigar", "base", "qual"];
}

/// An immutable BAL file. Cheap to clone (shared [`ByteSource`] + shared
/// index + shared dictionary), so every thread can hold its own handle.
///
/// The backing bytes live behind a [`ByteSource`]: wholly in memory
/// (writer output, [`BalFile::from_bytes`]) or read by range from an
/// open descriptor ([`BalFile::open`]); block payloads are pulled from
/// the source on demand, so a disk-backed ultra-deep file is never
/// copied whole into memory.
#[derive(Debug, Clone)]
pub struct BalFile {
    source: ByteSource,
    index: Arc<[BlockMeta]>,
    dict: Arc<QualityDict>,
    /// Supervision budget payload reads run under (`None` = direct reads,
    /// the pre-supervisor behaviour benches use as the overhead baseline).
    budget: Option<Arc<IoBudget>>,
}

/// Writer: push position-sorted records, receive a [`BalFile`].
///
/// The encoder needs the whole quality spectrum before it can assign bin
/// indices, so records are buffered and blocks are encoded at
/// [`BalWriter::finish`]. (Every producer in this workspace builds files
/// in memory anyway — the simulator, the CLI, the benches.)
#[derive(Debug)]
pub struct BalWriter {
    block_capacity: usize,
    records: Vec<Record>,
    prev_pos: Option<u32>,
}

impl BalWriter {
    /// Writer with the default block capacity.
    pub fn new() -> BalWriter {
        BalWriter::with_block_capacity(DEFAULT_BLOCK_CAPACITY)
    }

    /// Writer with an explicit records-per-block bound (≥ 1).
    pub fn with_block_capacity(block_capacity: usize) -> BalWriter {
        assert!(block_capacity >= 1, "block capacity must be positive");
        BalWriter {
            block_capacity,
            records: Vec::new(),
            prev_pos: None,
        }
    }

    /// Append a record; must be in non-decreasing position order.
    pub fn push(&mut self, rec: Record) -> Result<(), BalError> {
        if let Some(prev) = self.prev_pos {
            if rec.pos < prev {
                return Err(BalError::Unsorted {
                    prev,
                    next: rec.pos,
                });
            }
        }
        self.prev_pos = Some(rec.pos);
        self.records.push(rec);
        Ok(())
    }

    /// Finish the file: build the quality dictionary, encode blocks,
    /// index, dictionary section and trailer.
    pub fn finish(self) -> BalFile {
        self.finish_with_stats().0
    }

    /// [`BalWriter::finish`], also reporting write-side compression
    /// accounting (per-stream raw-vs-stored bytes).
    pub fn finish_with_stats(self) -> (BalFile, WriterStats) {
        let mut counts = [0u64; QUAL_SLOTS];
        for rec in &self.records {
            for q in &rec.quals {
                counts[(q.0 as usize).min(QUAL_SLOTS - 1)] += 1;
            }
        }
        let dict = QualityDict::from_histogram(&counts);
        let mut out = MAGIC.to_vec();
        // Block chunking: a records-per-block cap, plus a raw-byte budget
        // so no block's decompressed stream can approach the decoder's
        // [`MAX_STREAM_RAW`] cap. Normal inputs never trip the byte
        // budget.
        const RAW_BUDGET: u64 = (MAX_STREAM_RAW / 2) as u64;
        let mut bounds: Vec<(usize, usize)> = Vec::new();
        {
            let mut start = 0usize;
            let mut est = 0u64;
            for (i, rec) in self.records.iter().enumerate() {
                let rec_est = 2 * rec.seq.len() as u64 + 10 * rec.cigar.ops().len() as u64 + 32;
                if i - start >= self.block_capacity || (i > start && est + rec_est > RAW_BUDGET) {
                    bounds.push((start, i));
                    start = i;
                    est = 0;
                }
                est += rec_est;
            }
            if start < self.records.len() {
                bounds.push((start, self.records.len()));
            }
        }
        let mut stats = WriterStats::default();
        let mut metas = Vec::new();
        // Columnar stream scratch, reused across blocks.
        let (mut s_meta, mut s_cigar, mut s_base, mut s_qual) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        let mut packed_streams: Vec<u8> = Vec::new();
        for (bs, be) in bounds {
            let block = &self.records[bs..be];
            let offset = out.len();
            let min_pos = block.first().map(|r| r.pos).unwrap_or(0);
            let max_end = block.iter().map(Record::end_pos).max().unwrap_or(0);
            let n_records = block.len() as u32;
            let mut payload = Vec::new();
            put_varint(&mut payload, n_records as u64);
            let mut prev = 0u32;
            s_meta.clear();
            s_cigar.clear();
            s_base.clear();
            s_qual.clear();
            for rec in block {
                put_varint(&mut s_meta, (rec.pos - prev) as u64);
                prev = rec.pos;
                put_varint(&mut s_meta, rec.id);
                s_meta.push(rec.mapq);
                s_meta.push(rec.flags.0);
                put_varint(&mut s_meta, rec.cigar.ops().len() as u64);
                put_varint(&mut s_meta, rec.seq.len() as u64);
                for op in rec.cigar.ops() {
                    put_varint(&mut s_cigar, ((op.len() as u64) << 2) | op.code() as u64);
                }
                s_base.extend_from_slice(rec.seq.packed_bytes());
                s_qual.extend(rec.quals.iter().map(|&q| dict.bin_of(q)));
                stats.bases += rec.seq.len() as u64;
            }
            packed_streams.clear();
            let mut lens = [0usize; 4];
            let raws: [&[u8]; 4] = [&s_meta, &s_cigar, &s_base, &s_qual];
            for (si, raw) in raws.into_iter().enumerate() {
                let before = packed_streams.len();
                compress_stream(&mut packed_streams, raw);
                lens[si] = packed_streams.len() - before;
                stats.streams[si].raw += raw.len() as u64;
                stats.streams[si].compressed += lens[si] as u64;
            }
            for len in lens {
                put_varint(&mut payload, len as u64);
            }
            payload.extend_from_slice(&packed_streams);
            stats.blocks += 1;
            stats.records += n_records as u64;
            stats.payload_bytes += payload.len() as u64;
            out.extend_from_slice(&payload);
            metas.push(BlockMeta {
                offset,
                len: payload.len(),
                min_pos,
                max_end,
                n_records,
            });
        }
        let index_offset = out.len() as u64;
        // Index.
        out.extend_from_slice(INDEX_MAGIC);
        put_varint(&mut out, metas.len() as u64);
        for m in &metas {
            put_varint(&mut out, m.offset as u64);
            put_varint(&mut out, m.len as u64);
            put_varint(&mut out, m.min_pos as u64);
            put_varint(&mut out, m.max_end as u64);
            put_varint(&mut out, m.n_records as u64);
        }
        // Dictionary section.
        out.extend_from_slice(DICT_MAGIC);
        out.push(dict.spilled() as u8);
        put_varint(&mut out, dict.quals().len() as u64);
        out.extend(dict.quals().iter().map(|q| q.0));
        // Trailer.
        put_u64_le(&mut out, index_offset);
        out.extend_from_slice(END_MAGIC);
        let file = BalFile {
            source: ByteSource::Mem(Bytes::from(out)),
            index: metas.into(),
            dict: Arc::new(dict),
            budget: None,
        };
        (file, stats)
    }
}

impl Default for BalWriter {
    fn default() -> Self {
        BalWriter::new()
    }
}

impl BalFile {
    /// Build a file from an iterator of sorted records.
    pub fn from_records<I: IntoIterator<Item = Record>>(records: I) -> Result<BalFile, BalError> {
        let mut w = BalWriter::new();
        for rec in records {
            w.push(rec)?;
        }
        Ok(w.finish())
    }

    /// Parse a BAL byte stream (zero-copy; blocks decode lazily).
    pub fn from_bytes(data: Bytes) -> Result<BalFile, BalError> {
        BalFile::from_source(ByteSource::Mem(data))
    }

    /// Open an on-disk BAL file. The descriptor is kept; only the index
    /// and dictionary are read up front, and each block payload is one
    /// positioned read issued when a reader first requests it.
    ///
    /// If `ULTRAVC_FAULT` scripts a [`FaultPlan`], the source is wrapped
    /// in the fault tier **after** the index/dictionary parse — opens
    /// succeed and faults land on the payload path, where the run
    /// supervisor operates. A malformed spec is an error (a typo must not
    /// silently run fault-free).
    pub fn open(path: impl AsRef<Path>) -> Result<BalFile, BalError> {
        let file = BalFile::from_source(ByteSource::open(path.as_ref())?)?;
        match FaultPlan::env_plan()? {
            Some(plan) => Ok(file.with_faults(plan)),
            None => Ok(file),
        }
    }

    /// Parse a BAL file from any [`ByteSource`].
    ///
    /// Every length and offset in the container — the trailer's
    /// `index_offset`, each index entry's byte range and record count,
    /// the dictionary size — is bounds- and overflow-checked here, and the
    /// index must be sorted by `min_pos`, so a corrupt or truncated file
    /// yields [`BalError::Corrupt`] rather than an out-of-bounds panic or
    /// an absurd allocation. A retired `BAL1`/`BAL2` magic yields
    /// [`BalError::UnsupportedVersion`].
    pub fn from_source(source: ByteSource) -> Result<BalFile, BalError> {
        let total = source.len();
        if total < 16 {
            return Err(BalError::Corrupt("missing BAL magic"));
        }
        match &source.slice(0, 4)?[..] {
            m if m == MAGIC => {}
            b"BAL1" => return Err(BalError::UnsupportedVersion(1)),
            b"BAL2" => return Err(BalError::UnsupportedVersion(2)),
            _ => return Err(BalError::Corrupt("missing BAL3 magic")),
        }
        // Trailer: index_offset (u64 LE) then the BEND magic.
        let index_offset = {
            let trailer = source.slice(total - 12, 12)?;
            if &trailer[8..] != END_MAGIC {
                return Err(BalError::Corrupt("missing BEND trailer"));
            }
            let idx_off_bytes: [u8; 8] = trailer[..8].try_into().expect("slice is 8 bytes");
            u64::from_le_bytes(idx_off_bytes)
        };
        let index_offset = usize::try_from(index_offset)
            .map_err(|_| BalError::Corrupt("index offset out of range"))?;
        // The index must sit between the 4-byte magic and the trailer,
        // with room for its own BIDX magic. `total - 12 ≥ 4` was checked
        // above, so the subtractions cannot underflow.
        if index_offset < 4 || index_offset.checked_add(4).is_none_or(|e| e > total - 12) {
            return Err(BalError::Corrupt("index offset out of range"));
        }
        // Index + dictionary region (owned when read from disk, borrowed
        // from memory) — the only part of a disk-backed file read eagerly.
        let tail = source.slice(index_offset, total - 12 - index_offset)?;
        let mut buf = &tail[..];
        if &buf[..4] != INDEX_MAGIC {
            return Err(BalError::Corrupt("missing BIDX magic"));
        }
        buf = &buf[4..];
        let n_blocks = get_varint(&mut buf).ok_or(BalError::Corrupt("truncated index header"))?;
        let n_blocks = usize::try_from(n_blocks)
            .map_err(|_| BalError::Corrupt("index entry count overflows"))?;
        // Each index entry is at least five varint bytes; a count the
        // remaining buffer cannot possibly hold is corrupt, and rejecting
        // it here keeps `Vec::with_capacity` honest.
        if n_blocks > buf.len() / 5 {
            return Err(BalError::Corrupt("index entry count exceeds index size"));
        }
        let mut metas: Vec<BlockMeta> = Vec::with_capacity(n_blocks);
        for _ in 0..n_blocks {
            let mut field =
                || get_varint(&mut buf).ok_or(BalError::Corrupt("truncated index entry"));
            let offset = usize::try_from(field()?)
                .map_err(|_| BalError::Corrupt("block offset overflows"))?;
            let len = usize::try_from(field()?)
                .map_err(|_| BalError::Corrupt("block length overflows"))?;
            let min_pos = u32::try_from(field()?)
                .map_err(|_| BalError::Corrupt("block min_pos overflows"))?;
            let max_end = u32::try_from(field()?)
                .map_err(|_| BalError::Corrupt("block max_end overflows"))?;
            let n_records = u32::try_from(field()?)
                .map_err(|_| BalError::Corrupt("block record count overflows"))?;
            let end = offset
                .checked_add(len)
                .ok_or(BalError::Corrupt("block range overflows"))?;
            if offset < 4 || end > index_offset {
                return Err(BalError::Corrupt("block range overlaps index"));
            }
            // Blocks are compressed, so the record count can legitimately
            // exceed the stored byte count — the batch decoder bounds the
            // count against the *decompressed* meta stream before
            // reserving. A non-empty block still needs its count, four
            // stream lengths and four stream headers.
            if n_records > 0 && len < 13 {
                return Err(BalError::Corrupt("block too small for its streams"));
            }
            // `blocks_overlapping` binary-searches on `min_pos`.
            if metas.last().is_some_and(|prev| prev.min_pos > min_pos) {
                return Err(BalError::Corrupt("index not sorted by position"));
            }
            metas.push(BlockMeta {
                offset,
                len,
                min_pos,
                max_end,
                n_records,
            });
        }
        if buf.remaining() < 5 || &buf[..4] != DICT_MAGIC {
            return Err(BalError::Corrupt("missing BDCT quality dictionary"));
        }
        buf = &buf[4..];
        let spilled = buf.get_u8() != 0;
        let n_quals = get_varint(&mut buf).ok_or(BalError::Corrupt("truncated dict header"))?;
        let n_quals = usize::try_from(n_quals)
            .map_err(|_| BalError::Corrupt("dict entry count overflows"))?;
        if buf.remaining() < n_quals {
            return Err(BalError::Corrupt("truncated dict entries"));
        }
        let dict = QualityDict::from_bytes(&buf[..n_quals], spilled)?;
        Ok(BalFile {
            source,
            index: metas.into(),
            dict: Arc::new(dict),
            budget: None,
        })
    }

    /// The serialized byte stream of an **in-memory** file, or `None`
    /// when the file is disk-backed ([`BalFile::open`]). Writer output and
    /// [`BalFile::from_bytes`] files are always in-memory, so those
    /// callers can safely `expect` the value; code that may hold either
    /// backing should use [`BalFile::source`] (length, bounded slices) or
    /// [`BalFile::write_to`] (full serialization) instead — no library
    /// API panics based on how a file happened to be opened.
    pub fn as_bytes(&self) -> Option<&Bytes> {
        match &self.source {
            ByteSource::Mem(data) => Some(data),
            ByteSource::Stream(_) | ByteSource::Fault(_) => None,
        }
    }

    /// The backing byte source.
    pub fn source(&self) -> &ByteSource {
        &self.source
    }

    /// The same file with payload reads routed through the fault tier
    /// executing `plan`. An existing fault wrapper is replaced, not
    /// stacked (an explicit plan — e.g. the CLI's `--fault` — wins over
    /// whatever `ULTRAVC_FAULT` wrapped at open).
    pub fn with_faults(mut self, plan: FaultPlan) -> BalFile {
        self.source = self.source.with_faults(plan);
        self
    }

    /// The same file with payload reads supervised by `budget`: a
    /// cancellation or an expired deadline stops the next read. Shared via
    /// `Arc` so every thread's clone sees one interrupt state.
    pub fn with_budget(mut self, budget: Arc<IoBudget>) -> BalFile {
        self.budget = Some(budget);
        self
    }

    /// The supervision budget payload reads run under, if any.
    pub fn budget(&self) -> Option<&Arc<IoBudget>> {
        self.budget.as_ref()
    }

    /// Write the full serialized stream to `path` (any backing). Copies in
    /// bounded chunks, so a disk-backed file larger than RAM is never
    /// materialized whole.
    pub fn write_to(&self, path: impl AsRef<Path>) -> Result<(), BalError> {
        use std::io::Write;
        const CHUNK: usize = 4 << 20;
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let total = self.source.len();
        let mut off = 0;
        while off < total {
            let n = CHUNK.min(total - off);
            out.write_all(&self.source.slice(off, n)?)?;
            off += n;
        }
        out.flush()?;
        Ok(())
    }

    /// Number of blocks.
    pub fn n_blocks(&self) -> usize {
        self.index.len()
    }

    /// Total record count (from the index; no decoding).
    pub fn n_records(&self) -> u64 {
        self.index.iter().map(|m| m.n_records as u64).sum()
    }

    /// Block metadata.
    pub fn index(&self) -> &[BlockMeta] {
        &self.index
    }

    /// On-disk format version — always 3, the one format this crate reads
    /// and writes.
    pub fn version(&self) -> u8 {
        FORMAT_VERSION
    }

    /// The file's quality dictionary.
    pub fn quality_dict(&self) -> &Arc<QualityDict> {
        &self.dict
    }

    /// A content identity hash over everything the parse committed to:
    /// format version, every block's index entry, and the quality
    /// dictionary. Two files with the same `content_id` index the same
    /// blocks at the same byte ranges with the same quality mapping, so a
    /// result cache can key on it (together with a [`crate::FileFingerprint`]
    /// for cheap on-disk staleness checks) without hashing payload bytes.
    /// FNV-1a; stable across clones and backings.
    pub fn content_id(&self) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x100_0000_01b3;
        let mut h = FNV_OFFSET;
        let mut mix = |v: u64| {
            for byte in v.to_le_bytes() {
                h ^= byte as u64;
                h = h.wrapping_mul(FNV_PRIME);
            }
        };
        mix(FORMAT_VERSION as u64);
        mix(self.index.len() as u64);
        for m in self.index.iter() {
            mix(m.offset as u64);
            mix(m.len as u64);
            mix(m.min_pos as u64);
            mix(m.max_end as u64);
            mix(m.n_records as u64);
        }
        mix(self.dict.spilled() as u64);
        mix(self.dict.quals().len() as u64);
        for q in self.dict.quals() {
            mix(q.0 as u64);
        }
        h
    }

    /// Raw payload bytes of one block: borrowed from an in-memory file,
    /// one positioned read into `buf` (reusing its allocation) from an
    /// open one. Ranges are re-checked against the source, so even a
    /// hand-built index cannot reach out of bounds.
    pub(crate) fn block_payload(
        &self,
        meta: &BlockMeta,
        buf: Vec<u8>,
    ) -> Result<Cow<'_, [u8]>, BalError> {
        if let Some(b) = &self.budget {
            b.check()?;
        }
        self.source.slice_into(meta.offset, meta.len, buf)
    }

    /// Largest exclusive end position across all records (0 when empty) —
    /// effectively the covered genome extent.
    pub fn max_end(&self) -> u32 {
        self.index.iter().map(|m| m.max_end).max().unwrap_or(0)
    }

    /// A fresh independent reader. Threads each create their own; readers
    /// share the underlying bytes but no mutable state.
    pub fn reader(&self) -> BalReader {
        BalReader {
            file: self.clone(),
            stats: DecodeStats::default(),
        }
    }

    /// The block indices whose genomic extent overlaps `[start, end)`.
    ///
    /// Blocks are sorted by `min_pos`, so everything at or past the first
    /// block with `min_pos ≥ end` is excluded by binary search; `max_end`
    /// is *not* monotone (a long read early in the file can span far), so
    /// the remaining prefix is filtered linearly — the same trade-off the
    /// `.bai` linear index makes.
    pub fn blocks_overlapping(&self, start: u32, end: u32) -> Vec<usize> {
        if start >= end || self.index.is_empty() {
            return Vec::new();
        }
        let hi = self.index.partition_point(|m| m.min_pos < end);
        (0..hi).filter(|&i| self.index[i].max_end > start).collect()
    }
}

/// A sequential decoder over a [`BalFile`]. One per thread.
#[derive(Debug, Clone)]
pub struct BalReader {
    file: BalFile,
    stats: DecodeStats,
}

impl BalReader {
    /// Read and decompress block `i`, recycling `bufs` (see
    /// [`BlockBuffers`]). The records are walked with the block's
    /// [`BlockStreams::cursor`], which makes the per-record checks.
    pub fn read_block(
        &mut self,
        i: usize,
        bufs: &mut BlockBuffers,
    ) -> Result<Arc<BlockStreams>, BalError> {
        let t0 = std::time::Instant::now();
        let streams = bufs.read_block(&self.file, i)?;
        self.count(i, streams.len(), t0.elapsed());
        Ok(streams)
    }

    /// Decode block `i` into a reusable arena [`RecordBatch`]: read and
    /// decompress it, then materialize every record through a cursor walk
    /// (no per-record heap objects; a warmed batch is never reallocated).
    pub fn decode_batch(&mut self, i: usize, batch: &mut RecordBatch) -> Result<(), BalError> {
        let t0 = std::time::Instant::now();
        batch.read_block(&self.file, i)?;
        let read = t0.elapsed();
        batch.materialize()?;
        self.count(i, batch.len(), read);
        Ok(())
    }

    fn count(&mut self, i: usize, records: usize, took: std::time::Duration) {
        self.stats.blocks += 1;
        self.stats.bytes_in += self.file.index[i].len as u64;
        self.stats.records_out += records as u64;
        self.stats.decode_time += took;
    }

    /// All records in the file as owned [`Record`]s, block by block — for
    /// consumers that want whole reads rather than pileup columns (the
    /// simulator's round-trip checks, tests).
    pub fn records(&mut self) -> Result<Vec<Record>, BalError> {
        self.collect_records(0..self.file.n_blocks(), |_| true)
    }

    /// All records whose alignment overlaps `[start, end)` — the region
    /// query a parallel worker issues for its column partition.
    pub fn records_overlapping(&mut self, start: u32, end: u32) -> Result<Vec<Record>, BalError> {
        let blocks = self.file.blocks_overlapping(start, end);
        self.collect_records(blocks, |v| v.pos() < end && v.end_pos() > start)
    }

    /// Decode `blocks` through [`BalReader::decode_batch`] and materialize
    /// the views `keep` accepts.
    fn collect_records(
        &mut self,
        blocks: impl IntoIterator<Item = usize>,
        keep: impl Fn(&RecordView<'_>) -> bool,
    ) -> Result<Vec<Record>, BalError> {
        let dict = Arc::clone(&self.file.dict);
        let mut batch = RecordBatch::new();
        let mut out = Vec::new();
        for i in blocks {
            self.decode_batch(i, &mut batch)?;
            out.extend(batch.views().filter(&keep).map(|v| v.to_record(&dict)));
        }
        Ok(out)
    }

    /// Cumulative decode accounting for this reader.
    pub fn stats(&self) -> DecodeStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::Flags;
    use ultravc_genome::phred::Phred;
    use ultravc_genome::sequence::Seq;

    fn mk_record(id: u64, pos: u32, bases: &[u8], q: u8) -> Record {
        let seq = Seq::from_ascii(bases).unwrap();
        let quals = vec![Phred::new(q); seq.len()];
        Record::full_match(id, pos, 60, Flags::none(), seq, quals).unwrap()
    }

    fn sample_records(n: usize) -> Vec<Record> {
        (0..n)
            .map(|i| {
                let flags = if i % 2 == 0 {
                    Flags::none()
                } else {
                    Flags::REVERSE
                };
                let seq = Seq::from_ascii(b"ACGTACGTACGTACGT").unwrap();
                let quals: Vec<Phred> = (0..16)
                    .map(|j| Phred::new(20 + ((i + j) % 20) as u8))
                    .collect();
                Record::full_match(i as u64, (i * 3) as u32, 60, flags, seq, quals).unwrap()
            })
            .collect()
    }

    #[test]
    fn roundtrip_identity() {
        let records = sample_records(100);
        let file = BalFile::from_records(records.clone()).unwrap();
        let mut reader = file.reader();
        let decoded = reader.records().unwrap();
        assert_eq!(decoded, records);
        assert_eq!(file.n_records(), 100);
    }

    #[test]
    fn roundtrip_through_bytes() {
        let records = sample_records(50);
        let file = BalFile::from_records(records.clone()).unwrap();
        let bytes = file.as_bytes().expect("writer output is in-memory").clone();
        let reparsed = BalFile::from_bytes(bytes).unwrap();
        assert_eq!(reparsed.n_blocks(), file.n_blocks());
        assert_eq!(reparsed.reader().clone().records().unwrap(), records);
    }

    #[test]
    fn multiple_blocks_created() {
        let mut w = BalWriter::with_block_capacity(16);
        for rec in sample_records(100) {
            w.push(rec).unwrap();
        }
        let file = w.finish();
        assert_eq!(file.n_blocks(), 7); // ceil(100/16)
        assert_eq!(file.n_records(), 100);
        assert_eq!(file.reader().records().unwrap().len(), 100);
    }

    #[test]
    fn unsorted_push_rejected() {
        let mut w = BalWriter::new();
        w.push(mk_record(0, 100, b"ACGT", 30)).unwrap();
        let err = w.push(mk_record(1, 50, b"ACGT", 30)).unwrap_err();
        assert!(matches!(
            err,
            BalError::Unsorted {
                prev: 100,
                next: 50
            }
        ));
        // Equal positions are fine.
        w.push(mk_record(2, 100, b"ACGT", 30)).unwrap();
    }

    #[test]
    fn region_query_returns_exactly_overlapping() {
        let mut w = BalWriter::with_block_capacity(8);
        for rec in sample_records(100) {
            w.push(rec).unwrap();
        }
        let file = w.finish();
        let mut reader = file.reader();
        // Reads are 16 bp at pos 3i; read i overlaps [s,e) iff 3i < e and 3i+16 > s.
        let (s, e) = (40u32, 60u32);
        let got = reader.records_overlapping(s, e).unwrap();
        let expected: Vec<u64> = (0..100u64)
            .filter(|i| (i * 3) < e as u64 && (i * 3 + 16) > s as u64)
            .collect();
        assert_eq!(got.iter().map(|r| r.id).collect::<Vec<_>>(), expected);
    }

    #[test]
    fn region_query_empty_and_full() {
        let file = BalFile::from_records(sample_records(20)).unwrap();
        let mut r = file.reader();
        assert!(r.records_overlapping(10_000, 20_000).unwrap().is_empty());
        assert!(r.records_overlapping(5, 5).unwrap().is_empty());
        assert_eq!(r.records_overlapping(0, u32::MAX).unwrap().len(), 20);
    }

    #[test]
    fn decode_stats_accumulate() {
        let file = BalFile::from_records(sample_records(64)).unwrap();
        let mut r = file.reader();
        let _ = r.records().unwrap();
        let stats = r.stats();
        assert_eq!(stats.records_out, 64);
        assert_eq!(stats.blocks as usize, file.n_blocks());
        assert!(stats.bytes_in > 0);
        let mut merged = DecodeStats::default();
        merged.merge(&stats);
        merged.merge(&stats);
        assert_eq!(merged.records_out, 128);
    }

    #[test]
    fn independent_readers_share_bytes() {
        let file = BalFile::from_records(sample_records(32)).unwrap();
        let mut r1 = file.reader();
        let mut r2 = file.reader();
        let a = r1.records().unwrap();
        let b = r2.records().unwrap();
        assert_eq!(a, b);
        // Stats are per-reader.
        assert_eq!(r1.stats().records_out, 32);
        assert_eq!(r2.stats().records_out, 32);
    }

    #[test]
    fn corrupt_inputs_rejected() {
        assert!(BalFile::from_bytes(Bytes::from_static(b"nope")).is_err());
        assert!(BalFile::from_bytes(Bytes::from_static(b"BAL1 but way too short")).is_err());
        let file = BalFile::from_records(sample_records(8)).unwrap();
        let mut bytes = file
            .as_bytes()
            .expect("writer output is in-memory")
            .to_vec();
        // Break the trailer magic.
        let n = bytes.len();
        bytes[n - 1] = b'X';
        assert!(BalFile::from_bytes(Bytes::from(bytes)).is_err());
    }

    #[test]
    fn corrupt_block_payload_detected() {
        let file = BalFile::from_records(sample_records(8)).unwrap();
        let mut bytes = file
            .as_bytes()
            .expect("writer output is in-memory")
            .to_vec();
        // Zero out part of the first block payload (after magic).
        for b in bytes.iter_mut().skip(6).take(4) {
            *b = 0xff;
        }
        let reparsed = BalFile::from_bytes(Bytes::from(bytes));
        // Parsing the index still succeeds; decoding the block must fail
        // loudly rather than return garbage silently.
        if let Ok(f) = reparsed {
            let mut batch = RecordBatch::new();
            assert!(f.reader().decode_batch(0, &mut batch).is_err());
        }
    }

    #[test]
    fn empty_file_roundtrip() {
        let file = BalFile::from_records(Vec::new()).unwrap();
        assert_eq!(file.n_blocks(), 0);
        assert_eq!(file.n_records(), 0);
        assert_eq!(file.max_end(), 0);
        let reparsed = BalFile::from_bytes(file.as_bytes().expect("in-memory").clone()).unwrap();
        assert!(reparsed.reader().clone().records().unwrap().is_empty());
    }

    #[test]
    fn compression_actually_compresses() {
        // Plateau qualities (the realistic Illumina shape) + 2-bit bases:
        // payload must be well under the naive 1 byte/base + 1 byte/qual.
        let records: Vec<Record> = (0..1000u32)
            .map(|i| mk_record(i as u64, i, b"ACGTACGTACGTACGTACGTACGTACGTACGT", 37))
            .collect();
        let naive: usize = records.iter().map(|r| 2 * r.read_len() + 16).sum();
        let file = BalFile::from_records(records).unwrap();
        let actual = file.as_bytes().expect("in-memory").len();
        assert!(
            actual < naive / 2,
            "BAL {actual} bytes vs naive {naive} — codec not earning its keep"
        );
    }

    fn temp_path(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("ultravc-balfile-{}-{tag}.bal", std::process::id()))
    }

    /// The file at `path` through both backings: read whole into memory,
    /// and opened for positioned reads.
    fn both_backings(path: &std::path::Path) -> [BalFile; 2] {
        [
            BalFile::from_bytes(Bytes::from(std::fs::read(path).unwrap())).unwrap(),
            BalFile::open(path).unwrap(),
        ]
    }

    #[test]
    fn open_tiers_decode_identically() {
        let records = sample_records(100);
        let file = BalFile::from_records(records.clone()).unwrap();
        let path = temp_path("tiers");
        file.write_to(&path).unwrap();
        for disk in both_backings(&path) {
            let tier = disk.source().tier_name();
            assert_eq!(disk.version(), file.version(), "{tier}");
            assert_eq!(disk.index(), file.index(), "{tier}");
            assert_eq!(
                disk.quality_dict().as_ref(),
                file.quality_dict().as_ref(),
                "{tier}"
            );
            assert_eq!(
                disk.reader().clone().records().unwrap(),
                records,
                "{tier} records()"
            );
            let mut mem_batch = RecordBatch::new();
            let mut disk_batch = RecordBatch::new();
            let mut mem_reader = file.reader();
            let mut disk_reader = disk.reader();
            for i in 0..file.n_blocks() {
                mem_reader.decode_batch(i, &mut mem_batch).unwrap();
                disk_reader.decode_batch(i, &mut disk_batch).unwrap();
                assert_eq!(mem_batch, disk_batch, "{tier} batch decode, block {i}");
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn content_id_stable_across_tiers_and_sensitive_to_content() {
        let records = sample_records(48);
        let file = BalFile::from_records(records.clone()).unwrap();
        // Deterministic: same records, same id.
        assert_eq!(
            BalFile::from_records(records).unwrap().content_id(),
            file.content_id()
        );
        // Sensitive: different record set, different id.
        let other = BalFile::from_records(sample_records(47)).unwrap();
        assert_ne!(other.content_id(), file.content_id());
        // Stable across a disk round trip through either backing.
        let path = temp_path("content-id");
        file.write_to(&path).unwrap();
        for disk in both_backings(&path) {
            assert_eq!(
                disk.content_id(),
                file.content_id(),
                "{}",
                disk.source().tier_name()
            );
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn fingerprint_tracks_rewrites() {
        use crate::io::FileFingerprint;
        let path = temp_path("fingerprint");
        BalFile::from_records(sample_records(16))
            .unwrap()
            .write_to(&path)
            .unwrap();
        let before = FileFingerprint::probe(&path).unwrap();
        assert_eq!(before, FileFingerprint::probe(&path).unwrap());
        // Rewriting with different content changes the length, so the
        // fingerprint differs even on coarse-mtime filesystems.
        BalFile::from_records(sample_records(64))
            .unwrap()
            .write_to(&path)
            .unwrap();
        let after = FileFingerprint::probe(&path).unwrap();
        assert_ne!(before, after);
        std::fs::remove_file(&path).ok();
        assert!(FileFingerprint::probe(&path).is_err());
    }

    #[test]
    fn open_reports_missing_file_as_io() {
        let path = temp_path("never-written");
        assert!(matches!(BalFile::open(&path), Err(BalError::Io(_))));
    }

    #[test]
    fn index_offset_past_eof_rejected() {
        // Regression: a corrupt trailer offset used to reach an
        // out-of-bounds slice (or an overflowing add) instead of
        // returning `BalError::Corrupt`.
        let file = BalFile::from_records(sample_records(8)).unwrap();
        let pristine = file.as_bytes().expect("in-memory").to_vec();
        let n = pristine.len();
        for bad in [
            n as u64,           // exactly EOF
            (n as u64) - 1,     // inside the trailer
            (n as u64) + 1_000, // past EOF
            u64::MAX,           // overflows every add
            u64::MAX - 3,
            0,
            3, // inside the magic
        ] {
            let mut bytes = pristine.clone();
            bytes[n - 12..n - 4].copy_from_slice(&bad.to_le_bytes());
            let err = BalFile::from_bytes(Bytes::from(bytes)).unwrap_err();
            assert!(
                matches!(err, BalError::Corrupt(_)),
                "index_offset={bad}: {err}"
            );
        }
    }

    /// A hand-rolled container with valid magics and trailer but a
    /// hostile index section built by `build_index`.
    fn hostile_container(build_index: impl FnOnce(&mut Vec<u8>)) -> Result<BalFile, BalError> {
        let mut out = MAGIC.to_vec();
        out.extend_from_slice(&[0u8; 32]); // payload area
        let index_offset = out.len() as u64;
        out.extend_from_slice(INDEX_MAGIC);
        build_index(&mut out);
        out.extend_from_slice(DICT_MAGIC);
        out.push(0);
        put_varint(&mut out, 0); // empty dictionary
        put_u64_le(&mut out, index_offset);
        out.extend_from_slice(END_MAGIC);
        BalFile::from_bytes(Bytes::from(out))
    }

    #[test]
    fn corrupt_index_entries_rejected_not_panicked() {
        // Sanity: the well-formed empty index parses.
        assert!(hostile_container(|out| put_varint(out, 0)).is_ok());
        // Regression targets: each of these used to wrap a cast, overflow
        // an add, or feed an absurd Vec::with_capacity.
        type IndexBuilder = fn(&mut Vec<u8>);
        let cases: [(&str, IndexBuilder); 7] = [
            ("offset+len overflows usize", |out| {
                put_varint(out, 1);
                for v in [u64::MAX, u64::MAX, 0, 0, 0] {
                    put_varint(out, v);
                }
            }),
            ("block range past index", |out| {
                put_varint(out, 1);
                for v in [4, 1 << 40, 0, 0, 0] {
                    put_varint(out, v);
                }
            }),
            ("min_pos exceeds u32 (was truncated)", |out| {
                put_varint(out, 1);
                for v in [4, 8, u64::MAX, 0, 0] {
                    put_varint(out, v);
                }
            }),
            ("record count exceeds u32", |out| {
                put_varint(out, 1);
                for v in [4, 8, 0, 0, u64::MAX >> 1] {
                    put_varint(out, v);
                }
            }),
            ("non-empty block too small for its streams", |out| {
                put_varint(out, 1);
                for v in [4, 12, 0, 0, 1] {
                    put_varint(out, v);
                }
            }),
            ("min_pos goes backwards", |out| {
                put_varint(out, 2);
                for v in [4, 13, 7, 9, 1, 17, 13, 6, 9, 1] {
                    put_varint(out, v);
                }
            }),
            ("absurd block count", |out| {
                put_varint(out, u64::MAX >> 8);
            }),
        ];
        for (what, build) in cases {
            let err = hostile_container(build).unwrap_err();
            assert!(matches!(err, BalError::Corrupt(_)), "{what}: {err}");
        }
    }

    #[test]
    fn roundtrip_with_stream_accounting() {
        let records = sample_records(2000);
        let mut w = BalWriter::with_block_capacity(64);
        for rec in records.clone() {
            w.push(rec).unwrap();
        }
        let (file, stats) = w.finish_with_stats();
        assert_eq!(file.version(), 3);
        assert_eq!(file.reader().records().unwrap(), records);
        assert_eq!(stats.records, 2000);
        assert_eq!(stats.bases, 2000 * 16);
        assert_eq!(stats.blocks as usize, file.n_blocks());
        let stream_sum: u64 = stats.streams.iter().map(|s| s.compressed).sum();
        assert!(stream_sum <= stats.payload_bytes && stream_sum > 0);
        // `compressed` counts one container header (scheme byte + raw-len
        // varint) per block, so a raw-stored stream runs `11 × n_blocks`
        // over its raw bytes at most — never more.
        let header_budget = 11 * file.n_blocks() as u64;
        assert!(
            stats
                .streams
                .iter()
                .all(|s| s.compressed <= s.raw + header_budget),
            "no stream expands past the container headers: {:?}",
            stats.streams
        );
    }

    #[test]
    fn corrupt_stream_framing_rejected_not_panicked() {
        let mut w = BalWriter::with_block_capacity(32);
        for rec in sample_records(100) {
            w.push(rec).unwrap();
        }
        let file = w.finish();
        let pristine = file.as_bytes().expect("in-memory").to_vec();
        let first = file.index()[0];
        let mut batch = RecordBatch::new();
        // Clobber the stream-length varints right after the record count:
        // decode must fail loudly.
        for width in 1..=8usize {
            let mut bytes = pristine.clone();
            for b in bytes
                .iter_mut()
                .skip(first.offset + 1)
                .take(width.min(first.len - 1))
            {
                *b = 0xff;
            }
            let reparsed = BalFile::from_bytes(Bytes::from(bytes)).unwrap();
            assert!(reparsed.reader().decode_batch(0, &mut batch).is_err());
            assert!(reparsed.reader().records().is_err());
        }
        // Hostile in-block truncation: zero the last bytes of the first
        // block payload (the tail of its qual stream container).
        let mut bytes2 = pristine.clone();
        for b in bytes2.iter_mut().skip(first.offset + first.len - 4).take(4) {
            *b = 0;
        }
        let reparsed = BalFile::from_bytes(Bytes::from(bytes2)).unwrap();
        assert!(reparsed.reader().decode_batch(0, &mut batch).is_err());
    }

    #[test]
    fn blocks_overlapping_respects_spans() {
        // A long read in the first block must keep that block eligible for
        // late columns it spans.
        let mut w = BalWriter::with_block_capacity(2);
        let long = Record::full_match(
            0,
            0,
            60,
            Flags::none(),
            Seq::from_ascii(&[b'A'; 100]).unwrap(),
            vec![Phred::new(30); 100],
        )
        .unwrap();
        w.push(long).unwrap();
        w.push(mk_record(1, 5, b"ACGT", 30)).unwrap();
        w.push(mk_record(2, 90, b"ACGT", 30)).unwrap();
        let file = w.finish();
        assert_eq!(file.n_blocks(), 2);
        // Column 92 is covered by the long read (block 0, spans [0,100))
        // and record 2 (block 1, spans [90,94)).
        let mut reader = file.reader();
        let got = reader.records_overlapping(92, 93).unwrap();
        let ids: Vec<u64> = got.iter().map(|r| r.id).collect();
        assert_eq!(ids, vec![0, 2]);
    }
}
