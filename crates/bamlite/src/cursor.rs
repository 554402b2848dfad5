//! The one block decoder: a block's four decompressed streams, and the
//! validating record cursor that walks them in place.
//!
//! Reading a block is two steps:
//!
//! 1. **Decompress** ([`BlockStreams`]): one ranged read of the payload,
//!    then the four column streams (meta, CIGAR, packed bases, qual bins)
//!    are bulk-decompressed into reusable buffers. The stream framing, the
//!    record count, every bin index against the file's dictionary, and the
//!    meta stream's room for the declared records are checked here.
//! 2. **Walk** ([`RecordCursor`]): each step parses one record's meta
//!    fields and CIGAR ops, makes every per-record check — positions,
//!    CIGAR codes and lengths, CIGAR/sequence agreement, the block's index
//!    extent, room in the base and qual streams — and yields a
//!    [`StreamRecord`]: position, end, mapq, flags, and offsets into the
//!    packed-base and bin streams. After the last record the cursor checks
//!    that every stream was consumed exactly. A block is valid iff its
//!    decompression succeeds and a full cursor walk ends in `Ok(None)`.
//!
//! Nothing is unpacked up front. The pileup engine walks the cursor
//! straight over the streams and unpacks 2-bit bases ([`unpack_2bit`])
//! only for the part of each `M` run its region keeps; the
//! [`RecordBatch`](crate::RecordBatch) arena is a materialization built on
//! the same cursor, for consumers that want whole records.

use crate::cigar::CigarOp;
use crate::codec::{decompress_stream_into, get_varint};
use crate::file::{checked_len, BalFile, BlockMeta, MAX_STREAM_RAW};
use crate::record::Flags;
use crate::BalError;
use std::borrow::Cow;
use std::sync::Arc;

// Stream offsets are stored as `u32`; the decoder refuses any stream
// longer than `MAX_STREAM_RAW`, so every offset fits.
const _: () = assert!(MAX_STREAM_RAW <= u32::MAX as usize);

/// A block's four decompressed column streams. Refilling a warmed value
/// for another block reuses its buffers.
#[derive(Debug, Clone, Default)]
pub struct BlockStreams {
    n_records: usize,
    /// The block's index extent, which every record must lie inside.
    min_pos: u32,
    max_end: u32,
    meta: Vec<u8>,
    cigar: Vec<u8>,
    base: Vec<u8>,
    /// Per-base quality-bin indices, all records back to back (already
    /// checked against the dictionary).
    qual: Vec<u8>,
}

impl BlockStreams {
    /// Decompress one block payload into these buffers (cleared first).
    /// Checks the framing — record count against the index entry, four
    /// stream lengths tiling the payload exactly, each stream container —
    /// plus every bin index against a dictionary of `n_bins` entries and
    /// the meta stream's room for the declared records. Per-record checks
    /// belong to the [`RecordCursor`].
    fn fill(&mut self, payload: &[u8], meta: &BlockMeta, n_bins: usize) -> Result<(), BalError> {
        self.clear();
        let mut buf = payload;
        let n = get_varint(&mut buf).ok_or(BalError::Corrupt("truncated block header"))?;
        if n != meta.n_records as u64 {
            return Err(BalError::Corrupt("record count mismatch"));
        }
        let mut lens = [0usize; 4];
        for len in &mut lens {
            let v = get_varint(&mut buf).ok_or(BalError::Corrupt("truncated stream lengths"))?;
            *len = usize::try_from(v).map_err(|_| BalError::Corrupt("stream length overflows"))?;
        }
        let total = lens
            .iter()
            .try_fold(0usize, |acc, &l| acc.checked_add(l))
            .ok_or(BalError::Corrupt("stream lengths overflow"))?;
        if total != buf.len() {
            return Err(BalError::Corrupt("stream lengths disagree with block size"));
        }
        let (meta_c, rest) = buf.split_at(lens[0]);
        let (cigar_c, rest) = rest.split_at(lens[1]);
        let (base_c, qual_c) = rest.split_at(lens[2]);
        decompress_stream_into(meta_c, MAX_STREAM_RAW, &mut self.meta)
            .ok_or(BalError::Corrupt("corrupt meta stream"))?;
        decompress_stream_into(cigar_c, MAX_STREAM_RAW, &mut self.cigar)
            .ok_or(BalError::Corrupt("corrupt cigar stream"))?;
        decompress_stream_into(base_c, MAX_STREAM_RAW, &mut self.base)
            .ok_or(BalError::Corrupt("corrupt base stream"))?;
        decompress_stream_into(qual_c, MAX_STREAM_RAW, &mut self.qual)
            .ok_or(BalError::Corrupt("corrupt qual stream"))?;
        // Reduce with `max` rather than a short-circuiting `any` — no
        // early exit means the scan vectorizes, and corrupt input is the
        // cold case anyway.
        let max_bin = self.qual.iter().fold(0u8, |m, &b| m.max(b));
        if !self.qual.is_empty() && max_bin as usize >= n_bins {
            return Err(BalError::Corrupt("quality bin index out of dictionary"));
        }
        // Every record owes the meta stream at least six bytes (delta, id,
        // op count, read length ≥ 1 byte each; mapq and flags exactly
        // one), which bounds what a consumer reserves against a corrupt
        // record count.
        if n.saturating_mul(6) > self.meta.len() as u64 {
            return Err(BalError::Corrupt("record count exceeds meta stream"));
        }
        self.n_records = n as usize;
        self.min_pos = meta.min_pos;
        self.max_end = meta.max_end;
        Ok(())
    }

    /// Drop the block, keeping the buffers.
    pub(crate) fn clear(&mut self) {
        self.n_records = 0;
        self.meta.clear();
        self.cigar.clear();
        self.base.clear();
        self.qual.clear();
    }

    /// The whole qual stream: every record's bin indices, in record order.
    pub(crate) fn qual(&self) -> &[u8] {
        &self.qual
    }

    /// Records the block declares (0 after a failed fill).
    #[inline]
    pub fn len(&self) -> usize {
        self.n_records
    }

    /// Whether the block declares no records.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n_records == 0
    }

    /// A cursor at this block's first record.
    #[inline]
    pub fn cursor(&self) -> RecordCursor {
        RecordCursor {
            left: self.n_records,
            ..RecordCursor::default()
        }
    }

    /// Bytes reserved across the four stream buffers.
    pub fn capacity(&self) -> usize {
        self.meta.capacity() + self.cigar.capacity() + self.base.capacity() + self.qual.capacity()
    }

    /// Walk every record with a fresh cursor: `Ok(())` iff the whole block
    /// is valid.
    pub fn validate(&self) -> Result<(), BalError> {
        let mut cursor = self.cursor();
        while cursor.next(self)?.is_some() {}
        Ok(())
    }

    /// `rec`'s CIGAR ops. `rec` must come from a cursor over these
    /// streams.
    #[inline]
    pub fn ops(&self, rec: &StreamRecord) -> CigarOps<'_> {
        CigarOps {
            bytes: &self.cigar[rec.cigar_off as usize..rec.cigar_end as usize],
        }
    }

    /// `rec`'s per-base quality-bin indices. `rec` must come from a cursor
    /// over these streams.
    #[inline]
    pub fn bins(&self, rec: &StreamRecord) -> &[u8] {
        let at = rec.qual_off as usize;
        &self.qual[at..at + rec.seq_len as usize]
    }

    /// `rec`'s 2-bit packed bases, four to a byte, first base in the low
    /// bits (see [`unpack_2bit`]). `rec` must come from a cursor over
    /// these streams.
    #[inline]
    pub fn packed_bases(&self, rec: &StreamRecord) -> &[u8] {
        let at = rec.base_off as usize;
        &self.base[at..at + (rec.seq_len as usize).div_ceil(4)]
    }
}

/// One record as a [`RecordCursor`] yields it: the fixed-width fields,
/// already validated, plus where its CIGAR ops, packed bases and bin
/// indices sit in its block's streams ([`BlockStreams::ops`],
/// [`BlockStreams::packed_bases`], [`BlockStreams::bins`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamRecord {
    /// Read identifier.
    pub id: u64,
    /// 0-based leftmost reference position.
    pub pos: u32,
    /// Exclusive end on the reference (`pos + Σ ref_len`).
    pub end_pos: u32,
    /// Mapping quality.
    pub mapq: u8,
    /// Flag bits.
    pub flags: Flags,
    /// Read length in bases (`Σ query_len` of the CIGAR).
    pub seq_len: u32,
    /// Number of CIGAR ops.
    pub n_ops: u32,
    cigar_off: u32,
    cigar_end: u32,
    base_off: u32,
    qual_off: u32,
}

/// A validating walk over one [`BlockStreams`]: plain offsets, so its
/// owner can hold it beside the streams it walks. Create it with
/// [`BlockStreams::cursor`] and always pass it those same streams.
#[derive(Debug, Clone, Copy, Default)]
pub struct RecordCursor {
    /// Records not yet yielded.
    left: usize,
    meta: usize,
    cigar: usize,
    base: usize,
    qual: usize,
    /// Start of the previous record (positions are delta-coded).
    prev: u32,
}

impl RecordCursor {
    /// The next record, `Ok(None)` after the last one — once every stream
    /// has been consumed exactly — or the first check the block fails.
    /// A cursor that has returned an error must not be stepped again.
    #[inline]
    pub fn next(&mut self, s: &BlockStreams) -> Result<Option<StreamRecord>, BalError> {
        if self.left == 0 {
            let consumed = self.meta == s.meta.len()
                && self.cigar == s.cigar.len()
                && self.base == s.base.len()
                && self.qual == s.qual.len();
            return if consumed {
                Ok(None)
            } else {
                Err(BalError::Corrupt("v3 stream bytes left over"))
            };
        }
        // Offsets past a stream (a cursor handed other streams than its
        // own) leave an empty slice, which fails a truncation check;
        // nothing slices out of bounds.
        let mut m = s.meta.get(self.meta..).unwrap_or_default();
        let delta = get_varint(&mut m).ok_or(BalError::Corrupt("truncated position"))?;
        let pos = u32::try_from(delta)
            .ok()
            .and_then(|d| self.prev.checked_add(d))
            .ok_or(BalError::Corrupt("position overflows coordinate space"))?;
        let id = get_varint(&mut m).ok_or(BalError::Corrupt("truncated id"))?;
        let (&[mapq, flags], rest) = m
            .split_first_chunk::<2>()
            .ok_or(BalError::Corrupt("truncated mapq/flags"))?;
        m = rest;
        let n_ops = checked_len(
            get_varint(&mut m).ok_or(BalError::Corrupt("truncated cigar count"))?,
            "absurd cigar op count",
        )?;
        let seq_len = checked_len(
            get_varint(&mut m).ok_or(BalError::Corrupt("truncated seq length"))?,
            "absurd read length",
        )?;

        let mut c = s.cigar.get(self.cigar..).unwrap_or_default();
        let (mut query_len, mut ref_len) = (0u64, 0u64);
        for _ in 0..n_ops {
            let v = get_varint(&mut c).ok_or(BalError::Corrupt("truncated cigar op"))?;
            let op_len = u32::try_from(v >> 2)
                .map_err(|_| BalError::Corrupt("cigar op length overflows"))?;
            let op = CigarOp::from_code((v & 0b11) as u8, op_len)
                .ok_or(BalError::Corrupt("bad cigar op code"))?;
            query_len += op.query_len() as u64;
            ref_len += op.ref_len() as u64;
        }
        let end_pos = u32::try_from(ref_len)
            .ok()
            .and_then(|r| pos.checked_add(r))
            .ok_or(BalError::Corrupt("alignment extends past coordinate space"))?;
        if query_len != seq_len as u64 {
            return Err(BalError::Corrupt("cigar/sequence length mismatch"));
        }
        // Region queries choose blocks by their index extent, so a record
        // outside it would be stacked by a whole-file pass and dropped by
        // a region or chunked one. The writer's extent always covers its
        // records.
        if pos < s.min_pos || end_pos > s.max_end {
            return Err(BalError::Corrupt("record outside its block's index extent"));
        }
        // Packed bases are byte-aligned per record.
        let packed_len = seq_len.div_ceil(4);
        if s.base.len().saturating_sub(self.base) < packed_len {
            return Err(BalError::Corrupt("truncated base stream"));
        }
        let qual_end = self
            .qual
            .checked_add(seq_len)
            .filter(|&end| end <= s.qual.len())
            .ok_or(BalError::Corrupt("truncated qual stream"))?;

        let rec = StreamRecord {
            id,
            pos,
            end_pos,
            mapq,
            flags: Flags(flags),
            seq_len: seq_len as u32,
            n_ops: n_ops as u32,
            cigar_off: self.cigar as u32,
            cigar_end: (s.cigar.len() - c.len()) as u32,
            base_off: self.base as u32,
            qual_off: self.qual as u32,
        };
        self.meta = s.meta.len() - m.len();
        self.cigar = rec.cigar_end as usize;
        self.base += packed_len;
        self.qual = qual_end;
        self.prev = pos;
        self.left -= 1;
        Ok(Some(rec))
    }
}

/// A record's CIGAR ops, decoded from its (validated) slice of the CIGAR
/// stream.
#[derive(Debug, Clone)]
pub struct CigarOps<'a> {
    bytes: &'a [u8],
}

impl Iterator for CigarOps<'_> {
    type Item = CigarOp;

    #[inline]
    fn next(&mut self) -> Option<CigarOp> {
        let v = get_varint(&mut self.bytes)?;
        CigarOp::from_code((v & 0b11) as u8, (v >> 2) as u32)
    }
}

/// Byte → its four 2-bit base codes, low bits first. A `static`, not a
/// `const`: indexing a `const` array at a runtime index can copy the whole
/// kilobyte table onto the stack at every use.
static UNPACK: [[u8; 4]; 256] = {
    let mut table = [[0u8; 4]; 256];
    let mut byte = 0;
    while byte < 256 {
        let b = byte as u8;
        table[byte] = [b & 0b11, (b >> 2) & 0b11, (b >> 4) & 0b11, b >> 6];
        byte += 1;
    }
    table
};

/// Unpack bases `from .. from + out.len()` of a 2-bit packed read (four
/// bases to a byte, first base in the low bits) into `out`, one
/// [`Base::code`](ultravc_genome::alphabet::Base::code) per byte. Panics
/// if `packed` holds fewer bases.
#[inline]
pub fn unpack_2bit(packed: &[u8], from: usize, out: &mut [u8]) {
    let code = |i: usize| (packed[i / 4] >> (2 * (i % 4))) & 0b11;
    // Up to the next byte boundary, whole bytes through the table, then
    // the tail.
    let lead = ((4 - from % 4) % 4).min(out.len());
    let (head, rest) = out.split_at_mut(lead);
    for (k, o) in head.iter_mut().enumerate() {
        *o = code(from + k);
    }
    let at = from + lead;
    let whole = rest.len() / 4 * 4;
    let (quads, tail) = rest.split_at_mut(whole);
    for (o, &byte) in quads.chunks_exact_mut(4).zip(&packed[at / 4..]) {
        o.copy_from_slice(&UNPACK[byte as usize]);
    }
    let at = at + whole;
    for (k, o) in tail.iter_mut().enumerate() {
        *o = code(at + k);
    }
}

/// Buffers one consumer recycles across the blocks it reads: the payload
/// read buffer of an on-disk file, and the stream buffers of a block it
/// was the last to hold.
#[derive(Debug, Default)]
pub struct BlockBuffers {
    read: Vec<u8>,
    spare: Option<BlockStreams>,
}

impl BlockBuffers {
    /// Empty buffers; they grow to the largest block read through them.
    pub fn new() -> BlockBuffers {
        BlockBuffers::default()
    }

    /// Hand back a block the consumer is done with. Its stream buffers are
    /// kept for the next read when nobody else (another worker, a cache
    /// slot) still holds the block.
    pub fn recycle(&mut self, block: Arc<BlockStreams>) {
        if let Ok(streams) = Arc::try_unwrap(block) {
            self.spare = Some(streams);
        }
    }

    /// Bytes reserved by the payload read buffer.
    pub fn read_capacity(&self) -> usize {
        self.read.capacity()
    }

    /// Read and decompress block `i` of `file` into the spare stream
    /// buffers (or fresh ones), reading the payload through the kept read
    /// buffer. A failed read keeps the buffers for the next attempt.
    pub(crate) fn read_block(
        &mut self,
        file: &BalFile,
        i: usize,
    ) -> Result<Arc<BlockStreams>, BalError> {
        let mut streams = self.spare.take().unwrap_or_default();
        match fill_block(file, i, &mut streams, &mut self.read) {
            Ok(()) => Ok(Arc::new(streams)),
            Err(e) => {
                self.spare = Some(streams);
                Err(e)
            }
        }
    }
}

/// Read block `i` of `file` and decompress it into `streams`, reading the
/// payload into `read` when the file is on disk (an in-memory file's
/// payload is borrowed).
pub(crate) fn fill_block(
    file: &BalFile,
    i: usize,
    streams: &mut BlockStreams,
    read: &mut Vec<u8>,
) -> Result<(), BalError> {
    streams.clear();
    let meta = *file
        .index()
        .get(i)
        .ok_or(BalError::Corrupt("block index out of range"))?;
    let payload = file.block_payload(&meta, std::mem::take(read))?;
    let filled = streams.fill(&payload, &meta, file.quality_dict().len());
    if let Cow::Owned(buf) = payload {
        *read = buf;
    }
    filled
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cigar::Cigar;
    use crate::file::BalWriter;
    use crate::record::Record;
    use ultravc_genome::phred::Phred;
    use ultravc_genome::sequence::Seq;

    #[test]
    fn unpack_matches_per_base_decoding_at_every_phase() {
        let seq = Seq::from_ascii(b"ACGTTGCAAACCGGTTACG").unwrap();
        let codes: Vec<u8> = seq.iter().map(|b| b.code()).collect();
        let packed = seq.packed_bytes();
        for from in 0..codes.len() {
            for len in 0..=codes.len() - from {
                let mut out = vec![9u8; len];
                unpack_2bit(packed, from, &mut out);
                assert_eq!(out, codes[from..from + len], "from {from} len {len}");
            }
        }
    }

    #[test]
    fn cursor_yields_the_written_records() {
        let mut w = BalWriter::with_block_capacity(4);
        let mut want = Vec::new();
        for i in 0..10u32 {
            let seq = Seq::from_ascii(&b"ACGTACGTACG"[..5 + i as usize % 6]).unwrap();
            let n = seq.len() as u32;
            let cigar = if i % 3 == 0 {
                Cigar(vec![CigarOp::SoftClip(1), CigarOp::Match(n - 1)])
            } else {
                Cigar::full_match(n)
            };
            let quals = vec![Phred::new(20 + i as u8); seq.len()];
            let rec = Record::new(i as u64, 3 * i, 60, Flags::none(), seq, quals, cigar).unwrap();
            w.push(rec.clone()).unwrap();
            want.push(rec);
        }
        let file = w.finish();
        let mut bufs = BlockBuffers::new();
        let mut got = Vec::new();
        for b in 0..file.n_blocks() {
            let streams = bufs.read_block(&file, b).unwrap();
            let mut cursor = streams.cursor();
            while let Some(r) = cursor.next(&streams).unwrap() {
                got.push((r.id, r.pos, r.end_pos, streams.ops(&r).collect::<Vec<_>>()));
                assert_eq!(streams.bins(&r).len(), r.seq_len as usize);
            }
            bufs.recycle(streams);
        }
        let want: Vec<_> = want
            .iter()
            .map(|r| (r.id, r.pos, r.end_pos(), r.cigar.ops().to_vec()))
            .collect();
        assert_eq!(got, want);
    }
}
