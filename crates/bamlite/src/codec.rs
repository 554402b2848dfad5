//! Byte-level codecs for the BAL block format: LEB128 varints, zigzag
//! deltas, run-length encoding for quality strings, and the per-stream
//! compression container (raw / RLE / LZ — smallest wins when it at least
//! halves the stream, raw otherwise).
//!
//! These replace DEFLATE in the BGZF analogy. Simulated (and much real
//! Illumina) quality data is plateau-heavy, so RLE compresses it well while
//! keeping a genuine, measurable per-block decode cost — which is the
//! behaviour the paper's Figure 2 trace attributes to file decompression.
//! The columnar block payloads add an LZ77-style match stage on top:
//! viral reads against one 30 kb reference are massively redundant, so the
//! concatenated base and qual-bin streams crush under a greedy
//! hash-chained matcher that would be useless on interleaved per-record
//! fields.

use bytes::{Buf, BufMut};

/// Append an unsigned LEB128 varint.
pub fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Read an unsigned LEB128 varint off the front of `buf`, advancing it;
/// `None` on truncation or overflow (more than ten bytes). Inlined: the
/// record cursor reads several per record.
#[inline]
pub fn get_varint(buf: &mut &[u8]) -> Option<u64> {
    let mut v = 0u64;
    for (i, &byte) in buf.iter().enumerate().take(10) {
        v |= ((byte & 0x7f) as u64) << (7 * i);
        if byte & 0x80 == 0 {
            *buf = &buf[i + 1..];
            return Some(v);
        }
    }
    None
}

/// Zigzag-encode a signed value for varint storage.
#[inline]
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Invert [`zigzag`].
#[inline]
pub fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Run-length-encode a byte string as `(count, value)` varint pairs,
/// prefixed by the run count.
pub fn rle_encode(out: &mut Vec<u8>, data: &[u8]) {
    let mut runs: Vec<(u64, u8)> = Vec::new();
    for &b in data {
        match runs.last_mut() {
            Some((n, v)) if *v == b => *n += 1,
            _ => runs.push((1, b)),
        }
    }
    put_varint(out, runs.len() as u64);
    for (n, v) in runs {
        put_varint(out, n);
        out.push(v);
    }
}

/// Decode an RLE byte string produced by [`rle_encode`], **appending** to
/// `out` — the zero-alloc form
/// the block decoder uses (a warmed buffer is never reallocated).
/// `max_len` bounds the decoded length, not the total buffer length.
///
/// Run counts are compared in `u64` before any narrowing, so a corrupt
/// count can neither wrap a 32-bit `usize` nor size an allocation beyond
/// `max_len`.
pub fn rle_decode_into(buf: &mut &[u8], max_len: usize, out: &mut Vec<u8>) -> Option<()> {
    let n_runs = get_varint(buf)?;
    let start = out.len();
    for _ in 0..n_runs {
        let count = get_varint(buf)?;
        let decoded = (out.len() - start) as u64;
        if !buf.has_remaining() || count.saturating_add(decoded) > max_len as u64 {
            return None;
        }
        let value = buf.get_u8();
        out.resize(out.len() + count as usize, value);
    }
    Some(())
}

/// Append a fixed-width little-endian u64 (used by the file trailer, where
/// self-describing width matters more than compactness).
pub fn put_u64_le(out: &mut Vec<u8>, v: u64) {
    out.put_u64_le(v);
}

// ---------------------------------------------------------------------------
// Stream compression: `scheme · raw_len · payload` containers.
// ---------------------------------------------------------------------------

/// Stream stored verbatim (compression would have grown it).
const SCHEME_RAW: u8 = 0;
/// Stream stored as [`rle_encode`] runs.
const SCHEME_RLE: u8 = 1;
/// Stream stored as LZ77 tokens (literals + back-references).
const SCHEME_LZ: u8 = 2;

/// Shortest back-reference the LZ scheme emits (and the unit its match
/// lengths are biased by on the wire).
const LZ_MIN_MATCH: usize = 4;
/// Hash-table size for the LZ matcher (positions of 4-byte prefixes).
const LZ_HASH_BITS: u32 = 15;

#[inline]
fn lz_hash(window: &[u8]) -> usize {
    let v = u32::from_le_bytes([window[0], window[1], window[2], window[3]]);
    (v.wrapping_mul(0x9e37_79b1) >> (32 - LZ_HASH_BITS)) as usize
}

/// Greedy LZ77 over `data`: tokens of `lit_len · literals` optionally
/// followed by `match_len−4 · distance` (all varints). The token stream is
/// self-terminating against the container's `raw_len` — after the output
/// reaches it the decoder stops, so a final match needs no empty literal
/// run after it.
fn lz_compress(data: &[u8], out: &mut Vec<u8>) {
    let mut table = vec![usize::MAX; 1 << LZ_HASH_BITS];
    let mut i = 0usize;
    let mut lit_start = 0usize;
    while i + LZ_MIN_MATCH <= data.len() {
        let slot = &mut table[lz_hash(&data[i..])];
        let cand = *slot;
        *slot = i;
        if cand != usize::MAX && data[cand..cand + LZ_MIN_MATCH] == data[i..i + LZ_MIN_MATCH] {
            let mut mlen = LZ_MIN_MATCH;
            while i + mlen < data.len() && data[cand + mlen] == data[i + mlen] {
                mlen += 1;
            }
            put_varint(out, (i - lit_start) as u64);
            out.extend_from_slice(&data[lit_start..i]);
            put_varint(out, (mlen - LZ_MIN_MATCH) as u64);
            put_varint(out, (i - cand) as u64);
            // Seed the table through the match so runs keep chaining.
            let end = i + mlen;
            let mut j = i + 1;
            while j < end && j + LZ_MIN_MATCH <= data.len() {
                table[lz_hash(&data[j..])] = j;
                j += 1;
            }
            i = end;
            lit_start = end;
        } else {
            i += 1;
        }
    }
    if lit_start < data.len() {
        put_varint(out, (data.len() - lit_start) as u64);
        out.extend_from_slice(&data[lit_start..]);
    }
}

/// Decode an LZ77 token stream into exactly `raw_len` appended bytes.
/// Every quantity is checked before use — literal runs against the input
/// and the remaining output budget, distances against the bytes produced
/// *by this stream* — and the whole input must be consumed, so a corrupt
/// token stream yields `None` rather than a panic or runaway allocation.
fn lz_decompress_into(mut buf: &[u8], raw_len: usize, out: &mut Vec<u8>) -> Option<()> {
    let start = out.len();
    loop {
        let produced = out.len() - start;
        if produced == raw_len {
            break;
        }
        let lit_len = get_varint(&mut buf)?;
        if lit_len > (raw_len - produced) as u64 || (buf.len() as u64) < lit_len {
            return None;
        }
        let lit_len = lit_len as usize;
        out.extend_from_slice(&buf[..lit_len]);
        buf = &buf[lit_len..];
        let produced = out.len() - start;
        if produced == raw_len {
            break;
        }
        let mlen = get_varint(&mut buf)?.checked_add(LZ_MIN_MATCH as u64)?;
        if mlen > (raw_len - produced) as u64 {
            return None;
        }
        let mlen = mlen as usize;
        let dist = get_varint(&mut buf)?;
        if dist == 0 || dist > produced as u64 {
            return None;
        }
        let src = out.len() - dist as usize;
        if dist as usize >= mlen {
            out.extend_from_within(src..src + mlen);
        } else {
            // Overlapping match: the produced suffix `out[src..]` is an
            // exact prefix of the periodic continuation (period `dist`),
            // so copying the whole available window each round doubles it
            // — O(log(mlen/dist)) memcpys instead of `mlen` byte pushes.
            // (The base stream of an ultra-deep stack is precisely this
            // shape: one short packed read pattern repeated thousands of
            // times.)
            let mut remaining = mlen;
            while remaining > 0 {
                let n = remaining.min(out.len() - src);
                out.extend_from_within(src..src + n);
                remaining -= n;
            }
        }
    }
    if buf.is_empty() {
        Some(())
    } else {
        None
    }
}

/// A non-raw scheme must shrink a stream at least this much (denominator
/// over numerator: 2× means "halve it") before the encoder will take it.
/// Decompression sits on the serving hot path, so marginal byte savings
/// are a bad trade: a varint-packed meta stream that LZ only trims to
/// ~0.55× costs more decode CPU than its bytes save, while the plateaued
/// qual and periodic base streams (0.08×, 0.001×) clear the bar easily.
const MIN_COMPRESSION_GAIN: usize = 2;

/// Append one compressed stream container: a scheme byte, the raw length
/// as a varint, then the payload under whichever of raw/RLE/LZ encodes
/// `data` smallest — provided the winner at least halves the stream
/// (`MIN_COMPRESSION_GAIN`); otherwise the stream is stored verbatim.
/// Never expands beyond `data.len() + header`.
pub fn compress_stream(out: &mut Vec<u8>, data: &[u8]) {
    let mut rle = Vec::new();
    rle_encode(&mut rle, data);
    let mut lz = Vec::new();
    lz_compress(data, &mut lz);
    let budget = data.len() / MIN_COMPRESSION_GAIN;
    let (scheme, payload): (u8, &[u8]) = if rle.len() <= budget && rle.len() <= lz.len() {
        (SCHEME_RLE, &rle)
    } else if lz.len() <= budget {
        (SCHEME_LZ, &lz)
    } else {
        (SCHEME_RAW, data)
    };
    out.push(scheme);
    put_varint(out, data.len() as u64);
    out.extend_from_slice(payload);
}

/// Decode a [`compress_stream`] container, **appending** to `out` (the
/// zero-alloc form the block decoder's warmed stream buffers use).
/// `max_raw` bounds the decoded length so a corrupt header cannot size an
/// absurd allocation; the payload must decode to exactly the declared raw
/// length and consume the whole container, or the stream is rejected.
pub fn decompress_stream_into(data: &[u8], max_raw: usize, out: &mut Vec<u8>) -> Option<()> {
    let (&scheme, mut buf) = data.split_first()?;
    let raw_len = get_varint(&mut buf)?;
    if raw_len > max_raw as u64 {
        return None;
    }
    let raw_len = raw_len as usize;
    let start = out.len();
    out.reserve(raw_len);
    match scheme {
        SCHEME_RAW => {
            if buf.len() != raw_len {
                return None;
            }
            out.extend_from_slice(buf);
        }
        SCHEME_RLE => {
            rle_decode_into(&mut buf, raw_len, out)?;
            if out.len() - start != raw_len || !buf.is_empty() {
                return None;
            }
        }
        SCHEME_LZ => lz_decompress_into(buf, raw_len, out)?,
        _ => return None,
    }
    Some(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_roundtrip_boundaries() {
        for v in [0u64, 1, 127, 128, 16_383, 16_384, u32::MAX as u64, u64::MAX] {
            let mut out = Vec::new();
            put_varint(&mut out, v);
            let mut buf = &out[..];
            assert_eq!(get_varint(&mut buf), Some(v), "value {v}");
            assert!(!buf.has_remaining());
        }
    }

    #[test]
    fn varint_sizes() {
        let mut out = Vec::new();
        put_varint(&mut out, 127);
        assert_eq!(out.len(), 1);
        out.clear();
        put_varint(&mut out, 128);
        assert_eq!(out.len(), 2);
        out.clear();
        put_varint(&mut out, u64::MAX);
        assert_eq!(out.len(), 10);
    }

    #[test]
    fn varint_truncation_detected() {
        let mut out = Vec::new();
        put_varint(&mut out, 300);
        let mut buf = &out[..1]; // drop the final byte
        assert_eq!(get_varint(&mut buf), None);
        assert_eq!(get_varint(&mut &[][..]), None);
    }

    #[test]
    fn varint_overflow_detected() {
        // 11 continuation bytes exceed 64 bits.
        let bad = [0xffu8; 11];
        assert_eq!(get_varint(&mut &bad[..]), None);
    }

    #[test]
    fn zigzag_roundtrip() {
        for v in [0i64, 1, -1, 2, -2, i64::MAX, i64::MIN, 12345, -98765] {
            assert_eq!(unzigzag(zigzag(v)), v, "value {v}");
        }
        // Small magnitudes stay small.
        assert_eq!(zigzag(0), 0);
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
    }

    fn rle_decode(mut buf: &[u8], max_len: usize) -> Option<Vec<u8>> {
        let mut out = Vec::new();
        rle_decode_into(&mut buf, max_len, &mut out)?;
        Some(out)
    }

    #[test]
    fn rle_roundtrip_plateaus() {
        let data: Vec<u8> = [vec![37u8; 50], vec![32u8; 30], vec![2u8; 5]].concat();
        let mut out = Vec::new();
        rle_encode(&mut out, &data);
        assert!(
            out.len() < 15,
            "plateaus should compress hard: {}",
            out.len()
        );
        let decoded = rle_decode(&out, data.len()).unwrap();
        assert_eq!(decoded, data);
    }

    #[test]
    fn rle_roundtrip_worst_case() {
        let data: Vec<u8> = (0..=255u8).collect();
        let mut out = Vec::new();
        rle_encode(&mut out, &data);
        let decoded = rle_decode(&out, 256).unwrap();
        assert_eq!(decoded, data);
    }

    #[test]
    fn rle_empty() {
        let mut out = Vec::new();
        rle_encode(&mut out, &[]);
        let decoded = rle_decode(&out, 0).unwrap();
        assert!(decoded.is_empty());
    }

    #[test]
    fn rle_bounds_corrupt_counts() {
        let mut out = Vec::new();
        rle_encode(&mut out, &[7u8; 100]);
        // max_len smaller than actual: decoder must refuse, not allocate.
        assert!(rle_decode(&out, 10).is_none());
    }

    fn stream_roundtrip(data: &[u8]) -> usize {
        let mut out = Vec::new();
        compress_stream(&mut out, data);
        let mut decoded = Vec::new();
        decompress_stream_into(&out, data.len(), &mut decoded).unwrap();
        assert_eq!(decoded, data);
        out.len()
    }

    #[test]
    fn stream_codec_roundtrips_every_shape() {
        // Empty, tiny, plateau (RLE territory), repetitive (LZ territory),
        // incompressible (raw fallback), and run-heavy mixtures.
        stream_roundtrip(&[]);
        stream_roundtrip(b"x");
        stream_roundtrip(&vec![7u8; 10_000]);
        let repetitive: Vec<u8> = b"ACGTACGGTTACGT".repeat(500);
        stream_roundtrip(&repetitive);
        let noise: Vec<u8> = (0..4096u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect();
        stream_roundtrip(&noise);
        let mixed: Vec<u8> = [vec![3u8; 100], noise.clone(), vec![9u8; 300]].concat();
        stream_roundtrip(&mixed);
    }

    #[test]
    fn stream_codec_compresses_redundant_data() {
        let plateau = vec![37u8; 100_000];
        assert!(
            stream_roundtrip(&plateau) < 100,
            "RLE should crush plateaus"
        );
        let repeated: Vec<u8> = b"ACGTTGCAACGT".repeat(8_000);
        assert!(
            stream_roundtrip(&repeated) < repeated.len() / 10,
            "LZ should crush repeats"
        );
    }

    #[test]
    fn stream_codec_never_expands_past_header() {
        let noise: Vec<u8> = (0..2048u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 11) as u8)
            .collect();
        let mut out = Vec::new();
        compress_stream(&mut out, &noise);
        assert!(
            out.len() <= noise.len() + 1 + 10,
            "raw fallback bounds growth"
        );
    }

    #[test]
    fn stream_codec_rejects_corruption() {
        let data: Vec<u8> = b"ACGTACGTACGT".repeat(100);
        let mut good = Vec::new();
        compress_stream(&mut good, &data);
        let mut out = Vec::new();
        // Truncations at every prefix length.
        for cut in 0..good.len() {
            out.clear();
            assert!(
                decompress_stream_into(&good[..cut], data.len(), &mut out).is_none(),
                "truncation at {cut} accepted"
            );
        }
        // Bit flips anywhere must never panic, and a flipped header/length
        // must not produce an over-long output.
        for i in 0..good.len() {
            for bit in [0x01u8, 0x80] {
                let mut bad = good.clone();
                bad[i] ^= bit;
                out.clear();
                if decompress_stream_into(&bad, data.len(), &mut out).is_some() {
                    assert!(out.len() <= data.len());
                }
            }
        }
        // `max_raw` is a hard cap.
        out.clear();
        assert!(decompress_stream_into(&good, data.len() - 1, &mut out).is_none());
        // Unknown scheme byte.
        let mut bad = good.clone();
        bad[0] = 9;
        out.clear();
        assert!(decompress_stream_into(&bad, data.len(), &mut out).is_none());
    }

    #[test]
    fn lz_handles_overlapping_matches() {
        // A long single-byte run forces distance-1 overlapping copies.
        let mut data = vec![b'A'; 500];
        data.extend_from_slice(b"tail");
        let mut lz = Vec::new();
        lz_compress(&data, &mut lz);
        let mut out = Vec::new();
        lz_decompress_into(&lz, data.len(), &mut out).unwrap();
        assert_eq!(out, data);
    }
}
