//! Adversarial-input property tests: byte-level mutations of valid BAL
//! files — truncation, bit flips, oversized-varint splices, zeroed
//! windows — must never panic anywhere in the parse/decode stack. Every
//! path returns `Ok` or `BalError`; and the on-disk `open(path)` must
//! agree with the in-memory parser about which mutants are parseable
//! (same bytes, same verdict, either backing).
//!
//! The mutations land inside compressed stream containers and per-stream
//! length varints as often as in the index, so this suite is also the
//! fuzz coverage for the `codec::decompress_stream_into` bounds checks.
//! Mutants that still parse are then drained through the pileup engine:
//! whatever records a damaged-but-decodable block yields (positions that
//! jump, blocks out of order), the consumer must see columns or a typed
//! error, never a panic. The pileup validates records lazily, through the
//! cursor it stacks from, so a block that fails the whole-block decode
//! must also stop every iterator whose window holds it.

use bytes::Bytes;
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use ultravc_bamlite::{
    BalError, BalFile, BalWriter, Flags, IoPlan, Record, RecordBatch, SharedBlockCache,
};
use ultravc_genome::phred::Phred;
use ultravc_genome::sequence::Seq;
use ultravc_pileup::{pileup_region, pileup_region_windowed, PileupParams};

/// Strategy: a plausible aligned read at a bounded position.
fn record_strategy() -> impl Strategy<Value = (u32, Vec<u8>, u8, bool)> {
    (
        0u32..2_000,
        prop::collection::vec(prop::sample::select(vec![b'A', b'C', b'G', b'T']), 1..40),
        0u8..=60,
        any::<bool>(),
    )
}

fn build_file(raw: Vec<(u32, Vec<u8>, u8, bool)>, block_cap: usize) -> BalFile {
    let mut rows = raw;
    rows.sort_by_key(|(pos, ..)| *pos);
    let mut w = BalWriter::with_block_capacity(block_cap);
    for (id, (pos, bases, q, rev)) in rows.into_iter().enumerate() {
        let seq = Seq::from_ascii(&bases).expect("ACGT only");
        let quals = vec![Phred::new(q.min(93)); seq.len()];
        let flags = if rev { Flags::REVERSE } else { Flags::none() };
        let rec = Record::full_match(id as u64, pos, 60, flags, seq, quals).expect("valid");
        w.push(rec).unwrap();
    }
    w.finish()
}

/// One byte-level corruption, parameterized so the generator stays a
/// plain tuple (kind, position fraction, value, width).
fn mutate(bytes: &mut Vec<u8>, kind: u8, frac: f64, value: u8, width: usize) {
    if bytes.is_empty() {
        return;
    }
    let at = (((bytes.len() - 1) as f64) * frac) as usize;
    match kind % 4 {
        // Truncation (keep at least one byte so the parse sees *something*).
        0 => bytes.truncate(at.max(1)),
        // Single bit flip.
        1 => bytes[at] ^= 1 << (value % 8),
        // Splice a run of 0xff — maximal varint continuation bytes, the
        // shape that manufactures oversized lengths/counts/offsets.
        2 => {
            for b in bytes.iter_mut().skip(at).take(width.max(1)) {
                *b = 0xff;
            }
        }
        // Zeroed window (truncated-looking varints, null magics).
        _ => {
            for b in bytes.iter_mut().skip(at).take(width.max(1)) {
                *b = 0;
            }
        }
    }
}

/// Run the mutant through every decode path. Nothing here may panic;
/// results are allowed to be `Ok` (the mutation missed anything load-
/// bearing) or any `BalError`.
fn exercise(bytes: &[u8]) -> bool {
    let Ok(file) = BalFile::from_bytes(Bytes::from(bytes.to_vec())) else {
        return false;
    };
    let mut reader = file.reader();
    let mut batch = RecordBatch::new();
    for i in 0..file.n_blocks() {
        let _ = reader.decode_batch(i, &mut batch);
    }
    let _ = file.reader().records_overlapping(0, u32::MAX);
    // Pileup leg: drain every column the mutant still yields. (The ring
    // spans a record's reference extent clamped into the region, so the
    // region is kept to what the generator can cover rather than all of
    // u32 — a forged extent then costs kilobytes, not gigabytes.)
    let mut columns = pileup_region(&file, 0, 4096, PileupParams::default());
    while let Some(col) = columns.next() {
        columns.recycle(col);
    }
    let _ = columns.take_error();
    true
}

/// A two-block file (one single-base-wide record per block, at `pos_a <
/// pos_b`) with its two index entries swapped. Every index field of such
/// a file fits one varint byte, so an entry is exactly five bytes.
fn swapped_index_file() -> Vec<u8> {
    let mut w = BalWriter::with_block_capacity(1);
    for (id, pos) in [(0u64, 10u32), (1, 20)] {
        let seq = Seq::from_ascii(b"ACGT").unwrap();
        let quals = vec![Phred::new(30); 4];
        w.push(Record::full_match(id, pos, 60, Flags::none(), seq, quals).unwrap())
            .unwrap();
    }
    let mut bytes = w.finish().as_bytes().expect("in-memory").to_vec();
    let n = bytes.len();
    let index_offset = u64::from_le_bytes(bytes[n - 12..n - 4].try_into().unwrap()) as usize;
    // "BIDX" · count(=2) · entry₀ · entry₁
    let entries = index_offset + 5;
    assert_eq!(bytes[index_offset + 4], 2);
    assert!(bytes[entries..entries + 10].iter().all(|b| *b < 0x80));
    let (a, b) = bytes[entries..entries + 10].split_at_mut(5);
    a.swap_with_slice(b);
    bytes
}

/// `bytes` must be refused with an error matching `is_expected` by the
/// in-memory parser and by the on-disk open — never parsed, never a
/// panic.
fn assert_refused_everywhere(bytes: &[u8], tag: &str, is_expected: fn(&BalError) -> bool) {
    let err = BalFile::from_bytes(Bytes::from(bytes.to_vec())).unwrap_err();
    assert!(is_expected(&err), "from_bytes: {err}");
    let path =
        std::env::temp_dir().join(format!("ultravc-refused-{}-{tag}.bal", std::process::id()));
    std::fs::write(&path, bytes).unwrap();
    let err = BalFile::open(&path).unwrap_err();
    assert!(is_expected(&err), "open: {err}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn swapped_index_entries_refused_on_every_tier() {
    assert_refused_everywhere(&swapped_index_file(), "swapped", |e| {
        matches!(e, BalError::Corrupt("index not sorted by position"))
    });
}

/// A two-block file — one record per block, 8 bases at 10 and 4 at 20 —
/// whose first index entry has `max_end` hand-lowered from 18 to 14, so
/// its record reaches past the extent region queries select blocks by.
fn lowered_extent_file() -> BalFile {
    let mut w = BalWriter::with_block_capacity(1);
    for (id, pos, bases) in [(0u64, 10u32, &b"ACGTACGT"[..]), (1, 20, b"ACGT")] {
        let seq = Seq::from_ascii(bases).unwrap();
        let quals = vec![Phred::new(30); seq.len()];
        w.push(Record::full_match(id, pos, 60, Flags::none(), seq, quals).unwrap())
            .unwrap();
    }
    let mut bytes = w.finish().as_bytes().expect("in-memory").to_vec();
    let n = bytes.len();
    let index_offset = u64::from_le_bytes(bytes[n - 12..n - 4].try_into().unwrap()) as usize;
    // "BIDX" · count · entries of five one-byte fields; `max_end` is the
    // fourth field.
    let entries = index_offset + 5;
    assert!(bytes[entries..entries + 10].iter().all(|b| *b < 0x80));
    assert_eq!(bytes[entries + 3], 18);
    bytes[entries + 3] = 14;
    BalFile::from_bytes(Bytes::from(bytes)).unwrap()
}

/// Regression: a record outside its block's index extent used to decode,
/// so a whole-file pass stacked bases that a region or chunked pass —
/// which picks blocks by that extent — silently dropped. Every decode path
/// now refuses the block.
#[test]
fn records_outside_their_index_extent_fail_every_decode_path() {
    let file = lowered_extent_file();
    let is_extent = |e: &BalError| {
        matches!(
            e,
            BalError::Corrupt("record outside its block's index extent")
        )
    };
    let mut batch = RecordBatch::new();
    let err = file.reader().decode_batch(0, &mut batch).unwrap_err();
    assert!(is_extent(&err), "decode_batch: {err}");
    file.reader().decode_batch(1, &mut batch).unwrap();
    // The cache only decompresses; the cursor walk over its streams is
    // what refuses the record.
    let (block, _) = SharedBlockCache::new(file.clone()).get(0).unwrap();
    let err = block.validate().unwrap_err();
    assert!(is_extent(&err), "shared cache + cursor walk: {err}");
    // The whole file, and a region the forged extent claims block 0 does
    // not reach.
    for (lo, hi) in [(0, 100), (8, 16)] {
        let mut columns = pileup_region(&file, lo, hi, PileupParams::default());
        for col in columns.by_ref() {
            assert!(col.pos < 10, "no column from the refused block");
        }
        let err = columns
            .take_error()
            .expect("the refused block stops the iterator");
        assert!(is_extent(&err), "pileup_region {lo}..{hi}: {err}");
    }
    let plan = IoPlan::for_regions(&file, &[0..16, 16..100]);
    let cache = Arc::new(SharedBlockCache::for_plan(file.clone(), &plan));
    let mut first = pileup_region_windowed(&cache, plan.window(0), PileupParams::default());
    assert_eq!(first.by_ref().count(), 0);
    let err = first
        .take_error()
        .expect("the refused block stops the window");
    assert!(is_extent(&err), "pileup_region_windowed: {err}");
}

#[test]
fn retired_format_magics_refused_on_every_tier() {
    let mut bytes = build_file(vec![(5, b"ACGT".to_vec(), 30, false)], 4)
        .as_bytes()
        .expect("in-memory")
        .to_vec();
    bytes[..4].copy_from_slice(b"BAL1");
    assert_refused_everywhere(&bytes, "bal1", |e| {
        matches!(e, BalError::UnsupportedVersion(1))
    });
    bytes[..4].copy_from_slice(b"BAL2");
    assert_refused_everywhere(&bytes, "bal2", |e| {
        matches!(e, BalError::UnsupportedVersion(2)) && e.to_string().contains("re-simulate")
    });
}

static CASE: AtomicU64 = AtomicU64::new(0);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn mutated_files_never_panic(
        raw in prop::collection::vec(record_strategy(), 1..50),
        block_cap in 1usize..24,
        kind in 0u8..4,
        frac in 0.0f64..1.0,
        value in 0u8..=255,
        width in 1usize..12,
    ) {
        let file = build_file(raw, block_cap);
        let mut bytes = file.as_bytes().expect("writer output is in-memory").to_vec();
        mutate(&mut bytes, kind, frac, value, width);
        // In-memory: parse + all decode paths, no panic allowed.
        let mem_ok = exercise(&bytes);
        // On-disk: the same parse verdict on the same bytes, and decode
        // without panicking when it parses.
        let path = std::env::temp_dir().join(format!(
            "ultravc-corrupt-{}-{}.bal",
            std::process::id(),
            CASE.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::write(&path, &bytes).unwrap();
        match BalFile::open(&path) {
            Ok(disk) => {
                prop_assert!(mem_ok, "open parsed a mutant from_bytes rejected");
                let mut reader = disk.reader();
                let mut batch = RecordBatch::new();
                // Per-block verdicts through a plain reader — the oracle
                // the cache path must agree with.
                let mut plain_ok = Vec::with_capacity(disk.n_blocks());
                for i in 0..disk.n_blocks() {
                    plain_ok.push(reader.decode_batch(i, &mut batch).is_ok());
                }
                // Cache path: plan the whole extent and consume like a
                // worker — decompress through the cache, then walk every
                // record with a cursor. Nothing may panic, and each
                // block's ok/err verdict must match the plain path.
                let plan = IoPlan::for_regions(&disk, std::slice::from_ref(&(0..u32::MAX)));
                let cache = Arc::new(SharedBlockCache::for_plan(disk.clone(), &plan));
                for w in plan.windows() {
                    for &b in w.blocks() {
                        let walked = cache.get(b).and_then(|(block, _)| block.validate());
                        prop_assert_eq!(
                            walked.is_ok(),
                            plain_ok[b],
                            "block {}: cache + cursor verdict diverged",
                            b
                        );
                    }
                }
            }
            Err(_) => prop_assert!(!mem_ok, "open rejected a mutant from_bytes parsed"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn mutated_files_stop_the_pileup_on_every_bad_block(
        raw in prop::collection::vec(record_strategy(), 1..50),
        block_cap in 1usize..24,
        kind in 0u8..4,
        frac in 0.0f64..1.0,
        value in 0u8..=255,
        width in 1usize..12,
        span in (0u32..2_100, 1u32..2_100),
    ) {
        // Both pileup sources over a random sub-span of every mutant that
        // still parses. Nothing may panic, and an iterator whose window
        // holds a block the whole-block decode refuses must stop with an
        // error. (It may also stop on cross-block order, which no one
        // block's decode can see.)
        let file = build_file(raw, block_cap);
        let mut bytes = file.as_bytes().expect("writer output is in-memory").to_vec();
        mutate(&mut bytes, kind, frac, value, width);
        let Ok(file) = BalFile::from_bytes(Bytes::from(bytes)) else {
            return Ok(());
        };
        let (lo, hi) = (span.0, span.0 + span.1);
        let mut batch = RecordBatch::new();
        let mut reader = file.reader();
        let window = file.blocks_overlapping(lo, hi);
        let bad_block = window
            .iter()
            .any(|&b| reader.decode_batch(b, &mut batch).is_err());
        let plan = IoPlan::for_regions(&file, std::slice::from_ref(&(lo..hi)));
        let cache = Arc::new(SharedBlockCache::for_plan(file.clone(), &plan));
        for (source, mut columns) in [
            ("pileup_region", pileup_region(&file, lo, hi, PileupParams::default())),
            (
                "pileup_region_windowed",
                pileup_region_windowed(&cache, plan.window(0), PileupParams::default()),
            ),
        ] {
            while let Some(col) = columns.next() {
                prop_assert!((lo..hi).contains(&col.pos), "{}: column outside the span", source);
                columns.recycle(col);
            }
            let stopped = columns.take_error().is_some();
            prop_assert!(
                stopped || !bad_block,
                "{} over {}..{}: a refused block in the window, no error",
                source,
                lo,
                hi
            );
        }
    }

    #[test]
    fn valid_files_decode_identically_across_tiers(
        raw in prop::collection::vec(record_strategy(), 0..40),
        block_cap in 1usize..16,
    ) {
        let file = build_file(raw, block_cap);
        let want = file.reader().clone().records().unwrap();
        let path = std::env::temp_dir().join(format!(
            "ultravc-tiers-{}-{}.bal",
            std::process::id(),
            CASE.fetch_add(1, Ordering::Relaxed)
        ));
        file.write_to(&path).unwrap();
        for disk in [
            BalFile::from_bytes(Bytes::from(std::fs::read(&path).unwrap())).unwrap(),
            BalFile::open(&path).unwrap(),
        ] {
            prop_assert_eq!(disk.version(), file.version());
            prop_assert_eq!(disk.index(), file.index());
            prop_assert_eq!(&disk.reader().clone().records().unwrap(), &want);
            let mut mem_batch = RecordBatch::new();
            let mut disk_batch = RecordBatch::new();
            let mut mem_reader = file.reader();
            let mut disk_reader = disk.reader();
            for i in 0..file.n_blocks() {
                mem_reader.decode_batch(i, &mut mem_batch).unwrap();
                disk_reader.decode_batch(i, &mut disk_batch).unwrap();
                prop_assert_eq!(&mem_batch, &disk_batch);
            }
        }
        std::fs::remove_file(&path).ok();
    }
}
