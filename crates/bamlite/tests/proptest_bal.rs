//! Property tests of the BAL container: arbitrary record sets round-trip
//! bit-exactly, region queries agree with brute force, and corrupt bytes
//! never decode silently.

use proptest::prelude::*;
use ultravc_bamlite::{BalFile, BalWriter, Cigar, Flags, Record, RecordBatch};
use ultravc_genome::phred::Phred;
use ultravc_genome::sequence::Seq;

/// Strategy: a plausible aligned read at a bounded position.
fn record_strategy() -> impl Strategy<Value = (u32, Vec<u8>, u8, bool)> {
    (
        0u32..5_000,
        prop::collection::vec(prop::sample::select(vec![b'A', b'C', b'G', b'T']), 1..60),
        0u8..=60,
        any::<bool>(),
    )
}

fn build_records(raw: Vec<(u32, Vec<u8>, u8, bool)>) -> Vec<Record> {
    let mut rows: Vec<_> = raw;
    rows.sort_by_key(|(pos, ..)| *pos);
    rows.into_iter()
        .enumerate()
        .map(|(id, (pos, bases, q, rev))| {
            let seq = Seq::from_ascii(&bases).expect("ACGT only");
            let quals = vec![Phred::new(q.min(93)); seq.len()];
            let flags = if rev { Flags::REVERSE } else { Flags::none() };
            Record::full_match(id as u64, pos, 60, flags, seq, quals).expect("valid record")
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn roundtrip_is_identity(raw in prop::collection::vec(record_strategy(), 0..120),
                             block_cap in 1usize..64) {
        let records = build_records(raw);
        let mut w = BalWriter::with_block_capacity(block_cap);
        for r in records.clone() {
            w.push(r).unwrap();
        }
        let file = w.finish();
        // Through bytes and back.
        let reparsed = BalFile::from_bytes(file.as_bytes().expect("writer output is in-memory").clone()).unwrap();
        let decoded = reparsed.reader().clone().records().unwrap();
        prop_assert_eq!(decoded, records);
    }

    #[test]
    fn region_query_matches_brute_force(raw in prop::collection::vec(record_strategy(), 1..100),
                                        start in 0u32..5_000,
                                        span in 1u32..500) {
        let records = build_records(raw);
        let file = BalFile::from_records(records.clone()).unwrap();
        let end = start.saturating_add(span);
        let got = file.reader().clone().records_overlapping(start, end).unwrap();
        let want: Vec<Record> = records
            .into_iter()
            .filter(|r| r.pos < end && r.end_pos() > start)
            .collect();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn truncation_never_decodes_silently(raw in prop::collection::vec(record_strategy(), 1..40),
                                         cut_frac in 0.05f64..0.95) {
        let records = build_records(raw);
        let file = BalFile::from_records(records).unwrap();
        let bytes = file.as_bytes().expect("writer output is in-memory");
        let cut = ((bytes.len() as f64) * cut_frac) as usize;
        let truncated = bytes.slice(..cut.max(1));
        // Either parsing fails outright, or (if the index happened to stay
        // intact) block decoding fails — never silent garbage.
        if let Ok(f) = BalFile::from_bytes(truncated) {
            let mut any_err = false;
            let mut reader = f.reader();
            let mut batch = RecordBatch::new();
            for i in 0..f.n_blocks() {
                if reader.decode_batch(i, &mut batch).is_err() {
                    any_err = true;
                }
            }
            // A cut strictly inside the byte stream must damage something
            // unless it only removed trailing bytes past the index — which
            // from_bytes rejects via the trailer magic. So:
            prop_assert!(any_err || f.n_blocks() == 0);
        }
    }

    #[test]
    fn index_extents_are_tight(raw in prop::collection::vec(record_strategy(), 1..80)) {
        let records = build_records(raw);
        let file = BalFile::from_records(records).unwrap();
        let mut reader = file.reader();
        let mut block = RecordBatch::new();
        for (i, meta) in file.index().iter().enumerate() {
            reader.decode_batch(i, &mut block).unwrap();
            let min = block.views().map(|r| r.pos()).min().unwrap();
            let max = block.views().map(|r| r.end_pos()).max().unwrap();
            prop_assert_eq!(meta.min_pos, min);
            prop_assert_eq!(meta.max_end, max);
            prop_assert_eq!(meta.n_records as usize, block.len());
        }
    }
}

#[test]
fn cigar_query_walks_match_record_lengths() {
    // Deterministic spot-check that CIGAR shapes round-trip through BAL.
    let seq = Seq::from_ascii(b"ACGTACGT").unwrap();
    let quals = vec![Phred::new(30); 8];
    let cigar = Cigar::parse("2S3M1D3M").unwrap();
    let rec = Record::new(5, 100, 60, Flags::none(), seq, quals, cigar).unwrap();
    let file = BalFile::from_records(vec![rec.clone()]).unwrap();
    let back = file.reader().clone().records().unwrap();
    assert_eq!(back[0], rec);
    assert_eq!(back[0].ref_span(), 7);
}
