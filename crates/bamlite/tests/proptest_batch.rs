//! Property tests of the ingest path: for arbitrary read sets, what the
//! arena batch decode (and [`BalReader::records`], which rides it) hands
//! back must equal what the writer was given **field for field** — across
//! block boundaries, mixed CIGAR shapes, and degenerate quality spectra (a
//! single bin; more distinct scores than the dictionary cap, exercising
//! the spill-to-identity path).
//!
//! [`BalReader::records`]: ultravc_bamlite::BalReader::records

use proptest::prelude::*;
use ultravc_bamlite::{BalFile, BalWriter, Cigar, Flags, QualityDict, Record, RecordBatch};
use ultravc_genome::phred::Phred;
use ultravc_genome::sequence::Seq;

/// One raw read: position, per-base `(base, quality)` pairs, mapq, flag
/// bits, and an optional soft-clip/deletion CIGAR shape.
type RawRead = (u32, Vec<(u8, u8)>, u8, u8, bool);

/// Reads with qualities drawn from `quals`.
fn read_strategy(quals: Vec<u8>) -> impl Strategy<Value = RawRead> {
    (
        0u32..500,
        prop::collection::vec(
            (
                prop::sample::select(vec![b'A', b'C', b'G', b'T']),
                prop::sample::select(quals),
            ),
            1..40,
        ),
        0u8..=70,
        0u8..16,
        any::<bool>(),
    )
}

fn build(raw: Vec<RawRead>) -> Vec<Record> {
    let mut rows = raw;
    rows.sort_by_key(|(pos, ..)| *pos);
    rows.into_iter()
        .enumerate()
        .map(|(id, (pos, pairs, mapq, flags, shaped))| {
            let bases: Vec<u8> = pairs.iter().map(|&(b, _)| b).collect();
            let seq = Seq::from_ascii(&bases).unwrap();
            let quals: Vec<Phred> = pairs.iter().map(|&(_, q)| Phred::new(q)).collect();
            let cigar = if shaped && bases.len() >= 4 {
                // 1S (n-3)M 2D 2M: query = n, ref span = n-1.
                Cigar::parse(&format!("1S{}M2D2M", bases.len() - 3)).unwrap()
            } else {
                Cigar::full_match(bases.len() as u32)
            };
            Record::new(id as u64, pos, mapq, Flags(flags), seq, quals, cigar).unwrap()
        })
        .collect()
}

/// Decode the whole file through the batch path, materializing records
/// through the dictionary.
fn batch_decode_all(file: &BalFile) -> Vec<Record> {
    let mut reader = file.reader();
    let mut batch = RecordBatch::new();
    let mut out = Vec::new();
    for i in 0..file.n_blocks() {
        reader.decode_batch(i, &mut batch).unwrap();
        out.extend(batch.views().map(|v| v.to_record(file.quality_dict())));
    }
    out
}

/// Round-trip `records` through a file at `block_capacity` and check both
/// read surfaces reproduce them exactly.
fn check_roundtrip(records: Vec<Record>, block_capacity: usize) {
    let mut w = BalWriter::with_block_capacity(block_capacity);
    for rec in records.clone() {
        w.push(rec).unwrap();
    }
    let file = w.finish();
    assert_eq!(file.version(), 3);
    assert_eq!(file.reader().records().unwrap(), records, "records()");
    assert_eq!(batch_decode_all(&file), records, "batch round-trip");
    // And through serialized bytes (dictionary survives the trailer).
    let reparsed =
        BalFile::from_bytes(file.as_bytes().expect("writer output is in-memory").clone()).unwrap();
    assert_eq!(reparsed.quality_dict().quals(), file.quality_dict().quals());
    assert_eq!(reparsed.reader().records().unwrap(), records);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn records_returns_exactly_what_the_writer_was_given(
        raw in prop::collection::vec(read_strategy(vec![2, 15, 20, 30, 37, 41]), 0..80),
        block_capacity in 1usize..24,
    ) {
        // ≤6 distinct scores: a learned dictionary, blocks deliberately
        // tiny so most read sets span several boundary blocks.
        let records = build(raw);
        check_roundtrip(records, block_capacity);
    }

    #[test]
    fn roundtrip_single_bin(
        raw in prop::collection::vec(read_strategy(vec![33]), 1..40),
        block_capacity in 1usize..10,
    ) {
        let records = build(raw);
        let file = BalFile::from_records(records.clone()).unwrap();
        prop_assert_eq!(file.quality_dict().len(), 1, "degenerate 1-bin spectrum");
        check_roundtrip(records, block_capacity);
    }

    #[test]
    fn roundtrip_spilled_spectrum(
        raw in prop::collection::vec(read_strategy((0..=93u8).collect()), 30..70),
        block_capacity in 4usize..32,
    ) {
        // Scores across the full 0..=93 range: with enough reads the
        // spectrum exceeds QUALITY_DICT_CAP and spills to identity.
        let records = build(raw);
        let file = BalFile::from_records(records.clone()).unwrap();
        let distinct: std::collections::HashSet<u8> = records
            .iter()
            .flat_map(|r| r.quals.iter().map(|q| q.0))
            .collect();
        if distinct.len() > 40 {
            prop_assert!(file.quality_dict().spilled(), "wide spectrum must spill");
        }
        prop_assert_eq!(
            file.quality_dict().len() >= distinct.len(),
            true,
            "dictionary covers the spectrum"
        );
        check_roundtrip(records, block_capacity);
    }

    #[test]
    fn dictionary_is_sorted_and_minimal(
        raw in prop::collection::vec(read_strategy(vec![5, 17, 23, 30, 41, 60]), 1..60),
    ) {
        let records = build(raw);
        let file = BalFile::from_records(records.clone()).unwrap();
        let dict: &QualityDict = file.quality_dict();
        // Strictly descending scores.
        prop_assert!(dict.quals().windows(2).all(|w| w[0] > w[1]));
        // Exactly the observed spectrum, nothing more.
        let observed: std::collections::BTreeSet<u8> = records
            .iter()
            .flat_map(|r| r.quals.iter().map(|q| q.0))
            .collect();
        let in_dict: std::collections::BTreeSet<u8> =
            dict.quals().iter().map(|q| q.0).collect();
        prop_assert_eq!(observed, in_dict);
        // bin_of/phred invert each other over the spectrum.
        for q in dict.quals() {
            prop_assert_eq!(dict.phred(dict.bin_of(*q)), *q);
        }
    }
}
