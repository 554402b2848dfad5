//! Corrupt-never-panic property tests for the FASTA reader
//! (`read_fasta`), which `ultravc call --ref` and `ultravc serve` feed
//! reference files through. Valid files from `write_fasta` are truncated,
//! bit-flipped or spliced with random bytes, or replaced by random bytes,
//! and the reader must return records or a `FastaError`, never panic.
//! Where a mutation has a known verdict it is asserted too: every prefix
//! of a valid file is valid FASTA with no more records than the whole,
//! and an error's line number points inside the input.

use proptest::prelude::*;
use std::io::Cursor;
use ultravc_genome::fasta::{read_fasta, write_fasta, FastaError, FastaRecord};
use ultravc_genome::sequence::Seq;

/// Raw `(name, sequence)` pairs: names from a few printable bytes
/// (including `>` and spaces), sequences in either case.
fn records_strategy() -> impl Strategy<Value = Vec<(Vec<u8>, Vec<u8>)>> {
    prop::collection::vec(
        (
            prop::collection::vec(prop::sample::select(b"ab Z09_|>".to_vec()), 0..12),
            prop::collection::vec(prop::sample::select(b"ACGTacgt".to_vec()), 0..200),
        ),
        0..5,
    )
}

/// The records the generated pairs describe. Names are trimmed, as the
/// reader trims them, so a written file reads back equal.
fn build(raw: Vec<(Vec<u8>, Vec<u8>)>) -> Vec<FastaRecord> {
    raw.into_iter()
        .map(|(name, seq)| FastaRecord {
            name: String::from_utf8(name).expect("ASCII").trim().to_string(),
            seq: Seq::from_ascii(&seq).expect("ACGT only"),
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn mutated_files_never_panic(
        raw in records_strategy(),
        width in 0usize..80,
        kind in 0u8..4,
        frac in 0.0f64..1.0,
        bit in any::<u8>(),
        junk in prop::collection::vec(any::<u8>(), 0..64),
    ) {
        let records = build(raw);
        let mut bytes = Vec::new();
        write_fasta(&mut bytes, &records, width).unwrap();
        prop_assert_eq!(&read_fasta(Cursor::new(&bytes)).unwrap(), &records);

        // kind 0: truncation, 1: bit flip, 2: splice, 3: random bytes.
        let at = (bytes.len().saturating_sub(1) as f64 * frac) as usize;
        match kind {
            0 => bytes.truncate(at),
            1 if !bytes.is_empty() => bytes[at] ^= 1 << (bit % 8),
            2 => {
                let at = at.min(bytes.len());
                bytes.splice(at..at, junk);
            }
            _ => bytes = junk,
        }
        let lines = bytes.split(|&b| b == b'\n').count();
        match read_fasta(Cursor::new(&bytes)) {
            Ok(parsed) => {
                if kind == 0 {
                    prop_assert!(parsed.len() <= records.len());
                }
            }
            Err(FastaError::MissingHeader { line }) | Err(FastaError::BadBase { line, .. }) => {
                prop_assert!(kind != 0, "prefix of {} bytes rejected at line {}", at, line);
                prop_assert!((1..=lines).contains(&line), "line {} of {}", line, lines);
            }
            // Bytes that are not UTF-8 fail the line reader.
            Err(FastaError::Io(e)) => prop_assert!(kind != 0, "prefix rejected: {}", e),
        }
    }
}
