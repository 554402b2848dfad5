//! Property tests of the pileup engine against a brute-force oracle: for
//! arbitrary read sets — per-base qualities on both sides of `min_baseq`,
//! CIGARs that open with a soft clip or a deletion or mix `S`/`I`/`D`
//! between `M` runs, filtered reads, depth caps crossed mid-record, region
//! bounds that cut through `M` runs, streams long enough for the engine's
//! depth bound to reach the cap and be re-tightened — every way of
//! streaming a region must produce exactly the columns a naive stacker
//! over the owned records produces, and region splits must compose.

use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;
use ultravc_bamlite::{
    BalError, BalFile, BalWriter, Cigar, CigarOp, Flags, IoPlan, Record, SharedBlockCache,
};
use ultravc_genome::alphabet::Base;
use ultravc_genome::phred::Phred;
use ultravc_genome::sequence::Seq;
use ultravc_pileup::{
    pileup_region, pileup_region_windowed, PileupColumn, PileupEntry, PileupParams,
};

/// One raw read: start, per-base `(base, quality)`, reverse strand, CIGAR
/// shape selector, mapq, flag bits.
type RawRead = (u32, Vec<(u8, u8)>, bool, u8, u8, u8);

/// Qualities straddle the default `min_baseq` of 3 (0 and 2 are filtered),
/// so a read's first surviving base is often not its first base.
const QUALS: [u8; 8] = [0, 2, 2, 11, 20, 30, 37, 41];

fn record_strategy() -> impl Strategy<Value = RawRead> {
    (
        0u32..300,
        prop::collection::vec(
            (
                prop::sample::select(vec![b'A', b'C', b'G', b'T']),
                prop::sample::select(QUALS.to_vec()),
            ),
            1..40,
        ),
        any::<bool>(),
        0u8..6,
        prop::sample::select(vec![5u8, 60, 60, 60]),
        prop::sample::select(vec![0u8, 0, 0, Flags::DUPLICATE.0]),
    )
}

fn build(raw: Vec<RawRead>) -> Vec<Record> {
    let mut rows = raw;
    rows.sort_by_key(|(pos, ..)| *pos);
    rows.into_iter()
        .enumerate()
        .map(|(id, (pos, pairs, rev, shape, mapq, flag_bits))| {
            let n = pairs.len() as u32;
            let bases: Vec<u8> = pairs.iter().map(|&(b, _)| b).collect();
            let quals: Vec<Phred> = pairs.iter().map(|&(_, q)| Phred::new(q)).collect();
            let cigar = match shape {
                // Leading soft clip: the first aligned base is query base 2.
                1 if n >= 3 => Cigar(vec![CigarOp::SoftClip(2), CigarOp::Match(n - 2)]),
                // Leading deletion: nothing lands on the start column.
                2 => Cigar(vec![CigarOp::Del(3), CigarOp::Match(n)]),
                // Clip, interior deletion, short tail.
                3 if n >= 4 => Cigar(vec![
                    CigarOp::SoftClip(1),
                    CigarOp::Match(n - 3),
                    CigarOp::Del(2),
                    CigarOp::Match(2),
                ]),
                // Every op kind between `M` runs.
                4 if n >= 7 => Cigar(vec![
                    CigarOp::SoftClip(1),
                    CigarOp::Match((n - 5) / 2),
                    CigarOp::Ins(2),
                    CigarOp::Match(1),
                    CigarOp::Del(1),
                    CigarOp::Match(n - 5 - (n - 5) / 2),
                    CigarOp::SoftClip(1),
                ]),
                // Two `M` runs on consecutive columns around an insertion.
                5 if n >= 3 => Cigar(vec![
                    CigarOp::Match(1),
                    CigarOp::Ins(1),
                    CigarOp::Match(n - 2),
                ]),
                _ => Cigar::full_match(n),
            };
            let strand = if rev { Flags::REVERSE } else { Flags::none() };
            Record::new(
                id as u64,
                pos,
                mapq,
                strand | Flags(flag_bits),
                Seq::from_ascii(&bases).unwrap(),
                quals,
                cigar,
            )
            .unwrap()
        })
        .collect()
}

/// Naive oracle: walk every record in file order, base by base
/// ([`Record::aligned_bases`]), and push what survives the filters onto a
/// per-position column built by [`PileupColumn::new`], honouring the
/// depth cap — no ring, no dictionary, no `M`-run kernel.
fn oracle_columns(
    records: &[Record],
    start: u32,
    end: u32,
    params: PileupParams,
) -> Vec<PileupColumn> {
    let mut columns: BTreeMap<u32, PileupColumn> = BTreeMap::new();
    for r in records {
        if (params.skip_flagged && r.flags.is_filtered()) || r.mapq < params.min_mapq {
            continue;
        }
        for (rp, base, qual) in r.aligned_bases() {
            if (start..end).contains(&rp) && qual.0 >= params.min_baseq {
                let entry = PileupEntry {
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

/// A file over `records` with small blocks, so most read sets span
/// several and region splits land on block boundaries.
fn small_block_file(records: &[Record], block_capacity: usize) -> BalFile {
    let mut w = BalWriter::with_block_capacity(block_capacity);
    for rec in records.iter().cloned() {
        w.push(rec).unwrap();
    }
    w.finish()
}

fn full_match(id: u64, pos: u32, bases: &[u8], quals: &[u8]) -> Record {
    Record::full_match(
        id,
        pos,
        60,
        Flags::none(),
        Seq::from_ascii(bases).unwrap(),
        quals.iter().map(|&q| Phred::new(q)).collect(),
    )
    .unwrap()
}

/// Regression: a read whose leading base falls below `min_baseq` used to
/// seed the ring one column late, and the next read at the same position
/// then reached behind the emission front (debug: assertion; release:
/// out-of-bounds ring index). Same for a CIGAR that opens with a deletion.
#[test]
fn filtered_leading_base_does_not_strand_the_ring_front() {
    let params = PileupParams::default();
    let low_first = full_match(0, 10, b"ACGT", &[2, 30, 30, 30]);
    let clean = full_match(1, 10, b"ACGT", &[30; 4]);
    let records = vec![low_first, clean];
    let f = BalFile::from_records(records.clone()).unwrap();
    let got: Vec<_> = pileup_region(&f, 0, 100, params).collect();
    assert_eq!(got, oracle_columns(&records, 0, 100, params));
    assert_eq!(got[0].pos, 10);
    assert_eq!(got[0].depth(), 1, "only the clean read stacks on column 10");

    let mut leading_del = full_match(0, 10, b"ACGT", &[30; 4]);
    leading_del.cigar = Cigar(vec![CigarOp::Del(2), CigarOp::Match(4)]);
    let records = vec![leading_del, full_match(1, 10, b"ACGT", &[30; 4])];
    let f = BalFile::from_records(records.clone()).unwrap();
    let got: Vec<_> = pileup_region(&f, 0, 100, params).collect();
    assert_eq!(got, oracle_columns(&records, 0, 100, params));
}

/// Regression: nothing used to check that positions never go backwards
/// across blocks. A two-block file with its index entries swapped parsed
/// fine and panicked in the ring; now the parser refuses it, and a file
/// whose index *looks* sorted but whose second block starts before the
/// first stops the iterator with a typed error.
#[test]
fn blocks_out_of_position_order_error_instead_of_panicking() {
    let mut w = BalWriter::with_block_capacity(1);
    w.push(full_match(0, 10, b"ACGT", &[30; 4])).unwrap();
    w.push(full_match(1, 20, b"ACGT", &[30; 4])).unwrap();
    let mut bytes = w.finish().as_bytes().expect("in-memory").to_vec();
    let n = bytes.len();
    let index_offset = u64::from_le_bytes(bytes[n - 12..n - 4].try_into().unwrap()) as usize;
    // "BIDX" · count(=2) · two five-byte entries (every field < 128).
    let entries = index_offset + 5;
    assert!(bytes[entries..entries + 10].iter().all(|b| *b < 0x80));
    let (a, b) = bytes[entries..entries + 10].split_at_mut(5);
    a.swap_with_slice(b);
    assert!(matches!(
        BalFile::from_bytes(bytes.clone().into()),
        Err(BalError::Corrupt(_))
    ));
    // Forge the first entry's `min_pos` (third field) down to the second's:
    // the index is now sorted and every record lies inside its block's
    // extent, but the records are out of order across the two blocks.
    bytes[entries + 2] = bytes[entries + 5 + 2];
    let forged = BalFile::from_bytes(bytes.into()).unwrap();
    let plan = IoPlan::for_regions(&forged, std::slice::from_ref(&(0..100)));
    let cache = Arc::new(SharedBlockCache::for_plan(forged.clone(), &plan));
    for mut columns in [
        pileup_region(&forged, 0, 100, PileupParams::default()),
        pileup_region_windowed(&cache, plan.window(0), PileupParams::default()),
    ] {
        let positions: Vec<u32> = columns.by_ref().map(|c| c.pos).collect();
        assert_eq!(positions, vec![20, 21, 22, 23], "columns before the break");
        assert!(matches!(
            columns.take_error(),
            Some(BalError::Corrupt("records out of position order"))
        ));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn every_streaming_path_matches_the_oracle(
        raw in prop::collection::vec(record_strategy(), 0..80),
        block_capacity in 1usize..24,
        cap in prop::sample::select(vec![1usize, 3, 8, 1_000_000]),
        min_baseq in prop::sample::select(vec![0u8, 3, 12, 31]),
        keep_filtered_reads in any::<bool>(),
        split_at in 1u32..399,
        cut in (0u32..340, 1u32..120),
    ) {
        // Whole histograms, not just depths: same entries, same strand
        // split, same depth-cap truncation decisions, same `truncated`
        // flag — through a private reader, and through the shared
        // decode-once cache over the planned block windows the driver
        // uses: one window (a sequential run) and two (so boundary blocks
        // are shared).
        let records = build(raw);
        let file = small_block_file(&records, block_capacity);
        let mut params = PileupParams {
            max_depth: cap,
            min_baseq,
            ..PileupParams::default()
        };
        if keep_filtered_reads {
            params.min_mapq = 0;
            params.skip_flagged = false;
        }
        let want = oracle_columns(&records, 0, 400, params);
        let plain: Vec<_> = pileup_region(&file, 0, 400, params).collect();
        prop_assert_eq!(&plain, &want, "pileup_region");
        let whole = 0..400;
        for regions in [std::slice::from_ref(&whole), &[0..split_at, split_at..400]] {
            let plan = IoPlan::for_regions(&file, regions);
            let cache = Arc::new(SharedBlockCache::for_plan(file.clone(), &plan));
            let mut windowed = Vec::new();
            for w in plan.windows() {
                let mut iter = pileup_region_windowed(&cache, w, params);
                windowed.extend(iter.by_ref());
                prop_assert!(iter.take_error().is_none());
            }
            prop_assert_eq!(&windowed, &want, "pileup_region_windowed over {:?}", regions);
        }
        // A region whose bounds fall inside reads' `M` runs: both
        // sources clamp each run to it.
        let (lo, hi) = (cut.0, cut.0 + cut.1);
        let want = oracle_columns(&records, lo, hi, params);
        let plain: Vec<_> = pileup_region(&file, lo, hi, params).collect();
        prop_assert_eq!(&plain, &want, "pileup_region over {}..{}", lo, hi);
        let plan = IoPlan::for_regions(&file, std::slice::from_ref(&(lo..hi)));
        let cache = Arc::new(SharedBlockCache::for_plan(file.clone(), &plan));
        let windowed: Vec<_> = pileup_region_windowed(&cache, plan.window(0), params).collect();
        prop_assert_eq!(&windowed, &want, "pileup_region_windowed over {}..{}", lo, hi);
    }

    #[test]
    fn long_streams_match_the_oracle_at_every_cap(
        raw in prop::collection::vec(record_strategy(), 200..500),
        spread in prop::sample::select(vec![60u32, 300, 3_000]),
        cap in prop::sample::select(vec![1usize, 3, 8, 24, 1_000_000]),
        block_capacity in prop::sample::select(vec![7usize, 64, 1024]),
    ) {
        // Hundreds of overlapping reads: the engine's per-record depth
        // bound outgrows small caps long before any column does, so it is
        // re-tightened again and again, and dense spreads also push real
        // columns past the cap mid-record.
        let raw = raw
            .into_iter()
            .map(|(pos, pairs, rev, shape, mapq, flags)| (pos * spread / 300, pairs, rev, shape, mapq, flags))
            .collect();
        let records = build(raw);
        let file = small_block_file(&records, block_capacity);
        let params = PileupParams { max_depth: cap, ..PileupParams::default() };
        let end = spread + 64;
        let want = oracle_columns(&records, 0, end, params);
        let plain: Vec<_> = pileup_region(&file, 0, end, params).collect();
        prop_assert_eq!(&plain, &want, "pileup_region");
        let half = end / 2;
        let plan = IoPlan::for_regions(&file, &[0..half, half..end]);
        let cache = Arc::new(SharedBlockCache::for_plan(file.clone(), &plan));
        let mut windowed = Vec::new();
        for w in plan.windows() {
            windowed.extend(pileup_region_windowed(&cache, w, params));
        }
        prop_assert_eq!(&windowed, &want, "pileup_region_windowed");
    }

    #[test]
    fn base_counts_match_oracle(raw in prop::collection::vec(record_strategy(), 1..50)) {
        let records = build(raw);
        let file = BalFile::from_records(records.clone()).unwrap();
        let params = PileupParams { min_mapq: 0, skip_flagged: false, ..PileupParams::default() };
        for col in pileup_region(&file, 0, 400, params) {
            let counts = col.base_counts();
            for base in Base::ALL {
                let want = records
                    .iter()
                    .flat_map(|r| r.aligned_bases())
                    .filter(|(rp, b, q)| {
                        *rp == col.pos && *b == base && q.0 >= params.min_baseq
                    })
                    .count() as u32;
                prop_assert_eq!(counts[base.code() as usize], want,
                    "pos {} base {}", col.pos, base);
            }
        }
    }

    #[test]
    fn region_splits_compose(raw in prop::collection::vec(record_strategy(), 0..60),
                             split_at in 1u32..399) {
        let records = build(raw);
        let file = BalFile::from_records(records).unwrap();
        let params = PileupParams::default();
        let whole: Vec<_> = pileup_region(&file, 0, 400, params).collect();
        let mut parts: Vec<_> = pileup_region(&file, 0, split_at, params).collect();
        parts.extend(pileup_region(&file, split_at, 400, params));
        prop_assert_eq!(whole, parts);
    }

    #[test]
    fn lambda_equals_sum_of_error_probs(raw in prop::collection::vec(record_strategy(), 1..40)) {
        let records = build(raw);
        let file = BalFile::from_records(records).unwrap();
        for col in pileup_region(&file, 0, 400, PileupParams::default()) {
            let direct: f64 = col.error_probs().iter().sum();
            prop_assert!((col.quality_bins().lambda() - direct).abs() < 1e-12);
        }
    }

    #[test]
    fn quality_bins_agree_with_expanded_probs(raw in prop::collection::vec(record_strategy(), 1..40)) {
        // The binned view must be a lossless regrouping of the per-read
        // probabilities: same total count, same multiset, sorted ascending,
        // one bin per distinct quality.
        let records = build(raw);
        let file = BalFile::from_records(records).unwrap();
        let mut bins = ultravc_pileup::QualityBins::default();
        for col in pileup_region(&file, 0, 400, PileupParams::default()) {
            col.fill_quality_bins(&mut bins);
            prop_assert_eq!(bins.depth(), col.depth());
            prop_assert_eq!(bins.len(), col.distinct_quals());
            let slice = bins.as_slice();
            prop_assert!(slice.windows(2).all(|w| w[0].0 < w[1].0), "sorted ascending");
            let mut expanded: Vec<f64> = Vec::new();
            for &(p, m) in slice {
                expanded.extend(std::iter::repeat_n(p, m as usize));
            }
            let mut direct = col.error_probs();
            direct.sort_by(f64::total_cmp);
            prop_assert_eq!(expanded, direct);
        }
    }
}
