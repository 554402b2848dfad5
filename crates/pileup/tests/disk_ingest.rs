//! On-disk ingest parity: a BAL file written to disk and reopened —
//! read whole into memory, or by positioned reads through
//! [`BalFile::open`] — must pile up bitwise identically to the in-memory
//! original, through a private reader and through the shared decode-once
//! cache.

use std::sync::Arc;
use ultravc_bamlite::{BalFile, Cigar, Flags, IoPlan, Record, SharedBlockCache};
use ultravc_genome::phred::Phred;
use ultravc_genome::sequence::Seq;
use ultravc_pileup::{pileup_region, pileup_region_windowed, PileupParams};

fn mk(id: u64, pos: u32, bases: &[u8], q: u8, flags: Flags) -> Record {
    let seq = Seq::from_ascii(bases).unwrap();
    let quals = vec![Phred::new(q); seq.len()];
    Record::full_match(id, pos, 60, flags, seq, quals).unwrap()
}

/// Mixed workload: overlaps, strands, deletions, soft clips, low-quality
/// bases, sub-threshold mapq, flagged reads (mirrors the engine tests).
fn varied_records() -> Vec<Record> {
    let mut records = Vec::new();
    for i in 0..150u64 {
        let pos = (i % 29) as u32 * 4;
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

fn temp_path(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!(
        "ultravc-disk-ingest-{}-{tag}.bal",
        std::process::id()
    ))
}

/// The file at `path` through both backings.
fn both_backings(path: &std::path::Path) -> [BalFile; 2] {
    [
        BalFile::from_bytes(std::fs::read(path).unwrap().into()).unwrap(),
        BalFile::open(path).unwrap(),
    ]
}

#[test]
fn disk_tiers_pile_identically() {
    let file = BalFile::from_records(varied_records()).unwrap();
    let path = temp_path("tiers");
    file.write_to(&path).unwrap();
    for params in [
        PileupParams::default(),
        PileupParams {
            max_depth: 7,
            min_baseq: 20,
            ..PileupParams::default()
        },
    ] {
        let baseline: Vec<_> = pileup_region(&file, 0, 600, params).collect();
        assert!(!baseline.is_empty(), "workload must cover columns");
        for disk in both_backings(&path) {
            let tier = disk.source().tier_name();
            let got: Vec<_> = pileup_region(&disk, 0, 600, params).collect();
            assert_eq!(got, baseline, "{tier}");
            // Shared-cache (decode-once) mode over the disk-backed file.
            let plan = IoPlan::for_regions(&disk, std::slice::from_ref(&(0..600)));
            let cache = Arc::new(SharedBlockCache::for_plan(disk.clone(), &plan));
            let cached: Vec<_> = pileup_region_windowed(&cache, plan.window(0), params).collect();
            assert_eq!(cached, baseline, "{tier} shared cache");
        }
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn disk_backed_shared_cache_still_decodes_once_across_regions() {
    let file = BalFile::from_records(varied_records()).unwrap();
    let path = temp_path("cache-regions");
    file.write_to(&path).unwrap();
    let params = PileupParams::default();
    let whole: Vec<_> = pileup_region(&file, 0, 600, params).collect();
    for disk in both_backings(&path) {
        let tier = disk.source().tier_name();
        let plan = IoPlan::for_regions(&disk, &[0..40, 40..90, 90..600]);
        let cache = Arc::new(SharedBlockCache::for_plan(disk.clone(), &plan));
        let mut iters: Vec<_> = plan
            .windows()
            .iter()
            .map(|w| pileup_region_windowed(&cache, w, params))
            .collect();
        let mut split = Vec::new();
        for it in &mut iters {
            split.extend(it.by_ref());
        }
        assert_eq!(split, whole, "{tier}");
        let total_decodes: u64 = iters.iter().map(|it| it.decode_stats().blocks).sum();
        assert_eq!(
            total_decodes,
            disk.n_blocks() as u64,
            "{tier}: boundary blocks must decode exactly once"
        );
    }
    std::fs::remove_file(&path).ok();
}
