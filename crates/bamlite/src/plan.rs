//! The per-run block plan: which blocks each region of a run reads.
//!
//! [`IoPlan::for_regions`] takes the driver's region partition and
//! computes, per region, its **block window** — the region's overlapping
//! blocks, so a worker only ever touches its own blocks plus the
//! boundary blocks it shares with neighbours ([`BlockWindow`]). The
//! windows are what `pileup_region_windowed` iterates instead of
//! re-walking the index per chunk, and what
//! [`SharedBlockCache::for_plan`](crate::SharedBlockCache::for_plan)
//! counts to know how many requests each block will receive before its
//! streams can be released.
//!
//! The plan schedules nothing: a block's payload is read when the first
//! worker asks the cache for it, by one positioned read under the run's
//! [`IoBudget`](crate::io::IoBudget).

use crate::file::BalFile;
use std::ops::Range;
use ultravc_sync::Arc;

/// One region's slice of the plan: the blocks whose genomic extent
/// overlaps it — its own blocks plus the boundary blocks it shares with
/// neighbouring regions, and nothing else.
#[derive(Debug, Clone)]
pub struct BlockWindow {
    region: Range<u32>,
    blocks: Arc<[usize]>,
}

impl BlockWindow {
    /// The genomic region this window serves.
    pub fn region(&self) -> Range<u32> {
        self.region.clone()
    }

    /// The window's block ids, ascending.
    pub fn blocks(&self) -> &[usize] {
        &self.blocks
    }

    /// A shared handle to the block list (what a pileup iterator keeps).
    pub fn blocks_shared(&self) -> Arc<[usize]> {
        Arc::clone(&self.blocks)
    }
}

/// A per-run block plan over one [`BalFile`]: one [`BlockWindow`] per
/// region, in partition order.
#[derive(Debug, Clone)]
pub struct IoPlan {
    windows: Vec<BlockWindow>,
}

impl IoPlan {
    /// Plan the given region partition against `file`'s index.
    pub fn for_regions(file: &BalFile, regions: &[Range<u32>]) -> IoPlan {
        let windows = regions
            .iter()
            .map(|r| BlockWindow {
                region: r.clone(),
                blocks: file.blocks_overlapping(r.start, r.end).into(),
            })
            .collect();
        IoPlan { windows }
    }

    /// The per-region block windows, in partition order.
    pub fn windows(&self) -> &[BlockWindow] {
        &self.windows
    }

    /// The window of region `i` (panics out of range, like indexing).
    pub fn window(&self, i: usize) -> &BlockWindow {
        &self.windows[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::file::BalWriter;
    use crate::record::{Flags, Record};
    use ultravc_genome::phred::Phred;
    use ultravc_genome::sequence::Seq;

    fn sample_file(n: usize, block_cap: usize) -> BalFile {
        let mut w = BalWriter::with_block_capacity(block_cap);
        for i in 0..n as u64 {
            let seq = Seq::from_ascii(b"ACGTACGTACGTACGT").unwrap();
            let quals: Vec<Phred> = (0..16)
                .map(|j| Phred::new(20 + ((i as usize + j) % 20) as u8))
                .collect();
            let rec = Record::full_match(i, (i * 3) as u32, 60, Flags::none(), seq, quals).unwrap();
            w.push(rec).unwrap();
        }
        w.finish()
    }

    #[test]
    fn plan_windows_match_index_overlap_and_schedule_is_distinct() {
        let file = sample_file(100, 8);
        let regions = vec![0u32..60, 60..150, 150..400];
        let plan = IoPlan::for_regions(&file, &regions);
        assert_eq!(plan.windows().len(), regions.len());
        for (i, (w, r)) in plan.windows().iter().zip(&regions).enumerate() {
            assert_eq!(w.region(), r.clone());
            assert_eq!(w.blocks(), file.blocks_overlapping(r.start, r.end));
            assert_eq!(plan.window(i).blocks(), w.blocks());
            assert_eq!(&*w.blocks_shared(), w.blocks());
        }
        // Every block of a full partition is planned, and a block two
        // windows share appears in both (the cache counts on that).
        let mut planned: Vec<usize> = plan
            .windows()
            .iter()
            .flat_map(|w| w.blocks().iter().copied())
            .collect();
        let with_boundaries = planned.len();
        planned.sort_unstable();
        planned.dedup();
        assert_eq!(
            planned,
            file.blocks_overlapping(0, 400),
            "full partition plans every overlapping block"
        );
        assert!(with_boundaries > planned.len(), "boundary blocks repeat");
    }

    #[test]
    fn plan_for_partial_partition_covers_only_its_blocks() {
        let file = sample_file(200, 4);
        let plan = IoPlan::for_regions(&file, std::slice::from_ref(&(90u32..120)));
        assert_eq!(plan.window(0).blocks(), file.blocks_overlapping(90, 120));
        assert!(plan.window(0).blocks().len() < file.n_blocks());
        assert!(!plan.window(0).blocks().is_empty());
        let empty = IoPlan::for_regions(&file, &[]);
        assert!(empty.windows().is_empty());
    }
}
