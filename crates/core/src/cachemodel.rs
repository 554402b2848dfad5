//! Memory-access traces of the caller's kernels, for replay through
//! [`ultravc_cachesim`] — experiment D-1.
//!
//! The paper's discussion attributes the original caller's **>70 %** cache
//! miss rate to the exact computation "repeatedly iterat\[ing\] over an array
//! that does not fit in the cache" — original LoFreq's Poisson-binomial DP
//! keeps `O(d)` state, megabytes per thread at ultra-deep `d` — and the
//! improved caller's **<15 %** to most columns never touching that array:
//! the `O(d)` screen makes a few streaming passes over data the pileup
//! engine just wrote, and only rare fall-through columns run the (pruned,
//! `O(K)`-state) DP.
//!
//! These generators emit each kernel's reference stream so the claim is
//! *measured* against an explicit cache model rather than asserted.
//!
//! **Granularity.** Traces are emitted at cache-line granularity (one
//! reference per distinct 64-byte line in program order) — the stream that
//! reaches the modelled cache after register/L1-coalescing of element
//! accesses, which is what hardware miss-rate counters are ratios over.
//!
//! **Layout.** Each column's pileup entries live in fresh memory (the
//! engine materializes new columns as the genome streams by, at `col`-
//! dependent offsets); the DP scratch arrays are reused buffers at fixed
//! offsets, as in the real caller.
//!
//! **Three generations of column representation.** The entry-list traces
//! ([`entry_pass`], [`improved_column_trace`], [`original_column_trace`])
//! model the 2-byte-per-entry layouts the paper discusses. The **binned**
//! traces ([`histogram_pass`], [`binned_dp_trace`],
//! [`binned_column_trace`]) model what this workspace actually ships
//! since the quality-histogram columns landed: a **fixed ~3 KB histogram
//! per column** (recycled through the pileup engine's freelist, so the
//! lines are hot after warm-up) and a grouped-trial DP whose working set
//! is `O(#bins + K)` — independent of depth, which is why its miss rate
//! stays flat where the original caller's `O(d)` state thrashes.

/// Cache-line size assumed by the trace generators.
pub const LINE: u64 = 64;

/// Bytes per pileup entry (packed base+strand byte and quality byte).
const ENTRY_BYTES: u64 = 2;

/// Bytes of one histogram column: 8 (base, strand) groups × 94 quality
/// slots × 4-byte counts — fixed, independent of depth. This is the
/// `PileupColumn` layout at its largest (the identity dictionary); a file's
/// learned dictionary of `n ≤ 40` bins makes it `8 × n × 4` bytes.
pub const HISTOGRAM_BYTES: u64 = 8 * 94 * 4;

/// Bytes per `(error probability f64, multiplicity u32)` quality bin as
/// laid out in the `QualityBins` vector (padded to 16).
const BIN_BYTES: u64 = 16;

/// Address-space bases; entry streams, histograms, the Phred table and DP
/// scratch never alias.
const ENTRY_BASE: u64 = 0x1_0000_0000;
const DP_BASE: u64 = 0x2000_0000;
const HIST_BASE: u64 = 0x3_0000_0000;
const TABLE_BASE: u64 = 0x4_0000_0000;

/// Lines of one column's entry array.
fn entry_lines(depth: usize) -> u64 {
    (depth as u64 * ENTRY_BYTES).div_ceil(LINE).max(1)
}

/// Per-column base address for its entry array (fresh memory per column).
fn entry_base(col: u64, depth: usize) -> u64 {
    ENTRY_BASE + col * (entry_lines(depth) + 1) * LINE
}

/// One sequential pass over a column's entries (the pileup build pass, the
/// mismatch-count pass, or the `λ = Σ pᵢ` screen pass — identical streams).
pub fn entry_pass(depth: usize, col: u64) -> impl Iterator<Item = u64> {
    let base = entry_base(col, depth);
    (0..entry_lines(depth)).map(move |l| base + l * LINE)
}

/// Per-thread DP scratch base: each worker owns its own reused buffer.
fn dp_base(scratch: u64) -> u64 {
    DP_BASE + scratch * 0x80_0000 // 8 MiB apart: never aliases
}

/// The pruned `O(d·K)` DP (LoFreq's production kernel, state = `K` f64s):
/// per read, its entry line, then a sweep of the `K`-element array.
/// `scratch` identifies the owning thread's reused state buffer.
pub fn pruned_dp_trace(
    depth: usize,
    k: usize,
    col: u64,
    scratch: u64,
) -> impl Iterator<Item = u64> {
    let dp_lines = ((k.max(1) as u64) * 8).div_ceil(LINE);
    let base = entry_base(col, depth);
    let dp = dp_base(scratch);
    (0..depth as u64).flat_map(move |i| {
        std::iter::once(base + (i * ENTRY_BYTES / LINE) * LINE)
            .chain((0..dp_lines).map(move |j| dp + j * LINE))
    })
}

/// The full `O(d²)` DP with `O(d)` state (the kernel the paper says
/// original LoFreq runs): read `n` sweeps the first `n + 1` pmf elements
/// of a depth-sized array.
pub fn full_dp_trace(depth: usize, col: u64, scratch: u64) -> impl Iterator<Item = u64> {
    let base = entry_base(col, depth);
    let dp = dp_base(scratch);
    (0..depth as u64).flat_map(move |n| {
        let dp_lines = ((n + 1) * 8).div_ceil(LINE);
        std::iter::once(base + (n * ENTRY_BYTES / LINE) * LINE)
            .chain((0..dp_lines).map(move |j| dp + j * LINE))
    })
}

/// A column processed by the **improved** caller: build pass (pileup
/// writes), mismatch-count pass, screen pass; the pruned DP only on
/// fall-through.
pub fn improved_column_trace(
    depth: usize,
    k: usize,
    fall_through: bool,
    col: u64,
    scratch: u64,
) -> Box<dyn Iterator<Item = u64>> {
    let passes = entry_pass(depth, col)
        .chain(entry_pass(depth, col))
        .chain(entry_pass(depth, col));
    if fall_through {
        Box::new(passes.chain(pruned_dp_trace(depth, k, col, scratch)))
    } else {
        Box::new(passes)
    }
}

/// A column processed by the **original** caller: build pass, count pass,
/// then the full `O(d)`-state DP on every mismatch column.
pub fn original_column_trace(
    depth: usize,
    col: u64,
    scratch: u64,
) -> Box<dyn Iterator<Item = u64>> {
    Box::new(
        entry_pass(depth, col)
            .chain(entry_pass(depth, col))
            .chain(full_dp_trace(depth, col, scratch)),
    )
}

/// Distinct bytes the pruned DP touches — its working set.
pub fn pruned_dp_working_set(depth: usize, k: usize) -> u64 {
    depth as u64 * ENTRY_BYTES + 8 * k.max(1) as u64
}

/// Distinct bytes the full DP touches.
pub fn full_dp_working_set(depth: usize) -> u64 {
    depth as u64 * ENTRY_BYTES + 8 * depth as u64
}

// ---------------------------------------------------------------------------
// Binned (shipped) representation
// ---------------------------------------------------------------------------

/// Lines of one histogram column.
fn histogram_lines() -> u64 {
    HISTOGRAM_BYTES.div_ceil(LINE)
}

/// Base address of a column's histogram buffer. Column buffers are
/// recycled through the pileup engine's freelist, so a stream of columns
/// cycles through a small `pool` of fixed buffers instead of touching
/// fresh memory per column — the reuse that keeps histogram misses
/// compulsory-only.
fn histogram_base(col: u64, pool: u64) -> u64 {
    HIST_BASE + (col % pool.max(1)) * (histogram_lines() + 1) * LINE
}

/// One sequential pass over a column's histogram (the pileup build pass,
/// a `base_counts` reduction, or the bin-aggregation pass — identical
/// fixed-size streams, depth-independent by construction).
pub fn histogram_pass(col: u64, pool: u64) -> impl Iterator<Item = u64> {
    let base = histogram_base(col, pool);
    (0..histogram_lines()).map(move |l| base + l * LINE)
}

/// One pass over the 94-entry `Q → p` lookup table (the screen's
/// `Σ count(q)·p(q)` dot product reads it alongside the histogram).
pub fn phred_table_pass() -> impl Iterator<Item = u64> {
    let lines = (94u64 * 8).div_ceil(LINE);
    (0..lines).map(move |l| TABLE_BASE + l * LINE)
}

/// The grouped-trial binned DP (`tail_pruned_binned`): per quality bin,
/// its `(p, m)` pair line plus a sweep of the `K`-element state array —
/// `O(#bins + K)` distinct bytes, **independent of depth**. `scratch`
/// identifies the owning thread's reused buffers.
pub fn binned_dp_trace(n_bins: usize, k: usize, scratch: u64) -> impl Iterator<Item = u64> {
    let state_lines = ((k.max(1) as u64) * 8).div_ceil(LINE);
    let dp = dp_base(scratch);
    let bins = dp + 0x40_0000; // same thread-owned region, never aliasing
    (0..n_bins as u64).flat_map(move |b| {
        std::iter::once(bins + (b * BIN_BYTES / LINE) * LINE)
            .chain((0..state_lines).map(move |j| dp + j * LINE))
    })
}

/// A column processed by the **shipped** caller: histogram build pass,
/// reduction pass, screen pass (histogram + Phred table); the binned DP
/// only on fall-through. Compare with [`improved_column_trace`] (entry
/// list, pre-binning) and [`original_column_trace`].
pub fn binned_column_trace(
    n_bins: usize,
    k: usize,
    fall_through: bool,
    col: u64,
    pool: u64,
    scratch: u64,
) -> Box<dyn Iterator<Item = u64>> {
    let passes = histogram_pass(col, pool)
        .chain(histogram_pass(col, pool))
        .chain(histogram_pass(col, pool))
        .chain(phred_table_pass());
    if fall_through {
        Box::new(passes.chain(binned_dp_trace(n_bins, k, scratch)))
    } else {
        Box::new(passes)
    }
}

/// Distinct bytes the binned DP touches — `O(#bins + K)`, no depth term.
pub fn binned_dp_working_set(n_bins: usize, k: usize) -> u64 {
    n_bins as u64 * BIN_BYTES + 8 * k.max(1) as u64
}

/// Distinct bytes a whole binned column touches (histogram + table +
/// DP working set) — the fixed ~3 KB footprint the D-1 experiment should
/// model for the shipped kernels.
pub fn binned_column_working_set(n_bins: usize, k: usize) -> u64 {
    HISTOGRAM_BYTES + 94 * 8 + binned_dp_working_set(n_bins, k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ultravc_cachesim::{Cache, CacheConfig};

    #[test]
    fn trace_lengths() {
        // 130 entries × 2 B = 260 B → 5 lines.
        assert_eq!(entry_pass(130, 0).count(), 5);
        // pruned: per read 1 entry line + ceil(100·8/64) = 13 DP lines.
        assert_eq!(pruned_dp_trace(10, 100, 0, 0).count(), 10 * 14);
        // full, d=16: per read 1 + ceil(8(n+1)/64) lines; n=0..7 → 1,
        // n=8..15 → 2.
        assert_eq!(full_dp_trace(16, 0, 0).count(), 16 + 8 + 16);
    }

    #[test]
    fn columns_use_disjoint_entry_memory() {
        let a: std::collections::HashSet<u64> = entry_pass(1000, 0).collect();
        let b: std::collections::HashSet<u64> = entry_pass(1000, 1).collect();
        assert!(a.is_disjoint(&b));
    }

    #[test]
    fn screen_reuse_keeps_misses_compulsory() {
        // Improved path, no fall-through: 3 passes over the same lines →
        // 1 compulsory miss + 2 hits per line ⇒ rate ≈ 1/3.
        let mut cache = Cache::new(CacheConfig::xeon_l2());
        for col in 0..20u64 {
            for addr in improved_column_trace(5_000, 50, false, col, 0) {
                cache.access(addr);
            }
        }
        let rate = cache.stats().miss_rate();
        assert!(
            (rate - 1.0 / 3.0).abs() < 0.05,
            "screen-only miss rate {rate} should be ≈ 1/3"
        );
    }

    #[test]
    fn small_pruned_dp_stays_resident() {
        let mut cache = Cache::new(CacheConfig::l1d());
        for addr in pruned_dp_trace(10_000, 64, 0, 0) {
            cache.access(addr);
        }
        let rate = cache.stats().miss_rate();
        assert!(rate < 0.1, "small-K DP miss rate {rate}");
    }

    #[test]
    fn full_dp_thrashes_beyond_capacity() {
        // d=10 000 → 80 KB state in a 32 KiB L1: the growing sweep evicts
        // its own tail; most DP references miss.
        let mut cache = Cache::new(CacheConfig::l1d());
        for addr in full_dp_trace(10_000, 0, 0) {
            cache.access(addr);
        }
        let rate = cache.stats().miss_rate();
        assert!(
            rate > 0.7,
            "full-DP miss rate {rate} (paper's >70 % regime)"
        );
    }

    #[test]
    fn improved_vs_original_miss_rates() {
        // The D-1 contrast at unit-test scale: depth 12 000 columns, 2 %
        // fall-through for the improved caller (measured skip rates are
        // far higher), full DP everywhere for the original.
        let depth = 12_000;
        let config = CacheConfig::l1d();

        let mut improved = Cache::new(config);
        for col in 0..50u64 {
            let fall_through = col % 50 == 0;
            for addr in improved_column_trace(depth, 40, fall_through, col, 0) {
                improved.access(addr);
            }
        }
        let mut original = Cache::new(config);
        for col in 0..3u64 {
            for addr in original_column_trace(depth, col, 0) {
                original.access(addr);
            }
        }
        let fast = improved.stats().miss_rate();
        let slow = original.stats().miss_rate();
        assert!(
            slow > 0.7,
            "original should sit in the paper's >70 % regime: {slow:.3}"
        );
        assert!(fast < 0.4, "improved should sit well below: {fast:.3}");
    }

    #[test]
    fn working_set_formulas() {
        assert_eq!(pruned_dp_working_set(100, 10), 200 + 80);
        assert_eq!(pruned_dp_working_set(100, 0), 200 + 8);
        assert_eq!(full_dp_working_set(1_000), 2_000 + 8_000);
    }

    #[test]
    fn binned_working_set_is_depth_free() {
        // The formula has no depth input at all — that *is* the claim.
        assert_eq!(binned_dp_working_set(40, 80), 40 * 16 + 8 * 80);
        assert_eq!(binned_dp_working_set(1, 1), 16 + 8);
        // A whole binned column is ~3 KB + O(#bins + K): resident in any
        // L1 for realistic parameters.
        assert!(binned_column_working_set(40, 250) < 32 * 1024);
        // The entry-based improved column at 1M× depth is megabytes.
        assert!(pruned_dp_working_set(1_000_000, 250) > 1_000_000);
    }

    #[test]
    fn binned_trace_lengths() {
        // Histogram: 3008 B → 47 lines per pass.
        assert_eq!(histogram_pass(0, 2).count(), 47);
        // DP: per bin 1 bins-array line + ceil(80·8/64)=10 state lines.
        assert_eq!(binned_dp_trace(40, 80, 0).count(), 40 * 11);
        // The phred table is 94 f64s → 12 lines.
        assert_eq!(phred_table_pass().count(), 12);
    }

    #[test]
    fn histogram_pool_reuses_lines() {
        let a: std::collections::HashSet<u64> = histogram_pass(0, 2).collect();
        let b: std::collections::HashSet<u64> = histogram_pass(2, 2).collect();
        let c: std::collections::HashSet<u64> = histogram_pass(1, 2).collect();
        assert_eq!(a, b, "freelist recycling: col 2 reuses col 0's buffer");
        assert!(a.is_disjoint(&c));
    }

    #[test]
    fn binned_columns_stay_resident_in_l1() {
        // The shipped representation at *any* depth: after the pool warms
        // up, every histogram/table/DP line hits. 200 columns, ring pool
        // of 2, 3 % fall-through.
        let mut cache = Cache::new(CacheConfig::l1d());
        for col in 0..200u64 {
            for addr in binned_column_trace(40, 80, col % 33 == 0, col, 2, 0) {
                cache.access(addr);
            }
        }
        let rate = cache.stats().miss_rate();
        assert!(
            rate < 0.02,
            "binned columns must be cache-resident: miss rate {rate:.4}"
        );
    }

    #[test]
    fn binned_vs_entry_vs_original_miss_rates() {
        // The updated D-1 contrast: the shipped binned caller sits far
        // below the entry-list improved caller, which sits far below the
        // original — at a depth where the O(d) layouts already thrash.
        let depth = 12_000;
        let config = CacheConfig::l1d();

        let mut binned = Cache::new(config);
        for col in 0..50u64 {
            for addr in binned_column_trace(40, 40, col % 50 == 0, col, 2, 0) {
                binned.access(addr);
            }
        }
        let mut entry = Cache::new(config);
        for col in 0..50u64 {
            for addr in improved_column_trace(depth, 40, col % 50 == 0, col, 0) {
                entry.access(addr);
            }
        }
        let mut original = Cache::new(config);
        for col in 0..3u64 {
            for addr in original_column_trace(depth, col, 0) {
                original.access(addr);
            }
        }
        let b = binned.stats().miss_rate();
        let e = entry.stats().miss_rate();
        let o = original.stats().miss_rate();
        assert!(
            b < 0.15,
            "binned should be in the paper's <15 % regime: {b:.3}"
        );
        assert!(b < e, "binned {b:.3} must beat entry-list {e:.3}");
        assert!(e < o, "entry-list {e:.3} must beat original {o:.3}");
        assert!(o > 0.7, "original in the >70 % regime: {o:.3}");
    }
}
