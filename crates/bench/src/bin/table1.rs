//! **Table I** — execution times of the original and improved callers
//! across the paper's five depth tiers.
//!
//! Paper (Intel Xeon Gold 6138, real SARS-CoV-2 data):
//!
//! ```text
//! Input size  Avg. depth   Orig.    New     Speed-up
//! 58M         1,000x       52 s     51 s    1.0x
//! 237M        30,000x      58 m     26 m    2.6x
//! 935M        100,000x     14 h     4 h     3.3x
//! 2G          300,000x     55 h     12 h    4.6x
//! 25G         1,000,000x   415 h    111 h   3.7x   (depth capped at 1M)
//! ```
//!
//! This harness keeps the tier *ratios* (1 : 30 : 100 : 300 : 1000) and the
//! depth cap mechanism, scaled by `SCALE` (1/10) over a `GENOME_LEN`-bp
//! slice (400) so the whole ladder runs in seconds. The invariant that made
//! the paper's comparison meaningful is asserted, not eyeballed:
//! **identical variant counts** from both versions in every tier.

use std::time::Instant;
use ultravc_bench::{fmt_bytes, fmt_depth, fmt_duration, rule};
use ultravc_core::caller::call_variants;
use ultravc_core::config::CallerConfig;
use ultravc_genome::reference::{GenomeParams, ReferenceGenome};
use ultravc_readsim::dataset::DatasetSpec;

/// Every tier's depth is its nominal depth times this.
const SCALE: f64 = 0.1;
/// Length of the simulated reference slice, in bp.
const GENOME_LEN: usize = 400;

fn main() {
    // The paper's 1M-read depth cap, scaled the same way: it sits between
    // the 300,000x and 1,000,000x tiers, so the deepest tier pays full
    // decode cost for columns the caller then truncates — the mechanism
    // behind Table I's speedup dip on the 25 GB file.
    let depth_cap = (1_000_000.0 * SCALE * 0.25).max(100.0) as usize;

    let reference = ReferenceGenome::sars_cov_2_like(GenomeParams::with_length(GENOME_LEN), 7);
    println!(
        "Table I reproduction — genome {} bp, scale {SCALE}, depth cap {depth_cap}",
        reference.len()
    );
    println!("paper tiers 1,000x…1,000,000x are scaled by {SCALE}; labels keep nominal depths\n");
    let header = format!(
        "{:>11} {:>12} {:>12} {:>10} {:>10} {:>9} {:>8} {:>7}",
        "Input size", "Avg. depth", "Reads", "Orig.", "New", "Speed-up", "Vars", "Equal?"
    );
    println!("{header}");
    rule(header.len());

    let tiers: [(f64, &str); 5] = [
        (1_000.0, "1,000x"),
        (30_000.0, "30,000x"),
        (100_000.0, "100,000x"),
        (300_000.0, "300,000x"),
        (1_000_000.0, "1,000,000x"),
    ];
    for (i, (nominal, label)) in tiers.iter().enumerate() {
        let depth = (nominal * SCALE).max(10.0);
        // Burden-preserving scaling: with depth scaled by 1/10, the
        // Degraded preset's ~10× error rate keeps each tier's per-column
        // mismatch burden λ = Σ pᵢ at the paper's level — λ is what the
        // exact DP's cost grows with, so scaling *it* preserves the
        // speedup shape.
        let spec = DatasetSpec::new(*label, depth, 0xD47A + i as u64)
            .with_variants(8, 0.01, 0.05)
            .with_quality(ultravc_readsim::QualityPreset::Degraded);
        let ds = spec.simulate(&reference);
        let input_size = ds.alignments.source().len();

        let mut orig_cfg = CallerConfig::original();
        orig_cfg.pileup.max_depth = depth_cap;
        let mut new_cfg = CallerConfig::improved();
        new_cfg.pileup.max_depth = depth_cap;

        let t0 = Instant::now();
        let orig = call_variants(&reference, &ds.alignments, &orig_cfg).unwrap();
        let t_orig = t0.elapsed();
        let t1 = Instant::now();
        let new = call_variants(&reference, &ds.alignments, &new_cfg).unwrap();
        let t_new = t1.elapsed();

        let identical = orig.records == new.records;
        let speedup = t_orig.as_secs_f64() / t_new.as_secs_f64().max(1e-9);
        println!(
            "{:>11} {:>12} {:>12} {:>10} {:>10} {:>8.1}x {:>8} {:>7}",
            fmt_bytes(input_size),
            fmt_depth(*nominal),
            ds.alignments.n_records(),
            fmt_duration(t_orig),
            fmt_duration(t_new),
            speedup,
            new.stats.calls,
            if identical { "yes" } else { "NO!" }
        );
        assert!(
            identical,
            "tier {label}: the shortcut changed the call set — the paper's \
             safety invariant is violated"
        );
    }
    println!(
        "\nshape check: speedup ≈ 1x at the shallow tier, grows with depth \
         (paper: 1.0 / 2.6 / 3.3 / 4.6 / 3.7)."
    );
}
