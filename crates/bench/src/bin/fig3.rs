//! **Figure 3** — the upset plot of low-frequency SNVs shared across the
//! five depth-of-coverage datasets.
//!
//! Paper: 134 (min) to 885 (max) SNVs per dataset; the 100,000× dataset
//! had the most unique SNVs (735); the 300,000× and 1,000,000× pair
//! shared the most for any pair; exactly 2 SNVs were shared by all five.
//!
//! This harness builds five samples over one reference with the same
//! sharing *structure* (a 2-variant core carried by every sample, a pool
//! shared by random subsets, per-sample private variants — scaled ~1/10),
//! sequences each at its tier depth, calls variants, and prints the upset
//! table of the resulting call sets. Intersections emerge from what the
//! caller *detects*, not from the truth sets directly: shallow tiers miss
//! their rarest variants exactly as the paper's shallow samples do.

use ultravc_bench::rule;
use ultravc_core::analysis::UpsetTable;
use ultravc_core::driver::CallDriver;
use ultravc_genome::reference::{GenomeParams, ReferenceGenome};
use ultravc_readsim::dataset::{shared_truth_sets, DatasetSpec};
use ultravc_readsim::QualityPreset;

/// Every tier's depth is its nominal depth times this.
const SCALE: f64 = 0.1;
const GENOME_LEN: usize = 3_000;

fn main() {
    let reference = ReferenceGenome::sars_cov_2_like(GenomeParams::with_length(GENOME_LEN), 33);

    // Sharing structure scaled ~1/10 from the paper's counts: a core of 2
    // high-frequency variants (the paper's all-five overlap), a pool of 60
    // at p=0.5 spanning each tier's detection frontier, 30 private each.
    let truths = shared_truth_sets(
        &reference,
        5,
        2,
        60,
        0.5,
        30,
        (0.0004, 0.04),
        (0.08, 0.25),
        0xF163,
    );

    let tiers: [(f64, &str); 5] = [
        (1_000.0, "1,000x"),
        (30_000.0, "30,000x"),
        (100_000.0, "100,000x"),
        (300_000.0, "300,000x"),
        (1_000_000.0, "1,000,000x"),
    ];
    println!(
        "Figure 3 reproduction — 5 samples over a {GENOME_LEN} bp reference, \
         scale {SCALE}\n"
    );

    let mut names = Vec::new();
    let mut call_sets = Vec::new();
    for ((nominal, label), truth) in tiers.iter().zip(truths) {
        let depth = (nominal * SCALE).max(10.0);
        let ds = DatasetSpec::new(*label, depth, 0xF163 + *nominal as u64)
            .with_truth(truth)
            .with_quality(QualityPreset::HiSeq)
            .simulate(&reference);
        let out = CallDriver::sequential()
            .run(&reference, &ds.alignments)
            .unwrap();
        println!(
            "  {label:>10}: {} SNVs called (of {} planted)",
            out.records.len(),
            ds.truth.len()
        );
        names.push(label.to_string());
        call_sets.push(out.records);
    }

    let upset = UpsetTable::from_call_sets(names.clone(), &call_sets);
    println!("\n{}", upset.render_text());

    println!("summary:");
    rule(60);
    let sizes = upset.set_sizes();
    let (min_i, _) = sizes.iter().enumerate().min_by_key(|(_, s)| **s).unwrap();
    let (max_i, _) = sizes.iter().enumerate().max_by_key(|(_, s)| **s).unwrap();
    println!(
        "  per-set totals: min {} ({}), max {} ({})  [paper: 134–885]",
        sizes[min_i], names[min_i], sizes[max_i], names[max_i]
    );
    println!(
        "  shared by all five: {}  [paper: 2]",
        upset.shared_by_all()
    );
    let uniques: Vec<usize> = (0..5).map(|i| upset.unique_to(i)).collect();
    let (uniq_i, uniq_n) = uniques.iter().enumerate().max_by_key(|(_, n)| **n).unwrap();
    println!(
        "  most unique SNVs: {} in {}  [paper: 735 in 100,000x]",
        uniq_n, names[uniq_i]
    );
    let m = upset.pairwise_matrix();
    let mut best = (0, 1, 0usize);
    for i in 0..5 {
        for j in i + 1..5 {
            if m[i][j] > best.2 {
                best = (i, j, m[i][j]);
            }
        }
    }
    println!(
        "  largest pairwise overlap: {} ∩ {} = {}  [paper: 300,000x ∩ 1,000,000x]",
        names[best.0], names[best.1], best.2
    );
}
