//! **Figure 1** — (a) the Poisson approximation to the Poisson-binomial
//! distribution; (b) the improved workflow's decision shares.
//!
//! `fig1 pmf` emits the CSV series behind Figure 1a: the exact
//! Poisson-binomial pmf (the paper's bars), the approximating Poisson pmf
//! (the red line), and both right-tail statistics, for a realistic deep
//! pileup column.
//!
//! `fig1 workflow` runs the Figure 1b decision workflow over a simulated
//! ultra-deep dataset and reports how columns flowed through it: skipped
//! by the `O(d)` screen, dismissed by the early-exit DP, fully computed
//! (or certified by the upper bound without the DP), called. Run with no
//! argument to get both.

use ultravc_bench::{env_f64, env_usize, rule};
use ultravc_core::caller::call_variants;
use ultravc_core::config::CallerConfig;
use ultravc_genome::reference::{GenomeParams, ReferenceGenome};
use ultravc_readsim::dataset::DatasetSpec;
use ultravc_readsim::QualityPreset;
use ultravc_stats::poisson::Poisson;
use ultravc_stats::poisson_binomial::PoissonBinomial;
use ultravc_stats::rng::Rng;

fn main() {
    let mode = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "both".to_string());
    if mode == "pmf" || mode == "both" {
        pmf_series();
    }
    if mode == "workflow" || mode == "both" {
        if mode == "both" {
            println!();
        }
        workflow_shares();
    }
}

/// Figure 1a: exact pmf vs Poisson density over a mixed-quality column.
fn pmf_series() {
    let depth = env_usize("ULTRAVC_FIG1_DEPTH", 500);
    let mut rng = Rng::new(0xF161);
    // A deep column with realistic mixed Phred 20–40 qualities.
    let probs: Vec<f64> = (0..depth)
        .map(|_| 10f64.powf(-(rng.range_u64(20, 40) as f64) / 10.0))
        .collect();
    let pb = PoissonBinomial::new(probs.clone()).unwrap();
    let lambda = pb.mean();
    let poisson = Poisson::new(lambda).unwrap();
    let pmf = pb.pmf();

    println!("Figure 1a series — depth {depth}, λ = Σ pᵢ = {lambda:.4}");
    println!("k,poisson_binomial_pmf,poisson_pmf,pb_tail_P(X>=k),poisson_tail_P(X>=k)");
    let k_max = ((lambda + 6.0 * lambda.sqrt()).ceil() as usize).clamp(8, depth);
    for k in 0..=k_max {
        println!(
            "{k},{:.6e},{:.6e},{:.6e},{:.6e}",
            pmf[k],
            poisson.pmf(k as u64),
            pb.tail_pruned(k),
            poisson.sf(k as u64)
        );
    }
    let bound = ultravc_stats::le_cam_bound(&probs);
    println!("# Le Cam / Barbour–Hall total-variation bound: {bound:.3e}");
}

/// Figure 1b: decision-path shares over a simulated deep dataset.
fn workflow_shares() {
    let depth = env_f64("ULTRAVC_FIG1_WORKFLOW_DEPTH", 10_000.0);
    let genome_len = env_usize("ULTRAVC_GENOME", 600);
    let reference = ReferenceGenome::sars_cov_2_like(GenomeParams::with_length(genome_len), 11);
    let ds = DatasetSpec::new("fig1b", depth, 0xF1B)
        .with_variants(10, 0.01, 0.05)
        .with_quality(QualityPreset::Degraded)
        .simulate(&reference);

    let improved = call_variants(&reference, &ds.alignments, &CallerConfig::improved()).unwrap();
    let original = call_variants(&reference, &ds.alignments, &CallerConfig::original()).unwrap();

    let s = improved.stats;
    println!("Figure 1b workflow shares — genome {genome_len} bp at {depth}x (Degraded quality)");
    let header = format!("{:>28} {:>10} {:>8}", "decision path", "columns", "share");
    println!("{header}");
    rule(header.len());
    let pct = |n: u64| 100.0 * n as f64 / s.mismatch_columns.max(1) as f64;
    println!(
        "{:>28} {:>10} {:>7.1}%",
        "skipped by Poisson screen",
        s.skipped_by_approx,
        pct(s.skipped_by_approx)
    );
    println!(
        "{:>28} {:>10} {:>7.1}%",
        "early-exit DP bail",
        s.bailed_early,
        pct(s.bailed_early)
    );
    println!(
        "{:>28} {:>10} {:>7.1}%",
        "exact DP completed",
        s.exact_completed,
        pct(s.exact_completed)
    );
    println!(
        "{:>28} {:>10} {:>7.1}%",
        "→ of which called",
        s.calls,
        pct(s.calls)
    );
    println!(
        "{:>28} {:>10} {:>7.1}%",
        "→ certified by upper bound",
        s.certified_calls,
        pct(s.certified_calls)
    );
    println!(
        "\nmismatch columns: {} of {} covered columns",
        s.mismatch_columns, s.columns
    );
    println!(
        "safety check: improved calls = {} / original calls = {} — {}",
        improved.stats.calls,
        original.stats.calls,
        if improved.records == original.records {
            "identical (the paper's invariant)"
        } else {
            "DIFFERENT (invariant violated!)"
        }
    );
    assert_eq!(improved.records, original.records);
}
