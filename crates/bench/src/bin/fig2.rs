//! **Figure 2** — the per-thread execution trace of the parallel caller.
//!
//! The paper's HPC-Toolkit screenshot shows: pink (probability
//! computation) dominating, teal (BAM iteration) substantial, light blue
//! (decompression) at the left, dark green (barrier) at the right — with
//! one straggler thread that picked up a high-cost column near the end and
//! serialized the run despite dynamic scheduling.
//!
//! This harness reproduces the scenario: a variant **hotspot in the last
//! tenth of the genome** (dense mismatch columns = expensive exact DPs),
//! an OpenMP-mode run with dynamic scheduling, and the trace rendered as
//! an ASCII timeline plus the imbalance metrics.

use ultravc_bench::{env_f64, env_usize, fmt_duration, rule};
use ultravc_core::config::CallerConfig;
use ultravc_core::driver::{CallDriver, ParallelMode};
use ultravc_genome::reference::{GenomeParams, ReferenceGenome};
use ultravc_genome::variant::TruthSet;
use ultravc_parfor::Schedule;
use ultravc_readsim::dataset::DatasetSpec;
use ultravc_readsim::QualityPreset;
use ultravc_stats::rng::Rng;

fn main() {
    let n_threads = env_usize("ULTRAVC_THREADS", 8);
    let genome_len = env_usize("ULTRAVC_GENOME", 2_000);
    let depth = env_f64("ULTRAVC_FIG2_DEPTH", 8_000.0);
    let reference = ReferenceGenome::sars_cov_2_like(GenomeParams::with_length(genome_len), 22);

    // Variant hotspot: 30 clustered variants in the last tenth — the
    // "partitions with high concentrations of variants near the end"
    // that the paper blames for the residual imbalance.
    let mut rng = Rng::new(0xF162);
    let mut truth = TruthSet::random_in_window(
        &reference,
        30,
        0.02,
        0.2,
        genome_len * 9 / 10..genome_len,
        &mut rng,
    );
    let background =
        TruthSet::random_in_window(&reference, 5, 0.02, 0.1, 100..genome_len * 8 / 10, &mut rng);
    truth.absorb(&background);

    let ds = DatasetSpec::new("fig2", depth, 0xF162)
        .with_truth(truth)
        .with_quality(QualityPreset::Degraded)
        .simulate(&reference);

    println!(
        "Figure 2 reproduction — {genome_len} bp at {depth}x, {n_threads} threads, \
         dynamic schedule, variant hotspot in the last 10%\n"
    );

    let driver = CallDriver {
        config: CallerConfig::improved(),
        filter: None,
        mode: ParallelMode::OpenMp {
            n_threads,
            schedule: Schedule::Dynamic { chunk: 1 },
            chunk_columns: (genome_len / (n_threads * 4)).max(8) as u32,
        },
        trace: true,
        budget: ultravc_core::RunBudget::unbounded(),
    };
    let out = driver.run(&reference, &ds.alignments).unwrap();
    let timeline = out.timeline.expect("trace was requested");
    let team = out.team.expect("parallel mode");

    println!("{}", timeline.render_ascii(100));
    let summary = timeline.summary();
    println!("category shares (of recorded busy time):");
    for c in &summary.categories {
        println!(
            "  {:>14} {:>9} {:>6.1}%",
            c.category.name(),
            fmt_duration(c.total),
            c.share * 100.0
        );
    }
    rule(46);
    println!(
        "wall {:>9}   imbalance(max/mean busy) {:.2}   straggler T{:02}",
        fmt_duration(out.wall),
        team.imbalance(),
        team.straggler()
    );
    println!(
        "barrier waste (Σ idle at join): {}",
        fmt_duration(team.barrier_waste())
    );
    println!(
        "\npaper's observation: even with dynamic scheduling, a high-cost \
         chunk near the end leaves one thread running while the rest wait \
         at the barrier — visible above as the lone P-row tail and its '='."
    );
}
