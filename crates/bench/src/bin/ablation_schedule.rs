//! **A-3** — loop-schedule comparison on the Figure 2 hotspot workload.
//!
//! The paper replaced the script's static partitioning with OpenMP dynamic
//! scheduling to reduce load imbalance, observed that a hotspot near the
//! end still strands one thread, and suggested "smaller partitions towards
//! the end" (= guided scheduling) as the refinement. This ablation
//! measures all of them on the same hotspot dataset.

use std::time::Duration;
use ultravc_bench::{env_f64, env_usize, fmt_duration, rule, script_emulation};
use ultravc_core::config::CallerConfig;
use ultravc_core::driver::{CallDriver, ParallelMode};
use ultravc_genome::reference::{GenomeParams, ReferenceGenome};
use ultravc_genome::variant::TruthSet;
use ultravc_parfor::{Schedule, TeamReport};
use ultravc_readsim::dataset::DatasetSpec;
use ultravc_readsim::QualityPreset;
use ultravc_stats::rng::Rng;

fn main() {
    let n_threads = env_usize("ULTRAVC_THREADS", 8);
    let genome_len = env_usize("ULTRAVC_GENOME", 2_000);
    let depth = env_f64("ULTRAVC_A3_DEPTH", 8_000.0);
    let reference = ReferenceGenome::sars_cov_2_like(GenomeParams::with_length(genome_len), 77);
    let mut rng = Rng::new(0xA3);
    let truth = TruthSet::random_in_window(
        &reference,
        30,
        0.02,
        0.2,
        genome_len * 9 / 10..genome_len,
        &mut rng,
    );
    let ds = DatasetSpec::new("a3", depth, 0xA3)
        .with_truth(truth)
        .with_quality(QualityPreset::Degraded)
        .simulate(&reference);

    println!(
        "A-3 schedule ablation — {genome_len} bp at {depth}x, hotspot in the \
         last 10%, {n_threads} threads\n"
    );
    let header = format!(
        "{:>22} {:>10} {:>11} {:>14} {:>10}",
        "schedule", "wall", "imbalance", "barrier waste", "calls"
    );
    println!("{header}");
    rule(header.len());

    let chunk = (genome_len / (n_threads * 8)).max(4) as u32;
    let candidates: Vec<(String, ParallelMode)> = vec![
        (
            "static".to_string(),
            ParallelMode::OpenMp {
                n_threads,
                schedule: Schedule::Static,
                chunk_columns: chunk,
            },
        ),
        (
            "dynamic,1".to_string(),
            ParallelMode::OpenMp {
                n_threads,
                schedule: Schedule::Dynamic { chunk: 1 },
                chunk_columns: chunk,
            },
        ),
        (
            "dynamic,4".to_string(),
            ParallelMode::OpenMp {
                n_threads,
                schedule: Schedule::Dynamic { chunk: 4 },
                chunk_columns: chunk,
            },
        ),
        (
            "guided".to_string(),
            ParallelMode::OpenMp {
                n_threads,
                schedule: Schedule::Guided { min_chunk: 1 },
                chunk_columns: chunk,
            },
        ),
    ];

    let config = CallerConfig::improved();
    let mut reference_records: Option<usize> = None;
    let mut row = |name: &str, run: &dyn Fn() -> (Duration, TeamReport, usize)| {
        // Best-of-3 to tame scheduler noise.
        let (wall, team, n_records) = (0..3)
            .map(|_| run())
            .min_by_key(|(wall, _, _)| *wall)
            .expect("ran three times");
        println!(
            "{:>22} {:>10} {:>11.2} {:>14} {:>10}",
            name,
            fmt_duration(wall),
            team.imbalance(),
            fmt_duration(team.barrier_waste()),
            n_records
        );
        match reference_records {
            None => reference_records = Some(n_records),
            Some(n) => assert_eq!(n, n_records, "schedules must not change the calls"),
        }
    };
    for (name, mode) in candidates {
        let driver = CallDriver {
            config: config.clone(),
            filter: None,
            mode,
            trace: false,
            budget: ultravc_core::RunBudget::unbounded(),
        };
        row(&name, &|| {
            let out = driver.run(&reference, &ds.alignments).unwrap();
            let team = out.team.expect("every run has a team");
            (out.wall, team, out.records.len())
        });
    }
    // The partition script is no driver mode: one static partition per job.
    row("script (1 part/job)", &|| {
        let out = script_emulation(&reference, &ds.alignments, &config, None, n_threads).unwrap();
        (out.team.wall, out.team, out.records.len())
    });
    println!(
        "\nexpected shape: static (≈ the script's partitioning) suffers the \
         worst imbalance because one contiguous block holds the hotspot; \
         dynamic narrows it; guided's shrinking tail chunks narrow it \
         further — the paper's suggested refinement."
    );
}
