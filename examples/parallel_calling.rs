//! Parallel calling: one run path, two loop shapes.
//!
//! Runs one dataset through (a) the sequential caller and (b) the
//! OpenMP-style shared-memory driver at several thread counts —
//! demonstrating that (b) is deterministic and identical to (a), because
//! both are the same parallel-for filtering once. Finishes with a
//! per-thread trace timeline. (What the paper replaced — the partition
//! script whose double filtering made the output depend on the job count —
//! is demonstrated by `cargo run --release -p ultravc-bench --bin
//! double_filter`.)
//!
//! ```sh
//! cargo run --release --example parallel_calling
//! ```

use ultravc::prelude::*;

fn main() {
    let reference = ReferenceGenome::sars_cov_2_like(GenomeParams::with_length(2_000), 44);
    let dataset = DatasetSpec::new("parallel", 4_000.0, 0xA11E1)
        .with_variants(25, 0.004, 0.05)
        .simulate(&reference);

    // Call at the raw significance level so the set spans the quality
    // range and the single filter pass has borderline records to drop.
    let config = CallerConfig {
        bonferroni: Bonferroni::None,
        ..CallerConfig::default()
    };

    let make = |mode| CallDriver {
        config: config.clone(),
        filter: Some(FilterParams::default()),
        mode,
        trace: false,
        budget: RunBudget::unbounded(),
    };

    let seq = make(ParallelMode::Sequential)
        .run(&reference, &dataset.alignments)
        .expect("well-formed data");
    println!(
        "sequential: {} filtered calls in {:?}",
        seq.records.len(),
        seq.wall
    );

    for n_threads in [2usize, 4, 8] {
        let out = make(ParallelMode::OpenMp {
            n_threads,
            schedule: Schedule::Dynamic { chunk: 1 },
            chunk_columns: CHUNK_COLUMNS,
        })
        .run(&reference, &dataset.alignments)
        .expect("well-formed data");
        assert_eq!(
            out.records, seq.records,
            "parallel output must be identical"
        );
        println!(
            "openmp ×{n_threads}:  {} calls in {:?} — identical to sequential ✓",
            out.records.len(),
            out.wall
        );
    }

    // A traced run for the Figure 2 view.
    let mut traced = make(ParallelMode::OpenMp {
        n_threads: 4,
        schedule: Schedule::Dynamic { chunk: 1 },
        chunk_columns: CHUNK_COLUMNS,
    });
    traced.trace = true;
    let out = traced
        .run(&reference, &dataset.alignments)
        .expect("well-formed data");
    println!("\nper-thread timeline:");
    print!("{}", out.timeline.expect("trace on").render_ascii(90));
}
