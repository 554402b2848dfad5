//! **D-3** — the double-filtering bug of the original parallel script, and
//! its fix by the shared-memory driver.
//!
//! The original LoFreq parallel wrapper runs the dynamic VCF filter once
//! per worker process and then again on the merged output. Because the
//! filter's SNV-quality threshold is derived from the size of the call set
//! it is handed, the final output depends on how the input happened to be
//! partitioned. The paper's OpenMP port "move\[s\] all of the variant
//! calling to the same process", filtering once.
//!
//! This harness runs the same dataset through the sequential caller
//! (ground truth: one filter pass), the OpenMP driver, and the script
//! emulation at several job counts, and reports the divergences.

use ultravc_bench::{rule, script_emulation};
use ultravc_core::config::{Bonferroni, CallerConfig};
use ultravc_core::driver::CallDriver;
use ultravc_genome::reference::{GenomeParams, ReferenceGenome};
use ultravc_readsim::dataset::DatasetSpec;
use ultravc_readsim::QualityPreset;
use ultravc_vcf::{FilterParams, VcfRecord};

const GENOME_LEN: usize = 2_000;
const DEPTH: f64 = 3_000.0;

fn main() {
    let reference = ReferenceGenome::sars_cov_2_like(GenomeParams::with_length(GENOME_LEN), 44);
    // Plenty of borderline-quality variants so the data-dependent
    // threshold has something to disagree about.
    let ds = DatasetSpec::new("d3", DEPTH, 0xD3)
        .with_variants(40, 0.004, 0.05)
        .with_quality(QualityPreset::Degraded)
        .simulate(&reference);

    println!(
        "D-3 double-filtering bug — {GENOME_LEN} bp at {DEPTH}x, 40 planted \
         variants incl. borderline frequencies\n"
    );
    // Call at the raw significance level so the call set spans the quality
    // range (with the default Bonferroni correction every record's QUAL is
    // ≥ 50 and no filter threshold can reach it — borderline records are
    // what the two pipelines disagree about).
    let config = CallerConfig {
        bonferroni: Bonferroni::None,
        ..CallerConfig::default()
    };
    let with_config = |mut d: CallDriver| {
        d.config = config.clone();
        d
    };

    let seq = with_config(CallDriver::sequential())
        .run(&reference, &ds.alignments)
        .unwrap();
    println!(
        "sequential (single filter pass): {} calls survive, QUAL threshold {:.2}",
        seq.records.len(),
        seq.filter_reports[0].qual_threshold
    );
    let omp = with_config(CallDriver::openmp(4))
        .run(&reference, &ds.alignments)
        .unwrap();
    println!(
        "openmp ×4   (single filter pass): {} calls survive — {}",
        omp.records.len(),
        if omp.records == seq.records {
            "identical to sequential ✓ (the fix)"
        } else {
            "DIFFERS from sequential (bug in the fix!)"
        }
    );
    assert_eq!(omp.records, seq.records);

    println!();
    let header = format!(
        "{:>8} {:>10} {:>12} {:>24} {:>16}",
        "jobs", "survive", "vs single", "stage-1 thresholds", "stage-2 thr"
    );
    println!("{header}");
    rule(header.len());
    let mut any_divergence = false;
    for n_jobs in [1usize, 2, 4, 8, 16] {
        let filter = Some(FilterParams::default());
        let script = script_emulation(&reference, &ds.alignments, &config, filter, n_jobs).unwrap();
        let delta = diff_count(&script.records, &seq.records);
        any_divergence |= delta > 0;
        let stage1: Vec<String> = script.filter_reports[..script.filter_reports.len() - 1]
            .iter()
            .map(|r| format!("{:.1}", r.qual_threshold))
            .collect();
        let stage2 = script.filter_reports.last().unwrap().qual_threshold;
        println!(
            "{:>8} {:>10} {:>12} {:>24} {:>16.2}",
            n_jobs,
            script.records.len(),
            if delta == 0 {
                "same".to_string()
            } else {
                format!("{delta} differ")
            },
            stage1.join("/"),
            stage2
        );
    }
    println!(
        "\nthe paper's point: the script pipeline's output is a function of \
         the partitioning (thresholds above change with job count), while \
         the shared-memory pipeline always matches the sequential output."
    );
    if !any_divergence {
        println!(
            "(no record-level divergence at these parameters — thresholds \
             still shift with job count; a deeper dataset or more variants \
             push borderline records across them)"
        );
    }
}

/// Symmetric difference size of two record sets (by variant key).
fn diff_count(a: &[VcfRecord], b: &[VcfRecord]) -> usize {
    use std::collections::HashSet;
    let ka: HashSet<_> = a.iter().map(VcfRecord::key).collect();
    let kb: HashSet<_> = b.iter().map(VcfRecord::key).collect();
    ka.symmetric_difference(&kb).count()
}
