//! Grouped-trial kernel speedup measurement — the perf trajectory of the
//! quality-binned pipeline.
//!
//! Three comparisons:
//!
//! 1. **per-trial vs binned** on simulated columns at depths {10k, 100k,
//!    1M} × K {5, 20, 80} with a Phred 20–40 quality mix — the PR 1
//!    speedup (algorithmic: `O(d·K)` → `O(K·Σ min(mᵦ, K))`, which is far
//!    smaller when the bins hold thousands of reads each);
//! 2. **scalar vs SIMD binned** — the dispatched vector backend against
//!    the pinned scalar fallback on the *same* binned kernel (ISA-level:
//!    branchy per-output Neumaier dot products → branchless two-sum axpy
//!    sweeps);
//! 3. **per-trial vs binned on long-read columns** — 3,000× with a
//!    LongRead-like Q2–Q25 spectrum at K ∈ {250, 600}, where (almost)
//!    every bin is thinner than K, so `Σ min(mᵦ, K) ≈ d` and binning alone
//!    saves nothing; what the binned kernel gains there is its tilt window
//!    (`O(w_f·w_b)` per bin: a few tilted standard deviations of states
//!    times as many binomial terms).
//!
//! Prints both tables and emits the raw numbers as `BENCH_binned.json`
//! in the working directory; CI uploads the JSON as a workflow artifact,
//! which is the trend record.
//!
//! Acceptance gates this binary enforces:
//!
//! * binned ≥ 5× over per-trial at depth 100k (PR 1's floor);
//! * binned ≥ 5× over per-trial on the long-read rows (the tilt window's
//!   floor; the full-range fold measured 2.6–3.4× there, the windowed
//!   one ~9×);
//! * SIMD ≥ 1.5× over scalar at depth 100k, K = 80 — **only when a
//!   vector backend dispatched** (an AVX2/NEON host); on scalar-only
//!   hosts the gate is skipped with a message, not failed;
//! * small-K routing (`Kernels::for_k`, K = 5 < `SMALL_K_THRESHOLD`)
//!   must be ≥ the unrouted vector path within noise (floor 0.9) —
//!   routing may never regress;
//! * every row's tail agrees across dispatch paths to ≤ 1e−14 relative
//!   (the backends are bitwise-identical by design, so this should hold
//!   with margin to spare), and early-exit decisions — bail-or-complete
//!   and the certified trial count — match exactly.

use std::time::Instant;
use ultravc_bench::{fmt_depth, rule};
use ultravc_stats::poisson_binomial::{BinnedTailScratch, PoissonBinomial, TailBudget};
use ultravc_stats::TailOutcome;

/// Timed repetitions per cell; each cell reports the median.
const REPS: usize = 5;
/// Where the JSON record goes (working directory).
const OUT_PATH: &str = "BENCH_binned.json";
/// Routed ÷ unrouted small-K time may not fall below this: the runs are
/// microseconds, so the floor leaves room for noise, not for a loss.
const SMALL_K_FLOOR: f64 = 0.9;
/// Binned ÷ per-trial speedup floor on the long-read rows.
const LONG_READ_FLOOR: f64 = 5.0;
/// Depth and K cuts of the long-read rows: `noisy_3k`'s depth, and K near
/// the p10 and p90 of its exact-completed columns.
const LONG_READ_DEPTH: u32 = 3_000;
const LONG_READ_KS: [usize; 2] = [250, 600];

/// A simulated depth-`d` pileup column at mixed Phred 20-40, as sorted
/// `(error probability, multiplicity)` quality bins.
fn phred_bins(depth: usize, seed: u64) -> Vec<(f64, u32)> {
    let mut rng = ultravc_stats::rng::Rng::new(seed);
    let mut counts = [0u32; 64];
    for _ in 0..depth {
        counts[rng.range_u64(20, 40) as usize] += 1;
    }
    let mut bins: Vec<(f64, u32)> = counts
        .iter()
        .enumerate()
        .filter(|(_, &m)| m > 0)
        .map(|(q, &m)| (10f64.powf(-(q as f64) / 10.0), m))
        .collect();
    bins.sort_by(|a, b| a.0.total_cmp(&b.0));
    bins
}

/// A depth-`d` column with a LongRead-like quality spectrum — Phred
/// ~ N(13, 3.6) over Q2–Q25 — as sorted `(error probability,
/// multiplicity)` bins. The widest bin holds ~11 % of the reads.
fn long_read_bins(depth: u32) -> Vec<(f64, u32)> {
    let weight = |q: u32| (-0.5 * ((q as f64 - 13.0) / 3.6).powi(2)).exp();
    let norm: f64 = (2..=25).map(weight).sum();
    (2..=25u32)
        .rev()
        .map(|q| {
            let m = (depth as f64 * weight(q) / norm).round() as u32;
            (10f64.powf(-(q as f64) / 10.0), m.max(1))
        })
        .collect()
}

/// Median-of-[`REPS`] wall time of `f`, in seconds.
fn time_median(mut f: impl FnMut()) -> f64 {
    let mut samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

fn rel_diff(a: f64, b: f64) -> f64 {
    (a - b).abs() / a.abs().max(b.abs()).max(f64::MIN_POSITIVE)
}

struct Row {
    depth: usize,
    k: usize,
    n_bins: usize,
    per_trial_s: f64,
    binned_s: f64,
}

/// One JSON line per row, comma-separated.
fn rows_json(rows: &[Row]) -> String {
    let mut json = String::new();
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"depth\": {}, \"k\": {}, \"n_bins\": {}, \"per_trial_us\": {:.3}, \"binned_us\": {:.3}, \"speedup\": {:.2}}}{}\n",
            r.depth,
            r.k,
            r.n_bins,
            r.per_trial_s * 1e6,
            r.binned_s * 1e6,
            r.per_trial_s / r.binned_s,
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    json
}

struct SimdRow {
    depth: usize,
    k: usize,
    scalar_s: f64,
    simd_s: f64,
}

/// Cross-path agreement checks: identical tails (≤1e−14 rel, in practice
/// bitwise) and identical early-exit decisions, including the certified
/// bail trial count.
fn assert_paths_agree(bins: &[(f64, u32)], depth: usize, k: usize) {
    let scalar_kr = ultravc_simd::scalar();
    let active_kr = ultravc_simd::kernels();
    let scalar_val = PoissonBinomial::tail_pruned_binned_with(scalar_kr, bins, k);
    let active_val = PoissonBinomial::tail_pruned_binned_with(active_kr, bins, k);
    let rel = rel_diff(scalar_val, active_val);
    assert!(
        rel <= 1e-14,
        "dispatch paths disagree at d={depth} k={k}: scalar {scalar_val:e} vs {} {active_val:e} (rel {rel:e})",
        active_kr.name
    );
    // Early-exit decisions must match exactly: probe a budget below the
    // exact tail (forces a bail somewhere) and one above it (must
    // complete on both paths).
    let mut scratch = BinnedTailScratch::new();
    for bail_above in [scalar_val * 0.5, scalar_val * 2.0] {
        if !(bail_above.is_finite() && bail_above > 0.0) {
            continue;
        }
        let budget = TailBudget { bail_above };
        let a =
            PoissonBinomial::tail_early_exit_binned_with(scalar_kr, bins, k, budget, &mut scratch);
        let b =
            PoissonBinomial::tail_early_exit_binned_with(active_kr, bins, k, budget, &mut scratch);
        match (a, b) {
            (TailOutcome::Exact(x), TailOutcome::Exact(y)) => {
                assert!(rel_diff(x, y) <= 1e-14, "d={depth} k={k}: {x:e} vs {y:e}")
            }
            (
                TailOutcome::Bailed {
                    lower_bound: lb_a,
                    trials_used: t_a,
                },
                TailOutcome::Bailed {
                    lower_bound: lb_b,
                    trials_used: t_b,
                },
            ) => {
                assert_eq!(
                    t_a, t_b,
                    "certified-bail trial counts diverge at d={depth} k={k}"
                );
                assert!(rel_diff(lb_a, lb_b) <= 1e-14, "d={depth} k={k} bail bounds");
            }
            (a, b) => panic!("early-exit decisions diverge at d={depth} k={k}: {a:?} vs {b:?}"),
        }
    }
}

fn main() {
    let active = ultravc_simd::kernels();
    println!("binned vs per-trial pruned-tail kernels (median of {REPS} runs)\n");
    let header = format!(
        "{:>12} {:>5} {:>7} {:>14} {:>14} {:>10}",
        "depth", "K", "#bins", "per-trial", "binned", "speedup"
    );
    println!("{header}");
    rule(header.len());

    let budget = TailBudget {
        bail_above: f64::INFINITY,
    };
    let mut scratch = BinnedTailScratch::new();
    let mut rows = Vec::new();
    let mut simd_rows = Vec::new();
    for &depth in &[10_000usize, 100_000, 1_000_000] {
        let bins = phred_bins(depth, 0xB16B);
        let pb = PoissonBinomial::from_bins(&bins);
        for &k in &[5usize, 20, 80] {
            // Sanity: both kernels agree before being timed, and the
            // dispatch paths agree with each other.
            let reference = pb.tail_pruned(k);
            let binned_val = PoissonBinomial::tail_pruned_binned(&bins, k);
            let rel = rel_diff(reference, binned_val);
            assert!(rel <= 1e-11, "kernels disagree at d={depth} k={k}: {rel:e}");
            assert_paths_agree(&bins, depth, k);

            let per_trial_s = time_median(|| {
                std::hint::black_box(pb.tail_pruned(std::hint::black_box(k)));
            });
            let binned_s = time_median(|| {
                std::hint::black_box(PoissonBinomial::tail_early_exit_binned(
                    std::hint::black_box(&bins),
                    std::hint::black_box(k),
                    budget,
                    &mut scratch,
                ));
            });
            println!(
                "{:>12} {:>5} {:>7} {:>13.2}µs {:>13.2}µs {:>9.1}×",
                fmt_depth(depth as f64),
                k,
                bins.len(),
                per_trial_s * 1e6,
                binned_s * 1e6,
                per_trial_s / binned_s
            );
            rows.push(Row {
                depth,
                k,
                n_bins: bins.len(),
                per_trial_s,
                binned_s,
            });

            // SIMD vs scalar on the same binned kernel.
            let scalar_s = time_median(|| {
                std::hint::black_box(PoissonBinomial::tail_early_exit_binned_with(
                    ultravc_simd::scalar(),
                    std::hint::black_box(&bins),
                    std::hint::black_box(k),
                    budget,
                    &mut scratch,
                ));
            });
            let simd_s = time_median(|| {
                std::hint::black_box(PoissonBinomial::tail_early_exit_binned_with(
                    active,
                    std::hint::black_box(&bins),
                    std::hint::black_box(k),
                    budget,
                    &mut scratch,
                ));
            });
            simd_rows.push(SimdRow {
                depth,
                k,
                scalar_s,
                simd_s,
            });
        }
    }

    println!("\nlong-read columns: per-trial vs binned (median of {REPS} runs)\n");
    println!("{header}");
    rule(header.len());
    let long_bins = long_read_bins(LONG_READ_DEPTH);
    let long_pb = PoissonBinomial::from_bins(&long_bins);
    let mut long_rows = Vec::new();
    for k in LONG_READ_KS {
        let reference = long_pb.tail_pruned(k);
        let binned_val = PoissonBinomial::tail_pruned_binned(&long_bins, k);
        let rel = rel_diff(reference, binned_val);
        assert!(
            rel <= 1e-12,
            "kernels disagree on the long-read row k={k}: {rel:e}"
        );
        assert_paths_agree(&long_bins, long_pb.len(), k);
        let per_trial_s = time_median(|| {
            std::hint::black_box(long_pb.tail_pruned(std::hint::black_box(k)));
        });
        let binned_s = time_median(|| {
            std::hint::black_box(PoissonBinomial::tail_early_exit_binned(
                std::hint::black_box(&long_bins),
                std::hint::black_box(k),
                budget,
                &mut scratch,
            ));
        });
        println!(
            "{:>12} {:>5} {:>7} {:>13.2}µs {:>13.2}µs {:>9.1}×",
            fmt_depth(long_pb.len() as f64),
            k,
            long_bins.len(),
            per_trial_s * 1e6,
            binned_s * 1e6,
            per_trial_s / binned_s
        );
        long_rows.push(Row {
            depth: long_pb.len(),
            k,
            n_bins: long_bins.len(),
            per_trial_s,
            binned_s,
        });
    }

    println!(
        "\nscalar vs {} binned kernel (median of {REPS} runs)\n",
        active.name
    );
    let header2 = format!(
        "{:>12} {:>5} {:>14} {:>14} {:>10}",
        "depth", "K", "scalar", active.name, "speedup"
    );
    println!("{header2}");
    rule(header2.len());
    for r in &simd_rows {
        println!(
            "{:>12} {:>5} {:>13.2}µs {:>13.2}µs {:>9.1}×",
            fmt_depth(r.depth as f64),
            r.k,
            r.scalar_s * 1e6,
            r.simd_s * 1e6,
            r.scalar_s / r.simd_s
        );
    }

    // PR 1's acceptance gate: ≥5× at depth 100k for every K tested.
    let floor = rows
        .iter()
        .filter(|r| r.depth == 100_000)
        .map(|r| r.per_trial_s / r.binned_s)
        .fold(f64::INFINITY, f64::min);
    println!("\nminimum binned speedup at 100,000×: {floor:.1}× (acceptance floor: 5×)");
    assert!(floor >= 5.0, "binned kernel must be ≥5× at depth 100k");

    // The tilt window's gate: every bin is thinner than K on these rows,
    // so only the window can put the binned kernel ahead of per-trial.
    let long_floor = long_rows
        .iter()
        .map(|r| r.per_trial_s / r.binned_s)
        .fold(f64::INFINITY, f64::min);
    println!(
        "minimum binned speedup on long-read columns: {long_floor:.1}× (acceptance floor: {LONG_READ_FLOOR}×)"
    );
    assert!(
        long_floor >= LONG_READ_FLOOR,
        "binned kernel must be ≥{LONG_READ_FLOOR}× over per-trial on long-read columns (got {long_floor:.2}×)"
    );

    // This PR's gate: SIMD ≥ 1.5× over scalar at depth 100k, K=80 — only
    // meaningful when a vector backend actually dispatched.
    let gate = simd_rows
        .iter()
        .find(|r| r.depth == 100_000 && r.k == 80)
        .expect("gate row present");
    let simd_speedup = gate.scalar_s / gate.simd_s;
    if active.name == "scalar" {
        println!(
            "simd gate skipped: no vector backend on this host (dispatched \"{}\")",
            active.name
        );
    } else {
        println!(
            "simd speedup at 100,000×, K=80: {simd_speedup:.2}× via {} (acceptance floor: 1.5×)",
            active.name
        );
        assert!(
            simd_speedup >= 1.5,
            "{} kernel must be ≥1.5× over scalar at depth 100k, K=80 (got {simd_speedup:.2}×)",
            active.name
        );
    }

    // Small-K routing gate: K=5 sits below SMALL_K_THRESHOLD, so
    // `for_k` must hand back the scalar table, and the routed call must
    // be at least at parity with the unrouted vector path. The floor is
    // noise-tolerant — the point is "routing never costs a regression",
    // not a speedup claim.
    let small_k = 5usize;
    assert!(small_k < ultravc_simd::SMALL_K_THRESHOLD);
    let routed = active.for_k(small_k);
    assert_eq!(
        routed.name, "scalar",
        "for_k must route K={small_k} to the scalar table"
    );
    let small_bins = phred_bins(100_000, 0xB16B);
    let routed_s = time_median(|| {
        std::hint::black_box(PoissonBinomial::tail_early_exit_binned_with(
            routed,
            std::hint::black_box(&small_bins),
            std::hint::black_box(small_k),
            budget,
            &mut scratch,
        ));
    });
    let unrouted_s = time_median(|| {
        std::hint::black_box(PoissonBinomial::tail_early_exit_binned_with(
            active,
            std::hint::black_box(&small_bins),
            std::hint::black_box(small_k),
            budget,
            &mut scratch,
        ));
    });
    let small_k_ratio = unrouted_s / routed_s;
    println!(
        "small-K routing at 100,000×, K={small_k}: routed {:.2}µs vs unrouted {} {:.2}µs \
         ({small_k_ratio:.2}×, floor {SMALL_K_FLOOR}×)",
        routed_s * 1e6,
        active.name,
        unrouted_s * 1e6,
    );
    assert!(
        small_k_ratio >= SMALL_K_FLOOR,
        "small-K routing must not regress: {small_k_ratio:.2}× < {SMALL_K_FLOOR}×"
    );

    let mut json = format!(
        "{{\n  \"benchmark\": \"binned_vs_per_trial_tail\",\n  \"kernel\": \"{}\",\n  \"rows\": [\n{}  ],\n  \"long_read_rows\": [\n{}",
        active.name,
        rows_json(&rows),
        rows_json(&long_rows),
    );
    json.push_str("  ],\n  \"simd_rows\": [\n");
    for (i, r) in simd_rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"depth\": {}, \"k\": {}, \"scalar_us\": {:.3}, \"simd_us\": {:.3}, \"speedup\": {:.2}}}{}\n",
            r.depth,
            r.k,
            r.scalar_s * 1e6,
            r.simd_s * 1e6,
            r.scalar_s / r.simd_s,
            if i + 1 == simd_rows.len() { "" } else { "," }
        ));
    }
    json.push_str(&format!(
        "  ],\n  \"small_k_routing\": {{\"k\": {small_k}, \"depth\": 100000, \"routed_us\": {:.3}, \"unrouted_us\": {:.3}, \"ratio\": {small_k_ratio:.2}}}\n}}\n",
        routed_s * 1e6,
        unrouted_s * 1e6,
    ));
    std::fs::write(OUT_PATH, json).expect("write benchmark JSON");
    println!("wrote {OUT_PATH}");
}
