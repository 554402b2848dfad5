//! Serving-layer latency under concurrent load: p50/p99 per-request
//! wall time against an in-process `ultravc-serve` server holding one
//! ultra-deep fixture open.
//!
//! The measurement: N concurrent clients each issue R `GET /call`
//! requests over a rotating region list, once with the result cache
//! off (every request re-calls) and once with it on (steady state is
//! cache hits). Latency is the full client-side exchange — connect,
//! request, response streamed and parsed.
//!
//! Knobs (environment):
//!
//! * `ULTRAVC_SERVE_REQS` — requests per client (default 25; CI's
//!   quick mode uses less);
//! * `ULTRAVC_SERVE_CEIL` — p99 ceiling in milliseconds for the
//!   cache-on row at the highest concurrency. Enforced only on
//!   multi-core hosts (a single core serializes the worker pool and
//!   the clients against each other, so latency there measures the
//!   scheduler, not the server);
//! * `ULTRAVC_SERVE_MIX_CEIL` — p99 ceiling in milliseconds for
//!   *small* requests in the mixed whale+small workload (same ≥2-core
//!   enforcement rule);
//! * `ULTRAVC_BENCH_OUT` — output path (default `BENCH_serve.json`).
//!
//! Sanity gates this binary always enforces, every host:
//!
//! * a served response is bitwise identical to a fresh in-process
//!   driver run of the same span rendered through `write_vcf`;
//! * every request succeeds with status 200 (no 5xx, no partials on an
//!   unbounded budget);
//! * the server shuts down cleanly (report drained, no server errors).

use std::fs;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use ultravc_bamlite::BalFile;
use ultravc_bench::{env_f64, env_usize, rule};
use ultravc_core::config::CallerConfig;
use ultravc_core::driver::{CallDriver, ParallelMode, CHUNK_COLUMNS};
use ultravc_core::RunBudget;
use ultravc_genome::fasta::{write_fasta, FastaRecord};
use ultravc_genome::reference::{GenomeParams, ReferenceGenome};
use ultravc_parfor::Schedule;
use ultravc_readsim::dataset::DatasetSpec;
use ultravc_serve::{http_get, SampleSpec, ServeConfig, Server};
use ultravc_vcf::{write_vcf, FilterParams};

const GENOME_LEN: usize = 2_000;
const DEPTH: f64 = 1_200.0;
const SEED: u64 = 71;

/// Latency percentiles over one (concurrency, cache) cell.
struct Row {
    concurrency: usize,
    cache: bool,
    requests: usize,
    p50_ms: f64,
    p99_ms: f64,
    mean_ms: f64,
    rps: f64,
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let idx = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

fn main() {
    let reqs = env_usize("ULTRAVC_SERVE_REQS", 25);
    let ceil_ms = env_f64("ULTRAVC_SERVE_CEIL", 2_500.0);
    let out_path =
        std::env::var("ULTRAVC_BENCH_OUT").unwrap_or_else(|_| "BENCH_serve.json".to_string());
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    // Fixture on disk — the server runs its real open path.
    let dir = std::env::temp_dir().join(format!("ultravc-bench-serve-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create fixture dir");
    let reference = ReferenceGenome::sars_cov_2_like(GenomeParams::with_length(GENOME_LEN), SEED);
    let ds = DatasetSpec::new("bench-serve", DEPTH, SEED)
        .with_variants(12, 0.005, 0.05)
        .simulate(&reference);
    let bal_path = dir.join("fixture.bal");
    ds.alignments.write_to(&bal_path).expect("write fixture");
    let mut fa = Vec::new();
    write_fasta(
        &mut fa,
        &[FastaRecord {
            name: reference.name.clone(),
            seq: reference.seq.clone(),
        }],
        70,
    )
    .expect("render fasta");
    let fa_path = dir.join("fixture.fa");
    fs::write(&fa_path, fa).expect("write fasta");
    let chrom = reference.name.clone();

    // Rotating region list: whole genome plus sliding windows, so the
    // cache-off row exercises varied spans and the cache-on row reaches
    // steady-state hits quickly.
    let windows: Vec<String> = std::iter::once(chrom.clone())
        .chain((0..7).map(|i| {
            let start = 1 + i * 250;
            format!("{chrom}:{start}-{}", (start + 499).min(GENOME_LEN))
        }))
        .collect();

    println!(
        "serve latency: {GENOME_LEN} bp × depth {DEPTH:.0}, {} regions, {reqs} req/client, {cores} core(s)\n",
        windows.len()
    );
    println!(
        "{:>12} {:>7} {:>10} {:>10} {:>10} {:>10}",
        "concurrency", "cache", "p50 ms", "p99 ms", "mean ms", "req/s"
    );
    rule(64);

    let mut rows: Vec<Row> = Vec::new();
    for &concurrency in &[2usize, 8] {
        for cache_on in [false, true] {
            let mut config = ServeConfig::new("127.0.0.1:0");
            config.samples.push(SampleSpec {
                name: "bench".to_string(),
                bal: bal_path.clone(),
                fasta: fa_path.clone(),
                fault: None,
            });
            config.workers = cores.clamp(2, 4);
            config.max_inflight = concurrency + 2;
            config.cache_capacity = if cache_on { 32 } else { 0 };
            // The matrix measures raw latency, not overload policy: lift
            // the cost budget so no request sheds (the mixed row below
            // exercises the cost-aware queue).
            config.cost_budget = 1 << 40;
            let server = Arc::new(Server::bind(config).expect("bind bench server"));

            // Sanity: a served whole-genome body is bitwise identical
            // to a fresh driver run (checked once per server boot).
            let served = http_get(
                server.local_addr(),
                &format!("/call?sample=bench&region={chrom}"),
                None,
            )
            .expect("sanity request");
            assert_eq!(served.status, 200, "{}", served.text());
            let driver = CallDriver {
                config: CallerConfig::improved(),
                filter: Some(FilterParams::default()),
                mode: ParallelMode::OpenMp {
                    n_threads: 1,
                    schedule: Schedule::Dynamic { chunk: 1 },
                    chunk_columns: CHUNK_COLUMNS,
                },
                trace: false,
                budget: RunBudget::unbounded(),
            };
            let bal = BalFile::open(&bal_path).expect("reopen fixture");
            let outcome = driver
                .run_region(&reference, &bal, 0..GENOME_LEN as u32)
                .expect("direct run");
            let expected = write_vcf(&reference.name, "ultravc-0.1", &outcome.records);
            assert_eq!(served.text(), expected, "served body != direct driver run");

            let wall = Instant::now();
            let handles: Vec<_> = (0..concurrency)
                .map(|client| {
                    let server = Arc::clone(&server);
                    let windows = windows.clone();
                    std::thread::spawn(move || {
                        let mut latencies = Vec::with_capacity(reqs);
                        for i in 0..reqs {
                            let region = &windows[(client + i) % windows.len()];
                            let url = format!("/call?sample=bench&region={region}");
                            let t = Instant::now();
                            let resp =
                                http_get(server.local_addr(), &url, None).expect("bench request");
                            latencies.push(t.elapsed().as_secs_f64() * 1_000.0);
                            assert_eq!(resp.status, 200, "client {client} req {i}");
                        }
                        latencies
                    })
                })
                .collect();
            let mut latencies: Vec<f64> = handles
                .into_iter()
                .flat_map(|h| h.join().expect("client thread"))
                .collect();
            let wall = wall.elapsed().as_secs_f64();
            latencies.sort_by(f64::total_cmp);
            let n = latencies.len();
            let row = Row {
                concurrency,
                cache: cache_on,
                requests: n,
                p50_ms: percentile(&latencies, 50.0),
                p99_ms: percentile(&latencies, 99.0),
                mean_ms: latencies.iter().sum::<f64>() / n as f64,
                rps: n as f64 / wall,
            };
            println!(
                "{:>12} {:>7} {:>10.2} {:>10.2} {:>10.2} {:>10.1}",
                row.concurrency,
                if row.cache { "on" } else { "off" },
                row.p50_ms,
                row.p99_ms,
                row.mean_ms,
                row.rps
            );
            rows.push(row);

            let report = Arc::try_unwrap(server)
                .ok()
                .expect("all clients done")
                .shutdown();
            assert_eq!(report.server_errors, 0, "server errors during bench");
            assert_eq!(report.partial, 0, "unbounded requests must complete");
        }
    }
    rule(64);

    // Mixed whale+small workload: one client pins whole-genome calls
    // while small spans flow concurrently. The cost-aware queue plus
    // the worker pool must keep small-request latency bounded even
    // with a whale always in flight — this is the overload row the
    // serve-chaos CI job gates (`ULTRAVC_SERVE_MIX_CEIL`).
    let mix_ceil_ms = env_f64("ULTRAVC_SERVE_MIX_CEIL", 2_000.0);
    let total_cost = BalFile::open(&bal_path).expect("probe fixture").n_records();
    let mut config = ServeConfig::new("127.0.0.1:0");
    config.samples.push(SampleSpec {
        name: "bench".to_string(),
        bal: bal_path.clone(),
        fasta: fa_path.clone(),
        fault: None,
    });
    config.workers = cores.clamp(2, 4);
    config.max_inflight = 8;
    config.cache_capacity = 0;
    // 4 whole-file costs: whole-genome requests classify as whales
    // (> budget/8) and small spans as small, while the single whale
    // stream plus small traffic never sheds.
    config.cost_budget = total_cost * 4;
    let server = Arc::new(Server::bind(config).expect("bind mixed server"));

    let stop = Arc::new(AtomicBool::new(false));
    let whale = {
        let server = Arc::clone(&server);
        let stop = Arc::clone(&stop);
        let chrom = chrom.clone();
        std::thread::spawn(move || {
            let mut served = 0usize;
            while !stop.load(Ordering::SeqCst) {
                let resp = http_get(
                    server.local_addr(),
                    &format!("/call?sample=bench&region={chrom}&cache=off"),
                    None,
                )
                .expect("whale request");
                assert_eq!(resp.status, 200, "whale: {}", resp.text());
                served += 1;
            }
            served
        })
    };
    let small_windows: Vec<String> = (0..8)
        .map(|i| {
            let start = 1 + i * 150;
            format!("{chrom}:{start}-{}", start + 149)
        })
        .collect();
    let small_clients: Vec<_> = (0..2)
        .map(|client| {
            let server = Arc::clone(&server);
            let small_windows = small_windows.clone();
            std::thread::spawn(move || {
                let mut latencies = Vec::with_capacity(reqs);
                for i in 0..reqs {
                    let region = &small_windows[(client + i) % small_windows.len()];
                    let url = format!("/call?sample=bench&region={region}&cache=off");
                    let t = Instant::now();
                    let resp = http_get(server.local_addr(), &url, None).expect("small request");
                    latencies.push(t.elapsed().as_secs_f64() * 1_000.0);
                    assert_eq!(resp.status, 200, "small client {client} req {i}");
                }
                latencies
            })
        })
        .collect();
    let mut small_lat: Vec<f64> = small_clients
        .into_iter()
        .flat_map(|h| h.join().expect("small client"))
        .collect();
    stop.store(true, Ordering::SeqCst);
    let whales_served = whale.join().expect("whale client");
    small_lat.sort_by(f64::total_cmp);
    let mix_p50 = percentile(&small_lat, 50.0);
    let mix_p99 = percentile(&small_lat, 99.0);
    println!(
        "mixed workload: {} whole-genome whale(s) alongside {} small requests — \
         small p50 {mix_p50:.2} ms, p99 {mix_p99:.2} ms",
        whales_served,
        small_lat.len()
    );
    let report = Arc::try_unwrap(server)
        .ok()
        .expect("mixed clients done")
        .shutdown();
    assert_eq!(report.server_errors, 0, "server errors in mixed workload");
    assert_eq!(
        report.shed, 0,
        "mixed workload must not shed at this budget"
    );

    let mix_enforced = cores >= 2;
    if mix_enforced {
        assert!(
            mix_p99 <= mix_ceil_ms,
            "small-request p99 under a whale is {mix_p99:.2} ms, over the \
             {mix_ceil_ms:.0} ms ceiling (override with ULTRAVC_SERVE_MIX_CEIL)"
        );
        println!("gate: mixed small p99 = {mix_p99:.2} ms ≤ {mix_ceil_ms:.0} ms ✓");
    } else {
        println!(
            "gate: mixed skipped (1 core; small p99 = {mix_p99:.2} ms, ceiling {mix_ceil_ms:.0} ms)"
        );
    }
    rule(64);

    // Latency gate: cache-on p99 at the highest concurrency. Only
    // meaningful with real parallelism between the pool and clients.
    let gated = rows
        .iter()
        .filter(|r| r.cache)
        .max_by_key(|r| r.concurrency)
        .expect("cache-on row");
    let gate_enforced = cores >= 2;
    if gate_enforced {
        assert!(
            gated.p99_ms <= ceil_ms,
            "p99 at N={} is {:.2} ms, over the {ceil_ms:.0} ms ceiling \
             (override with ULTRAVC_SERVE_CEIL)",
            gated.concurrency,
            gated.p99_ms
        );
        println!(
            "\ngate: p99@N={} cache-on = {:.2} ms ≤ {ceil_ms:.0} ms ✓",
            gated.concurrency, gated.p99_ms
        );
    } else {
        println!(
            "\ngate: skipped (1 core; p99@N={} cache-on = {:.2} ms, ceiling {ceil_ms:.0} ms)",
            gated.concurrency, gated.p99_ms
        );
    }

    let mut json = String::from("{\n");
    json.push_str(&format!(
        "  \"fixture\": {{\"genome_len\": {GENOME_LEN}, \"depth\": {DEPTH}, \"seed\": {SEED}, \
         \"regions\": {}, \"requests_per_client\": {reqs}, \"cores\": {cores}}},\n",
        windows.len()
    ));
    json.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"concurrency\": {}, \"cache\": {}, \"requests\": {}, \"p50_ms\": {:.3}, \
             \"p99_ms\": {:.3}, \"mean_ms\": {:.3}, \"rps\": {:.1}}}{}\n",
            r.concurrency,
            r.cache,
            r.requests,
            r.p50_ms,
            r.p99_ms,
            r.mean_ms,
            r.rps,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"mixed\": {{\"whales\": {whales_served}, \"small_requests\": {}, \
         \"small_p50_ms\": {mix_p50:.3}, \"small_p99_ms\": {mix_p99:.3}, \
         \"ceil_ms\": {mix_ceil_ms}, \"enforced\": {mix_enforced}}},\n",
        small_lat.len()
    ));
    json.push_str(&format!(
        "  \"gate\": {{\"enforced\": {gate_enforced}, \"ceil_ms\": {ceil_ms}, \
         \"p99_ms\": {:.3}, \"concurrency\": {}}}\n",
        gated.p99_ms, gated.concurrency
    ));
    json.push_str("}\n");
    fs::write(&out_path, json).expect("write BENCH_serve.json");
    println!("wrote {out_path}");

    let _ = fs::remove_dir_all(&dir);
}
