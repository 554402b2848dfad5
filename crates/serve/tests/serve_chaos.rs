//! Server chaos suite: seeded fault plans injected into live serving
//! sessions, driven by concurrent clients.
//!
//! The contract under test (the serving layer's failure model):
//!
//! * Faults on one sample never touch another: with sample A on a dead
//!   device, sample B's responses stay **bitwise identical** to fresh
//!   CLI runs.
//! * A faulted sample trips its circuit breaker within the configured
//!   threshold, quarantined requests answer fast `503`s, `/health`
//!   reports `degraded`, and once the fault clears a half-open probe
//!   rebuilds the session and recovers — automatically.
//! * Transient faults (EIO) are retried away invisibly; contained
//!   panics are one-shot; truncation is fatal per-region but spans
//!   below the truncation point still serve exactly.
//! * Small requests queued behind a whale complete before a second
//!   queued whale (cost-aware two-class scheduling), and pushing cost
//!   past the queue budget sheds with a `Retry-After`.
//! * `/shutdown` during an in-flight whale cancels it promptly instead
//!   of waiting it out.
//! * No scenario leaks a thread.

use std::fs;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use proptest::prelude::*;
use ultravc_bamlite::{BalFile, FaultPlan};
use ultravc_core::driver::{CallDriver, ParallelMode};
use ultravc_core::{CallerConfig, RunBudget};
use ultravc_genome::fasta::{read_fasta, write_fasta, FastaRecord};
use ultravc_genome::reference::{GenomeParams, ReferenceGenome};
use ultravc_readsim::dataset::DatasetSpec;
use ultravc_serve::{http_get, SampleSpec, ServeConfig, Server};
use ultravc_vcf::{write_vcf, FilterParams};

/// Per-test scratch directory, wiped on entry.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ultravc-chaos-{}-{tag}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// Simulate an ultra-deep fixture and write its `.bal` + `.fa`. Short
/// reads (`read_len`) keep the record count high enough that the file
/// spans several 1024-record blocks — the granularity fault offsets and
/// cost estimates work at.
fn write_fixture(
    dir: &Path,
    seed: u64,
    genome_len: usize,
    depth: f64,
    read_len: usize,
) -> (PathBuf, PathBuf, String) {
    let reference = ReferenceGenome::sars_cov_2_like(GenomeParams::with_length(genome_len), seed);
    let ds = DatasetSpec::new("chaos", depth, seed)
        .with_read_len(read_len)
        .with_variants(8, 0.005, 0.05)
        .simulate(&reference);
    let bal = dir.join(format!("s{seed}.bal"));
    ds.alignments.write_to(&bal).unwrap();
    let mut buf = Vec::new();
    write_fasta(
        &mut buf,
        &[FastaRecord {
            name: reference.name.clone(),
            seq: reference.seq.clone(),
        }],
        70,
    )
    .unwrap();
    let fa = dir.join(format!("s{seed}.fa"));
    fs::write(&fa, buf).unwrap();
    (bal, fa, reference.name)
}

/// What a fresh `ultravc call --region` process would print for this
/// span — the identity baseline for every served response.
fn fresh_cli_vcf(bal: &Path, fa: &Path, span: Option<Range<u32>>) -> String {
    let records = read_fasta(std::io::BufReader::new(fs::File::open(fa).unwrap())).unwrap();
    let first = records.into_iter().next().unwrap();
    let reference = ReferenceGenome::from_seq(first.name, first.seq);
    let bal = BalFile::open(bal).unwrap();
    let span = span.unwrap_or(0..reference.len() as u32);
    let driver = CallDriver {
        config: CallerConfig::improved(),
        filter: Some(FilterParams::default()),
        mode: ParallelMode::Sequential,
        trace: false,
        budget: RunBudget::unbounded(),
    };
    let outcome = driver.run_region(&reference, &bal, span).unwrap();
    write_vcf(&reference.name, "ultravc-0.1", &outcome.records)
}

fn sample(name: &str, bal: &Path, fa: &Path, fault: Option<FaultPlan>) -> SampleSpec {
    SampleSpec {
        name: name.to_string(),
        bal: bal.to_path_buf(),
        fasta: fa.to_path_buf(),
        fault,
    }
}

/// A short-cooldown breaker so quarantine/recovery cycles fit a test.
fn fast_breaker(config: &mut ServeConfig) {
    config.breaker.threshold = 3;
    config.breaker.cooldown = Duration::from_millis(200);
}

fn get(server: &Server, path: &str) -> ultravc_serve::Response {
    http_get(server.local_addr(), path, Some(Duration::from_secs(60))).unwrap()
}

/// Extract the queue depth gauge from the `/stats` JSON (hand-rolled
/// JSON, hand-rolled scrape).
fn queue_depth(server: &Server) -> usize {
    let stats = get(server, "/stats").text();
    let tail = stats
        .split("\"queue\":{\"depth\":")
        .nth(1)
        .unwrap_or_else(|| panic!("no queue gauge in {stats}"))
        .to_string();
    tail.chars()
        .take_while(|c| c.is_ascii_digit())
        .collect::<String>()
        .parse()
        .unwrap()
}

/// Poll until the queue holds exactly `depth` waiting jobs.
fn wait_for_depth(server: &Server, depth: usize) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while queue_depth(server) != depth {
        assert!(
            Instant::now() < deadline,
            "queue never reached depth {depth} (at {})",
            queue_depth(server)
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Live OS threads of this process (the leak check CI gates on).
fn live_threads() -> usize {
    fs::read_dir("/proc/self/task")
        .map(|d| d.count())
        .unwrap_or(0)
}

fn assert_no_leaked_threads(baseline: usize) {
    let t0 = Instant::now();
    while t0.elapsed() < Duration::from_secs(5) {
        if live_threads() <= baseline {
            return;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    panic!(
        "leaked threads: {} live vs baseline {}",
        live_threads(),
        baseline
    );
}

/// The acceptance scenario: sample A on a dead device, sample B clean,
/// concurrent clients on both. B is bitwise identical throughout; A
/// degrades to fast 503s within the breaker threshold, `/health` goes
/// degraded, and once the fault clears A recovers automatically.
#[test]
fn dead_device_quarantines_one_sample_and_spares_the_other() {
    let dir = scratch("dead");
    let (bal_a, fa_a, chrom_a) = write_fixture(&dir, 41, 500, 250.0, 50);
    let (bal_b, fa_b, chrom_b) = write_fixture(&dir, 43, 500, 250.0, 50);
    let threads_before = live_threads();

    let mut config = ServeConfig::new("127.0.0.1:0");
    // Dead device: every payload read fails with EIO, permanently.
    config.samples.push(sample(
        "a",
        &bal_a,
        &fa_a,
        Some(FaultPlan::parse("fail_after=0").unwrap()),
    ));
    config.samples.push(sample("b", &bal_b, &fa_b, None));
    fast_breaker(&mut config);
    // This test is about bulkheads, not shedding: a budget far above
    // any stack of whole-genome calls keeps the queue out of the way.
    config.cost_budget = 1 << 40;
    let server = Arc::new(Server::bind(config).unwrap());

    // Clients hammer B concurrently while A grinds to quarantine.
    let expected_b = fresh_cli_vcf(&bal_b, &fa_b, None);
    let b_clients: Vec<_> = (0..3)
        .map(|_| {
            let server = Arc::clone(&server);
            let chrom_b = chrom_b.clone();
            std::thread::spawn(move || {
                (0..4)
                    .map(|_| {
                        get(
                            &server,
                            &format!("/call?sample=b&region={chrom_b}&cache=off"),
                        )
                    })
                    .collect::<Vec<_>>()
            })
        })
        .collect();

    // A: the supervised runs contain the dead device per region (206,
    // nothing but failures) until the third sample failure trips the
    // breaker; from then on A answers instantly with 503.
    for nth in 0..3 {
        let resp = get(
            &server,
            &format!("/call?sample=a&region={chrom_a}&cache=off"),
        );
        assert_eq!(resp.status, 206, "pre-trip call {nth}: {}", resp.text());
        assert!(resp.header("x-ultravc-partial").is_some(), "call {nth}");
    }
    let quarantined = get(&server, &format!("/call?sample=a&region={chrom_a}"));
    assert_eq!(quarantined.status, 503, "{}", quarantined.text());
    assert!(quarantined.text().contains("quarantined"));
    assert!(quarantined.header("retry-after").is_some());

    // Quarantined responses are *fast* — no retry grinding.
    let t0 = Instant::now();
    for _ in 0..10 {
        let resp = get(&server, &format!("/call?sample=a&region={chrom_a}"));
        assert_eq!(resp.status, 503);
    }
    assert!(
        t0.elapsed() < Duration::from_secs(2),
        "10 quarantined calls took {:?}",
        t0.elapsed()
    );

    // /health: degraded overall, per-sample states itemized.
    let health = get(&server, "/health");
    assert_eq!(health.status, 503);
    assert!(health.text().starts_with("degraded\n"), "{}", health.text());
    assert!(health.text().contains("sample a: open"));
    assert!(health.text().contains("sample b: closed"));

    // B was bitwise perfect the whole time.
    for client in b_clients {
        for resp in client.join().unwrap() {
            assert_eq!(resp.status, 200);
            assert_eq!(resp.text(), expected_b, "sample B must be untouched");
        }
    }

    // The device comes back: clear the fault, wait out the cooldown —
    // the next request is the half-open probe, rebuilds the session,
    // and serves the exact clean result.
    server.set_fault("a", None).unwrap();
    std::thread::sleep(Duration::from_millis(250));
    let recovered = get(&server, &format!("/call?sample=a&region={chrom_a}"));
    assert_eq!(recovered.status, 200, "{}", recovered.text());
    assert_eq!(recovered.text(), fresh_cli_vcf(&bal_a, &fa_a, None));
    let health = get(&server, "/health");
    assert_eq!(health.status, 200);
    assert!(health.text().starts_with("ok\n"));
    assert!(health.text().contains("sample a: closed"));

    let report = Arc::try_unwrap(server).ok().unwrap().shutdown();
    assert!(report.breaker_trips >= 1, "breaker must have tripped");
    assert!(report.quarantined >= 11);
    assert!(report.recoveries >= 1, "breaker must have recovered");
    assert_eq!(report.client_errors, 0);
    assert_no_leaked_threads(threads_before);
}

/// Transient EIO under the serving layer: retried away by each
/// request's budget, responses bitwise identical, breaker untouched.
#[test]
fn transient_eio_is_invisible_and_never_trips_the_breaker() {
    let dir = scratch("transient");
    let (bal, fa, chrom) = write_fixture(&dir, 47, 500, 250.0, 50);
    let mut config = ServeConfig::new("127.0.0.1:0");
    config.samples.push(sample(
        "s",
        &bal,
        &fa,
        Some(FaultPlan::parse("seed=20210817,eio=0.05").unwrap()),
    ));
    fast_breaker(&mut config);
    let server = Server::bind(config).unwrap();

    for span in [(1u32, 200u32), (151, 400), (1, 500)] {
        let wire = format!("{chrom}:{}-{}", span.0, span.1);
        let expected = fresh_cli_vcf(&bal, &fa, Some(span.0 - 1..span.1));
        let resp = get(&server, &format!("/call?sample=s&region={wire}&cache=off"));
        assert_eq!(resp.status, 200, "{wire}: {}", resp.text());
        assert_eq!(
            resp.text(),
            expected,
            "{wire}: transients must be invisible"
        );
    }
    assert!(get(&server, "/health").text().starts_with("ok\n"));
    let report = server.shutdown();
    assert_eq!(report.breaker_trips, 0);
    assert_eq!(report.partial, 0);
}

/// A contained worker panic is one-shot: the first request reports it
/// as a partial region, the second serves the complete exact result,
/// and one failure is not enough to trip the breaker.
#[test]
fn contained_panic_is_one_shot_and_does_not_quarantine() {
    let dir = scratch("panic");
    let (bal, fa, chrom) = write_fixture(&dir, 53, 500, 250.0, 50);
    // Panic on the first read of a mid-file block: one chunk trips it.
    let probe = BalFile::open(&bal).unwrap();
    let mid = probe.index()[probe.n_blocks() / 2].offset;
    drop(probe);
    let mut config = ServeConfig::new("127.0.0.1:0");
    config.samples.push(sample(
        "s",
        &bal,
        &fa,
        Some(FaultPlan::parse(&format!("panic_at={mid}")).unwrap()),
    ));
    fast_breaker(&mut config);
    let server = Server::bind(config).unwrap();

    let first = get(&server, &format!("/call?sample=s&region={chrom}&cache=off"));
    assert_eq!(first.status, 206, "{}", first.text());
    assert!(first
        .header("x-ultravc-partial-regions")
        .is_some_and(|v| v.contains("panic")));
    assert!(first.text().starts_with("##fileformat=VCF"));

    // Trigger disarmed: the same session now serves the exact result.
    let second = get(&server, &format!("/call?sample=s&region={chrom}&cache=off"));
    assert_eq!(second.status, 200, "{}", second.text());
    assert_eq!(second.text(), fresh_cli_vcf(&bal, &fa, None));

    let report = server.shutdown();
    assert_eq!(report.breaker_trips, 0, "one failure must not trip");
    assert_eq!(report.partial, 1);
}

/// Truncation: spans under the truncation point keep serving exactly;
/// whole-genome requests fail per-region until the breaker opens, which
/// then quarantines the whole sample (bulkheads are per-sample).
#[test]
fn truncation_trips_the_breaker_and_quarantines_the_whole_sample() {
    let dir = scratch("trunc");
    let (bal, fa, chrom) = write_fixture(&dir, 59, 500, 250.0, 50);
    let probe = BalFile::open(&bal).unwrap();
    let cut = probe.index()[probe.n_blocks() - 1].offset;
    drop(probe);
    let mut config = ServeConfig::new("127.0.0.1:0");
    config.samples.push(sample(
        "s",
        &bal,
        &fa,
        Some(FaultPlan::parse(&format!("truncate_at={cut}")).unwrap()),
    ));
    fast_breaker(&mut config);
    let server = Server::bind(config).unwrap();

    // An early span never touches the truncated tail: exact result.
    let early_wire = format!("{chrom}:1-100");
    let early = get(
        &server,
        &format!("/call?sample=s&region={early_wire}&cache=off"),
    );
    assert_eq!(early.status, 200, "{}", early.text());
    assert_eq!(early.text(), fresh_cli_vcf(&bal, &fa, Some(0..100)));

    // Whole-genome requests hit the cut and fail per-region; the third
    // trips the breaker — after which even early spans are quarantined.
    for _ in 0..3 {
        let resp = get(&server, &format!("/call?sample=s&region={chrom}&cache=off"));
        assert_eq!(resp.status, 206, "{}", resp.text());
    }
    assert_eq!(
        get(&server, &format!("/call?sample=s&region={early_wire}")).status,
        503,
        "quarantine is per-sample, not per-span"
    );

    // Recovery after the writer finishes (fault cleared).
    server.set_fault("s", None).unwrap();
    std::thread::sleep(Duration::from_millis(250));
    let back = get(&server, &format!("/call?sample=s&region={chrom}"));
    assert_eq!(back.status, 200, "{}", back.text());
    assert_eq!(back.text(), fresh_cli_vcf(&bal, &fa, None));
    let report = server.shutdown();
    assert!(report.breaker_trips >= 1);
    assert!(report.recoveries >= 1);
}

/// The scheduling contract: with one worker busy on a whale and a
/// second whale queued, a later small request still completes first —
/// and stacking cost past the budget sheds with a drain-rate
/// `Retry-After`.
#[test]
fn small_requests_overtake_a_queued_whale_and_excess_cost_is_shed() {
    let dir = scratch("priority");
    // Short reads → several blocks, so a 30-column span prices at a
    // small fraction of the whole file.
    let (bal, fa, chrom) = write_fixture(&dir, 61, 400, 400.0, 25);
    let (total, small_cost) = {
        let probe = BalFile::open(&bal).unwrap();
        let small: u64 = probe
            .blocks_overlapping(0, 30)
            .iter()
            .map(|&i| probe.index()[i].n_records as u64)
            .sum();
        (probe.n_records(), small)
    };
    let mut config = ServeConfig::new("127.0.0.1:0");
    // Slow device: a few ms per read, so a whole-genome whale holds the
    // single worker long enough to observe queue order.
    config.samples.push(sample(
        "s",
        &bal,
        &fa,
        Some(FaultPlan::parse("latency_us=5000").unwrap()),
    ));
    config.workers = 1;
    config.cache_capacity = 0;
    // A budget that admits whale + whale + small but sheds one more
    // whale, while classifying whole-genome (cost = total) as large and
    // the 30-column span as small (≤ budget/8). The assert pins the
    // arithmetic to the fixture's actual block layout.
    config.cost_budget = (2 * total + small_cost + 1).max(8 * small_cost + 1);
    assert!(
        config.cost_budget <= 3 * total,
        "fixture block layout too coarse: 30-column span costs {small_cost} of {total}"
    );
    let server = Arc::new(Server::bind(config).unwrap());

    let whale = |server: &Arc<Server>, chrom: &str| {
        let server = Arc::clone(server);
        let chrom = chrom.to_string();
        std::thread::spawn(move || {
            let resp = get(&server, &format!("/call?sample=s&region={chrom}&cache=off"));
            (resp.status, Instant::now())
        })
    };
    // Whale 1 starts running (popped: depth back to 0, one admitted)...
    let w1 = whale(&server, &chrom);
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let depth = queue_depth(&server);
        let running = get(&server, "/stats").text().contains("\"inflight\":1");
        if depth == 0 && running {
            break;
        }
        assert!(Instant::now() < deadline, "whale 1 never started");
        std::thread::sleep(Duration::from_millis(5));
    }
    // ...whale 2 queues behind it...
    let w2 = whale(&server, &chrom);
    wait_for_depth(&server, 1);
    // ...then a small request arrives last but dequeues first.
    let small = {
        let server = Arc::clone(&server);
        let chrom = chrom.clone();
        std::thread::spawn(move || {
            let resp = get(
                &server,
                &format!("/call?sample=s&region={chrom}:1-30&cache=off"),
            );
            (resp.status, Instant::now())
        })
    };
    wait_for_depth(&server, 2);

    // With whale + whale + small in flight, one more whale exceeds the
    // budget and is shed with a drain-rate Retry-After.
    let shed = get(&server, &format!("/call?sample=s&region={chrom}&cache=off"));
    assert_eq!(shed.status, 503, "{}", shed.text());
    assert!(shed.text().contains("cost budget"), "{}", shed.text());
    assert!(shed.header("retry-after").is_some());

    let (w1_status, _) = w1.join().unwrap();
    let (w2_status, w2_done) = w2.join().unwrap();
    let (small_status, small_done) = small.join().unwrap();
    assert_eq!((w1_status, w2_status, small_status), (200, 200, 200));
    assert!(
        small_done < w2_done,
        "small request must complete before the queued whale"
    );
    let report = Arc::try_unwrap(server).ok().unwrap().shutdown();
    assert!(report.shed >= 1);
    assert_eq!(report.server_errors, 0);
}

/// The `/shutdown` regression: a whale in flight is cancelled via its
/// registered token, so shutdown completes promptly with a partial
/// outcome instead of waiting out the whole call.
#[test]
fn shutdown_cancels_an_inflight_whale_promptly() {
    let dir = scratch("shutdown");
    let (bal, fa, chrom) = write_fixture(&dir, 67, 400, 250.0, 50);
    let threads_before = live_threads();
    let mut config = ServeConfig::new("127.0.0.1:0");
    // ~20 ms per read: a whole-genome call takes many seconds if not
    // cancelled — the promptness bound below would trip.
    config.samples.push(sample(
        "s",
        &bal,
        &fa,
        Some(FaultPlan::parse("latency_us=20000").unwrap()),
    ));
    config.workers = 1;
    config.cache_capacity = 0;
    let server = Arc::new(Server::bind(config).unwrap());

    let whale = {
        let server = Arc::clone(&server);
        let chrom = chrom.clone();
        std::thread::spawn(move || {
            get(&server, &format!("/call?sample=s&region={chrom}&cache=off"))
        })
    };
    // Wait until the whale is admitted and on (or headed for) the
    // worker; cancellation covers both queued and running jobs.
    let deadline = Instant::now() + Duration::from_secs(30);
    while !get(&server, "/stats").text().contains("\"inflight\":1") {
        assert!(Instant::now() < deadline, "whale never started");
        std::thread::sleep(Duration::from_millis(5));
    }

    let t0 = Instant::now();
    assert_eq!(get(&server, "/shutdown").status, 200);
    // The whale drains as a partial (cancelled) response, not a hang or
    // a dropped connection mid-body.
    let resp = whale.join().unwrap();
    let report = Arc::try_unwrap(server).ok().unwrap().join();
    let drained = t0.elapsed();
    assert!(
        drained < Duration::from_secs(5),
        "shutdown waited out the whale: {drained:?}"
    );
    assert_eq!(resp.status, 206, "{}", resp.text());
    assert!(
        resp.header("x-ultravc-interrupt") == Some("cancelled")
            || resp.header("x-ultravc-partial").is_some(),
        "whale response must be marked interrupted"
    );
    assert!(report.partial >= 1);
    assert_no_leaked_threads(threads_before);
}

/// Shared fixture for the proptest sweep (simulated once per process).
fn sweep_fixture() -> &'static (PathBuf, PathBuf, String) {
    static FIXTURE: OnceLock<(PathBuf, PathBuf, String)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let dir = scratch("sweep");
        write_fixture(&dir, 71, 300, 150.0, 25)
    })
}

/// Strategy for a random fault plan drawn from the classes the serving
/// layer must absorb (bit-flips excluded: silent corruption breaks the
/// identity contract by design and is pinned in bamlite's own tests).
fn plan_strategy() -> impl Strategy<Value = FaultPlan> {
    (
        any::<u64>(),
        prop::sample::select(vec![0.0, 0.05, 0.15]),
        prop::sample::select(vec![0.0, 0.05]),
        prop::sample::select(vec![None, Some(0u64), Some(1 << 12)]),
        prop::sample::select(vec![None, Some(1usize << 12)]),
        prop::sample::select(vec![None, Some(1usize << 12)]),
    )
        .prop_map(
            |(seed, eio, short, fail_after, truncate_at, panic_at)| FaultPlan {
                seed,
                eio,
                short,
                fail_after,
                truncate_at,
                panic_at,
                ..FaultPlan::default()
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The wedge hunt: any fault plan, a concurrent burst of mixed
    /// requests, then the fault clears — the breaker must always come
    /// back (a half-open probe always fires once faults stop), the
    /// sample serves exact results again, and `/health` returns to ok.
    #[test]
    fn breaker_always_recovers_once_faults_stop(
        plan in plan_strategy(),
        whole_mix in prop::collection::vec(any::<bool>(), 4..8),
    ) {
        let (bal, fa, chrom) = sweep_fixture();
        let mut config = ServeConfig::new("127.0.0.1:0");
        config.samples.push(sample("s", bal, fa, Some(plan)));
        config.breaker.threshold = 2;
        config.breaker.cooldown = Duration::from_millis(100);
        let server = Arc::new(Server::bind(config).unwrap());

        // Concurrent burst of whole-genome and small requests; statuses
        // are unconstrained (200/206/500/503 are all legitimate under
        // random faults) — the invariants are no hang and no wedge.
        let clients: Vec<_> = whole_mix
            .iter()
            .map(|&whole| {
                let server = Arc::clone(&server);
                let wire = if whole {
                    chrom.clone()
                } else {
                    format!("{chrom}:1-80")
                };
                std::thread::spawn(move || {
                    get(&server, &format!("/call?sample=s&region={wire}&cache=off")).status
                })
            })
            .collect();
        for c in clients {
            let status = c.join().unwrap();
            prop_assert!(
                [200, 206, 500, 503].contains(&status),
                "unexpected status {status}"
            );
        }

        // Faults stop. Within a bounded number of probe cycles the
        // breaker must close and serve the exact clean result.
        server.set_fault("s", None).unwrap();
        let expected = fresh_cli_vcf(bal, fa, None);
        let mut recovered = false;
        for _ in 0..40 {
            std::thread::sleep(Duration::from_millis(150));
            let resp = get(&server, &format!("/call?sample=s&region={chrom}"));
            if resp.status == 200 {
                prop_assert_eq!(resp.text(), expected.clone(), "recovered result must be exact");
                recovered = true;
                break;
            }
        }
        prop_assert!(recovered, "breaker wedged: no recovery within 6 s of the fault clearing");
        let health = get(&server, "/health");
        prop_assert_eq!(health.status, 200, "health must return to ok");
        Arc::try_unwrap(server).ok().unwrap().shutdown();
    }
}
