//! Server chaos suite: seeded fault plans injected into live serving
//! sessions, driven by concurrent clients.
//!
//! The contract under test (the serving layer's failure model):
//!
//! * Faults on one sample never touch another: with sample A on a dead
//!   device, sample B's responses stay **bitwise identical** to fresh
//!   CLI runs.
//! * A failure is final for the region it hit: a dead device, an `EIO`
//!   or a truncated file answers `206` at once with every failed region
//!   itemized, a contained panic is one-shot, spans that avoid the fault
//!   keep serving exactly, and once the fault clears the very next
//!   request is `200` and exact.
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

/// The failed regions a `206` itemizes in `X-Ultravc-Partial-Regions`,
/// as `(start, end, kind)`.
fn itemized(resp: &ultravc_serve::Response) -> Vec<(u32, u32, String)> {
    let header = resp
        .header("x-ultravc-partial-regions")
        .unwrap_or_else(|| panic!("no itemized regions on {}: {}", resp.status, resp.text()));
    header
        .split(',')
        .map(|item| {
            let (range, kind) = item.split_once(':').unwrap();
            let (start, end) = range.split_once('-').unwrap();
            (
                start.parse().unwrap(),
                end.parse().unwrap(),
                kind.to_string(),
            )
        })
        .collect()
}

/// Assert `resp` is a `206` whose itemized regions are read errors that
/// tile `span` exactly: every region of the request failed, and each
/// one is reported.
fn assert_every_region_failed(resp: &ultravc_serve::Response, span: Range<u32>) {
    assert_eq!(resp.status, 206, "{}", resp.text());
    let regions = itemized(resp);
    let mut next = span.start;
    for (start, end, kind) in &regions {
        assert_eq!(*start, next, "regions must tile the span: {regions:?}");
        assert_eq!(kind, "error", "{regions:?}");
        next = *end;
    }
    assert_eq!(next, span.end, "regions must tile the span: {regions:?}");
}

/// The acceptance scenario: sample A on a dead device, sample B clean,
/// concurrent clients on both. Every A request fails fast — a `206` with
/// every region itemized, never a `503` — B is bitwise identical
/// throughout, and once the fault clears the next A request is exact.
#[test]
fn dead_device_fails_fast_and_spares_the_other() {
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
    // This test is about isolation, not shedding: a budget far above
    // any stack of whole-genome calls keeps the queue out of the way.
    config.cost_budget = 1 << 40;
    let server = Arc::new(Server::bind(config).unwrap());

    // Clients hammer B concurrently while A fails.
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

    // A: each region fails at its first read, so every request answers
    // at once.
    let whole_a = 0..500;
    let t0 = Instant::now();
    for _ in 0..10 {
        let resp = get(&server, &format!("/call?sample=a&region={chrom_a}"));
        assert_every_region_failed(&resp, whole_a.clone());
    }
    assert!(
        t0.elapsed() < Duration::from_secs(2),
        "10 dead-device calls took {:?}",
        t0.elapsed()
    );
    let health = get(&server, "/health");
    assert_eq!((health.status, health.text()), (200, "ok\n".to_string()));

    // B was bitwise perfect the whole time.
    for client in b_clients {
        for resp in client.join().unwrap() {
            assert_eq!(resp.status, 200);
            assert_eq!(resp.text(), expected_b, "sample B must be untouched");
        }
    }

    // The device comes back: clearing the fault drops the session, and
    // the next request reopens the file and serves the exact result.
    server.set_fault("a", None).unwrap();
    let recovered = get(&server, &format!("/call?sample=a&region={chrom_a}"));
    assert_eq!(recovered.status, 200, "{}", recovered.text());
    assert_eq!(recovered.text(), fresh_cli_vcf(&bal_a, &fa_a, None));

    let report = Arc::try_unwrap(server).ok().unwrap().shutdown();
    assert_eq!(report.partial, 10);
    assert_eq!(report.rejected + report.shed, 0, "no request is refused");
    assert_eq!(report.server_errors + report.client_errors, 0);
    assert_no_leaked_threads(threads_before);
}

/// An `EIO` under the serving layer fails the region whose read it hit:
/// the request answers `206` with that region itemized. Once the fault
/// clears, the same span is `200` and exact.
#[test]
fn an_eio_fails_its_region_with_206_and_clears_to_an_exact_200() {
    let dir = scratch("eio");
    let (bal, fa, chrom) = write_fixture(&dir, 47, 500, 250.0, 50);
    let mut config = ServeConfig::new("127.0.0.1:0");
    config.samples.push(sample(
        "s",
        &bal,
        &fa,
        Some(FaultPlan::parse("seed=20210817,eio=1").unwrap()),
    ));
    let server = Server::bind(config).unwrap();

    let spans = [(1u32, 200u32), (151, 400), (1, 500)];
    for (start, end) in spans {
        let wire = format!("{chrom}:{start}-{end}");
        let resp = get(&server, &format!("/call?sample=s&region={wire}&cache=off"));
        assert_every_region_failed(&resp, start - 1..end);
    }
    assert_eq!(get(&server, "/health").status, 200);

    server.set_fault("s", None).unwrap();
    for (start, end) in spans {
        let wire = format!("{chrom}:{start}-{end}");
        let resp = get(&server, &format!("/call?sample=s&region={wire}&cache=off"));
        assert_eq!(resp.status, 200, "{wire}: {}", resp.text());
        assert_eq!(resp.text(), fresh_cli_vcf(&bal, &fa, Some(start - 1..end)));
    }
    let report = server.shutdown();
    assert_eq!((report.partial, report.ok), (3, 3));
}

/// A contained worker panic is one-shot: the first request reports it
/// as a partial region, and the second, on the same session, serves the
/// complete exact result.
#[test]
fn contained_panic_is_one_shot() {
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
    assert_eq!(report.partial, 1);
}

/// Truncation: spans under the truncation point keep serving exactly,
/// before and after whole-genome requests hit the cut and answer `206`
/// with the cut's region itemized.
#[test]
fn truncation_keeps_early_spans_exact_and_fails_whole_genome_calls_with_206() {
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
    let server = Server::bind(config).unwrap();

    // An early span never touches the truncated tail: exact result.
    let early_wire = format!("{chrom}:1-100");
    let expected_early = fresh_cli_vcf(&bal, &fa, Some(0..100));
    let early = get(
        &server,
        &format!("/call?sample=s&region={early_wire}&cache=off"),
    );
    assert_eq!(early.status, 200, "{}", early.text());
    assert_eq!(early.text(), expected_early);

    // Whole-genome requests hit the cut and fail per region, each time.
    for _ in 0..3 {
        let resp = get(&server, &format!("/call?sample=s&region={chrom}&cache=off"));
        assert_eq!(resp.status, 206, "{}", resp.text());
        assert!(itemized(&resp).iter().all(|(_, _, kind)| kind == "error"));
    }
    // The early span is still exact: a failure stays with its region.
    let early = get(
        &server,
        &format!("/call?sample=s&region={early_wire}&cache=off"),
    );
    assert_eq!(early.status, 200, "{}", early.text());
    assert_eq!(early.text(), expected_early);

    // The writer finishes (fault cleared): the whole genome is exact.
    server.set_fault("s", None).unwrap();
    let back = get(&server, &format!("/call?sample=s&region={chrom}"));
    assert_eq!(back.status, 200, "{}", back.text());
    assert_eq!(back.text(), fresh_cli_vcf(&bal, &fa, None));
    let report = server.shutdown();
    assert_eq!(report.partial, 3);
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
        prop::sample::select(vec![None, Some(0u64), Some(1 << 12)]),
        prop::sample::select(vec![None, Some(1usize << 12)]),
        prop::sample::select(vec![None, Some(1usize << 12)]),
    )
        .prop_map(|(seed, eio, fail_after, truncate_at, panic_at)| FaultPlan {
            seed,
            eio,
            fail_after,
            truncate_at,
            panic_at,
            ..FaultPlan::default()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Any fault plan, a concurrent burst of mixed requests, then the
    /// fault clears: the very first request after that serves the exact
    /// clean result, and `/health` is ok throughout. Nothing the faults
    /// did can outlive them.
    #[test]
    fn sample_serves_exactly_on_the_first_request_after_faults_clear(
        plan in plan_strategy(),
        whole_mix in prop::collection::vec(any::<bool>(), 4..8),
    ) {
        let (bal, fa, chrom) = sweep_fixture();
        let mut config = ServeConfig::new("127.0.0.1:0");
        config.samples.push(sample("s", bal, fa, Some(plan)));
        let server = Arc::new(Server::bind(config).unwrap());

        // Concurrent burst of whole-genome and small requests; under
        // random faults a request is complete (200) or itemizes its
        // failed regions (206). The queue budget may shed (503).
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
                [200, 206, 503].contains(&status),
                "unexpected status {status}"
            );
        }
        prop_assert_eq!(get(&server, "/health").status, 200);

        // Faults stop: the next request is complete and exact.
        server.set_fault("s", None).unwrap();
        let resp = get(&server, &format!("/call?sample=s&region={chrom}"));
        prop_assert_eq!(resp.status, 200, "{}", resp.text());
        prop_assert_eq!(resp.text(), fresh_cli_vcf(bal, fa, None));
        Arc::try_unwrap(server).ok().unwrap().shutdown();
    }
}
