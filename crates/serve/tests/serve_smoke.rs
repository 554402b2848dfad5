//! End-to-end smoke tests for the region-call server: result identity
//! with fresh CLI-style runs, session reuse across tiers and cache
//! modes (including invalidation after an on-disk rewrite), deadline
//! and disconnect cancellation without poisoning the session, strict
//! request validation, admission control, and keep-alive round trips at
//! loopback speed. Leak-checked shutdown is `serve_shutdown.rs`.

use std::fs;
use std::io::Write;
use std::net::TcpStream;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ultravc_bamlite::BalFile;
use ultravc_core::driver::{CallDriver, ParallelMode};
use ultravc_core::{CallerConfig, RunBudget};
use ultravc_genome::fasta::{read_fasta, write_fasta, FastaRecord};
use ultravc_genome::reference::{GenomeParams, ReferenceGenome};
use ultravc_readsim::dataset::DatasetSpec;
use ultravc_serve::{http_get, SampleSpec, ServeConfig, Server};
use ultravc_vcf::{write_vcf, FilterParams};

/// Per-test scratch directory, wiped on entry.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ultravc-serve-{}-{tag}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// Simulate an ultra-deep fixture and write its `.bal` + `.fa`.
fn write_fixture(
    dir: &Path,
    seed: u64,
    genome_len: usize,
    depth: f64,
) -> (PathBuf, PathBuf, String) {
    let reference = ReferenceGenome::sars_cov_2_like(GenomeParams::with_length(genome_len), seed);
    let ds = DatasetSpec::new("smoke", depth, seed)
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

/// The driver `ultravc call` runs by default (sequential, improved
/// config, dynamic filter) — the identity baseline for every response.
fn cli_driver() -> CallDriver {
    CallDriver {
        config: CallerConfig::improved(),
        filter: Some(FilterParams::default()),
        mode: ParallelMode::Sequential,
        trace: false,
        budget: RunBudget::unbounded(),
    }
}

/// What a fresh `ultravc call --region` process would print: reopen the
/// file, run the span, render VCF.
fn fresh_cli_vcf(bal: &Path, fa: &Path, span: Option<Range<u32>>) -> String {
    let records = read_fasta(std::io::BufReader::new(fs::File::open(fa).unwrap())).unwrap();
    let first = records.into_iter().next().unwrap();
    let reference = ReferenceGenome::from_seq(first.name, first.seq);
    let bal = BalFile::open(bal).unwrap();
    let span = span.unwrap_or(0..reference.len() as u32);
    let outcome = cli_driver().run_region(&reference, &bal, span).unwrap();
    write_vcf(&reference.name, "ultravc-0.1", &outcome.records)
}

fn serve_config(addr: &str, bal: &Path, fa: &Path) -> ServeConfig {
    let mut config = ServeConfig::new(addr);
    config.samples.push(SampleSpec {
        name: "s".to_string(),
        bal: bal.to_path_buf(),
        fasta: fa.to_path_buf(),
        fault: None,
    });
    config
}

fn get(server: &Server, path: &str) -> ultravc_serve::Response {
    http_get(server.local_addr(), path, Some(Duration::from_secs(30))).unwrap()
}

#[test]
fn responses_are_bitwise_identical_to_fresh_cli_runs() {
    let dir = scratch("identity");
    let (bal, fa, chrom) = write_fixture(&dir, 11, 900, 500.0);
    // Identity, not overload, is under test: lift the cost budget so the
    // concurrent burst below never sheds.
    let mut config = serve_config("127.0.0.1:0", &bal, &fa);
    config.cost_budget = 1 << 40;
    let server = Server::bind(config).unwrap();

    // Whole genome and sub-spans, 1-based inclusive on the wire. The
    // cache is keyed on the resolved span, so the explicit `1-900`
    // spelling of the whole genome hits the bare-name entry.
    for (wire, span, first_is_hit) in [
        (chrom.clone(), None, false),
        (format!("{chrom}:1-900"), Some(0..900u32), true),
        (format!("{chrom}:101-400"), Some(100..400), false),
        (format!("{chrom}:850-900"), Some(849..900), false),
    ] {
        let expected = fresh_cli_vcf(&bal, &fa, span);
        let first = get(&server, &format!("/call?sample=s&region={wire}"));
        assert_eq!(first.status, 200, "{wire}: {}", first.text());
        assert_eq!(
            first.header("x-ultravc-cache"),
            Some(if first_is_hit { "hit" } else { "miss" }),
            "{wire}"
        );
        assert_eq!(first.text(), expected, "{wire}: response != fresh CLI run");
        // Repeat call is served from the cache, still bitwise identical.
        let hit = get(&server, &format!("/call?sample=s&region={wire}"));
        assert_eq!(hit.header("x-ultravc-cache"), Some("hit"));
        assert_eq!(hit.text(), expected);
    }

    // Concurrent clients on distinct regions all get exact results.
    let server = Arc::new(server);
    let handles: Vec<_> = (0..4)
        .map(|i| {
            let server = Arc::clone(&server);
            let chrom = chrom.clone();
            std::thread::spawn(move || {
                let start = 1 + i * 200;
                let wire = format!("{chrom}:{start}-{}", start + 199);
                let resp = get(&server, &format!("/call?sample=s&region={wire}&cache=off"));
                (resp, start)
            })
        })
        .collect();
    for h in handles {
        let (resp, start) = h.join().unwrap();
        let expected = fresh_cli_vcf(&bal, &fa, Some(start - 1..start + 199));
        assert_eq!(resp.status, 200);
        assert_eq!(resp.text(), expected, "concurrent region at {start}");
    }
    let report = Arc::try_unwrap(server).ok().unwrap().shutdown();
    assert_eq!(report.server_errors, 0);
}

#[test]
fn session_reuse_matches_fresh_runs_across_tiers_and_cache_modes() {
    let dir = scratch("reuse");
    let (bal, fa, chrom) = write_fixture(&dir, 13, 700, 400.0);
    let wire = format!("{chrom}:51-650");
    let span = Some(50..650u32);

    for cache_on in [true, false] {
        let mut config = serve_config("127.0.0.1:0", &bal, &fa);
        config.cache_capacity = if cache_on { 16 } else { 0 };
        let server = Server::bind(config).unwrap();
        let expected = fresh_cli_vcf(&bal, &fa, span.clone());

        // Two sequential calls on the held-open session ==
        // two fresh CLI runs, bitwise.
        for nth in 0..2 {
            let resp = get(&server, &format!("/call?sample=s&region={wire}"));
            assert_eq!(resp.status, 200, "cache {cache_on} call {nth}");
            assert_eq!(resp.text(), expected, "cache {cache_on} call {nth}");
            let status = resp.header("x-ultravc-cache");
            if cache_on && nth == 1 {
                assert_eq!(status, Some("hit"));
            } else {
                assert_eq!(status, Some("miss"));
            }
        }
        server.shutdown();
    }

    // Invalidation leg: rewrite the file under a running server — the
    // fingerprint changes, the session is rebuilt, stale cache entries
    // are dropped, and the response tracks the new content.
    let server = Server::bind(serve_config("127.0.0.1:0", &bal, &fa)).unwrap();
    let before = get(&server, &format!("/call?sample=s&region={wire}"));
    assert_eq!(before.status, 200);
    // Same reference, different reads (and file length). Rename over
    // the served path so the inode the session holds open stays whole
    // while the fingerprint at the path changes.
    let reference = ReferenceGenome::sars_cov_2_like(GenomeParams::with_length(700), 13);
    let rewritten = DatasetSpec::new("smoke", 300.0, 99)
        .with_variants(8, 0.005, 0.05)
        .simulate(&reference);
    let new_bal = dir.join("v2.bal");
    rewritten.alignments.write_to(&new_bal).unwrap();
    fs::rename(&new_bal, &bal).unwrap();
    let after = get(&server, &format!("/call?sample=s&region={wire}"));
    assert_eq!(after.status, 200);
    assert_eq!(after.header("x-ultravc-cache"), Some("miss"));
    assert_eq!(
        after.text(),
        fresh_cli_vcf(&bal, &fa, span),
        "post-rewrite response must track the new file content"
    );
    assert_ne!(before.text(), after.text(), "fixture rewrite changed calls");
    let report = server.shutdown();
    assert_eq!(report.session_rebuilds, 1);
    assert!(report.cache.invalidated >= 1, "stale entries dropped");
}

#[test]
fn deadline_and_disconnect_cancel_without_poisoning_the_session() {
    let dir = scratch("cancel");
    // Heavy enough that a whole-genome call cannot finish inside 1 ms.
    let (bal, fa, chrom) = write_fixture(&dir, 17, 3_000, 1_500.0);
    let mut config = serve_config("127.0.0.1:0", &bal, &fa);
    config.workers = 1;
    let server = Server::bind(config).unwrap();

    let happy = format!("/call?sample=s&region={chrom}:1-300");
    let expected = fresh_cli_vcf(&bal, &fa, Some(0..300));
    let baseline = get(&server, &happy);
    assert_eq!(baseline.status, 200);
    assert_eq!(baseline.text(), expected);

    // Deadline-expired request → 206 with the failure itemized; the
    // body stays valid VCF (the completed prefix of the calls).
    let expired = get(
        &server,
        &format!("/call?sample=s&region={chrom}&timeout-ms=1&cache=off"),
    );
    assert_eq!(expired.status, 206, "{}", expired.text());
    assert!(
        expired.header("x-ultravc-interrupt").is_some()
            || expired.header("x-ultravc-partial").is_some()
    );
    assert!(expired.text().starts_with("##fileformat=VCF"));

    // Disconnect mid-call: send the request, then drop the socket.
    {
        let mut s = TcpStream::connect(server.local_addr()).unwrap();
        write!(
            s,
            "GET /call?sample=s&region={chrom}&cache=off HTTP/1.1\r\nHost: t\r\n\r\n"
        )
        .unwrap();
        s.flush().unwrap();
        std::thread::sleep(Duration::from_millis(40));
    } // dropped here — the handler's poll sees EOF and cancels
    std::thread::sleep(Duration::from_millis(200));

    // Neither cancellation poisoned the session or the cache: the
    // happy-path call still returns the exact baseline.
    let again = get(&server, &happy);
    assert_eq!(again.status, 200);
    assert_eq!(again.text(), expected, "session survived cancellations");

    let report = server.shutdown();
    assert!(report.partial >= 1, "deadline call reported partial");
    assert_eq!(report.server_errors, 0);
}

#[test]
fn malformed_requests_are_rejected_with_400s() {
    let dir = scratch("reject");
    let (bal, fa, chrom) = write_fixture(&dir, 19, 400, 200.0);
    let server = Server::bind(serve_config("127.0.0.1:0", &bal, &fa)).unwrap();

    for (path, want) in [
        (format!("/call?sample=s&region={chrom}:0-5"), "1-based"),
        (format!("/call?sample=s&region={chrom}:9-4"), "precedes"),
        (
            format!("/call?sample=s&region={chrom}:1-4000"),
            "out of bounds",
        ),
        (
            format!("/call?sample=s&region={chrom}&min_af=0.1"),
            "unknown parameter",
        ),
        (
            format!("/call?sample=s&region={chrom}&min-af=1.5"),
            "outside",
        ),
        (
            format!("/call?sample=s&region={chrom}&timeout-ms=0"),
            "must be positive",
        ),
        (
            "/call?sample=s&region=other:1-5".to_string(),
            "unknown chromosome",
        ),
        ("/call?sample=s".to_string(), "missing required"),
    ] {
        let resp = get(&server, &path);
        assert_eq!(resp.status, 400, "{path}");
        assert!(resp.text().contains(want), "{path}: {}", resp.text());
    }

    assert_eq!(
        get(&server, &format!("/call?sample=nope&region={chrom}")).status,
        404
    );
    assert_eq!(get(&server, "/nope").status, 404);

    // Non-GET /call → 405.
    {
        let mut s = TcpStream::connect(server.local_addr()).unwrap();
        write!(s, "POST /call HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
        let resp = ultravc_serve::read_response(&mut std::io::BufReader::new(s)).unwrap();
        assert_eq!(resp.status, 405);
    }

    // min-af is a render-time floor: loosest floor keeps all records,
    // a floor of 1.0 drops every low-frequency call.
    let all = get(&server, &format!("/call?sample=s&region={chrom}&min-af=0"));
    let none = get(&server, &format!("/call?sample=s&region={chrom}&min-af=1"));
    assert_eq!(all.status, 200);
    assert_eq!(none.status, 200);
    assert!(all.text().lines().filter(|l| !l.starts_with('#')).count() > 0);
    assert_eq!(
        none.text().lines().filter(|l| !l.starts_with('#')).count(),
        0
    );

    server.shutdown();
}

#[test]
fn admission_control_bounds_inflight_requests() {
    let dir = scratch("admission");
    let (bal, fa, chrom) = write_fixture(&dir, 23, 3_000, 1_500.0);
    let mut config = serve_config("127.0.0.1:0", &bal, &fa);
    config.workers = 1;
    config.max_inflight = 1;
    config.cache_capacity = 0;
    let server = Arc::new(Server::bind(config).unwrap());

    let handles: Vec<_> = (0..5)
        .map(|_| {
            let server = Arc::clone(&server);
            let chrom = chrom.clone();
            std::thread::spawn(move || {
                get(&server, &format!("/call?sample=s&region={chrom}")).status
            })
        })
        .collect();
    let statuses: Vec<u16> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    assert!(
        statuses.iter().all(|s| *s == 200 || *s == 503),
        "{statuses:?}"
    );
    assert!(statuses.contains(&200), "{statuses:?}");
    assert!(
        statuses.contains(&503),
        "admission never rejected: {statuses:?}"
    );
    let report = Arc::try_unwrap(server).ok().unwrap().shutdown();
    assert!(report.rejected >= 1);
}

#[test]
fn keep_alive_reuses_one_connection_and_honors_close() {
    let dir = scratch("keepalive");
    let (bal, fa, chrom) = write_fixture(&dir, 31, 500, 250.0);
    let server = Server::bind(serve_config("127.0.0.1:0", &bal, &fa)).unwrap();

    // Sequential requests over ONE connection: same results as fresh
    // connections, and the server advertises keep-alive.
    let expected = fresh_cli_vcf(&bal, &fa, Some(0..200));
    let mut conn =
        ultravc_serve::ClientConn::new(server.local_addr(), Some(Duration::from_secs(30)));
    for nth in 0..3 {
        let resp = conn
            .get(&format!("/call?sample=s&region={chrom}:1-200"))
            .unwrap();
        assert_eq!(resp.status, 200, "request {nth}");
        assert_eq!(resp.text(), expected, "request {nth}");
        assert_eq!(
            resp.header("connection"),
            Some("keep-alive"),
            "request {nth}"
        );
    }
    let health = conn.get("/health").unwrap();
    assert_eq!(health.status, 200);
    assert!(health.text().starts_with("ok\n"));

    // An explicit `Connection: close` (what http_get sends) is honored.
    let closed = get(&server, "/health");
    assert_eq!(closed.header("connection"), Some("close"));

    // An HTTP/1.0 request defaults to close.
    {
        let mut s = TcpStream::connect(server.local_addr()).unwrap();
        write!(s, "GET /health HTTP/1.0\r\nHost: t\r\n\r\n").unwrap();
        let resp = ultravc_serve::read_response(&mut std::io::BufReader::new(s)).unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.header("connection"), Some("close"));
    }

    let report = server.shutdown();
    // The three keep-alive calls all counted as requests...
    assert_eq!(report.requests, 3);
    assert_eq!(report.server_errors, 0);
}

#[test]
fn keep_alive_round_trips_pay_no_delayed_ack_floor() {
    let dir = scratch("floor");
    let (bal, fa, chrom) = write_fixture(&dir, 37, 500, 250.0);
    let server = Server::bind(serve_config("127.0.0.1:0", &bal, &fa)).unwrap();
    // A response split over small writes waits ~40 ms for the peer's
    // delayed ACK, so 50 + 20 round trips would take ≥ 2.2 s; one write
    // per message and `TCP_NODELAY` leave them at loopback speed. The
    // 1 s bound is loose enough for a loaded host.
    let bound = Duration::from_secs(1);

    let mut conn =
        ultravc_serve::ClientConn::new(server.local_addr(), Some(Duration::from_secs(30)));
    let t = Instant::now();
    for _ in 0..50 {
        assert_eq!(conn.get("/health").unwrap().status, 200);
    }
    let health = t.elapsed();
    assert!(health < bound, "50 keep-alive /health took {health:?}");

    let mut conn =
        ultravc_serve::ClientConn::new(server.local_addr(), Some(Duration::from_secs(30)));
    let path = format!("/call?sample=s&region={chrom}:1-200");
    let miss = conn.get(&path).unwrap();
    assert_eq!(miss.header("x-ultravc-cache"), Some("miss"));
    let t = Instant::now();
    for _ in 0..20 {
        let hit = conn.get(&path).unwrap();
        assert_eq!(hit.header("x-ultravc-cache"), Some("hit"));
        assert_eq!(hit.body, miss.body);
    }
    let hits = t.elapsed();
    assert!(hits < bound, "20 keep-alive cache hits took {hits:?}");
    server.shutdown();
}

#[test]
fn closing_an_idle_keep_alive_connection_is_not_a_client_error() {
    let dir = scratch("idle-close");
    let (bal, fa, _) = write_fixture(&dir, 41, 400, 200.0);
    let server = Server::bind(serve_config("127.0.0.1:0", &bal, &fa)).unwrap();

    let mut conn =
        ultravc_serve::ClientConn::new(server.local_addr(), Some(Duration::from_secs(30)));
    assert_eq!(conn.get("/health").unwrap().status, 200);
    // A clean close between requests: the handler reads EOF where the
    // next request line would start. The pause lets `/stats` see that
    // handler's verdict; the shutdown report below does not depend on it.
    drop(conn);
    std::thread::sleep(Duration::from_millis(200));

    let stats = get(&server, "/stats").text();
    assert!(stats.contains("\"client_errors\":0"), "{stats}");
    // Shutdown joins every handler, so this count is final.
    assert_eq!(server.shutdown().client_errors, 0);
}
