//! Region serving: a seeded request stream, a closed loop of keep-alive
//! clients against an in-process server with the defaults a user gets, and
//! the checks and layer timings made after the loop.

use std::collections::VecDeque;
use std::ops::Range;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use ultravc_bamlite::BalFile;
use ultravc_core::session::CallSession;
use ultravc_genome::reference::ReferenceGenome;
use ultravc_serve::{ClientConn, SampleSpec, ServeConfig, Server};
use ultravc_vcf::write_vcf;

use crate::batch::{openmp_driver, VCF_SOURCE};
use crate::dataset::Inputs;
use crate::report::Report;
use crate::rng::Rng;
use crate::span::{Recorder, Span};
use crate::stat::{highest_supported_percentile, percentile};
use crate::table::Workload;
use crate::Plan;

/// Closed-loop clients, each on its own keep-alive connection: the load
/// generator keeps at most this many requests in flight (the host has two
/// cores and the server two workers, so no queue builds).
pub const CLIENTS: usize = 2;
/// Share of requests that repeat one of the client's recent regions.
const REPEAT_SHARE: f64 = 0.3;
/// How far back a repeat reaches.
const RECENT: usize = 8;
/// Every n-th response of a client, starting with its first, is kept and
/// re-derived after the loop.
const VERIFY_EVERY: usize = 4;
/// Requests each client sends before the timed phase.
const WARMUP_REQUESTS: usize = 5;
/// `/health` round trips that price HTTP parse + respond with no call.
const FLOOR_REQUESTS: usize = 20;
const SAMPLE: &str = "bench";
/// No request of these workloads takes a second; a stuck one must not hang
/// the run.
const CLIENT_TIMEOUT: Option<Duration> = Some(Duration::from_secs(30));

/// One client's requests: with probability 0.3 a repeat of one of its last
/// eight regions (a cache hit unless evicted), otherwise a fresh window of
/// uniform width at a uniform start (a miss unless another client happened
/// to ask first). No whole-genome requests, so miss latency is one smooth
/// population.
pub struct RequestStream {
    rng: Rng,
    genome_len: u32,
    window: (u32, u32),
    recent: VecDeque<Range<u32>>,
}

impl RequestStream {
    pub fn new(seed: u64, client: usize, genome_len: u32, window: (u32, u32)) -> RequestStream {
        let mut rng = Rng::new(seed ^ (client as u64 + 1).wrapping_mul(0xa076_1d64_78bd_642f));
        rng.next_u64();
        RequestStream {
            rng,
            genome_len,
            window: (window.0.min(genome_len), window.1.min(genome_len)),
            recent: VecDeque::with_capacity(RECENT),
        }
    }

    /// The next region (0-based, half-open) and whether it is a repeat.
    pub fn next_region(&mut self) -> (Range<u32>, bool) {
        let repeat = !self.recent.is_empty() && self.rng.unit() < REPEAT_SHARE;
        let region = if repeat {
            let i = self.rng.below(self.recent.len() as u64) as usize;
            self.recent[i].clone()
        } else {
            let (lo, hi) = self.window;
            let width = lo + self.rng.below((hi - lo + 1) as u64) as u32;
            let start = self.rng.below((self.genome_len - width + 1) as u64) as u32;
            start..start + width
        };
        if self.recent.len() == RECENT {
            self.recent.pop_front();
        }
        self.recent.push_back(region.clone());
        (region, repeat)
    }
}

/// `GET /call` path for a 0-based half-open region (1-based inclusive on
/// the wire).
fn call_path(chrom: &str, region: &Range<u32>) -> String {
    format!(
        "/call?sample={SAMPLE}&region={chrom}:{}-{}",
        region.start + 1,
        region.end
    )
}

/// Bind a server with `ServeConfig::new` defaults over the run's files and
/// wait for its first `/health` 200. Returns the server and the seconds
/// that took — serve's share of `setup_s`.
fn bind(inputs: &Inputs) -> Result<(Server, f64), String> {
    let t = Instant::now();
    let mut config = ServeConfig::new("127.0.0.1:0");
    config.samples.push(SampleSpec {
        name: SAMPLE.to_string(),
        bal: inputs.bal.clone(),
        fasta: inputs.fasta.clone(),
        fault: None,
    });
    let server = Server::bind(config)?;
    let health = ClientConn::new(server.local_addr(), CLIENT_TIMEOUT)
        .get("/health")
        .map_err(|e| format!("/health: {e}"))?;
    if health.status != 200 {
        return Err(format!("/health answered {}", health.status));
    }
    Ok((server, t.elapsed().as_secs_f64()))
}

/// A response kept for re-derivation.
struct Kept {
    region: Range<u32>,
    body: Vec<u8>,
}

#[derive(Default)]
struct ClientLog {
    /// Every request answered 200: `(start, end, was_miss)`, ns since the
    /// loop began.
    requests: Vec<(u64, u64, bool)>,
    kept: Vec<Kept>,
    failures: Vec<String>,
    shed: u64,
    partial: u64,
}

/// One client's closed loop: send, read the whole body, send the next.
fn client_loop(
    addr: std::net::SocketAddr,
    chrom: &str,
    mut stream: RequestStream,
    start: &Barrier,
    budget: Duration,
) -> ClientLog {
    let mut log = ClientLog::default();
    let mut conn = ClientConn::new(addr, CLIENT_TIMEOUT);
    for _ in 0..WARMUP_REQUESTS {
        let (region, _) = stream.next_region();
        if let Err(e) = conn.get(&call_path(chrom, &region)) {
            log.failures.push(format!("warm-up request: {e}"));
        }
    }
    start.wait();
    let t0 = Instant::now();
    let mut sent = 0usize;
    while t0.elapsed() < budget {
        let (region, _) = stream.next_region();
        let path = call_path(chrom, &region);
        let began = t0.elapsed();
        let response = conn.get(&path);
        let ended = t0.elapsed();
        sent += 1;
        let response = match response {
            Ok(r) if r.status == 200 => r,
            Ok(r) => {
                log.shed += u64::from(r.status == 503);
                log.partial += u64::from(r.status == 206);
                log.failures.push(format!("{path}: status {}", r.status));
                continue;
            }
            Err(e) => {
                log.failures.push(format!("{path}: {e}"));
                continue;
            }
        };
        let miss = match response.header("x-ultravc-cache") {
            Some("miss") => true,
            Some("hit") => false,
            other => {
                log.failures
                    .push(format!("{path}: X-Ultravc-Cache is {other:?}"));
                continue;
            }
        };
        log.requests
            .push((began.as_nanos() as u64, ended.as_nanos() as u64, miss));
        if sent % VERIFY_EVERY == 1 {
            log.kept.push(Kept {
                region,
                body: response.body,
            });
        }
    }
    log
}

/// What the serve phase leaves for the parent's `setup_s` and the trace.
pub struct ServeRun {
    /// Bind + first `/health` 200, one value per set-up rep, seconds.
    pub setup_s: Vec<f64>,
    pub spans: Vec<Span>,
}

/// The serve phase: set up `plan.setup_reps` times, run the closed loop for
/// `budget`, shut down, re-derive the kept bodies. Emits the three
/// `serve_*` end-to-end metrics and, when `traced`, the `serve.*` layers.
pub fn run(
    w: &Workload,
    inputs: &Inputs,
    reference: &ReferenceGenome,
    plan: &Plan,
    budget: Duration,
    report: &mut Report,
) -> Result<ServeRun, String> {
    let (seed, traced) = (plan.seed, plan.traced);
    let mut setup_s = Vec::new();
    let (mut server, s) = bind(inputs)?;
    setup_s.push(s);
    for _ in 1..plan.setup_reps {
        server.shutdown();
        let (again, s) = bind(inputs)?;
        server = again;
        setup_s.push(s);
    }
    let addr = server.local_addr();
    let chrom = reference.name.as_str();

    let start = Barrier::new(CLIENTS + 1);
    let (logs, wall_s) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|client| {
                let stream = RequestStream::new(seed, client, w.genome_len as u32, w.window);
                let start = &start;
                scope.spawn(move || client_loop(addr, chrom, stream, start, budget))
            })
            .collect();
        start.wait();
        let t = Instant::now();
        let logs: Vec<ClientLog> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        (logs, t.elapsed().as_secs_f64())
    });

    let mut floor_ms = Vec::new();
    if traced {
        let mut conn = ClientConn::new(addr, CLIENT_TIMEOUT);
        for _ in 0..FLOOR_REQUESTS {
            let t = Instant::now();
            match conn.get("/health") {
                Ok(r) if r.status == 200 => floor_ms.push(t.elapsed().as_secs_f64() * 1e3),
                Ok(r) => report.fail(format!("/health answered {}", r.status)),
                Err(e) => report.fail(format!("/health: {e}")),
            }
        }
    }
    let served = server.shutdown();

    let mut miss_ms = Vec::new();
    let mut hit_ms = Vec::new();
    let (mut shed, mut partial) = (0, 0);
    let mut rec = Recorder::new(traced);
    for (client, log) in logs.iter().enumerate() {
        shed += log.shed;
        partial += log.partial;
        for failure in &log.failures {
            report.fail(failure);
        }
        for &(began, ended, miss) in &log.requests {
            let latency_ms = (ended - began) as f64 / 1e6;
            let name = if miss {
                miss_ms.push(latency_ms);
                "serve.miss"
            } else {
                hit_ms.push(latency_ms);
                "serve.hit"
            };
            rec.push_on(name, None, began, ended, 1 + client as u32);
        }
    }
    let completed = (miss_ms.len() + hit_ms.len()) as u64;
    report.passed(completed);
    report.check(
        served.server_errors == 0,
        format!("{} server errors", served.server_errors),
    );
    if miss_ms.is_empty() {
        return Err("the serve phase completed no cache-miss request".to_string());
    }
    miss_ms.sort_by(f64::total_cmp);
    hit_ms.sort_by(f64::total_cmp);
    let miss_p50 = report.median("serve_miss_p50_ms", &miss_ms);
    report.metric("serve_rps", completed as f64 / wall_s);
    if let Some(p) = highest_supported_percentile(miss_ms.len()) {
        report.note(
            "serve_miss_tail",
            format!(
                "p{p} = {:.3} ms is the highest percentile with 10 of the {} miss samples beyond it",
                percentile(&miss_ms, p),
                miss_ms.len()
            ),
        );
    }

    // Re-derive every kept body through a session of the server's own
    // driver; the same calls price `core`'s share of a miss.
    let bal = BalFile::open(&inputs.bal).map_err(|e| e.to_string())?;
    let session = CallSession::open(openmp_driver(1), Arc::new(reference.clone()), bal);
    let mut direct_ms = Vec::new();
    for kept in logs.iter().flat_map(|log| &log.kept) {
        let t = Instant::now();
        let outcome = session
            .call(kept.region.clone())
            .map_err(|e| e.to_string())?;
        direct_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let expected = write_vcf(&reference.name, VCF_SOURCE, &outcome.records);
        report.check(
            expected.as_bytes() == kept.body,
            format!(
                "served body for {:?} differs from a direct call",
                kept.region
            ),
        );
    }

    if traced {
        direct_ms.sort_by(f64::total_cmp);
        let direct_p50 = percentile(&direct_ms, 50.0);
        // A short run can end without a hit; the ratio below says so.
        let hit_p50 = if hit_ms.is_empty() {
            0.0
        } else {
            percentile(&hit_ms, 50.0)
        };
        report.metric("serve.hit_p50_ms", hit_p50);
        report.metric(
            "serve.cache_hit_ratio",
            hit_ms.len() as f64 / completed as f64,
        );
        report.median("serve.http_floor_p50_ms", &floor_ms);
        report.metric("serve.miss_p99_ms", percentile(&miss_ms, 99.0));
        report.metric("serve.session_call_p50_ms", direct_p50);
        // The kept requests are every fourth, hits and misses alike: the same
        // population of regions the misses are drawn from.
        report.metric("serve.stack_overhead_p50_ms", miss_p50 - direct_p50);
        report.metric("serve.shed", shed as f64);
        report.metric("serve.partial", partial as f64);
    }
    Ok(ServeRun {
        setup_s,
        spans: rec.spans,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn draw(seed: u64, client: usize, n: usize) -> Vec<(Range<u32>, bool)> {
        let mut s = RequestStream::new(seed, client, 8_000, (300, 1_500));
        (0..n).map(|_| s.next_region()).collect()
    }

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        assert_eq!(draw(7, 0, 500), draw(7, 0, 500));
        assert_ne!(draw(7, 0, 500), draw(8, 0, 500));
        assert_ne!(draw(7, 0, 500), draw(7, 1, 500), "clients differ");
    }

    #[test]
    fn repeat_share_and_window_bounds_hold() {
        let stream = draw(20210817, 0, 8_000);
        let repeats = stream.iter().filter(|(_, r)| *r).count() as f64 / 8_000.0;
        assert!((repeats - 0.3).abs() <= 0.02, "repeat share {repeats}");
        for (i, (region, repeat)) in stream.iter().enumerate() {
            let width = region.end - region.start;
            assert!((300..=1_500).contains(&width) && region.end <= 8_000);
            if *repeat {
                let back = stream[i.saturating_sub(RECENT)..i]
                    .iter()
                    .any(|(r, _)| r == region);
                assert!(back, "a repeat comes from the last {RECENT} requests");
            }
        }
    }

    #[test]
    fn windows_shrink_to_a_short_genome_and_paths_are_one_based() {
        let mut s = RequestStream::new(1, 0, 40, (10, 50));
        for _ in 0..200 {
            let (region, _) = s.next_region();
            assert!(region.end <= 40 && region.end - region.start >= 10);
        }
        assert_eq!(
            call_path("chr", &(0..25)),
            "/call?sample=bench&region=chr:1-25"
        );
    }
}
