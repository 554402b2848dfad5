//! The region-call server: listener, per-connection handlers, the
//! shared calling worker pool, session management and graceful
//! shutdown.
//!
//! Threading model: one **acceptor** thread owns the listener; each
//! accepted connection gets a **handler** thread that serves a
//! keep-alive sequence of requests (parse, admission, resolve the
//! sample session, wait for and stream the result); the actual calling
//! work runs on a fixed pool of **worker** threads consuming one shared
//! cost-aware job queue ([`crate::sched::CostQueue`]) — so concurrent
//! requests against a 1M-depth region queue behind the pool instead of
//! oversubscribing the host, small requests overtake queued whales, and
//! the queue's cost budget sheds load with a drain-rate `Retry-After`
//! before the backlog grows unbounded.
//!
//! Every failure is final for the request it hit: a read error or a
//! contained worker panic fails its region, and the request answers
//! `206` with the failed regions itemized while other regions and other
//! samples serve normally. A sample's session is rebuilt only when its
//! file changes on disk (the fingerprint probe) or its fault plan is
//! swapped; `/health` answers `200 ok` while the server runs.
//!
//! While a handler waits for its worker it polls the client socket;
//! a closed socket fires the request's [`RunBudget`] cancel token, the
//! worker drains promptly (partial outcome), and neither the session
//! nor the cache ever sees the abandoned request's state.
//!
//! Shutdown (`/shutdown` or [`Server::shutdown`]) is graceful and
//! leak-checked by CI: stop accepting, cancel every in-flight call via
//! its registered cancel token (a whole-genome whale drains in
//! milliseconds instead of holding the join), join every handler, close
//! the job queue, join every worker, report counters.

use crate::cache::{CacheKey, CachedCall, ResultCache};
use crate::http::{HttpError, Request, ResponseWriter};
use crate::query::{CallQuery, Format};
use crate::sched::{CostQueue, PushError};
use std::collections::HashMap;
use std::io::{BufReader, Read};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::ops::Range;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;
use ultravc_bamlite::{BalError, BalFile, FaultPlan, FileFingerprint, Interrupt};
use ultravc_core::driver::CHUNK_COLUMNS;
use ultravc_core::supervisor::{RegionError, RegionFailure};
use ultravc_core::{CallDriver, CallOutcome, CallSession, CallStats, CallerConfig, ParallelMode};
use ultravc_core::{CancelToken, RunBudget};
use ultravc_genome::fasta::read_fasta;
use ultravc_genome::reference::ReferenceGenome;
use ultravc_parfor::Schedule;
use ultravc_vcf::{FilterParams, FilterStatus, VcfRecord, VcfWriter};

/// How the server writes the VCF `##source=` line — kept equal to the
/// CLI's so responses are byte-identical to `ultravc call` output.
const VCF_SOURCE: &str = "ultravc-0.1";

/// Requests served over one keep-alive connection before the server
/// closes it (bounds per-connection state and recycles handler
/// threads).
const MAX_REQUESTS_PER_CONN: u32 = 64;

/// A connection's response side.
type Responder = ResponseWriter<TcpStream>;

/// One sample the server holds open: a name clients address, the BAL
/// file, and its reference FASTA.
#[derive(Debug, Clone)]
pub struct SampleSpec {
    /// Name addressed by `?sample=`.
    pub name: String,
    /// BAL alignment file path.
    pub bal: PathBuf,
    /// Reference FASTA path.
    pub fasta: PathBuf,
    /// Seeded fault plan injected into this sample's byte source
    /// (chaos testing; `None` in production).
    pub fault: Option<FaultPlan>,
}

/// Server configuration. [`ServeConfig::new`] gives conservative
/// defaults; push samples and override knobs as needed.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address (`"127.0.0.1:0"` picks a free port).
    pub addr: String,
    /// Samples to hold open.
    pub samples: Vec<SampleSpec>,
    /// Calling worker pool size.
    pub workers: usize,
    /// OpenMP threads per call (the per-request parallelism; the pool
    /// bounds how many calls run at once).
    pub threads_per_call: usize,
    /// Admission bound: `/call` requests admitted concurrently
    /// (queued + running). Excess is rejected with 503.
    pub max_inflight: usize,
    /// Result-cache capacity in entries; 0 disables caching.
    pub cache_capacity: usize,
    /// Deadline applied to requests that don't send `timeout-ms`.
    pub default_timeout: Option<Duration>,
    /// Whether the dynamic post-call filter runs (the CLI's
    /// `--no-filter` maps to `false`).
    pub filter: bool,
    /// Job-queue cost budget (summed cost of queued + running calls,
    /// in estimated records). 0 = auto: twice the costliest sample's
    /// whole-file cost, so one whale plus a round of small requests
    /// fit but whales never stack.
    pub cost_budget: u64,
    /// Result-cache cost budget. 0 = auto: eight whole-file costs, so
    /// a whole-genome result is cacheable (serve identity tests rely
    /// on it) while a parade of whales still can't purge the small-span
    /// working set.
    pub cache_cost_budget: u64,
}

impl ServeConfig {
    /// Defaults: 2 workers, 1 thread per call, 8 in-flight, 64 cache
    /// entries, no default deadline, auto cost budgets, filter on.
    pub fn new(addr: impl Into<String>) -> ServeConfig {
        ServeConfig {
            addr: addr.into(),
            samples: Vec::new(),
            workers: 2,
            threads_per_call: 1,
            max_inflight: 8,
            cache_capacity: 64,
            default_timeout: None,
            filter: true,
            cost_budget: 0,
            cache_cost_budget: 0,
        }
    }

    /// The driver prototype every session runs: chunked, so a failure or
    /// deadline costs its chunk rather than the whole request, and
    /// matching the CLI's calling pipeline exactly for result identity.
    fn driver(&self) -> CallDriver {
        CallDriver {
            config: CallerConfig::improved(),
            filter: self.filter.then(FilterParams::default),
            mode: ParallelMode::OpenMp {
                n_threads: self.threads_per_call.max(1),
                schedule: Schedule::Dynamic { chunk: 1 },
                chunk_columns: CHUNK_COLUMNS,
            },
            trace: false,
            budget: RunBudget::unbounded(),
        }
    }
}

/// The immutable-once-built per-sample session state. Swapped
/// atomically (behind the slot mutex) when the on-disk file changes.
struct SessionState {
    session: CallSession,
    fingerprint: FileFingerprint,
    content: u64,
}

struct SampleSlot {
    spec: SampleSpec,
    /// `None` after a failed rebuild or a fault-plan swap — the next
    /// admitted request rebuilds from scratch.
    state: Mutex<Option<Arc<SessionState>>>,
    /// Live fault plan (starts as `spec.fault`, swappable at runtime
    /// via [`Server::set_fault`] for chaos testing).
    fault: Mutex<Option<FaultPlan>>,
}

/// One queued call.
struct Job {
    state: Arc<SessionState>,
    region: Range<u32>,
    budget: RunBudget,
    reply: mpsc::Sender<Result<CallOutcome, BalError>>,
}

#[derive(Default)]
struct Counters {
    requests: AtomicU64,
    ok: AtomicU64,
    partial: AtomicU64,
    rejected: AtomicU64,
    shed: AtomicU64,
    client_errors: AtomicU64,
    not_found: AtomicU64,
    server_errors: AtomicU64,
    disconnect_cancels: AtomicU64,
    session_rebuilds: AtomicU64,
}

struct Shared {
    samples: HashMap<String, SampleSlot>,
    cache: ResultCache,
    queue: CostQueue<Job>,
    inflight: AtomicUsize,
    max_inflight: usize,
    default_timeout: Option<Duration>,
    driver: CallDriver,
    shutdown: AtomicBool,
    addr: SocketAddr,
    counters: Counters,
    /// Cancel tokens of every admitted-and-queued call, so shutdown can
    /// interrupt an in-flight whale instead of waiting it out.
    cancels: Mutex<HashMap<u64, CancelToken>>,
    next_cancel_id: AtomicU64,
}

impl Shared {
    /// Fire every registered in-flight cancel token (shutdown path).
    fn cancel_inflight(&self) {
        for token in lock_or_recover(&self.cancels).values() {
            token.cancel();
        }
    }
}

/// Final counters reported by [`Server::join`] / [`Server::shutdown`].
#[derive(Debug, Clone, Copy)]
pub struct ServerReport {
    /// `/call` requests received.
    pub requests: u64,
    /// Complete (200) responses.
    pub ok: u64,
    /// Partial (206) responses.
    pub partial: u64,
    /// Admission rejections (503), count-based and shutdown-path.
    pub rejected: u64,
    /// Cost-shed rejections (503 + drain-rate `Retry-After`).
    pub shed: u64,
    /// Client errors (400/405).
    pub client_errors: u64,
    /// Unknown samples / paths (404).
    pub not_found: u64,
    /// Server-side failures (500).
    pub server_errors: u64,
    /// Requests cancelled because the client disconnected mid-call.
    pub disconnect_cancels: u64,
    /// Sessions rebuilt after an on-disk file change.
    pub session_rebuilds: u64,
    /// Result-cache counters at shutdown.
    pub cache: crate::cache::CacheStats,
}

/// A running server. Bind with [`Server::bind`]; stop with a
/// `/shutdown` request (then [`Server::join`]) or [`Server::shutdown`].
pub struct Server {
    acceptor: JoinHandle<()>,
    workers: Vec<JoinHandle<()>>,
    shared: Arc<Shared>,
    addr: SocketAddr,
}

fn lock_or_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

fn load_reference(path: &std::path::Path) -> Result<ReferenceGenome, String> {
    let file = std::fs::File::open(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let records = read_fasta(BufReader::new(file)).map_err(|e| e.to_string())?;
    let first = records
        .into_iter()
        .next()
        .ok_or_else(|| format!("{}: empty FASTA", path.display()))?;
    Ok(ReferenceGenome::from_seq(first.name, first.seq))
}

fn open_session(
    spec: &SampleSpec,
    fault: Option<FaultPlan>,
    driver: &CallDriver,
) -> Result<SessionState, String> {
    let fingerprint =
        FileFingerprint::probe(&spec.bal).map_err(|e| format!("{}: {e}", spec.bal.display()))?;
    let mut bal = BalFile::open(&spec.bal).map_err(|e| format!("{}: {e}", spec.bal.display()))?;
    if let Some(plan) = fault {
        bal = bal.with_faults(plan);
    }
    let content = bal.content_id();
    let reference = Arc::new(load_reference(&spec.fasta)?);
    let session = CallSession::open(driver.clone(), reference, bal);
    Ok(SessionState {
        session,
        fingerprint,
        content,
    })
}

impl Server {
    /// Open every configured sample (failing fast on a bad path), bind
    /// the listener, and start the worker pool + acceptor.
    pub fn bind(config: ServeConfig) -> Result<Server, String> {
        if config.samples.is_empty() {
            return Err("serve: no samples configured".to_string());
        }
        let driver = config.driver();
        let mut samples = HashMap::new();
        let mut max_sample_cost = 1u64;
        for spec in &config.samples {
            if samples.contains_key(&spec.name) {
                return Err(format!("serve: duplicate sample name {:?}", spec.name));
            }
            let state = open_session(spec, spec.fault, &driver)?;
            max_sample_cost = max_sample_cost.max(state.session.total_cost());
            samples.insert(
                spec.name.clone(),
                SampleSlot {
                    spec: spec.clone(),
                    state: Mutex::new(Some(Arc::new(state))),
                    fault: Mutex::new(spec.fault),
                },
            );
        }
        // Auto budgets scale with the costliest held-open file: the
        // queue fits one whale plus small traffic (whales never stack);
        // the cache can hold a whole-genome result (≤ half its budget)
        // without letting whales purge the small-span working set.
        let cost_budget = if config.cost_budget > 0 {
            config.cost_budget
        } else {
            max_sample_cost.saturating_mul(2).saturating_add(1)
        };
        let cache_cost_budget = if config.cache_cost_budget > 0 {
            config.cache_cost_budget
        } else {
            max_sample_cost.saturating_mul(8).saturating_add(1)
        };
        let listener =
            TcpListener::bind(&config.addr).map_err(|e| format!("bind {}: {e}", config.addr))?;
        let addr = listener
            .local_addr()
            .map_err(|e| format!("local_addr: {e}"))?;
        let shared = Arc::new(Shared {
            samples,
            cache: ResultCache::with_cost_budget(config.cache_capacity, cache_cost_budget),
            queue: CostQueue::new(cost_budget),
            inflight: AtomicUsize::new(0),
            max_inflight: config.max_inflight.max(1),
            default_timeout: config.default_timeout,
            driver,
            shutdown: AtomicBool::new(false),
            addr,
            counters: Counters::default(),
            cancels: Mutex::new(HashMap::new()),
            next_cancel_id: AtomicU64::new(0),
        });
        let mut workers = Vec::new();
        for i in 0..config.workers.max(1) {
            let shared2 = Arc::clone(&shared);
            let handle = std::thread::Builder::new()
                .name(format!("ultravc-serve-worker-{i}"))
                .spawn(move || worker_loop(&shared2))
                .map_err(|e| format!("spawn worker: {e}"))?;
            workers.push(handle);
        }
        let shared_for_acceptor = Arc::clone(&shared);
        let acceptor = std::thread::Builder::new()
            .name("ultravc-serve-acceptor".to_string())
            .spawn(move || acceptor_loop(listener, shared_for_acceptor))
            .map_err(|e| format!("spawn acceptor: {e}"))?;
        Ok(Server {
            acceptor,
            workers,
            shared,
            addr,
        })
    }

    /// The bound address (with the real port when `:0` was requested).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Swap `sample`'s live fault plan (chaos testing: inject or clear
    /// faults on a serving sample without restarting). Drops the
    /// sample's session and cache entries so the next request reopens
    /// the file under the new plan.
    pub fn set_fault(&self, sample: &str, plan: Option<FaultPlan>) -> Result<(), String> {
        let slot = self
            .shared
            .samples
            .get(sample)
            .ok_or_else(|| format!("unknown sample {sample:?}"))?;
        *lock_or_recover(&slot.fault) = plan;
        *lock_or_recover(&slot.state) = None;
        self.shared.cache.invalidate_sample(sample);
        Ok(())
    }

    /// Block until the server shuts down (a `/shutdown` request or
    /// [`Server::shutdown`] from another handle), then reap every
    /// thread and report counters.
    pub fn join(self) -> ServerReport {
        let _ = self.acceptor.join();
        // The acceptor closed the job queue on its way out; workers
        // drain and exit.
        for w in self.workers {
            let _ = w.join();
        }
        let c = &self.shared.counters;
        ServerReport {
            requests: c.requests.load(Ordering::SeqCst),
            ok: c.ok.load(Ordering::SeqCst),
            partial: c.partial.load(Ordering::SeqCst),
            rejected: c.rejected.load(Ordering::SeqCst),
            shed: c.shed.load(Ordering::SeqCst),
            client_errors: c.client_errors.load(Ordering::SeqCst),
            not_found: c.not_found.load(Ordering::SeqCst),
            server_errors: c.server_errors.load(Ordering::SeqCst),
            disconnect_cancels: c.disconnect_cancels.load(Ordering::SeqCst),
            session_rebuilds: c.session_rebuilds.load(Ordering::SeqCst),
            cache: self.shared.cache.stats(),
        }
    }

    /// Initiate a graceful shutdown and wait for it to finish: stop
    /// accepting, cancel every in-flight call, drain, join.
    pub fn shutdown(self) -> ServerReport {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.cancel_inflight();
        // Wake the blocking accept with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        self.join()
    }
}

fn worker_loop(shared: &Shared) {
    while let Some((job, cost)) = shared.queue.pop() {
        let result = job.state.session.call_with_budget(job.region, job.budget);
        // A vanished handler (client gone) just drops the result.
        let _ = job.reply.send(result);
        shared.queue.finish(cost);
    }
}

fn acceptor_loop(listener: TcpListener, shared: Arc<Shared>) {
    let mut handlers: Vec<JoinHandle<()>> = Vec::new();
    for conn in listener.incoming() {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = conn else { continue };
        let shared2 = Arc::clone(&shared);
        if let Ok(handle) = std::thread::Builder::new()
            .name("ultravc-serve-conn".to_string())
            .spawn(move || handle_connection(&shared2, stream))
        {
            handlers.push(handle);
        }
        // Reap finished handlers so the vec (and thread table) stays
        // bounded by concurrent connections, not total served.
        handlers = handlers
            .into_iter()
            .filter_map(|h| {
                if h.is_finished() {
                    let _ = h.join();
                    None
                } else {
                    Some(h)
                }
            })
            .collect();
    }
    // In-flight calls were cancelled when the shutdown flag was set;
    // handlers drain their (partial) results and exit promptly.
    for h in handlers {
        let _ = h.join();
    }
    // Close the job queue: workers drain what's left and exit.
    shared.queue.close();
}

/// Decrements the in-flight gauge on scope exit, so early returns and
/// panics can't leak admission slots.
struct InflightGuard<'a>(&'a AtomicUsize);

impl Drop for InflightGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Deregisters a request's cancel token on scope exit.
struct CancelReg<'a> {
    shared: &'a Shared,
    id: u64,
}

impl<'a> CancelReg<'a> {
    fn register(shared: &'a Shared, token: CancelToken) -> CancelReg<'a> {
        let id = shared.next_cancel_id.fetch_add(1, Ordering::SeqCst);
        lock_or_recover(&shared.cancels).insert(id, token);
        CancelReg { shared, id }
    }
}

impl Drop for CancelReg<'_> {
    fn drop(&mut self) {
        lock_or_recover(&self.shared.cancels).remove(&self.id);
    }
}

fn handle_connection(shared: &Shared, stream: TcpStream) {
    // Bound header parsing; doubles as the keep-alive idle timeout — a
    // stuck or silent client cannot pin the handler.
    let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
    // Each response is one write (see `http`); Nagle would only hold it.
    let _ = stream.set_nodelay(true);
    let mut reader = BufReader::new(match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    });
    let mut out = ResponseWriter::new(stream);
    let mut served = 0u32;
    loop {
        let request = match Request::read_from(&mut reader) {
            Ok(r) => r,
            Err(HttpError::BadRequest(msg)) => {
                shared.counters.client_errors.fetch_add(1, Ordering::SeqCst);
                let _ = respond_text(&mut out, 400, &format!("{msg}\n"), true);
                return;
            }
            // Idle timeout between requests, or the client closed.
            Err(HttpError::Io(_)) => return,
        };
        served += 1;
        let close = request.close
            || served >= MAX_REQUESTS_PER_CONN
            || shared.shutdown.load(Ordering::SeqCst);
        match (request.method.as_str(), request.path.as_str()) {
            (_, "/health") => {
                let _ = respond_text(&mut out, 200, "ok\n", close);
            }
            (_, "/stats") => {
                let body = stats_json(shared);
                let _ = out.write_response(200, "application/json", &[], body.as_bytes(), close);
            }
            (_, "/shutdown") => {
                shared.shutdown.store(true, Ordering::SeqCst);
                // Interrupt in-flight whales so the drain is prompt.
                shared.cancel_inflight();
                let _ = respond_text(&mut out, 200, "shutting down\n", true);
                // Wake the acceptor so it observes the flag.
                let _ = TcpStream::connect(shared.addr);
                return;
            }
            ("GET", "/call") => handle_call(shared, &mut out, &request, close),
            (_, "/call") => {
                shared.counters.client_errors.fetch_add(1, Ordering::SeqCst);
                let _ = respond_text(&mut out, 405, "use GET /call\n", close);
            }
            (_, other) => {
                shared.counters.not_found.fetch_add(1, Ordering::SeqCst);
                let _ = respond_text(
                    &mut out,
                    404,
                    &format!("no such endpoint {other:?}\n"),
                    close,
                );
            }
        }
        if close {
            return;
        }
    }
}

fn respond_text(out: &mut Responder, status: u16, body: &str, close: bool) -> std::io::Result<()> {
    out.write_response(status, "text/plain", &[], body.as_bytes(), close)
}

/// Whole ceiling seconds for a `Retry-After` header (minimum 1).
fn retry_after_secs(d: Duration) -> u64 {
    (d.as_secs_f64().ceil() as u64).max(1)
}

fn handle_call(shared: &Shared, out: &mut Responder, request: &Request, close: bool) {
    let c = &shared.counters;
    c.requests.fetch_add(1, Ordering::SeqCst);
    let query = match CallQuery::from_pairs(&request.query) {
        Ok(q) => q,
        Err(msg) => {
            c.client_errors.fetch_add(1, Ordering::SeqCst);
            let _ = respond_text(out, 400, &format!("{msg}\n"), close);
            return;
        }
    };
    let Some(slot) = shared.samples.get(&query.sample) else {
        c.not_found.fetch_add(1, Ordering::SeqCst);
        let _ = respond_text(
            out,
            404,
            &format!("unknown sample {:?}\n", query.sample),
            close,
        );
        return;
    };
    // Admission before any heavy work: the gauge covers queued +
    // running calls; the guard releases the slot on every exit path.
    if shared.inflight.fetch_add(1, Ordering::SeqCst) >= shared.max_inflight {
        shared.inflight.fetch_sub(1, Ordering::SeqCst);
        c.rejected.fetch_add(1, Ordering::SeqCst);
        let _ = out.write_response(
            503,
            "text/plain",
            &[("Retry-After", "1".to_string())],
            b"server at capacity\n",
            close,
        );
        return;
    }
    let _inflight = InflightGuard(&shared.inflight);
    let state = match resolve_state(shared, slot) {
        Ok(s) => s,
        Err(msg) => {
            // Could not even open the file: the sample, not the client,
            // is broken.
            c.server_errors.fetch_add(1, Ordering::SeqCst);
            let _ = respond_text(out, 500, &format!("{msg}\n"), close);
            return;
        }
    };
    let reference = Arc::clone(state.session.reference());
    if query.region.chrom != reference.name {
        c.client_errors.fetch_add(1, Ordering::SeqCst);
        let _ = respond_text(
            out,
            400,
            &format!(
                "unknown chromosome {:?} (sample {:?} is {:?})\n",
                query.region.chrom, query.sample, reference.name
            ),
            close,
        );
        return;
    }
    let len = reference.len() as u32;
    let span = query.region.span.clone().unwrap_or(0..len);
    if span.end > len {
        c.client_errors.fetch_add(1, Ordering::SeqCst);
        let _ = respond_text(
            out,
            400,
            &format!(
                "region [{}, {}) out of bounds for {:?} of length {len}\n",
                span.start, span.end, reference.name
            ),
            close,
        );
        return;
    }
    let cost = state.session.estimate_cost(&span);
    let key = CacheKey {
        sample: query.sample.clone(),
        fingerprint: state.fingerprint,
        content: state.content,
        start: span.start,
        end: span.end,
    };
    if query.cache {
        if let Some(hit) = shared.cache.get(&key) {
            c.ok.fetch_add(1, Ordering::SeqCst);
            let _ = render(
                out,
                &query,
                &reference.name,
                span,
                hit.records.clone(),
                &hit.stats,
                &[],
                None,
                "hit",
                close,
            );
            return;
        }
    }
    // Arm this request's own budget: timeout → deadline, and the
    // cancel token doubles as the disconnect + shutdown signal.
    let mut budget = RunBudget::unbounded();
    budget.deadline = query.timeout.or(shared.default_timeout);
    let cancel = budget.cancel.clone();
    let _cancel_reg = CancelReg::register(shared, cancel.clone());
    let (reply_tx, reply_rx) = mpsc::channel();
    let job = Job {
        state: Arc::clone(&state),
        region: span.clone(),
        budget,
        reply: reply_tx,
    };
    match shared.queue.push(job, cost) {
        Ok(()) => {}
        Err(PushError::Closed) => {
            c.rejected.fetch_add(1, Ordering::SeqCst);
            let _ = respond_text(out, 503, "server shutting down\n", close);
            return;
        }
        Err(PushError::Saturated { retry_after }) => {
            c.shed.fetch_add(1, Ordering::SeqCst);
            let _ = out.write_response(
                503,
                "text/plain",
                &[("Retry-After", retry_after_secs(retry_after).to_string())],
                b"queue cost budget exhausted\n",
                close,
            );
            return;
        }
    }
    let Some(result) = await_result(out.get_ref(), &reply_rx, &cancel, c) else {
        // Worker pool went away mid-request (shutdown race).
        c.server_errors.fetch_add(1, Ordering::SeqCst);
        let _ = respond_text(out, 500, "worker pool unavailable\n", close);
        return;
    };
    match result {
        Err(e) => {
            let client_fault = matches!(
                &e,
                BalError::Io(io) if io.kind() == std::io::ErrorKind::InvalidInput
            );
            if client_fault {
                c.client_errors.fetch_add(1, Ordering::SeqCst);
                let _ = respond_text(out, 400, &format!("{e}\n"), close);
            } else {
                c.server_errors.fetch_add(1, Ordering::SeqCst);
                let _ = respond_text(out, 500, &format!("{e}\n"), close);
            }
        }
        Ok(outcome) => {
            let complete = outcome.partial.is_empty() && outcome.interrupt.is_none();
            if complete {
                c.ok.fetch_add(1, Ordering::SeqCst);
                if query.cache {
                    shared.cache.insert(
                        key,
                        Arc::new(CachedCall {
                            records: outcome.records.clone(),
                            stats: outcome.stats,
                        }),
                        cost,
                    );
                }
            } else {
                c.partial.fetch_add(1, Ordering::SeqCst);
            }
            let _ = render(
                out,
                &query,
                &reference.name,
                span,
                outcome.records,
                &outcome.stats,
                &outcome.partial,
                outcome.interrupt,
                "miss",
                close,
            );
        }
    }
}

/// Re-probe the sample's on-disk identity and return a session for it,
/// rebuilding (and invalidating the sample's cache entries) when the
/// file changed under us, the previous rebuild failed, or a fault-plan
/// swap dropped the session.
fn resolve_state(shared: &Shared, slot: &SampleSlot) -> Result<Arc<SessionState>, String> {
    let probed = FileFingerprint::probe(&slot.spec.bal)
        .map_err(|e| format!("{}: {e}", slot.spec.bal.display()))?;
    let mut guard = lock_or_recover(&slot.state);
    if let Some(state) = guard.as_ref() {
        if state.fingerprint == probed {
            return Ok(Arc::clone(state));
        }
    }
    // Stale (or missing after a failed rebuild): drop first so a
    // failure leaves None, then rebuild against the current bytes
    // under the slot's live fault plan.
    *guard = None;
    shared.cache.invalidate_sample(&slot.spec.name);
    let fault = *lock_or_recover(&slot.fault);
    let rebuilt = Arc::new(open_session(&slot.spec, fault, &shared.driver)?);
    shared
        .counters
        .session_rebuilds
        .fetch_add(1, Ordering::SeqCst);
    *guard = Some(Arc::clone(&rebuilt));
    Ok(rebuilt)
}

/// Wait for the worker's outcome while watching the client socket: a
/// closed connection cancels the request's budget so the worker drains
/// instead of finishing doomed work. Returns `None` if the worker pool
/// dropped the job without replying.
fn await_result(
    stream: &TcpStream,
    reply: &mpsc::Receiver<Result<CallOutcome, BalError>>,
    cancel: &ultravc_core::CancelToken,
    counters: &Counters,
) -> Option<Result<CallOutcome, BalError>> {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(1)));
    let mut probe = [0u8; 256];
    let mut cancelled = false;
    loop {
        match reply.recv_timeout(Duration::from_millis(20)) {
            Ok(result) => {
                // Restore a sane timeout for the response write path.
                let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
                return Some(result);
            }
            Err(RecvTimeoutError::Timeout) => {
                if cancelled {
                    continue;
                }
                match (&*stream).read(&mut probe) {
                    // EOF: the client hung up. Cancel and keep waiting
                    // for the worker to drain (it returns a partial
                    // outcome we then fail to write — fine).
                    Ok(0) => {
                        cancel.cancel();
                        cancelled = true;
                        counters.disconnect_cancels.fetch_add(1, Ordering::SeqCst);
                    }
                    // Stray bytes (an eager client) are ignored; this
                    // is why pipelining is unsupported on keep-alive
                    // connections.
                    Ok(_) => {}
                    Err(e)
                        if matches!(
                            e.kind(),
                            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                        ) => {}
                    Err(_) => {
                        cancel.cancel();
                        cancelled = true;
                        counters.disconnect_cancels.fetch_add(1, Ordering::SeqCst);
                    }
                }
            }
            Err(RecvTimeoutError::Disconnected) => return None,
        }
    }
}

fn failure_kind(f: &RegionFailure) -> &'static str {
    match f {
        RegionFailure::Panic(_) => "panic",
        RegionFailure::Error(_) => "error",
        RegionFailure::Cancelled(Interrupt::Cancelled) => "cancelled",
        RegionFailure::Cancelled(Interrupt::DeadlineExpired) => "deadline-expired",
    }
}

fn interrupt_name(i: Interrupt) -> &'static str {
    match i {
        Interrupt::Cancelled => "cancelled",
        Interrupt::DeadlineExpired => "deadline-expired",
    }
}

/// Itemize failed regions for the `X-Ultravc-Partial-Regions` header,
/// capped so a whole-genome deadline expiry can't emit a kilobyte-scale
/// header (the JSON body carries the full list).
fn partial_header(partial: &[RegionError]) -> String {
    const CAP: usize = 16;
    let mut items: Vec<String> = partial
        .iter()
        .take(CAP)
        .map(|e| {
            format!(
                "{}-{}:{}",
                e.region.start,
                e.region.end,
                failure_kind(&e.failure)
            )
        })
        .collect();
    if partial.len() > CAP {
        items.push(format!("+{}", partial.len() - CAP));
    }
    items.join(",")
}

#[allow(clippy::too_many_arguments)]
fn render(
    out: &mut Responder,
    query: &CallQuery,
    reference_name: &str,
    span: Range<u32>,
    mut records: Vec<VcfRecord>,
    stats: &CallStats,
    partial: &[RegionError],
    interrupt: Option<Interrupt>,
    cache_status: &str,
    close: bool,
) -> std::io::Result<()> {
    crate::apply_min_af(&mut records, query.min_af);
    let complete = partial.is_empty() && interrupt.is_none();
    let status = if complete { 200 } else { 206 };
    let mut headers = vec![("X-Ultravc-Cache", cache_status.to_string())];
    if !partial.is_empty() {
        headers.push(("X-Ultravc-Partial", partial.len().to_string()));
        headers.push(("X-Ultravc-Partial-Regions", partial_header(partial)));
    }
    if let Some(i) = interrupt {
        headers.push(("X-Ultravc-Interrupt", interrupt_name(i).to_string()));
    }
    match query.format {
        Format::Vcf => {
            // Stream the body: header + one record per write, framed in
            // bounded chunks — an ultra-deep response is never
            // materialized whole.
            let mut writer = VcfWriter::new(out.chunked(status, "text/plain", &headers, close)?);
            writer.write_header(reference_name, VCF_SOURCE)?;
            for rec in &records {
                writer.write_record(rec)?;
            }
            writer.into_inner().finish()?;
            Ok(())
        }
        Format::Json => {
            let body = json_body(
                query,
                reference_name,
                span,
                &records,
                stats,
                partial,
                interrupt,
                cache_status,
            );
            out.write_response(status, "application/json", &headers, body.as_bytes(), close)
        }
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn filter_text(f: &FilterStatus) -> String {
    match f {
        FilterStatus::Unfiltered => ".".to_string(),
        FilterStatus::Pass => "PASS".to_string(),
        FilterStatus::Fail(names) => names.join(";"),
    }
}

#[allow(clippy::too_many_arguments)]
fn json_body(
    query: &CallQuery,
    reference_name: &str,
    span: Range<u32>,
    records: &[VcfRecord],
    stats: &CallStats,
    partial: &[RegionError],
    interrupt: Option<Interrupt>,
    cache_status: &str,
) -> String {
    let mut body = String::with_capacity(256 + records.len() * 128);
    body.push_str(&format!(
        "{{\"sample\":\"{}\",\"region\":{{\"chrom\":\"{}\",\"start\":{},\"end\":{}}},\
         \"status\":\"{}\",\"cache\":\"{}\",\"interrupt\":{},",
        json_escape(&query.sample),
        json_escape(reference_name),
        span.start,
        span.end,
        if partial.is_empty() && interrupt.is_none() {
            "complete"
        } else {
            "partial"
        },
        cache_status,
        match interrupt {
            Some(i) => format!("\"{}\"", interrupt_name(i)),
            None => "null".to_string(),
        },
    ));
    body.push_str("\"partial\":[");
    for (i, e) in partial.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        body.push_str(&format!(
            "{{\"start\":{},\"end\":{},\"kind\":\"{}\",\"detail\":\"{}\"}}",
            e.region.start,
            e.region.end,
            failure_kind(&e.failure),
            json_escape(&e.failure.to_string()),
        ));
    }
    body.push_str("],\"records\":[");
    for (i, r) in records.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        let (rf, rr, af, ar) = r.info.dp4;
        body.push_str(&format!(
            "{{\"chrom\":\"{}\",\"pos\":{},\"ref\":\"{}\",\"alt\":\"{}\",\"qual\":{:.1},\
             \"filter\":\"{}\",\"dp\":{},\"af\":{:.6},\"sb\":{:.0},\"dp4\":[{rf},{rr},{af},{ar}]}}",
            json_escape(&r.chrom),
            r.pos + 1,
            r.ref_base,
            r.alt_base,
            r.qual,
            json_escape(&filter_text(&r.filter)),
            r.info.dp,
            r.info.af,
            r.info.sb,
        ));
    }
    body.push_str(&format!(
        "],\"stats\":{{\"columns\":{},\"calls\":{}}}}}",
        stats.columns, stats.calls
    ));
    body
}

fn stats_json(shared: &Shared) -> String {
    let c = &shared.counters;
    let cache = shared.cache.stats();
    let queue = shared.queue.stats();
    format!(
        "{{\"requests\":{},\"ok\":{},\"partial\":{},\"rejected\":{},\"shed\":{},\
         \"client_errors\":{},\"not_found\":{},\"server_errors\":{},\"disconnect_cancels\":{},\
         \"session_rebuilds\":{},\"inflight\":{},\
         \"queue\":{{\"depth\":{},\"inflight_cost\":{},\"budget\":{},\"shed\":{}}},\
         \"cache\":{{\"hits\":{},\"misses\":{},\"invalidated\":{},\"entries\":{},\
         \"total_cost\":{},\"oversize\":{},\"evicted\":{}}}}}",
        c.requests.load(Ordering::SeqCst),
        c.ok.load(Ordering::SeqCst),
        c.partial.load(Ordering::SeqCst),
        c.rejected.load(Ordering::SeqCst),
        c.shed.load(Ordering::SeqCst),
        c.client_errors.load(Ordering::SeqCst),
        c.not_found.load(Ordering::SeqCst),
        c.server_errors.load(Ordering::SeqCst),
        c.disconnect_cancels.load(Ordering::SeqCst),
        c.session_rebuilds.load(Ordering::SeqCst),
        shared.inflight.load(Ordering::SeqCst),
        queue.depth,
        queue.inflight_cost,
        queue.budget,
        queue.shed,
        cache.hits,
        cache.misses,
        cache.invalidated,
        cache.entries,
        cache.total_cost,
        cache.oversize,
        cache.evicted,
    )
}
