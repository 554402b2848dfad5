//! # ultravc-serve
//!
//! The region-call serving layer: a long-lived process that holds BAL
//! files open and answers htsget-style region queries over HTTP,
//! turning the batch caller into the interactive service the paper's
//! speedup makes feasible (many clients querying regions of many
//! samples continuously, instead of one CLI run per question).
//!
//! The build is fully offline, so the HTTP layer is a minimal
//! hand-rolled HTTP/1.1 implementation over `std::net::TcpListener` —
//! no async runtime, one OS thread per connection for parsing and
//! response streaming, with the actual calling work funnelled onto one
//! shared fixed-size worker pool (so a 1M-depth region cannot starve
//! the listener or small queries: admission control bounds in-flight
//! depth and everything else queues).
//!
//! ## Request grammar
//!
//! ```text
//! GET /call?sample=NAME&region=CHROM[:START-END][&min-af=F][&format=vcf|json]
//!          [&timeout-ms=N][&cache=on|off]
//! GET /health          → 200 "ok"
//! GET /stats           → JSON counters (requests, queue, cache,
//!                        in-flight)
//! GET /shutdown        → graceful stop (cancels in-flight calls)
//! ```
//!
//! `region` coordinates are 1-based inclusive (`NC_045512.2:1-29903`
//! style); a bare `CHROM` means the whole genome. Unknown query
//! parameters, malformed regions, and non-positive `timeout-ms` are
//! rejected with `400`. Unknown samples are `404`.
//!
//! ## Response schema
//!
//! * **VCF** (default): the same bytes `ultravc call --region` writes —
//!   byte-for-byte, which CI asserts. Streamed with chunked
//!   transfer-encoding so ultra-deep responses never buffer whole.
//! * **JSON** (`format=json`): records plus run metadata (stats,
//!   cache/partial status) in one object.
//! * **Partial results**: a request whose [`RunBudget`] deadline
//!   expired, whose client disconnected, or whose worker hit a
//!   contained per-region failure returns **206** with the completed
//!   regions' records and the failed regions itemized — in the
//!   `X-Ultravc-Partial-Regions` header (VCF) or the `partial` array
//!   (JSON). A clean run is `200`.
//!
//! ## Sessions, cache, and the `RunBudget` mapping
//!
//! Each sample is a [`CallSession`](ultravc_core::CallSession): file,
//! dictionary and whole-genome tester survive across requests. Each
//! request arms its **own** [`RunBudget`]: the request's `timeout-ms`
//! (or the server default) becomes the budget deadline, and a detected
//! client disconnect fires the budget's cancel token — either way the
//! request drains as a partial outcome without poisoning the session or
//! the cache.
//!
//! Completed (and only completed) call results are cached per
//! `(sample, file identity, region)` — file identity being the on-disk
//! [`FileFingerprint`](ultravc_bamlite::FileFingerprint) plus the
//! parsed [`content_id`](ultravc_bamlite::BalFile::content_id) — and
//! the fingerprint is re-probed on every request, so rewriting a BAL
//! file under the server invalidates its session and cached results on
//! the next query. `min-af` is applied at render time, so one cached
//! result serves every threshold.
//!
//! ## Overload and failure behavior
//!
//! Requests are priced **before** they run ([`CallSession::estimate_cost`]
//! — records the span covers, straight from the BAL index). The worker
//! queue ([`sched::CostQueue`]) is two-class small-first with a bounded
//! whale bypass, and holds a cost budget over queued + running work:
//! pushes past the budget are shed with `503` and a `Retry-After`
//! derived from the measured drain rate. The result cache shares the
//! same cost currency — a whale result over half the cache's cost
//! budget is refused admission rather than purging the hot small-span
//! working set.
//!
//! Failures fail fast and stay local. A read error or a contained
//! worker panic fails only the region it hit — nothing is retried, so a
//! request against a dead device answers its `206` as quickly as its
//! reads fail — and other regions and samples are untouched. A file
//! rewritten or shrunk under the server is rebuilt by the fingerprint
//! probe on the next request; nothing else drops a session.
//!
//! Connections are HTTP/1.1 keep-alive by default (`Connection: close`
//! honored, 5 s idle timeout, 64 requests per connection). Pipelining
//! is **not** supported: the disconnect probe may consume bytes a
//! pipelined request sent early. Each message is one write on a
//! `TCP_NODELAY` socket ([`http`]), so a keep-alive exchange costs its
//! work, not a delayed-ACK timer.
//!
//! [`RunBudget`]: ultravc_core::RunBudget
//! [`CallSession::estimate_cost`]: ultravc_core::CallSession::estimate_cost

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod client;
pub mod config;
pub mod http;
pub mod query;
pub mod sched;
pub mod server;

pub use cache::{CacheStats, CachedCall, ResultCache};
pub use client::{http_get, read_response, ClientConn, Response};
pub use config::parse_samples;
pub use query::{parse_region, CallQuery, Format, Region};
pub use sched::{CostQueue, PushError, QueueStats};
pub use server::{SampleSpec, ServeConfig, Server, ServerReport};

/// Drop records below an allele-frequency floor. This is the one
/// post-filter knob the serving layer adds on top of the driver
/// pipeline; the CLI's `--min-af` calls the same function so the two
/// front ends stay bitwise identical.
pub fn apply_min_af(records: &mut Vec<ultravc_vcf::VcfRecord>, min_af: Option<f64>) {
    if let Some(floor) = min_af {
        records.retain(|r| r.info.af >= floor);
    }
}
