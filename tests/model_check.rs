//! Model-checked concurrency protocols (`--features model`).
//!
//! Each test drives a *real* workspace protocol — the shared block
//! cache, the cost queue, the worker-pool shutdown drain — under the
//! `ultravc-sync` model scheduler, exploring thread interleavings
//! exhaustively (bounded DFS) and asserting the protocol's safety
//! property in every one. A failure prints a replayable schedule
//! trace (see README "Correctness tooling").
//!
//! The companion test `costqueue_lost_wakeup_detected` (compiled only
//! under `RUSTFLAGS="--cfg ultravc_model_lost_wakeup"`, which drops the
//! queue's push-side `notify_one`) proves the detector would catch the
//! regression these tests guard against.

#![cfg(feature = "model")]

use std::collections::HashSet;
use ultravc_bamlite::{BalFile, BalWriter, Flags, Record, SharedBlockCache};
use ultravc_genome::phred::Phred;
use ultravc_genome::sequence::Seq;
use ultravc_serve::sched::{CostQueue, BYPASS_CAP};
use ultravc_sync::model::Explorer;
use ultravc_sync::{thread, Arc, Mutex, PoisonError};

fn lock<T>(m: &Mutex<T>) -> ultravc_sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A small in-memory BAL file: `n` records, `block_cap` per block.
fn sample_file(n: usize, block_cap: usize) -> BalFile {
    let mut w = BalWriter::with_block_capacity(block_cap);
    for i in 0..n as u64 {
        let seq = Seq::from_ascii(b"ACGTACGT").expect("fixture seq");
        let quals: Vec<Phred> = (0..8)
            .map(|j| Phred::new(20 + ((i as usize + j) % 20) as u8))
            .collect();
        let rec = Record::full_match(i, (i * 3) as u32, 60, Flags::none(), seq, quals)
            .expect("fixture record");
        w.push(rec).expect("fixture push");
    }
    w.finish()
}

/// Three consumers race for the same cache slot: the block must decode
/// exactly once, every consumer must get the same streams, and the
/// decoded-block counter must agree.
#[test]
fn cache_slot_decodes_exactly_once() {
    let report = Explorer::new("cache_slot_decodes_exactly_once")
        .preemption_bound(2)
        .forbid_leaked(true)
        .explore(|| {
            let cache = Arc::new(SharedBlockCache::new(sample_file(4, 2)));
            let handles: Vec<_> = (0..3)
                .map(|_| {
                    let cache = Arc::clone(&cache);
                    thread::spawn(move || {
                        let (block, performed) = cache.get(0).expect("decode block 0");
                        (block.len(), performed.is_some())
                    })
                })
                .collect();
            let results: Vec<(usize, bool)> = handles
                .into_iter()
                .map(|h| h.join().expect("consumer"))
                .collect();
            let decodes = results.iter().filter(|(_, performed)| *performed).count();
            assert_eq!(decodes, 1, "slot 0 decoded {decodes} times, want exactly 1");
            assert!(results.iter().all(|(len, _)| *len == 2), "torn block view");
            assert_eq!(cache.decoded_blocks(), 1);
        });
    // The DFS is exhaustive here: three consumers, each taking the slot
    // mutex once, complete at 2,769 distinct schedules under preemption
    // bound 2. The floor keeps the ratio the suite has always used for
    // this test (a little under half the exhaustive count), so an
    // explorer that stopped seeing the slot lock — a few hundred
    // schedules — fails, while one more or fewer atomic in `get` does not.
    assert!(
        report.distinct >= 1200,
        "only {} distinct schedules",
        report.distinct
    );
    println!("cache_slot_decodes_exactly_once: {report:?}");
}

/// Two workers drain a queue holding a whale and small jobs pushed
/// around it: every job is served exactly once, the whale is never
/// starved past the bypass cap, and close() lets both workers drain and
/// exit in every interleaving.
#[test]
fn costqueue_bypass_is_capped_and_whale_is_served() {
    let report = Explorer::new("costqueue_bypass_is_capped_and_whale_is_served")
        .preemption_bound(2)
        .dfs_budget(6_000)
        .forbid_leaked(true)
        .explore(|| {
            // Budget 96: whale threshold 96/8 = 12, so cost-50 is large
            // and cost-1 jobs are small. All four fit in flight at once.
            let q = Arc::new(CostQueue::<u32>::new(96));
            let popped = Arc::new(Mutex::new(Vec::<u32>::new()));
            let workers: Vec<_> = (0..2)
                .map(|_| {
                    let q = Arc::clone(&q);
                    let popped = Arc::clone(&popped);
                    thread::spawn(move || {
                        while let Some((item, cost)) = q.pop() {
                            lock(&popped).push(item);
                            q.finish(cost);
                        }
                    })
                })
                .collect();
            q.push(1, 1).expect("small #1");
            q.push(100, 50).expect("whale");
            q.push(2, 1).expect("small #2");
            q.close();
            for w in workers {
                w.join().expect("worker");
            }
            let got = lock(&popped);
            let set: HashSet<u32> = got.iter().copied().collect();
            assert_eq!(got.len(), 3, "jobs served != jobs pushed: {got:?}");
            assert_eq!(
                set,
                HashSet::from([1, 2, 100]),
                "lost or duplicated job: {got:?}"
            );
            // Starvation bound: smalls dequeued while the whale queued.
            let whale_at = got.iter().position(|&i| i == 100).expect("whale served");
            assert!(
                (whale_at as u64) <= BYPASS_CAP,
                "whale overtaken {whale_at} times, cap is {BYPASS_CAP}"
            );
        });
    assert!(
        report.distinct >= 4000,
        "only {} distinct schedules",
        report.distinct
    );
    println!("costqueue_bypass_is_capped_and_whale_is_served: {report:?}");
}

/// Worker-pool shutdown: close() must wake parked workers, the queue
/// must drain every accepted job, and joining must leave zero model
/// threads behind in every interleaving (`forbid_leaked`).
#[test]
fn shutdown_drains_workers_without_leaks() {
    let report = Explorer::new("shutdown_drains_workers_without_leaks")
        .preemption_bound(2)
        .dfs_budget(6_000)
        .forbid_leaked(true)
        .explore(|| {
            let q = Arc::new(CostQueue::<u32>::new(8));
            let served = Arc::new(Mutex::new(0u32));
            let workers: Vec<_> = (0..2)
                .map(|_| {
                    let q = Arc::clone(&q);
                    let served = Arc::clone(&served);
                    thread::spawn(move || {
                        // The server's worker loop shape: pop, work, finish.
                        while let Some((_, cost)) = q.pop() {
                            *lock(&served) += 1;
                            q.finish(cost);
                        }
                    })
                })
                .collect();
            q.push(7, 1).expect("push #1");
            q.push(8, 1).expect("push #2");
            q.close();
            assert!(q.push(9, 1).is_err(), "push after close must be refused");
            for w in workers {
                w.join().expect("worker must exit after close");
            }
            assert_eq!(*lock(&served), 2, "close() dropped an accepted job");
            assert_eq!(q.stats().depth, 0);
        });
    assert!(
        report.distinct >= 2000,
        "only {} distinct schedules",
        report.distinct
    );
    println!("shutdown_drains_workers_without_leaks: {report:?}");
}

/// Detector proof: with the push-side `notify_one` compiled out
/// (`--cfg ultravc_model_lost_wakeup`), a parked worker misses the job
/// it was woken for and the explorer must catch the hang with a
/// replayable trace. CI runs this as its own leg.
#[cfg(ultravc_model_lost_wakeup)]
#[test]
fn costqueue_lost_wakeup_detected() {
    use ultravc_sync::model::FailureKind;
    let (_, failure) = Explorer::new("costqueue_lost_wakeup_detected")
        .preemption_bound(3)
        .explore_result(|| {
            let q = Arc::new(CostQueue::<u32>::new(8));
            let worker = {
                let q = Arc::clone(&q);
                thread::spawn(move || q.pop().map(|(item, _)| item))
            };
            q.push(5, 1).expect("push");
            // No close(): the push's notify is the worker's only wakeup,
            // so dropping it strands a worker that parked first.
            let _ = worker.join();
        });
    let failure = failure.expect("dropped notify_one must strand the worker in some schedule");
    assert!(
        matches!(
            failure.kind,
            FailureKind::Deadlock | FailureKind::LostWakeup
        ),
        "unexpected verdict {:?}: {}",
        failure.kind,
        failure.message
    );
    assert!(
        !failure.trace.is_empty(),
        "failure must carry a replayable trace"
    );
}
