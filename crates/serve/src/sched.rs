//! Cost-aware job scheduling: the small-request-priority queue behind
//! the worker pool.
//!
//! PR 7's queue was a plain FIFO — one whole-genome 1M-depth call
//! queued ahead of a burst of small region queries head-of-line blocks
//! them all, and admission control bounded only the *count* of
//! in-flight requests, not their cost. This queue fixes both:
//!
//! * **Two-class priority.** Every job carries an up-front cost
//!   estimate (records its span covers, see
//!   [`CallSession::estimate_cost`](ultravc_core::CallSession::estimate_cost)).
//!   Jobs at or under the whale threshold (budget / [`WHALE_DIVISOR`])
//!   are *small* and always dequeue ahead of *large* jobs; within each
//!   class order stays FIFO. A large job is never starved outright: once
//!   [`BYPASS_CAP`] small jobs have overtaken the waiting large head,
//!   the large job goes next regardless.
//! * **Cost token budget.** The sum of queued + running cost is capped.
//!   A push that would exceed the cap is shed — the server turns that
//!   into `503` with a `Retry-After` computed from the queue's measured
//!   drain rate, so clients back off proportionally to the actual
//!   backlog instead of a fixed guess. A job costlier than the whole
//!   budget is still admitted when the queue is idle (a whale must be
//!   servable, just not stackable).
//!
//! The queue is `Condvar`-based (offline build — no channels with
//! priorities, no async runtime). Workers call [`CostQueue::pop`],
//! run the job, then [`CostQueue::finish`] to release the job's cost
//! tokens and feed the drain-rate estimator.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// A large job may be overtaken by at most this many small jobs before
/// it dequeues regardless — bounded priority, not starvation.
pub const BYPASS_CAP: u64 = 16;

/// Jobs costing more than `budget / WHALE_DIVISOR` are classed large.
pub const WHALE_DIVISOR: u64 = 8;

/// Completion events remembered for the drain-rate estimate.
const RATE_WINDOW: usize = 32;

/// Why a push was refused.
#[derive(Debug, PartialEq, Eq)]
pub enum PushError {
    /// The queue was closed (server shutting down).
    Closed,
    /// Admitting the job would overflow the cost budget; retry after
    /// the suggested backoff (derived from the measured drain rate).
    Saturated {
        /// Suggested client backoff.
        retry_after: Duration,
    },
}

struct Entry<T> {
    item: T,
    cost: u64,
}

struct QueueState<T> {
    small: VecDeque<Entry<T>>,
    large: VecDeque<Entry<T>>,
    /// Small jobs dequeued since the current large head started waiting.
    bypassed: u64,
    /// Total cost of queued + running jobs.
    inflight_cost: u64,
    closed: bool,
    /// Recent completions (when, cost) for the drain-rate estimate.
    drained: VecDeque<(Instant, u64)>,
    /// Cost-shed pushes (for `/stats`).
    shed: u64,
}

/// The cost-aware two-class job queue. See the module docs.
pub struct CostQueue<T> {
    state: Mutex<QueueState<T>>,
    ready: Condvar,
    budget: u64,
    whale_threshold: u64,
}

/// Point-in-time queue gauges for `/stats`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueStats {
    /// Queued (not yet running) jobs.
    pub depth: usize,
    /// Cost of queued + running jobs.
    pub inflight_cost: u64,
    /// The configured cost budget.
    pub budget: u64,
    /// Pushes shed because the budget was full.
    pub shed: u64,
}

impl<T> CostQueue<T> {
    /// A queue admitting up to `budget` total in-flight cost (min 1).
    pub fn new(budget: u64) -> CostQueue<T> {
        let budget = budget.max(1);
        CostQueue {
            state: Mutex::new(QueueState {
                small: VecDeque::new(),
                large: VecDeque::new(),
                bypassed: 0,
                inflight_cost: 0,
                closed: false,
                drained: VecDeque::new(),
                shed: 0,
            }),
            ready: Condvar::new(),
            budget,
            whale_threshold: (budget / WHALE_DIVISOR).max(1),
        }
    }

    fn lock(&self) -> MutexGuard<'_, QueueState<T>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Enqueue `item` at `cost`, or shed it. A job over the whole
    /// budget is admitted only when nothing else is in flight.
    pub fn push(&self, item: T, cost: u64) -> Result<(), PushError> {
        let mut state = self.lock();
        if state.closed {
            return Err(PushError::Closed);
        }
        let would = state.inflight_cost.saturating_add(cost);
        if state.inflight_cost > 0 && would > self.budget {
            state.shed += 1;
            let excess = would - self.budget;
            let retry_after = retry_after(&state.drained, excess);
            return Err(PushError::Saturated { retry_after });
        }
        state.inflight_cost = would;
        let entry = Entry { item, cost };
        if cost <= self.whale_threshold {
            state.small.push_back(entry);
        } else {
            state.large.push_back(entry);
        }
        drop(state);
        self.ready.notify_one();
        Ok(())
    }

    /// Dequeue the next job by class priority, blocking until one is
    /// available or the queue is closed *and* drained. The caller must
    /// pass the returned cost back to [`CostQueue::finish`] when done.
    pub fn pop(&self) -> Option<(T, u64)> {
        let mut state = self.lock();
        loop {
            let take_large = match (state.small.front(), state.large.front()) {
                (None, Some(_)) => true,
                (Some(_), Some(_)) => state.bypassed >= BYPASS_CAP,
                _ => false,
            };
            let entry = if take_large {
                state.bypassed = 0;
                state.large.pop_front()
            } else {
                match state.small.pop_front() {
                    Some(e) => {
                        if state.large.is_empty() {
                            state.bypassed = 0;
                        } else {
                            state.bypassed += 1;
                        }
                        Some(e)
                    }
                    None => None,
                }
            };
            if let Some(e) = entry {
                return Some((e.item, e.cost));
            }
            if state.closed {
                return None;
            }
            state = self
                .ready
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Release a finished job's cost tokens and record the completion
    /// for the drain-rate estimate.
    pub fn finish(&self, cost: u64) {
        let mut state = self.lock();
        state.inflight_cost = state.inflight_cost.saturating_sub(cost);
        let now = Instant::now();
        state.drained.push_back((now, cost));
        while state.drained.len() > RATE_WINDOW {
            state.drained.pop_front();
        }
    }

    /// Close the queue: pushes fail with [`PushError::Closed`], poppers
    /// drain what is queued and then return `None`.
    pub fn close(&self) {
        self.lock().closed = true;
        self.ready.notify_all();
    }

    /// Current gauges.
    pub fn stats(&self) -> QueueStats {
        let state = self.lock();
        QueueStats {
            depth: state.small.len() + state.large.len(),
            inflight_cost: state.inflight_cost,
            budget: self.budget,
            shed: state.shed,
        }
    }
}

/// Seconds a shed client should wait for `excess` cost to drain, from
/// the observed completion rate — clamped to `[1, 30]`; 1 s when no
/// completions have been observed yet (cold server).
fn retry_after(drained: &VecDeque<(Instant, u64)>, excess: u64) -> Duration {
    let (Some((oldest, _)), Some((newest, _))) = (drained.front(), drained.back()) else {
        return Duration::from_secs(1);
    };
    let window = newest.saturating_duration_since(*oldest).as_secs_f64();
    let total: u64 = drained.iter().map(|(_, c)| c).sum();
    // A single completion (or an instantaneous burst) has no measurable
    // window; treat the whole batch as one second of throughput.
    let rate = total as f64 / window.max(1.0);
    let secs = (excess as f64 / rate.max(1.0)).ceil();
    Duration::from_secs((secs as u64).clamp(1, 30))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::{self, RecvTimeoutError};
    use std::sync::Arc;

    #[test]
    fn small_jobs_overtake_large_ones_fifo_within_class() {
        let q: CostQueue<&str> = CostQueue::new(800);
        // Threshold = 100: cost ≤ 100 is small.
        q.push("whale-1", 500).unwrap();
        q.push("small-1", 10).unwrap();
        q.push("small-2", 10).unwrap();
        let order: Vec<&str> = (0..3).map(|_| q.pop().unwrap().0).collect();
        assert_eq!(order, ["small-1", "small-2", "whale-1"]);
    }

    #[test]
    fn large_jobs_are_not_starved_forever() {
        let q: CostQueue<u64> = CostQueue::new(u64::MAX);
        q.push(999, u64::MAX / 2).unwrap(); // large
        let mut popped_large_after = None;
        for i in 0..(BYPASS_CAP * 2) {
            q.push(i, 1).unwrap();
            let (got, cost) = q.pop().unwrap();
            q.finish(cost);
            if got == 999 {
                popped_large_after = Some(i);
                break;
            }
        }
        let after = popped_large_after.expect("large job never dequeued");
        assert!(after <= BYPASS_CAP, "dequeued after {after} bypasses");
    }

    #[test]
    fn cost_budget_sheds_and_whales_run_alone() {
        let q: CostQueue<u32> = CostQueue::new(100);
        // A whale over the whole budget is admitted on an idle queue...
        q.push(1, 5_000).unwrap();
        // ...but nothing stacks on top of it.
        match q.push(2, 1) {
            Err(PushError::Saturated { retry_after }) => {
                assert!(retry_after >= Duration::from_secs(1));
            }
            other => panic!("expected shed, got {other:?}"),
        }
        assert_eq!(q.stats().shed, 1);
        let (_, cost) = q.pop().unwrap();
        q.finish(cost);
        assert_eq!(q.stats().inflight_cost, 0);
        q.push(3, 1).unwrap();
    }

    #[test]
    fn close_drains_then_ends() {
        let q: Arc<CostQueue<u32>> = Arc::new(CostQueue::new(100));
        q.push(1, 1).unwrap();
        q.close();
        assert_eq!(q.push(2, 1), Err(PushError::Closed));
        assert_eq!(q.pop().map(|(v, _)| v), Some(1));
        assert_eq!(q.pop(), None);
        // A blocked popper is woken by close from another thread, within
        // a deadline rather than by a join that would hang.
        let q2 = Arc::new(CostQueue::<u32>::new(100));
        let (tx, rx) = mpsc::channel();
        let waiter = {
            let q2 = Arc::clone(&q2);
            std::thread::spawn(move || tx.send(q2.pop()).unwrap())
        };
        std::thread::sleep(Duration::from_millis(30));
        q2.close();
        assert_eq!(rx.recv_timeout(Duration::from_secs(10)), Ok(None));
        waiter.join().unwrap();
    }

    /// Two real workers on one queue, the server's pop → work → finish
    /// loop. Parked workers must serve every job within a deadline (a
    /// push whose wakeup is lost strands its job), each job exactly
    /// once; the whale is overtaken by exactly `BYPASS_CAP` smalls; and
    /// `close()` drains what is queued, refuses later pushes and lets
    /// both workers exit within the deadline. This samples the schedules
    /// the host happens to run, not every interleaving.
    #[test]
    fn parked_workers_serve_every_job_and_close_joins_them() {
        const DEADLINE: Duration = Duration::from_secs(10);
        // Budget 800: cost ≤ 100 is small and the cost-500 whale large;
        // the most ever in flight here (the whale plus 34 smalls) fits.
        let q = Arc::new(CostQueue::<u32>::new(800));
        // A worker takes the gate after reporting each job, so holding it
        // keeps both workers busy while jobs line up behind them.
        let gate = Arc::new(Mutex::new(()));
        let (tx, rx) = mpsc::channel::<(usize, u32)>();
        let workers: Vec<_> = (0..2)
            .map(|w| {
                let (q, gate, tx) = (Arc::clone(&q), Arc::clone(&gate), tx.clone());
                std::thread::spawn(move || {
                    while let Some((item, cost)) = q.pop() {
                        tx.send((w, item)).unwrap();
                        drop(gate.lock().unwrap_or_else(PoisonError::into_inner));
                        q.finish(cost);
                    }
                })
            })
            .collect();
        drop(tx);
        let serve = |n: usize| -> Vec<(usize, u32)> {
            (0..n)
                .map(|_| {
                    rx.recv_timeout(DEADLINE)
                        .expect("a queued job was not served: lost wakeup?")
                })
                .collect()
        };
        // Hold the gate only once every reported job has finished: a
        // worker still passing the gate with an old job could not take a
        // plug.
        let hold_gate = || {
            let t0 = Instant::now();
            while q.stats().inflight_cost > 0 {
                assert!(t0.elapsed() < DEADLINE, "a served job never finished");
                std::thread::yield_now();
            }
            gate.lock().unwrap()
        };
        let mut pushed = Vec::new();
        let mut served = Vec::new();
        let mut push = |item: u32, cost: u64| {
            q.push(item, cost).unwrap();
            pushed.push(item);
        };

        // One job at a time: most find both workers parked.
        for item in 0..32 {
            push(item, 1);
            served.extend(serve(1));
        }

        // A plug per worker holds both at the gate; then the whale and
        // 2 × BYPASS_CAP smalls queue up behind them.
        let held = hold_gate();
        push(100, 1);
        push(101, 1);
        let plugs = serve(2);
        assert_ne!(plugs[0].0, plugs[1].0, "one worker took both plugs");
        const WHALE: u32 = 999;
        push(WHALE, 500);
        let smalls: Vec<u32> = (200..200 + 2 * BYPASS_CAP as u32).collect();
        for &item in &smalls {
            push(item, 1);
        }
        drop(held);
        let burst = serve(smalls.len() + 1);
        // Smalls leave in FIFO order, so the whale's own worker sees where
        // it went: after exactly the first BYPASS_CAP smalls.
        let whale_worker = burst.iter().find(|(_, i)| *i == WHALE).unwrap().0;
        let mine: Vec<u32> = burst
            .iter()
            .filter(|(w, _)| *w == whale_worker)
            .map(|&(_, i)| i)
            .collect();
        let at = mine.iter().position(|&i| i == WHALE).unwrap();
        let cut = smalls[BYPASS_CAP as usize];
        assert!(
            mine[..at].iter().all(|&i| i < cut) && mine[at + 1..].iter().all(|&i| i >= cut),
            "whale not dequeued after exactly {BYPASS_CAP} smalls: its worker took {mine:?}"
        );
        served.extend(plugs);
        served.extend(burst);

        // Close with three jobs queued behind the plugs: they still run,
        // a later push is refused, and both workers exit.
        let held = hold_gate();
        push(300, 1);
        push(301, 1);
        served.extend(serve(2));
        for item in 302..305 {
            push(item, 1);
        }
        q.close();
        assert_eq!(q.push(999_999, 1), Err(PushError::Closed));
        drop(held);
        served.extend(serve(3));
        assert!(
            matches!(
                rx.recv_timeout(DEADLINE),
                Err(RecvTimeoutError::Disconnected)
            ),
            "a worker did not exit after close()"
        );
        for w in workers {
            w.join().unwrap();
        }

        let mut got: Vec<u32> = served.iter().map(|&(_, i)| i).collect();
        got.sort_unstable();
        pushed.sort_unstable();
        assert_eq!(got, pushed, "a job was lost or served twice");
        let stats = q.stats();
        assert_eq!((stats.depth, stats.inflight_cost), (0, 0));
    }

    #[test]
    fn retry_after_tracks_drain_rate() {
        let mut drained = VecDeque::new();
        // No history → 1 s floor.
        assert_eq!(retry_after(&drained, 1_000), Duration::from_secs(1));
        // 100 cost/s observed → 1000 excess ≈ 10 s.
        let t0 = Instant::now();
        drained.push_back((t0, 200));
        drained.push_back((t0 + Duration::from_secs(4), 200));
        let wait = retry_after(&drained, 1_000);
        assert!(
            (Duration::from_secs(5)..=Duration::from_secs(30)).contains(&wait),
            "{wait:?}"
        );
        // Huge excess clamps at 30 s.
        assert_eq!(retry_after(&drained, u64::MAX / 2), Duration::from_secs(30));
    }
}
