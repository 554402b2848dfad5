//! Parallel-for execution over a worker team.

use crate::schedule::{Dispenser, Schedule};
use std::time::{Duration, Instant};

/// Per-worker context handed to the loop body.
#[derive(Debug, Clone, Copy)]
pub struct WorkerCtx {
    /// Dense worker id in `0..n_threads`.
    pub thread_id: usize,
    /// Team size.
    pub n_threads: usize,
}

/// Post-region accounting: what each worker did and for how long — the raw
/// material of the paper's Figure 2 imbalance analysis.
#[derive(Debug, Clone)]
pub struct TeamReport {
    /// Wall-clock duration of the whole region (fork to last join).
    pub wall: Duration,
    /// Per-thread busy time (first claim to last completion).
    pub busy: Vec<Duration>,
    /// Items processed per thread.
    pub items: Vec<usize>,
    /// Per-thread completion time as an offset from region start; the gap
    /// to `wall` is the time the thread idled at the end-of-region barrier.
    pub finished_at: Vec<Duration>,
}

impl TeamReport {
    /// `max(busy) / mean(busy)` — 1.0 is perfect balance. The paper's
    /// Figure 2 shows one straggler thread pushing this well above 1.
    pub fn imbalance(&self) -> f64 {
        let n = self.busy.len().max(1) as f64;
        let total: f64 = self.busy.iter().map(|d| d.as_secs_f64()).sum();
        let mean = total / n;
        if mean == 0.0 {
            return 1.0;
        }
        let max = self
            .busy
            .iter()
            .map(|d| d.as_secs_f64())
            .fold(0.0f64, f64::max);
        max / mean
    }

    /// The thread that stayed busy longest.
    pub fn straggler(&self) -> usize {
        self.busy
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.cmp(b.1))
            .map(|(i, _)| i)
            .unwrap_or(0)
    }

    /// Barrier waste: Σ over threads of (max busy − busy), the idle time
    /// spent at the end-of-region barrier.
    pub fn barrier_waste(&self) -> Duration {
        let max = self.busy.iter().max().copied().unwrap_or_default();
        self.busy.iter().map(|b| max.saturating_sub(*b)).sum()
    }
}

/// The fate of one item under [`parallel_for_supervised`].
#[derive(Debug)]
pub enum ItemOutcome<R> {
    /// The body completed and returned a value.
    Done(R),
    /// The body panicked; the payload is the panic message. The worker
    /// survived the panic and kept claiming items, so one bad item never
    /// takes down its siblings.
    Panicked(String),
    /// The item was never run — the stop signal fired before a worker
    /// reached it (or its worker was lost).
    Skipped,
}

impl<R> ItemOutcome<R> {
    /// The result, if the body completed.
    pub fn done(self) -> Option<R> {
        match self {
            ItemOutcome::Done(r) => Some(r),
            _ => None,
        }
    }
}

/// Render a caught panic payload for reporting.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Run `body` over `items` with `n_threads` workers under `schedule`,
/// returning per-item results in input order plus the team report.
///
/// `body(ctx, index, &item) -> R` must be safe to call concurrently on
/// distinct items (enforced by `Sync` bounds). Results are reassembled by
/// index, so output order is deterministic regardless of schedule or thread
/// count.
///
/// # Panics
///
/// Re-raises a worker panic after the whole team has drained (one bad
/// item no longer aborts the process through a poisoned join). Callers
/// that want panics *reported* instead of raised use
/// [`parallel_for_supervised`].
pub fn parallel_for<T, R, F>(
    n_threads: usize,
    items: &[T],
    schedule: Schedule,
    body: F,
) -> (Vec<R>, TeamReport)
where
    T: Sync,
    R: Send,
    F: Fn(WorkerCtx, usize, &T) -> R + Sync,
{
    let (outcomes, report) = parallel_for_supervised(n_threads, items, schedule, || false, body);
    let results = outcomes
        .into_iter()
        .map(|o| match o {
            ItemOutcome::Done(r) => r,
            ItemOutcome::Panicked(msg) => panic!("worker panicked: {msg}"),
            ItemOutcome::Skipped => unreachable!("no stop signal: every item runs"),
        })
        .collect();
    (results, report)
}

/// [`parallel_for`] under supervision: worker panics are contained
/// per-item (`catch_unwind`) and reported as [`ItemOutcome::Panicked`],
/// and `should_stop` is polled before every claim and every item so an
/// external cancel/deadline signal drains the team promptly — unstarted
/// items come back [`ItemOutcome::Skipped`], in input order like
/// everything else.
///
/// The stop poll must be cheap (an atomic load); it is called once per
/// item on the hot path.
pub fn parallel_for_supervised<T, R, F, S>(
    n_threads: usize,
    items: &[T],
    schedule: Schedule,
    should_stop: S,
    body: F,
) -> (Vec<ItemOutcome<R>>, TeamReport)
where
    T: Sync,
    R: Send,
    F: Fn(WorkerCtx, usize, &T) -> R + Sync,
    S: Fn() -> bool + Sync,
{
    assert!(n_threads > 0, "need at least one thread");
    let region_start = Instant::now();
    let dispenser = Dispenser::new(items.len(), n_threads, schedule);

    let run_one = |ctx: WorkerCtx, i: usize| -> ItemOutcome<R> {
        if should_stop() {
            return ItemOutcome::Skipped;
        }
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(ctx, i, &items[i]))) {
            Ok(r) => ItemOutcome::Done(r),
            Err(payload) => ItemOutcome::Panicked(panic_message(payload)),
        }
    };

    // Fast path: one thread needs no thread scope.
    if n_threads == 1 {
        let t0 = Instant::now();
        let ctx = WorkerCtx {
            thread_id: 0,
            n_threads: 1,
        };
        let results: Vec<ItemOutcome<R>> = (0..items.len()).map(|i| run_one(ctx, i)).collect();
        let busy = t0.elapsed();
        return (
            results,
            TeamReport {
                wall: region_start.elapsed(),
                busy: vec![busy],
                items: vec![items.len()],
                finished_at: vec![region_start.elapsed()],
            },
        );
    }

    let mut tagged: Vec<(usize, ItemOutcome<R>)> = Vec::with_capacity(items.len());
    let mut busy = vec![Duration::ZERO; n_threads];
    let mut counts = vec![0usize; n_threads];
    let mut finished_at = vec![Duration::ZERO; n_threads];

    // Scoped threads borrow `items`/`dispenser` from this stack frame and
    // are all joined before the scope returns.
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(n_threads);
        for thread_id in 0..n_threads {
            let dispenser = &dispenser;
            let run_one = &run_one;
            let should_stop = &should_stop;
            handles.push(scope.spawn(move || {
                let ctx = WorkerCtx {
                    thread_id,
                    n_threads,
                };
                let mut local: Vec<(usize, ItemOutcome<R>)> = Vec::new();
                let t0 = Instant::now();
                if dispenser.is_static() {
                    if let Some(block) = dispenser.static_block(thread_id) {
                        for i in block {
                            local.push((i, run_one(ctx, i)));
                        }
                    }
                } else {
                    while !should_stop() {
                        let Some(claim) = dispenser.claim() else {
                            break;
                        };
                        for i in claim {
                            local.push((i, run_one(ctx, i)));
                        }
                    }
                }
                (t0.elapsed(), region_start.elapsed(), local)
            }));
        }
        for (thread_id, handle) in handles.into_iter().enumerate() {
            // Worker bodies contain panics per item, so a failed join can
            // only mean the supervision plumbing itself panicked; its
            // claimed items stay Skipped rather than aborting the team.
            if let Ok((elapsed, done_at, local)) = handle.join() {
                busy[thread_id] = elapsed;
                finished_at[thread_id] = done_at;
                counts[thread_id] = local.len();
                tagged.extend(local);
            }
        }
    });

    let mut outcomes: Vec<ItemOutcome<R>> = Vec::with_capacity(items.len());
    outcomes.resize_with(items.len(), || ItemOutcome::Skipped);
    for (i, o) in tagged {
        outcomes[i] = o;
    }
    (
        outcomes,
        TeamReport {
            wall: region_start.elapsed(),
            busy,
            items: counts,
            finished_at,
        },
    )
}

/// Parallel map-reduce: apply `map` to every item and fold the results with
/// `fold` (associative, with `identity`). Reduction order is deterministic
/// (index order), so non-commutative folds are safe.
pub fn parallel_reduce<T, A, F, G>(
    n_threads: usize,
    items: &[T],
    schedule: Schedule,
    identity: A,
    map: F,
    fold: G,
) -> (A, TeamReport)
where
    T: Sync,
    A: Send + Clone,
    F: Fn(WorkerCtx, usize, &T) -> A + Sync,
    G: Fn(A, A) -> A,
{
    let (parts, report) = parallel_for(n_threads, items, schedule, map);
    let acc = parts.into_iter().fold(identity, fold);
    (acc, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn results_in_input_order_all_schedules() {
        let items: Vec<u64> = (0..1_000).collect();
        for schedule in [
            Schedule::Static,
            Schedule::Dynamic { chunk: 1 },
            Schedule::Dynamic { chunk: 13 },
        ] {
            let (out, report) = parallel_for(4, &items, schedule, |_, i, x| x * 2 + i as u64);
            let want: Vec<u64> = items
                .iter()
                .enumerate()
                .map(|(i, x)| x * 2 + i as u64)
                .collect();
            assert_eq!(out, want, "{schedule:?}");
            assert_eq!(report.items.iter().sum::<usize>(), 1_000);
        }
    }

    #[test]
    fn single_thread_fast_path_matches() {
        let items: Vec<u32> = (0..100).collect();
        let (a, ra) = parallel_for(1, &items, Schedule::Static, |_, _, x| x + 1);
        let (b, _) = parallel_for(3, &items, Schedule::Dynamic { chunk: 2 }, |_, _, x| x + 1);
        assert_eq!(a, b);
        assert_eq!(ra.busy.len(), 1);
        assert_eq!(ra.items, vec![100]);
    }

    #[test]
    fn every_item_processed_exactly_once() {
        let counter = AtomicUsize::new(0);
        let items = vec![(); 5_000];
        let (_, _) = parallel_for(8, &items, Schedule::Dynamic { chunk: 3 }, |_, _, _| {
            counter.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(counter.load(Ordering::Relaxed), 5_000);
    }

    #[test]
    fn worker_ctx_is_consistent() {
        // Items take ~1 ms each so spawned workers reliably join in before
        // the queue drains (a trivial body can be raced through by the
        // first worker alone).
        let items = vec![0u8; 64];
        let (ids, _) = parallel_for(4, &items, Schedule::Dynamic { chunk: 1 }, |ctx, _, _| {
            assert_eq!(ctx.n_threads, 4);
            std::thread::sleep(Duration::from_millis(1));
            ctx.thread_id
        });
        for id in &ids {
            assert!(*id < 4);
        }
        let distinct: std::collections::HashSet<_> = ids.iter().collect();
        assert!(distinct.len() >= 2, "suspiciously serial execution");
    }

    #[test]
    fn static_schedule_causes_imbalance_on_skewed_work() {
        // All the cost sits in the last quarter: static gives it to one
        // thread; dynamic spreads it.
        let items: Vec<u64> = (0..64)
            .map(|i| if i >= 48 { 400_000 } else { 100 })
            .collect();
        let spin = |n: u64| {
            let mut acc = 0u64;
            for i in 0..n {
                acc = acc.wrapping_add(i).rotate_left(1);
            }
            acc
        };
        let (_, stat) = parallel_for(4, &items, Schedule::Static, |_, _, &n| spin(n));
        let (_, dyn_) = parallel_for(4, &items, Schedule::Dynamic { chunk: 1 }, |_, _, &n| {
            spin(n)
        });
        assert!(
            stat.imbalance() > dyn_.imbalance(),
            "static {:.3} should exceed dynamic {:.3}",
            stat.imbalance(),
            dyn_.imbalance()
        );
        // The straggler under static is the thread owning the tail block.
        assert_eq!(stat.straggler(), 3);
    }

    #[test]
    fn reduce_is_deterministic_and_ordered() {
        let items: Vec<String> = (0..100).map(|i| i.to_string()).collect();
        let (joined, _) = parallel_reduce(
            4,
            &items,
            Schedule::Dynamic { chunk: 7 },
            String::new(),
            |_, _, s| s.clone(),
            |mut a, b| {
                a.push_str(&b);
                a
            },
        );
        let want: String = items.concat();
        assert_eq!(joined, want);
    }

    #[test]
    fn empty_input() {
        let items: Vec<u32> = Vec::new();
        let (out, report) = parallel_for(4, &items, Schedule::Dynamic { chunk: 1 }, |_, _, x| *x);
        assert!(out.is_empty());
        assert_eq!(report.items.iter().sum::<usize>(), 0);
    }

    #[test]
    fn supervised_contains_worker_panics() {
        let items: Vec<u32> = (0..100).collect();
        for schedule in [Schedule::Static, Schedule::Dynamic { chunk: 1 }] {
            for n_threads in [1, 4] {
                let (outcomes, _) = parallel_for_supervised(
                    n_threads,
                    &items,
                    schedule,
                    || false,
                    |_, _, &x| {
                        if x == 37 {
                            panic!("injected worker bug on {x}");
                        }
                        x * 2
                    },
                );
                assert_eq!(outcomes.len(), 100);
                for (i, o) in outcomes.into_iter().enumerate() {
                    match o {
                        ItemOutcome::Done(v) => assert_eq!(v, 2 * i as u32),
                        ItemOutcome::Panicked(msg) => {
                            assert_eq!(i, 37, "{schedule:?}/{n_threads}");
                            assert!(msg.contains("injected worker bug"), "{msg}");
                        }
                        ItemOutcome::Skipped => panic!("nothing should be skipped"),
                    }
                }
            }
        }
    }

    #[test]
    fn supervised_stop_skips_the_tail_promptly() {
        use std::sync::atomic::AtomicBool;
        let items = vec![(); 10_000];
        let fired = AtomicBool::new(false);
        let done = AtomicUsize::new(0);
        let (outcomes, _) = parallel_for_supervised(
            4,
            &items,
            Schedule::Dynamic { chunk: 1 },
            || fired.load(Ordering::Relaxed),
            |_, _, _| {
                if done.fetch_add(1, Ordering::Relaxed) >= 50 {
                    fired.store(true, Ordering::Relaxed);
                }
            },
        );
        let skipped = outcomes
            .iter()
            .filter(|o| matches!(o, ItemOutcome::Skipped))
            .count();
        assert!(skipped > 0, "stop signal must leave a skipped tail");
        assert!(
            skipped < items.len(),
            "some items ran before the signal fired"
        );
    }

    #[test]
    fn legacy_parallel_for_reraises_contained_panics() {
        let items: Vec<u32> = (0..8).collect();
        let caught = std::panic::catch_unwind(|| {
            parallel_for(2, &items, Schedule::Dynamic { chunk: 1 }, |_, _, &x| {
                if x == 5 {
                    panic!("boom");
                }
                x
            })
        });
        assert!(caught.is_err(), "unsupervised callers still see the panic");
    }

    #[test]
    fn report_metrics_sane() {
        let items = vec![1_000u64; 200];
        let (_, report) = parallel_for(4, &items, Schedule::Dynamic { chunk: 1 }, |_, _, &n| {
            let mut acc = 0u64;
            for i in 0..n {
                acc = acc.wrapping_add(i);
            }
            acc
        });
        assert!(report.imbalance() >= 1.0);
        assert_eq!(report.busy.len(), 4);
        assert!(report.wall >= *report.busy.iter().max().unwrap() / 2);
        let _ = report.barrier_waste();
        let _ = report.straggler();
    }
}
