//! Loop schedules, mirroring OpenMP's `schedule()` clause.

use std::sync::atomic::{AtomicUsize, Ordering};

/// How loop iterations are handed to worker threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Schedule {
    /// Contiguous equal blocks fixed up-front (OpenMP `static`). Zero
    /// scheduling overhead; worst-case imbalance when work per item varies —
    /// this is effectively what LoFreq's partition script did across
    /// processes.
    Static,
    /// Workers repeatedly grab the next `chunk` items from a shared counter
    /// (OpenMP `dynamic,chunk`). The paper's choice: high-cost columns
    /// (dense variant neighbourhoods) stop stalling whole partitions.
    Dynamic {
        /// Items claimed per grab. 1 maximizes balance, larger amortizes
        /// the atomic traffic.
        chunk: usize,
    },
}

impl Default for Schedule {
    fn default() -> Self {
        Schedule::Dynamic { chunk: 1 }
    }
}

/// A claim of loop iterations `[start, end)`.
pub type Claim = std::ops::Range<usize>;

/// Shared iteration dispenser implementing both schedules.
#[derive(Debug)]
pub struct Dispenser {
    n_items: usize,
    n_threads: usize,
    schedule: Schedule,
    cursor: AtomicUsize,
}

impl Dispenser {
    /// Create a dispenser for `n_items` across `n_threads`.
    pub fn new(n_items: usize, n_threads: usize, schedule: Schedule) -> Dispenser {
        assert!(n_threads > 0, "need at least one thread");
        Dispenser {
            n_items,
            n_threads,
            schedule,
            cursor: AtomicUsize::new(0),
        }
    }

    /// The static block for a given thread (`None` for non-static
    /// schedules' callers, and for threads with no work).
    pub fn static_block(&self, thread_id: usize) -> Option<Claim> {
        debug_assert!(matches!(self.schedule, Schedule::Static));
        let n = self.n_items;
        let t = self.n_threads;
        let base = n / t;
        let extra = n % t;
        let start = thread_id * base + thread_id.min(extra);
        let size = base + usize::from(thread_id < extra);
        if size == 0 {
            return None;
        }
        Some(start..start + size)
    }

    /// Claim the next batch of iterations; `None` when the loop is drained.
    pub fn claim(&self) -> Option<Claim> {
        match self.schedule {
            Schedule::Static => unreachable!("static workers use static_block"),
            Schedule::Dynamic { chunk } => {
                let chunk = chunk.max(1);
                let start = self.cursor.fetch_add(chunk, Ordering::Relaxed);
                if start >= self.n_items {
                    return None;
                }
                Some(start..(start + chunk).min(self.n_items))
            }
        }
    }

    /// Whether this dispenser uses the static schedule.
    pub fn is_static(&self) -> bool {
        matches!(self.schedule, Schedule::Static)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_blocks_tile_exactly() {
        let d = Dispenser::new(10, 3, Schedule::Static);
        let blocks: Vec<Claim> = (0..3).filter_map(|t| d.static_block(t)).collect();
        assert_eq!(blocks, vec![0..4, 4..7, 7..10]);
    }

    #[test]
    fn static_more_threads_than_items() {
        let d = Dispenser::new(2, 5, Schedule::Static);
        let blocks: Vec<Option<Claim>> = (0..5).map(|t| d.static_block(t)).collect();
        assert_eq!(blocks[0], Some(0..1));
        assert_eq!(blocks[1], Some(1..2));
        assert!(blocks[2..].iter().all(|b| b.is_none()));
    }

    #[test]
    fn dynamic_claims_cover_everything_once() {
        let d = Dispenser::new(100, 4, Schedule::Dynamic { chunk: 7 });
        let mut seen = [false; 100];
        while let Some(c) = d.claim() {
            for i in c {
                assert!(!seen[i], "iteration {i} dispensed twice");
                seen[i] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn dynamic_zero_chunk_normalized() {
        let d = Dispenser::new(3, 2, Schedule::Dynamic { chunk: 0 });
        assert_eq!(d.claim(), Some(0..1));
    }

    #[test]
    fn empty_loop_dispenses_nothing() {
        let d = Dispenser::new(0, 2, Schedule::Dynamic { chunk: 3 });
        assert_eq!(d.claim(), None);
        let s = Dispenser::new(0, 2, Schedule::Static);
        assert!(s.static_block(0).is_none());
    }
}
