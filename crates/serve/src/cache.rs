//! The per-file call-result cache.
//!
//! Keyed on `(sample, file identity, region)`, where file identity is
//! the on-disk [`FileFingerprint`] (length + mtime, re-probed every
//! request) plus the parsed [`content_id`](ultravc_bamlite::BalFile::content_id)
//! — so a rewritten file can never serve stale results: its fingerprint
//! differs, the old entries become unreachable, and the server drops
//! them explicitly when it rebuilds the sample's session.
//!
//! Only **complete** outcomes are cached. A partial result (deadline,
//! disconnect, contained worker failure) reflects one request's budget,
//! not the file's content, and must never be replayed to a healthier
//! request. Post-filter knobs (`min-af`) are applied at render time, so
//! they are deliberately *not* part of the key — one entry serves every
//! threshold.
//!
//! Eviction is least-recently-used by a monotonic touch tick, scanned
//! linearly on insert — capacities are tens of entries, not millions,
//! so an O(n) evict beats maintaining an ordered structure.
//!
//! Admission and eviction are **cost-aware**: every entry carries the
//! request's up-front cost estimate (records its span covers — the same
//! estimate the scheduler prices jobs with), and the cache holds a cost
//! budget alongside its entry capacity. An entry costlier than half the
//! budget is refused outright (`oversize`), and inserts evict LRU
//! entries until both the entry capacity and the cost budget hold — so
//! one whale span can displace at most its own cost's worth of entries,
//! never the whole working set of hot small spans.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use ultravc_bamlite::FileFingerprint;
use ultravc_core::CallStats;
use ultravc_vcf::VcfRecord;

/// Cache key: which sample file (by identity, not path) and which
/// column range produced the records.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Sample name the request addressed.
    pub sample: String,
    /// On-disk identity at probe time.
    pub fingerprint: FileFingerprint,
    /// Parsed-structure identity ([`ultravc_bamlite::BalFile::content_id`]).
    pub content: u64,
    /// Region start (0-based).
    pub start: u32,
    /// Region end (exclusive).
    pub end: u32,
}

/// A cached complete call result: the driver's filtered records and
/// decision counters, shared by `Arc` so cache hits clone nothing.
#[derive(Debug)]
pub struct CachedCall {
    /// Filtered records for the region.
    pub records: Vec<VcfRecord>,
    /// Decision-path counters for the region.
    pub stats: CallStats,
}

struct Slot {
    value: Arc<CachedCall>,
    last_used: u64,
    cost: u64,
}

#[derive(Default)]
struct CacheState {
    map: HashMap<CacheKey, Slot>,
    tick: u64,
    hits: u64,
    misses: u64,
    invalidated: u64,
    total_cost: u64,
    oversize: u64,
    evicted: u64,
}

/// Point-in-time cache counters for `/stats` and tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that missed (including while disabled).
    pub misses: u64,
    /// Entries dropped by invalidation (not eviction).
    pub invalidated: u64,
    /// Live entries.
    pub entries: usize,
    /// Summed cost of live entries.
    pub total_cost: u64,
    /// Inserts refused because one entry exceeded half the cost budget.
    pub oversize: u64,
    /// Entries dropped by LRU eviction (capacity or cost pressure).
    pub evicted: u64,
}

/// The result cache. Capacity 0 disables it (every lookup misses,
/// inserts are dropped) — the same code path, just nothing retained.
pub struct ResultCache {
    inner: Mutex<CacheState>,
    capacity: usize,
    /// Cost budget over live entries; 0 = unlimited (entry-count LRU
    /// only).
    cost_budget: u64,
}

impl ResultCache {
    /// A cache holding at most `capacity` results with no cost budget.
    pub fn new(capacity: usize) -> ResultCache {
        ResultCache::with_cost_budget(capacity, 0)
    }

    /// A cache bounded by both `capacity` entries and `cost_budget`
    /// summed entry cost (0 = cost accounting off). Entries costlier
    /// than `cost_budget / 2` are never admitted.
    pub fn with_cost_budget(capacity: usize, cost_budget: u64) -> ResultCache {
        ResultCache {
            inner: Mutex::new(CacheState::default()),
            capacity,
            cost_budget,
        }
    }

    fn lock(&self) -> MutexGuard<'_, CacheState> {
        // A panic while holding the lock leaves only per-entry state;
        // every entry is immutable once inserted, so recovery is safe.
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Look up a complete result, refreshing its recency on hit.
    pub fn get(&self, key: &CacheKey) -> Option<Arc<CachedCall>> {
        let mut state = self.lock();
        state.tick += 1;
        let tick = state.tick;
        match state.map.get_mut(key) {
            Some(slot) => {
                slot.last_used = tick;
                let value = Arc::clone(&slot.value);
                state.hits += 1;
                Some(value)
            }
            None => {
                state.misses += 1;
                None
            }
        }
    }

    /// Insert a complete result at `cost`, evicting least-recently-used
    /// entries until both the entry capacity and the cost budget hold.
    /// An entry costlier than half the cost budget is refused — one
    /// whale span must not displace the hot small working set. No-op
    /// when the cache is disabled.
    pub fn insert(&self, key: CacheKey, value: Arc<CachedCall>, cost: u64) {
        if self.capacity == 0 {
            return;
        }
        let mut state = self.lock();
        if self.cost_budget > 0 && cost > self.cost_budget / 2 {
            state.oversize += 1;
            return;
        }
        state.tick += 1;
        let tick = state.tick;
        // Replacing an entry releases its cost before the fit check.
        if let Some(old) = state.map.remove(&key) {
            state.total_cost = state.total_cost.saturating_sub(old.cost);
        }
        while state.map.len() >= self.capacity
            || (self.cost_budget > 0 && state.total_cost.saturating_add(cost) > self.cost_budget)
        {
            let Some(oldest) = state
                .map
                .iter()
                .min_by_key(|(_, slot)| slot.last_used)
                .map(|(k, _)| k.clone())
            else {
                break;
            };
            if let Some(slot) = state.map.remove(&oldest) {
                state.total_cost = state.total_cost.saturating_sub(slot.cost);
                state.evicted += 1;
            }
        }
        state.total_cost = state.total_cost.saturating_add(cost);
        state.map.insert(
            key,
            Slot {
                value,
                last_used: tick,
                cost,
            },
        );
    }

    /// Drop every entry for `sample` (its file was rewritten). Returns
    /// how many entries were dropped.
    pub fn invalidate_sample(&self, sample: &str) -> usize {
        let mut state = self.lock();
        let before = state.map.len();
        let mut freed = 0u64;
        state.map.retain(|k, slot| {
            let keep = k.sample != sample;
            if !keep {
                freed += slot.cost;
            }
            keep
        });
        let dropped = before - state.map.len();
        state.invalidated += dropped as u64;
        state.total_cost = state.total_cost.saturating_sub(freed);
        dropped
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        let state = self.lock();
        CacheStats {
            hits: state.hits,
            misses: state.misses,
            invalidated: state.invalidated,
            entries: state.map.len(),
            total_cost: state.total_cost,
            oversize: state.oversize,
            evicted: state.evicted,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(sample: &str, start: u32) -> CacheKey {
        CacheKey {
            sample: sample.to_string(),
            fingerprint: FileFingerprint {
                len: 100,
                modified: None,
            },
            content: 7,
            start,
            end: start + 10,
        }
    }

    fn value() -> Arc<CachedCall> {
        Arc::new(CachedCall {
            records: Vec::new(),
            stats: CallStats::default(),
        })
    }

    #[test]
    fn hit_miss_and_counters() {
        let cache = ResultCache::new(4);
        assert!(cache.get(&key("a", 0)).is_none());
        cache.insert(key("a", 0), value(), 1);
        assert!(cache.get(&key("a", 0)).is_some());
        // Different fingerprint ⇒ different key ⇒ miss.
        let mut rewritten = key("a", 0);
        rewritten.fingerprint.len = 101;
        assert!(cache.get(&rewritten).is_none());
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 2, 1));
    }

    #[test]
    fn lru_eviction_by_recency() {
        let cache = ResultCache::new(2);
        cache.insert(key("a", 0), value(), 1);
        cache.insert(key("a", 10), value(), 1);
        // Touch the first so the second is the LRU.
        assert!(cache.get(&key("a", 0)).is_some());
        cache.insert(key("a", 20), value(), 1);
        assert!(cache.get(&key("a", 0)).is_some(), "recently used survives");
        assert!(cache.get(&key("a", 10)).is_none(), "LRU evicted");
        assert!(cache.get(&key("a", 20)).is_some());
        assert_eq!(cache.stats().entries, 2);
    }

    #[test]
    fn sample_invalidation_is_scoped() {
        let cache = ResultCache::new(8);
        cache.insert(key("a", 0), value(), 3);
        cache.insert(key("a", 10), value(), 3);
        cache.insert(key("b", 0), value(), 3);
        assert_eq!(cache.invalidate_sample("a"), 2);
        assert!(cache.get(&key("a", 0)).is_none());
        assert!(cache.get(&key("b", 0)).is_some());
        let stats = cache.stats();
        assert_eq!(stats.invalidated, 2);
        assert_eq!(stats.total_cost, 3, "invalidation releases entry cost");
    }

    #[test]
    fn zero_capacity_disables() {
        let cache = ResultCache::new(0);
        cache.insert(key("a", 0), value(), 1);
        assert!(cache.get(&key("a", 0)).is_none());
        assert_eq!(cache.stats().entries, 0);
    }

    #[test]
    fn oversize_whales_are_refused_not_admitted() {
        let cache = ResultCache::with_cost_budget(8, 100);
        // Fill with hot small entries.
        for i in 0..4 {
            cache.insert(key("a", i * 10), value(), 10);
        }
        // A whale over half the budget is refused — every small entry
        // survives.
        cache.insert(key("a", 1000), value(), 60);
        assert!(cache.get(&key("a", 1000)).is_none());
        for i in 0..4 {
            assert!(cache.get(&key("a", i * 10)).is_some(), "entry {i} evicted");
        }
        let stats = cache.stats();
        assert_eq!((stats.oversize, stats.evicted, stats.entries), (1, 0, 4));
    }

    #[test]
    fn cost_pressure_evicts_lru_until_the_budget_holds() {
        let cache = ResultCache::with_cost_budget(100, 100);
        cache.insert(key("a", 0), value(), 40);
        cache.insert(key("a", 10), value(), 40);
        // Touch the first so the second is LRU, then insert a mid-size
        // entry: exactly one eviction makes it fit (40 + 30 ≤ 100).
        assert!(cache.get(&key("a", 0)).is_some());
        cache.insert(key("a", 20), value(), 30);
        assert!(cache.get(&key("a", 0)).is_some());
        assert!(cache.get(&key("a", 10)).is_none(), "LRU paid the cost");
        assert!(cache.get(&key("a", 20)).is_some());
        let stats = cache.stats();
        assert_eq!((stats.evicted, stats.total_cost), (1, 70));
    }

    #[test]
    fn replacing_an_entry_releases_its_cost_first() {
        let cache = ResultCache::with_cost_budget(8, 100);
        cache.insert(key("a", 0), value(), 45);
        cache.insert(key("a", 10), value(), 45);
        // Re-inserting key 0 at a new cost must not evict key 10:
        // the old 45 is released before the fit check (45 → 50).
        cache.insert(key("a", 0), value(), 50);
        assert!(cache.get(&key("a", 0)).is_some());
        assert!(cache.get(&key("a", 10)).is_some());
        assert_eq!(cache.stats().total_cost, 95);
    }
}
