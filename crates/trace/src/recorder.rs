//! Span recording.

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Work categories, matching the colour legend of the paper's Figure 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Category {
    /// Exact probability computation (the pink band): the Poisson-binomial
    /// dynamic program.
    ProbCompute,
    /// The `O(d)` approximation screen (cheap, but worth seeing).
    ApproxFilter,
    /// Iterating alignment records into pileup columns (the teal band),
    /// including the record cursor's walk over decompressed blocks.
    BamIter,
    /// Reading and decompressing blocks (the light-blue band at the left
    /// of the paper's trace).
    Decompress,
    /// End-of-region barrier idleness (the dark-green band at the right).
    Barrier,
    /// VCF filtering and output.
    Filter,
    /// Anything else.
    Other,
}

impl Category {
    /// All categories, in legend order.
    pub const ALL: [Category; 7] = [
        Category::ProbCompute,
        Category::ApproxFilter,
        Category::BamIter,
        Category::Decompress,
        Category::Barrier,
        Category::Filter,
        Category::Other,
    ];

    /// One-character glyph for ASCII timelines.
    pub fn glyph(self) -> char {
        match self {
            Category::ProbCompute => 'P',
            Category::ApproxFilter => 'a',
            Category::BamIter => 'b',
            Category::Decompress => 'd',
            Category::Barrier => '=',
            Category::Filter => 'f',
            Category::Other => '.',
        }
    }

    /// Human name for summaries.
    pub fn name(self) -> &'static str {
        match self {
            Category::ProbCompute => "prob-compute",
            Category::ApproxFilter => "approx-filter",
            Category::BamIter => "bam-iter",
            Category::Decompress => "decompress",
            Category::Barrier => "barrier",
            Category::Filter => "filter",
            Category::Other => "other",
        }
    }
}

/// One recorded span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRecord {
    /// Worker thread id.
    pub thread: usize,
    /// Work category.
    pub category: Category,
    /// Offset from the recorder's epoch.
    pub start: Duration,
    /// Span duration.
    pub duration: Duration,
}

/// Shared recorder: one buffer per thread, an epoch for relative times.
#[derive(Debug, Clone)]
pub struct TraceRecorder {
    inner: Arc<Inner>,
}

#[derive(Debug)]
struct Inner {
    epoch: Instant,
    buffers: Vec<Mutex<Vec<SpanRecord>>>,
}

impl TraceRecorder {
    /// Recorder for a team of `n_threads`.
    pub fn new(n_threads: usize) -> TraceRecorder {
        assert!(n_threads > 0, "need at least one thread");
        TraceRecorder {
            inner: Arc::new(Inner {
                epoch: Instant::now(),
                buffers: (0..n_threads).map(|_| Mutex::new(Vec::new())).collect(),
            }),
        }
    }

    /// Number of thread buffers.
    pub fn n_threads(&self) -> usize {
        self.inner.buffers.len()
    }

    /// The recorder's epoch.
    pub fn epoch(&self) -> Instant {
        self.inner.epoch
    }

    /// Record a span measured by the caller.
    pub fn record(&self, thread: usize, category: Category, start: Instant, end: Instant) {
        let rec = SpanRecord {
            thread,
            category,
            start: start.saturating_duration_since(self.inner.epoch),
            duration: end.saturating_duration_since(start),
        };
        self.inner.buffers[thread].lock().push(rec);
    }

    /// RAII guard: the span runs from construction to drop.
    pub fn span(&self, thread: usize, category: Category) -> SpanGuard<'_> {
        SpanGuard {
            recorder: self,
            thread,
            category,
            start: Instant::now(),
        }
    }

    /// Drain all spans, sorted by start time.
    pub fn finish(&self) -> Vec<SpanRecord> {
        let mut all = Vec::new();
        for buf in &self.inner.buffers {
            all.extend(buf.lock().drain(..));
        }
        all.sort_by_key(|s| s.start);
        all
    }
}

/// RAII span guard produced by [`TraceRecorder::span`].
pub struct SpanGuard<'a> {
    recorder: &'a TraceRecorder,
    thread: usize,
    category: Category,
    start: Instant,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        self.recorder
            .record(self.thread, self.category, self.start, Instant::now());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_finish() {
        let rec = TraceRecorder::new(2);
        let e = rec.epoch();
        rec.record(
            0,
            Category::BamIter,
            e + Duration::from_millis(1),
            e + Duration::from_millis(3),
        );
        rec.record(1, Category::ProbCompute, e, e + Duration::from_millis(2));
        let spans = rec.finish();
        assert_eq!(spans.len(), 2);
        // Sorted by start: thread 1 first.
        assert_eq!(spans[0].thread, 1);
        assert_eq!(spans[0].duration, Duration::from_millis(2));
        assert_eq!(spans[1].category, Category::BamIter);
        assert_eq!(spans[1].start, Duration::from_millis(1));
    }

    #[test]
    fn guard_measures_elapsed() {
        let rec = TraceRecorder::new(1);
        {
            let _g = rec.span(0, Category::Filter);
            std::thread::sleep(Duration::from_millis(5));
        }
        let spans = rec.finish();
        assert_eq!(spans.len(), 1);
        assert!(spans[0].duration >= Duration::from_millis(4));
        assert_eq!(spans[0].category, Category::Filter);
    }

    #[test]
    fn finish_drains() {
        let rec = TraceRecorder::new(1);
        drop(rec.span(0, Category::Other));
        assert_eq!(rec.finish().len(), 1);
        assert!(rec.finish().is_empty());
    }

    #[test]
    fn concurrent_recording() {
        let rec = TraceRecorder::new(4);
        crossbeam_scope(|scope| {
            for t in 0..4 {
                let rec = rec.clone();
                scope.push(std::thread::spawn(move || {
                    for _ in 0..100 {
                        drop(rec.span(t, Category::ProbCompute));
                    }
                }));
            }
        });
        assert_eq!(rec.finish().len(), 400);
    }

    // Minimal join-all helper to avoid a dev-dependency on crossbeam here.
    fn crossbeam_scope(f: impl FnOnce(&mut Vec<std::thread::JoinHandle<()>>)) {
        let mut handles = Vec::new();
        f(&mut handles);
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn glyphs_are_distinct() {
        let glyphs: std::collections::HashSet<char> =
            Category::ALL.iter().map(|c| c.glyph()).collect();
        assert_eq!(glyphs.len(), Category::ALL.len());
    }
}
