//! Spans recorded by the benchmark around its calls into each layer:
//! `(id, parent, name, start, end)`, kept in memory, turned into per-name
//! self times, and written as Chrome-trace JSON when asked.

use std::collections::BTreeMap;
use std::fmt::Write;
use std::time::Instant;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub name: &'static str,
    /// Nanoseconds since the recorder was made.
    pub start: u64,
    pub end: u64,
    /// Chrome-trace thread lane (the reconstruction, or a serve client).
    pub track: u32,
}

impl Span {
    pub fn duration(&self) -> u64 {
        self.end - self.start
    }
}

/// Collects spans. A disabled recorder reads no clock and stores nothing,
/// so the same loop runs untraced to price the tracing itself.
pub struct Recorder {
    base: Instant,
    enabled: bool,
    pub spans: Vec<Span>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            base: Instant::now(),
            enabled,
            spans: Vec::new(),
        }
    }

    /// The clock spans are stamped with; 0 when disabled.
    pub fn now(&self) -> u64 {
        if self.enabled {
            self.base.elapsed().as_nanos() as u64
        } else {
            0
        }
    }

    /// Store a finished span and return its id (for use as a parent).
    pub fn push(&mut self, name: &'static str, parent: Option<u32>, start: u64, end: u64) -> u32 {
        self.push_on(name, parent, start, end, 0)
    }

    pub fn push_on(
        &mut self,
        name: &'static str,
        parent: Option<u32>,
        start: u64,
        end: u64,
        track: u32,
    ) -> u32 {
        let id = self.spans.len() as u32;
        if self.enabled {
            self.spans.push(Span {
                id,
                parent,
                name,
                start,
                end,
                track,
            });
        }
        id
    }

    /// Reserve a span whose children are recorded before it ends.
    pub fn open(&mut self, name: &'static str, parent: Option<u32>) -> u32 {
        let start = self.now();
        self.push(name, parent, start, start)
    }

    pub fn close(&mut self, id: u32) {
        let end = self.now();
        if let Some(span) = self.spans.get_mut(id as usize) {
            span.end = end;
        }
    }
}

/// Self time per span name: each span's duration minus the part of it its
/// child spans cover (children clipped to the parent, overlaps between
/// siblings counted once).
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start, s.end));
        }
    }
    let mut out: BTreeMap<&'static str, u64> = BTreeMap::new();
    for s in spans {
        let mut covered = 0u64;
        if let Some(kids) = children.get_mut(&s.id) {
            kids.sort_unstable();
            let mut reach = s.start;
            for &(a, b) in kids.iter() {
                let a = a.max(reach);
                let b = b.min(s.end);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
        }
        *out.entry(s.name).or_default() += s.duration() - covered;
    }
    out
}

/// Chrome-trace ("Trace Event Format") JSON: load it in `chrome://tracing`
/// or <https://ui.perfetto.dev>.
pub fn chrome_trace(spans: &[Span]) -> String {
    let mut out = String::from("[\n");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let _ = write!(
            out,
            "{{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": {}, \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {{\"id\": {}, \"parent\": {}}}}}",
            s.name,
            s.track,
            s.start as f64 / 1e3,
            s.duration() as f64 / 1e3,
            s.id,
            s.parent.map_or("null".to_string(), |p| p.to_string()),
        );
    }
    out.push_str("\n]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Value};

    fn span(id: u32, parent: Option<u32>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name,
            start,
            end,
            track: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_adjacent_children() {
        let spans = [
            span(0, None, "call", 0, 100),
            // adjacent children
            span(1, Some(0), "pileup.next", 10, 30),
            span(2, Some(0), "core.test", 30, 50),
            // a child with its own child
            span(3, Some(0), "vcf.write", 60, 90),
            span(4, Some(3), "fs.write", 70, 80),
        ];
        let t = self_times(&spans);
        assert_eq!(t["call"], 100 - 20 - 20 - 30);
        assert_eq!(t["pileup.next"], 20);
        assert_eq!(t["core.test"], 20);
        assert_eq!(t["vcf.write"], 20);
        assert_eq!(t["fs.write"], 10);
        assert_eq!(t.values().sum::<u64>(), 100, "self times sum to the root");
    }

    #[test]
    fn overlapping_and_overhanging_children_are_counted_once() {
        let spans = [
            span(0, None, "root", 10, 50),
            span(1, Some(0), "a", 0, 30),
            span(2, Some(0), "a", 20, 40),
            span(3, Some(0), "b", 45, 70),
        ];
        // Covered: [10,30) + [30,40) + [45,50) = 35 of 40.
        assert_eq!(self_times(&spans)["root"], 5);
    }

    #[test]
    fn disabled_recorder_stores_nothing() {
        let mut off = Recorder::new(false);
        let root = off.open("call", None);
        off.push("x", Some(root), off.now(), off.now());
        off.close(root);
        assert!(off.spans.is_empty());

        let mut on = Recorder::new(true);
        let root = on.open("call", None);
        let t0 = on.now();
        let kid = on.push("x", Some(root), t0, on.now());
        on.close(root);
        assert_eq!((root, kid), (0, 1));
        assert_eq!(on.spans[1].parent, Some(0));
        assert!(on.spans[0].end >= on.spans[1].end);
    }

    #[test]
    fn chrome_trace_is_json() {
        let spans = [
            span(0, None, "call", 0, 2_500),
            span(1, Some(0), "core.test", 500, 1_500),
        ];
        let doc = parse(&chrome_trace(&spans)).expect("valid JSON");
        let events = doc.as_array().expect("array");
        assert_eq!(events.len(), 2);
        assert_eq!(events[1].get("dur").and_then(Value::as_f64), Some(1.0));
        assert_eq!(
            events[1].get("args").and_then(|a| a.get("parent")),
            Some(&Value::Num(0.0))
        );
    }
}
