//! In-memory span recorder for traced runs.
//!
//! A span is a timed call into one layer: its name, start and end, the span
//! that caused it, and the operation (update, batch, replay) it belongs to.
//! Spans stay in memory while the workload runs and are written out when it
//! ends, together with each layer's self time: a span's duration minus the
//! part of it its child spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

pub type SpanId = u32;

struct Span {
    name: &'static str,
    parent: Option<SpanId>,
    op: u64,
    start_ns: u64,
    end_ns: u64,
}

pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
}

/// Totals of one span name.
#[derive(Default, Clone, Copy)]
pub struct LayerTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl SpanLog {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a finished span and returns its id, for use as a parent.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        op: u64,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        let id = self.spans.len() as SpanId;
        self.spans.push(Span {
            name,
            parent,
            op,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        });
        id
    }

    /// Opens a span whose end is filled in by [`Self::close`]; children
    /// recorded in between may name it as their parent.
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>, op: u64) -> SpanId {
        let now = Instant::now();
        self.record(name, parent, op, now, now)
    }

    pub fn close(&mut self, id: SpanId) {
        let end = self.ns(Instant::now());
        self.spans[id as usize].end_ns = end;
    }

    /// Per-name totals: call count, summed duration and summed self time.
    pub fn totals(&self) -> BTreeMap<&'static str, LayerTotals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent as usize] += span.end_ns - span.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, LayerTotals> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let duration = span.end_ns - span.start_ns;
            let entry = out.entry(span.name).or_default();
            entry.count += 1;
            entry.total_ns += duration;
            entry.self_ns += duration.saturating_sub(children);
        }
        out
    }

    /// Writes a header line naming the span fields, every span as one JSON
    /// array (its id is its line's index), then one line per span name with
    /// its totals and self time, then the trace sink's event count per layer.
    pub fn write(&self, path: &Path, events: &[(String, u64)]) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            out,
            r#"{{"spans": {}, "fields": ["parent", "op", "name", "start_ns", "end_ns"]}}"#,
            self.spans.len()
        )?;
        for span in &self.spans {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                r#"[{parent},{},"{}",{},{}]"#,
                span.op, span.name, span.start_ns, span.end_ns
            )?;
        }
        for (name, t) in self.totals() {
            writeln!(
                out,
                r#"{{"layer": "{name}", "calls": {}, "total_ms": {}, "self_ms": {}}}"#,
                t.count,
                t.total_ns as f64 / 1e6,
                t.self_ns as f64 / 1e6
            )?;
        }
        for (layer, count) in events {
            writeln!(out, r#"{{"events_layer": "{layer}", "events": {count}}}"#)?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_child_spans() {
        let mut log = SpanLog::new();
        let t0 = log.origin;
        let parent = log.record("update", None, 7, t0, t0 + Duration::from_millis(10));
        log.record(
            "deliver",
            Some(parent),
            7,
            t0 + Duration::from_millis(1),
            t0 + Duration::from_millis(4),
        );
        log.record(
            "deliver",
            Some(parent),
            7,
            t0 + Duration::from_millis(5),
            t0 + Duration::from_millis(6),
        );
        let totals = log.totals();
        assert_eq!(totals["update"].self_ns, 6_000_000);
        assert_eq!(totals["deliver"].count, 2);
        assert_eq!(totals["deliver"].self_ns, 4_000_000);
        assert_eq!(totals["deliver"].total_ns, 4_000_000);
    }
}
