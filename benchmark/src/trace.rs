//! In-memory spans around the calls into each layer.
//!
//! The spans are recorded from the benchmark's side of the layer
//! boundaries, kept in memory, and written out when the run ends. A layer
//! span is named `<layer>.<call>`; `rep`, `cell` and `event` are
//! structural spans that only group them. A span's self time is its
//! duration minus the time its direct children cover.

use std::time::Instant;

use crate::json::Value;
use crate::sut;

/// One closed span.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub name: &'static str,
    /// Repetition, cell and event the span belongs to: the identifiers
    /// that tie the spans of one operation together.
    pub rep: u32,
    pub cell: u32,
    pub event: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Heap allocations and bytes requested while the span was open
    /// (0 without the counting allocator).
    pub allocs: u64,
    pub alloc_bytes: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// True for a span around a call into a layer, false for `rep`,
    /// `cell` and `event`.
    pub fn is_layer(&self) -> bool {
        self.name.contains('.')
    }
}

/// Records spans, or does nothing when switched off, so that a workload
/// without a public entry point of its own runs the same code with
/// tracing on and off.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    pub rep: u32,
    pub cell: u32,
    pub event: Option<u32>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            rep: 0,
            cell: 0,
            event: None,
        }
    }

    /// Runs `f` inside a span named `name`, a child of the innermost open
    /// span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len() as u32;
        let (allocs, alloc_bytes) = sut::alloc_counters();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name,
            rep: self.rep,
            cell: self.cell,
            event: self.event,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            allocs,
            alloc_bytes,
        });
        self.open.push(id);
        let result = f(self);
        self.open.pop();
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        let (allocs, alloc_bytes) = sut::alloc_counters();
        let span = &mut self.spans[id as usize];
        span.end_ns = end_ns;
        span.allocs = allocs - span.allocs;
        span.alloc_bytes = alloc_bytes - span.alloc_bytes;
        result
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span, indexed like `spans`, or the first broken
/// rule: a parent must exist, be recorded before its child and enclose
/// it, and children may not cover more than their parent.
pub fn self_times(spans: &[Span]) -> Result<Vec<u64>, String> {
    let mut selfs: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for (i, span) in spans.iter().enumerate() {
        if span.id as usize != i || span.end_ns < span.start_ns {
            return Err(format!("span {i} ({}) is malformed", span.name));
        }
        let Some(parent) = span.parent else { continue };
        let Some(p) = spans.get(parent as usize).filter(|_| parent < span.id) else {
            return Err(format!("span {i} ({}) has no parent {parent}", span.name));
        };
        if span.start_ns < p.start_ns || span.end_ns > p.end_ns {
            return Err(format!(
                "span {i} ({}) leaves its parent {}",
                span.name, p.name
            ));
        }
        selfs[parent as usize] = selfs[parent as usize]
            .checked_sub(span.duration_ns())
            .ok_or_else(|| format!("children of span {parent} ({}) overlap", p.name))?;
    }
    Ok(selfs)
}

/// One row of the self-time table.
#[derive(Clone, Debug, PartialEq)]
pub struct SelfTimeRow {
    pub name: &'static str,
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Calls, total and self time per span name, largest self time first.
pub fn self_time_table(spans: &[Span], selfs: &[u64]) -> Vec<SelfTimeRow> {
    let mut rows: Vec<SelfTimeRow> = Vec::new();
    for (span, &self_ns) in spans.iter().zip(selfs) {
        let row = match rows.iter_mut().find(|r| r.name == span.name) {
            Some(row) => row,
            None => {
                rows.push(SelfTimeRow {
                    name: span.name,
                    calls: 0,
                    total_ns: 0,
                    self_ns: 0,
                });
                rows.last_mut().expect("just pushed")
            }
        };
        row.calls += 1;
        row.total_ns += span.duration_ns();
        row.self_ns += self_ns;
    }
    rows.sort_by(|a, b| b.self_ns.cmp(&a.self_ns).then(a.name.cmp(b.name)));
    rows
}

/// One JSON line per span, for `trace-<workload>.jsonl`.
pub fn span_json(span: &Span, workload: &str) -> Value {
    let opt = |v: Option<u32>| v.map_or(Value::Null, |v| Value::Num(f64::from(v)));
    Value::obj([
        ("id", Value::Num(f64::from(span.id))),
        ("parent", opt(span.parent)),
        ("name", Value::str(span.name)),
        ("workload", Value::str(workload)),
        ("rep", Value::Num(f64::from(span.rep))),
        ("cell", Value::Num(f64::from(span.cell))),
        ("event", opt(span.event)),
        ("start_ns", Value::Num(span.start_ns as f64)),
        ("end_ns", Value::Num(span.end_ns as f64)),
        ("allocs", Value::Num(span.allocs as f64)),
        ("alloc_bytes", Value::Num(span.alloc_bytes as f64)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name,
            rep: 0,
            cell: 0,
            event: None,
            start_ns: start,
            end_ns: end,
            allocs: 0,
            alloc_bytes: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let spans = [
            span(0, None, "rep", 0, 100),
            span(1, Some(0), "core.a", 10, 60),
            span(2, Some(1), "bgp.b", 20, 30),
            span(3, Some(0), "core.a", 60, 90),
        ];
        let selfs = self_times(&spans).unwrap();
        assert_eq!(selfs, vec![20, 40, 10, 30]);
        let table = self_time_table(&spans, &selfs);
        assert_eq!(table[0].name, "core.a");
        assert_eq!(
            (table[0].calls, table[0].total_ns, table[0].self_ns),
            (2, 80, 70)
        );
        assert_eq!(
            selfs.iter().sum::<u64>(),
            100,
            "self times partition the root"
        );
    }

    #[test]
    fn broken_span_trees_are_reported() {
        let dangling = [span(0, Some(7), "core.a", 0, 1)];
        assert!(self_times(&dangling).unwrap_err().contains("no parent"));
        let escaping = [
            span(0, None, "rep", 10, 20),
            span(1, Some(0), "core.a", 5, 15),
        ];
        assert!(self_times(&escaping)
            .unwrap_err()
            .contains("leaves its parent"));
        let overlapping = [
            span(0, None, "rep", 0, 10),
            span(1, Some(0), "core.a", 0, 8),
            span(2, Some(0), "core.b", 2, 10),
        ];
        assert!(self_times(&overlapping).unwrap_err().contains("overlap"));
    }

    #[test]
    fn tracer_nests_spans_and_is_silent_when_off() {
        let mut t = Tracer::new(true);
        t.rep = 3;
        let v = t.span("rep", |t| {
            t.event = Some(4);
            t.span("core.inner", |_| 7)
        });
        assert_eq!(v, 7);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!((spans[1].rep, spans[1].event), (3, Some(4)));
        assert!(spans[1].is_layer() && !spans[0].is_layer());
        self_times(spans).unwrap();

        let mut off = Tracer::new(false);
        assert_eq!(off.span("rep", |t| t.span("core.inner", |_| 1)), 1);
        assert!(off.spans().is_empty());
    }

    #[test]
    fn span_lines_carry_every_field() {
        let mut s = span(2, Some(1), "core.up", 5, 9);
        s.event = Some(3);
        let line = span_json(&s, "baseline_5k").to_json();
        assert_eq!(
            line,
            r#"{"id": 2, "parent": 1, "name": "core.up", "workload": "baseline_5k", "rep": 0, "cell": 0, "event": 3, "start_ns": 5, "end_ns": 9, "allocs": 0, "alloc_bytes": 0}"#
        );
    }
}
