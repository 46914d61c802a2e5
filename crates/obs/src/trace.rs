//! Structured event tracing: per-event JSONL records with sampling.
//!
//! A [`TraceBuffer`] collects [`TraceRecord`]s in memory during a
//! simulation (the parallel harness needs buffering so that per-event
//! traces can be concatenated in event-index order — streaming straight
//! from worker threads would interleave nondeterministically); a
//! [`TraceWriter`] then streams any iterator of records to an
//! `io::Write` as one JSON object per line.
//!
//! Records are integer-only and carry the C-event index, so a trace file
//! is byte-identical across `--jobs` levels, same as `metrics.json`.

use std::io::{self, Write};

use crate::json::{Layout, Value};
use crate::observer::EventKind;

/// One traced simulator event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceRecord {
    /// C-event index within the experiment (0 for standalone runs).
    pub event: u32,
    /// Simulated time in microseconds.
    pub t_us: u64,
    /// The node at which the event happened (receiver for deliveries).
    pub node: u32,
    /// What happened.
    pub kind: EventKind,
    /// The prefix involved, when the event carries one.
    pub prefix: Option<u32>,
    /// AS-path length of a delivered announcement.
    pub path_len: Option<u32>,
    /// Primary (lowest) root-cause id of a stamped delivery.
    pub root: Option<u32>,
    /// Causal depth of a stamped delivery.
    pub depth: Option<u32>,
}

impl TraceRecord {
    /// Renders the record as one JSON line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        let required = [
            ("event", self.event.into()),
            ("t_us", self.t_us.into()),
            ("node", self.node.into()),
            ("kind", self.kind.name().into()),
        ];
        let optional = [
            ("prefix", self.prefix),
            ("path_len", self.path_len),
            ("root", self.root),
            ("depth", self.depth),
        ];
        let present = optional.into_iter().filter_map(|(key, v)| Some((key, v?.into())));
        Value::obj(Layout::Compact, required.into_iter().chain(present)).to_json()
    }
}

/// An in-memory trace collector with 1-in-N sampling.
///
/// Sampling counts *traceable* hook firings (deliveries, MRAI flushes,
/// decision runs) with a per-buffer counter, so which events are kept is
/// a pure function of the simulation — not of wall clock or scheduling.
#[derive(Clone, Debug)]
pub struct TraceBuffer {
    /// The C-event index stamped into every record.
    event: u32,
    /// Keep every `sample_every`-th record; 1 = keep everything.
    sample_every: u64,
    seen: u64,
    records: Vec<TraceRecord>,
}

impl TraceBuffer {
    /// Creates a buffer for C-event `event`, keeping one record per
    /// `sample_every` candidates (`sample_every` is clamped to ≥ 1).
    pub fn new(event: u32, sample_every: u64) -> TraceBuffer {
        TraceBuffer {
            event,
            sample_every: sample_every.max(1),
            seen: 0,
            records: Vec::new(),
        }
    }

    /// Offers a record; it is kept if the sampling counter selects it.
    /// The first candidate is always kept (so short runs are never
    /// invisible), then every `sample_every`-th one after it.
    #[inline]
    pub fn offer(&mut self, make: impl FnOnce(u32) -> TraceRecord) {
        if self.seen.is_multiple_of(self.sample_every) {
            self.records.push(make(self.event));
        }
        self.seen += 1;
    }

    /// Candidates offered so far (kept + skipped).
    pub fn offered(&self) -> u64 {
        self.seen
    }

    /// The records kept so far, in simulation order.
    pub fn records(&self) -> &[TraceRecord] {
        &self.records
    }

    /// Consumes the buffer, returning its records.
    pub fn into_records(self) -> Vec<TraceRecord> {
        self.records
    }
}

/// Streams trace records as JSONL.
pub struct TraceWriter<W: Write> {
    out: W,
    written: u64,
}

impl<W: Write> TraceWriter<W> {
    /// Wraps a sink.
    pub fn new(out: W) -> TraceWriter<W> {
        TraceWriter { out, written: 0 }
    }

    /// Writes the schema-version header line. Call once, before any
    /// records, when the sink is a persisted artifact: the workspace
    /// artifact contract (det's artifact-contract pass) requires
    /// every written file to carry its schema version. The header does
    /// not count toward [`TraceWriter::written`].
    pub fn write_header(&mut self) -> io::Result<()> {
        let header = [("schema_version", crate::SCHEMA_VERSION.into()), ("kind", "trace".into())];
        self.out.write_all((Value::obj(Layout::Compact, header).to_json() + "\n").as_bytes())
    }

    /// Writes one record as a line.
    pub fn write_record(&mut self, r: &TraceRecord) -> io::Result<()> {
        self.out.write_all(r.to_json_line().as_bytes())?;
        self.out.write_all(b"\n")?;
        self.written += 1;
        Ok(())
    }

    /// Writes every record of an iterator.
    pub fn write_all<'a>(
        &mut self,
        records: impl IntoIterator<Item = &'a TraceRecord>,
    ) -> io::Result<()> {
        for r in records {
            self.write_record(r)?;
        }
        Ok(())
    }

    /// Lines written so far.
    pub fn written(&self) -> u64 {
        self.written
    }

    /// Flushes and returns the sink.
    pub fn finish(mut self) -> io::Result<W> {
        self.out.flush()?;
        Ok(self.out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(t: u64) -> TraceRecord {
        TraceRecord {
            event: 3,
            t_us: t,
            node: 7,
            kind: EventKind::Deliver,
            prefix: Some(1),
            path_len: Some(4),
            root: Some(2),
            depth: Some(5),
        }
    }

    #[test]
    fn json_line_includes_optional_fields_only_when_present() {
        let full = rec(10).to_json_line();
        assert_eq!(
            full,
            "{\"event\":3,\"t_us\":10,\"node\":7,\"kind\":\"deliver\",\"prefix\":1,\
             \"path_len\":4,\"root\":2,\"depth\":5}"
        );
        let bare = TraceRecord {
            prefix: None,
            path_len: None,
            root: None,
            depth: None,
            kind: EventKind::MraiExpire,
            ..rec(10)
        }
        .to_json_line();
        assert_eq!(bare, "{\"event\":3,\"t_us\":10,\"node\":7,\"kind\":\"mrai_expire\"}");
    }

    #[test]
    fn sampling_keeps_first_then_every_nth() {
        let mut b = TraceBuffer::new(0, 3);
        for t in 0..10u64 {
            b.offer(|event| TraceRecord { event, ..rec(t) });
        }
        let kept: Vec<u64> = b.records().iter().map(|r| r.t_us).collect();
        assert_eq!(kept, vec![0, 3, 6, 9]);
        assert_eq!(b.offered(), 10);
    }

    #[test]
    fn sample_every_zero_means_keep_all() {
        let mut b = TraceBuffer::new(0, 0);
        for t in 0..5u64 {
            b.offer(|event| TraceRecord { event, ..rec(t) });
        }
        assert_eq!(b.records().len(), 5);
    }

    #[test]
    fn writer_streams_jsonl() {
        let mut w = TraceWriter::new(Vec::new());
        let records = [rec(1), rec(2)];
        w.write_all(&records).unwrap();
        assert_eq!(w.written(), 2);
        let bytes = w.finish().unwrap();
        let text = String::from_utf8(bytes).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert!(text.ends_with('\n'));
    }

    #[test]
    fn header_is_stamped_and_uncounted() {
        let mut w = TraceWriter::new(Vec::new());
        w.write_header().unwrap();
        w.write_record(&rec(1)).unwrap();
        assert_eq!(w.written(), 1, "the header is not a record");
        let text = String::from_utf8(w.finish().unwrap()).unwrap();
        let first = text.lines().next().unwrap();
        assert_eq!(
            first,
            format!("{{\"schema_version\":{},\"kind\":\"trace\"}}", crate::SCHEMA_VERSION)
        );
    }
}
