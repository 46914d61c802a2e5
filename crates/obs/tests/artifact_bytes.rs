//! Byte pins for every JSON artifact `obs` writes, on fixed inputs.
//!
//! Each expected string was produced by the hand-rolled writers these
//! artifacts had before they shared one JSON writer, and is never edited
//! to follow a writer: `metrics.json`, `costmodel.json`, `timeseries.json`,
//! trace lines and run-ledger lines are hashed into the ledger and
//! compared across revisions, so a byte that moves here is a format
//! change, not a refactor.

use bgpscale_obs::costmodel::OpCounts;
use bgpscale_obs::ledger::{parse_line, LedgerRecord, WallSide};
use bgpscale_obs::provenance::RootCauseKind;
use bgpscale_topology::ByKey;
use bgpscale_obs::{
    trace, CostModel, EventKind, Histogram, MetricsRegistry, RootRecord, TimeSeries, TraceRecord,
    TsBin,
};

/// Class `i` (canonical order) holds `base + i`.
fn ops(base: u64) -> OpCounts {
    let mut fields = OpCounts::default().fields();
    for (i, (_, value)) in fields.iter_mut().enumerate() {
        *value = base + i as u64;
    }
    OpCounts::from_fields(&fields)
}

fn cost_model() -> CostModel {
    let mut model = CostModel::new();
    model.push_event([ops(1), ops(100), ops(10_000)]);
    model.push_event([ops(2), ops(200), ops(20_000)]);
    model
}

fn registry() -> MetricsRegistry {
    let mut r = MetricsRegistry::new();
    r.inc("events.total", 42);
    r.inc("a.first", 1);
    r.set_gauge("queue.depth", 7);
    r.set_gauge("queue.depth", 3);
    r.set_gauge("inbox.depth", 5);
    let mut path_len = Histogram::new(&[1, 4, 16]);
    for value in [2, 99, 1] {
        path_len.observe(value);
    }
    r.insert_histogram("path_len", &path_len);
    r
}

fn series() -> TimeSeries {
    let mut ts = TimeSeries::new(100_000);
    ts.events = 2;
    ts.bins = vec![
        TsBin {
            by_rel: ByKey([1, 2, 3]),
            by_type: ByKey([4, 5, 6, 7]),
            announces: 15,
            withdraws: 7,
            mrai_armed_peak: 9,
            inbox_peak: 2,
        },
        TsBin {
            by_rel: ByKey([0, 0, 8]),
            by_type: ByKey([0, 1, 0, 7]),
            announces: 0,
            withdraws: 8,
            mrai_armed_peak: 0,
            inbox_peak: 11,
        },
    ];
    // Buckets 1, 2, …, 7 deep over [0, 1, 2, 4, 8, 16, 32] and 2 in the
    // overflow, 30 stamped updates; the deepest is 40.
    let depths = [(0, 1), (1, 2), (2, 3), (4, 4), (8, 5), (16, 6), (32, 7), (33, 1), (40, 1)];
    for (depth, n) in depths {
        ts.depth.observe_n(depth, n);
    }
    ts.unstamped = 0;
    ts.coalesced = 3;
    ts.roots = vec![
        RootRecord {
            event: 0,
            root: 0,
            kind: RootCauseKind::WithdrawOrigin,
            node: 12,
            start_us: 0,
            last_update_us: 150_000,
            updates: 22,
        },
        RootRecord {
            event: 1,
            root: 0,
            kind: RootCauseKind::Originate,
            node: 12,
            start_us: 5,
            last_update_us: 5,
            updates: 0,
        },
    ];
    ts
}

fn trace_record() -> TraceRecord {
    TraceRecord {
        event: 3,
        t_us: 1_000_123,
        node: 77,
        kind: EventKind::Deliver,
        prefix: Some(0),
        path_len: Some(4),
        root: Some(2),
        depth: Some(5),
    }
}

fn ledger_record() -> LedgerRecord {
    LedgerRecord {
        git_rev: "0123456789abcdef0123456789abcdef01234567".to_string(),
        scenario: "DENSE-CORE".to_string(),
        n: 600,
        mode: "WRATE".to_string(),
        seed: 0x2008_0612,
        events: 5,
        ops: ops(1_000),
        costmodel: 0x1234_5678_9ABC_DEF0,
        wall: WallSide {
            wall_us: 1_234_567,
            jobs: 4,
            peak_rss_bytes: Some(20 << 20),
        },
    }
}

const COSTMODEL: &str = r#"{
  "schema_version": 3,
  "events": 2,
  "phases": ["warmup", "down", "up"],
  "total": {"queue_pushes": 30303, "queue_pops": 30309, "queue_decreases": 30315, "queue_comparisons": 30321, "decision_runs": 30327, "route_comparisons": 30333, "rib_out_writes": 30339, "path_intern_hits": 30345, "path_intern_misses": 30351, "deliveries": 30357, "mrai_armed": 30363, "mrai_fired": 30369, "mrai_coalesced": 30375, "queue_cascades": 30381, "arena_bytes_reserved": 30387},
  "phase_totals": [
    {"queue_pushes": 3, "queue_pops": 5, "queue_decreases": 7, "queue_comparisons": 9, "decision_runs": 11, "route_comparisons": 13, "rib_out_writes": 15, "path_intern_hits": 17, "path_intern_misses": 19, "deliveries": 21, "mrai_armed": 23, "mrai_fired": 25, "mrai_coalesced": 27, "queue_cascades": 29, "arena_bytes_reserved": 31},
    {"queue_pushes": 300, "queue_pops": 302, "queue_decreases": 304, "queue_comparisons": 306, "decision_runs": 308, "route_comparisons": 310, "rib_out_writes": 312, "path_intern_hits": 314, "path_intern_misses": 316, "deliveries": 318, "mrai_armed": 320, "mrai_fired": 322, "mrai_coalesced": 324, "queue_cascades": 326, "arena_bytes_reserved": 328},
    {"queue_pushes": 30000, "queue_pops": 30002, "queue_decreases": 30004, "queue_comparisons": 30006, "decision_runs": 30008, "route_comparisons": 30010, "rib_out_writes": 30012, "path_intern_hits": 30014, "path_intern_misses": 30016, "deliveries": 30018, "mrai_armed": 30020, "mrai_fired": 30022, "mrai_coalesced": 30024, "queue_cascades": 30026, "arena_bytes_reserved": 30028}
  ],
  "per_event": [
    { "event": 0, "phases": [{"queue_pushes": 1, "queue_pops": 2, "queue_decreases": 3, "queue_comparisons": 4, "decision_runs": 5, "route_comparisons": 6, "rib_out_writes": 7, "path_intern_hits": 8, "path_intern_misses": 9, "deliveries": 10, "mrai_armed": 11, "mrai_fired": 12, "mrai_coalesced": 13, "queue_cascades": 14, "arena_bytes_reserved": 15}, {"queue_pushes": 100, "queue_pops": 101, "queue_decreases": 102, "queue_comparisons": 103, "decision_runs": 104, "route_comparisons": 105, "rib_out_writes": 106, "path_intern_hits": 107, "path_intern_misses": 108, "deliveries": 109, "mrai_armed": 110, "mrai_fired": 111, "mrai_coalesced": 112, "queue_cascades": 113, "arena_bytes_reserved": 114}, {"queue_pushes": 10000, "queue_pops": 10001, "queue_decreases": 10002, "queue_comparisons": 10003, "decision_runs": 10004, "route_comparisons": 10005, "rib_out_writes": 10006, "path_intern_hits": 10007, "path_intern_misses": 10008, "deliveries": 10009, "mrai_armed": 10010, "mrai_fired": 10011, "mrai_coalesced": 10012, "queue_cascades": 10013, "arena_bytes_reserved": 10014}] },
    { "event": 1, "phases": [{"queue_pushes": 2, "queue_pops": 3, "queue_decreases": 4, "queue_comparisons": 5, "decision_runs": 6, "route_comparisons": 7, "rib_out_writes": 8, "path_intern_hits": 9, "path_intern_misses": 10, "deliveries": 11, "mrai_armed": 12, "mrai_fired": 13, "mrai_coalesced": 14, "queue_cascades": 15, "arena_bytes_reserved": 16}, {"queue_pushes": 200, "queue_pops": 201, "queue_decreases": 202, "queue_comparisons": 203, "decision_runs": 204, "route_comparisons": 205, "rib_out_writes": 206, "path_intern_hits": 207, "path_intern_misses": 208, "deliveries": 209, "mrai_armed": 210, "mrai_fired": 211, "mrai_coalesced": 212, "queue_cascades": 213, "arena_bytes_reserved": 214}, {"queue_pushes": 20000, "queue_pops": 20001, "queue_decreases": 20002, "queue_comparisons": 20003, "decision_runs": 20004, "route_comparisons": 20005, "rib_out_writes": 20006, "path_intern_hits": 20007, "path_intern_misses": 20008, "deliveries": 20009, "mrai_armed": 20010, "mrai_fired": 20011, "mrai_coalesced": 20012, "queue_cascades": 20013, "arena_bytes_reserved": 20014}] }
  ]
}
"#;

const COSTMODEL_EMPTY: &str = r#"{
  "schema_version": 3,
  "events": 0,
  "phases": ["warmup", "down", "up"],
  "total": {"queue_pushes": 0, "queue_pops": 0, "queue_decreases": 0, "queue_comparisons": 0, "decision_runs": 0, "route_comparisons": 0, "rib_out_writes": 0, "path_intern_hits": 0, "path_intern_misses": 0, "deliveries": 0, "mrai_armed": 0, "mrai_fired": 0, "mrai_coalesced": 0, "queue_cascades": 0, "arena_bytes_reserved": 0},
  "phase_totals": [
    {"queue_pushes": 0, "queue_pops": 0, "queue_decreases": 0, "queue_comparisons": 0, "decision_runs": 0, "route_comparisons": 0, "rib_out_writes": 0, "path_intern_hits": 0, "path_intern_misses": 0, "deliveries": 0, "mrai_armed": 0, "mrai_fired": 0, "mrai_coalesced": 0, "queue_cascades": 0, "arena_bytes_reserved": 0},
    {"queue_pushes": 0, "queue_pops": 0, "queue_decreases": 0, "queue_comparisons": 0, "decision_runs": 0, "route_comparisons": 0, "rib_out_writes": 0, "path_intern_hits": 0, "path_intern_misses": 0, "deliveries": 0, "mrai_armed": 0, "mrai_fired": 0, "mrai_coalesced": 0, "queue_cascades": 0, "arena_bytes_reserved": 0},
    {"queue_pushes": 0, "queue_pops": 0, "queue_decreases": 0, "queue_comparisons": 0, "decision_runs": 0, "route_comparisons": 0, "rib_out_writes": 0, "path_intern_hits": 0, "path_intern_misses": 0, "deliveries": 0, "mrai_armed": 0, "mrai_fired": 0, "mrai_coalesced": 0, "queue_cascades": 0, "arena_bytes_reserved": 0}
  ],
  "per_event": []
}
"#;

const METRICS: &str = r#"{
  "schema_version": 3,
  "counters": {
    "a.first": 1,
    "events.total": 42
  },
  "gauges": {
    "inbox.depth": { "value": 5, "max": 5 },
    "queue.depth": { "value": 3, "max": 7 }
  },
  "histograms": {
    "path_len": { "count": 3, "sum": 102, "max": 99, "buckets": [[1, 1], [4, 1], [16, 0], ["inf", 1]] }
  }
}
"#;

const METRICS_EMPTY: &str = r#"{
  "schema_version": 3,
  "counters": {},
  "gauges": {},
  "histograms": {}
}
"#;

const TIMESERIES: &str = concat!(
    r#"{"bin_us":100000,"events":2,"stamped":30,"unstamped":0,"coalesced":3,"#,
    r#""depth_max":40,"depth_hist":[1,2,3,4,5,6,7,2],"bins":[{"by_rel":[1,2,"#,
    r#"3],"by_type":[4,5,6,7],"announces":15,"withdraws":7,"mrai_armed_peak":9,"#,
    r#""inbox_peak":2},{"by_rel":[0,0,8],"by_type":[0,1,0,7],"announces":0,"#,
    r#""withdraws":8,"mrai_armed_peak":0,"inbox_peak":11}],"roots":[{"event":0,"#,
    r#""root":0,"kind":"withdraw_origin","node":12,"start_us":0,"last_update_us":150000,"#,
    r#""updates":22},{"event":1,"root":0,"kind":"originate","node":12,"start_us":5,"#,
    r#""last_update_us":5,"updates":0}]}"#,
);

const TRACE_FULL: &str = concat!(
    r#"{"event":3,"t_us":1000123,"node":77,"kind":"deliver","prefix":0,"path_len":4,"#,
    r#""root":2,"depth":5}"#,
);

const TRACE_BARE: &str = r#"{"event":3,"t_us":1000123,"node":77,"kind":"mrai_expire"}"#;

const TRACE_HEADER: &str = r#"{"schema_version":3,"kind":"trace"}"#;

const LEDGER: &str = concat!(
    r#"{"schema_version":3,"det":{"kind":"perf","git_rev":"0123456789abcdef0123456789abcdef01234567","#,
    r#""fingerprint":"7f387b2e1c286e7a","scenario":"DENSE-CORE","n":600,"mode":"WRATE","#,
    r#""seed":537396754,"events":5,"ops":{"queue_pushes":1000,"queue_pops":1001,"#,
    r#""queue_decreases":1002,"queue_comparisons":1003,"decision_runs":1004,"#,
    r#""route_comparisons":1005,"rib_out_writes":1006,"path_intern_hits":1007,"#,
    r#""path_intern_misses":1008,"deliveries":1009,"mrai_armed":1010,"mrai_fired":1011,"#,
    r#""mrai_coalesced":1012,"queue_cascades":1013,"arena_bytes_reserved":1014},"#,
    r#""artifacts":{"metrics":null,"timeseries":null,"costmodel":"123456789abcdef0"}},"#,
    r#""det_hash":"a2fe345effaa87c1","wall":{"wall_us":1234567,"jobs":4,"peak_rss_bytes":20971520,"#,
    r#""metrics_overhead_cpct":null,"trace_overhead_cpct":null}}"#,
);

#[test]
fn costmodel_json_bytes() {
    assert_eq!(cost_model().to_json(), COSTMODEL);
    assert_eq!(CostModel::new().to_json(), COSTMODEL_EMPTY);
}

#[test]
fn metrics_json_bytes() {
    assert_eq!(registry().to_json(), METRICS);
    assert_eq!(MetricsRegistry::new().to_json(), METRICS_EMPTY);
}

#[test]
fn timeseries_json_bytes() {
    assert_eq!(series().to_json(), TIMESERIES);
}

#[test]
fn trace_bytes() {
    assert_eq!(trace_record().to_json_line(), TRACE_FULL);
    let bare = TraceRecord {
        kind: EventKind::MraiExpire,
        prefix: None,
        path_len: None,
        root: None,
        depth: None,
        ..trace_record()
    };
    assert_eq!(bare.to_json_line(), TRACE_BARE);
    assert_eq!(trace::to_jsonl(&[bare]), format!("{TRACE_HEADER}\n{TRACE_BARE}\n"));
}

/// The ledger's one layout, schema 3: `to_line` writes these bytes and
/// `parse_line` reads them back. `det.kind` is always `"perf"`, and the
/// metrics and timeseries hashes and the two retired overhead keys are
/// always `null`.
#[test]
fn ledger_line_bytes() {
    assert_eq!(ledger_record().to_line(), LEDGER);
    assert_eq!(parse_line(LEDGER, 1), Ok(ledger_record()));
}
