//! A deterministic, integer-only metrics registry.
//!
//! Three metric families, all integer-valued so that cross-worker merges
//! are exact (no f64 accumulation-order hazards):
//!
//! * **Counters** — monotone `u64` sums. Merging adds.
//! * **Gauges** — a last-written value plus its observed peak. Merging
//!   takes the maximum of both, which is order-independent — gauges are
//!   for peaks (deepest queue, longest path), not for running values.
//! * **Histograms** — fixed upper-bound buckets with `u64` counts plus
//!   `count`/`sum`/`max`. Merging adds bucket-wise (bounds must match).
//!
//! The registry serializes to JSON with `BTreeMap` key order and no
//! floating-point values, so equal registries produce byte-identical
//! files. The experiment harness builds one registry per C-event and
//! merges them in event-index order — the same discipline as
//! `FactorAccumulator` — which makes `metrics.json` bit-identical for any
//! `--jobs` level (regression-tested in `bgpscale-core`).

use std::collections::BTreeMap;

use crate::json::{Layout, Value};

/// A gauge: last-set value and the peak ever set.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Gauge {
    /// The most recently set value.
    pub value: u64,
    /// The maximum ever set.
    pub max: u64,
}

/// A fixed-bucket integer histogram.
///
/// `bounds[i]` is the inclusive upper edge of bucket `i`; one implicit
/// **overflow bucket** catches everything above the last bound. A sample
/// past the top boundary is therefore never dropped: it lands in bucket
/// `bounds.len()` (the last entry of [`Histogram::bucket_counts`]) and
/// still contributes to `count`/`sum`/`max`. The JSON serialization
/// renders the overflow bucket with the bound `"inf"`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    bounds: Vec<u64>,
    /// `bounds.len() + 1` buckets; the last is the overflow bucket.
    counts: Vec<u64>,
    count: u64,
    sum: u64,
    max: u64,
}

impl Histogram {
    /// Creates an empty histogram over `bounds` (must be strictly
    /// increasing and non-empty).
    ///
    /// # Panics
    /// Panics on empty or non-increasing bounds.
    pub fn new(bounds: Vec<u64>) -> Histogram {
        assert!(!bounds.is_empty(), "histogram needs at least one bound");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        let buckets = bounds.len() + 1;
        Histogram {
            bounds,
            counts: vec![0; buckets],
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    /// Records one sample.
    #[inline]
    pub fn observe(&mut self, value: u64) {
        self.observe_n(value, 1);
    }

    /// Records `n` identical samples in O(buckets) — the bulk path used
    /// when loading pre-aggregated counts (e.g. from `Recorder`'s fixed
    /// arrays). A no-op when `n == 0`.
    #[inline]
    pub fn observe_n(&mut self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        let idx = self
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(self.bounds.len());
        self.counts[idx] += n;
        self.count += n;
        self.sum += value * n;
        self.max = self.max.max(value);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean sample as a display convenience (not part of the
    /// deterministic serialization, which stays integer-only).
    pub fn mean(&self) -> f64 { // det::allow(float-accum, reason = "display-only ratio of two exact integer counters; never accumulated or serialized")
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64 // det::allow(float-accum, reason = "single division of exact integers at render time")
        }
    }

    /// The bucket upper bounds.
    pub fn bounds(&self) -> &[u64] {
        &self.bounds
    }

    /// Per-bucket counts: `bounds.len() + 1` entries, where entry `i < bounds.len()`
    /// counts samples with `value <= bounds[i]` (and above the previous
    /// bound), and the final entry is the overflow bucket holding every
    /// sample greater than `bounds.last()`.
    pub fn bucket_counts(&self) -> &[u64] {
        &self.counts
    }

    /// Adds another histogram's samples into this one.
    ///
    /// # Panics
    /// Panics if the bucket bounds differ — merging histograms of
    /// different shapes would silently corrupt the distribution.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(
            self.bounds, other.bounds,
            "histogram merge with mismatched bounds"
        );
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }
}

/// Named counters, gauges and histograms with deterministic serialization.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, Gauge>,
    histograms: BTreeMap<String, Histogram>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Adds `by` to counter `name` (creating it at 0).
    pub fn inc(&mut self, name: &str, by: u64) {
        *self.counter_entry(name) += by;
    }

    fn counter_entry(&mut self, name: &str) -> &mut u64 {
        if !self.counters.contains_key(name) {
            self.counters.insert(name.to_string(), 0);
        }
        self.counters.get_mut(name).expect("just inserted")
    }

    /// Reads counter `name` (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Sets gauge `name`, tracking its peak.
    pub fn set_gauge(&mut self, name: &str, value: u64) {
        let g = self.gauges.entry(name.to_string()).or_default();
        g.value = value;
        g.max = g.max.max(value);
    }

    /// Reads gauge `name`, if present.
    pub fn gauge(&self, name: &str) -> Option<Gauge> {
        self.gauges.get(name).copied()
    }

    /// Records `value` into histogram `name`, creating it with `bounds`
    /// on first use. Later calls ignore `bounds` (the first shape wins).
    pub fn observe(&mut self, name: &str, bounds: &[u64], value: u64) {
        self.observe_n(name, bounds, value, 1);
    }

    /// Records `n` identical samples into histogram `name` (see
    /// [`Histogram::observe_n`]). Creates the histogram with `bounds` on
    /// first use even when `n == 0`, so a shape is always registered.
    pub fn observe_n(&mut self, name: &str, bounds: &[u64], value: u64, n: u64) {
        if !self.histograms.contains_key(name) {
            self.histograms
                .insert(name.to_string(), Histogram::new(bounds.to_vec()));
        }
        self.histograms
            .get_mut(name)
            .expect("just inserted")
            .observe_n(value, n);
    }

    /// Reads histogram `name`, if present.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// All counters in key order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// All histograms in key order.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.histograms.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// All gauges in key order.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, Gauge)> {
        self.gauges.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Folds `other` into `self`: counters add, gauges take maxima,
    /// histograms add bucket-wise. All operations are exact integer
    /// arithmetic, so a fold in any fixed order yields identical bytes —
    /// the harness nevertheless merges in event-index order, matching the
    /// `FactorAccumulator` discipline.
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (k, &v) in &other.counters {
            self.inc(k, v);
        }
        for (k, g) in &other.gauges {
            let mine = self.gauges.entry(k.clone()).or_default();
            mine.value = mine.value.max(g.value);
            mine.max = mine.max.max(g.max);
        }
        for (k, h) in &other.histograms {
            match self.histograms.get_mut(k) {
                Some(mine) => mine.merge(h),
                None => {
                    self.histograms.insert(k.clone(), h.clone());
                }
            }
        }
    }

    /// Serializes to pretty JSON with fully deterministic bytes: BTreeMap
    /// key order, integer values only, fixed indentation. Stamped with the
    /// workspace-wide [`crate::SCHEMA_VERSION`].
    pub fn to_json(&self) -> String {
        let counters = self.counters.iter().map(|(k, &v)| (k.as_str(), v.into()));
        let gauges = self.gauges.iter().map(|(k, g)| {
            let gauge = [("value", g.value.into()), ("max", g.max.into())];
            (k.as_str(), Value::obj(Layout::Padded, gauge))
        });
        let histograms = self.histograms.iter().map(|(k, h)| {
            // The overflow bucket's bound is "inf".
            let bounds = h.bounds.iter().map(|&b| Value::from(b)).chain(["inf".into()]);
            let buckets = bounds
                .zip(&h.counts)
                .map(|(bound, &count)| Value::arr(Layout::Inline, [bound, count.into()]));
            let histogram = [
                ("count", h.count.into()),
                ("sum", h.sum.into()),
                ("max", h.max.into()),
                ("buckets", Value::arr(Layout::Inline, buckets)),
            ];
            (k.as_str(), Value::obj(Layout::Padded, histogram))
        });
        let doc = Value::obj(
            Layout::Lines,
            [
                ("schema_version", crate::SCHEMA_VERSION.into()),
                ("counters", Value::obj(Layout::Lines, counters)),
                ("gauges", Value::obj(Layout::Lines, gauges)),
                ("histograms", Value::obj(Layout::Lines, histograms)),
            ],
        );
        doc.to_json() + "\n"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_samples_at_edges() {
        let mut h = Histogram::new(vec![1, 10, 100]);
        for v in [0, 1, 2, 10, 11, 100, 101, 5_000] {
            h.observe(v);
        }
        // <=1: {0, 1}; <=10: {2, 10}; <=100: {11, 100}; overflow: {101, 5000}
        assert_eq!(h.bucket_counts(), &[2, 2, 2, 2]);
        assert_eq!(h.count(), 8);
        assert_eq!(h.sum(), 5_225); // 0+1+2+10+11+100+101+5000
        assert_eq!(h.max(), 5_000);
        assert!((h.mean() - h.sum() as f64 / 8.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn histogram_rejects_unsorted_bounds() {
        Histogram::new(vec![10, 10]);
    }

    #[test]
    fn values_past_the_top_bound_land_in_the_overflow_bucket() {
        let mut h = Histogram::new(vec![1, 10]);
        h.observe(11); // one past the top bound
        h.observe(5_000); // far past it
        assert_eq!(
            h.bucket_counts(),
            &[0, 0, 2],
            "overflow samples are counted, not dropped"
        );
        assert_eq!(h.count(), 2);
        assert_eq!(h.sum(), 5_011);
        assert_eq!(h.max(), 5_000);

        // Same through the registry, and the overflow bucket serializes
        // with the "inf" bound.
        let mut r = MetricsRegistry::new();
        r.observe("x", &[1, 10], 9_999);
        assert_eq!(r.histogram("x").unwrap().bucket_counts(), &[0, 0, 1]);
        assert!(r.to_json().contains("[\"inf\", 1]"), "{}", r.to_json());
    }

    #[test]
    fn histogram_merge_adds_bucketwise() {
        let mut a = Histogram::new(vec![5, 50]);
        let mut b = Histogram::new(vec![5, 50]);
        a.observe(3);
        b.observe(7);
        b.observe(70);
        a.merge(&b);
        assert_eq!(a.bucket_counts(), &[1, 1, 1]);
        assert_eq!(a.count(), 3);
        assert_eq!(a.max(), 70);
    }

    #[test]
    #[should_panic(expected = "mismatched bounds")]
    fn histogram_merge_rejects_different_shapes() {
        let mut a = Histogram::new(vec![5]);
        a.merge(&Histogram::new(vec![6]));
    }

    #[test]
    fn registry_counters_and_gauges() {
        let mut r = MetricsRegistry::new();
        r.inc("events.total", 2);
        r.inc("events.total", 3);
        r.set_gauge("queue.depth", 7);
        r.set_gauge("queue.depth", 4);
        assert_eq!(r.counter("events.total"), 5);
        assert_eq!(r.counter("missing"), 0);
        let g = r.gauge("queue.depth").unwrap();
        assert_eq!(g.value, 4);
        assert_eq!(g.max, 7);
    }

    #[test]
    fn merge_is_exact_and_order_independent() {
        let mk = |c: u64, g: u64, h: u64| {
            let mut r = MetricsRegistry::new();
            r.inc("c", c);
            r.set_gauge("g", g);
            r.observe("h", &[10, 100], h);
            r
        };
        let parts = [mk(1, 5, 3), mk(2, 9, 30), mk(4, 2, 300)];
        let mut fwd = MetricsRegistry::new();
        for p in &parts {
            fwd.merge(p);
        }
        let mut rev = MetricsRegistry::new();
        for p in parts.iter().rev() {
            rev.merge(p);
        }
        assert_eq!(fwd, rev);
        assert_eq!(fwd.to_json(), rev.to_json());
        assert_eq!(fwd.counter("c"), 7);
        assert_eq!(fwd.gauge("g").unwrap().max, 9);
        assert_eq!(fwd.histogram("h").unwrap().count(), 3);
    }

    #[test]
    fn json_is_deterministic_and_integer_only() {
        let mut r = MetricsRegistry::new();
        r.inc("b.second", 2);
        r.inc("a.first", 1);
        r.observe("lens", &[2, 8], 3);
        r.observe("lens", &[2, 8], 9);
        let j1 = r.to_json();
        let j2 = r.clone().to_json();
        assert_eq!(j1, j2);
        // Keys serialize sorted; no floats anywhere.
        assert!(j1.find("a.first").unwrap() < j1.find("b.second").unwrap());
        assert!(!j1.contains('.') || !j1.contains("e-"), "no float exponents");
        assert!(j1.contains("[\"inf\", 1]"), "overflow bucket rendered: {j1}");
    }

    #[test]
    fn empty_registry_serializes_cleanly() {
        let r = MetricsRegistry::new();
        assert!(r.is_empty());
        let j = r.to_json();
        assert!(j.contains("\"counters\": {}"));
        assert!(j.starts_with("{\n  \"schema_version\": "));
    }
}
