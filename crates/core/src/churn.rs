//! Churn accounting: who received how many updates from whom.
//!
//! The collector mirrors the paper's measurement methodology: every UPDATE
//! **received** counts one unit, attributed to the `(receiver, neighbor
//! session)` pair so that the m/q/e factors of Eq. 1 can be extracted
//! afterwards ([`crate::factors`]). Counting happens at delivery (arrival
//! in the input queue), matching "the number of routing updates received
//! by nodes" (§2).

use std::sync::Arc;

use bgpscale_bgp::SessionSlab;
use bgpscale_simkernel::{SimDuration, SimTime};
use bgpscale_topology::AsId;

/// A binned time series of network-wide update arrivals, for burstiness
/// analysis (the paper's intro observes peak rates up to ~1000× daily
/// averages; this measures the analogous within-convergence peaks).
#[derive(Clone, Debug)]
pub struct Timeline {
    origin: SimTime,
    bin: SimDuration,
    counts: Vec<u32>,
}

impl Timeline {
    fn new(origin: SimTime, bin: SimDuration) -> Timeline {
        assert!(!bin.is_zero(), "timeline bin must be positive");
        Timeline {
            origin,
            bin,
            counts: Vec::new(),
        }
    }

    // det::allow(panic-surface, reason = "counts is resized to idx + 1 on the line before the index")
    fn record(&mut self, now: SimTime) {
        let idx = (now.saturating_since(self.origin).as_micros() / self.bin.as_micros()) as usize;
        if idx >= self.counts.len() {
            self.counts.resize(idx + 1, 0);
        }
        self.counts[idx] += 1;
    }

    /// The bin width.
    pub fn bin(&self) -> SimDuration {
        self.bin
    }

    /// Updates per bin, starting at the timeline origin.
    pub fn counts(&self) -> &[u32] {
        &self.counts
    }

    /// The busiest bin's count.
    pub fn peak(&self) -> u32 {
        self.counts.iter().copied().max().unwrap_or(0)
    }

    /// Peak-to-mean ratio over non-empty time (0 if nothing recorded).
    pub fn peak_to_mean(&self) -> f64 { // det::allow(float-accum, reason = "display-only ratio derived from exact integer bins; not part of the serialized report")
        let total: u64 = self.counts.iter().map(|&c| c as u64).sum();
        if total == 0 || self.counts.is_empty() {
            return 0.0;
        }
        let mean = total as f64 / self.counts.len() as f64; // det::allow(float-accum, reason = "single division of exact integers at render time")
        self.peak() as f64 / mean // det::allow(float-accum, reason = "single division of exact integers at render time")
    }
}

/// Per-(receiver, neighbor-slot) update counters with a global toggle.
#[derive(Clone, Debug)]
pub struct ChurnCollector {
    enabled: bool,
    /// The session id space the counters are laid out in.
    slab: Arc<SessionSlab>,
    /// One counter per session, in the slab's global session id space:
    /// `per_edge[slab.first_session(node) + slot]` = updates received by
    /// `node` from the neighbor at `slot` while enabled. One allocation
    /// for the whole topology, and a delivery touches one word of it.
    per_edge: Vec<u32>,
    /// Withdrawals among those (announcements = total − withdrawals).
    withdrawals: u64,
    total: u64,
    /// Optional arrival-time histogram.
    timeline: Option<Timeline>,
}

impl ChurnCollector {
    /// Creates a disabled collector with one counter per session of
    /// `slab`, whose node `i` must be `AsId(i)`.
    pub fn new(slab: Arc<SessionSlab>) -> ChurnCollector {
        ChurnCollector {
            enabled: false,
            per_edge: vec![0; slab.total_sessions()],
            slab,
            withdrawals: 0,
            total: 0,
            timeline: None,
        }
    }

    /// Enables or disables counting. Disabled deliveries are invisible.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// True while counting.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Records one delivered update (called by the simulator).
    #[inline]
    // det::allow(panic-surface, reason = "per_edge holds one counter per session of the slab, and the simulator only passes slab-minted (node, slot) pairs")
    pub fn record(&mut self, to: AsId, slot: u32, is_withdrawal: bool, now: SimTime) {
        if self.enabled {
            self.per_edge[(self.slab.first_session(to.0) + slot) as usize] += 1;
            self.total += 1;
            self.withdrawals += u64::from(is_withdrawal);
            if let Some(tl) = &mut self.timeline {
                tl.record(now);
            }
        }
    }

    /// Starts recording a per-bin arrival timeline anchored at `origin`.
    /// Replaces any previous timeline.
    pub fn start_timeline(&mut self, origin: SimTime, bin: SimDuration) {
        self.timeline = Some(Timeline::new(origin, bin));
    }

    /// Stops timeline recording and returns it, if one was active.
    pub fn take_timeline(&mut self) -> Option<Timeline> {
        self.timeline.take()
    }

    /// The active timeline, if any.
    pub fn timeline(&self) -> Option<&Timeline> {
        self.timeline.as_ref()
    }

    /// Total updates recorded.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Withdrawals among [`ChurnCollector::total`].
    pub fn withdrawals(&self) -> u64 {
        self.withdrawals
    }

    /// Announcements among [`ChurnCollector::total`].
    pub fn announcements(&self) -> u64 {
        self.total - self.withdrawals
    }

    /// Per-neighbor-slot counts for `node`, in session order.
    pub fn node_counts(&self, node: AsId) -> &[u32] {
        let first = self.slab.first_session(node.0) as usize;
        &self.per_edge[first..first + self.slab.degree(node.0) as usize]
    }

    /// Total updates received by `node`.
    pub fn node_total(&self, node: AsId) -> u64 {
        self.node_counts(node).iter().map(|&c| c as u64).sum()
    }

    /// Zeroes all counters (does not change the enabled flag).
    pub fn reset(&mut self) {
        self.per_edge.fill(0);
        self.total = 0;
        self.withdrawals = 0;
        if let Some(tl) = &mut self.timeline {
            *tl = Timeline::new(tl.origin, tl.bin);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgpscale_bgp::node::Session;
    use bgpscale_topology::Relationship;

    /// A collector over T0 with two customers, C1 and C2.
    fn tiny() -> ChurnCollector {
        let session = |peer, rel| Session {
            peer: AsId(peer),
            rel,
        };
        let sessions = [
            vec![session(1, Relationship::Customer), session(2, Relationship::Customer)],
            vec![session(0, Relationship::Provider)],
            vec![session(0, Relationship::Provider)],
        ];
        ChurnCollector::new(SessionSlab::build((0..).map(AsId).zip(sessions)))
    }

    #[test]
    fn disabled_collector_ignores_records() {
        let mut c = tiny();
        c.record(AsId(0), 0, false, SimTime::ZERO);
        assert_eq!(c.total(), 0);
        assert_eq!(c.node_total(AsId(0)), 0);
    }

    #[test]
    fn enabled_collector_attributes_per_slot() {
        let mut c = tiny();
        c.set_enabled(true);
        c.record(AsId(0), 0, false, SimTime::ZERO);
        c.record(AsId(0), 0, true, SimTime::ZERO);
        c.record(AsId(0), 1, false, SimTime::ZERO);
        assert_eq!(c.total(), 3);
        assert_eq!(c.withdrawals(), 1);
        assert_eq!(c.announcements(), 2);
        assert_eq!(c.node_counts(AsId(0)), &[2, 1]);
        assert_eq!(c.node_total(AsId(0)), 3);
        assert_eq!(c.node_total(AsId(1)), 0);
    }

    #[test]
    fn reset_zeroes_but_keeps_enabled() {
        let mut c = tiny();
        c.set_enabled(true);
        c.record(AsId(1), 0, false, SimTime::ZERO);
        c.reset();
        assert_eq!(c.total(), 0);
        assert_eq!(c.node_counts(AsId(1)), &[0]);
        assert!(c.enabled());
    }

    #[test]
    fn timeline_bins_arrivals() {
        let mut c = tiny();
        c.set_enabled(true);
        c.start_timeline(SimTime::ZERO, SimDuration::from_secs(1));
        // Two in the first second, one at t = 2.5 s.
        c.record(AsId(0), 0, false, SimTime::from_millis(100));
        c.record(AsId(0), 0, false, SimTime::from_millis(900));
        c.record(AsId(0), 1, false, SimTime::from_millis(2_500));
        let tl = c.timeline().unwrap();
        assert_eq!(tl.counts(), &[2, 0, 1]);
        assert_eq!(tl.peak(), 2);
        assert!((tl.peak_to_mean() - 2.0).abs() < 1e-12);
        // Reset keeps the timeline active but clears it.
        c.reset();
        assert_eq!(c.timeline().unwrap().counts().len(), 0);
        assert_eq!(c.timeline().unwrap().peak_to_mean(), 0.0);
        // take removes it.
        assert!(c.take_timeline().is_some());
        assert!(c.timeline().is_none());
    }

    #[test]
    fn rows_match_node_degrees() {
        let c = tiny();
        assert_eq!(c.node_counts(AsId(0)).len(), 2);
        assert_eq!(c.node_counts(AsId(1)).len(), 1);
    }
}
