//! The m/q/e factor decomposition of the paper's Eq. 1.
//!
//! For a node X and a neighbor class y ∈ {customer, peer, provider}:
//!
//! * `m_{y,X}` — the number of neighbors of class y,
//! * `q_{y,X}` — the fraction of those that sent at least one update
//!   during the C-event ("active" neighbors),
//! * `e_{y,X}` — the mean number of updates per active neighbor,
//!
//! so that `U(X) = Σ_y m·q·e` holds **exactly** per node and per event.
//! The paper uses the growth of these factors with n to explain *why*
//! churn grows (Figs. 5–7, 11, 12).

use bgpscale_topology::{AsId, NodeType, Relationship};

use crate::sim::Simulator;

/// Index of a relationship in factor arrays: customer = 0, peer = 1,
/// provider = 2 (the paper's `c`, `p`, `d` subscripts).
pub fn rel_index(rel: Relationship) -> usize {
    rel.index()
}

/// Per-node raw factor measurements for one C-event.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NodeFactors {
    /// Neighbor count per relationship class.
    pub m: [u32; 3],
    /// Neighbors per class that sent ≥ 1 update.
    pub active: [u32; 3],
    /// Updates received per class.
    pub updates: [u64; 3],
}

impl NodeFactors {
    /// Total updates received (`U` for this node and event).
    pub fn total_updates(&self) -> u64 {
        self.updates.iter().sum()
    }

    /// `q` for one class, `None` when the node has no such neighbors.
    // det::allow(panic-surface, reason = "rel_index maps the three Relationship variants onto fixed [_; 3] arrays")
    pub fn q(&self, rel: Relationship) -> Option<f64> {
        let i = rel_index(rel);
        (self.m[i] > 0).then(|| self.active[i] as f64 / self.m[i] as f64)
    }

    /// `e` for one class, `None` when no neighbor of the class was active.
    // det::allow(panic-surface, reason = "rel_index maps the three Relationship variants onto fixed [_; 3] arrays")
    pub fn e(&self, rel: Relationship) -> Option<f64> {
        let i = rel_index(rel);
        (self.active[i] > 0).then(|| self.updates[i] as f64 / self.active[i] as f64)
    }

    /// Verifies Eq. 1: `Σ_y m·q·e == U` (trivially true by construction;
    /// exposed for tests and doc examples).
    pub fn eq1_holds(&self) -> bool {
        let mut sum = 0.0;
        for rel in Relationship::ALL {
            if let (Some(q), Some(e)) = (self.q(rel), self.e(rel)) {
                sum += self.m[rel_index(rel)] as f64 * q * e;
            }
        }
        (sum - self.total_updates() as f64).abs() < 1e-6
    }
}

/// Extracts the factors of `node` from the simulator's churn counters
/// (valid after a measured C-event, before the counters are reset).
pub fn node_factors<O: bgpscale_obs::SimObserver>(sim: &Simulator<O>, node: AsId) -> NodeFactors {
    let counts = sim.churn().node_counts(node);
    let sessions = sim.node(node).sessions();
    debug_assert_eq!(counts.len(), sessions.len());
    let mut f = NodeFactors::default();
    for (session, &count) in sessions.iter().zip(counts) {
        let i = rel_index(session.rel);
        f.m[i] += 1;
        if count > 0 {
            f.active[i] += 1;
            f.updates[i] += count as u64;
        }
    }
    f
}

/// Factor means for one node type, aggregated over nodes and events.
///
/// `m`, `q`, `e`, `u` are the quantities plotted in Figs. 5–7: per-node
/// values averaged over all `(node of this type, event)` pairs for which
/// they are defined (`q` needs `m > 0`; `e` needs an active neighbor).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct FactorMeans {
    /// Mean neighbor count `m_{y,X}`.
    pub m: f64,
    /// Mean activation probability `q_{y,X}`.
    pub q: f64,
    /// Mean updates per active neighbor `e_{y,X}`.
    pub e: f64,
    /// Mean updates received from this class, `U_y(X) = mean(m·q·e)`.
    pub u: f64,
}

/// Accumulates per-node factors into per-type means across events.
#[derive(Clone, Debug)]
pub struct FactorAccumulator {
    /// Sums indexed `[node_type][rel]`.
    m_sum: [[f64; 3]; 4],
    m_cnt: [[u64; 3]; 4],
    q_sum: [[f64; 3]; 4],
    q_cnt: [[u64; 3]; 4],
    e_sum: [[f64; 3]; 4],
    e_cnt: [[u64; 3]; 4],
    u_sum: [[f64; 3]; 4],
    u_total_sum: [f64; 4],
    /// Number of (node, event) samples per type.
    samples: [u64; 4],
}

/// Index of a node type in aggregate arrays: T=0, M=1, CP=2, C=3.
pub fn type_index(ty: NodeType) -> usize {
    ty.index()
}

impl Default for FactorAccumulator {
    fn default() -> Self {
        Self::new()
    }
}

impl FactorAccumulator {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        FactorAccumulator {
            m_sum: Default::default(),
            m_cnt: Default::default(),
            q_sum: Default::default(),
            q_cnt: Default::default(),
            e_sum: Default::default(),
            e_cnt: Default::default(),
            u_sum: Default::default(),
            u_total_sum: Default::default(),
            samples: Default::default(),
        }
    }

    /// Folds in one node's factors for one event. The event originator
    /// itself should be excluded by the caller (it *causes* the event
    /// rather than observing it).
    // det::allow(panic-surface, reason = "type_index and rel_index map enum variants onto fixed [_; 4] / [_; 3] accumulator arrays")
    pub fn add(&mut self, ty: NodeType, f: &NodeFactors) {
        let t = type_index(ty);
        self.samples[t] += 1;
        self.u_total_sum[t] += f.total_updates() as f64;
        for rel in Relationship::ALL {
            let r = rel_index(rel);
            self.m_sum[t][r] += f.m[r] as f64;
            self.m_cnt[t][r] += 1;
            if let Some(q) = f.q(rel) {
                self.q_sum[t][r] += q;
                self.q_cnt[t][r] += 1;
            }
            if let Some(e) = f.e(rel) {
                self.e_sum[t][r] += e;
                self.e_cnt[t][r] += 1;
            }
            self.u_sum[t][r] += f.updates[r] as f64;
        }
    }

    /// Folds another accumulator's samples into this one.
    ///
    /// Used by the parallel harness: each C-event produces a partial
    /// accumulator, and the partials are merged **in event-index order**
    /// so that the final f64 sums are independent of worker scheduling.
    /// `merge` adds the partial's sums as-is, so
    /// `a.merge(&b)` after `b.add(..)` equals calling `a.add(..)` with the
    /// same samples only when each partial holds one event — which is
    /// exactly how the harness uses it.
    pub fn merge(&mut self, other: &FactorAccumulator) {
        for t in 0..4 {
            self.u_total_sum[t] += other.u_total_sum[t];
            self.samples[t] += other.samples[t];
            for r in 0..3 {
                self.m_sum[t][r] += other.m_sum[t][r];
                self.m_cnt[t][r] += other.m_cnt[t][r];
                self.q_sum[t][r] += other.q_sum[t][r];
                self.q_cnt[t][r] += other.q_cnt[t][r];
                self.e_sum[t][r] += other.e_sum[t][r];
                self.e_cnt[t][r] += other.e_cnt[t][r];
                self.u_sum[t][r] += other.u_sum[t][r];
            }
        }
    }

    /// Number of (node, event) samples folded for a type.
    pub fn samples(&self, ty: NodeType) -> u64 {
        self.samples[type_index(ty)]
    }

    /// Mean total updates `U(X)` for a type, or 0 with no samples.
    pub fn mean_total(&self, ty: NodeType) -> f64 {
        let t = type_index(ty);
        if self.samples[t] == 0 {
            0.0
        } else {
            self.u_total_sum[t] / self.samples[t] as f64
        }
    }

    /// The factor means for `(type, relationship)`.
    pub fn means(&self, ty: NodeType, rel: Relationship) -> FactorMeans {
        let t = type_index(ty);
        let r = rel_index(rel);
        let div = |sum: f64, cnt: u64| if cnt == 0 { 0.0 } else { sum / cnt as f64 };
        FactorMeans {
            m: div(self.m_sum[t][r], self.m_cnt[t][r]),
            q: div(self.q_sum[t][r], self.q_cnt[t][r]),
            e: div(self.e_sum[t][r], self.e_cnt[t][r]),
            u: div(self.u_sum[t][r], self.samples[t]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rel_and_type_indices_are_stable() {
        assert_eq!(rel_index(Relationship::Customer), 0);
        assert_eq!(rel_index(Relationship::Peer), 1);
        assert_eq!(rel_index(Relationship::Provider), 2);
        assert_eq!(type_index(NodeType::T), 0);
        assert_eq!(type_index(NodeType::C), 3);
    }

    #[test]
    fn node_factor_derivations() {
        let f = NodeFactors {
            m: [4, 2, 1],
            active: [2, 0, 1],
            updates: [6, 0, 3],
        };
        assert_eq!(f.total_updates(), 9);
        assert_eq!(f.q(Relationship::Customer), Some(0.5));
        assert_eq!(f.e(Relationship::Customer), Some(3.0));
        assert_eq!(f.q(Relationship::Peer), Some(0.0));
        assert_eq!(f.e(Relationship::Peer), None);
        assert_eq!(f.q(Relationship::Provider), Some(1.0));
        assert!(f.eq1_holds());
    }

    #[test]
    fn q_undefined_without_neighbors() {
        let f = NodeFactors::default();
        assert_eq!(f.q(Relationship::Customer), None);
        assert_eq!(f.total_updates(), 0);
        assert!(f.eq1_holds());
    }

    #[test]
    fn accumulator_averages_over_samples() {
        let mut acc = FactorAccumulator::new();
        acc.add(
            NodeType::T,
            &NodeFactors {
                m: [2, 0, 0],
                active: [2, 0, 0],
                updates: [4, 0, 0],
            },
        );
        acc.add(
            NodeType::T,
            &NodeFactors {
                m: [4, 0, 0],
                active: [1, 0, 0],
                updates: [2, 0, 0],
            },
        );
        assert_eq!(acc.samples(NodeType::T), 2);
        assert_eq!(acc.mean_total(NodeType::T), 3.0);
        let fm = acc.means(NodeType::T, Relationship::Customer);
        assert_eq!(fm.m, 3.0);
        assert_eq!(fm.q, (1.0 + 0.25) / 2.0);
        assert_eq!(fm.e, 2.0);
        assert_eq!(fm.u, 3.0);
        // No peer samples ever defined.
        let peer = acc.means(NodeType::T, Relationship::Peer);
        assert_eq!(peer.e, 0.0);
    }

    #[test]
    fn merge_of_singleton_partials_equals_direct_adds() {
        let samples = [
            NodeFactors { m: [2, 1, 0], active: [2, 0, 0], updates: [4, 0, 0] },
            NodeFactors { m: [4, 0, 2], active: [1, 0, 2], updates: [2, 0, 6] },
            NodeFactors { m: [1, 1, 1], active: [1, 1, 1], updates: [3, 1, 2] },
        ];
        let mut direct = FactorAccumulator::new();
        for f in &samples {
            direct.add(NodeType::M, f);
        }
        let mut merged = FactorAccumulator::new();
        for f in &samples {
            let mut partial = FactorAccumulator::new();
            partial.add(NodeType::M, f);
            merged.merge(&partial);
        }
        assert_eq!(merged.samples(NodeType::M), direct.samples(NodeType::M));
        assert_eq!(merged.mean_total(NodeType::M), direct.mean_total(NodeType::M));
        for rel in Relationship::ALL {
            assert_eq!(merged.means(NodeType::M, rel), direct.means(NodeType::M, rel));
        }
    }

    #[test]
    fn empty_type_reports_zero() {
        let acc = FactorAccumulator::new();
        assert_eq!(acc.mean_total(NodeType::M), 0.0);
        assert_eq!(acc.samples(NodeType::M), 0);
    }
}
