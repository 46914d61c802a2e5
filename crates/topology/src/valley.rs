//! Valley-free (policy-compliant) path machinery.
//!
//! Under the paper's "no-valley" export policies, a permissible AS path has
//! the shape **up\* (peer)? down\***: zero or more customer→provider hops,
//! at most one peering hop, then zero or more provider→customer hops.
//!
//! [`valley_free_distances`] computes the shortest policy-compliant hop
//! count from a source to every node with the classic three-phase
//! decomposition (an uphill BFS, a single optional peering step, and a
//! downhill Dijkstra seeded with the uphill/peering labels). The result is
//! used by [`crate::metrics`] to verify the paper's "constant ≈4-hop path
//! length" property, and by tests as an oracle for what the BGP simulator
//! should converge to.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::graph::AsGraph;
use crate::types::AsId;

/// Shortest valley-free distance (in AS hops) from `src` to every node.
///
/// Returns a vector indexed by [`AsId`]; `None` means no policy-compliant
/// path exists (impossible in a validated topology, where everyone reaches
/// the tier-1 clique, but kept honest for hand-built graphs).
pub fn valley_free_distances(g: &AsGraph, src: AsId) -> Vec<Option<u32>> {
    let n = g.len();
    const INF: u32 = u32::MAX;

    // Phase 1: uphill BFS along provider links (customer → provider).
    let mut up = vec![INF; n];
    up[src.index()] = 0;
    let mut queue = std::collections::VecDeque::new();
    queue.push_back(src);
    while let Some(u) = queue.pop_front() {
        let du = up[u.index()];
        for p in g.providers(u) {
            if up[p.index()] == INF {
                up[p.index()] = du + 1;
                queue.push_back(p);
            }
        }
    }

    // Phase 2: at most one peering hop from any uphill-reachable node.
    // `entry[v]` is the best known distance at which v can be reached in a
    // state that still permits going downhill.
    let mut entry = up.clone();
    for u in g.node_ids() {
        if up[u.index()] == INF {
            continue;
        }
        let du = up[u.index()];
        for p in g.peers(u) {
            if du + 1 < entry[p.index()] {
                entry[p.index()] = du + 1;
            }
        }
    }

    // Phase 3: downhill Dijkstra along customer links (provider →
    // customer), seeded with every uphill/peering label. Seeds have
    // heterogeneous distances, so a priority queue (not plain BFS) is
    // needed for correctness.
    let mut dist = entry.clone();
    let mut heap: BinaryHeap<Reverse<(u32, u32)>> = dist
        .iter()
        .enumerate()
        .filter(|(_, &d)| d != INF)
        .map(|(i, &d)| Reverse((d, i as u32)))
        .collect();
    while let Some(Reverse((d, u))) = heap.pop() {
        if d > dist[u as usize] {
            continue; // stale entry
        }
        for c in g.customers(AsId(u)) {
            let nd = d + 1;
            if nd < dist[c.index()] {
                dist[c.index()] = nd;
                heap.push(Reverse((nd, c.0)));
            }
        }
    }

    dist.into_iter()
        .map(|d| if d == INF { None } else { Some(d) })
        .collect()
}

/// True if every node can reach every other node over a valley-free path.
///
/// Quadratic in the worst case; intended for validation of small graphs.
/// For generated topologies a single-source check from one stub suffices in
/// practice (everything funnels through the T clique), which is what
/// [`crate::validate`] uses.
pub fn fully_valley_free_connected(g: &AsGraph) -> bool {
    g.node_ids().all(|src| {
        valley_free_distances(g, src)
            .iter()
            .all(|d| d.is_some())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{NodeType, RegionSet};

    /// Fixture:
    ///
    /// ```text
    ///   T0 ──peer── T1
    ///   │            │
    ///   M2          M3
    ///   │            │
    ///   C4          C5
    /// ```
    fn chain() -> (AsGraph, [AsId; 6]) {
        let mut g = AsGraph::new();
        let r = RegionSet::all(1);
        let t0 = g.add_node(NodeType::T, r);
        let t1 = g.add_node(NodeType::T, r);
        let m2 = g.add_node(NodeType::M, r);
        let m3 = g.add_node(NodeType::M, r);
        let c4 = g.add_node(NodeType::C, r);
        let c5 = g.add_node(NodeType::C, r);
        g.add_peer_link(t0, t1);
        g.add_transit_link(m2, t0);
        g.add_transit_link(m3, t1);
        g.add_transit_link(c4, m2);
        g.add_transit_link(c5, m3);
        (g, [t0, t1, m2, m3, c4, c5])
    }

    #[test]
    fn distances_follow_up_peer_down() {
        let (g, ids) = chain();
        let d = valley_free_distances(&g, ids[4]); // from C4
        assert_eq!(d[ids[4].index()], Some(0));
        assert_eq!(d[ids[2].index()], Some(1)); // up to M2
        assert_eq!(d[ids[0].index()], Some(2)); // up to T0
        assert_eq!(d[ids[1].index()], Some(3)); // peer to T1
        assert_eq!(d[ids[3].index()], Some(4)); // down to M3
        assert_eq!(d[ids[5].index()], Some(5)); // down to C5
    }

    #[test]
    fn peer_then_up_is_forbidden() {
        // C below a peer of the source's provider must NOT be reachable
        // via peer→up.
        //
        //   T0 ── T1        (peers)
        //   M2 ── M3        (peers)  M2→T0, M3→T1 transit
        //   src C4 under M2; dst C5 under M3.
        //
        // Valid shortest path: C4 up M2, peer M3, down C5 — up, one peer,
        // down = 3 hops. (The longer C4-M2-T0-T1-M3-C5 route also exists.)
        let mut g = AsGraph::new();
        let r = RegionSet::all(1);
        let t0 = g.add_node(NodeType::T, r);
        let t1 = g.add_node(NodeType::T, r);
        let m2 = g.add_node(NodeType::M, r);
        let m3 = g.add_node(NodeType::M, r);
        let c4 = g.add_node(NodeType::C, r);
        let c5 = g.add_node(NodeType::C, r);
        g.add_peer_link(t0, t1);
        g.add_transit_link(m2, t0);
        g.add_transit_link(m3, t1);
        g.add_peer_link(m2, m3);
        g.add_transit_link(c4, m2);
        g.add_transit_link(c5, m3);
        let d = valley_free_distances(&g, c4);
        assert_eq!(d[c5.index()], Some(3), "up-peer-down path");
        // T1 is reachable up-up-peer (3 hops); up-peer-up via M3 would
        // also be 3 hops but is invalid — either way the reported length
        // is 3, via the valid route.
        assert_eq!(d[t1.index()], Some(3));
    }

    #[test]
    fn two_peer_hops_are_forbidden() {
        // src — P1 — P2 all peers in a row: src can reach P1 (1 hop) but
        // not P2 (two consecutive peering hops are not valley-free).
        let mut g = AsGraph::new();
        let r = RegionSet::all(1);
        let a = g.add_node(NodeType::M, r);
        let b = g.add_node(NodeType::M, r);
        let c = g.add_node(NodeType::M, r);
        g.add_peer_link(a, b);
        g.add_peer_link(b, c);
        let d = valley_free_distances(&g, a);
        assert_eq!(d[b.index()], Some(1));
        assert_eq!(d[c.index()], None);
    }

    #[test]
    fn down_then_up_is_forbidden() {
        // Provider P with customers A and B: A reaches B via P (up, down)
        // — 2 hops. But from P, reaching a *provider* of one of its
        // customers' other providers must not pass through the customer.
        //
        //   P1   P2
        //    \   /
        //     \ /
        //      C
        // From P1: C at 1 hop (down); P2 must be unreachable (down-up).
        let mut g = AsGraph::new();
        let r = RegionSet::all(1);
        let p1 = g.add_node(NodeType::M, r);
        let p2 = g.add_node(NodeType::M, r);
        let c = g.add_node(NodeType::C, r);
        g.add_transit_link(c, p1);
        g.add_transit_link(c, p2);
        let d = valley_free_distances(&g, p1);
        assert_eq!(d[c.index()], Some(1));
        assert_eq!(d[p2.index()], None, "down-up valley must be rejected");
    }

    #[test]
    fn generated_topologies_are_valley_free_connected_from_stubs() {
        let g = crate::generate(crate::GrowthScenario::Baseline, 400, 99);
        let stub = g
            .node_ids()
            .find(|&id| g.node_type(id) == NodeType::C)
            .unwrap();
        let d = valley_free_distances(&g, stub);
        assert!(d.iter().all(|x| x.is_some()), "stub cannot reach everyone");
    }

    #[test]
    fn full_connectivity_check_on_small_graph() {
        let (g, _) = chain();
        assert!(fully_valley_free_connected(&g));
    }

    #[test]
    fn disconnected_pair_detected() {
        let mut g = AsGraph::new();
        let r = RegionSet::all(1);
        let a = g.add_node(NodeType::M, r);
        let b = g.add_node(NodeType::M, r);
        let c = g.add_node(NodeType::C, r);
        g.add_transit_link(c, a);
        let d = valley_free_distances(&g, c);
        assert_eq!(d[b.index()], None);
        assert!(!fully_valley_free_connected(&g));
        let _ = (a, b);
    }
}
