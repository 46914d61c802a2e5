//! The annotated AS-level graph.
//!
//! [`AsGraph`] stores, per AS: its [`NodeType`], its [`RegionSet`], and an
//! adjacency list of [`Neighbor`]s annotated with the business
//! [`Relationship`] as seen from that AS. A physical link therefore appears
//! in both endpoints' adjacencies with mirrored relationships.
//!
//! The structure is append-only (nodes and links are added, never removed),
//! which matches how topologies are generated and lets all per-node lookup
//! tables in the simulator be flat vectors indexed by [`AsId`].

use crate::types::{AsId, NodeType, RegionSet, Relationship};

/// One adjacency entry: a neighboring AS and our relationship to it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Neighbor {
    /// The neighboring AS.
    pub id: AsId,
    /// Our relationship to the neighbor (`Customer` means the neighbor pays
    /// us for transit).
    pub rel: Relationship,
}

/// Per-node record.
#[derive(Clone, Debug)]
struct NodeData {
    ty: NodeType,
    regions: RegionSet,
    neighbors: Vec<Neighbor>,
    /// Cached relationship tallies `[customers, peers, providers]`, kept in
    /// sync by `add_*_link` so degree queries are O(1).
    rel_counts: [u32; 3],
}

/// A business-relationship-annotated AS-level topology.
#[derive(Clone, Debug, Default)]
pub struct AsGraph {
    nodes: Vec<NodeData>,
    transit_links: usize,
    peer_links: usize,
}

impl AsGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        AsGraph::default()
    }

    /// Creates an empty graph with room for `n` nodes.
    pub fn with_capacity(n: usize) -> Self {
        AsGraph {
            nodes: Vec::with_capacity(n),
            transit_links: 0,
            peer_links: 0,
        }
    }

    /// Adds a node and returns its id.
    ///
    /// # Panics
    /// Panics if `regions` is empty — every AS must exist somewhere.
    pub fn add_node(&mut self, ty: NodeType, regions: RegionSet) -> AsId {
        assert!(!regions.is_empty(), "an AS must be present in ≥1 region");
        let id = AsId(u32::try_from(self.nodes.len()).expect("more than u32::MAX nodes"));
        self.nodes.push(NodeData {
            ty,
            regions,
            neighbors: Vec::new(),
            rel_counts: [0; 3],
        });
        id
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Number of transit (customer–provider) links.
    pub fn transit_link_count(&self) -> usize {
        self.transit_links
    }

    /// Number of peering links.
    pub fn peer_link_count(&self) -> usize {
        self.peer_links
    }

    /// Total number of links.
    pub fn link_count(&self) -> usize {
        self.transit_links + self.peer_links
    }

    /// Iterates over all node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = AsId> + '_ {
        (0..self.nodes.len() as u32).map(AsId)
    }

    /// The type of node `id`.
    pub fn node_type(&self, id: AsId) -> NodeType {
        self.nodes[id.index()].ty
    }

    /// The regions node `id` is present in.
    pub fn regions(&self, id: AsId) -> RegionSet {
        self.nodes[id.index()].regions
    }

    /// All ids of a given node type, ascending.
    pub fn nodes_of_type(&self, ty: NodeType) -> Vec<AsId> {
        self.node_ids().filter(|&id| self.node_type(id) == ty).collect()
    }

    /// Number of nodes of a given type.
    pub fn count_of_type(&self, ty: NodeType) -> usize {
        self.nodes.iter().filter(|n| n.ty == ty).count()
    }

    /// The adjacency list of `id` (creation order).
    pub fn neighbors(&self, id: AsId) -> &[Neighbor] {
        &self.nodes[id.index()].neighbors
    }

    /// Iterates over the neighbors of `id` with a given relationship.
    ///
    /// The scan stops at the last match (the tally is cached), so reading
    /// the providers of a generated node — wired before it gains any
    /// customer or peer — does not walk its whole adjacency.
    pub fn neighbors_with_rel(
        &self,
        id: AsId,
        rel: Relationship,
    ) -> impl Iterator<Item = AsId> + '_ {
        let node = &self.nodes[id.index()];
        node.neighbors
            .iter()
            .filter(move |n| n.rel == rel)
            .take(node.rel_counts[rel.index()] as usize)
            .map(|n| n.id)
    }

    /// This node's customers.
    pub fn customers(&self, id: AsId) -> impl Iterator<Item = AsId> + '_ {
        self.neighbors_with_rel(id, Relationship::Customer)
    }

    /// This node's peers.
    pub fn peers(&self, id: AsId) -> impl Iterator<Item = AsId> + '_ {
        self.neighbors_with_rel(id, Relationship::Peer)
    }

    /// This node's providers.
    pub fn providers(&self, id: AsId) -> impl Iterator<Item = AsId> + '_ {
        self.neighbors_with_rel(id, Relationship::Provider)
    }

    /// Total degree of `id`.
    pub fn degree(&self, id: AsId) -> usize {
        self.nodes[id.index()].neighbors.len()
    }

    /// Number of neighbors of `id` with relationship `rel` (O(1)).
    pub fn degree_with_rel(&self, id: AsId, rel: Relationship) -> usize {
        self.nodes[id.index()].rel_counts[rel.index()] as usize
    }

    /// Transit degree: customers + providers (excludes peering links).
    pub fn transit_degree(&self, id: AsId) -> usize {
        let c = &self.nodes[id.index()].rel_counts;
        (c[0] + c[2]) as usize
    }

    /// Peering degree.
    pub fn peering_degree(&self, id: AsId) -> usize {
        self.degree_with_rel(id, Relationship::Peer)
    }

    /// Multihoming degree: number of providers.
    pub fn multihoming_degree(&self, id: AsId) -> usize {
        self.degree_with_rel(id, Relationship::Provider)
    }

    /// The relationship of `a` toward `b`, or `None` if not adjacent.
    ///
    /// Linear in `a`'s degree; use the lower-degree endpoint when possible.
    pub fn relationship(&self, a: AsId, b: AsId) -> Option<Relationship> {
        self.nodes[a.index()]
            .neighbors
            .iter()
            .find(|n| n.id == b)
            .map(|n| n.rel)
    }

    /// Appends `nb` to `a`'s list alone: the corrupt adjacency the
    /// validator must catch.
    #[cfg(test)]
    pub(crate) fn push_neighbor_unmirrored(&mut self, a: AsId, nb: Neighbor) {
        self.nodes[a.index()].neighbors.push(nb);
    }

    /// True if `a` and `b` are directly connected.
    pub fn has_link(&self, a: AsId, b: AsId) -> bool {
        // Scan the smaller adjacency.
        let (x, y) = if self.degree(a) <= self.degree(b) { (a, b) } else { (b, a) };
        self.nodes[x.index()].neighbors.iter().any(|n| n.id == y)
    }

    fn assert_linkable(&self, a: AsId, b: AsId) {
        assert!(a != b, "self-link at {a}");
        assert!(
            a.index() < self.nodes.len() && b.index() < self.nodes.len(),
            "link endpoint out of range"
        );
        assert!(!self.has_link(a, b), "duplicate link {a}–{b}");
        assert!(
            self.regions(a).intersects(self.regions(b)),
            "link {a}–{b} crosses disjoint regions"
        );
    }

    fn push_neighbor(&mut self, at: AsId, id: AsId, rel: Relationship) {
        let node = &mut self.nodes[at.index()];
        node.neighbors.push(Neighbor { id, rel });
        node.rel_counts[rel.index()] += 1;
    }

    /// Adds a transit link: `customer` buys transit from `provider`.
    ///
    /// # Panics
    /// Panics on self-links, duplicate links, out-of-range ids, or
    /// region-incompatible endpoints.
    pub fn add_transit_link(&mut self, customer: AsId, provider: AsId) {
        self.assert_linkable(customer, provider);
        self.push_neighbor(customer, provider, Relationship::Provider);
        self.push_neighbor(provider, customer, Relationship::Customer);
        self.transit_links += 1;
    }

    /// Adds a settlement-free peering link between `a` and `b`.
    ///
    /// # Panics
    /// Same conditions as [`AsGraph::add_transit_link`].
    pub fn add_peer_link(&mut self, a: AsId, b: AsId) {
        self.assert_linkable(a, b);
        self.push_neighbor(a, b, Relationship::Peer);
        self.push_neighbor(b, a, Relationship::Peer);
        self.peer_links += 1;
    }

    /// Visits every AS strictly above `from` in the provider hierarchy.
    ///
    /// `first_visit(p)` marks `p` as seen and says whether it was unseen;
    /// the caller owns the seen-set, so repeated walks can share one.
    pub(crate) fn walk_up(&self, from: AsId, mut first_visit: impl FnMut(AsId) -> bool) {
        let mut stack = vec![from];
        while let Some(node) = stack.pop() {
            for p in self.providers(node) {
                if first_visit(p) {
                    stack.push(p);
                }
            }
        }
    }

    /// Renders the topology in Graphviz DOT format. Transit links are drawn
    /// as directed `customer -> provider` edges; peering links are dashed
    /// and undirected. Intended for small instances (Fig. 3-style sketches).
    pub fn to_dot(&self) -> String {
        use std::fmt::Write;
        let mut out = String::from("digraph topology {\n  rankdir=BT;\n");
        for id in self.node_ids() {
            let shape = match self.node_type(id) {
                NodeType::T => "doublecircle",
                NodeType::M => "circle",
                NodeType::Cp => "box",
                NodeType::C => "plaintext",
            };
            writeln!(
                out,
                "  n{} [label=\"{} ({})\", shape={shape}];",
                id.0,
                id,
                self.node_type(id)
            )
            .unwrap();
        }
        for id in self.node_ids() {
            for n in self.neighbors(id) {
                match n.rel {
                    Relationship::Provider => {
                        writeln!(out, "  n{} -> n{};", id.0, n.id.0).unwrap();
                    }
                    Relationship::Peer if id < n.id => {
                        writeln!(
                            out,
                            "  n{} -> n{} [dir=none, style=dashed];",
                            id.0, n.id.0
                        )
                        .unwrap();
                    }
                    _ => {}
                }
            }
        }
        out.push_str("}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small fixture:
    ///
    /// ```text
    ///   T0 ==== T1          (peering clique)
    ///   |  \     |
    ///   M2  \    M3         (M2,M3 customers of T0/T1; M2--M3 peer)
    ///   |    \
    ///   C4    C5            (C4 customer of M2, C5 customer of T0)
    /// ```
    fn fixture() -> (AsGraph, Vec<AsId>) {
        let mut g = AsGraph::new();
        let all = RegionSet::all(1);
        let t0 = g.add_node(NodeType::T, all);
        let t1 = g.add_node(NodeType::T, all);
        let m2 = g.add_node(NodeType::M, all);
        let m3 = g.add_node(NodeType::M, all);
        let c4 = g.add_node(NodeType::C, all);
        let c5 = g.add_node(NodeType::C, all);
        g.add_peer_link(t0, t1);
        g.add_transit_link(m2, t0);
        g.add_transit_link(m3, t1);
        g.add_peer_link(m2, m3);
        g.add_transit_link(c4, m2);
        g.add_transit_link(c5, t0);
        (g, vec![t0, t1, m2, m3, c4, c5])
    }

    #[test]
    fn counts_and_degrees() {
        let (g, ids) = fixture();
        assert_eq!(g.len(), 6);
        assert_eq!(g.transit_link_count(), 4);
        assert_eq!(g.peer_link_count(), 2);
        assert_eq!(g.link_count(), 6);
        let t0 = ids[0];
        assert_eq!(g.degree(t0), 3);
        assert_eq!(g.degree_with_rel(t0, Relationship::Customer), 2);
        assert_eq!(g.peering_degree(t0), 1);
        assert_eq!(g.multihoming_degree(ids[2]), 1);
        assert_eq!(g.transit_degree(t0), 2);
        assert_eq!(g.transit_degree(ids[2]), 2); // one provider + one customer
    }

    #[test]
    fn relationships_are_mirrored() {
        let (g, ids) = fixture();
        let (t0, m2) = (ids[0], ids[2]);
        assert_eq!(g.relationship(t0, m2), Some(Relationship::Customer));
        assert_eq!(g.relationship(m2, t0), Some(Relationship::Provider));
        assert_eq!(g.relationship(ids[2], ids[3]), Some(Relationship::Peer));
        assert_eq!(g.relationship(ids[4], ids[5]), None);
    }

    #[test]
    fn neighbor_queries_by_relation() {
        let (g, ids) = fixture();
        let t0 = ids[0];
        let custs: Vec<_> = g.customers(t0).collect();
        assert_eq!(custs, vec![ids[2], ids[5]]);
        assert_eq!(g.peers(t0).collect::<Vec<_>>(), vec![ids[1]]);
        assert_eq!(g.providers(ids[4]).collect::<Vec<_>>(), vec![ids[2]]);
        assert!(g.providers(t0).next().is_none());
    }

    #[test]
    #[should_panic(expected = "duplicate link")]
    fn duplicate_links_rejected() {
        let (mut g, ids) = fixture();
        g.add_transit_link(ids[2], ids[0]);
    }

    #[test]
    #[should_panic(expected = "duplicate link")]
    fn duplicate_link_rejected_regardless_of_kind() {
        let (mut g, ids) = fixture();
        g.add_peer_link(ids[2], ids[0]); // already a transit link
    }

    #[test]
    #[should_panic(expected = "self-link")]
    fn self_links_rejected() {
        let (mut g, ids) = fixture();
        g.add_peer_link(ids[0], ids[0]);
    }

    #[test]
    #[should_panic(expected = "disjoint regions")]
    fn region_incompatible_links_rejected() {
        let mut g = AsGraph::new();
        let a = g.add_node(NodeType::C, RegionSet::single(0));
        let b = g.add_node(NodeType::C, RegionSet::single(1));
        g.add_transit_link(a, b);
    }

    #[test]
    #[should_panic(expected = "≥1 region")]
    fn empty_region_nodes_rejected() {
        let mut g = AsGraph::new();
        g.add_node(NodeType::C, RegionSet::EMPTY);
    }

    #[test]
    fn nodes_of_type_filters() {
        let (g, ids) = fixture();
        assert_eq!(g.nodes_of_type(NodeType::T), vec![ids[0], ids[1]]);
        assert_eq!(g.count_of_type(NodeType::M), 2);
        assert_eq!(g.count_of_type(NodeType::Cp), 0);
    }

    #[test]
    fn dot_output_mentions_every_node_and_link() {
        let (g, _) = fixture();
        let dot = g.to_dot();
        assert!(dot.contains("digraph"));
        for i in 0..6 {
            assert!(dot.contains(&format!("n{i} ")), "node {i} missing");
        }
        // 4 transit edges + 2 dashed peer edges, one arrow each.
        assert_eq!(dot.matches("->").count(), 6);
        assert_eq!(dot.matches("style=dashed").count(), 2);
    }

    #[test]
    fn has_link_is_symmetric() {
        let (g, ids) = fixture();
        assert!(g.has_link(ids[0], ids[2]));
        assert!(g.has_link(ids[2], ids[0]));
        assert!(!g.has_link(ids[4], ids[5]));
    }
}
