//! Structural invariant validation.
//!
//! [`validate`] checks every property the generator promises; it is used by
//! tests, by the `inspect_topology` example, and as a guard before long
//! simulation runs (a corrupted topology would silently skew churn
//! numbers).

use std::collections::BTreeSet;
use std::fmt;

use crate::graph::AsGraph;
use crate::types::{AsId, NodeType, Relationship};
use crate::valley::valley_free_distances;

/// One violated invariant.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// Which rule was broken.
    pub rule: Rule,
    /// Human-readable detail naming the offending nodes.
    pub detail: String,
}

/// The checkable invariant classes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Rule {
    /// The provider relation must be acyclic ("hierarchical structure").
    ProviderCycle,
    /// T nodes have no providers.
    TierOneHasProvider,
    /// T nodes form a complete peering clique.
    TierOneCliqueIncomplete,
    /// Every non-T node has at least one provider.
    MissingProvider,
    /// Stub nodes (CP, C) have no customers.
    StubHasCustomer,
    /// C nodes have no peering links.
    CustomerStubPeers,
    /// Adjacency relationships must mirror (`a` sees customer ⇔ `b` sees
    /// provider).
    AsymmetricLink,
    /// No node appears twice in an adjacency list.
    DuplicateLink,
    /// Linked nodes must share a region.
    RegionMismatch,
    /// A node must not peer with a member of its own customer tree.
    PeerInCustomerTree,
    /// Every node must reach every other node over a valley-free path.
    Disconnected,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}: {}", self.rule, self.detail)
    }
}

/// Validates every structural invariant, returning all violations found
/// (not just the first).
///
/// # Errors
/// A non-empty list of [`Violation`]s.
pub fn validate(g: &AsGraph) -> Result<(), Vec<Violation>> {
    let mut v = Vec::new();
    check_adjacency_consistency(g, &mut v);
    check_node_type_rules(g, &mut v);
    check_tier_one_clique(g, &mut v);
    check_provider_acyclicity(g, &mut v);
    check_regions(g, &mut v);
    check_peer_not_in_customer_tree(g, &mut v);
    check_connectivity(g, &mut v);
    if v.is_empty() {
        Ok(())
    } else {
        Err(v)
    }
}

fn check_adjacency_consistency(g: &AsGraph, out: &mut Vec<Violation>) {
    for id in g.node_ids() {
        let mut seen: BTreeSet<AsId> = BTreeSet::new();
        for n in g.neighbors(id) {
            if !seen.insert(n.id) {
                out.push(Violation {
                    rule: Rule::DuplicateLink,
                    detail: format!("{id} lists {} twice", n.id),
                });
            }
            match g.relationship(n.id, id) {
                Some(back) if back == n.rel.reverse() => {}
                other => out.push(Violation {
                    rule: Rule::AsymmetricLink,
                    detail: format!(
                        "{id} sees {} as {:?} but reverse is {other:?}",
                        n.id, n.rel
                    ),
                }),
            }
        }
    }
}

fn check_node_type_rules(g: &AsGraph, out: &mut Vec<Violation>) {
    for id in g.node_ids() {
        let ty = g.node_type(id);
        let providers = g.multihoming_degree(id);
        let customers = g.degree_with_rel(id, Relationship::Customer);
        match ty {
            NodeType::T => {
                if providers != 0 {
                    out.push(Violation {
                        rule: Rule::TierOneHasProvider,
                        detail: format!("{id} has {providers} providers"),
                    });
                }
            }
            NodeType::M => {
                if providers == 0 {
                    out.push(Violation {
                        rule: Rule::MissingProvider,
                        detail: format!("{id} (M) has no provider"),
                    });
                }
            }
            NodeType::Cp | NodeType::C => {
                if providers == 0 {
                    out.push(Violation {
                        rule: Rule::MissingProvider,
                        detail: format!("{id} ({ty}) has no provider"),
                    });
                }
                if customers != 0 {
                    out.push(Violation {
                        rule: Rule::StubHasCustomer,
                        detail: format!("{id} ({ty}) has {customers} customers"),
                    });
                }
                if ty == NodeType::C && g.peering_degree(id) != 0 {
                    out.push(Violation {
                        rule: Rule::CustomerStubPeers,
                        detail: format!("{id} (C) has peering links"),
                    });
                }
            }
        }
    }
}

fn check_tier_one_clique(g: &AsGraph, out: &mut Vec<Violation>) {
    let ts = g.nodes_of_type(NodeType::T);
    for (i, &a) in ts.iter().enumerate() {
        for &b in &ts[i + 1..] {
            if g.relationship(a, b) != Some(Relationship::Peer) {
                out.push(Violation {
                    rule: Rule::TierOneCliqueIncomplete,
                    detail: format!("{a} and {b} are not peers"),
                });
            }
        }
    }
}

fn check_provider_acyclicity(g: &AsGraph, out: &mut Vec<Violation>) {
    // Kahn's algorithm over the customer→provider DAG.
    let n = g.len();
    let mut indegree = vec![0usize; n]; // number of providers not yet removed
    for id in g.node_ids() {
        indegree[id.index()] = g.multihoming_degree(id);
    }
    // Process nodes whose providers are all removed: start from nodes with
    // zero providers (the T clique) and peel downward.
    let mut stack: Vec<AsId> = g
        .node_ids()
        .filter(|id| indegree[id.index()] == 0)
        .collect();
    let mut removed = 0usize;
    // Peeling direction: removing a node decrements its customers' count
    // of *remaining providers*... but indegree here counts providers, so
    // we peel from provider-less nodes downward through customer links.
    while let Some(u) = stack.pop() {
        removed += 1;
        for c in g.customers(u) {
            indegree[c.index()] -= 1;
            if indegree[c.index()] == 0 {
                stack.push(c);
            }
        }
    }
    if removed != n {
        out.push(Violation {
            rule: Rule::ProviderCycle,
            detail: format!("{} nodes participate in provider cycles", n - removed),
        });
    }
}

fn check_regions(g: &AsGraph, out: &mut Vec<Violation>) {
    for id in g.node_ids() {
        for nb in g.neighbors(id) {
            if id < nb.id && !g.regions(id).intersects(g.regions(nb.id)) {
                out.push(Violation {
                    rule: Rule::RegionMismatch,
                    detail: format!("{id}–{} share no region", nb.id),
                });
            }
        }
    }
}

fn check_peer_not_in_customer_tree(g: &AsGraph, out: &mut Vec<Violation>) {
    // One upward walk per node that peers, all sharing one stamp array:
    // `above[p] == member` marks `p` as an ancestor of `member`.
    let mut above = vec![u32::MAX; g.len()];
    for member in g.node_ids().filter(|&id| g.peering_degree(id) > 0) {
        g.walk_up(member, |p| std::mem::replace(&mut above[p.index()], member.0) != member.0);
        for root in g.peers(member).filter(|root| above[root.index()] == member.0) {
            out.push(Violation {
                rule: Rule::PeerInCustomerTree,
                detail: format!("{root} peers with its customer-tree member {member}"),
            });
        }
    }
}

fn check_connectivity(g: &AsGraph, out: &mut Vec<Violation>) {
    if g.is_empty() {
        return;
    }
    // Valley-free reachability from node 0 (a T node in generated
    // topologies). Since valley-free paths compose through the T clique,
    // one source suffices to detect partition.
    let unreachable = valley_free_distances(g, AsId(0))
        .iter()
        .filter(|d| d.is_none())
        .count();
    if unreachable > 0 {
        out.push(Violation {
            rule: Rule::Disconnected,
            detail: format!("{unreachable} nodes unreachable from AS0"),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::RegionSet;
    use crate::{generate, GrowthScenario};

    #[test]
    fn generated_baseline_validates() {
        let g = generate(GrowthScenario::Baseline, 800, 21);
        validate(&g).unwrap();
    }

    #[test]
    fn all_scenarios_validate_at_small_size() {
        for s in GrowthScenario::ALL {
            let g = generate(s, 600, 22);
            validate(&g).unwrap_or_else(|v| {
                panic!("{s}: {} violations, first: {}", v.len(), v[0])
            });
        }
    }

    #[test]
    fn detects_missing_provider() {
        let mut g = AsGraph::new();
        let r = RegionSet::all(1);
        let _t = g.add_node(NodeType::T, r);
        let _orphan = g.add_node(NodeType::C, r);
        let errs = validate(&g).unwrap_err();
        assert!(errs.iter().any(|v| v.rule == Rule::MissingProvider));
        assert!(errs.iter().any(|v| v.rule == Rule::Disconnected));
    }

    #[test]
    fn detects_incomplete_tier_one_clique() {
        let mut g = AsGraph::new();
        let r = RegionSet::all(1);
        let t0 = g.add_node(NodeType::T, r);
        let t1 = g.add_node(NodeType::T, r);
        let t2 = g.add_node(NodeType::T, r);
        g.add_peer_link(t0, t1);
        g.add_peer_link(t0, t2);
        // t1–t2 missing.
        let errs = validate(&g).unwrap_err();
        assert!(errs.iter().any(|v| v.rule == Rule::TierOneCliqueIncomplete));
    }

    #[test]
    fn detects_provider_cycle() {
        // Build a cycle by hand: a→b→c→a through provider links. The graph
        // type allows it (it only checks per-link rules); the validator
        // must flag it.
        let mut g = AsGraph::new();
        let r = RegionSet::all(1);
        let t = g.add_node(NodeType::T, r);
        let a = g.add_node(NodeType::M, r);
        let b = g.add_node(NodeType::M, r);
        let c = g.add_node(NodeType::M, r);
        g.add_transit_link(a, t); // keep a rooted so other checks pass
        g.add_transit_link(a, b); // b provides a
        g.add_transit_link(b, c); // c provides b
        g.add_transit_link(c, a); // a provides c — cycle!
        let errs = validate(&g).unwrap_err();
        assert!(errs.iter().any(|v| v.rule == Rule::ProviderCycle), "{errs:?}");
    }

    #[test]
    fn detects_stub_with_customer() {
        let mut g = AsGraph::new();
        let r = RegionSet::all(1);
        let t = g.add_node(NodeType::T, r);
        let cp = g.add_node(NodeType::Cp, r);
        let c = g.add_node(NodeType::C, r);
        g.add_transit_link(cp, t);
        g.add_transit_link(c, cp); // stub CP acquires a customer
        let errs = validate(&g).unwrap_err();
        assert!(errs.iter().any(|v| v.rule == Rule::StubHasCustomer));
    }

    #[test]
    fn detects_peering_c_node() {
        let mut g = AsGraph::new();
        let r = RegionSet::all(1);
        let t = g.add_node(NodeType::T, r);
        let c1 = g.add_node(NodeType::C, r);
        let c2 = g.add_node(NodeType::C, r);
        g.add_transit_link(c1, t);
        g.add_transit_link(c2, t);
        g.add_peer_link(c1, c2);
        let errs = validate(&g).unwrap_err();
        assert!(errs.iter().any(|v| v.rule == Rule::CustomerStubPeers));
    }

    #[test]
    fn detects_peer_inside_customer_tree() {
        let mut g = AsGraph::new();
        let r = RegionSet::all(1);
        let t = g.add_node(NodeType::T, r);
        let m = g.add_node(NodeType::M, r);
        let cp = g.add_node(NodeType::Cp, r);
        g.add_transit_link(m, t);
        g.add_transit_link(cp, m);
        g.add_peer_link(cp, t); // t peers with cp, which sits in t's tree
        let errs = validate(&g).unwrap_err();
        assert!(errs.iter().any(|v| v.rule == Rule::PeerInCustomerTree));
    }

    #[test]
    fn violation_display_names_rule() {
        let v = Violation {
            rule: Rule::RegionMismatch,
            detail: "AS1–AS2 share no region".into(),
        };
        let s = v.to_string();
        assert!(s.contains("RegionMismatch"));
        assert!(s.contains("AS1"));
    }
}
