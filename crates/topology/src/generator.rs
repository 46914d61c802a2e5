//! Two-phase top-down topology construction (§3 of the paper).
//!
//! Phase 1 — nodes and transit links:
//!
//! 1. Create the tier-1 clique (T nodes, present in all regions, fully
//!    meshed with peering links).
//! 2. Add M nodes one at a time. Each draws a provider count uniform in
//!    `[1, 2·dM − 1]` (mean `dM`), fills each slot from the T pool with
//!    probability `tM` and from the already-added M pool otherwise, and
//!    selects within the pool by **preferential attachment** on transit
//!    degree. Only same-region candidates are eligible. Because an M node
//!    can only buy transit from *earlier* M nodes, the provider relation is
//!    acyclic by construction (the paper's "hierarchical structure").
//! 3. Add CP and C stubs the same way, with their own `d`/`t` knobs.
//!
//! Phase 2 — peering links:
//!
//! 4. Each M node draws `U[0, 2·pM]` peering links to other M nodes,
//!    selected by preferential attachment **on peering degree**.
//! 5. Each CP node draws `U[0, 2·pCP−M]` links to M nodes and
//!    `U[0, 2·pCP−CP]` links to other CP nodes, selected uniformly.
//!
//! Throughout phase 2 the generator enforces the paper's economic
//! invariant: a node never peers with a node in its own customer tree
//! (such a link would cannibalize its own transit revenue).
//!
//! # Cost of a pick
//!
//! Node ids are dense in creation order, so each candidate pool (T, M, CP)
//! is a contiguous id range, and each (pool, weight kind) pair has one
//! incrementally maintained [`Sampler`]: transit degree + 1 over T and
//! over M, peering degree + 1 over M, constant 1 over M and over CP.
//! Linking bumps the endpoints' weights; the node being wired hides
//! itself, its neighbours and the candidates it rejected, and unhides them
//! when it is done. A pick is `O(log pool)` plus `O(degree)` of hiding
//! once per wired node, and reproduces `Rng::choose_weighted` on the
//! equivalent weight vector draw for draw (see [`crate::sampler`]), so
//! topologies are bit-identical to those of the linear scan it replaced.
//!
//! The customer-tree rule reads **provider-ancestor bitsets**, one row
//! per M node, built as the node is wired: the provider DAG only grows
//! downward and is complete before phase 2, and neither T nodes (never
//! drawn) nor stubs (no customers) can be the root of a violated tree.

use bgpscale_simkernel::rng::{Rng, Xoshiro256StarStar};

use crate::graph::AsGraph;
use crate::params::TopologyParams;
use crate::sampler::Sampler;
use crate::scenario::GrowthScenario;
use crate::types::{AsId, NodeType, RegionSet};

/// Integer work counters of one generator run: what the draw machinery
/// did, independent of the clock. Deterministic per `(params, seed)`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GenStats {
    /// Weighted draws that consumed a uniform from the generator.
    pub draws: u64,
    /// Drawn peer candidates rejected by the customer-tree rule.
    pub rejected_draws: u64,
    /// Fenwick point updates: activations, ±1 bumps, hides and unhides.
    pub weight_updates: u64,
    /// Customer-tree queries answered from the ancestor bitsets.
    pub ancestry_checks: u64,
}

/// Generates a topology for `scenario` at size `n` with the given seed.
///
/// Equal inputs produce bit-identical topologies.
pub fn generate(scenario: GrowthScenario, n: usize, seed: u64) -> AsGraph {
    generate_with_params(&scenario.params(n), seed)
}

/// Generates a topology from explicit parameters (the escape hatch for
/// custom what-if studies beyond the paper's scenarios).
///
/// # Panics
/// Panics if `params.check()` fails.
pub fn generate_with_params(params: &TopologyParams, seed: u64) -> AsGraph {
    generate_with_stats(params, seed).0
}

/// [`generate_with_params`], also returning the run's [`GenStats`].
pub fn generate_with_stats(params: &TopologyParams, seed: u64) -> (AsGraph, GenStats) {
    params
        .check()
        .unwrap_or_else(|e| panic!("invalid topology parameters: {e}"));
    let mut b = Builder::new(params, seed);
    b.add_tier1_clique();
    b.add_m_nodes();
    b.add_stubs(NodeType::Cp);
    b.add_stubs(NodeType::C);
    b.add_m_peering();
    b.add_cp_peering();
    for pool in &b.pools {
        b.stats.draws += pool.draws;
        b.stats.weight_updates += pool.updates;
    }
    (b.graph, b.stats)
}

// Indices into `Builder::pools`.
const T_TRANSIT: usize = 0;
const M_TRANSIT: usize = 1;
const M_PEERING: usize = 2;
const M_UNIFORM: usize = 3;
const CP_UNIFORM: usize = 4;

struct Builder<'a> {
    p: &'a TopologyParams,
    rng: Xoshiro256StarStar,
    graph: AsGraph,
    pools: [Sampler; 5],
    /// Row `i`: the M nodes (by M-pool position) strictly above M node `i`
    /// in the provider DAG, `anc_words` words a row.
    ancestors: Vec<u64>,
    anc_words: usize,
    stats: GenStats,
}

impl<'a> Builder<'a> {
    fn new(p: &'a TopologyParams, seed: u64) -> Self {
        let (m_base, cp_base) = (p.n_t, p.n_t + p.n_m);
        let anc_words = p.n_m.div_ceil(64);
        Builder {
            p,
            rng: Xoshiro256StarStar::new(seed),
            graph: AsGraph::with_capacity(p.n),
            pools: [
                Sampler::new(0, p.n_t),
                Sampler::new(m_base, p.n_m),
                Sampler::new(m_base, p.n_m),
                Sampler::new(m_base, p.n_m),
                Sampler::new(cp_base, p.n_cp),
            ],
            ancestors: vec![0; p.n_m * anc_words],
            anc_words,
            stats: GenStats::default(),
        }
    }

    /// Draws a region set: `two_region_frac` of nodes span two distinct
    /// regions, the rest one.
    fn draw_regions(&mut self, two_region_frac: f64) -> RegionSet {
        let r1 = self.rng.next_below(self.p.regions as u64) as usize;
        let mut set = RegionSet::single(r1);
        if self.p.regions > 1 && self.rng.chance(two_region_frac) {
            loop {
                let r2 = self.rng.next_below(self.p.regions as u64) as usize;
                if r2 != r1 {
                    set.insert(r2);
                    break;
                }
            }
        }
        set
    }

    /// Provider count: uniform in `[1, 2·mean − 1]`, stochastically
    /// rounded, so the expectation is exactly `mean` and the minimum is 1
    /// (every non-T node needs a provider).
    fn draw_provider_count(&mut self, mean: f64) -> usize {
        if mean <= 1.0 {
            return 1;
        }
        let x = self.rng.next_f64_range(1.0, 2.0 * mean - 1.0);
        (self.rng.round_stochastic(x) as usize).max(1)
    }

    /// Peering count: uniform in `[0, 2·mean]`, stochastically rounded
    /// (expectation exactly `mean`; zero is allowed).
    fn draw_peer_count(&mut self, mean: f64) -> usize {
        if mean <= 0.0 {
            return 0;
        }
        let x = self.rng.next_f64_range(0.0, 2.0 * mean);
        self.rng.round_stochastic(x) as usize
    }

    fn add_tier1_clique(&mut self) {
        let all_regions = RegionSet::all(self.p.regions);
        for _ in 0..self.p.n_t {
            let id = self.graph.add_node(NodeType::T, all_regions);
            self.pools[T_TRANSIT].activate(id, all_regions, 1);
        }
        for i in 0..self.p.n_t as u32 {
            for j in (i + 1)..self.p.n_t as u32 {
                self.graph.add_peer_link(AsId(i), AsId(j));
            }
        }
    }

    /// Selects and wires the providers for one freshly added node, by
    /// preferential attachment on transit degree (+1 smoothing so
    /// degree-zero candidates remain reachable) among the region-compatible
    /// candidates not chosen yet.
    ///
    /// `t_prob` is the probability that a slot draws from the T pool
    /// rather than from the M nodes wired so far. The PREFER-* caps of
    /// §5.4 are applied here: when a pool's cap is reached (or the pool has
    /// no eligible candidate), the slot falls back to the other pool; if
    /// neither pool can serve, the slot is dropped.
    fn wire_providers(&mut self, me: AsId, count: usize, t_prob: f64, is_m_node: bool) {
        let t_cap = if is_m_node {
            self.p.max_t_providers_for_m.unwrap_or(usize::MAX)
        } else {
            usize::MAX
        };
        let regions = self.graph.regions(me);
        // Indexed by `T_TRANSIT` / `M_TRANSIT`: the pool's cap and the
        // providers taken from it, which stay hidden until the end.
        let cap = [t_cap, self.p.max_m_providers.unwrap_or(usize::MAX)];
        let mut used = [0usize; 2];
        for _ in 0..count {
            let mut want_t = self.rng.chance(t_prob);
            if want_t && used[T_TRANSIT] >= cap[T_TRANSIT] {
                want_t = false;
            }
            if !want_t && used[M_TRANSIT] >= cap[M_TRANSIT] {
                want_t = true;
            }
            if want_t && used[T_TRANSIT] >= cap[T_TRANSIT] {
                break; // both pools capped
            }
            let (first, other) = if want_t { (T_TRANSIT, M_TRANSIT) } else { (M_TRANSIT, T_TRANSIT) };
            let mut pool = first;
            let mut provider = self.pools[first].draw(&mut self.rng, regions);
            if provider.is_none() && used[other] < cap[other] {
                pool = other;
                provider = self.pools[other].draw(&mut self.rng, regions);
            }
            let Some(provider) = provider else { break };
            used[pool] += 1;
            self.graph.add_transit_link(me, provider);
            // Hidden first: the bump then costs no tree update of its own.
            self.pools[pool].hide(provider);
            self.pools[pool].bump(provider);
        }
        self.pools[T_TRANSIT].unhide_to(0);
        self.pools[M_TRANSIT].unhide_to(0);
        assert!(
            used != [0, 0],
            "node {me} ended up with no provider (pool exhaustion should be impossible: T pool is global)"
        );
    }

    fn add_m_nodes(&mut self) {
        for i in 0..self.p.n_m {
            let regions = self.draw_regions(self.p.m_two_region_frac);
            let id = self.graph.add_node(NodeType::M, regions);
            let count = self.draw_provider_count(self.p.d_m);
            // `id` joins the M pools only after it is wired, so it buys
            // from earlier M nodes only: the provider relation is acyclic.
            self.wire_providers(id, count, self.p.t_m, true);
            let (above, row) = self.ancestors.split_at_mut(i * self.anc_words);
            for j in self.graph.providers(id).filter_map(|p| self.pools[M_TRANSIT].index(p)) {
                let theirs = &above[j * self.anc_words..][..self.anc_words];
                row.iter_mut().zip(theirs).for_each(|(mine, t)| *mine |= t);
                row[j / 64] |= 1 << (j % 64);
            }
            let transit_weight = self.graph.transit_degree(id) as u64 + 1;
            self.pools[M_TRANSIT].activate(id, regions, transit_weight);
            self.pools[M_PEERING].activate(id, regions, 1);
            self.pools[M_UNIFORM].activate(id, regions, 1);
        }
    }

    fn add_stubs(&mut self, ty: NodeType) {
        let (count, two_region_frac, d, t_prob) = match ty {
            NodeType::Cp => (self.p.n_cp, self.p.cp_two_region_frac, self.p.d_cp, self.p.t_cp),
            NodeType::C => (self.p.n_c, 0.0, self.p.d_c, self.p.t_c),
            _ => unreachable!("add_stubs only handles stub types"),
        };
        for _ in 0..count {
            let regions = self.draw_regions(two_region_frac);
            let id = self.graph.add_node(ty, regions);
            let slots = self.draw_provider_count(d);
            self.wire_providers(id, slots, t_prob, false);
            if ty == NodeType::Cp {
                self.pools[CP_UNIFORM].activate(id, regions, 1);
            }
        }
    }

    /// True if `node` lies in the customer tree of `root`. Only M roots
    /// can say yes: stubs have no customers and T nodes are never drawn.
    fn in_customer_tree(&mut self, root: AsId, node: AsId) -> bool {
        let Some(r) = self.pools[M_TRANSIT].index(root) else {
            return false;
        };
        self.stats.ancestry_checks += 1;
        let above = |i: usize| self.ancestors[i * self.anc_words + r / 64] & (1 << (r % 64)) != 0;
        match self.pools[M_TRANSIT].index(node) {
            Some(i) => above(i),
            // A stub: below `root` if it buys from it or from anything below it.
            None => self.graph.providers(node).any(|p| {
                p == root || self.pools[M_TRANSIT].index(p).is_some_and(above)
            }),
        }
    }

    /// Draws `U[0, 2·mean]` peers for `me` from pool `k` and links them.
    ///
    /// Candidates that cannot be linked — `me` itself and its neighbours —
    /// are hidden while `me` draws; a drawn candidate that fails the
    /// customer-tree rule is hidden for the rest of that one pick and the
    /// pick redrawn, so the (costlier) rule is only evaluated on drawn
    /// candidates. A pick that exhausts the pool ends `me`'s turn.
    fn add_peers(&mut self, me: AsId, mean: f64, k: usize) {
        let count = self.draw_peer_count(mean);
        if count == 0 {
            return;
        }
        let regions = self.graph.regions(me);
        self.pools[k].hide(me);
        for nb in self.graph.neighbors(me) {
            self.pools[k].hide(nb.id);
        }
        for _ in 0..count {
            let mark = self.pools[k].hidden_len();
            let peer = loop {
                let Some(cand) = self.pools[k].draw(&mut self.rng, regions) else {
                    break None;
                };
                if !self.in_customer_tree(me, cand) && !self.in_customer_tree(cand, me) {
                    break Some(cand);
                }
                self.stats.rejected_draws += 1;
                self.pools[k].hide(cand);
            };
            self.pools[k].unhide_to(mark);
            let Some(peer) = peer else { break };
            self.graph.add_peer_link(me, peer);
            self.pools[k].hide(peer);
            if k == M_PEERING {
                // The only weights that follow peering degree; both
                // endpoints are hidden, so these land when `me` is done.
                self.pools[k].bump(me);
                self.pools[k].bump(peer);
            }
        }
        self.pools[k].unhide_to(0);
    }

    fn add_m_peering(&mut self) {
        for i in 0..self.p.n_m {
            // Preferential attachment "considering only the peering
            // degree of each potential peer" (§3).
            self.add_peers(AsId((self.p.n_t + i) as u32), self.p.p_m, M_PEERING);
        }
    }

    fn add_cp_peering(&mut self) {
        for i in 0..self.p.n_cp {
            // CP nodes select peers uniformly within their region (§3).
            let me = AsId((self.p.n_t + self.p.n_m + i) as u32);
            self.add_peers(me, self.p.p_cp_m, M_UNIFORM);
            self.add_peers(me, self.p.p_cp_cp, CP_UNIFORM);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Relationship;

    fn baseline(n: usize, seed: u64) -> AsGraph {
        generate(GrowthScenario::Baseline, n, seed)
    }

    #[test]
    fn generates_requested_population() {
        let g = baseline(1_000, 1);
        let p = GrowthScenario::Baseline.params(1_000);
        assert_eq!(g.len(), 1_000);
        assert_eq!(g.count_of_type(NodeType::T), p.n_t);
        assert_eq!(g.count_of_type(NodeType::M), p.n_m);
        assert_eq!(g.count_of_type(NodeType::Cp), p.n_cp);
        assert_eq!(g.count_of_type(NodeType::C), p.n_c);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = baseline(500, 7);
        let b = baseline(500, 7);
        assert_eq!(a.link_count(), b.link_count());
        for id in a.node_ids() {
            assert_eq!(a.neighbors(id), b.neighbors(id), "adjacency differs at {id}");
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = baseline(500, 1);
        let b = baseline(500, 2);
        let differs = a
            .node_ids()
            .any(|id| a.neighbors(id) != b.neighbors(id));
        assert!(differs);
    }

    #[test]
    fn tier1_forms_full_clique() {
        let g = baseline(800, 3);
        let ts = g.nodes_of_type(NodeType::T);
        for (i, &a) in ts.iter().enumerate() {
            for &b in &ts[i + 1..] {
                assert_eq!(g.relationship(a, b), Some(Relationship::Peer), "{a}–{b}");
            }
        }
    }

    #[test]
    fn t_nodes_have_no_providers() {
        let g = baseline(800, 4);
        for t in g.nodes_of_type(NodeType::T) {
            assert_eq!(g.multihoming_degree(t), 0);
        }
    }

    #[test]
    fn every_non_t_node_has_a_provider() {
        let g = baseline(1_000, 5);
        for id in g.node_ids() {
            if g.node_type(id) != NodeType::T {
                assert!(g.multihoming_degree(id) >= 1, "{id} has no provider");
            }
        }
    }

    #[test]
    fn stubs_have_no_customers() {
        let g = baseline(1_000, 6);
        for id in g.node_ids() {
            if matches!(g.node_type(id), NodeType::Cp | NodeType::C) {
                assert_eq!(g.degree_with_rel(id, Relationship::Customer), 0, "{id}");
            }
        }
    }

    #[test]
    fn c_nodes_never_peer() {
        let g = baseline(1_000, 7);
        for id in g.node_ids() {
            if g.node_type(id) == NodeType::C {
                assert_eq!(g.peering_degree(id), 0, "{id} has peer links");
            }
        }
    }

    #[test]
    fn mean_multihoming_degree_tracks_parameter() {
        let g = baseline(2_000, 8);
        let p = GrowthScenario::Baseline.params(2_000);
        let ms = g.nodes_of_type(NodeType::M);
        let mean_m: f64 =
            ms.iter().map(|&m| g.multihoming_degree(m) as f64).sum::<f64>() / ms.len() as f64;
        assert!(
            (mean_m - p.d_m).abs() < 0.35,
            "mean M multihoming {mean_m} vs target {}",
            p.d_m
        );
        let cs = g.nodes_of_type(NodeType::C);
        let mean_c: f64 =
            cs.iter().map(|&c| g.multihoming_degree(c) as f64).sum::<f64>() / cs.len() as f64;
        assert!(
            (mean_c - p.d_c).abs() < 0.1,
            "mean C multihoming {mean_c} vs target {}",
            p.d_c
        );
    }

    #[test]
    fn no_peering_scenario_has_only_clique_peering() {
        let g = generate(GrowthScenario::NoPeering, 1_000, 9);
        let p = GrowthScenario::NoPeering.params(1_000);
        let clique_links = p.n_t * (p.n_t - 1) / 2;
        assert_eq!(g.peer_link_count(), clique_links);
    }

    #[test]
    fn tree_scenario_gives_single_provider_everywhere() {
        let g = generate(GrowthScenario::Tree, 1_000, 10);
        for id in g.node_ids() {
            if g.node_type(id) != NodeType::T {
                assert_eq!(g.multihoming_degree(id), 1, "{id}");
            }
        }
    }

    #[test]
    fn prefer_middle_caps_t_providers_of_m() {
        let g = generate(GrowthScenario::PreferMiddle, 1_000, 11);
        for m in g.nodes_of_type(NodeType::M) {
            let t_providers = g
                .providers(m)
                .filter(|&p| g.node_type(p) == NodeType::T)
                .count();
            assert!(t_providers <= 1, "{m} has {t_providers} T providers");
        }
        // Stubs should buy from M nodes (t probabilities are zero); the T
        // fallback only triggers when a region has no M candidate.
        let stub_t_links: usize = g
            .node_ids()
            .filter(|&id| matches!(g.node_type(id), NodeType::Cp | NodeType::C))
            .map(|id| g.providers(id).filter(|&p| g.node_type(p) == NodeType::T).count())
            .sum();
        let stub_links: usize = g
            .node_ids()
            .filter(|&id| matches!(g.node_type(id), NodeType::Cp | NodeType::C))
            .map(|id| g.multihoming_degree(id))
            .sum();
        assert!(
            (stub_t_links as f64) < 0.05 * stub_links as f64,
            "{stub_t_links}/{stub_links} stub transit links go to T under PREFER-MIDDLE"
        );
    }

    #[test]
    fn prefer_top_caps_m_providers() {
        let g = generate(GrowthScenario::PreferTop, 1_000, 12);
        for id in g.node_ids() {
            if g.node_type(id) == NodeType::T {
                continue;
            }
            let m_providers = g
                .providers(id)
                .filter(|&p| g.node_type(p) == NodeType::M)
                .count();
            assert!(m_providers <= 1, "{id} has {m_providers} M providers");
        }
    }

    #[test]
    fn all_links_respect_regions() {
        let g = baseline(1_000, 14);
        for id in g.node_ids() {
            for n in g.neighbors(id) {
                assert!(g.regions(id).intersects(g.regions(n.id)));
            }
        }
    }

    #[test]
    fn transit_clique_has_no_m_nodes_and_many_t() {
        let g = generate(GrowthScenario::TransitClique, 600, 15);
        assert_eq!(g.count_of_type(NodeType::M), 0);
        assert_eq!(g.count_of_type(NodeType::T), 90);
    }

    #[test]
    fn peering_degree_preferential_attachment_concentrates() {
        // Under Baseline, M–M peering by preferential attachment should
        // produce a max peering degree well above the mean.
        let g = baseline(3_000, 16);
        let ms = g.nodes_of_type(NodeType::M);
        let degs: Vec<usize> = ms.iter().map(|&m| g.peering_degree(m)).collect();
        let mean = degs.iter().sum::<usize>() as f64 / degs.len() as f64;
        let max = *degs.iter().max().unwrap();
        assert!(
            max as f64 > 3.0 * mean,
            "max peering degree {max} not heavy-tailed vs mean {mean}"
        );
    }

    #[test]
    fn work_per_link_does_not_grow_with_n() {
        // Counted, not timed: sampler operations per link. The linear scan
        // this replaced touched every pool member per draw (∝ n).
        let per_link = |n: usize| {
            let (g, s) = generate_with_stats(&GrowthScenario::Baseline.params(n), 42);
            (s.weight_updates + s.draws) as f64 / g.link_count() as f64
        };
        let (small, large) = (per_link(1_000), per_link(8_000));
        assert!(large <= 1.5 * small, "{small:.2} ops/link at n=1000, {large:.2} at n=8000");
    }

    #[test]
    fn stats_are_pinned_at_n2000() {
        let (g, stats) = generate_with_stats(&GrowthScenario::Baseline.params(2_000), 42);
        assert_eq!((g.transit_link_count(), g.peer_link_count()), (2_712, 513));
        assert_eq!(
            stats,
            GenStats { draws: 3_256, rejected_draws: 37, weight_updates: 9_998, ancestry_checks: 975 }
        );
    }

    #[test]
    #[should_panic(expected = "invalid topology parameters")]
    fn caps_that_exclude_both_pools_rejected() {
        let mut p = GrowthScenario::Baseline.params(1_000);
        p.max_t_providers_for_m = Some(0);
        p.max_m_providers = Some(0);
        let _ = generate_with_params(&p, 1);
    }

    #[test]
    fn m_cap_of_zero_sends_every_slot_to_tier_one() {
        let mut p = GrowthScenario::Baseline.params(600);
        p.max_m_providers = Some(0);
        let g = generate_with_params(&p, 3);
        for id in g.node_ids() {
            assert!(g.providers(id).all(|p| g.node_type(p) == NodeType::T), "{id}");
        }
        crate::validate::validate(&g).unwrap();
    }

    #[test]
    #[should_panic(expected = "invalid topology parameters")]
    fn bad_params_rejected() {
        let mut p = GrowthScenario::Baseline.params(1_000);
        p.n_c += 5;
        let _ = generate_with_params(&p, 1);
    }
}
