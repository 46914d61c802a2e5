//! Graph metrics used to verify the paper's four "stable topological
//! properties" and to fill in the realized columns of Table 1.

use bgpscale_simkernel::rng::{Rng, Xoshiro256StarStar};

use crate::graph::AsGraph;
use crate::types::AsId;
use crate::valley::valley_free_distances;

/// Degree above which local clustering is estimated by sampling neighbor
/// pairs instead of examining all of them (keeps TRANSIT-CLIQUE tractable).
const CLUSTERING_EXACT_DEGREE_LIMIT: usize = 128;
/// Number of neighbor pairs sampled per high-degree node.
const CLUSTERING_SAMPLES: usize = 2_000;

/// A one-page quantitative summary of a topology instance: the realized
/// values behind Table 1 and the four stable properties.
#[derive(Clone, Debug)]
pub struct TopologySummary {
    /// Total nodes.
    pub n: usize,
    /// Population per type `[T, M, CP, C]`.
    pub population: [usize; 4],
    /// Transit links.
    pub transit_links: usize,
    /// Peering links.
    pub peer_links: usize,
    /// Mean multihoming degree per type `[T, M, CP, C]` (T is always 0).
    pub mean_mhd: [f64; 4],
    /// Mean peering degree per type `[T, M, CP, C]`.
    pub mean_peering: [f64; 4],
    /// Maximum total degree in the graph.
    pub max_degree: usize,
    /// Mean total degree.
    pub mean_degree: f64,
    /// Average local clustering coefficient.
    pub clustering: f64,
    /// Mean valley-free path length over sampled source nodes.
    pub avg_path_length: f64,
}

impl TopologySummary {
    /// Computes the summary. `seed` drives the sampling used for the
    /// clustering coefficient and path lengths.
    pub fn compute(g: &AsGraph, seed: u64) -> TopologySummary {
        let mut population = [0usize; 4];
        let mut mhd_sum = [0f64; 4];
        let mut peer_sum = [0f64; 4];
        for id in g.node_ids() {
            let slot = g.node_type(id).index();
            population[slot] += 1;
            mhd_sum[slot] += g.multihoming_degree(id) as f64;
            peer_sum[slot] += g.peering_degree(id) as f64;
        }
        let mut mean_mhd = [0f64; 4];
        let mut mean_peering = [0f64; 4];
        for i in 0..4 {
            if population[i] > 0 {
                mean_mhd[i] = mhd_sum[i] / population[i] as f64;
                mean_peering[i] = peer_sum[i] / population[i] as f64;
            }
        }
        let degrees: Vec<usize> = g.node_ids().map(|id| g.degree(id)).collect();
        TopologySummary {
            n: g.len(),
            population,
            transit_links: g.transit_link_count(),
            peer_links: g.peer_link_count(),
            mean_mhd,
            mean_peering,
            max_degree: degrees.iter().copied().max().unwrap_or(0),
            mean_degree: degrees.iter().sum::<usize>() as f64 / g.len().max(1) as f64,
            clustering: clustering_coefficient(g, seed),
            avg_path_length: avg_valley_free_path_length(g, 30, seed),
        }
    }
}

/// The total-degree sequence, descending.
pub fn degree_sequence(g: &AsGraph) -> Vec<usize> {
    let mut d: Vec<usize> = g.node_ids().map(|id| g.degree(id)).collect();
    d.sort_unstable_by(|a, b| b.cmp(a));
    d
}

/// Complementary CDF of the degree distribution: for each distinct degree
/// `d` (ascending) the fraction of nodes with degree ≥ `d`. The paper's
/// power-law property shows up as an approximately straight line of these
/// points on log-log axes.
pub fn degree_ccdf(g: &AsGraph) -> Vec<(usize, f64)> {
    let mut degrees = degree_sequence(g);
    degrees.reverse(); // ascending
    let n = degrees.len();
    let mut out = Vec::new();
    let mut i = 0;
    while i < n {
        let d = degrees[i];
        // Fraction of nodes with degree >= d.
        out.push((d, (n - i) as f64 / n as f64));
        while i < n && degrees[i] == d {
            i += 1;
        }
    }
    out
}

/// Average local clustering coefficient (Watts–Strogatz definition),
/// averaged over nodes of degree ≥ 2.
///
/// For nodes whose degree exceeds an internal threshold the local
/// coefficient is estimated from sampled neighbor pairs; `seed` makes the
/// estimate reproducible.
pub fn clustering_coefficient(g: &AsGraph, seed: u64) -> f64 {
    let mut rng = Xoshiro256StarStar::new(seed);
    let mut total = 0.0;
    let mut counted = 0usize;
    for id in g.node_ids() {
        let nbrs: Vec<AsId> = g.neighbors(id).iter().map(|n| n.id).collect();
        let k = nbrs.len();
        if k < 2 {
            continue;
        }
        let local = if k <= CLUSTERING_EXACT_DEGREE_LIMIT {
            let mut closed = 0usize;
            for i in 0..k {
                for j in (i + 1)..k {
                    if g.has_link(nbrs[i], nbrs[j]) {
                        closed += 1;
                    }
                }
            }
            closed as f64 / (k * (k - 1) / 2) as f64
        } else {
            let mut closed = 0usize;
            for _ in 0..CLUSTERING_SAMPLES {
                let i = rng.next_below(k as u64) as usize;
                let mut j = rng.next_below(k as u64 - 1) as usize;
                if j >= i {
                    j += 1;
                }
                if g.has_link(nbrs[i], nbrs[j]) {
                    closed += 1;
                }
            }
            closed as f64 / CLUSTERING_SAMPLES as f64
        };
        total += local;
        counted += 1;
    }
    if counted == 0 {
        0.0
    } else {
        total / counted as f64
    }
}

/// Mean valley-free (policy-compliant) path length in AS hops, estimated
/// from `samples` random source nodes to all destinations.
///
/// This is the quantity the paper reports as "constant at about 4 hops".
pub fn avg_valley_free_path_length(g: &AsGraph, samples: usize, seed: u64) -> f64 {
    if g.len() < 2 {
        return 0.0;
    }
    let mut rng = Xoshiro256StarStar::new(seed ^ 0xA5A5_5A5A);
    let mut sum = 0u64;
    let mut pairs = 0u64;
    for _ in 0..samples {
        let src = AsId(rng.next_below(g.len() as u64) as u32);
        for (i, d) in valley_free_distances(g, src).iter().enumerate() {
            if i != src.index() {
                if let Some(hops) = d {
                    sum += *hops as u64;
                    pairs += 1;
                }
            }
        }
    }
    if pairs == 0 {
        0.0
    } else {
        sum as f64 / pairs as f64
    }
}

/// Degree assortativity: the Pearson correlation of the degrees at the
/// two ends of each link. The AS-level Internet is famously
/// **disassortative** (high-degree providers connect to low-degree
/// stubs), so generated topologies should yield a clearly negative value
/// — another qualitative check on the generator.
pub fn degree_assortativity(g: &AsGraph) -> f64 {
    // Sum over each undirected edge once.
    let mut n = 0.0f64;
    let mut sum_xy = 0.0;
    let mut sum_x = 0.0;
    let mut sum_y = 0.0;
    let mut sum_x2 = 0.0;
    let mut sum_y2 = 0.0;
    for id in g.node_ids() {
        let dx = g.degree(id) as f64;
        for nb in g.neighbors(id) {
            if nb.id <= id {
                continue; // count each link once
            }
            let dy = g.degree(nb.id) as f64;
            // Symmetrize: include (x, y) and (y, x) so the correlation is
            // over unordered edge endpoints.
            for (a, b) in [(dx, dy), (dy, dx)] {
                n += 1.0;
                sum_xy += a * b;
                sum_x += a;
                sum_y += b;
                sum_x2 += a * a;
                sum_y2 += b * b;
            }
        }
    }
    if n < 2.0 {
        return 0.0;
    }
    let cov = sum_xy / n - (sum_x / n) * (sum_y / n);
    let var_x = sum_x2 / n - (sum_x / n).powi(2);
    let var_y = sum_y2 / n - (sum_y / n).powi(2);
    if var_x <= 0.0 || var_y <= 0.0 {
        0.0
    } else {
        cov / (var_x * var_y).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{NodeType, RegionSet};
    use crate::{generate, GrowthScenario};

    fn triangle_plus_tail() -> AsGraph {
        // M0–M1–M2 triangle of peers plus a customer C3 under M0.
        let mut g = AsGraph::new();
        let r = RegionSet::all(1);
        let m0 = g.add_node(NodeType::M, r);
        let m1 = g.add_node(NodeType::M, r);
        let m2 = g.add_node(NodeType::M, r);
        let c3 = g.add_node(NodeType::C, r);
        g.add_peer_link(m0, m1);
        g.add_peer_link(m1, m2);
        g.add_peer_link(m0, m2);
        g.add_transit_link(c3, m0);
        g
    }

    #[test]
    fn clustering_of_triangle_is_computed_exactly() {
        let g = triangle_plus_tail();
        // m1, m2: both neighbors connected → 1.0 each.
        // m0: neighbors {m1, m2, c3}; pairs: (m1,m2) closed, (m1,c3) open,
        // (m2,c3) open → 1/3. c3 has degree 1 → excluded.
        let c = clustering_coefficient(&g, 1);
        let expected = (1.0 + 1.0 + 1.0 / 3.0) / 3.0;
        assert!((c - expected).abs() < 1e-12, "{c} vs {expected}");
    }

    #[test]
    fn clustering_zero_for_star() {
        let mut g = AsGraph::new();
        let r = RegionSet::all(1);
        let hub = g.add_node(NodeType::M, r);
        for _ in 0..5 {
            let leaf = g.add_node(NodeType::C, r);
            g.add_transit_link(leaf, hub);
        }
        assert_eq!(clustering_coefficient(&g, 1), 0.0);
    }

    #[test]
    fn sampled_clustering_close_to_exact_on_clique() {
        // A clique larger than the exact-degree limit: every local
        // coefficient is exactly 1, and the sampled estimate must agree.
        let mut g = AsGraph::new();
        let r = RegionSet::all(1);
        let ids: Vec<AsId> = (0..150).map(|_| g.add_node(NodeType::T, r)).collect();
        for i in 0..ids.len() {
            for j in (i + 1)..ids.len() {
                g.add_peer_link(ids[i], ids[j]);
            }
        }
        let c = clustering_coefficient(&g, 3);
        assert!((c - 1.0).abs() < 1e-9, "clique clustering {c}");
    }

    #[test]
    fn degree_ccdf_is_monotone_and_anchored() {
        let g = generate(GrowthScenario::Baseline, 500, 5);
        let ccdf = degree_ccdf(&g);
        assert_eq!(ccdf.last().map(|&(_, f)| f > 0.0), Some(true));
        // First point covers all nodes.
        assert!((ccdf[0].1 - 1.0).abs() < 1e-12);
        for w in ccdf.windows(2) {
            assert!(w[0].0 < w[1].0, "degrees ascending");
            assert!(w[0].1 >= w[1].1, "ccdf non-increasing");
        }
    }

    #[test]
    fn baseline_shows_heavy_tailed_degrees() {
        let g = generate(GrowthScenario::Baseline, 2_000, 6);
        let seq = degree_sequence(&g);
        let mean = seq.iter().sum::<usize>() as f64 / seq.len() as f64;
        assert!(
            seq[0] as f64 > 10.0 * mean,
            "max degree {} not ≫ mean {mean}",
            seq[0]
        );
    }

    #[test]
    fn baseline_clustering_exceeds_random_graph_level() {
        let g = generate(GrowthScenario::Baseline, 1_500, 7);
        let c = clustering_coefficient(&g, 7);
        // A G(n, m) random graph with the same density would have
        // clustering ≈ mean_degree / n ≈ 0.003. The paper reports ≈0.15.
        let mean_degree =
            2.0 * g.link_count() as f64 / g.len() as f64;
        let random_level = mean_degree / g.len() as f64;
        assert!(
            c > 10.0 * random_level,
            "clustering {c} vs random level {random_level}"
        );
        assert!(c > 0.04, "clustering {c} unexpectedly low");
    }

    #[test]
    fn path_length_is_about_four_hops_and_stable() {
        let small = generate(GrowthScenario::Baseline, 1_000, 8);
        let big = generate(GrowthScenario::Baseline, 4_000, 8);
        let l_small = avg_valley_free_path_length(&small, 10, 8);
        let l_big = avg_valley_free_path_length(&big, 10, 8);
        assert!((2.5..=5.5).contains(&l_small), "small path length {l_small}");
        assert!((2.5..=5.5).contains(&l_big), "big path length {l_big}");
        assert!(
            (l_big - l_small).abs() < 1.0,
            "path length drifts: {l_small} → {l_big}"
        );
    }

    #[test]
    fn assortativity_of_star_is_negative() {
        // A star is maximally disassortative: every edge joins the hub
        // (high degree) to a leaf (degree 1).
        let mut g = AsGraph::new();
        let r = RegionSet::all(1);
        let hub = g.add_node(NodeType::T, r);
        for _ in 0..10 {
            let leaf = g.add_node(NodeType::C, r);
            g.add_transit_link(leaf, hub);
        }
        assert!(degree_assortativity(&g) < -0.99);
    }

    #[test]
    fn assortativity_of_regular_graph_is_degenerate_zero() {
        // A cycle: every endpoint has degree 2 → zero variance → defined
        // as 0 here.
        let mut g = AsGraph::new();
        let r = RegionSet::all(1);
        let ids: Vec<AsId> = (0..6).map(|_| g.add_node(NodeType::M, r)).collect();
        for i in 0..6 {
            g.add_peer_link(ids[i], ids[(i + 1) % 6]);
        }
        assert_eq!(degree_assortativity(&g), 0.0);
    }

    #[test]
    fn generated_topologies_are_disassortative() {
        let g = generate(GrowthScenario::Baseline, 1_500, 31);
        let r = degree_assortativity(&g);
        assert!(
            r < -0.1,
            "AS-like topologies must be disassortative, got {r}"
        );
    }

    #[test]
    fn summary_population_and_links_match_graph() {
        let g = generate(GrowthScenario::Baseline, 600, 10);
        let s = TopologySummary::compute(&g, 10);
        assert_eq!(s.n, 600);
        assert_eq!(s.population.iter().sum::<usize>(), 600);
        assert_eq!(s.transit_links, g.transit_link_count());
        assert_eq!(s.peer_links, g.peer_link_count());
        assert_eq!(s.mean_mhd[0], 0.0, "T nodes have no providers");
        assert!(s.mean_mhd[1] >= 1.0);
        assert!(s.max_degree >= s.mean_degree as usize);
    }
}
