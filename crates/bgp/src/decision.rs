//! The BGP decision process.
//!
//! Route preference (§2 of the paper):
//!
//! 1. highest LOCAL_PREF (customer > peer > provider; self-originated
//!    routes outrank everything),
//! 2. shortest AS path,
//! 3. *"a hashed value of the node IDs"* — we hash the next-hop AS id with
//!    SplitMix64, preferring the smaller hash; a final comparison on the
//!    raw id makes the order total even under hash collisions.
//!
//! The hash tie-break (rather than, say, lowest id) avoids systematically
//! biasing traffic toward low-numbered ASes while staying fully
//! deterministic across runs.

use bgpscale_simkernel::rng::hash64;
use bgpscale_topology::{AsId, Relationship};

use crate::policy::{local_pref, RouteSource};

/// One candidate route in the decision process.
///
/// Borrows the hops as a plain slice: this is the slow reference form,
/// for tests and oracles; the node itself compares cached [`rank_key`]s.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Candidate<'a> {
    /// The neighbor the route was learned from (the next hop).
    pub neighbor: AsId,
    /// Our relationship to that neighbor.
    pub rel: Relationship,
    /// The AS path as received (neighbor first, origin last).
    pub path: &'a [AsId],
}

/// The totally ordered preference key of a candidate. Larger keys win.
///
/// Exposed so that property tests can verify antisymmetry and totality
/// directly.
pub fn preference_key(c: &Candidate<'_>) -> (u8, i64, std::cmp::Reverse<u64>, std::cmp::Reverse<u32>) {
    (
        local_pref(RouteSource::Learned(c.rel)),
        -(c.path.len() as i64),
        std::cmp::Reverse(hash64(c.neighbor.0 as u64)),
        std::cmp::Reverse(c.neighbor.0),
    )
}

/// [`preference_key`] as one `u64`, larger-wins, for the arena's
/// cached-key column: field-by-field lexicographic order over fixed-width
/// fields is exactly integer order on the packed word.
///
/// Layout, most significant first: LOCAL_PREF (8 bits) | inverted path
/// length (24 bits — paths are bounded by the AS count, far below 2^24)
/// | inverted tie-break rank (32 bits). The last two fields of
/// [`preference_key`] — the next hop's hash, then its id — depend only on
/// the session the route came over, so the key carries the session's
/// `rank` in its node's ascending `(hash, id)` order instead
/// ([`crate::SessionSlab::rank`], computed once per topology). Inversion
/// (`MAX - x` / `!x`) turns each "smaller wins" field into "larger wins",
/// so for two routes held by one node
/// `rank_key(a) > rank_key(b)  ⇔  preference_key(a) > preference_key(b)`,
/// and keys of distinct sessions are always distinct.
pub fn rank_key(rel: Relationship, path_len: usize, rank: u32) -> u64 {
    debug_assert!((path_len as u64) < (1 << 24), "AS path length overflows the key layout");
    let pref = u64::from(local_pref(RouteSource::Learned(rel)));
    let inv_len = u64::from(0x00FF_FFFF - path_len as u32);
    (pref << 56) | (inv_len << 32) | u64::from(!rank)
}

/// Selects the best route among `candidates`, returning the index of the
/// winner, or `None` if there are no candidates.
///
/// Self-originated routes are handled by the caller ([`crate::BgpNode`])
/// since they always win.
pub fn select_best(candidates: &[Candidate<'_>]) -> Option<usize> {
    candidates
        .iter()
        .enumerate()
        .max_by_key(|(_, c)| preference_key(c))
        .map(|(i, _)| i)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cand(neighbor: u32, rel: Relationship, path: &[AsId]) -> Candidate<'_> {
        Candidate {
            neighbor: AsId(neighbor),
            rel,
            path,
        }
    }

    #[test]
    fn customer_beats_shorter_peer_and_provider() {
        let long_cust: Vec<AsId> = vec![AsId(1), AsId(2), AsId(3), AsId(4)];
        let short_peer: Vec<AsId> = vec![AsId(5)];
        let short_prov: Vec<AsId> = vec![AsId(6)];
        let cands = vec![
            cand(5, Relationship::Peer, &short_peer),
            cand(1, Relationship::Customer, &long_cust),
            cand(6, Relationship::Provider, &short_prov),
        ];
        assert_eq!(select_best(&cands), Some(1), "prefer-customer violated");
    }

    #[test]
    fn peer_beats_provider() {
        let p1: Vec<AsId> = vec![AsId(5), AsId(9)];
        let p2: Vec<AsId> = vec![AsId(6)];
        let cands = vec![
            cand(6, Relationship::Provider, &p2),
            cand(5, Relationship::Peer, &p1),
        ];
        assert_eq!(select_best(&cands), Some(1));
    }

    #[test]
    fn shorter_path_wins_within_same_pref_class() {
        let short: Vec<AsId> = vec![AsId(1), AsId(9)];
        let long: Vec<AsId> = vec![AsId(2), AsId(8), AsId(9)];
        let cands = vec![
            cand(2, Relationship::Customer, &long),
            cand(1, Relationship::Customer, &short),
        ];
        assert_eq!(select_best(&cands), Some(1));
    }

    #[test]
    fn hash_tiebreak_is_deterministic_and_consistent() {
        let a: Vec<AsId> = vec![AsId(10), AsId(9)];
        let b: Vec<AsId> = vec![AsId(20), AsId(9)];
        let cands = vec![
            cand(10, Relationship::Peer, &a),
            cand(20, Relationship::Peer, &b),
        ];
        let winner = select_best(&cands).unwrap();
        // Recomputing gives the same winner.
        assert_eq!(select_best(&cands), Some(winner));
        // The winner is the one with the smaller next-hop hash.
        let expect = if hash64(10) < hash64(20) { 0 } else { 1 };
        assert_eq!(winner, expect);
        // And order of presentation does not matter.
        let flipped = vec![cands[1].clone(), cands[0].clone()];
        assert_eq!(select_best(&flipped), Some(1 - winner));
    }

    #[test]
    fn empty_candidate_set_has_no_best() {
        assert_eq!(select_best(&[]), None);
    }

    #[test]
    fn single_candidate_wins() {
        let p: Vec<AsId> = vec![AsId(1)];
        assert_eq!(select_best(&[cand(1, Relationship::Provider, &p)]), Some(0));
    }

    #[test]
    fn rank_key_orders_exactly_like_preference_key() {
        // A grid of candidates crossing every field of the key: every
        // relation, several path lengths, and neighbor ids chosen to
        // exercise the hash and raw-id tiebreaks, ranked as the session
        // slab ranks a node's sessions.
        let paths: Vec<Vec<AsId>> = (1..=5)
            .map(|l| (1..=l).map(AsId).collect())
            .collect();
        let rels = [Relationship::Customer, Relationship::Peer, Relationship::Provider];
        let mut neighbors = [1u32, 2, 7, 100, 65000];
        neighbors.sort_unstable_by_key(|&id| (hash64(u64::from(id)), id));
        let mut cands = Vec::new();
        for rel in rels {
            for path in &paths {
                for (rank, &id) in neighbors.iter().enumerate() {
                    cands.push((cand(id, rel, path), rank as u32));
                }
            }
        }
        for (a, rank_a) in &cands {
            for (b, rank_b) in &cands {
                assert_eq!(
                    rank_key(a.rel, a.path.len(), *rank_a).cmp(&rank_key(b.rel, b.path.len(), *rank_b)),
                    preference_key(a).cmp(&preference_key(b)),
                    "rank-key order diverges for {a:?} vs {b:?}"
                );
            }
        }
    }

    #[test]
    fn preference_key_is_antisymmetric_and_total() {
        // Distinct neighbors always produce distinct keys (the raw-id
        // fallback guarantees it), so the decision is a strict total
        // order within one candidate set.
        let p: Vec<AsId> = vec![AsId(1)];
        let q: Vec<AsId> = vec![AsId(2)];
        let a = cand(1, Relationship::Peer, &p);
        let b = cand(2, Relationship::Peer, &q);
        assert_ne!(preference_key(&a), preference_key(&b));
    }
}
