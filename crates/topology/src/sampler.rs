//! Incremental integer-weight sampling over one pool of candidate ASes.
//!
//! [`Sampler::draw`] selects exactly the index [`Rng::choose_weighted`]
//! would select on the pool's weight vector — zeros for hidden, inactive
//! and region-incompatible candidates — in `O(log pool)` instead of
//! `O(pool)`, and weights follow the graph by point updates instead of
//! being rebuilt per draw.
//!
//! **Why it is exact.** `choose_weighted` draws one uniform `u`, forms
//! `x = fl(u · total)` and returns the first index whose running
//! `x − w₀ − w₁ − …` turns negative. Weights here are integers and
//! `total < 2⁵³`, so `total` and every subtraction that stays non-negative
//! are exact in `f64`: the first index with `prefix > x` is the first with
//! `prefix > ⌊x⌋`, which a Fenwick-tree descent finds. A pool with no
//! eligible weight returns `None` **without** consuming a draw, as the
//! linear scan's callers did.
//!
//! **Region filter.** Candidates are bucketed by their exact [`RegionSet`]
//! (at most `r(r+1)/2` sets when every AS spans one or two of `r`
//! regions), one Fenwick tree per bucket; a draw descends the trees whose
//! set intersects the drawing node's in lockstep, summing them.

use bgpscale_simkernel::rng::Rng;

use crate::types::{AsId, RegionSet};

pub(crate) struct Sampler {
    /// Id of candidate 0: a pool is a contiguous id range (ids follow
    /// creation order, one node type after the other).
    base: u32,
    len: usize,
    /// Per bucket, in first-seen order: its region set, its visible weight
    /// and the 1-based Fenwick tree over its candidates' visible weights.
    buckets: Vec<RegionSet>,
    totals: Vec<u64>,
    trees: Vec<Vec<u64>>,
    /// Per candidate: bucket, true weight (0 until activated), hidden flag.
    bucket: Vec<u8>,
    weight: Vec<u64>,
    hidden: Vec<bool>,
    /// Hidden candidates, oldest first: [`Sampler::unhide_to`] pops it.
    hidden_stack: Vec<u32>,
    /// Scratch: the buckets eligible for the current draw.
    eligible: Vec<usize>,
    /// Draws that consumed a uniform, and Fenwick point updates, so far.
    pub(crate) draws: u64,
    pub(crate) updates: u64,
}

impl Sampler {
    /// An all-inactive pool over ids `base .. base + len`.
    pub(crate) fn new(base: usize, len: usize) -> Sampler {
        Sampler {
            base: u32::try_from(base).expect("more than u32::MAX nodes"),
            len,
            buckets: Vec::new(),
            totals: Vec::new(),
            trees: Vec::new(),
            bucket: vec![0; len],
            weight: vec![0; len],
            hidden: vec![false; len],
            hidden_stack: Vec::new(),
            eligible: Vec::new(),
            draws: 0,
            updates: 0,
        }
    }

    /// The pool position of `id`, or `None` if it is not a member.
    pub(crate) fn index(&self, id: AsId) -> Option<usize> {
        let i = id.0.wrapping_sub(self.base) as usize;
        (i < self.len).then_some(i)
    }

    fn add_to_tree(&mut self, i: usize, delta: i64) {
        let b = usize::from(self.bucket[i]);
        let mut pos = i + 1;
        while pos <= self.len {
            self.trees[b][pos] = self.trees[b][pos].wrapping_add_signed(delta);
            pos += pos & pos.wrapping_neg();
        }
        self.totals[b] = self.totals[b].wrapping_add_signed(delta);
        self.updates += 1;
    }

    /// Makes member `id` drawable with weight `w`, once.
    pub(crate) fn activate(&mut self, id: AsId, regions: RegionSet, w: u64) {
        let i = self.index(id).expect("activate: not a member of this pool");
        debug_assert!(self.weight[i] == 0 && !self.hidden[i] && w > 0);
        let b = self.buckets.iter().position(|&s| s == regions).unwrap_or_else(|| {
            self.buckets.push(regions);
            self.totals.push(0);
            self.trees.push(vec![0; self.len + 1]);
            self.buckets.len() - 1
        });
        self.bucket[i] = u8::try_from(b).expect("at most 136 one- or two-region sets");
        self.weight[i] = w;
        self.add_to_tree(i, w as i64);
    }

    /// Raises the weight of `id` by one; ignored for non-members.
    pub(crate) fn bump(&mut self, id: AsId) {
        if let Some(i) = self.index(id) {
            debug_assert!(self.weight[i] > 0, "bump before activate");
            self.weight[i] += 1;
            if !self.hidden[i] {
                self.add_to_tree(i, 1);
            }
        }
    }

    /// Excludes `id` from draws until unhidden; ignored for non-members
    /// and for candidates that cannot be drawn anyway.
    pub(crate) fn hide(&mut self, id: AsId) {
        if let Some(i) = self.index(id) {
            if !self.hidden[i] && self.weight[i] > 0 {
                self.hidden[i] = true;
                self.hidden_stack.push(i as u32);
                self.add_to_tree(i, -(self.weight[i] as i64));
            }
        }
    }

    /// How many candidates are hidden: a mark for [`Sampler::unhide_to`].
    pub(crate) fn hidden_len(&self) -> usize {
        self.hidden_stack.len()
    }

    /// Restores the most recently hidden candidates, at their current
    /// weights, until only the oldest `mark` remain hidden.
    pub(crate) fn unhide_to(&mut self, mark: usize) {
        while self.hidden_stack.len() > mark {
            let i = self.hidden_stack.pop().expect("length checked") as usize;
            self.hidden[i] = false;
            self.add_to_tree(i, self.weight[i] as i64);
        }
    }

    /// Draws one visible candidate whose region set intersects `regions`,
    /// with probability proportional to its weight. `None`, and no draw
    /// from `rng`, when no such candidate exists.
    pub(crate) fn draw(&mut self, rng: &mut impl Rng, regions: RegionSet) -> Option<AsId> {
        self.eligible.clear();
        let mut total = 0u64;
        for (b, set) in self.buckets.iter().enumerate() {
            if set.intersects(regions) && self.totals[b] > 0 {
                self.eligible.push(b);
                total += self.totals[b];
            }
        }
        if total == 0 {
            return None;
        }
        debug_assert!(total < 1 << 53, "weights no longer exact in f64");
        self.draws += 1;
        // ⌊u · total⌋ < total for every u < 1; the `min` is choose_weighted's
        // slack fallback (the last positive weight), unreachable here.
        let mut rest = ((rng.next_f64() * total as f64) as u64).min(total - 1);
        // Largest pos with prefix(pos) <= rest, i.e. the 0-based index of
        // the first candidate whose inclusive prefix exceeds it.
        let mut pos = 0;
        let mut step = 1usize << self.len.ilog2();
        while step > 0 {
            let next = pos + step;
            if next <= self.len {
                let sum: u64 = self.eligible.iter().map(|&b| self.trees[b][next]).sum();
                if sum <= rest {
                    rest -= sum;
                    pos = next;
                }
            }
            step >>= 1;
        }
        Some(AsId(self.base + pos as u32))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgpscale_simkernel::rng::Xoshiro256StarStar;
    use proptest::prelude::*;

    fn region_set(mask: u8) -> RegionSet {
        let mut s = RegionSet::EMPTY;
        for r in (0..3).filter(|r| mask & (1 << r) != 0) {
            s.insert(r);
        }
        s
    }

    #[test]
    fn empty_and_exhausted_pools_consume_no_draw() {
        let mut rng = Xoshiro256StarStar::new(1);
        let before = format!("{rng:?}");
        let all = RegionSet::all(2);
        assert_eq!(Sampler::new(0, 0).draw(&mut rng, all), None);
        let mut s = Sampler::new(10, 3);
        s.activate(AsId(11), RegionSet::single(0), 4);
        assert_eq!(s.draw(&mut rng, RegionSet::single(1)), None, "region filter");
        s.hide(AsId(11));
        assert_eq!(s.draw(&mut rng, all), None, "hidden");
        assert_eq!(format!("{rng:?}"), before);
        s.unhide_to(0);
        assert_eq!(s.draw(&mut rng, all), Some(AsId(11)));
        assert_eq!((s.draws, s.updates), (1, 3));
    }

    #[test]
    fn bumps_while_hidden_land_on_unhide() {
        let mut s = Sampler::new(0, 2);
        let all = RegionSet::all(1);
        s.activate(AsId(0), all, 1);
        s.activate(AsId(1), all, 1);
        s.hide(AsId(1));
        s.bump(AsId(1));
        s.bump(AsId(7)); // not a member
        assert_eq!(s.totals[0], 1);
        s.unhide_to(0);
        assert_eq!(s.totals[0], 3);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The specification: on any integer weight vector with zeros, any
        /// region assignment, any hidden set and any mix of bumps, a draw
        /// equals `choose_weighted` on the equivalent f64 vector, and both
        /// generators end in the same state.
        #[test]
        fn draw_equals_choose_weighted(
            items in prop::collection::vec((0u64..6, 1u8..8, any::<bool>(), 0u8..3), 1..70),
            my_mask in 1u8..8,
            seed in any::<u64>(),
            draws in 1usize..6,
        ) {
            let base = 5usize;
            let mut s = Sampler::new(base, items.len());
            let id = |i: usize| AsId((base + i) as u32);
            for (i, &(w, mask, _, _)) in items.iter().enumerate() {
                if w > 0 {
                    s.activate(id(i), region_set(mask), w);
                }
            }
            let mut weights: Vec<u64> = items.iter().map(|it| it.0).collect();
            for (i, &(_, _, hide, bumps)) in items.iter().enumerate() {
                if hide {
                    s.hide(id(i));
                }
                if weights[i] > 0 {
                    for _ in 0..bumps {
                        s.bump(id(i));
                        weights[i] += 1;
                    }
                }
            }
            let mine = region_set(my_mask);
            let mut reference: Vec<f64> = items
                .iter()
                .zip(&weights)
                .map(|(&(_, mask, hide, _), &w)| {
                    if hide || !region_set(mask).intersects(mine) { 0.0 } else { w as f64 }
                })
                .collect();
            let mut a = Xoshiro256StarStar::new(seed);
            let mut b = a.clone();
            // Successive draws with rejection: each drawn candidate is
            // hidden, as the generator hides rejected peers.
            for _ in 0..draws {
                let got = s.draw(&mut a, mine);
                if reference.iter().sum::<f64>() > 0.0 {
                    let want = b.choose_weighted(&reference);
                    prop_assert_eq!(got, Some(id(want)));
                    reference[want] = 0.0;
                    s.hide(id(want));
                } else {
                    prop_assert_eq!(got, None);
                }
            }
            prop_assert_eq!(a.next_u64(), b.next_u64(), "generator states diverged");
            // Unhiding restores every weight, bumps included.
            s.unhide_to(0);
            let visible: u64 = s.totals.iter().sum();
            prop_assert_eq!(visible, weights.iter().sum::<u64>());
        }
    }
}
