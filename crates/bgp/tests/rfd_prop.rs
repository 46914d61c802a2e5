//! Property-based tests for Route Flap Damping: the figure of merit is a
//! well-behaved dynamical system for any flap pattern.

use bgpscale_bgp::rfd::{DampState, FlapKind, MAX_PENALTY, REUSE_THRESHOLD};
use bgpscale_simkernel::{SimDuration, SimTime};
use proptest::prelude::*;

fn any_flap() -> impl Strategy<Value = FlapKind> {
    prop::sample::select(vec![
        FlapKind::Withdrawal,
        FlapKind::Readvertisement,
        FlapKind::AttributeChange,
    ])
}

proptest! {
    /// The penalty is always within [0, MAX_PENALTY], for any flap
    /// sequence and spacing.
    #[test]
    fn penalty_bounded(
        script in prop::collection::vec((any_flap(), 0u64..10_000), 1..60),
    ) {
        let mut s = DampState::default();
        let mut now = SimTime::ZERO;
        for (kind, gap_s) in script {
            now += SimDuration::from_secs(gap_s);
            s.charge(kind, now);
            prop_assert!(s.penalty >= 0.0);
            prop_assert!(s.penalty <= MAX_PENALTY + 1e-9);
        }
    }

    /// Decay is monotone: the penalty never grows between charges.
    #[test]
    fn decay_is_monotone(gap_a in 0u64..100_000, gap_b in 0u64..100_000) {
        let mut s = DampState::default();
        s.charge(FlapKind::Withdrawal, SimTime::ZERO);
        let (t1, t2) = if gap_a <= gap_b { (gap_a, gap_b) } else { (gap_b, gap_a) };
        let p1 = s.penalty_at(SimTime::from_secs(t1));
        let p2 = s.penalty_at(SimTime::from_secs(t2));
        prop_assert!(p2 <= p1 + 1e-9, "penalty grew from {p1} to {p2}");
    }

    /// Suppression is reachable only by crossing the threshold, and once
    /// `maybe_reuse` fires the state is consistent: not suppressed and at
    /// or below the reuse threshold.
    #[test]
    fn reuse_post_state_is_consistent(
        flaps in 1usize..12,
        extra_wait_s in 0u64..50_000,
    ) {
        let mut s = DampState::default();
        let t0 = SimTime::from_secs(10);
        for _ in 0..flaps {
            s.charge(FlapKind::Withdrawal, t0);
        }
        if let Some(at) = s.reuse_time() {
            let wake = at + SimDuration::from_secs(extra_wait_s);
            let changed = s.maybe_reuse(wake);
            prop_assert!(changed, "wake at/after reuse_time must un-suppress");
            prop_assert!(!s.suppressed);
            prop_assert!(s.penalty <= REUSE_THRESHOLD + 1e-6);
        } else {
            prop_assert!(!s.suppressed, "no reuse time implies not suppressed");
        }
    }

    /// The analytic reuse time is exact: one microsecond earlier the
    /// penalty is still above the threshold (modulo the 1 ms guard), and
    /// at the reuse time it is at or below.
    #[test]
    fn reuse_time_brackets_the_threshold(flaps in 3usize..12) {
        let mut s = DampState::default();
        let t0 = SimTime::from_secs(5);
        for _ in 0..flaps {
            s.charge(FlapKind::Withdrawal, t0);
        }
        prop_assert!(s.suppressed);
        let at = s.reuse_time().unwrap();
        let after = s.penalty_at(at);
        prop_assert!(after <= REUSE_THRESHOLD + 1e-6, "{after} at reuse time");
        // 2 ms before the (1 ms-guarded) reuse time the penalty is still
        // above threshold.
        let before = s.penalty_at(SimTime::from_micros(at.as_micros().saturating_sub(2_000)));
        prop_assert!(before >= REUSE_THRESHOLD - 1e-6, "{before} just before");
    }

    /// Order sensitivity: measured immediately after the final charge, a
    /// burst of n simultaneous flaps accumulates at least as much penalty
    /// as the same flaps spread over time (earlier charges decay before
    /// the later ones arrive).
    #[test]
    fn spreading_flaps_never_increases_peak_penalty(
        flaps in 1usize..10,
        gap_s in 1u64..5_000,
    ) {
        let mut burst = DampState::default();
        let mut spread = DampState::default();
        let t0 = SimTime::from_secs(1);
        let mut t = t0;
        for _ in 0..flaps {
            burst.charge(FlapKind::Withdrawal, t0);
            spread.charge(FlapKind::Withdrawal, t);
            t += SimDuration::from_secs(gap_s);
        }
        // `penalty` is current as of each state's own last charge.
        prop_assert!(
            burst.penalty >= spread.penalty - 1e-6,
            "burst {} < spread {}",
            burst.penalty,
            spread.penalty
        );
    }
}
