//! Route Flap Damping (RFC 2439) — an optional receiver-side mechanism
//! the paper lists as future work ("other BGP mechanisms and
//! configurations, such as Route Flap Dampening").
//!
//! Each (neighbor session, prefix) pair accumulates a **figure of merit**
//! (penalty): withdrawals and re-advertisements add to it, and it decays
//! exponentially with the half-life [`HALF_LIFE`]. While the penalty
//! exceeds [`SUPPRESS_THRESHOLD`] the route is **damped** — stored but
//! ineligible for the decision process — until decay brings it below
//! [`REUSE_THRESHOLD`].
//!
//! The implementation uses lazy decay (the penalty is brought current
//! whenever it is touched), so no periodic timer is needed; only a single
//! *reuse* wake-up per suppressed route, which the host simulator
//! schedules through the step's clock ([`crate::mrai::Clock::wake`]).
//!
//! The parameters are the common vendor (Cisco-style) configuration, the
//! one every experiment runs; they are constants, checked at compile time.

use bgpscale_simkernel::{SimDuration, SimTime};

/// Penalty added when the neighbor withdraws the route.
pub const WITHDRAW_PENALTY: f64 = 1_000.0;

/// Penalty added when the neighbor re-advertises after a withdrawal.
pub const READVERTISE_PENALTY: f64 = 1_000.0;

/// Penalty added when an advertisement changes the route's path.
pub const ATTRIBUTE_CHANGE_PENALTY: f64 = 500.0;

/// The route is suppressed when its penalty exceeds this.
pub const SUPPRESS_THRESHOLD: f64 = 2_000.0;

/// A suppressed route is reused once decay brings its penalty to this.
pub const REUSE_THRESHOLD: f64 = 750.0;

/// Exponential decay half-life of the penalty: 15 minutes.
pub const HALF_LIFE: SimDuration = SimDuration::from_secs(15 * 60);

/// Upper bound on the accumulated penalty, which bounds suppression
/// time: reuse × 2^(max suppress / half-life) with a 60-minute maximum
/// suppress time, 750 × 2⁴.
pub const MAX_PENALTY: f64 = 12_000.0;

const _: () = {
    assert!(0.0 < REUSE_THRESHOLD, "REUSE_THRESHOLD must be positive");
    assert!(REUSE_THRESHOLD < SUPPRESS_THRESHOLD, "REUSE_THRESHOLD must be below SUPPRESS_THRESHOLD");
    assert!(SUPPRESS_THRESHOLD <= MAX_PENALTY, "SUPPRESS_THRESHOLD must not exceed MAX_PENALTY");
    assert!(!HALF_LIFE.is_zero(), "HALF_LIFE must be positive");
    let [withdraw, readvertise, attribute_change] =
        [WITHDRAW_PENALTY, READVERTISE_PENALTY, ATTRIBUTE_CHANGE_PENALTY];
    assert!(
        withdraw.is_finite() && withdraw >= 0.0
            && readvertise.is_finite() && readvertise >= 0.0
            && attribute_change.is_finite() && attribute_change >= 0.0,
        "penalties must be finite and non-negative"
    );
};

/// Turns damping on in a [`crate::BgpConfig`]. It has no fields: the
/// parameters are the constants of this module.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RfdConfig {}

/// The kind of event being charged to the figure of merit.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FlapKind {
    /// The neighbor withdrew the route.
    Withdrawal,
    /// The neighbor re-advertised a previously withdrawn route.
    Readvertisement,
    /// The neighbor advertised the route with a changed path.
    AttributeChange,
}

/// Per-(session, prefix) damping state.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct DampState {
    /// The figure of merit at `updated_at`.
    pub penalty: f64,
    /// When `penalty` was last brought current.
    pub updated_at: SimTime,
    /// True while the route is suppressed.
    pub suppressed: bool,
}

impl DampState {
    /// The penalty decayed to time `now`.
    pub fn penalty_at(&self, now: SimTime) -> f64 {
        let dt = now.saturating_since(self.updated_at).as_secs_f64();
        let half_lives = dt / HALF_LIFE.as_secs_f64();
        self.penalty * 0.5f64.powf(half_lives)
    }

    /// Brings the penalty current and charges one flap event. Returns the
    /// new suppression state.
    pub fn charge(&mut self, kind: FlapKind, now: SimTime) -> bool {
        let add = match kind {
            FlapKind::Withdrawal => WITHDRAW_PENALTY,
            FlapKind::Readvertisement => READVERTISE_PENALTY,
            FlapKind::AttributeChange => ATTRIBUTE_CHANGE_PENALTY,
        };
        self.penalty = (self.penalty_at(now) + add).min(MAX_PENALTY);
        self.updated_at = now;
        if self.penalty > SUPPRESS_THRESHOLD {
            self.suppressed = true;
        }
        self.suppressed
    }

    /// Re-checks suppression at `now` (used at reuse wake-ups): if the
    /// decayed penalty fell below the reuse threshold the route becomes
    /// eligible again. Returns true if the state changed.
    pub fn maybe_reuse(&mut self, now: SimTime) -> bool {
        if !self.suppressed {
            return false;
        }
        let current = self.penalty_at(now);
        if current <= REUSE_THRESHOLD {
            self.penalty = current;
            self.updated_at = now;
            self.suppressed = false;
            true
        } else {
            false
        }
    }

    /// The earliest time at which the decayed penalty reaches the reuse
    /// threshold (when suppressed; `None` otherwise).
    pub fn reuse_time(&self) -> Option<SimTime> {
        if !self.suppressed {
            return None;
        }
        if self.penalty <= REUSE_THRESHOLD {
            return Some(self.updated_at);
        }
        // penalty × 0.5^(t/half_life) = reuse  ⇒  t = half_life · log2(penalty/reuse).
        // A millisecond of slack guards against the wake-up firing a
        // float-rounding hair *before* the penalty crosses the threshold.
        let half_lives = (self.penalty / REUSE_THRESHOLD).log2();
        let dt = HALF_LIFE.as_secs_f64() * half_lives;
        Some(self.updated_at + SimDuration::from_secs_f64(dt) + SimDuration::from_millis(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_are_the_vendor_configuration() {
        assert_eq!(WITHDRAW_PENALTY, 1_000.0);
        assert_eq!(READVERTISE_PENALTY, 1_000.0);
        assert_eq!(ATTRIBUTE_CHANGE_PENALTY, 500.0);
        assert_eq!(SUPPRESS_THRESHOLD, 2_000.0);
        assert_eq!(REUSE_THRESHOLD, 750.0);
        assert_eq!(HALF_LIFE, SimDuration::from_secs(15 * 60));
        assert_eq!(MAX_PENALTY, 12_000.0);
    }

    #[test]
    fn one_withdrawal_does_not_suppress() {
        let mut s = DampState::default();
        let suppressed = s.charge(FlapKind::Withdrawal, SimTime::ZERO);
        assert!(!suppressed);
        assert_eq!(s.penalty, 1_000.0);
    }

    #[test]
    fn rapid_flaps_suppress() {
        let mut s = DampState::default();
        let t = SimTime::from_secs(1);
        s.charge(FlapKind::Withdrawal, t);
        s.charge(FlapKind::Readvertisement, t);
        assert!(!s.suppressed, "2000 does not exceed the threshold");
        let suppressed = s.charge(FlapKind::Withdrawal, t);
        assert!(suppressed, "third flap crosses 2000");
    }

    #[test]
    fn penalty_decays_with_half_life() {
        let mut s = DampState::default();
        s.charge(FlapKind::Withdrawal, SimTime::ZERO);
        let after_one_half_life = s.penalty_at(SimTime::ZERO + HALF_LIFE);
        assert!((after_one_half_life - 500.0).abs() < 1e-9);
        let after_two = s.penalty_at(SimTime::ZERO + HALF_LIFE + HALF_LIFE);
        assert!((after_two - 250.0).abs() < 1e-9);
    }

    #[test]
    fn penalty_is_capped() {
        let mut s = DampState::default();
        for _ in 0..100 {
            s.charge(FlapKind::Withdrawal, SimTime::ZERO);
        }
        assert_eq!(s.penalty, MAX_PENALTY);
    }

    #[test]
    fn reuse_time_matches_decay() {
        let mut s = DampState::default();
        let t0 = SimTime::from_secs(100);
        for _ in 0..3 {
            s.charge(FlapKind::Withdrawal, t0);
        }
        assert!(s.suppressed);
        let reuse_at = s.reuse_time().unwrap();
        // Penalty 3000 → 750 takes exactly 2 half-lives (plus the 1 ms
        // float-rounding guard).
        let expected = t0 + SimDuration::from_secs(2 * 15 * 60) + SimDuration::from_millis(1);
        assert_eq!(reuse_at, expected);
        // Just before: still suppressed; at the time: reusable.
        assert!(!s.clone().maybe_reuse(t0 + HALF_LIFE));
        let mut s2 = s.clone();
        assert!(s2.maybe_reuse(reuse_at + SimDuration::from_micros(1)));
        assert!(!s2.suppressed);
    }

    #[test]
    fn reuse_is_noop_when_not_suppressed() {
        let mut s = DampState::default();
        s.charge(FlapKind::AttributeChange, SimTime::ZERO);
        assert!(!s.maybe_reuse(SimTime::from_secs(10_000)));
        assert_eq!(s.reuse_time(), None);
    }

    #[test]
    fn attribute_changes_cost_less_than_withdrawals() {
        let mut a = DampState::default();
        let mut w = DampState::default();
        a.charge(FlapKind::AttributeChange, SimTime::ZERO);
        w.charge(FlapKind::Withdrawal, SimTime::ZERO);
        assert!(a.penalty < w.penalty);
    }
}
