//! Simulated time.
//!
//! Time is measured in integer **microseconds** since the start of the
//! simulation. Microsecond resolution comfortably covers the paper's time
//! scales (processing delays up to 100 ms, MRAI timers around 30 s) while a
//! `u64` tick counter still spans more than half a million simulated years,
//! so overflow is not a practical concern.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// An instant in simulated time (microseconds since simulation start).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time (microseconds).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0);
    /// The end of time: later than every instant a simulation reaches.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Constructs an instant from raw microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us)
    }

    /// Constructs an instant from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000)
    }

    /// Constructs an instant from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000)
    }

    /// Raw microseconds since simulation start.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Seconds since simulation start, as a float (for reporting only).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// The duration elapsed since `earlier`.
    ///
    /// # Panics
    /// Panics if `earlier` is later than `self`; a simulation clock never
    /// runs backwards, so this indicates a kernel bug.
    #[expect(
        clippy::expect_used,
        reason = "a backwards clock is a kernel bug and panicking is the documented contract; saturating_since is the non-panicking form"
    )]
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(earlier.0)
                .expect("simulated clock ran backwards"),
        )
    }

    /// Saturating duration since `earlier` (zero if `earlier` is later).
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// The empty duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Constructs a duration from raw microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us)
    }

    /// Constructs a duration from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000)
    }

    /// Constructs a duration from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000)
    }

    /// Constructs a duration from fractional seconds, rounding to the
    /// nearest microsecond.
    ///
    /// # Panics
    /// Panics on negative or non-finite input.
    pub fn from_secs_f64(s: f64) -> Self {
        assert!(
            s.is_finite() && s >= 0.0,
            "duration must be finite and non-negative, got {s}"
        );
        SimDuration((s * 1e6).round() as u64)
    }

    /// Raw microseconds.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Duration in seconds, as a float (for reporting only).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Multiplies the duration by a non-negative factor, rounding to the
    /// nearest microsecond. Used for MRAI jitter ([0.75, 1.0] × timer).
    ///
    /// # Panics
    /// Panics on negative or non-finite factors.
    pub fn mul_f64(self, factor: f64) -> Self {
        assert!(
            factor.is_finite() && factor >= 0.0,
            "duration factor must be finite and non-negative, got {factor}"
        );
        let x = self.0 as f64 * factor;
        // `x.round() as u64` without the call into libm: `x - t` is exact
        // for 0 <= x < 2^52, and every larger float is a whole number (or
        // saturates `t`, hence the saturating add).
        let t = x as u64;
        SimDuration(t.saturating_add(u64::from(x - t as f64 >= 0.5)))
    }

    /// True if the duration is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    #[expect(
        clippy::expect_used,
        reason = "a negative duration is a caller bug, as integer subtraction's overflow is"
    )]
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(rhs.0)
                .expect("negative SimDuration in subtraction"),
        )
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree_on_units() {
        assert_eq!(SimTime::from_millis(1), SimTime::from_micros(1_000));
        assert_eq!(SimTime::from_secs(1), SimTime::from_micros(1_000_000));
        assert_eq!(SimDuration::from_millis(30_000), SimDuration::from_secs(30));
    }

    #[test]
    fn add_duration_advances_time() {
        let t = SimTime::from_secs(1) + SimDuration::from_millis(500);
        assert_eq!(t.as_micros(), 1_500_000);
    }

    #[test]
    fn add_assign_advances_time() {
        let mut t = SimTime::ZERO;
        t += SimDuration::from_micros(42);
        assert_eq!(t.as_micros(), 42);
    }

    #[test]
    fn since_measures_elapsed() {
        let a = SimTime::from_secs(2);
        let b = SimTime::from_secs(5);
        assert_eq!(b.since(a), SimDuration::from_secs(3));
    }

    #[test]
    #[should_panic(expected = "clock ran backwards")]
    fn since_panics_when_negative() {
        let _ = SimTime::from_secs(1).since(SimTime::from_secs(2));
    }

    #[test]
    fn saturating_since_clamps_to_zero() {
        let d = SimTime::from_secs(1).saturating_since(SimTime::from_secs(2));
        assert_eq!(d, SimDuration::ZERO);
    }

    #[test]
    fn mul_f64_rounds_to_nearest_microsecond() {
        let d = SimDuration::from_secs(30).mul_f64(0.75);
        assert_eq!(d, SimDuration::from_millis(22_500));
        // Rounding, not truncation.
        let d = SimDuration::from_micros(3).mul_f64(0.5);
        assert_eq!(d.as_micros(), 2); // 1.5 rounds to 2
    }

    #[test]
    fn mul_f64_agrees_with_f64_round() {
        use crate::rng::{Rng, Xoshiro256StarStar};
        let by_round = |d: SimDuration, factor: f64| (d.0 as f64 * factor).round() as u64;
        // Ties at every scale, both neighbours of a tie, and the largest
        // float whose fraction is exact.
        let cases = [(1, 0.5), (3, 0.5), (5, 0.5), (1, 0.499_999_999_999_999_94), (1, 0.500_000_000_000_000_1)]
            .into_iter()
            .chain([(1u64 << 52) - 1, 1 << 52, (1 << 53) + 1, u64::MAX].map(|micros| (micros, 1.0)))
            .chain([(1u64 << 53) - 1, u64::MAX].map(|micros| (micros, 0.5)));
        for (micros, factor) in cases {
            let d = SimDuration::from_micros(micros);
            assert_eq!(d.mul_f64(factor).0, by_round(d, factor), "{micros} x {factor}");
        }
        let mut g = Xoshiro256StarStar::new(0x0071_77e5);
        for _ in 0..100_000 {
            let factor = 0.75 + 0.25 * g.next_f64();
            let d = SimDuration::from_micros(g.next_below(1 << 40));
            assert_eq!(d.mul_f64(factor).0, by_round(d, factor), "{d:?} x {factor}");
            let mrai = SimDuration::from_secs(30);
            assert_eq!(mrai.mul_f64(factor).0, by_round(mrai, factor), "30 s x {factor}");
        }
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn mul_f64_rejects_negative() {
        let _ = SimDuration::from_secs(1).mul_f64(-0.5);
    }

    #[test]
    fn from_secs_f64_rounds() {
        assert_eq!(SimDuration::from_secs_f64(0.0301).as_micros(), 30_100);
    }

    #[test]
    fn display_is_seconds() {
        assert_eq!(SimTime::from_millis(1_500).to_string(), "1.500000s");
        assert_eq!(SimDuration::from_micros(7).to_string(), "0.000007s");
    }

    #[test]
    fn ordering_follows_ticks() {
        assert!(SimTime::from_micros(1) < SimTime::from_micros(2));
        assert!(SimDuration::from_millis(1) < SimDuration::from_secs(1));
    }

    #[test]
    fn duration_arithmetic() {
        let sum = SimDuration::from_secs(1) + SimDuration::from_millis(500);
        assert_eq!(sum.as_micros(), 1_500_000);
        let diff = sum - SimDuration::from_millis(400);
        assert_eq!(diff.as_micros(), 1_100_000);
        assert!(SimDuration::ZERO.is_zero());
        assert!(!sum.is_zero());
    }
}
