//! Virtual time for the discrete-event engine.
//!
//! Simulation time is an integer count of **picoseconds** since the start of
//! the run. Integer time keeps the event ordering exactly deterministic and
//! gives sub-nanosecond resolution, which matters when modelling multi-GB/s
//! links (1 byte at 10 GB/s is 100 ps). `u64` picoseconds covers ~213 days of
//! simulated time, far beyond any experiment in this suite.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// Picoseconds per second.
pub const PS_PER_SEC: u64 = 1_000_000_000_000;

/// An instant in simulated time (picoseconds since simulation start).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time (picoseconds).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);
    /// The greatest representable instant.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Construct from raw picoseconds.
    #[inline]
    pub const fn from_ps(ps: u64) -> Self {
        SimTime(ps)
    }

    /// Raw picosecond count.
    #[inline]
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// This instant expressed in seconds (lossy; for reporting and fluid-model math).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / PS_PER_SEC as f64
    }

    /// Duration elapsed since `earlier`. Saturates at zero if `earlier` is later.
    #[inline]
    pub fn duration_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Saturating add.
    #[inline]
    pub fn saturating_add(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }
}

impl SimDuration {
    /// Zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Construct from raw picoseconds.
    #[inline]
    pub const fn from_ps(ps: u64) -> Self {
        SimDuration(ps)
    }

    /// Construct from nanoseconds.
    #[inline]
    pub const fn from_ns(ns: u64) -> Self {
        SimDuration(ns * 1_000)
    }

    /// Construct from microseconds.
    #[inline]
    pub const fn from_us(us: u64) -> Self {
        SimDuration(us * 1_000_000)
    }

    /// Construct from milliseconds.
    #[inline]
    pub const fn from_ms(ms: u64) -> Self {
        SimDuration(ms * 1_000_000_000)
    }

    /// Construct from (possibly fractional) seconds. Negative and NaN inputs
    /// clamp to zero; values beyond the representable range clamp to the max.
    pub fn from_secs_f64(secs: f64) -> Self {
        if secs.is_nan() || secs <= 0.0 {
            return SimDuration(0);
        }
        let ps = secs * PS_PER_SEC as f64;
        if ps >= u64::MAX as f64 {
            SimDuration(u64::MAX)
        } else {
            // Round up so that a transfer never completes earlier than the
            // fluid model says it should (guards against busy re-scheduling).
            SimDuration(ps.ceil() as u64)
        }
    }

    /// Raw picosecond count.
    #[inline]
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// Seconds as `f64` (lossy; for reporting).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / PS_PER_SEC as f64
    }

    /// Saturating integer multiply.
    #[inline]
    pub fn saturating_mul(self, k: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(k))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl Add<SimDuration> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimDuration {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.9}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ps = self.0;
        if ps >= PS_PER_SEC {
            write!(f, "{:.6}s", self.as_secs_f64())
        } else if ps >= 1_000_000 {
            write!(f, "{:.3}us", ps as f64 / 1.0e6)
        } else if ps >= 1_000 {
            write!(f, "{:.3}ns", ps as f64 / 1.0e3)
        } else {
            write!(f, "{ps}ps")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_roundtrips() {
        assert_eq!(SimDuration::from_ns(3).as_ps(), 3_000);
        assert_eq!(SimDuration::from_us(3).as_ps(), 3_000_000);
        assert_eq!(SimDuration::from_ms(3).as_ps(), 3_000_000_000);
        assert_eq!(SimTime::from_ps(42).as_ps(), 42);
    }

    #[test]
    fn from_secs_rounds_up() {
        // 1.5 ps expressed in seconds must round *up* to 2 ps.
        let d = SimDuration::from_secs_f64(1.5e-12);
        assert_eq!(d.as_ps(), 2);
    }

    #[test]
    fn from_secs_clamps_garbage() {
        assert_eq!(SimDuration::from_secs_f64(-1.0).as_ps(), 0);
        assert_eq!(SimDuration::from_secs_f64(f64::NAN).as_ps(), 0);
        assert_eq!(SimDuration::from_secs_f64(1.0e30).as_ps(), u64::MAX);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_ps(100) + SimDuration::from_ps(50);
        assert_eq!(t.as_ps(), 150);
        assert_eq!((t - SimTime::from_ps(100)).as_ps(), 50);
        assert_eq!(
            SimTime::from_ps(10).duration_since(SimTime::from_ps(50)),
            SimDuration::ZERO
        );
    }

    #[test]
    fn display_units() {
        assert_eq!(format!("{}", SimDuration::from_ps(5)), "5ps");
        assert_eq!(format!("{}", SimDuration::from_ns(5)), "5.000ns");
        assert_eq!(format!("{}", SimDuration::from_us(5)), "5.000us");
        assert_eq!(format!("{}", SimDuration::from_ms(1500)), "1.500000s");
    }
}
