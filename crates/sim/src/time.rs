//! Virtual time for the discrete-event engine.
//!
//! All simulation time is measured in integer nanoseconds from the start of
//! the run. Two newtypes keep instants ([`Time`]) and spans ([`Dur`])
//! distinct so that the type system rejects nonsense like adding two
//! instants together.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// An instant in virtual time, in nanoseconds since the start of the run.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Time(pub u64);

/// A span of virtual time, in nanoseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Dur(pub u64);

impl Time {
    /// The start of the simulation.
    pub const ZERO: Time = Time(0);
    /// The largest representable instant; used as an "infinite" horizon.
    pub const MAX: Time = Time(u64::MAX);

    /// Construct from whole seconds of virtual time.
    pub const fn from_secs(s: u64) -> Self {
        Time(s * 1_000_000_000)
    }
    /// Construct from milliseconds of virtual time.
    pub const fn from_millis(ms: u64) -> Self {
        Time(ms * 1_000_000)
    }
    /// Construct from microseconds of virtual time.
    pub const fn from_micros(us: u64) -> Self {
        Time(us * 1_000)
    }
    /// Raw nanosecond count.
    pub const fn nanos(self) -> u64 {
        self.0
    }
    /// This instant expressed as fractional seconds (for reporting).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }
    /// Time elapsed since `earlier`, saturating to zero if `earlier` is later.
    pub fn since(self, earlier: Time) -> Dur {
        Dur(self.0.saturating_sub(earlier.0))
    }
}

impl Dur {
    /// The zero-length span.
    pub const ZERO: Dur = Dur(0);

    /// Construct from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        Dur(s * 1_000_000_000)
    }
    /// Construct from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        Dur(ms * 1_000_000)
    }
    /// Construct from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        Dur(us * 1_000)
    }
    /// Construct from nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        Dur(ns)
    }
    /// Raw nanosecond count.
    pub const fn nanos(self) -> u64 {
        self.0
    }
    /// This span expressed as fractional seconds (for reporting).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }
    /// The wire-serialization time of `bytes` at `bits_per_sec`, rounded up.
    pub fn serialization(bytes: usize, bits_per_sec: u64) -> Dur {
        assert!(bits_per_sec > 0, "bandwidth must be positive");
        let bits = bytes as u128 * 8;
        let ns = (bits * 1_000_000_000).div_ceil(bits_per_sec as u128);
        Dur(ns.min(u64::MAX as u128) as u64)
    }
}

impl Add<Dur> for Time {
    type Output = Time;
    fn add(self, rhs: Dur) -> Time {
        Time(self.0.saturating_add(rhs.0))
    }
}
impl AddAssign<Dur> for Time {
    fn add_assign(&mut self, rhs: Dur) {
        *self = *self + rhs;
    }
}
impl Sub<Dur> for Time {
    type Output = Time;
    fn sub(self, rhs: Dur) -> Time {
        Time(self.0.saturating_sub(rhs.0))
    }
}
impl Add for Dur {
    type Output = Dur;
    fn add(self, rhs: Dur) -> Dur {
        Dur(self.0.saturating_add(rhs.0))
    }
}
impl AddAssign for Dur {
    fn add_assign(&mut self, rhs: Dur) {
        *self = *self + rhs;
    }
}
impl Sub for Dur {
    type Output = Dur;
    fn sub(self, rhs: Dur) -> Dur {
        Dur(self.0.saturating_sub(rhs.0))
    }
}
impl Mul<u64> for Dur {
    type Output = Dur;
    fn mul(self, rhs: u64) -> Dur {
        Dur(self.0.saturating_mul(rhs))
    }
}
impl Div<u64> for Dur {
    type Output = Dur;
    fn div(self, rhs: u64) -> Dur {
        Dur(self.0 / rhs)
    }
}

impl fmt::Debug for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.6}s", self.as_secs_f64())
    }
}
impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}
impl fmt::Debug for Dur {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}
impl fmt::Display for Dur {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(Time::from_secs(1), Time(1_000_000_000));
        assert_eq!(Time::from_millis(1500), Time(1_500_000_000));
        assert_eq!(Dur::from_micros(3), Dur(3_000));
    }

    #[test]
    fn arithmetic() {
        let t = Time::from_secs(2) + Dur::from_millis(500);
        assert_eq!(t, Time(2_500_000_000));
        assert_eq!(t.since(Time::from_secs(1)), Dur(1_500_000_000));
        // saturating: earlier.since(later) is zero, not a panic
        assert_eq!(Time::ZERO.since(t), Dur::ZERO);
        assert_eq!(t - Dur::from_secs(10), Time::ZERO);
    }

    #[test]
    fn serialization_delay_rounds_up() {
        // 1000 bytes at 1 Gbps = 8 microseconds exactly
        assert_eq!(Dur::serialization(1000, 1_000_000_000), Dur::from_micros(8));
        // 1 byte at 3 bps = 8/3 s, rounded up
        assert_eq!(Dur::serialization(1, 3), Dur(2_666_666_667));
    }

    #[test]
    #[should_panic]
    fn zero_bandwidth_panics() {
        let _ = Dur::serialization(1, 0);
    }
}
