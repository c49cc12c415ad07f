//! Time as the node API sees it.
//!
//! Time is represented in integer microseconds to keep simulation runs
//! deterministic and free of floating-point accumulation error. [`Duration`]
//! is a separate type so that "point in time" and "span of time" cannot be
//! confused in protocol code.
//!
//! The same pair of types serves both runtimes: inside the discrete-event
//! simulator a [`SimTime`] is virtual time since simulation start; in the
//! real runtime it is wall-clock microseconds since the cluster epoch (the
//! instant the cluster was launched). Protocol code only ever computes with
//! differences and offsets, so it cannot tell the two apart.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// A point in time, measured in microseconds since the run's origin
/// (simulation start or real-cluster launch).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimTime(pub u64);

/// A span of time in microseconds.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Duration(pub u64);

impl SimTime {
    /// The origin of simulated time.
    pub const ZERO: SimTime = SimTime(0);

    /// Largest representable instant; used as "never" for disabled timers.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Construct from whole seconds.
    pub fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000)
    }

    /// Construct from whole milliseconds.
    pub fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000)
    }

    /// Construct from microseconds.
    pub fn from_micros(us: u64) -> Self {
        SimTime(us)
    }

    /// Value in microseconds.
    pub fn as_micros(self) -> u64 {
        self.0
    }

    /// Value in (truncated) milliseconds.
    pub fn as_millis(self) -> u64 {
        self.0 / 1_000
    }

    /// Value in seconds as a float, for reporting.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Time elapsed since `earlier`, saturating at zero.
    pub fn since(self, earlier: SimTime) -> Duration {
        Duration(self.0.saturating_sub(earlier.0))
    }

    /// Saturating addition of a duration.
    pub fn saturating_add(self, d: Duration) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }
}

impl Duration {
    /// Zero-length duration.
    pub const ZERO: Duration = Duration(0);

    /// Construct from whole seconds.
    pub fn from_secs(s: u64) -> Self {
        Duration(s * 1_000_000)
    }

    /// Construct from whole milliseconds.
    pub fn from_millis(ms: u64) -> Self {
        Duration(ms * 1_000)
    }

    /// Construct from microseconds.
    pub fn from_micros(us: u64) -> Self {
        Duration(us)
    }

    /// Construct from fractional milliseconds, rounding to the nearest microsecond.
    pub fn from_millis_f64(ms: f64) -> Self {
        Duration((ms * 1_000.0).round().max(0.0) as u64)
    }

    /// Value in microseconds.
    pub fn as_micros(self) -> u64 {
        self.0
    }

    /// Value in (truncated) milliseconds.
    pub fn as_millis(self) -> u64 {
        self.0 / 1_000
    }

    /// Value in milliseconds as a float, for reporting and scoring.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Value in seconds as a float, for reporting.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Multiply by a float factor (e.g. the paper's δ multiplier), rounding.
    pub fn mul_f64(self, factor: f64) -> Duration {
        Duration((self.0 as f64 * factor).round().max(0.0) as u64)
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: Duration) -> Duration {
        Duration(self.0.saturating_sub(other.0))
    }

    /// The larger of two durations.
    pub fn max(self, other: Duration) -> Duration {
        Duration(self.0.max(other.0))
    }

    /// The smaller of two durations.
    pub fn min(self, other: Duration) -> Duration {
        Duration(self.0.min(other.0))
    }

    /// True if this duration is zero.
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl Add<Duration> for SimTime {
    type Output = SimTime;
    fn add(self, d: Duration) -> SimTime {
        SimTime(self.0 + d.0)
    }
}

impl AddAssign<Duration> for SimTime {
    fn add_assign(&mut self, d: Duration) {
        self.0 += d.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = Duration;
    fn sub(self, other: SimTime) -> Duration {
        Duration(self.0.saturating_sub(other.0))
    }
}

impl Add for Duration {
    type Output = Duration;
    fn add(self, other: Duration) -> Duration {
        Duration(self.0 + other.0)
    }
}

impl AddAssign for Duration {
    fn add_assign(&mut self, other: Duration) {
        self.0 += other.0;
    }
}

impl Sub for Duration {
    type Output = Duration;
    fn sub(self, other: Duration) -> Duration {
        Duration(self.0.saturating_sub(other.0))
    }
}

impl Mul<u64> for Duration {
    type Output = Duration;
    fn mul(self, k: u64) -> Duration {
        Duration(self.0 * k)
    }
}

impl Div<u64> for Duration {
    type Output = Duration;
    fn div(self, k: u64) -> Duration {
        Duration(self.0 / k)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ms", self.as_millis_f64())
    }
}

/// The span of time during which something (a fault, a scripted behaviour
/// stage) is active. Pure data — the protocol-level delay stages and the
/// network-level fault plans share it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultWindow {
    /// First instant at which the window is open.
    pub from: SimTime,
    /// First instant at which it is closed again (`None` = forever).
    pub until: Option<SimTime>,
}

impl FaultWindow {
    /// Active for the whole run.
    pub const ALWAYS: FaultWindow = FaultWindow {
        from: SimTime::ZERO,
        until: None,
    };

    /// Active from `from` onwards.
    pub fn starting(from: SimTime) -> Self {
        FaultWindow { from, until: None }
    }

    /// Active in the half-open interval `[from, until)`.
    pub fn between(from: SimTime, until: SimTime) -> Self {
        assert!(from <= until, "fault window ends before it starts");
        FaultWindow {
            from,
            until: Some(until),
        }
    }

    /// True if the window contains `now`.
    pub fn contains(&self, now: SimTime) -> bool {
        now >= self.from && self.until.is_none_or(|u| now < u)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_roundtrip() {
        assert_eq!(SimTime::from_secs(2).as_micros(), 2_000_000);
        assert_eq!(SimTime::from_millis(5).as_micros(), 5_000);
        assert_eq!(Duration::from_secs(1).as_millis(), 1_000);
        assert_eq!(Duration::from_millis_f64(1.5).as_micros(), 1_500);
    }

    #[test]
    fn time_arithmetic() {
        let t = SimTime::from_millis(10);
        let d = Duration::from_millis(5);
        assert_eq!((t + d).as_millis(), 15);
        assert_eq!((t + d) - t, d);
        assert_eq!(t - (t + d), Duration::ZERO);
    }

    #[test]
    fn duration_arithmetic() {
        let a = Duration::from_millis(10);
        let b = Duration::from_millis(4);
        assert_eq!((a + b).as_millis(), 14);
        assert_eq!((a - b).as_millis(), 6);
        assert_eq!((b - a).as_millis(), 0, "subtraction saturates");
        assert_eq!((a * 3).as_millis(), 30);
        assert_eq!((a / 2).as_millis(), 5);
    }

    #[test]
    fn mul_f64_rounds() {
        let d = Duration::from_micros(100);
        assert_eq!(d.mul_f64(1.5).as_micros(), 150);
        assert_eq!(d.mul_f64(0.0).as_micros(), 0);
        assert_eq!(d.mul_f64(1.004).as_micros(), 100);
    }

    #[test]
    fn since_saturates() {
        let a = SimTime::from_millis(5);
        let b = SimTime::from_millis(8);
        assert_eq!(b.since(a).as_millis(), 3);
        assert_eq!(a.since(b), Duration::ZERO);
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", SimTime::from_millis(1500)), "1.500s");
        assert_eq!(format!("{}", Duration::from_micros(2500)), "2.500ms");
    }

    #[test]
    fn ordering() {
        assert!(SimTime::from_millis(1) < SimTime::from_millis(2));
        assert!(Duration::from_millis(1) < Duration::from_millis(2));
        assert!(SimTime::MAX > SimTime::from_secs(1_000_000));
    }

    #[test]
    fn window_contains_is_half_open() {
        let w = FaultWindow::between(SimTime::from_secs(10), SimTime::from_secs(20));
        assert!(!w.contains(SimTime::from_micros(9_999_999)));
        assert!(w.contains(SimTime::from_secs(10)));
        assert!(w.contains(SimTime::from_micros(19_999_999)));
        assert!(!w.contains(SimTime::from_secs(20)));
        assert!(FaultWindow::ALWAYS.contains(SimTime::ZERO));
        assert!(FaultWindow::starting(SimTime::from_secs(5)).contains(SimTime::from_secs(500)));
    }
}
