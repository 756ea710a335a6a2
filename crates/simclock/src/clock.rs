//! The virtual clock and its duration/instant types.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A span of simulated time with nanosecond resolution.
///
/// `SimDuration` mirrors the subset of `std::time::Duration` the simulator
/// needs, but is kept separate so simulated and wall-clock time can never be
/// mixed by accident.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration {
    nanos: u64,
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration { nanos: 0 };

    /// Creates a duration from whole nanoseconds.
    pub const fn from_nanos(nanos: u64) -> Self {
        SimDuration { nanos }
    }

    /// Creates a duration from whole microseconds.
    pub const fn from_micros(micros: u64) -> Self {
        SimDuration {
            nanos: micros * 1_000,
        }
    }

    /// Creates a duration from whole milliseconds.
    pub const fn from_millis(millis: u64) -> Self {
        SimDuration {
            nanos: millis * 1_000_000,
        }
    }

    /// Creates a duration from whole seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration {
            nanos: secs * 1_000_000_000,
        }
    }

    /// Total nanoseconds in this duration.
    pub const fn as_nanos(&self) -> u64 {
        self.nanos
    }

    /// The duration expressed as fractional milliseconds.
    pub fn as_millis_f64(&self) -> f64 {
        self.nanos as f64 / 1e6
    }

    /// The duration expressed as fractional seconds.
    pub fn as_secs_f64(&self) -> f64 {
        self.nanos as f64 / 1e9
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration {
            nanos: self.nanos.saturating_sub(rhs.nanos),
        }
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration {
            nanos: self.nanos + rhs.nanos,
        }
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.nanos += rhs.nanos;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration {
            nanos: self.nanos - rhs.nanos,
        }
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration {
            nanos: self.nanos * rhs,
        }
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration {
            nanos: self.nanos / rhs,
        }
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.nanos >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.nanos >= 1_000_000 {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else if self.nanos >= 1_000 {
            write!(f, "{:.3}us", self.nanos as f64 / 1e3)
        } else {
            write!(f, "{}ns", self.nanos)
        }
    }
}

/// A point in simulated time, produced by [`SimClock::now`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SimInstant {
    nanos: u64,
}

impl SimInstant {
    /// The simulated-time origin.
    pub const EPOCH: SimInstant = SimInstant { nanos: 0 };

    /// Nanoseconds since the simulated epoch.
    pub const fn as_nanos(&self) -> u64 {
        self.nanos
    }

    /// Duration elapsed from `earlier` to `self`; zero if `earlier` is later.
    pub fn duration_since(&self, earlier: SimInstant) -> SimDuration {
        SimDuration {
            nanos: self.nanos.saturating_sub(earlier.nanos),
        }
    }
}

impl Sub for SimInstant {
    type Output = SimDuration;
    fn sub(self, rhs: SimInstant) -> SimDuration {
        self.duration_since(rhs)
    }
}

impl Add<SimDuration> for SimInstant {
    type Output = SimInstant;
    fn add(self, rhs: SimDuration) -> SimInstant {
        SimInstant {
            nanos: self.nanos + rhs.as_nanos(),
        }
    }
}

/// A monotonically increasing, thread-safe virtual clock.
///
/// Every component of the simulated cluster shares one `SimClock` (it is
/// cheap to clone — clones share the same underlying counter).  Costs are
/// charged with [`SimClock::charge`]; response times are measured by taking
/// [`SimClock::now`] before and after an operation on a single logical
/// client, mirroring how the paper measures request response time at the
/// client.
#[derive(Debug, Clone, Default)]
pub struct SimClock {
    nanos: Arc<AtomicU64>,
}

impl SimClock {
    /// Creates a clock at the simulated epoch.
    pub fn new() -> Self {
        SimClock {
            nanos: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimInstant {
        SimInstant {
            nanos: self.nanos.load(Ordering::SeqCst),
        }
    }

    /// Advances the clock by `cost` and returns the new time.
    pub fn charge(&self, cost: SimDuration) -> SimInstant {
        let nanos = self
            .nanos
            .fetch_add(cost.as_nanos(), Ordering::SeqCst)
            + cost.as_nanos();
        SimInstant { nanos }
    }

    /// Measures the simulated duration of `f` as observed by this clock.
    pub fn measure<T>(&self, f: impl FnOnce() -> T) -> (T, SimDuration) {
        let start = self.now();
        let value = f();
        let elapsed = self.now() - start;
        (value, elapsed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duration_constructors_agree() {
        assert_eq!(SimDuration::from_micros(5).as_nanos(), 5_000);
        assert_eq!(SimDuration::from_millis(2), SimDuration::from_micros(2_000));
        assert_eq!(SimDuration::from_secs(1), SimDuration::from_millis(1_000));
    }

    #[test]
    fn duration_arithmetic() {
        let a = SimDuration::from_micros(10);
        let b = SimDuration::from_micros(3);
        assert_eq!(a + b, SimDuration::from_micros(13));
        assert_eq!(a - b, SimDuration::from_micros(7));
        assert_eq!(a * 4, SimDuration::from_micros(40));
        assert_eq!(a / 2, SimDuration::from_micros(5));
        assert_eq!(b.saturating_sub(a), SimDuration::ZERO);
    }

    #[test]
    fn clock_accumulates_charges() {
        let clock = SimClock::new();
        let start = clock.now();
        clock.charge(SimDuration::from_micros(100));
        clock.charge(SimDuration::from_micros(50));
        assert_eq!(clock.now() - start, SimDuration::from_micros(150));
    }

    #[test]
    fn clones_share_time() {
        let clock = SimClock::new();
        let clone = clock.clone();
        clone.charge(SimDuration::from_millis(1));
        assert_eq!(clock.now().as_nanos(), 1_000_000);
        assert!(Arc::ptr_eq(&clock.nanos, &clone.nanos));
    }

    #[test]
    fn measure_reports_only_charged_time() {
        let clock = SimClock::new();
        let (value, elapsed) = clock.measure(|| {
            clock.charge(SimDuration::from_millis(3));
            42
        });
        assert_eq!(value, 42);
        assert_eq!(elapsed, SimDuration::from_millis(3));
    }

    #[test]
    fn instant_ordering_and_display() {
        let clock = SimClock::new();
        let a = clock.now();
        clock.charge(SimDuration::from_nanos(10));
        let b = clock.now();
        assert!(b > a);
        assert_eq!(format!("{}", SimDuration::from_millis(1500)), "1.500s");
        assert_eq!(format!("{}", SimDuration::from_nanos(12)), "12ns");
    }

    #[test]
    fn charges_are_thread_safe() {
        let clock = SimClock::new();
        std::thread::scope(|s| {
            for _ in 0..8 {
                let c = clock.clone();
                s.spawn(move || {
                    for _ in 0..1_000 {
                        c.charge(SimDuration::from_nanos(1));
                    }
                });
            }
        });
        assert_eq!(clock.now().as_nanos(), 8_000);
    }
}
