//! Simulation time: cycles, frequencies and wall-clock conversion.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Sub, SubAssign};

/// A point (or span) on the simulation timeline, measured in clock cycles
/// of the modelled clock domain.
///
/// `Cycle` is a plain newtype over `u64`; arithmetic saturates on
/// subtraction underflow is a bug, so `Sub` panics in debug builds like
/// ordinary integer arithmetic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Cycle(pub u64);

impl Cycle {
    /// The origin of the timeline.
    pub const ZERO: Cycle = Cycle(0);

    /// Largest representable time; used as "never".
    pub const MAX: Cycle = Cycle(u64::MAX);

    /// Raw cycle count.
    #[inline]
    pub fn raw(self) -> u64 {
        self.0
    }

    /// Saturating subtraction: `self - rhs`, clamped at zero.
    #[inline]
    pub fn saturating_sub(self, rhs: Cycle) -> Cycle {
        Cycle(self.0.saturating_sub(rhs.0))
    }

    /// Saturating addition: `self + rhs`, clamped at `u64::MAX`.
    /// Sentinel instants like `Chip::DROPPED` sit at the top of the
    /// range, so adding a delay term to an arbitrary instant must not
    /// wrap around.
    #[inline]
    pub fn saturating_add(self, rhs: Cycle) -> Cycle {
        Cycle(self.0.saturating_add(rhs.0))
    }

    /// The later of two instants.
    #[inline]
    pub fn max(self, other: Cycle) -> Cycle {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }

    /// The earlier of two instants.
    #[inline]
    pub fn min(self, other: Cycle) -> Cycle {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }

    /// Convert a cycle count in one clock domain into seconds at `freq`.
    #[inline]
    pub fn to_seconds(self, freq: Frequency) -> f64 {
        self.0 as f64 / freq.hz()
    }

    /// Convert to milliseconds at `freq`.
    #[inline]
    pub fn to_millis(self, freq: Frequency) -> f64 {
        self.to_seconds(freq) * 1e3
    }
}

impl Add for Cycle {
    type Output = Cycle;
    #[inline]
    fn add(self, rhs: Cycle) -> Cycle {
        Cycle(self.0 + rhs.0)
    }
}

impl Add<u64> for Cycle {
    type Output = Cycle;
    #[inline]
    fn add(self, rhs: u64) -> Cycle {
        Cycle(self.0 + rhs)
    }
}

impl AddAssign for Cycle {
    #[inline]
    fn add_assign(&mut self, rhs: Cycle) {
        self.0 += rhs.0;
    }
}

impl AddAssign<u64> for Cycle {
    #[inline]
    fn add_assign(&mut self, rhs: u64) {
        self.0 += rhs;
    }
}

impl Sub for Cycle {
    type Output = Cycle;
    #[inline]
    fn sub(self, rhs: Cycle) -> Cycle {
        Cycle(self.0 - rhs.0)
    }
}

impl SubAssign for Cycle {
    #[inline]
    fn sub_assign(&mut self, rhs: Cycle) {
        self.0 -= rhs.0;
    }
}

impl Sum for Cycle {
    fn sum<I: Iterator<Item = Cycle>>(iter: I) -> Cycle {
        Cycle(iter.map(|c| c.0).sum())
    }
}

impl fmt::Display for Cycle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} cyc", self.0)
    }
}

/// A clock frequency, used to convert simulated cycles to wall time and
/// power to energy.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct Frequency(f64);

impl Frequency {
    /// Construct from Hertz. Panics on non-positive or non-finite input.
    pub fn hz_new(hz: f64) -> Frequency {
        assert!(
            hz.is_finite() && hz > 0.0,
            "frequency must be positive, got {hz}"
        );
        Frequency(hz)
    }

    /// Construct from megahertz.
    pub fn mhz(mhz: f64) -> Frequency {
        Frequency::hz_new(mhz * 1e6)
    }

    /// Construct from gigahertz.
    pub fn ghz(ghz: f64) -> Frequency {
        Frequency::hz_new(ghz * 1e9)
    }

    /// Value in Hertz.
    #[inline]
    pub fn hz(self) -> f64 {
        self.0
    }

    /// Number of cycles elapsed in `seconds` (rounded up: a partial
    /// cycle still occupies the resource for the whole cycle).
    #[inline]
    pub fn cycles_in(self, seconds: f64) -> Cycle {
        Cycle((seconds * self.0).ceil() as u64)
    }
}

impl fmt::Display for Frequency {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1e9 {
            write!(f, "{:.2} GHz", self.0 / 1e9)
        } else if self.0 >= 1e6 {
            write!(f, "{:.1} MHz", self.0 / 1e6)
        } else {
            write!(f, "{:.0} Hz", self.0)
        }
    }
}

/// A cycle count paired with the frequency it was measured at, so that
/// spans from different clock domains can be compared in wall time.
#[derive(Debug, Clone, Copy)]
pub struct TimeSpan {
    /// Elapsed cycles in the domain.
    pub cycles: Cycle,
    /// Clock the cycles were counted against.
    pub clock: Frequency,
}

impl TimeSpan {
    /// Create a span.
    pub fn new(cycles: Cycle, clock: Frequency) -> TimeSpan {
        TimeSpan { cycles, clock }
    }

    /// Span length in seconds.
    pub fn seconds(&self) -> f64 {
        self.cycles.to_seconds(self.clock)
    }

    /// Span length in milliseconds.
    pub fn millis(&self) -> f64 {
        self.cycles.to_millis(self.clock)
    }

    /// Wall-time ratio `other / self` — how many times longer `other` is.
    pub fn speedup_over(&self, other: &TimeSpan) -> f64 {
        other.seconds() / self.seconds()
    }
}

impl fmt::Display for TimeSpan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:.3} ms ({} @ {})",
            self.millis(),
            self.cycles,
            self.clock
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycle_arithmetic() {
        let a = Cycle(10) + Cycle(5);
        assert_eq!(a, Cycle(15));
        assert_eq!(a - Cycle(5), Cycle(10));
        assert_eq!(Cycle(3).saturating_sub(Cycle(10)), Cycle::ZERO);
        assert_eq!(Cycle(3).saturating_add(Cycle(4)), Cycle(7));
        assert_eq!(
            Cycle(u64::MAX).saturating_add(Cycle(1)),
            Cycle(u64::MAX),
            "instants at the sentinel ceiling must not wrap"
        );
        assert_eq!(Cycle(3).max(Cycle(7)), Cycle(7));
        assert_eq!(Cycle(3).min(Cycle(7)), Cycle(3));
        let mut c = Cycle(1);
        c += 4;
        assert_eq!(c, Cycle(5));
        c += Cycle(5);
        assert_eq!(c, Cycle(10));
        c -= Cycle(2);
        assert_eq!(c, Cycle(8));
    }

    #[test]
    fn cycle_sum() {
        let total: Cycle = [Cycle(1), Cycle(2), Cycle(3)].into_iter().sum();
        assert_eq!(total, Cycle(6));
    }

    #[test]
    fn frequency_conversions() {
        let f = Frequency::ghz(1.0);
        assert_eq!(f.hz(), 1e9);
        assert_eq!(Cycle(1_000_000).to_millis(f), 1.0);
        assert_eq!(f.cycles_in(1e-6), Cycle(1000));
        // Partial cycles round up.
        assert_eq!(f.cycles_in(1.5e-9), Cycle(2));
        let m = Frequency::mhz(400.0);
        assert!((m.hz() - 4e8).abs() < 1.0);
    }

    #[test]
    #[should_panic(expected = "frequency must be positive")]
    fn frequency_rejects_zero() {
        let _ = Frequency::hz_new(0.0);
    }

    #[test]
    fn timespan_speedup() {
        // 1000 cycles @ 1 GHz = 1 us; 2670 cycles @ 2.67 GHz = 1 us.
        let a = TimeSpan::new(Cycle(1000), Frequency::ghz(1.0));
        let b = TimeSpan::new(Cycle(2670), Frequency::ghz(2.67));
        let s = a.speedup_over(&b);
        assert!((s - 1.0).abs() < 1e-9, "speedup was {s}");
        // Half the cycles at the same clock -> 2x speedup.
        let c = TimeSpan::new(Cycle(500), Frequency::ghz(1.0));
        assert!((c.speedup_over(&a) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", Cycle(42)), "42 cyc");
        assert_eq!(format!("{}", Frequency::ghz(1.0)), "1.00 GHz");
        assert_eq!(format!("{}", Frequency::mhz(400.0)), "400.0 MHz");
    }
}
