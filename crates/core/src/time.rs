//! Discrete time: instants ([`Tick`]) and durations ([`Ticks`]).
//!
//! The paper models the intersection as a discrete-time system monitored at
//! instants `k` (its "mini-slots"). One tick corresponds to one mini-slot of
//! wall-clock length `Δt` (1 s in all the paper's experiments); the mapping
//! from ticks to seconds is owned by the simulator, not by this crate.

use std::fmt;
use std::ops::{Add, AddAssign, Mul, Sub};

/// A discrete time instant `k` (the paper's mini-slot index).
///
/// # Examples
///
/// ```
/// use utilbp_core::{Tick, Ticks};
///
/// let start = Tick::ZERO;
/// let amber_end = start + Ticks::new(4);
/// assert!(start < amber_end);
/// assert_eq!(amber_end - start, Ticks::new(4));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Tick(u64);

impl Tick {
    /// The first instant of a simulation.
    pub const ZERO: Tick = Tick(0);

    /// Creates an instant from a raw mini-slot index.
    pub const fn new(index: u64) -> Self {
        Tick(index)
    }

    /// Returns the raw mini-slot index.
    pub const fn index(self) -> u64 {
        self.0
    }

    /// Returns the next instant (`k + 1`).
    #[must_use]
    pub const fn next(self) -> Tick {
        Tick(self.0 + 1)
    }

    /// Duration elapsed since `earlier`, saturating at zero if `earlier`
    /// is in the future.
    #[must_use]
    pub const fn saturating_since(self, earlier: Tick) -> Ticks {
        Ticks(self.0.saturating_sub(earlier.0))
    }
}

impl fmt::Display for Tick {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "k={}", self.0)
    }
}

/// A duration expressed in mini-slots.
///
/// # Examples
///
/// ```
/// use utilbp_core::Ticks;
///
/// let amber = Ticks::new(4);
/// assert_eq!(amber.count(), 4);
/// assert_eq!(amber * 2, Ticks::new(8));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Ticks(u64);

impl Ticks {
    /// The empty duration.
    pub const ZERO: Ticks = Ticks(0);

    /// A single mini-slot.
    pub const ONE: Ticks = Ticks(1);

    /// Creates a duration of `count` mini-slots.
    pub const fn new(count: u64) -> Self {
        Ticks(count)
    }

    /// Returns the number of mini-slots in this duration.
    pub const fn count(self) -> u64 {
        self.0
    }

    /// Returns `true` if the duration is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl fmt::Display for Ticks {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ticks", self.0)
    }
}

impl Add<Ticks> for Tick {
    type Output = Tick;

    fn add(self, rhs: Ticks) -> Tick {
        Tick(self.0 + rhs.0)
    }
}

impl AddAssign<Ticks> for Tick {
    fn add_assign(&mut self, rhs: Ticks) {
        self.0 += rhs.0;
    }
}

impl Sub<Tick> for Tick {
    type Output = Ticks;

    /// # Panics
    ///
    /// Panics in debug builds if `rhs` is later than `self`; use
    /// [`Tick::saturating_since`] when the ordering is not statically known.
    fn sub(self, rhs: Tick) -> Ticks {
        debug_assert!(rhs.0 <= self.0, "tick subtraction underflow");
        Ticks(self.0 - rhs.0)
    }
}

impl Add for Ticks {
    type Output = Ticks;

    fn add(self, rhs: Ticks) -> Ticks {
        Ticks(self.0 + rhs.0)
    }
}

impl AddAssign for Ticks {
    fn add_assign(&mut self, rhs: Ticks) {
        self.0 += rhs.0;
    }
}

impl Sub for Ticks {
    type Output = Ticks;

    fn sub(self, rhs: Ticks) -> Ticks {
        Ticks(self.0.saturating_sub(rhs.0))
    }
}

impl Mul<u64> for Ticks {
    type Output = Ticks;

    fn mul(self, rhs: u64) -> Ticks {
        Ticks(self.0 * rhs)
    }
}

impl From<u64> for Ticks {
    fn from(count: u64) -> Self {
        Ticks(count)
    }
}

impl From<u64> for Tick {
    fn from(index: u64) -> Self {
        Tick(index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tick_arithmetic_round_trips() {
        let t = Tick::new(10);
        assert_eq!((t + Ticks::new(5)).index(), 15);
        assert_eq!(Tick::new(15) - t, Ticks::new(5));
        assert_eq!(t.next(), Tick::new(11));
    }

    #[test]
    fn saturating_since_clamps_to_zero() {
        let early = Tick::new(3);
        let late = Tick::new(9);
        assert_eq!(late.saturating_since(early), Ticks::new(6));
        assert_eq!(early.saturating_since(late), Ticks::ZERO);
    }

    #[test]
    fn ticks_arithmetic() {
        assert_eq!(Ticks::new(3) + Ticks::new(4), Ticks::new(7));
        assert_eq!(Ticks::new(4) - Ticks::new(6), Ticks::ZERO);
        assert_eq!(Ticks::new(4) * 3, Ticks::new(12));
        assert!(Ticks::ZERO.is_zero());
        assert!(!Ticks::ONE.is_zero());
    }

    #[test]
    fn ordering_matches_index_order() {
        assert!(Tick::new(1) < Tick::new(2));
        assert!(Ticks::new(1) < Ticks::new(2));
    }

    #[test]
    fn display_is_nonempty() {
        assert_eq!(Tick::new(7).to_string(), "k=7");
        assert_eq!(Ticks::new(7).to_string(), "7 ticks");
    }

    #[test]
    fn conversions_from_u64() {
        assert_eq!(Tick::from(4u64), Tick::new(4));
        assert_eq!(Ticks::from(4u64), Ticks::new(4));
    }
}
