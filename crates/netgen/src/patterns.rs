//! The paper's demand inputs: Table I turning probabilities and Table II
//! arrival patterns.

use utilbp_core::standard::{Approach, Turn};
use utilbp_core::{Tick, Ticks};

/// Turning probabilities of vehicles entering the network, by the side they
/// enter from (Table I of the paper). The straight probability is the
/// complement of right + left.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TurningProbabilities {
    /// `(P(right), P(left))` indexed by entry side in `Approach::ALL`
    /// order.
    right_left: [(f64, f64); 4],
}

impl TurningProbabilities {
    /// Table I of the paper.
    ///
    /// | Entering from | North | East | South | West |
    /// |---------------|-------|------|-------|------|
    /// | P(right)      | 0.4   | 0.3  | 0.4   | 0.3  |
    /// | P(left)       | 0.2   | 0.3  | 0.3   | 0.4  |
    pub const PAPER: TurningProbabilities = TurningProbabilities {
        right_left: [(0.4, 0.2), (0.3, 0.3), (0.4, 0.3), (0.3, 0.4)],
    };

    /// Creates a table from per-side `(right, left)` probabilities in
    /// `Approach::ALL` order (North, East, South, West).
    ///
    /// # Errors
    ///
    /// Returns an error string if any probability is outside `[0, 1]` or a
    /// side's right + left exceeds 1.
    pub fn new(right_left: [(f64, f64); 4]) -> Result<Self, String> {
        for (i, &(r, l)) in right_left.iter().enumerate() {
            let side = Approach::ALL[i];
            if !(0.0..=1.0).contains(&r) || !(0.0..=1.0).contains(&l) {
                return Err(format!(
                    "turning probabilities for {side} must lie in [0,1], got ({r}, {l})"
                ));
            }
            if r + l > 1.0 + 1e-12 {
                return Err(format!("right + left for {side} is {} > 1", r + l));
            }
        }
        Ok(TurningProbabilities { right_left })
    }

    /// `P(right)` for vehicles entering from `side`.
    pub fn right(&self, side: Approach) -> f64 {
        self.right_left[side as usize].0
    }

    /// `P(left)` for vehicles entering from `side`.
    pub fn left(&self, side: Approach) -> f64 {
        self.right_left[side as usize].1
    }

    /// `P(straight) = 1 − P(right) − P(left)` for vehicles entering from
    /// `side`.
    pub fn straight(&self, side: Approach) -> f64 {
        (1.0 - self.right(side) - self.left(side)).max(0.0)
    }

    /// Maps a uniform sample `u ∈ [0, 1)` to a turn for a vehicle entering
    /// from `side` (right, then left, then straight bands).
    pub(crate) fn turn_for(&self, side: Approach, u: f64) -> Turn {
        let r = self.right(side);
        let l = self.left(side);
        if u < r {
            Turn::Right
        } else if u < r + l {
            Turn::Left
        } else {
            Turn::Straight
        }
    }
}

impl Default for TurningProbabilities {
    fn default() -> Self {
        TurningProbabilities::PAPER
    }
}

/// The paper's Table II arrival patterns: average inter-arrival time (s) of
/// vehicles at each entry road, by network side.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Pattern {
    /// Pattern I — "adjacent heavy": N 3 s, E 5 s, S 7 s, W 9 s.
    I,
    /// Pattern II — "uniform": 6 s on every side.
    II,
    /// Pattern III — "opposite heavy": N 3 s, E 7 s, S 5 s, W 9 s.
    III,
    /// Pattern IV — "single heavy": N 3 s, E 9 s, S 9 s, W 9 s.
    IV,
}

impl Pattern {
    /// All four patterns in paper order.
    pub const ALL: [Pattern; 4] = [Pattern::I, Pattern::II, Pattern::III, Pattern::IV];

    /// The paper's description of the pattern.
    pub fn description(self) -> &'static str {
        match self {
            Pattern::I => "adjacent heavy",
            Pattern::II => "uniform",
            Pattern::III => "opposite heavy",
            Pattern::IV => "single heavy",
        }
    }

    /// Average inter-arrival time in seconds at each entry road on `side`
    /// (Table II).
    pub fn inter_arrival_s(self, side: Approach) -> f64 {
        match (self, side) {
            (Pattern::I, Approach::North) => 3.0,
            (Pattern::I, Approach::East) => 5.0,
            (Pattern::I, Approach::South) => 7.0,
            (Pattern::I, Approach::West) => 9.0,
            (Pattern::II, _) => 6.0,
            (Pattern::III, Approach::North) => 3.0,
            (Pattern::III, Approach::East) => 7.0,
            (Pattern::III, Approach::South) => 5.0,
            (Pattern::III, Approach::West) => 9.0,
            (Pattern::IV, Approach::North) => 3.0,
            (Pattern::IV, _) => 9.0,
        }
    }
}

impl std::fmt::Display for Pattern {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Pattern::I => "I",
            Pattern::II => "II",
            Pattern::III => "III",
            Pattern::IV => "IV",
        };
        f.write_str(s)
    }
}

/// A time-varying demand: a sequence of `(duration, pattern)` segments.
///
/// The paper simulates each pattern for 1 h, plus a *mixed* pattern of 4 h
/// concatenating patterns I–IV.
///
/// # Examples
///
/// ```
/// use utilbp_core::{Tick, Ticks};
/// use utilbp_netgen::{DemandSchedule, Pattern};
///
/// let mixed = DemandSchedule::mixed(Ticks::new(3600));
/// assert_eq!(mixed.total_duration(), Ticks::new(4 * 3600));
/// assert_eq!(mixed.pattern_at(Tick::new(0)), Pattern::I);
/// assert_eq!(mixed.pattern_at(Tick::new(3600)), Pattern::II);
/// assert_eq!(mixed.pattern_at(Tick::new(4 * 3600)), Pattern::IV); // clamps
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DemandSchedule {
    segments: Vec<(Ticks, Pattern)>,
}

impl DemandSchedule {
    /// A single pattern for `duration`.
    ///
    /// # Panics
    ///
    /// Panics if `duration` is zero.
    pub fn constant(pattern: Pattern, duration: Ticks) -> Self {
        assert!(!duration.is_zero(), "schedule duration must be positive");
        DemandSchedule {
            segments: vec![(duration, pattern)],
        }
    }

    /// The paper's mixed pattern: I, II, III, IV in sequence,
    /// `hour` ticks each.
    ///
    /// # Panics
    ///
    /// Panics if `hour` is zero.
    pub fn mixed(hour: Ticks) -> Self {
        assert!(!hour.is_zero(), "segment duration must be positive");
        DemandSchedule {
            segments: Pattern::ALL.iter().map(|&p| (hour, p)).collect(),
        }
    }

    /// A custom segment sequence.
    ///
    /// # Panics
    ///
    /// Panics if `segments` is empty or any duration is zero.
    pub fn from_segments(segments: Vec<(Ticks, Pattern)>) -> Self {
        assert!(!segments.is_empty(), "schedule must have segments");
        assert!(
            segments.iter().all(|(d, _)| !d.is_zero()),
            "segment durations must be positive"
        );
        DemandSchedule { segments }
    }

    /// Total scheduled duration.
    pub fn total_duration(&self) -> Ticks {
        self.segments
            .iter()
            .fold(Ticks::ZERO, |acc, &(d, _)| acc + d)
    }

    /// The pattern active at `tick`. Past the end of the schedule, the last
    /// segment's pattern persists.
    pub fn pattern_at(&self, tick: Tick) -> Pattern {
        let mut start = 0u64;
        for &(d, p) in &self.segments {
            let end = start + d.count();
            if tick.index() < end {
                return p;
            }
            start = end;
        }
        self.segments.last().expect("segments are non-empty").1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_probabilities() {
        let t = TurningProbabilities::PAPER;
        assert_eq!(t.right(Approach::North), 0.4);
        assert_eq!(t.left(Approach::North), 0.2);
        assert!((t.straight(Approach::North) - 0.4).abs() < 1e-12);
        assert_eq!(t.right(Approach::East), 0.3);
        assert_eq!(t.left(Approach::East), 0.3);
        assert_eq!(t.right(Approach::South), 0.4);
        assert_eq!(t.left(Approach::South), 0.3);
        assert_eq!(t.right(Approach::West), 0.3);
        assert_eq!(t.left(Approach::West), 0.4);
    }

    #[test]
    fn turn_bands_partition_the_unit_interval() {
        let t = TurningProbabilities::PAPER;
        assert_eq!(t.turn_for(Approach::North, 0.0), Turn::Right);
        assert_eq!(t.turn_for(Approach::North, 0.39), Turn::Right);
        assert_eq!(t.turn_for(Approach::North, 0.41), Turn::Left);
        assert_eq!(t.turn_for(Approach::North, 0.59), Turn::Left);
        assert_eq!(t.turn_for(Approach::North, 0.61), Turn::Straight);
        assert_eq!(t.turn_for(Approach::North, 0.999), Turn::Straight);
    }

    #[test]
    fn custom_probabilities_validate() {
        assert!(TurningProbabilities::new([(0.5, 0.5); 4]).is_ok());
        assert!(
            TurningProbabilities::new([(0.7, 0.5), (0.0, 0.0), (0.0, 0.0), (0.0, 0.0)]).is_err()
        );
        assert!(
            TurningProbabilities::new([(-0.1, 0.5), (0.0, 0.0), (0.0, 0.0), (0.0, 0.0)]).is_err()
        );
    }

    #[test]
    fn table2_inter_arrival_times() {
        use Approach::*;
        assert_eq!(Pattern::I.inter_arrival_s(North), 3.0);
        assert_eq!(Pattern::I.inter_arrival_s(East), 5.0);
        assert_eq!(Pattern::I.inter_arrival_s(South), 7.0);
        assert_eq!(Pattern::I.inter_arrival_s(West), 9.0);
        for side in Approach::ALL {
            assert_eq!(Pattern::II.inter_arrival_s(side), 6.0);
        }
        assert_eq!(Pattern::III.inter_arrival_s(East), 7.0);
        assert_eq!(Pattern::III.inter_arrival_s(South), 5.0);
        assert_eq!(Pattern::IV.inter_arrival_s(North), 3.0);
        assert_eq!(Pattern::IV.inter_arrival_s(East), 9.0);
        assert_eq!(Pattern::IV.inter_arrival_s(West), 9.0);
    }

    #[test]
    fn schedule_segment_lookup() {
        let s = DemandSchedule::from_segments(vec![
            (Ticks::new(10), Pattern::I),
            (Ticks::new(5), Pattern::IV),
        ]);
        assert_eq!(s.total_duration(), Ticks::new(15));
        assert_eq!(s.pattern_at(Tick::new(0)), Pattern::I);
        assert_eq!(s.pattern_at(Tick::new(9)), Pattern::I);
        assert_eq!(s.pattern_at(Tick::new(10)), Pattern::IV);
        assert_eq!(s.pattern_at(Tick::new(14)), Pattern::IV);
        assert_eq!(s.pattern_at(Tick::new(100)), Pattern::IV, "clamps to last");
    }

    #[test]
    fn mixed_schedule_matches_paper() {
        let hour = Ticks::new(3600);
        let s = DemandSchedule::mixed(hour);
        assert_eq!(s.segments.len(), 4);
        assert_eq!(s.total_duration(), Ticks::new(14_400));
        assert_eq!(s.pattern_at(Tick::new(7200)), Pattern::III);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn schedule_rejects_zero_duration() {
        let _ = DemandSchedule::constant(Pattern::I, Ticks::ZERO);
    }

    #[test]
    fn pattern_display_and_description() {
        assert_eq!(Pattern::III.to_string(), "III");
        assert_eq!(Pattern::IV.description(), "single heavy");
    }
}
