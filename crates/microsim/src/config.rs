//! Microscopic simulation parameters.

/// How vehicles are assigned to lanes on a road.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LaneDiscipline {
    /// One dedicated lane per turning movement (the paper's assumption,
    /// Section II-A): vehicles sort by destination, so a blocked movement
    /// never delays the others — head-of-line blocking is impossible
    /// (Section IV, Q4).
    #[default]
    DedicatedPerMovement,
    /// Mixed lanes (the paper's future-work scenario): vehicles pick the
    /// shortest lane regardless of destination, and a head vehicle whose
    /// movement is red blocks everyone behind it. The `ablations`
    /// binary's lane-discipline study uses it to quantify what dedicated
    /// lanes buy.
    SharedMixed,
}

/// Parameters of the microscopic simulator. Defaults follow SUMO's default
/// Krauss passenger-car model and the paper's Section V setup.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MicroSimConfig {
    /// Wall-clock seconds per simulation step (`Δt`, SUMO's default 1 s —
    /// also the controller mini-slot).
    pub dt_seconds: f64,
    /// Free-flow / maximum speed in m/s (13.89 m/s = 50 km/h urban).
    pub free_speed_mps: f64,
    /// Vehicle length in meters (SUMO default 5 m).
    pub vehicle_length_m: f64,
    /// Minimum standstill gap in meters (SUMO default 2.5 m). Together
    /// with the length this sets the 7.5 m jam spacing that makes a 300 m
    /// lane hold 40 vehicles — the paper's `W = 120` across 3 dedicated
    /// lanes.
    pub min_gap_m: f64,
    /// Maximum acceleration in m/s² (SUMO default 2.6).
    pub max_accel: f64,
    /// Comfortable deceleration in m/s² (SUMO default 4.5).
    pub max_decel: f64,
    /// Driver reaction time `τ` in seconds (SUMO default 1.0).
    pub reaction_time_s: f64,
    /// Krauss dawdling factor `σ ∈ [0, 1]` (SUMO default 0.5). Set to 0
    /// for fully deterministic car-following.
    pub sigma: f64,
    /// Ticks a vehicle needs to traverse the junction box (3 s at urban
    /// speeds; must not exceed the amber duration or vehicles linger in
    /// the box into the next phase, as in reality).
    pub crossing_ticks: u64,
    /// Queue-detector range upstream of the stop line, in meters (default
    /// 50 m, a typical lane-area detector). Vehicles beyond the range are
    /// invisible to the controller: a movement whose detector reads zero
    /// is "empty" in the sense of the paper's `α`-case — activating it
    /// would serve only vehicles that still have to drive up to the
    /// junction. Short windows also make a green trickle movement read
    /// empty between arrivals, which is what lets the utilization-aware
    /// ranking hand green back to standing queues (see EXPERIMENTS.md for
    /// the calibration study).
    pub detection_range_m: f64,
    /// Speed below which a vehicle counts as waiting (SUMO's waiting-time
    /// definition uses 0.1 m/s).
    pub waiting_speed_mps: f64,
    /// Speed below which a vehicle counts as *queued* for the outgoing
    /// sensor `q_{i'}`, which reads the halted vehicles over the whole
    /// road: free-flowing vehicles exert no back-pressure, and a fully
    /// jammed road reads ≈ `W` (Eq. 8's full-road case stays reachable).
    /// SUMO's lane-area jam threshold, 1.39 m/s = 5 km/h.
    pub halt_speed_mps: f64,
    /// Lane assignment discipline (see [`LaneDiscipline`]).
    pub lane_discipline: LaneDiscipline,
    /// Speed at which vehicles are inserted at boundary entries and leave
    /// the junction box, in m/s.
    pub insertion_speed_mps: f64,
    /// RNG seed for dawdling noise. Dawdling streams are per road (each
    /// road derives its own generator from this seed), so a road's noise
    /// does not depend on which other roads hold traffic.
    pub seed: u64,
}

impl Default for MicroSimConfig {
    fn default() -> Self {
        MicroSimConfig {
            dt_seconds: 1.0,
            free_speed_mps: 13.89,
            vehicle_length_m: 5.0,
            min_gap_m: 2.5,
            max_accel: 2.6,
            max_decel: 4.5,
            reaction_time_s: 1.0,
            sigma: 0.5,
            crossing_ticks: 3,
            detection_range_m: 50.0,
            waiting_speed_mps: 0.1,
            halt_speed_mps: 1.39,
            lane_discipline: LaneDiscipline::default(),
            insertion_speed_mps: 8.0,
            seed: 0,
        }
    }
}

impl MicroSimConfig {
    /// A deterministic configuration (no dawdling noise) — useful for
    /// regression tests.
    pub fn deterministic() -> Self {
        MicroSimConfig {
            sigma: 0.0,
            ..MicroSimConfig::default()
        }
    }

    /// Jam spacing: road length consumed per stopped vehicle.
    pub(crate) fn jam_spacing_m(&self) -> f64 {
        self.vehicle_length_m + self.min_gap_m
    }

    /// Validates parameter ranges.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message naming the offending parameter.
    pub(crate) fn validate(&self) -> Result<(), String> {
        let positive = [
            ("dt_seconds", self.dt_seconds),
            ("free_speed_mps", self.free_speed_mps),
            ("vehicle_length_m", self.vehicle_length_m),
            ("max_accel", self.max_accel),
            ("max_decel", self.max_decel),
            ("reaction_time_s", self.reaction_time_s),
            ("insertion_speed_mps", self.insertion_speed_mps),
        ];
        for (name, v) in positive {
            if !(v.is_finite() && v > 0.0) {
                return Err(format!("{name} must be positive and finite, got {v}"));
            }
        }
        // Infinite = ideal whole-lane detection; otherwise must be positive.
        if self.detection_range_m.is_nan() || self.detection_range_m <= 0.0 {
            return Err(format!(
                "detection_range_m must be positive (may be infinite), got {}",
                self.detection_range_m
            ));
        }
        if !(self.min_gap_m.is_finite() && self.min_gap_m >= 0.0) {
            return Err(format!(
                "min_gap_m must be non-negative, got {}",
                self.min_gap_m
            ));
        }
        if !(0.0..=1.0).contains(&self.sigma) {
            return Err(format!("sigma must lie in [0,1], got {}", self.sigma));
        }
        if self.crossing_ticks == 0 {
            return Err("crossing_ticks must be at least 1".to_string());
        }
        if !(self.waiting_speed_mps.is_finite() && self.waiting_speed_mps >= 0.0) {
            return Err(format!(
                "waiting_speed_mps must be non-negative, got {}",
                self.waiting_speed_mps
            ));
        }
        if !(self.halt_speed_mps.is_finite() && self.halt_speed_mps > 0.0) {
            return Err(format!(
                "halt_speed_mps must be positive, got {}",
                self.halt_speed_mps
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_valid_and_sumo_like() {
        let c = MicroSimConfig::default();
        c.validate().expect("defaults must validate");
        assert_eq!(c.dt_seconds, 1.0);
        assert_eq!(c.jam_spacing_m(), 7.5);
        // 300 m lane → 40 vehicles → 3 lanes match W = 120.
        assert_eq!((300.0 / c.jam_spacing_m()) as u32, 40);
    }

    #[test]
    fn deterministic_config_disables_dawdling() {
        let c = MicroSimConfig::deterministic();
        assert_eq!(c.sigma, 0.0);
        c.validate().unwrap();
    }

    #[test]
    fn validation_catches_bad_parameters() {
        let bad = |patch: fn(&mut MicroSimConfig), needle: &str| {
            let mut c = MicroSimConfig::default();
            patch(&mut c);
            assert!(
                c.validate().unwrap_err().contains(needle),
                "expected error mentioning {needle}"
            );
        };
        bad(|c| c.dt_seconds = 0.0, "dt_seconds");
        bad(|c| c.sigma = 1.5, "sigma");
        bad(|c| c.crossing_ticks = 0, "crossing_ticks");
        bad(|c| c.min_gap_m = -1.0, "min_gap_m");
        bad(|c| c.waiting_speed_mps = f64::NAN, "waiting_speed_mps");
        bad(|c| c.halt_speed_mps = 0.0, "halt_speed_mps");
        bad(|c| c.detection_range_m = f64::NAN, "detection_range_m");
    }
}
