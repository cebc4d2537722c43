//! Wall-clock attribution of a plant step to its phases, shared by both
//! simulation substrates.

use std::time::Instant;

/// Cumulative wall-clock seconds spent in each phase of a plant step,
/// and the number of controllers the decide phase called. Fields are
/// **added onto** across ticks, so one instance can span a whole
/// measured run. Both substrates lap into the same four fields; what
/// each lap covers depends on the plant:
///
/// | field | microscopic | queueing |
/// |---|---|---|
/// | `decide` | sense (a gather over the detector counters), the decide phase, and the signal refresh (green flags, service credits) | the decide phase; there is no sense pass, because the observation buffer is kept current where queues change |
/// | `car_following` | box countdown, head release and the follower sweep | serving the active phases (settled intersections skipped) |
/// | `landings` | junction-box landings | transit arrivals joining queues + boundary backlog drains |
/// | `waiting` | backlog drain, insertions of this tick's arrivals and the step report | injection of this tick's arrivals and the step report |
///
/// Timing reads are measurements, never inputs: a timed step simulates
/// exactly what an untimed one does.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseTimings {
    /// Controller decisions (see the table for sensing).
    pub decide: f64,
    /// Vehicle advancement: car-following or phase service.
    pub car_following: f64,
    /// Vehicles landing on roads: box landings or transit arrivals.
    pub landings: f64,
    /// Insertions of new arrivals and the step report.
    pub waiting: f64,
    /// Controllers called by the decide phase: those not at rest, or
    /// whose readings changed (see `utilbp_core::decide::decide_all`).
    pub decide_calls: u64,
}

impl PhaseTimings {
    /// Total time across all phases.
    pub fn total(&self) -> f64 {
        self.decide + self.car_following + self.landings + self.waiting
    }
}

/// Adds the time between successive laps onto picked [`PhaseTimings`]
/// fields. Detached (`None`), it takes no clock readings at all, so the
/// untimed step path pays nothing.
#[derive(Debug)]
pub struct PhaseStopwatch<'a> {
    timings: Option<&'a mut PhaseTimings>,
    last: Option<Instant>,
}

impl<'a> PhaseStopwatch<'a> {
    /// Starts the first lap now, when `timings` is attached.
    #[inline]
    pub fn new(timings: Option<&'a mut PhaseTimings>) -> Self {
        let last = timings.as_ref().map(|_| Instant::now());
        PhaseStopwatch { timings, last }
    }

    /// Adds the time since the previous lap onto the picked field and
    /// starts the next lap.
    #[inline]
    pub fn lap(&mut self, pick: fn(&mut PhaseTimings) -> &mut f64) {
        if let (Some(timings), Some(last)) = (self.timings.as_deref_mut(), self.last.as_mut()) {
            let now = Instant::now();
            *pick(timings) += now.duration_since(*last).as_secs_f64();
            *last = now;
        }
    }

    /// Adds `calls` onto [`PhaseTimings::decide_calls`], when attached.
    #[inline]
    pub fn count_decide_calls(&mut self, calls: usize) {
        if let Some(timings) = self.timings.as_deref_mut() {
            timings.decide_calls += calls as u64;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn laps_add_onto_the_picked_fields_and_a_detached_watch_is_inert() {
        let mut timings = PhaseTimings::default();
        let mut watch = PhaseStopwatch::new(Some(&mut timings));
        std::thread::sleep(std::time::Duration::from_millis(2));
        watch.lap(|t| &mut t.landings);
        watch.lap(|t| &mut t.decide);
        watch.count_decide_calls(3);
        assert!(timings.landings >= 0.002);
        assert_eq!(timings.decide_calls, 3);
        assert_eq!(timings.car_following, 0.0);
        assert_eq!(timings.total(), timings.landings + timings.decide);

        let mut detached = PhaseStopwatch::new(None);
        detached.lap(|t| &mut t.waiting);
        detached.count_decide_calls(3);
        assert!(detached.last.is_none());
    }
}
