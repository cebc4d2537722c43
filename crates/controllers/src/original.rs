//! The original back-pressure signal controller (Varaiya 2009, reference
//! [3] of the paper): fixed-length slots, per-road pressures, no capacity
//! awareness, no work-conservation fix.

use utilbp_core::{
    pressure, IntersectionView, PhaseDecision, PhaseId, SignalController, Tick, Ticks,
};

use crate::slot::{SlotMachine, AMBER};

/// The original back-pressure controller.
///
/// At each slot boundary it activates the phase maximizing
/// `Σ max(0, (b_i − b_{i'})·µ)` (Eq. 5). When every gain is zero it keeps
/// the running phase — which is exactly why it is **not** work-conserving:
/// balanced queues (`b_i = b_{i'} > 0`) exert no pressure even though
/// vehicles are waiting, and full downstream roads still attract green time
/// because capacities are ignored (assumed infinite).
#[derive(Debug, Clone)]
pub struct OriginalBp {
    slots: SlotMachine,
}

impl OriginalBp {
    /// Creates a controller with the given green period. Timing is the
    /// conventional fixed-length kind: every slot ends with the paper's
    /// [`AMBER`] (see the paper's Section III-A description).
    pub fn new(period: Ticks) -> Self {
        OriginalBp {
            slots: SlotMachine::with_always_transition(period, AMBER),
        }
    }

    fn select(view: &IntersectionView<'_>, current: Option<PhaseId>) -> PhaseId {
        let layout = view.layout();
        let mut best: Option<(PhaseId, f64)> = None;
        for phase in layout.phase_ids() {
            let score: f64 = layout
                .phase(phase)
                .links()
                .iter()
                .map(|&lid| {
                    let l = layout.link(lid);
                    pressure::original_link_gain(
                        view.incoming_total(l.from()),
                        view.outgoing_occupancy(l.to()),
                        l.service_rate(),
                    )
                })
                .sum();
            let replace = match best {
                None => true,
                Some((p, s)) => score > s || (score == s && current == Some(phase) && p != phase),
            };
            if replace {
                best = Some((phase, score));
            }
        }
        let (phase, score) = best.expect("layouts always have at least one phase");
        if score <= 0.0 {
            // All gains zero: "no phase is activated" in the original
            // formulation — keep whatever is running to avoid churn.
            current.unwrap_or(phase)
        } else {
            phase
        }
    }
}

impl SignalController for OriginalBp {
    fn decide(&mut self, view: &IntersectionView<'_>, now: Tick) -> PhaseDecision {
        self.slots
            .decide(now, |current| Self::select(view, current))
    }

    fn reset(&mut self) {
        self.slots.reset();
    }

    fn name(&self) -> &'static str {
        "original-bp"
    }

    fn save_state(&self, writer: &mut utilbp_core::state::StateWriter) {
        self.slots.save_state(writer);
    }

    fn load_state(
        &mut self,
        reader: &mut utilbp_core::state::StateReader<'_>,
    ) -> Result<(), utilbp_core::state::StateError> {
        self.slots.load_state(reader)
    }

    fn check_state(
        &self,
        layout: &utilbp_core::IntersectionLayout,
    ) -> Result<(), utilbp_core::state::StateError> {
        self.slots.check_state(layout)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use utilbp_core::standard::{self, Approach, Turn};
    use utilbp_core::QueueObservation;

    fn layout() -> utilbp_core::IntersectionLayout {
        standard::four_way(120, 1.0)
    }

    fn decide_at(
        ctrl: &mut OriginalBp,
        layout: &utilbp_core::IntersectionLayout,
        obs: &QueueObservation,
        k: u64,
    ) -> PhaseDecision {
        let view = IntersectionView::new(layout, obs).unwrap();
        ctrl.decide(&view, Tick::new(k))
    }

    #[test]
    fn selects_highest_pressure_phase() {
        let layout = layout();
        let mut obs = QueueObservation::zeros(&layout);
        obs.set_movement(standard::link_id(Approach::East, Turn::Straight), 9);
        obs.set_movement(standard::link_id(Approach::North, Turn::Straight), 4);
        let mut ctrl = OriginalBp::new(Ticks::new(10));
        assert_eq!(
            decide_at(&mut ctrl, &layout, &obs, 0).phase(),
            Some(standard::phase_id(3))
        );
    }

    #[test]
    fn balanced_queues_stall_the_controller() {
        // The non-work-conserving pathology: q_in == q_out > 0 gives zero
        // gain everywhere, so the controller never moves green to the
        // waiting vehicles.
        let layout = layout();
        let mut obs = QueueObservation::zeros(&layout);
        let ew = standard::link_id(Approach::East, Turn::Straight);
        obs.set_movement(ew, 7);
        // Every exit carries the same 7-vehicle occupancy: each east link
        // sees b_i − b_{i'} = 7 − 7 = 0, all other approaches are empty, so
        // every gain is exactly zero even though 7 vehicles wait with ample
        // room downstream (W = 120).
        for o in layout.outgoing_ids() {
            obs.set_outgoing(o, 7);
        }
        let mut ctrl = OriginalBp::new(Ticks::new(10));
        let d = decide_at(&mut ctrl, &layout, &obs, 0);
        // First selection with all-zero gains falls back to the argmax
        // phase (c1); the 7 east vehicles get nothing.
        assert_eq!(d.phase(), Some(standard::phase_id(1)));
        // …the slot ends with the conventional amber, and the next slot
        // still does not move green to the waiting vehicles.
        assert!(decide_at(&mut ctrl, &layout, &obs, 10).is_transition());
        let d = decide_at(&mut ctrl, &layout, &obs, 14);
        assert_eq!(d.phase(), Some(standard::phase_id(1)));
    }

    #[test]
    fn ignores_full_downstream_roads() {
        // Capacity-obliviousness: green goes to a link whose exit is full.
        let layout = layout();
        let mut obs = QueueObservation::zeros(&layout);
        let ns = standard::link_id(Approach::North, Turn::Straight);
        obs.set_movement(ns, 100);
        obs.set_outgoing(layout.link(ns).to(), 120);
        obs.set_movement(standard::link_id(Approach::East, Turn::Straight), 5);
        let mut ctrl = OriginalBp::new(Ticks::new(10));
        let d = decide_at(&mut ctrl, &layout, &obs, 0);
        // (100 − 120) clamps to 0 for the straight link, but the north road
        // pressure also feeds the left link (exit empty): gain 100. c1 wins
        // even though its straight exit is saturated.
        assert_eq!(d.phase(), Some(standard::phase_id(1)));
    }

    #[test]
    fn name_and_reset() {
        let mut ctrl = OriginalBp::new(Ticks::new(10));
        assert_eq!(ctrl.name(), "original-bp");
        ctrl.reset();
    }
}
