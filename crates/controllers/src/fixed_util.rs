//! Ablation controller: UTIL-BP's gain function inside fixed-length slots.
//!
//! Isolates the contribution of *adaptivity* (varying-length phases) from
//! the contribution of the *utilization-aware gain* (Eq. 8): this
//! controller selects phases exactly like UTIL-BP's Case 3, but only at
//! fixed slot boundaries, like CAP-BP. Comparing
//! `UtilBp` vs `FixedLengthUtilBp` vs `CapBp` decomposes the paper's
//! improvement into its two mechanisms.

use utilbp_core::{
    pressure, GainPenalties, IntersectionView, PhaseDecision, PhaseId, SignalController, Tick,
    Ticks,
};

use crate::slot::{SlotMachine, AMBER};

/// UTIL-BP's utilization-aware phase selection on a fixed-length slot
/// schedule (ablation).
#[derive(Debug, Clone)]
pub struct FixedLengthUtilBp {
    slots: SlotMachine,
}

impl FixedLengthUtilBp {
    /// Creates a controller with the given period, ranking phases with the
    /// paper's penalties. Every slot ends with the paper's [`AMBER`], so
    /// the comparison against the adaptive `UtilBp` isolates exactly the
    /// paper's varying-length-phase mechanism.
    pub fn new(period: Ticks) -> Self {
        FixedLengthUtilBp {
            slots: SlotMachine::with_always_transition(period, AMBER),
        }
    }

    /// UTIL-BP Case 3 selection (Lines 6–11 of Algorithm 1) under the
    /// paper's penalties.
    fn select(view: &IntersectionView<'_>, current: Option<PhaseId>) -> PhaseId {
        let layout = view.layout();
        let penalties = GainPenalties::PAPER;
        let alpha = penalties.alpha();

        let mut scores = Vec::with_capacity(layout.num_phases());
        for phase in layout.phase_ids() {
            let mut total = 0.0;
            let mut max = f64::NEG_INFINITY;
            for &l in layout.phase(phase).links() {
                let g = pressure::link_gain(view, l, penalties);
                total += g;
                max = max.max(g);
            }
            scores.push((phase, total, max));
        }

        let any_utilizable = scores.iter().any(|&(_, _, max)| max > alpha);
        let mut best: Option<(PhaseId, f64)> = None;
        for &(phase, total, max) in &scores {
            if any_utilizable && max <= alpha {
                continue;
            }
            let key = if any_utilizable { total } else { max };
            let replace = match best {
                None => true,
                Some((p, s)) => key > s || (key == s && current == Some(phase) && p != phase),
            };
            if replace {
                best = Some((phase, key));
            }
        }
        best.expect("layouts always have at least one phase").0
    }
}

impl SignalController for FixedLengthUtilBp {
    fn decide(&mut self, view: &IntersectionView<'_>, now: Tick) -> PhaseDecision {
        self.slots
            .decide(now, |current| Self::select(view, current))
    }

    fn reset(&mut self) {
        self.slots.reset();
    }

    fn name(&self) -> &'static str {
        "util-bp/fixed-length"
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

    #[test]
    fn selection_matches_utilbp_case3() {
        let layout = layout();
        let mut obs = QueueObservation::zeros(&layout);
        // c1's best link blocked by a full exit, c4 servable: Case 3 must
        // route to c4 — same scenario as the UtilBp unit test.
        let ns = standard::link_id(Approach::North, Turn::Straight);
        obs.set_movement(ns, 100);
        obs.set_outgoing(layout.link(ns).to(), 120);
        obs.set_movement(standard::link_id(Approach::East, Turn::Right), 1);
        let view = IntersectionView::new(&layout, &obs).unwrap();
        let mut ctrl = FixedLengthUtilBp::new(Ticks::new(12));
        assert_eq!(
            ctrl.decide(&view, Tick::ZERO).phase(),
            Some(standard::phase_id(4))
        );
    }

    #[test]
    fn cannot_react_mid_slot_unlike_adaptive_utilbp() {
        let layout = layout();
        let mut obs = QueueObservation::zeros(&layout);
        let ns = standard::link_id(Approach::North, Turn::Straight);
        obs.set_movement(ns, 3);
        let mut ctrl = FixedLengthUtilBp::new(Ticks::new(12));
        {
            let view = IntersectionView::new(&layout, &obs).unwrap();
            assert_eq!(
                ctrl.decide(&view, Tick::ZERO).phase(),
                Some(standard::phase_id(1))
            );
        }
        // Queue empties immediately; the fixed-length variant still burns
        // the whole slot on c1.
        obs.set_movement(ns, 0);
        obs.set_movement(standard::link_id(Approach::East, Turn::Straight), 40);
        for k in 1..12 {
            let view = IntersectionView::new(&layout, &obs).unwrap();
            assert_eq!(
                ctrl.decide(&view, Tick::new(k)).phase(),
                Some(standard::phase_id(1)),
                "k={k}"
            );
        }
        let view = IntersectionView::new(&layout, &obs).unwrap();
        assert!(ctrl.decide(&view, Tick::new(12)).is_transition());
    }

    #[test]
    fn name() {
        let ctrl = FixedLengthUtilBp::new(Ticks::new(8));
        assert_eq!(ctrl.name(), "util-bp/fixed-length");
    }
}
