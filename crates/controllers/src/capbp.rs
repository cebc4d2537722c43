//! CAP-BP: the fixed-length, capacity-aware back-pressure controller of
//! Gregoire et al. (IEEE TCNS 2015) — the paper's primary baseline.
//!
//! Behavioral ingredients, following [4] and the DATE paper's framing:
//!
//! - **Fixed-length control phases**: the phase is selected at the start of
//!   each slot from the queue state at that instant and held for the whole
//!   slot; *every* slot ends with an amber period (the conventional
//!   fixed-length timing the DATE paper describes), which is what creates
//!   Fig. 2's period trade-off.
//! - **Per-movement, capacity-normalized pressure** (the capacity-aware
//!   core of [4]): a link's weight compares the *occupancy ratios* of its
//!   upstream movement queue and downstream road,
//!   `w = max(0, (q_mov/S − q_out/W_out))·µ`. A full downstream road
//!   (`q_out = W_out`) can never attract green time.
//! - **Relaxed work conservation** ([4]'s modification): the junction
//!   "works" if at least one vehicle is served during the slot — when the
//!   weight-maximizing phase cannot serve anything but another phase can,
//!   a serving phase is chosen instead.
//!
//! What CAP-BP still lacks — and what UTIL-BP adds — is any reaction
//! *within* a slot, the empty-approach/full-exit gain discrimination
//! (`α`/`β`), and flow on negative pressure differences.

use utilbp_core::{IntersectionView, PhaseDecision, PhaseId, SignalController, Tick, Ticks};

use crate::slot::{SlotMachine, AMBER};

/// Storage assumed for one movement queue, used to normalize upstream
/// occupancy: the paper's network has 3 dedicated lanes per 300 m road
/// at 7.5 m jam spacing, so 40 vehicles per movement.
pub(crate) const MOVEMENT_STORAGE: u32 = 40;

/// The capacity-aware fixed-length back-pressure controller.
///
/// # Examples
///
/// ```
/// use utilbp_baselines::CapBp;
/// use utilbp_core::{
///     standard, IntersectionView, QueueObservation, SignalController, Tick,
///     Ticks,
/// };
///
/// let layout = standard::four_way(120, 1.0);
/// let mut obs = QueueObservation::zeros(&layout);
/// obs.set_movement(
///     standard::link_id(standard::Approach::North, standard::Turn::Straight),
///     5,
/// );
/// let mut ctrl = CapBp::new(Ticks::new(16));
/// let view = IntersectionView::new(&layout, &obs).unwrap();
/// let decision = ctrl.decide(&view, Tick::ZERO);
/// assert_eq!(decision.phase(), Some(standard::phase_id(1)));
/// ```
#[derive(Debug, Clone)]
pub struct CapBp {
    slots: SlotMachine,
}

impl CapBp {
    /// Creates a controller with the given green period; every slot ends
    /// with the paper's [`AMBER`].
    pub fn new(period: Ticks) -> Self {
        CapBp {
            slots: SlotMachine::with_always_transition(period, AMBER),
        }
    }
}

/// The capacity-aware weight of one link:
/// `max(0, (b_mov/S − q_out/W_out))·µ`, with `S` the
/// [`MOVEMENT_STORAGE`].
fn link_weight(view: &IntersectionView<'_>, link: utilbp_core::LinkId) -> f64 {
    let layout = view.layout();
    let l = layout.link(link);
    let up = view.movement_queue(link) as f64 / MOVEMENT_STORAGE as f64;
    let down = view.outgoing_occupancy(l.to()) as f64 / layout.capacity(l.to()) as f64;
    ((up - down) * l.service_rate()).max(0.0)
}

/// Phase selection at a slot boundary.
fn select(view: &IntersectionView<'_>, current: Option<PhaseId>) -> PhaseId {
    let layout = view.layout();
    let mut best: Option<(PhaseId, f64, u32)> = None;
    let mut best_serving: Option<(PhaseId, f64, u32)> = None;

    for phase in layout.phase_ids() {
        let mut score = 0.0;
        let mut servable = 0u32;
        for &l in layout.phase(phase) {
            score += link_weight(view, l);
            servable += view.link_service_bound(l);
        }
        let better = |incumbent: &Option<(PhaseId, f64, u32)>| -> bool {
            match *incumbent {
                None => true,
                Some((p, s, v)) => {
                    score > s
                        || (score == s && servable > v)
                        || (score == s && servable == v && current == Some(phase) && p != phase)
                }
            }
        };
        if better(&best) {
            best = Some((phase, score, servable));
        }
        if servable > 0 && better(&best_serving) {
            best_serving = Some((phase, score, servable));
        }
    }

    // Relaxed work conservation: if the weight-maximizing phase serves
    // nothing but some phase can serve, take the best serving phase.
    match (best, best_serving) {
        (Some((_, _, 0)), Some((p, _, _))) => p,
        (Some((p, _, _)), _) => p,
        _ => unreachable!("layouts always have at least one phase"),
    }
}

impl SignalController for CapBp {
    fn decide(&mut self, view: &IntersectionView<'_>, now: Tick) -> PhaseDecision {
        self.slots.decide(now, |current| select(view, current))
    }

    fn reset(&mut self) {
        self.slots.reset();
    }

    fn name(&self) -> &'static str {
        "cap-bp"
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

    fn decide(
        ctrl: &mut CapBp,
        layout: &utilbp_core::IntersectionLayout,
        obs: &QueueObservation,
        k: u64,
    ) -> PhaseDecision {
        let view = IntersectionView::new(layout, obs).unwrap();
        ctrl.decide(&view, Tick::new(k))
    }

    #[test]
    fn holds_phase_for_the_whole_slot_despite_state_changes() {
        let layout = layout();
        let mut obs = QueueObservation::zeros(&layout);
        let ns = standard::link_id(Approach::North, Turn::Straight);
        obs.set_movement(ns, 10);
        let mut ctrl = CapBp::new(Ticks::new(8));
        assert_eq!(
            decide(&mut ctrl, &layout, &obs, 0).phase(),
            Some(standard::phase_id(1))
        );
        // Queue drains to zero mid-slot and the east side loads up; the
        // fixed-length controller cannot react.
        obs.set_movement(ns, 0);
        obs.set_movement(standard::link_id(Approach::East, Turn::Straight), 50);
        for k in 1..8 {
            assert_eq!(
                decide(&mut ctrl, &layout, &obs, k).phase(),
                Some(standard::phase_id(1)),
                "slot must persist at k={k}"
            );
        }
        // Boundary at k=8: amber, then the east phase.
        assert_eq!(
            decide(&mut ctrl, &layout, &obs, 8),
            PhaseDecision::Transition
        );
    }

    #[test]
    fn every_slot_ends_with_an_amber() {
        let layout = layout();
        let mut obs = QueueObservation::zeros(&layout);
        obs.set_movement(standard::link_id(Approach::North, Turn::Straight), 10);
        let mut ctrl = CapBp::new(Ticks::new(6));
        let mut ambers = 0u32;
        for k in 0..100 {
            if decide(&mut ctrl, &layout, &obs, k).is_transition() {
                ambers += 1;
            }
        }
        // 6 green + 4 amber per cycle over 100 ticks → 40 amber ticks.
        assert_eq!(ambers, 40);
    }

    #[test]
    fn full_outgoing_road_attracts_no_weight() {
        let layout = layout();
        let mut obs = QueueObservation::zeros(&layout);
        // North-straight has a huge queue but its exit is full; the east
        // approach has a modest queue with room downstream.
        let ns = standard::link_id(Approach::North, Turn::Straight);
        obs.set_movement(ns, 40);
        obs.set_outgoing(layout.link(ns).to(), 120);
        obs.set_movement(standard::link_id(Approach::East, Turn::Straight), 5);
        let mut ctrl = CapBp::new(Ticks::new(16));
        // The blocked link contributes zero weight; c3's 5 servable
        // vehicles win.
        let d = decide(&mut ctrl, &layout, &obs, 0);
        assert_eq!(d.phase(), Some(standard::phase_id(3)));
    }

    #[test]
    fn per_movement_pressure_routes_green_to_the_loaded_movement() {
        // Under Gregoire-faithful per-movement pressure, a right-turn
        // queue attracts the right-turn phase directly on score.
        let layout = layout();
        let mut obs = QueueObservation::zeros(&layout);
        let nr = standard::link_id(Approach::North, Turn::Right);
        obs.set_movement(nr, 40);
        let mut ctrl = CapBp::new(Ticks::new(16));
        let d = decide(&mut ctrl, &layout, &obs, 0);
        assert_eq!(d.phase(), Some(standard::phase_id(2)));
    }

    #[test]
    fn normalization_compares_occupancy_ratios() {
        let layout = layout();
        let mut obs = QueueObservation::zeros(&layout);
        // Per-movement: 10/40 = 0.25 upstream vs 36/120 = 0.3 downstream →
        // no weight; 10/40 = 0.25 vs 24/120 = 0.2 → positive weight.
        let ns = standard::link_id(Approach::North, Turn::Straight);
        let es = standard::link_id(Approach::East, Turn::Straight);
        obs.set_movement(ns, 10);
        obs.set_outgoing(layout.link(ns).to(), 36);
        obs.set_movement(es, 10);
        obs.set_outgoing(layout.link(es).to(), 24);
        let mut ctrl = CapBp::new(Ticks::new(16));
        let d = decide(&mut ctrl, &layout, &obs, 0);
        assert_eq!(d.phase(), Some(standard::phase_id(3)));
    }

    #[test]
    fn work_conservation_picks_a_serving_phase_when_weights_vanish() {
        let layout = layout();
        let mut obs = QueueObservation::zeros(&layout);
        // The only queued movement is exactly balanced with its exit
        // (2/40 < 6/120 → weight 0 everywhere); but it is servable, so the
        // relaxed rule routes green to it.
        let er = standard::link_id(Approach::East, Turn::Right);
        obs.set_movement(er, 2);
        obs.set_outgoing(layout.link(er).to(), 6);
        let mut ctrl = CapBp::new(Ticks::new(16));
        let d = decide(&mut ctrl, &layout, &obs, 0);
        assert_eq!(d.phase(), Some(standard::phase_id(4)));
    }

    #[test]
    fn reset_restarts_slots() {
        let layout = layout();
        let mut obs = QueueObservation::zeros(&layout);
        obs.set_movement(standard::link_id(Approach::West, Turn::Left), 3);
        let mut ctrl = CapBp::new(Ticks::new(16));
        let first = decide(&mut ctrl, &layout, &obs, 0);
        ctrl.reset();
        assert_eq!(decide(&mut ctrl, &layout, &obs, 100), first);
        assert_eq!(ctrl.name(), "cap-bp");
    }
}
