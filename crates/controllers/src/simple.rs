//! Non-back-pressure reference controllers: fixed-time cycling and greedy
//! longest-queue-first.

use utilbp_core::{IntersectionView, PhaseDecision, PhaseId, SignalController, Tick, Ticks};

use crate::slot::{SlotMachine, AMBER};

/// A pre-timed signal: cycles through all phases in table order, giving
/// each the same green period, with an amber between consecutive phases.
/// The classic open-loop baseline — it reads no queues at all.
///
/// # Examples
///
/// ```
/// use utilbp_baselines::FixedTime;
/// use utilbp_core::{
///     standard, IntersectionView, QueueObservation, SignalController, Tick,
///     Ticks,
/// };
///
/// let layout = standard::four_way(120, 1.0);
/// let obs = QueueObservation::zeros(&layout);
/// let view = IntersectionView::new(&layout, &obs).unwrap();
/// let mut ctrl = FixedTime::new(Ticks::new(15), Ticks::new(4));
/// assert_eq!(ctrl.decide(&view, Tick::ZERO).phase(), Some(standard::phase_id(1)));
/// ```
#[derive(Debug, Clone)]
pub struct FixedTime {
    slots: SlotMachine,
}

impl FixedTime {
    /// Creates a fixed-time controller with the given green period and
    /// amber duration.
    pub fn new(period: Ticks, transition: Ticks) -> Self {
        FixedTime {
            slots: SlotMachine::new(period, transition),
        }
    }

    /// The green period.
    pub fn period(&self) -> Ticks {
        self.slots.period()
    }
}

impl SignalController for FixedTime {
    fn decide(&mut self, view: &IntersectionView<'_>, now: Tick) -> PhaseDecision {
        let num_phases = view.layout().num_phases();
        self.slots.decide(now, |current| match current {
            Some(c) => PhaseId::new(((c.index() + 1) % num_phases) as u8),
            None => PhaseId::new(0),
        })
    }

    fn reset(&mut self) {
        self.slots.reset();
    }

    fn name(&self) -> &'static str {
        "fixed-time"
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

/// Greedy controller: at each slot boundary, activate the phase whose
/// links could serve the most vehicles right now
/// (`Σ min(µ, q_movement, residual downstream capacity)`).
///
/// Purely myopic — it maximizes instantaneous junction utilization with no
/// regard for downstream balance, which makes it a useful foil for the
/// back-pressure family in ablation studies.
#[derive(Debug, Clone)]
pub struct LongestQueueFirst {
    slots: SlotMachine,
}

impl LongestQueueFirst {
    /// Creates a controller with the given period and the paper's
    /// [`AMBER`] between differing slots.
    pub fn new(period: Ticks) -> Self {
        LongestQueueFirst {
            slots: SlotMachine::new(period, AMBER),
        }
    }
}

impl SignalController for LongestQueueFirst {
    fn decide(&mut self, view: &IntersectionView<'_>, now: Tick) -> PhaseDecision {
        self.slots.decide(now, |current| {
            let layout = view.layout();
            let mut best: Option<(PhaseId, u32)> = None;
            for phase in layout.phase_ids() {
                let servable: u32 = layout
                    .phase(phase)
                    .links()
                    .iter()
                    .map(|&l| view.link_service_bound(l))
                    .sum();
                let replace = match best {
                    None => true,
                    Some((p, s)) => {
                        servable > s || (servable == s && current == Some(phase) && p != phase)
                    }
                };
                if replace {
                    best = Some((phase, servable));
                }
            }
            best.expect("layouts always have at least one phase").0
        })
    }

    fn reset(&mut self) {
        self.slots.reset();
    }

    fn name(&self) -> &'static str {
        "longest-queue-first"
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
    fn fixed_time_cycles_all_phases_with_amber() {
        let layout = layout();
        let obs = QueueObservation::zeros(&layout);
        let view = IntersectionView::new(&layout, &obs).unwrap();
        let mut ctrl = FixedTime::new(Ticks::new(3), Ticks::new(2));
        let mut seen = Vec::new();
        for k in 0..24 {
            let d = ctrl.decide(&view, Tick::new(k));
            if let Some(p) = d.phase() {
                if seen.last() != Some(&p) {
                    seen.push(p);
                }
            }
        }
        // 3 green + 2 amber = 5 ticks per phase: 24 ticks visit c1..c4, c1.
        assert_eq!(
            seen,
            vec![
                standard::phase_id(1),
                standard::phase_id(2),
                standard::phase_id(3),
                standard::phase_id(4),
                standard::phase_id(1),
            ]
        );
        assert_eq!(ctrl.period(), Ticks::new(3));
        assert_eq!(ctrl.name(), "fixed-time");
    }

    #[test]
    fn fixed_time_ignores_queues() {
        let layout = layout();
        let mut obs = QueueObservation::zeros(&layout);
        obs.set_movement(standard::link_id(Approach::East, Turn::Straight), 99);
        let view = IntersectionView::new(&layout, &obs).unwrap();
        let mut ctrl = FixedTime::new(Ticks::new(5), Ticks::new(2));
        // Still starts at c1 regardless of the east queue.
        assert_eq!(
            ctrl.decide(&view, Tick::ZERO).phase(),
            Some(standard::phase_id(1))
        );
    }

    #[test]
    fn greedy_tracks_servable_vehicles_not_raw_queues() {
        let layout = layout();
        let mut obs = QueueObservation::zeros(&layout);
        // Huge north queue but its exit is full → servable 0 through c1's
        // straight link; c4 can serve two right-turners (one per link).
        let ns = standard::link_id(Approach::North, Turn::Straight);
        obs.set_movement(ns, 80);
        obs.set_outgoing(layout.link(ns).to(), 120);
        obs.set_movement(standard::link_id(Approach::East, Turn::Right), 4);
        obs.set_movement(standard::link_id(Approach::West, Turn::Right), 4);
        let view = IntersectionView::new(&layout, &obs).unwrap();
        let mut ctrl = LongestQueueFirst::new(Ticks::new(10));
        assert_eq!(
            ctrl.decide(&view, Tick::ZERO).phase(),
            Some(standard::phase_id(4))
        );
        assert_eq!(ctrl.name(), "longest-queue-first");
    }

    #[test]
    fn greedy_resets() {
        let layout = layout();
        let mut obs = QueueObservation::zeros(&layout);
        obs.set_movement(standard::link_id(Approach::North, Turn::Straight), 5);
        let view = IntersectionView::new(&layout, &obs).unwrap();
        let mut ctrl = LongestQueueFirst::new(Ticks::new(10));
        let first = ctrl.decide(&view, Tick::ZERO);
        ctrl.reset();
        assert_eq!(ctrl.decide(&view, Tick::new(77)), first);
    }
}
