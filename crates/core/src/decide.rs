//! The decide phase of a network step, shared by both simulation
//! substrates.
//!
//! Back-pressure control is decentralized by construction: each
//! controller reads only its own intersection's observation. That is a
//! property of the controller, not of the execution: [`decide_all`] is a
//! plain loop over the intersections, and each decision depends only on
//! its own controller and observation, never on the visiting order.
//!
//! The loop follows change. It visits only the intersections in the
//! [`ObservationBuffer`]'s due set, in ascending order: those whose
//! readings changed since their controller's last call, and those whose
//! controller was not at rest ([`SignalController::holds_on_unchanged`])
//! after it. A controller at rest would repeat its decision on
//! unchanged readings, so it keeps its decision and is not called until
//! a write marks its intersection due again.

use crate::controller::{PhaseDecision, SignalController};
use crate::layout::IntersectionLayout;
use crate::observation::{IntersectionView, ObservationBuffer};
use crate::state::{StateError, StateReader};
use crate::time::Tick;

/// One controller plus its latest decision — the unit of work of the
/// decide phase.
pub struct ControllerSlot {
    /// The intersection's controller.
    pub controller: Box<dyn SignalController>,
    /// The controller's decision for the current step.
    pub decision: PhaseDecision,
}

impl ControllerSlot {
    /// Wraps one controller per intersection into decide slots
    /// (initialized to [`PhaseDecision::Transition`]).
    pub fn wrap_all(controllers: Vec<Box<dyn SignalController>>) -> Vec<ControllerSlot> {
        controllers
            .into_iter()
            .map(|controller| ControllerSlot {
                controller,
                decision: PhaseDecision::Transition,
            })
            .collect()
    }
}

/// The decide phase of a network step: the controller of every due
/// intersection reads its own observation (via `layout_of(index)` and
/// `observations`) and writes its decision, and a controller not at rest
/// afterwards marks its intersection due again. A slot that is not due
/// keeps its decision, which is what the controller would have returned.
/// Returns the number of controllers called.
///
/// Shared by both simulation substrates so their decide semantics cannot
/// drift.
///
/// # Panics
///
/// Panics if there is not one slot per observation, or if an
/// observation in the buffer is not shaped for the layout `layout_of`
/// returns at the same index.
pub fn decide_all<'a>(
    slots: &mut [ControllerSlot],
    observations: &mut ObservationBuffer,
    now: Tick,
    layout_of: impl Fn(usize) -> &'a IntersectionLayout,
) -> usize {
    assert_eq!(slots.len(), observations.len(), "one slot per observation");
    let mut calls = 0;
    observations.visit_due(|idx, observation| {
        let slot = &mut slots[idx];
        let view = IntersectionView::new(layout_of(idx), observation)
            .expect("observation buffer shaped from the same layout");
        slot.decision = slot.controller.decide(&view, now);
        calls += 1;
        !slot.controller.holds_on_unchanged()
    });
    calls
}

/// Restores every slot's controller from a checkpoint stream, in slot
/// order, and checks each against its layout (`layout_of(index)`).
///
/// The restored controllers' previous calls are not the slots' (a slot's
/// decision is not checkpointed), so every intersection is marked due:
/// the next decide phase calls every controller.
///
/// # Errors
///
/// The first [`StateError`] a controller's `load_state` or `check_state`
/// returns.
pub fn load_all<'a>(
    slots: &mut [ControllerSlot],
    observations: &mut ObservationBuffer,
    reader: &mut StateReader<'_>,
    layout_of: impl Fn(usize) -> &'a IntersectionLayout,
) -> Result<(), StateError> {
    observations.mark_all_due();
    for (idx, slot) in slots.iter_mut().enumerate() {
        slot.controller.load_state(reader)?;
        slot.controller.check_state(layout_of(idx))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::standard;
    use crate::utilbp::UtilBp;
    use std::sync::{Arc, Mutex};

    /// Logs the index of every call reaching the controller it wraps,
    /// and opts in to the skip exactly when `forward` is set.
    struct Counted {
        inner: UtilBp,
        index: usize,
        log: Arc<Mutex<Vec<usize>>>,
        forward: bool,
    }

    impl SignalController for Counted {
        fn decide(&mut self, view: &IntersectionView<'_>, now: Tick) -> PhaseDecision {
            self.log.lock().expect("unpoisoned").push(self.index);
            self.inner.decide(view, now)
        }
        fn reset(&mut self) {
            self.inner.reset();
        }
        fn name(&self) -> &'static str {
            "counted"
        }
        fn holds_on_unchanged(&self) -> bool {
            self.forward && self.inner.holds_on_unchanged()
        }
    }

    /// `n` four-way intersections, each with one queued movement, whose
    /// controllers log their calls into the returned log.
    struct Network {
        layout: crate::IntersectionLayout,
        slots: Vec<ControllerSlot>,
        observations: ObservationBuffer,
        log: Arc<Mutex<Vec<usize>>>,
    }

    impl Network {
        fn new(n: usize, forward: bool) -> Network {
            let layout = standard::four_way(120, 1.0);
            let log = Arc::new(Mutex::new(Vec::new()));
            let controllers = (0..n)
                .map(|index| {
                    Box::new(Counted {
                        inner: UtilBp::paper(),
                        index,
                        log: Arc::clone(&log),
                        forward,
                    }) as Box<dyn SignalController>
                })
                .collect();
            let mut observations = ObservationBuffer::new();
            observations.shape_for(std::iter::repeat_n(&layout, n));
            for obs in observations.as_mut_slice() {
                obs.set_movement(crate::LinkId::new(0), 3);
            }
            Network {
                slots: ControllerSlot::wrap_all(controllers),
                layout,
                observations,
                log,
            }
        }

        /// One decide phase; returns the indices called, in call order.
        fn decide(&mut self, k: u64) -> Vec<usize> {
            let layout = &self.layout;
            let calls = decide_all(
                &mut self.slots,
                &mut self.observations,
                Tick::new(k),
                |_| layout,
            );
            let called = std::mem::take(&mut *self.log.lock().expect("unpoisoned"));
            assert_eq!(calls, called.len(), "the returned count");
            called
        }
    }

    /// Runs `ticks` decide phases on one intersection whose readings
    /// never change; returns the calls that reached the controller.
    fn calls_over(forward: bool, ticks: u64) -> usize {
        let mut net = Network::new(1, forward);
        let mut called = 0;
        for k in 0..ticks {
            called += net.decide(k).len();
            assert!(net.slots[0].decision.phase().is_some(), "a control phase");
        }
        called
    }

    #[test]
    fn the_skip_reaches_through_a_box_and_a_decorator_is_called_every_tick() {
        // The slot holds a `Box<dyn SignalController>`: the blanket impl
        // must forward the opt-in, or nothing is ever skipped.
        assert_eq!(calls_over(true, 50), 1, "at rest after the first call");
        assert_eq!(calls_over(false, 50), 50, "the default keeps every call");
    }

    #[test]
    fn due_intersections_are_visited_in_ascending_order_across_word_edges() {
        for n in [1, 63, 64, 65, 130] {
            let every: Vec<usize> = (0..n).collect();
            // Never at rest: every controller, every tick, in order.
            let mut net = Network::new(n, false);
            for k in 0..3 {
                assert_eq!(net.decide(k), every, "n = {n}, tick {k}");
            }
            // At rest after its first call: only what a write marks.
            let mut net = Network::new(n, true);
            assert_eq!(net.decide(0), every, "n = {n}: shape_for marks all");
            assert_eq!(net.decide(1), Vec::<usize>::new(), "n = {n}: at rest");
            let marked: Vec<usize> = [n - 1, n / 2, 0, 64, 63]
                .into_iter()
                .filter(|&i| i < n)
                .collect();
            for &i in &marked {
                net.observations
                    .get_mut(i)
                    .set_outgoing(crate::OutgoingId::new(1), 4);
            }
            let mut expected = marked.clone();
            expected.sort_unstable();
            expected.dedup();
            assert_eq!(net.decide(2), expected, "n = {n}: get_mut marks");
            assert_eq!(net.decide(3), Vec::<usize>::new());

            // `sense` marks only where its gather reports a change.
            net.observations.sense(n - 1, |_| false);
            assert_eq!(net.decide(4), Vec::<usize>::new(), "n = {n}");
            net.observations.sense(n - 1, |_| true);
            assert_eq!(net.decide(5), vec![n - 1], "n = {n}: sense marks");

            // A restore marks every intersection due.
            let mut words = crate::state::StateWriter::new();
            for slot in &net.slots {
                slot.controller.save_state(&mut words);
            }
            let layout = &net.layout;
            load_all(
                &mut net.slots,
                &mut net.observations,
                &mut StateReader::new(words.bytes()),
                |_| layout,
            )
            .expect("an intact stream");
            assert_eq!(net.decide(6), every, "n = {n}: load_all marks all");
            assert_eq!(net.decide(7), Vec::<usize>::new());
        }
    }

    #[test]
    fn a_controller_not_at_rest_rearms_itself_beside_resting_ones() {
        // Intersection 1 sits in an amber (never at rest): its own bit
        // keeps it called every tick while its neighbours rest.
        let mut net = Network::new(3, true);
        assert_eq!(net.decide(0), [0, 1, 2]);
        let obs = net.observations.get_mut(1);
        obs.set_movement(crate::LinkId::new(0), 0);
        obs.set_movement(
            standard::link_id(standard::Approach::East, standard::Turn::Straight),
            9,
        );
        assert_eq!(net.decide(1), [1]);
        assert!(net.slots[1].decision.is_transition(), "an amber");
        for k in 2..5 {
            assert_eq!(net.decide(k), [1], "tick {k}: the amber runs");
        }
        assert_eq!(net.decide(5), [1], "the amber expires into a phase");
        assert_eq!(net.decide(6), Vec::<usize>::new(), "all at rest");
    }
}
