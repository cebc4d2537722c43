//! The decide phase of a network step, shared by both simulation
//! substrates.
//!
//! Back-pressure control is decentralized by construction: each
//! controller reads only its own intersection's observation. That is a
//! property of the controller, not of the execution: [`decide_all`] is a
//! plain loop over the intersections, and each decision depends only on
//! its own controller and observation, never on the visiting order.
//!
//! The loop follows change. A controller at rest
//! ([`SignalController::holds_on_unchanged`]) would repeat its decision
//! on unchanged readings, so it is called only once the
//! [`ObservationBuffer`] marks its intersection's readings changed.

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
    /// The controller's `holds_on_unchanged()` after its last call: a
    /// cache, cleared whenever the controller's state is replaced.
    at_rest: bool,
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
                at_rest: false,
            })
            .collect()
    }
}

/// The decide phase of a network step: every slot's controller that is
/// not at rest, or whose intersection's readings changed since its last
/// call, reads its own observation (via `layout_of(index)` and
/// `observations`) and writes its decision. A skipped slot keeps its
/// decision, which is what the controller would have returned. Returns
/// the number of controllers called.
///
/// Shared by both simulation substrates so their decide semantics cannot
/// drift.
///
/// # Panics
///
/// Panics if an observation in the buffer is not shaped for the layout
/// `layout_of` returns at the same index.
pub fn decide_all<'a>(
    slots: &mut [ControllerSlot],
    observations: &mut ObservationBuffer,
    now: Tick,
    layout_of: impl Fn(usize) -> &'a IntersectionLayout,
) -> usize {
    let mut calls = 0;
    for (idx, slot) in slots.iter_mut().enumerate() {
        if !observations.take_changed(idx) && slot.at_rest {
            continue;
        }
        let view = IntersectionView::new(layout_of(idx), observations.get(idx))
            .expect("observation buffer shaped from the same layout");
        slot.decision = slot.controller.decide(&view, now);
        slot.at_rest = slot.controller.holds_on_unchanged();
        calls += 1;
    }
    calls
}

/// Restores every slot's controller from a checkpoint stream, in slot
/// order, and checks each against its layout (`layout_of(index)`).
///
/// The restored controllers' previous calls are not the slots' (a slot's
/// decision is not checkpointed), so every at-rest bit is cleared and
/// every intersection marked changed: the next decide phase calls every
/// controller.
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
    observations.mark_all_changed();
    for (idx, slot) in slots.iter_mut().enumerate() {
        slot.at_rest = false;
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
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    /// Counts the calls reaching the controller it wraps, and opts in to
    /// the skip exactly when `forward` is set.
    struct Counted {
        inner: UtilBp,
        calls: Arc<AtomicUsize>,
        forward: bool,
    }

    impl SignalController for Counted {
        fn decide(&mut self, view: &IntersectionView<'_>, now: Tick) -> PhaseDecision {
            self.calls.fetch_add(1, Ordering::Relaxed);
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

    /// Runs `ticks` decide phases on one intersection whose readings
    /// never change; returns the calls that reached the controller.
    fn calls_over(forward: bool, ticks: u64) -> usize {
        let layout = standard::four_way(120, 1.0);
        let calls = Arc::new(AtomicUsize::new(0));
        let controller: Box<dyn SignalController> = Box::new(Counted {
            inner: UtilBp::paper(),
            calls: Arc::clone(&calls),
            forward,
        });
        let mut slots = ControllerSlot::wrap_all(vec![controller]);
        let mut observations = ObservationBuffer::new();
        observations.shape_for(std::iter::once(&layout));
        observations
            .get_mut(0)
            .set_movement(crate::LinkId::new(0), 3);
        let mut called = 0;
        for k in 0..ticks {
            called += decide_all(&mut slots, &mut observations, Tick::new(k), |_| &layout);
            assert!(slots[0].decision.phase().is_some(), "a control phase");
        }
        assert_eq!(called, calls.load(Ordering::Relaxed), "the returned count");
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
    fn a_changed_reading_or_a_restore_wakes_a_resting_controller() {
        let layout = standard::four_way(120, 1.0);
        let mut slots = ControllerSlot::wrap_all(vec![Box::new(UtilBp::paper())]);
        let mut observations = ObservationBuffer::new();
        observations.shape_for(std::iter::once(&layout));
        let decide = |observations: &mut ObservationBuffer, slots: &mut [ControllerSlot]| {
            decide_all(slots, observations, Tick::ZERO, |_| &layout)
        };
        assert_eq!(decide(&mut observations, &mut slots), 1);
        assert_eq!(decide(&mut observations, &mut slots), 0, "at rest");
        observations
            .get_mut(0)
            .set_outgoing(crate::OutgoingId::new(1), 4);
        assert_eq!(decide(&mut observations, &mut slots), 1, "a write wakes it");
        assert_eq!(decide(&mut observations, &mut slots), 0);

        let mut words = crate::state::StateWriter::new();
        slots[0].controller.save_state(&mut words);
        load_all(
            &mut slots,
            &mut observations,
            &mut StateReader::new(words.bytes()),
            |_| &layout,
        )
        .expect("an intact stream");
        assert!(!slots[0].at_rest, "a restore clears the at-rest bit");
        assert_eq!(decide(&mut observations, &mut slots), 1, "and calls again");
    }
}
