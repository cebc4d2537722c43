//! The decide phase of a network step, shared by both simulation
//! substrates.
//!
//! Back-pressure control is decentralized by construction: each
//! controller reads only its own intersection's observation. That is a
//! property of the controller, not of the execution: [`decide_all`] is a
//! plain loop over the intersections, and each decision depends only on
//! its own controller and observation, never on the visiting order.

use crate::controller::{PhaseDecision, SignalController};
use crate::layout::IntersectionLayout;
use crate::observation::{IntersectionView, ObservationBuffer};
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

/// The decide phase of a network step: every slot's controller reads its
/// own observation (via `layout_of(index)` and `observations`) and writes
/// its decision.
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
    observations: &ObservationBuffer,
    now: Tick,
    layout_of: impl Fn(usize) -> &'a IntersectionLayout,
) {
    for (idx, slot) in slots.iter_mut().enumerate() {
        let view = IntersectionView::new(layout_of(idx), observations.get(idx))
            .expect("observation buffer shaped from the same layout");
        slot.decision = slot.controller.decide(&view, now);
    }
}
