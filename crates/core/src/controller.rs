//! The controller abstraction: a state-feedback law `c(k) = φ(Q(k))`.
//!
//! Every signal controller in this workspace — the paper's UTIL-BP and all
//! the baselines — implements [`SignalController`]: a stateful,
//! intersection-local decision function invoked once per mini-slot with the
//! current queue observation. Decentralization is structural: the only
//! inputs are the local [`IntersectionView`] and the global clock.

use std::fmt;

use crate::ids::PhaseId;
use crate::layout::IntersectionLayout;
use crate::observation::IntersectionView;
use crate::state::{StateError, StateReader, StateWriter};
use crate::time::Tick;

/// The controller's output at instant `k`: either a control phase `c_j` or
/// the transition (amber) phase `c0`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PhaseDecision {
    /// Apply control phase `c_j`: its links are activated, vehicles may be
    /// served.
    Control(PhaseId),
    /// Apply the transition phase `c0 = ∅`: the amber light is on, no links
    /// are activated, vehicles already inside the junction clear.
    Transition,
}

impl PhaseDecision {
    /// Returns the control phase, or `None` during transition.
    pub const fn phase(self) -> Option<PhaseId> {
        match self {
            PhaseDecision::Control(p) => Some(p),
            PhaseDecision::Transition => None,
        }
    }

    /// Returns `true` during the transition (amber) phase.
    pub const fn is_transition(self) -> bool {
        matches!(self, PhaseDecision::Transition)
    }

    /// The paper's plotting convention for phase traces (Figs. 3–4):
    /// transition is 0, control phases are `1..=|C|`.
    pub const fn trace_value(self) -> u8 {
        match self {
            PhaseDecision::Transition => 0,
            PhaseDecision::Control(p) => p.index() as u8 + 1,
        }
    }

    /// Encodes the decision as one state word (the same 0 / `j+1`
    /// numbering as [`trace_value`](Self::trace_value), widened) for
    /// checkpoint streams.
    pub const fn state_word(self) -> u64 {
        self.trace_value() as u64
    }

    /// Checks a restored decision against `layout`: a control phase must
    /// be one of the layout's phases.
    ///
    /// # Errors
    ///
    /// [`StateError::Invalid`] naming the decision's state word.
    pub fn check_in(self, layout: &IntersectionLayout) -> Result<(), StateError> {
        match self {
            PhaseDecision::Control(p) if p.index() >= layout.num_phases() => {
                Err(StateError::Invalid {
                    what: "phase decision",
                    word: self.state_word(),
                })
            }
            _ => Ok(()),
        }
    }

    /// Decodes a word written by [`state_word`](Self::state_word).
    ///
    /// # Errors
    ///
    /// [`StateError::Invalid`] when the word is not a valid encoding.
    pub fn from_state_word(word: u64) -> Result<Self, StateError> {
        match word {
            0 => Ok(PhaseDecision::Transition),
            v if v <= u8::MAX as u64 => Ok(PhaseDecision::Control(PhaseId::new(v as u8 - 1))),
            _ => Err(StateError::Invalid {
                what: "phase decision",
                word,
            }),
        }
    }
}

impl fmt::Display for PhaseDecision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PhaseDecision::Control(p) => write!(f, "{p}"),
            PhaseDecision::Transition => write!(f, "c0"),
        }
    }
}

/// A traffic-signal controller for one intersection.
///
/// Implementations are invoked once per mini-slot (`Δt`), in monotonically
/// non-decreasing `now` order, and return the phase to apply during
/// `[now, now+1)`. They may keep internal state (current phase, slot and
/// transition timers) but must base decisions only on the provided view —
/// that restriction is what makes back-pressure control decentralized.
///
/// # Examples
///
/// A degenerate controller that always applies phase `c1`:
///
/// ```
/// use utilbp_core::{
///     IntersectionView, PhaseDecision, PhaseId, SignalController, Tick,
/// };
///
/// struct AlwaysC1;
///
/// impl SignalController for AlwaysC1 {
///     fn decide(&mut self, _view: &IntersectionView<'_>, _now: Tick) -> PhaseDecision {
///         PhaseDecision::Control(PhaseId::new(0))
///     }
///     fn reset(&mut self) {}
///     fn name(&self) -> &'static str {
///         "always-c1"
///     }
/// }
/// ```
///
/// Controllers must be [`Send`] so a whole simulation — substrate,
/// controllers and all — can run on a worker thread, as the experiment
/// harnesses do with independent runs; they never need `Sync` — each is
/// exclusively owned by its intersection.
pub trait SignalController: Send {
    /// Decides the phase for the mini-slot starting at `now`.
    fn decide(&mut self, view: &IntersectionView<'_>, now: Tick) -> PhaseDecision;

    /// Clears all internal state, returning the controller to its initial
    /// configuration (as if freshly constructed).
    fn reset(&mut self);

    /// A short, stable identifier used in reports and plots
    /// (e.g. `"util-bp"`, `"cap-bp"`).
    fn name(&self) -> &'static str;

    /// Appends the controller's dynamic state to a checkpoint stream.
    ///
    /// The default writes nothing — correct for stateless controllers.
    /// Stateful controllers (and every decorator, which must forward to
    /// its inner controller after writing its own state) override both
    /// this and [`load_state`](Self::load_state) as a pair, under the
    /// [`state`](crate::state) module's determinism contract.
    fn save_state(&self, _writer: &mut StateWriter) {}

    /// Restores the state written by [`save_state`](Self::save_state).
    ///
    /// # Errors
    ///
    /// [`StateError`] when the stream is truncated or malformed; the
    /// controller may be left partially restored and must be discarded.
    fn load_state(&mut self, _reader: &mut StateReader<'_>) -> Result<(), StateError> {
        Ok(())
    }

    /// Checks state restored by [`load_state`](Self::load_state) against
    /// the intersection's `layout`, which the stream does not carry:
    /// every phase the controller holds must be one of the layout's, and
    /// every reading vector it keeps must have the layout's shape, or a
    /// later decision would index past them. Plants call it once per
    /// controller after a restore; decorators forward it to what they
    /// wrap. The default accepts — correct for controllers that hold
    /// neither.
    ///
    /// # Errors
    ///
    /// [`StateError::Invalid`] naming the first word that does not fit.
    fn check_state(&self, _layout: &IntersectionLayout) -> Result<(), StateError> {
        Ok(())
    }

    /// Whether the controller is at rest: a [`decide`](Self::decide) on
    /// the readings of its previous call would return its previous
    /// decision and change no state, whatever `now` it is given.
    ///
    /// The decide phase skips a controller at rest until its
    /// intersection's readings change (see
    /// [`decide_all`](crate::decide::decide_all)). The default `false`
    /// is always correct: the controller is then called every tick.
    /// Decorators keep it, because they see every tick (a fault window,
    /// a watchdog's timers), unless they forward it with the same
    /// guarantee.
    fn holds_on_unchanged(&self) -> bool {
        false
    }
}

impl<T: SignalController + ?Sized> SignalController for Box<T> {
    fn decide(&mut self, view: &IntersectionView<'_>, now: Tick) -> PhaseDecision {
        (**self).decide(view, now)
    }

    fn reset(&mut self) {
        (**self).reset();
    }

    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn save_state(&self, writer: &mut StateWriter) {
        (**self).save_state(writer);
    }

    fn load_state(&mut self, reader: &mut StateReader<'_>) -> Result<(), StateError> {
        (**self).load_state(reader)
    }

    fn check_state(&self, layout: &IntersectionLayout) -> Result<(), StateError> {
        (**self).check_state(layout)
    }

    fn holds_on_unchanged(&self) -> bool {
        (**self).holds_on_unchanged()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observation::QueueObservation;
    use crate::standard;

    #[test]
    fn decision_accessors() {
        let c = PhaseDecision::Control(PhaseId::new(2));
        assert_eq!(c.phase(), Some(PhaseId::new(2)));
        assert!(!c.is_transition());
        assert_eq!(c.trace_value(), 3);

        let t = PhaseDecision::Transition;
        assert_eq!(t.phase(), None);
        assert!(t.is_transition());
        assert_eq!(t.trace_value(), 0);
    }

    #[test]
    fn decision_display_uses_paper_numbering() {
        assert_eq!(PhaseDecision::Control(PhaseId::new(0)).to_string(), "c1");
        assert_eq!(PhaseDecision::Transition.to_string(), "c0");
    }

    struct Alternating(bool);

    impl SignalController for Alternating {
        fn decide(&mut self, _view: &IntersectionView<'_>, _now: Tick) -> PhaseDecision {
            self.0 = !self.0;
            if self.0 {
                PhaseDecision::Control(PhaseId::new(0))
            } else {
                PhaseDecision::Transition
            }
        }
        fn reset(&mut self) {
            self.0 = false;
        }
        fn name(&self) -> &'static str {
            "alternating"
        }
    }

    #[test]
    fn boxed_controllers_delegate() {
        let layout = standard::four_way(120, 1.0);
        let obs = QueueObservation::zeros(&layout);
        let view = IntersectionView::new(&layout, &obs).unwrap();

        let mut boxed: Box<dyn SignalController> = Box::new(Alternating(false));
        assert_eq!(boxed.name(), "alternating");
        let first = boxed.decide(&view, Tick::ZERO);
        let second = boxed.decide(&view, Tick::new(1));
        assert_ne!(first, second);
        boxed.reset();
        assert_eq!(boxed.decide(&view, Tick::new(2)), first);
    }
}
