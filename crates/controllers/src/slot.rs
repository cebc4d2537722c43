//! Fixed-length slot machinery shared by all non-adaptive controllers.
//!
//! The conventional back-pressure controllers ([4], [3]) activate the
//! selected phase for a *pre-determined, fixed-length time slot*; phase
//! changes between slots pass through an amber (transition) period. A
//! [`SlotMachine`] implements exactly that timing skeleton; each baseline
//! plugs in its own phase-selection rule at slot boundaries.

use utilbp_core::{PhaseDecision, PhaseId, Tick, Ticks};

/// The paper's amber: 4 one-second mini-slots between control phases
/// (Section V's `∆k`), which every slot controller here appends.
pub const AMBER: Ticks = Ticks::new(4);

/// Fixed-slot phase timing: evaluate a selection rule at every slot
/// boundary, insert an amber of fixed length whenever the selection differs
/// from the running phase.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlotMachine {
    period: Ticks,
    transition: Ticks,
    /// When set, *every* slot ends with an amber, even if the selection
    /// keeps the same phase — the conventional fixed-length back-pressure
    /// timing described in the paper ("each slot ends with a transition
    /// phase"). This is what produces Fig. 2's period trade-off: short
    /// periods react faster but pay proportionally more amber.
    always_transition: bool,
    current: Option<PhaseId>,
    slot_end: Tick,
    /// Pending phase to activate when the amber expires.
    pending: Option<(Tick, PhaseId)>,
}

impl SlotMachine {
    /// Creates a machine with the given green period and amber duration.
    /// Amber is inserted only when the selected phase *changes*.
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero (a zero-length slot would re-select every
    /// tick, which is the adaptive controllers' job, not this one's).
    pub fn new(period: Ticks, transition: Ticks) -> Self {
        assert!(!period.is_zero(), "slot period must be positive");
        SlotMachine {
            period,
            transition,
            always_transition: false,
            current: None,
            slot_end: Tick::ZERO,
            pending: None,
        }
    }

    /// Creates a machine where **every** slot ends with an amber,
    /// matching the conventional fixed-length back-pressure controllers
    /// as modeled in the paper.
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero.
    pub fn with_always_transition(period: Ticks, transition: Ticks) -> Self {
        let mut machine = SlotMachine::new(period, transition);
        machine.always_transition = true;
        machine
    }

    /// The green period.
    pub fn period(&self) -> Ticks {
        self.period
    }

    /// The amber duration.
    pub fn transition(&self) -> Ticks {
        self.transition
    }

    /// The running phase, if any.
    pub fn current(&self) -> Option<PhaseId> {
        self.current
    }

    /// Advances to `now` and returns the decision, invoking `select` only
    /// at slot boundaries. `select` receives the running phase (or `None`
    /// before the first slot) and returns the phase for the next slot.
    pub fn decide(
        &mut self,
        now: Tick,
        select: impl FnOnce(Option<PhaseId>) -> PhaseId,
    ) -> PhaseDecision {
        // Amber in progress?
        if let Some((until, next)) = self.pending {
            if now < until {
                return PhaseDecision::Transition;
            }
            self.pending = None;
            self.current = Some(next);
            self.slot_end = now + self.period;
            return PhaseDecision::Control(next);
        }

        match self.current {
            Some(current) if now < self.slot_end => PhaseDecision::Control(current),
            current_opt => {
                let next = select(current_opt);
                let needs_amber = current_opt.is_some()
                    && !self.transition.is_zero()
                    && (self.always_transition || current_opt != Some(next));
                if needs_amber {
                    self.pending = Some((now + self.transition, next));
                    PhaseDecision::Transition
                } else {
                    self.current = Some(next);
                    self.slot_end = now + self.period;
                    PhaseDecision::Control(next)
                }
            }
        }
    }

    /// Returns the machine to its initial state.
    pub fn reset(&mut self) {
        self.current = None;
        self.slot_end = Tick::ZERO;
        self.pending = None;
    }

    /// Appends the machine's timing state (running phase, slot end,
    /// pending amber) to a checkpoint stream. Configuration (period,
    /// amber length, always-transition) is not written — a restored
    /// machine is rebuilt from the same constructor arguments.
    pub fn save_state(&self, writer: &mut utilbp_core::state::StateWriter) {
        writer.push(
            self.current
                .map(PhaseDecision::Control)
                .unwrap_or(PhaseDecision::Transition)
                .state_word(),
        );
        writer.push(self.slot_end.index());
        match self.pending {
            Some((until, next)) => {
                writer.push_bool(true);
                writer.push(until.index());
                writer.push(PhaseDecision::Control(next).state_word());
            }
            None => writer.push_bool(false),
        }
    }

    /// Restores the timing state written by
    /// [`save_state`](Self::save_state).
    ///
    /// # Errors
    ///
    /// [`StateError`](utilbp_core::state::StateError) when the stream
    /// is truncated or malformed.
    pub fn load_state(
        &mut self,
        reader: &mut utilbp_core::state::StateReader<'_>,
    ) -> Result<(), utilbp_core::state::StateError> {
        self.current = PhaseDecision::from_state_word(reader.take()?)?.phase();
        self.slot_end = Tick::new(reader.take()?);
        self.pending = if reader.take_bool()? {
            let until = Tick::new(reader.take()?);
            let next = PhaseDecision::from_state_word(reader.take()?)?
                .phase()
                .ok_or(utilbp_core::state::StateError::Invalid {
                    what: "pending phase",
                    word: 0,
                })?;
            Some((until, next))
        } else {
            None
        };
        Ok(())
    }

    /// Checks the restored phases against `layout`: the current phase
    /// and a pending one must both be among its phases.
    ///
    /// # Errors
    ///
    /// [`StateError`](utilbp_core::state::StateError) naming the first
    /// phase outside the layout.
    pub fn check_state(
        &self,
        layout: &utilbp_core::IntersectionLayout,
    ) -> Result<(), utilbp_core::state::StateError> {
        for phase in self.current.into_iter().chain(self.pending.map(|p| p.1)) {
            PhaseDecision::Control(phase).check_in(layout)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn machine() -> SlotMachine {
        SlotMachine::new(Ticks::new(5), Ticks::new(2))
    }

    #[test]
    fn first_slot_starts_without_amber() {
        let mut m = machine();
        let d = m.decide(Tick::ZERO, |prev| {
            assert_eq!(prev, None);
            PhaseId::new(1)
        });
        assert_eq!(d, PhaseDecision::Control(PhaseId::new(1)));
        assert_eq!(m.current(), Some(PhaseId::new(1)));
    }

    #[test]
    fn holds_phase_for_the_full_slot() {
        let mut m = machine();
        let _ = m.decide(Tick::ZERO, |_| PhaseId::new(0));
        for k in 1..5 {
            let d = m.decide(Tick::new(k), |_| panic!("no selection mid-slot"));
            assert_eq!(d, PhaseDecision::Control(PhaseId::new(0)));
        }
    }

    #[test]
    fn same_selection_extends_without_amber() {
        let mut m = machine();
        let _ = m.decide(Tick::ZERO, |_| PhaseId::new(0));
        let d = m.decide(Tick::new(5), |prev| prev.unwrap());
        assert_eq!(d, PhaseDecision::Control(PhaseId::new(0)));
        // And the slot is renewed: no re-selection before k=10.
        let d = m.decide(Tick::new(9), |_| panic!("mid-slot"));
        assert_eq!(d, PhaseDecision::Control(PhaseId::new(0)));
    }

    #[test]
    fn different_selection_passes_through_amber() {
        let mut m = machine();
        let _ = m.decide(Tick::ZERO, |_| PhaseId::new(0));
        // Boundary at k=5 selects a different phase: amber for 2 ticks.
        assert_eq!(
            m.decide(Tick::new(5), |_| PhaseId::new(2)),
            PhaseDecision::Transition
        );
        assert_eq!(
            m.decide(Tick::new(6), |_| panic!("amber")),
            PhaseDecision::Transition
        );
        // Amber expires at k=7: new phase activates, slot runs to k=12.
        assert_eq!(
            m.decide(Tick::new(7), |_| panic!("activation")),
            PhaseDecision::Control(PhaseId::new(2))
        );
        assert_eq!(
            m.decide(Tick::new(11), |_| panic!("mid-slot")),
            PhaseDecision::Control(PhaseId::new(2))
        );
        // Next boundary at k=12.
        assert_eq!(
            m.decide(Tick::new(12), |_| PhaseId::new(2)),
            PhaseDecision::Control(PhaseId::new(2))
        );
    }

    #[test]
    fn zero_transition_switches_instantly() {
        let mut m = SlotMachine::new(Ticks::new(3), Ticks::ZERO);
        let _ = m.decide(Tick::ZERO, |_| PhaseId::new(0));
        assert_eq!(
            m.decide(Tick::new(3), |_| PhaseId::new(1)),
            PhaseDecision::Control(PhaseId::new(1))
        );
    }

    #[test]
    fn reset_clears_state() {
        let mut m = machine();
        let _ = m.decide(Tick::ZERO, |_| PhaseId::new(3));
        m.reset();
        assert_eq!(m.current(), None);
        let d = m.decide(Tick::new(50), |prev| {
            assert_eq!(prev, None);
            PhaseId::new(0)
        });
        assert_eq!(d, PhaseDecision::Control(PhaseId::new(0)));
    }

    #[test]
    #[should_panic(expected = "period must be positive")]
    fn rejects_zero_period() {
        let _ = SlotMachine::new(Ticks::ZERO, Ticks::new(2));
    }

    #[test]
    fn always_transition_inserts_amber_even_on_reselection() {
        let mut m = SlotMachine::with_always_transition(Ticks::new(5), Ticks::new(2));
        assert_eq!(
            m.decide(Tick::ZERO, |_| PhaseId::new(0)),
            PhaseDecision::Control(PhaseId::new(0))
        );
        // Boundary at k=5 re-selects the *same* phase: amber anyway.
        assert_eq!(
            m.decide(Tick::new(5), |_| PhaseId::new(0)),
            PhaseDecision::Transition
        );
        assert_eq!(
            m.decide(Tick::new(6), |_| panic!("amber")),
            PhaseDecision::Transition
        );
        assert_eq!(
            m.decide(Tick::new(7), |_| panic!("activation")),
            PhaseDecision::Control(PhaseId::new(0))
        );
    }

    #[test]
    fn always_transition_duty_cycle_matches_period_fraction() {
        // Over a long horizon, green share must be period/(period+amber).
        let mut m = SlotMachine::with_always_transition(Ticks::new(6), Ticks::new(2));
        let mut green = 0u32;
        let horizon = 800u64;
        for k in 0..horizon {
            if m.decide(Tick::new(k), |_| PhaseId::new(1)) != PhaseDecision::Transition {
                green += 1;
            }
        }
        let share = green as f64 / horizon as f64;
        assert!((share - 6.0 / 8.0).abs() < 0.02, "green share {share}");
    }

    #[test]
    fn accessors() {
        let m = machine();
        assert_eq!(m.period(), Ticks::new(5));
        assert_eq!(m.transition(), Ticks::new(2));
    }
}
