//! Actuator/comms fault injection: a controller decorator that corrupts
//! the *command path* between a controller and the signal heads.
//!
//! Where [`FaultySensors`](crate::FaultySensors) corrupts what the
//! controller *sees*, this decorator corrupts what the plant *executes*.
//! The wrapped controller always runs and always computes its desired
//! phase — the faults live strictly downstream of it, in the actuator
//! and the comms channel that carries commands to it:
//!
//! - **stuck phase**: the actuator jams and holds its current phase for
//!   a configured number of ticks, ignoring every command issued
//!   meanwhile (a relay welded shut);
//! - **dropped command**: a command is lost in transit and the actuator
//!   holds its last applied phase for that mini-slot (lossy comms);
//! - **delayed command**: a command arrives a configured number of
//!   ticks late; the actuator holds its last applied phase until the
//!   late command lands (congested or retrying comms). Commands queued
//!   behind a delay are delivered in order, latest wins.
//!
//! Faults are sampled per decision from a seeded RNG, each mode's draw
//! gated on its probability being positive, so a config with a mode
//! disabled produces the exact RNG stream of a config without it —
//! scenario goldens never shift when a new mode ships. Like the sensor
//! decorator, injection is gated by a shared [`FaultSwitch`], so
//! scenario fault *windows* can turn the model on and off mid-run;
//! while inactive the wrapper is fully transparent (commands pass
//! through verbatim, no draws, and all transient actuator state —
//! jams, in-flight commands — is discarded, modeling a serviced
//! actuator).

use std::collections::VecDeque;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use utilbp_core::{IntersectionView, PhaseDecision, SignalController, Tick};

use crate::FaultSwitch;

/// Actuator/comms fault model parameters. Probabilities are per
/// decision.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ActuationFaultConfig {
    /// Probability the actuator jams after executing this mini-slot,
    /// holding its phase and ignoring commands for [`stuck_ticks`]
    /// ticks.
    ///
    /// [`stuck_ticks`]: ActuationFaultConfig::stuck_ticks
    pub stuck: f64,
    /// How long a jam lasts, in ticks. Must be ≥ 1 when `stuck > 0`.
    pub stuck_ticks: u64,
    /// Probability a command is dropped in transit (the actuator holds
    /// its last applied phase for this mini-slot).
    pub drop: f64,
    /// Probability a command is delayed by [`delay_ticks`] ticks
    /// instead of landing now.
    ///
    /// [`delay_ticks`]: ActuationFaultConfig::delay_ticks
    pub delay: f64,
    /// How late a delayed command lands, in ticks. Must be ≥ 1 when
    /// `delay > 0`.
    pub delay_ticks: u64,
}

impl ActuationFaultConfig {
    /// No faults (the wrapped controller's commands execute verbatim).
    pub const NONE: ActuationFaultConfig = ActuationFaultConfig {
        stuck: 0.0,
        stuck_ticks: 0,
        drop: 0.0,
        delay: 0.0,
        delay_ticks: 0,
    };

    /// Validates probabilities and duration fields.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending field.
    pub fn validate(&self) -> Result<(), String> {
        for (name, p) in [
            ("stuck", self.stuck),
            ("drop", self.drop),
            ("delay", self.delay),
        ] {
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("{name} must be a probability, got {p}"));
            }
        }
        if self.stuck > 0.0 && self.stuck_ticks == 0 {
            return Err("stuck > 0 requires stuck-ticks ≥ 1".to_string());
        }
        if self.delay > 0.0 && self.delay_ticks == 0 {
            return Err("delay > 0 requires delay-ticks ≥ 1".to_string());
        }
        Ok(())
    }
}

/// Wraps a controller with a faulty actuator/comms path: the inner
/// controller always computes its desired phase, but what the plant
/// executes is what survives the command channel.
///
/// # Examples
///
/// ```
/// use utilbp_baselines::{ActuationFaultConfig, FaultSwitch, FaultyActuation};
/// use utilbp_core::{standard, IntersectionView, QueueObservation, SignalController, Tick, UtilBp};
///
/// let mut ctrl = FaultyActuation::gated(
///     UtilBp::paper(),
///     ActuationFaultConfig { drop: 0.2, ..ActuationFaultConfig::NONE },
///     42,
///     FaultSwitch::new(true),
/// );
/// let layout = standard::four_way(120, 1.0);
/// let obs = QueueObservation::zeros(&layout);
/// let view = IntersectionView::new(&layout, &obs).unwrap();
/// let _ = ctrl.decide(&view, Tick::ZERO);
/// ```
#[derive(Debug, Clone)]
pub struct FaultyActuation<C> {
    inner: C,
    config: ActuationFaultConfig,
    rng: SmallRng,
    /// The phase the actuator is currently executing (what the plant
    /// sees), which lags the controller's desire under faults. `None`
    /// until the first command lands — an actuator powers up into its
    /// first command, so the first delivery always succeeds.
    applied: Option<PhaseDecision>,
    /// First tick index at which a jammed actuator accepts commands
    /// again (0 = not jammed).
    stuck_until: u64,
    /// Delayed commands in flight: `(deliver_at, decision)`, in send
    /// order (delays are constant, so this stays sorted).
    pending: VecDeque<(u64, PhaseDecision)>,
    /// Scenario-driven gate: faults apply only while the switch is
    /// active.
    switch: FaultSwitch,
}

impl<C: SignalController> FaultyActuation<C> {
    /// Wraps `inner` with a fault model gated by `switch`: faults apply
    /// only while the switch is active, which is how scenario
    /// actuation-fault windows turn the model on and off mid-run
    /// without rebuilding controllers.
    ///
    /// # Panics
    ///
    /// Panics if `config` fails [`ActuationFaultConfig::validate`].
    pub fn gated(inner: C, config: ActuationFaultConfig, seed: u64, switch: FaultSwitch) -> Self {
        if let Err(msg) = config.validate() {
            panic!("invalid actuation fault config: {msg}");
        }
        FaultyActuation {
            inner,
            config,
            rng: SmallRng::seed_from_u64(seed),
            applied: None,
            stuck_until: 0,
            pending: VecDeque::new(),
            switch,
        }
    }
}

impl<C: SignalController> SignalController for FaultyActuation<C> {
    fn decide(&mut self, view: &IntersectionView<'_>, now: Tick) -> PhaseDecision {
        // The controller always runs: actuator faults do not stop the
        // control computation, only its execution.
        let desired = self.inner.decide(view, now);
        if !self.switch.is_active() {
            // Window closed: the actuator was serviced — jams release,
            // in-flight commands are flushed, and commands execute
            // verbatim. No random draws, so the fault RNG stream
            // depends only on the ticks the window covers.
            self.stuck_until = 0;
            self.pending.clear();
            self.applied = Some(desired);
            return desired;
        }
        let cfg = self.config;
        let t = now.index();
        if t < self.stuck_until {
            // Jammed: the actuator holds its phase and ignores the
            // channel entirely (commands stay queued in the comms
            // buffer and land once the jam releases).
            return *self.applied.get_or_insert(desired);
        }
        // Deliver every in-flight command now due; latest wins.
        while let Some(&(at, decision)) = self.pending.front() {
            if at > t {
                break;
            }
            self.pending.pop_front();
            self.applied = Some(decision);
        }
        // This mini-slot's command runs the comms gauntlet.
        if cfg.delay > 0.0 && self.rng.gen::<f64>() < cfg.delay {
            self.pending.push_back((t + cfg.delay_ticks, desired));
        } else if cfg.drop > 0.0 && self.rng.gen::<f64>() < cfg.drop {
            // Lost in transit: hold the last applied phase.
        } else {
            self.applied = Some(desired);
        }
        // Finally the actuator may jam on whatever it now executes.
        if cfg.stuck > 0.0 && self.rng.gen::<f64>() < cfg.stuck {
            self.stuck_until = t + cfg.stuck_ticks;
        }
        *self.applied.get_or_insert(desired)
    }

    fn reset(&mut self) {
        self.inner.reset();
        self.applied = None;
        self.stuck_until = 0;
        self.pending.clear();
    }

    fn name(&self) -> &'static str {
        "faulty-actuation"
    }

    fn save_state(&self, writer: &mut utilbp_core::state::StateWriter) {
        // The switch is engine-owned state (a scenario fault window) and
        // is restored by the engine, not here.
        for word in self.rng.state() {
            writer.push(word);
        }
        match self.applied {
            None => writer.push_bool(false),
            Some(decision) => {
                writer.push_bool(true);
                writer.push(decision.state_word());
            }
        }
        writer.push(self.stuck_until);
        writer.push_usize(self.pending.len());
        for &(at, decision) in &self.pending {
            writer.push(at);
            writer.push(decision.state_word());
        }
        self.inner.save_state(writer);
    }

    fn load_state(
        &mut self,
        reader: &mut utilbp_core::state::StateReader<'_>,
    ) -> Result<(), utilbp_core::state::StateError> {
        let mut rng_state = [0u64; 4];
        for word in &mut rng_state {
            *word = reader.take()?;
        }
        self.rng = SmallRng::from_state(rng_state);
        self.applied = if reader.take_bool()? {
            Some(PhaseDecision::from_state_word(reader.take()?)?)
        } else {
            None
        };
        self.stuck_until = reader.take()?;
        let len = reader.take_usize()?;
        self.pending.clear();
        for _ in 0..len {
            let at = reader.take()?;
            let decision = PhaseDecision::from_state_word(reader.take()?)?;
            self.pending.push_back((at, decision));
        }
        self.inner.load_state(reader)
    }

    fn check_state(
        &self,
        layout: &utilbp_core::IntersectionLayout,
    ) -> Result<(), utilbp_core::state::StateError> {
        for decision in self.applied.iter().chain(self.pending.iter().map(|p| &p.1)) {
            decision.check_in(layout)?;
        }
        self.inner.check_state(layout)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FixedTime;
    use utilbp_core::{standard, QueueObservation, Ticks, UtilBp};

    fn layout() -> utilbp_core::IntersectionLayout {
        standard::four_way(120, 1.0)
    }

    fn fixed() -> FixedTime {
        FixedTime::new(Ticks::new(4), Ticks::new(1))
    }

    fn run<C: SignalController>(ctrl: &mut C, n: u64) -> Vec<PhaseDecision> {
        let layout = layout();
        let obs = QueueObservation::zeros(&layout);
        (0..n)
            .map(|k| {
                let view = IntersectionView::new(&layout, &obs).unwrap();
                ctrl.decide(&view, Tick::new(k))
            })
            .collect()
    }

    #[test]
    fn no_faults_is_transparent() {
        let mut clean = fixed();
        let mut wrapped = FaultyActuation::gated(
            fixed(),
            ActuationFaultConfig::NONE,
            1,
            FaultSwitch::new(true),
        );
        assert_eq!(run(&mut clean, 60), run(&mut wrapped, 60));
    }

    #[test]
    fn full_drop_pins_the_first_command() {
        // drop = 1.0: the actuator boots into the first command, then
        // every subsequent command is lost — the phase never changes
        // even though the inner fixed-time plan cycles.
        let mut wrapped = FaultyActuation::gated(
            fixed(),
            ActuationFaultConfig {
                drop: 1.0,
                ..ActuationFaultConfig::NONE
            },
            1,
            FaultSwitch::new(true),
        );
        let out = run(&mut wrapped, 40);
        assert!(
            out.iter().all(|&d| d == out[0]),
            "dropped commands must hold the phase"
        );
        let clean = run(&mut fixed(), 40);
        assert_ne!(out, clean, "the inner plan does cycle");
    }

    #[test]
    fn full_delay_shifts_the_command_stream() {
        // delay = 1.0 with delay_ticks = 3: every command lands three
        // ticks late, so the executed stream is the clean stream
        // shifted right by three.
        let delay_ticks = 3usize;
        let mut wrapped = FaultyActuation::gated(
            fixed(),
            ActuationFaultConfig {
                delay: 1.0,
                delay_ticks: delay_ticks as u64,
                ..ActuationFaultConfig::NONE
            },
            1,
            FaultSwitch::new(true),
        );
        let out = run(&mut wrapped, 40);
        let clean = run(&mut fixed(), 40);
        for k in delay_ticks..40 {
            assert_eq!(out[k], clean[k - delay_ticks], "k={k}");
        }
        // Before the first delayed command lands, the actuator executes
        // its boot command.
        for (k, &executed) in out.iter().enumerate().take(delay_ticks) {
            assert_eq!(executed, clean[0], "k={k}");
        }
    }

    #[test]
    fn stuck_actuator_ignores_commands_for_the_jam_window() {
        // stuck = 1.0 with a jam longer than the run: the actuator
        // executes the first command, jams, and never moves again.
        let mut wrapped = FaultyActuation::gated(
            fixed(),
            ActuationFaultConfig {
                stuck: 1.0,
                stuck_ticks: 1000,
                ..ActuationFaultConfig::NONE
            },
            1,
            FaultSwitch::new(true),
        );
        let out = run(&mut wrapped, 40);
        assert!(
            out.iter().all(|&d| d == out[0]),
            "a jammed actuator must hold its phase"
        );
    }

    #[test]
    fn faults_are_seed_deterministic() {
        let cfg = ActuationFaultConfig {
            stuck: 0.1,
            stuck_ticks: 4,
            drop: 0.2,
            delay: 0.2,
            delay_ticks: 2,
        };
        let once = |seed: u64| {
            let mut c = FaultyActuation::gated(UtilBp::paper(), cfg, seed, FaultSwitch::new(true));
            run(&mut c, 80)
        };
        assert_eq!(once(9), once(9));
    }

    #[test]
    fn gated_faults_are_transparent_while_inactive() {
        let switch = FaultSwitch::new(false);
        let mut clean = fixed();
        let mut gated = FaultyActuation::gated(
            fixed(),
            ActuationFaultConfig {
                drop: 1.0,
                ..ActuationFaultConfig::NONE
            },
            1,
            switch.clone(),
        );
        let layout = layout();
        let obs = QueueObservation::zeros(&layout);
        let decide = |c: &mut dyn SignalController, k: u64| {
            let view = IntersectionView::new(&layout, &obs).unwrap();
            c.decide(&view, Tick::new(k))
        };
        for k in 0..20 {
            assert_eq!(decide(&mut clean, k), decide(&mut gated, k), "k={k}");
        }
        // Activate: commands stop landing and the phase pins.
        switch.set_active(true);
        let pinned = decide(&mut gated, 20);
        let _ = decide(&mut clean, 20);
        for k in 21..40 {
            let c = decide(&mut clean, k);
            let g = decide(&mut gated, k);
            assert_eq!(g, pinned, "k={k}");
            let _ = c;
        }
        // Deactivate: the serviced actuator tracks the plan again.
        switch.set_active(false);
        for k in 40..60 {
            assert_eq!(decide(&mut clean, k), decide(&mut gated, k), "k={k}");
        }
    }

    #[test]
    fn reset_clears_actuator_state() {
        let mut wrapped = FaultyActuation::gated(
            fixed(),
            ActuationFaultConfig {
                stuck: 1.0,
                stuck_ticks: 1000,
                ..ActuationFaultConfig::NONE
            },
            1,
            FaultSwitch::new(true),
        );
        let _ = run(&mut wrapped, 10);
        wrapped.reset();
        assert_eq!(wrapped.name(), "faulty-actuation");
        assert_eq!(wrapped.config.stuck_ticks, 1000);
        // After reset the jam is gone: the wrapper tracks the plan
        // until the (deterministic) jam re-latches on the first active
        // decide — i.e. the first post-reset decision is executed.
        let out = run(&mut wrapped, 5);
        let clean = run(&mut fixed(), 5);
        assert_eq!(out[0], clean[0]);
    }

    #[test]
    #[should_panic(expected = "invalid actuation fault config")]
    fn rejects_bad_durations() {
        let _ = FaultyActuation::gated(
            fixed(),
            ActuationFaultConfig {
                stuck: 0.5,
                stuck_ticks: 0,
                ..ActuationFaultConfig::NONE
            },
            0,
            FaultSwitch::new(true),
        );
    }
}
