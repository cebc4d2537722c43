//! Sensor fault injection: a controller decorator that corrupts the queue
//! observations before they reach the wrapped controller.
//!
//! The paper's CPS framing makes the sensor path explicit — queue lengths
//! are *measured*, not known. This decorator models the three classic
//! detector failure modes so any controller's sensitivity to imperfect
//! sensing can be quantified (see the sensor-dropout study in
//! the `ablations` binary):
//!
//! - **dropout**: a reading is lost and reported as zero (stuck-off loop
//!   detector);
//! - **noise**: counting error of ±`magnitude` vehicles;
//! - **freeze**: the last reading is repeated (stale communication);
//! - **stuck-at**: a detector latches at a fixed value for the rest of
//!   the fault window (shorted loop);
//! - **frozen counter**: a detector latches at its *current* truth and
//!   stops updating for the rest of the window (hung counter firmware).
//!
//! `freeze` is transient (each reading independently repeats the
//! previous one); `stuck-at`/`frozen` are *persistent* — once a reading
//! latches it stays latched until the fault window deactivates or the
//! controller is reset.
//!
//! Faults are sampled per link/road per decision from a seeded RNG, so
//! faulty runs are exactly reproducible. Every fault mode's random draw
//! is gated on its probability being positive, so enabling a new mode
//! never perturbs the RNG stream of configs that do not use it.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use utilbp_core::{IntersectionView, PhaseDecision, QueueObservation, SignalController, Tick};

/// Fault model parameters. Probabilities are per reading per decision.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SensorFaultConfig {
    /// Probability a reading drops to zero.
    pub dropout: f64,
    /// Probability a reading gains symmetric counting noise.
    pub noise: f64,
    /// Maximum magnitude of counting noise, in vehicles.
    pub noise_magnitude: u32,
    /// Probability a reading freezes at its previous value.
    pub freeze: f64,
    /// Probability a reading *latches* at [`stuck_at_value`]: once
    /// sampled, that detector reports the fixed value for the rest of
    /// the fault window (a shorted loop detector).
    ///
    /// [`stuck_at_value`]: SensorFaultConfig::stuck_at_value
    pub stuck_at: f64,
    /// The value a stuck-at detector reports.
    pub stuck_at_value: u32,
    /// Probability a reading's counter *freezes*: once sampled, that
    /// detector latches at its current truth and stops updating for the
    /// rest of the fault window (hung counter firmware). Unlike
    /// [`freeze`], which independently repeats the previous reading per
    /// decision, a frozen counter persists.
    ///
    /// [`freeze`]: SensorFaultConfig::freeze
    pub frozen: f64,
}

impl SensorFaultConfig {
    /// No faults (the wrapped controller behaves identically).
    pub const NONE: SensorFaultConfig = SensorFaultConfig {
        dropout: 0.0,
        noise: 0.0,
        noise_magnitude: 0,
        freeze: 0.0,
        stuck_at: 0.0,
        stuck_at_value: 0,
        frozen: 0.0,
    };

    /// Validates that all probabilities lie in `[0, 1]`.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending field.
    pub fn validate(&self) -> Result<(), String> {
        for (name, p) in [
            ("dropout", self.dropout),
            ("noise", self.noise),
            ("freeze", self.freeze),
            ("stuck-at", self.stuck_at),
            ("frozen", self.frozen),
        ] {
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("{name} must be a probability, got {p}"));
            }
        }
        Ok(())
    }
}

/// A shared on/off switch for fault injection: scenario engines hold one
/// handle and flip it at event ticks (a sensor-degradation *window*),
/// while every wrapped controller holds a clone and consults it per
/// decision. While inactive, a [`FaultySensors`] wrapper is fully
/// transparent — no corruption and no random draws, so the fault RNG
/// stream depends only on the ticks the window covers.
///
/// # Examples
///
/// ```
/// use utilbp_baselines::FaultSwitch;
///
/// let switch = FaultSwitch::new(false);
/// let handle = switch.clone();
/// handle.set_active(true);
/// assert!(switch.is_active());
/// ```
#[derive(Debug, Clone, Default)]
pub struct FaultSwitch(Arc<AtomicBool>);

impl FaultSwitch {
    /// Creates a switch in the given initial state.
    pub fn new(active: bool) -> Self {
        FaultSwitch(Arc::new(AtomicBool::new(active)))
    }

    /// Turns fault injection on or off for every controller holding a
    /// clone of this switch.
    pub fn set_active(&self, active: bool) {
        self.0.store(active, Ordering::Relaxed);
    }

    /// Whether fault injection is currently active.
    pub fn is_active(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }
}

/// Wraps a controller with faulty sensors.
///
/// # Examples
///
/// ```
/// use utilbp_baselines::{FaultSwitch, FaultySensors, SensorFaultConfig};
/// use utilbp_core::{standard, QueueObservation, IntersectionView, SignalController, Tick, UtilBp};
///
/// let mut ctrl = FaultySensors::gated(
///     UtilBp::paper(),
///     SensorFaultConfig { dropout: 0.1, ..SensorFaultConfig::NONE },
///     42,
///     FaultSwitch::new(true),
/// );
/// let layout = standard::four_way(120, 1.0);
/// let obs = QueueObservation::zeros(&layout);
/// let view = IntersectionView::new(&layout, &obs).unwrap();
/// let _ = ctrl.decide(&view, Tick::ZERO);
/// ```
#[derive(Debug, Clone)]
pub struct FaultySensors<C> {
    inner: C,
    config: SensorFaultConfig,
    rng: SmallRng,
    /// Last delivered observation, for the freeze fault.
    last: Option<QueueObservation>,
    /// Per-reading persistent latches for the stuck-at/frozen-counter
    /// faults, indexed by reading position (movements first, then
    /// outgoing roads, in layout order). Empty while the window is
    /// inactive — latches do not survive deactivation.
    latched: Vec<Option<u32>>,
    /// Scenario-driven gate: faults apply only while the switch is
    /// active.
    switch: FaultSwitch,
}

impl<C: SignalController> FaultySensors<C> {
    /// Wraps `inner` with a fault model gated by `switch`: corruption
    /// applies only while the switch is active, which is how scenario
    /// sensor-degradation windows turn the fault model on and off
    /// mid-run without rebuilding controllers.
    ///
    /// # Panics
    ///
    /// Panics if `config` fails [`SensorFaultConfig::validate`].
    pub fn gated(inner: C, config: SensorFaultConfig, seed: u64, switch: FaultSwitch) -> Self {
        if let Err(msg) = config.validate() {
            panic!("invalid sensor fault config: {msg}");
        }
        FaultySensors {
            inner,
            config,
            rng: SmallRng::seed_from_u64(seed),
            last: None,
            latched: Vec::new(),
            switch,
        }
    }

    fn corrupt(
        cfg: &SensorFaultConfig,
        rng: &mut SmallRng,
        truth: u32,
        previous: Option<u32>,
        latch: &mut Option<u32>,
    ) -> u32 {
        // A persistent latch, once sampled, overrides every transient
        // mode (and draws no further randomness for this reading).
        if let Some(v) = *latch {
            return v;
        }
        if cfg.stuck_at > 0.0 && rng.gen::<f64>() < cfg.stuck_at {
            *latch = Some(cfg.stuck_at_value);
            return cfg.stuck_at_value;
        }
        if cfg.frozen > 0.0 && rng.gen::<f64>() < cfg.frozen {
            *latch = Some(truth);
            return truth;
        }
        if cfg.freeze > 0.0 && rng.gen::<f64>() < cfg.freeze {
            if let Some(prev) = previous {
                return prev;
            }
        }
        if cfg.dropout > 0.0 && rng.gen::<f64>() < cfg.dropout {
            return 0;
        }
        if cfg.noise > 0.0 && cfg.noise_magnitude > 0 && rng.gen::<f64>() < cfg.noise {
            let delta =
                rng.gen_range(0..=2 * cfg.noise_magnitude as i64) - cfg.noise_magnitude as i64;
            return truth.saturating_add_signed(delta as i32);
        }
        truth
    }
}

impl<C: SignalController> SignalController for FaultySensors<C> {
    fn decide(&mut self, view: &IntersectionView<'_>, now: Tick) -> PhaseDecision {
        let layout = view.layout();
        if !self.switch.is_active() {
            // Window closed: pass the truth through. When a freeze fault
            // is configured, keep `last` tracking the healthy readings
            // (reusing the buffer in place) so a freeze right after
            // reactivation repeats the latest truth rather than a stale
            // pre-window value; otherwise `last` is never read and the
            // inactive path stays allocation-free.
            if self.config.freeze > 0.0 {
                let truth = self
                    .last
                    .get_or_insert_with(|| QueueObservation::zeros(layout));
                for link in layout.link_ids() {
                    truth.set_movement(link, view.movement_queue(link));
                }
                for out in layout.outgoing_ids() {
                    truth.set_outgoing(out, view.outgoing_occupancy(out));
                }
            }
            // Persistent latches model in-window hardware state; a
            // window that closed means the detector was serviced.
            self.latched.clear();
            return self.inner.decide(view, now);
        }
        let mut corrupted = QueueObservation::zeros(layout);
        let mut slot = 0usize;
        for link in layout.link_ids() {
            let previous = self.last.as_ref().map(|o| o.movement(link));
            if self.latched.len() <= slot {
                self.latched.push(None);
            }
            let reading = Self::corrupt(
                &self.config,
                &mut self.rng,
                view.movement_queue(link),
                previous,
                &mut self.latched[slot],
            );
            corrupted.set_movement(link, reading);
            slot += 1;
        }
        for out in layout.outgoing_ids() {
            let previous = self.last.as_ref().map(|o| o.outgoing(out));
            if self.latched.len() <= slot {
                self.latched.push(None);
            }
            let reading = Self::corrupt(
                &self.config,
                &mut self.rng,
                view.outgoing_occupancy(out),
                previous,
                &mut self.latched[slot],
            );
            corrupted.set_outgoing(out, reading);
            slot += 1;
        }
        self.last = Some(corrupted.clone());
        let faulty_view = IntersectionView::new(layout, &corrupted)
            .expect("corrupted observation has the layout's shape");
        self.inner.decide(&faulty_view, now)
    }

    fn reset(&mut self) {
        self.inner.reset();
        self.last = None;
        self.latched.clear();
    }

    fn name(&self) -> &'static str {
        "faulty-sensors"
    }

    fn save_state(&self, writer: &mut utilbp_core::state::StateWriter) {
        // The switch is engine-owned state (a scenario fault window) and
        // is restored by the engine, not here.
        for word in self.rng.state() {
            writer.push(word);
        }
        match &self.last {
            None => writer.push_bool(false),
            Some(obs) => {
                writer.push_bool(true);
                obs.save_state(writer);
            }
        }
        writer.push_usize(self.latched.len());
        for latch in &self.latched {
            match latch {
                None => writer.push_bool(false),
                Some(v) => {
                    writer.push_bool(true);
                    writer.push_u32(*v);
                }
            }
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
        self.last = if reader.take_bool()? {
            Some(QueueObservation::load_state(reader)?)
        } else {
            None
        };
        let len = reader.take_usize()?;
        self.latched.clear();
        for _ in 0..len {
            let latch = if reader.take_bool()? {
                Some(reader.take_u32()?)
            } else {
                None
            };
            self.latched.push(latch);
        }
        self.inner.load_state(reader)
    }

    fn check_state(
        &self,
        layout: &utilbp_core::IntersectionLayout,
    ) -> Result<(), utilbp_core::state::StateError> {
        if let Some(last) = self.last.as_ref().filter(|last| !last.fits(layout)) {
            return Err(utilbp_core::state::StateError::Invalid {
                what: "faulty sensor readings",
                word: last.movements().len() as u64,
            });
        }
        self.inner.check_state(layout)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use utilbp_core::standard::{self, Approach, Turn};
    use utilbp_core::UtilBp;

    fn layout() -> utilbp_core::IntersectionLayout {
        standard::four_way(120, 1.0)
    }

    #[test]
    fn no_faults_is_transparent() {
        let layout = layout();
        let mut obs = QueueObservation::zeros(&layout);
        obs.set_movement(standard::link_id(Approach::East, Turn::Straight), 9);
        let mut clean = UtilBp::paper();
        let mut wrapped = FaultySensors::gated(
            UtilBp::paper(),
            SensorFaultConfig::NONE,
            1,
            FaultSwitch::new(true),
        );
        for k in 0..50 {
            let view = IntersectionView::new(&layout, &obs).unwrap();
            let view2 = IntersectionView::new(&layout, &obs).unwrap();
            assert_eq!(
                clean.decide(&view, Tick::new(k)),
                wrapped.decide(&view2, Tick::new(k)),
                "k={k}"
            );
        }
    }

    #[test]
    fn full_dropout_blinds_the_controller() {
        let layout = layout();
        let mut obs = QueueObservation::zeros(&layout);
        obs.set_movement(standard::link_id(Approach::East, Turn::Straight), 30);
        let mut wrapped = FaultySensors::gated(
            UtilBp::paper(),
            SensorFaultConfig {
                dropout: 1.0,
                ..SensorFaultConfig::NONE
            },
            1,
            FaultSwitch::new(true),
        );
        let view = IntersectionView::new(&layout, &obs).unwrap();
        let d = wrapped.decide(&view, Tick::ZERO);
        // Blind controller sees an all-empty junction: it settles on some
        // phase by tie-break, not necessarily the loaded one — and over
        // many ticks it must never see the queue.
        let first = d;
        for k in 1..20 {
            let view = IntersectionView::new(&layout, &obs).unwrap();
            assert_eq!(wrapped.decide(&view, Tick::new(k)), first);
        }
    }

    #[test]
    fn freeze_repeats_previous_reading() {
        let layout = layout();
        let link = standard::link_id(Approach::North, Turn::Straight);
        let mut obs = QueueObservation::zeros(&layout);
        obs.set_movement(link, 10);
        // freeze = 1.0: after the first reading every subsequent one is a
        // copy, so emptying the physical queue must not change decisions.
        let mut wrapped = FaultySensors::gated(
            UtilBp::paper(),
            SensorFaultConfig {
                freeze: 1.0,
                ..SensorFaultConfig::NONE
            },
            1,
            FaultSwitch::new(true),
        );
        let view = IntersectionView::new(&layout, &obs).unwrap();
        let first = wrapped.decide(&view, Tick::ZERO);
        obs.set_movement(link, 0);
        for k in 1..10 {
            let view = IntersectionView::new(&layout, &obs).unwrap();
            assert_eq!(
                wrapped.decide(&view, Tick::new(k)),
                first,
                "frozen sensors must pin the decision"
            );
        }
    }

    #[test]
    fn corruption_is_seed_deterministic() {
        let layout = layout();
        let mut obs = QueueObservation::zeros(&layout);
        for l in layout.link_ids() {
            obs.set_movement(l, 7);
        }
        let cfg = SensorFaultConfig {
            dropout: 0.3,
            noise: 0.3,
            noise_magnitude: 3,
            freeze: 0.1,
            stuck_at: 0.05,
            stuck_at_value: 99,
            frozen: 0.05,
        };
        let run = |seed: u64| -> Vec<PhaseDecision> {
            let mut c = FaultySensors::gated(UtilBp::paper(), cfg, seed, FaultSwitch::new(true));
            (0..30)
                .map(|k| {
                    let view = IntersectionView::new(&layout, &obs).unwrap();
                    c.decide(&view, Tick::new(k))
                })
                .collect()
        };
        assert_eq!(run(9), run(9));
    }

    #[test]
    fn reset_clears_frozen_state() {
        let layout = layout();
        let obs = QueueObservation::zeros(&layout);
        let mut wrapped = FaultySensors::gated(
            UtilBp::paper(),
            SensorFaultConfig {
                freeze: 1.0,
                ..SensorFaultConfig::NONE
            },
            1,
            FaultSwitch::new(true),
        );
        let view = IntersectionView::new(&layout, &obs).unwrap();
        let _ = wrapped.decide(&view, Tick::ZERO);
        wrapped.reset();
        assert!(wrapped.inner.previous_decision().is_transition());
        assert_eq!(wrapped.name(), "faulty-sensors");
        assert_eq!(wrapped.config.freeze, 1.0);
    }

    #[test]
    fn gated_faults_are_transparent_while_inactive() {
        let layout = layout();
        let mut obs = QueueObservation::zeros(&layout);
        obs.set_movement(standard::link_id(Approach::East, Turn::Straight), 30);
        let switch = FaultSwitch::new(false);
        let mut clean = UtilBp::paper();
        let mut gated = FaultySensors::gated(
            UtilBp::paper(),
            SensorFaultConfig {
                dropout: 1.0,
                ..SensorFaultConfig::NONE
            },
            1,
            switch.clone(),
        );
        for k in 0..20 {
            let view = IntersectionView::new(&layout, &obs).unwrap();
            let view2 = IntersectionView::new(&layout, &obs).unwrap();
            assert_eq!(
                clean.decide(&view, Tick::new(k)),
                gated.decide(&view2, Tick::new(k)),
                "inactive switch must be transparent at k={k}"
            );
        }
        // Activate mid-run: total dropout blinds the controller, so its
        // decision stops tracking the loaded junction.
        switch.set_active(true);
        let view = IntersectionView::new(&layout, &obs).unwrap();
        let blind_first = gated.decide(&view, Tick::new(20));
        for k in 21..40 {
            let view = IntersectionView::new(&layout, &obs).unwrap();
            assert_eq!(gated.decide(&view, Tick::new(k)), blind_first);
        }
        // Deactivate again: the controller sees the loaded movement and
        // must eventually settle on the east–west phase (c3) that serves
        // it — which total dropout prevented.
        switch.set_active(false);
        let c3 = PhaseDecision::Control(standard::phase_id(3));
        let mut settled = false;
        for k in 40..120 {
            let view = IntersectionView::new(&layout, &obs).unwrap();
            settled |= gated.decide(&view, Tick::new(k)) == c3;
        }
        assert!(settled, "healthy sensors must reveal the loaded movement");
    }

    #[test]
    fn stuck_at_latches_every_reading_at_the_fixed_value() {
        let layout = layout();
        let link = standard::link_id(Approach::North, Turn::Straight);
        let mut obs = QueueObservation::zeros(&layout);
        obs.set_movement(link, 25);
        // stuck_at = 1.0 with value 0: every detector latches dark on
        // its first in-window reading, so the controller is blind and
        // pinned regardless of how the physical queues evolve.
        let mut wrapped = FaultySensors::gated(
            UtilBp::paper(),
            SensorFaultConfig {
                stuck_at: 1.0,
                stuck_at_value: 0,
                ..SensorFaultConfig::NONE
            },
            1,
            FaultSwitch::new(true),
        );
        let view = IntersectionView::new(&layout, &obs).unwrap();
        let first = wrapped.decide(&view, Tick::ZERO);
        obs.set_movement(link, 60);
        for k in 1..20 {
            let view = IntersectionView::new(&layout, &obs).unwrap();
            assert_eq!(
                wrapped.decide(&view, Tick::new(k)),
                first,
                "stuck-at detectors must pin the decision at k={k}"
            );
        }
    }

    #[test]
    fn frozen_counter_persists_after_truth_changes() {
        let layout = layout();
        let link = standard::link_id(Approach::East, Turn::Straight);
        let mut obs = QueueObservation::zeros(&layout);
        obs.set_movement(link, 30);
        // frozen = 1.0: every counter latches at its tick-0 truth; the
        // loaded east approach keeps reporting 30 even once emptied, so
        // the controller keeps serving it exactly as if nothing changed.
        let run = |frozen: bool, empty_after_first: bool| -> Vec<PhaseDecision> {
            let cfg = if frozen {
                SensorFaultConfig {
                    frozen: 1.0,
                    ..SensorFaultConfig::NONE
                }
            } else {
                SensorFaultConfig::NONE
            };
            let mut obs = QueueObservation::zeros(&layout);
            obs.set_movement(link, 30);
            let mut c = FaultySensors::gated(UtilBp::paper(), cfg, 7, FaultSwitch::new(true));
            (0..40)
                .map(|k| {
                    if k == 1 && empty_after_first {
                        obs.set_movement(link, 0);
                    }
                    let view = IntersectionView::new(&layout, &obs).unwrap();
                    c.decide(&view, Tick::new(k))
                })
                .collect()
        };
        // Frozen counters make the emptied junction look permanently
        // loaded: decisions match the run where the queue really stayed.
        assert_eq!(run(true, true), run(false, false));
    }

    #[test]
    fn latches_clear_when_the_window_deactivates() {
        let layout = layout();
        let link = standard::link_id(Approach::East, Turn::Straight);
        let mut obs = QueueObservation::zeros(&layout);
        obs.set_movement(link, 30);
        let switch = FaultSwitch::new(true);
        let mut gated = FaultySensors::gated(
            UtilBp::paper(),
            SensorFaultConfig {
                stuck_at: 1.0,
                stuck_at_value: 0,
                ..SensorFaultConfig::NONE
            },
            1,
            switch.clone(),
        );
        let view = IntersectionView::new(&layout, &obs).unwrap();
        let blind = gated.decide(&view, Tick::ZERO);
        for k in 1..20 {
            let view = IntersectionView::new(&layout, &obs).unwrap();
            assert_eq!(gated.decide(&view, Tick::new(k)), blind);
        }
        // Deactivate: detectors are serviced, latches clear, and the
        // controller must rediscover the loaded east–west movement.
        switch.set_active(false);
        let c3 = PhaseDecision::Control(standard::phase_id(3));
        let mut settled = false;
        for k in 20..120 {
            let view = IntersectionView::new(&layout, &obs).unwrap();
            settled |= gated.decide(&view, Tick::new(k)) == c3;
        }
        assert!(settled, "cleared latches must reveal the loaded movement");
    }

    #[test]
    #[should_panic(expected = "invalid sensor fault config")]
    fn rejects_bad_probabilities() {
        let _ = FaultySensors::gated(
            UtilBp::paper(),
            SensorFaultConfig {
                dropout: 1.5,
                ..SensorFaultConfig::NONE
            },
            0,
            FaultSwitch::new(true),
        );
    }
}
