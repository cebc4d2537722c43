//! Watchdog-guarded graceful degradation: a per-intersection health
//! monitor that swaps an adaptive controller for a fixed-time fallback
//! while its sensor stream looks implausible.
//!
//! The paper's CPS framing makes each intersection an autonomous
//! sensor→controller→actuator loop. An adaptive controller fed garbage
//! readings can behave arbitrarily badly (a frozen counter pins UTIL-BP
//! to one phase forever); a fixed-time plan reads no sensors at all and
//! therefore bounds the damage. [`Degrading`] monitors the *readings
//! the wrapped controller actually sees* (wrap it **inside**
//! [`FaultySensors`](crate::FaultySensors), so corruption is visible to
//! the monitor) and degrades per intersection:
//!
//! - **frozen stream**: every movement reading identical to the
//!   previous decision's for `freeze_ticks` consecutive decisions while
//!   at least one queue is non-empty — real queues under service do not
//!   hold perfectly still that long;
//! - **impossible delta**: any movement reading jumping by more than
//!   `max_delta` vehicles between consecutive decisions — arrivals and
//!   service are rate-limited, teleporting queues are not.
//!
//! Recovery is hysteresis-banded: the monitor returns control to the
//! adaptive controller only after `recovery_ticks` consecutive
//! *plausible* decisions, so a flapping sensor cannot bounce the
//! intersection between controllers every tick.
//!
//! Both controllers run every decision (the fallback's cycle clock and
//! the adaptive controller's internal state stay warm), so hand-offs
//! are seamless and the whole wrapper stays deterministic: it draws no
//! randomness and each instance owns its own [`WatchdogStats`] handle,
//! which parallel substrates never share across intersections.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use utilbp_core::{IntersectionView, PhaseDecision, SignalController, Tick};

/// Health-monitor parameters for [`Degrading`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WatchdogConfig {
    /// Consecutive decisions with a bit-identical, non-empty movement
    /// snapshot before the stream is declared frozen. Must be ≥ 1.
    pub freeze_ticks: u64,
    /// Largest credible per-decision change of a single movement
    /// reading, in vehicles.
    pub max_delta: u32,
    /// Consecutive plausible decisions required before control returns
    /// to the adaptive controller. Must be ≥ 1.
    pub recovery_ticks: u64,
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        WatchdogConfig {
            freeze_ticks: 24,
            max_delta: 16,
            recovery_ticks: 12,
        }
    }
}

impl WatchdogConfig {
    /// Validates the monitor thresholds.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending field.
    pub fn validate(&self) -> Result<(), String> {
        if self.freeze_ticks == 0 {
            return Err("freeze-ticks must be ≥ 1".to_string());
        }
        if self.recovery_ticks == 0 {
            return Err("recovery-ticks must be ≥ 1".to_string());
        }
        if self.max_delta == 0 {
            return Err("max-delta must be ≥ 1".to_string());
        }
        Ok(())
    }
}

#[derive(Debug, Default)]
struct StatsInner {
    activations: AtomicU64,
    degraded_ticks: AtomicU64,
    recoveries: AtomicU64,
    recovery_ticks_total: AtomicU64,
    degraded_now: AtomicBool,
}

/// A shared, read-side handle onto one [`Degrading`] wrapper's
/// counters: the scenario engine keeps a clone per intersection and
/// aggregates after the run. Each wrapper mutates only its own handle,
/// so parallel substrates stay deterministic.
#[derive(Debug, Clone, Default)]
pub struct WatchdogStats(Arc<StatsInner>);

impl WatchdogStats {
    /// How many times the watchdog switched this intersection onto the
    /// fallback controller.
    pub fn activations(&self) -> u64 {
        self.0.activations.load(Ordering::Relaxed)
    }

    /// Total decisions executed by the fallback controller.
    pub fn degraded_ticks(&self) -> u64 {
        self.0.degraded_ticks.load(Ordering::Relaxed)
    }

    /// How many degradation episodes ended in a recovery.
    pub fn recoveries(&self) -> u64 {
        self.0.recoveries.load(Ordering::Relaxed)
    }

    /// Summed length, in ticks, of every *completed* degradation
    /// episode (divide by [`recoveries`](WatchdogStats::recoveries) for
    /// the mean time-to-recover).
    pub fn recovery_ticks_total(&self) -> u64 {
        self.0.recovery_ticks_total.load(Ordering::Relaxed)
    }

    /// Whether the intersection is currently running its fallback.
    pub fn is_degraded(&self) -> bool {
        self.0.degraded_now.load(Ordering::Relaxed)
    }
}

/// Wraps an adaptive controller `C` with a fixed-time-style fallback
/// `F` behind a sensor-plausibility watchdog (see the module docs for
/// the monitor rules).
///
/// # Examples
///
/// ```
/// use utilbp_baselines::{Degrading, FixedTime, WatchdogConfig};
/// use utilbp_core::{standard, IntersectionView, QueueObservation, SignalController, Tick, Ticks, UtilBp};
///
/// let mut ctrl = Degrading::new(
///     UtilBp::paper(),
///     FixedTime::new(Ticks::new(12), Ticks::new(2)),
///     WatchdogConfig::default(),
/// );
/// let layout = standard::four_way(120, 1.0);
/// let obs = QueueObservation::zeros(&layout);
/// let view = IntersectionView::new(&layout, &obs).unwrap();
/// let _ = ctrl.decide(&view, Tick::ZERO);
/// assert!(!ctrl.stats().is_degraded());
/// ```
#[derive(Debug, Clone)]
pub struct Degrading<C, F> {
    inner: C,
    fallback: F,
    config: WatchdogConfig,
    stats: WatchdogStats,
    /// Movement readings seen at the previous decision, in layout
    /// order; empty before the first decision.
    prev: Vec<u32>,
    /// Consecutive decisions with a frozen, non-empty snapshot.
    same_streak: u64,
    /// Consecutive plausible decisions while degraded.
    plausible_streak: u64,
    /// Ticks spent in the current degradation episode.
    episode_ticks: u64,
    degraded: bool,
}

impl<C: SignalController, F: SignalController> Degrading<C, F> {
    /// Wraps `inner` with `fallback` behind the given watchdog.
    ///
    /// # Panics
    ///
    /// Panics if `config` fails [`WatchdogConfig::validate`].
    pub fn new(inner: C, fallback: F, config: WatchdogConfig) -> Self {
        if let Err(msg) = config.validate() {
            panic!("invalid watchdog config: {msg}");
        }
        Degrading {
            inner,
            fallback,
            config,
            stats: WatchdogStats::default(),
            prev: Vec::new(),
            same_streak: 0,
            plausible_streak: 0,
            episode_ticks: 0,
            degraded: false,
        }
    }

    /// A clonable handle onto this wrapper's counters.
    pub fn stats(&self) -> WatchdogStats {
        self.stats.clone()
    }

    /// Folds the current movement snapshot into the monitor and returns
    /// whether the stream currently looks implausible.
    fn observe(&mut self, view: &IntersectionView<'_>) -> bool {
        let layout = view.layout();
        let mut implausible_delta = false;
        let mut all_same = true;
        let mut total: u64 = 0;
        let comparable = self.prev.len() == layout.link_ids().count();
        for (slot, link) in layout.link_ids().enumerate() {
            let reading = view.movement_queue(link);
            total += u64::from(reading);
            if comparable {
                let before = self.prev[slot];
                all_same &= reading == before;
                implausible_delta |= reading.abs_diff(before) > self.config.max_delta;
                self.prev[slot] = reading;
            } else {
                self.prev.push(reading);
            }
        }
        if comparable && all_same && total > 0 {
            self.same_streak += 1;
        } else {
            self.same_streak = 0;
        }
        implausible_delta || self.same_streak >= self.config.freeze_ticks
    }
}

impl<C: SignalController, F: SignalController> SignalController for Degrading<C, F> {
    fn decide(&mut self, view: &IntersectionView<'_>, now: Tick) -> PhaseDecision {
        let implausible = self.observe(view);
        if !self.degraded {
            if implausible {
                self.degraded = true;
                self.plausible_streak = 0;
                self.episode_ticks = 0;
                self.stats.0.activations.fetch_add(1, Ordering::Relaxed);
                self.stats.0.degraded_now.store(true, Ordering::Relaxed);
            }
        } else if implausible {
            self.plausible_streak = 0;
        } else {
            self.plausible_streak += 1;
            if self.plausible_streak >= self.config.recovery_ticks {
                self.degraded = false;
                self.stats.0.recoveries.fetch_add(1, Ordering::Relaxed);
                self.stats
                    .0
                    .recovery_ticks_total
                    .fetch_add(self.episode_ticks, Ordering::Relaxed);
                self.stats.0.degraded_now.store(false, Ordering::Relaxed);
            }
        }
        // Both controllers run every decision so hand-offs are seamless
        // (a fixed-time fallback reads no queues, so feeding it the
        // possibly-corrupted view is safe by construction).
        let adaptive = self.inner.decide(view, now);
        let safe = self.fallback.decide(view, now);
        if self.degraded {
            self.stats.0.degraded_ticks.fetch_add(1, Ordering::Relaxed);
            self.episode_ticks += 1;
            safe
        } else {
            adaptive
        }
    }

    fn reset(&mut self) {
        self.inner.reset();
        self.fallback.reset();
        self.prev.clear();
        self.same_streak = 0;
        self.plausible_streak = 0;
        self.episode_ticks = 0;
        self.degraded = false;
        // Counters are a per-run measurement surface; a reset starts a
        // fresh run with a fresh handle so old aggregates stay valid.
        self.stats = WatchdogStats::default();
    }

    fn name(&self) -> &'static str {
        "degrading"
    }

    fn save_state(&self, writer: &mut utilbp_core::state::StateWriter) {
        writer.push_usize(self.prev.len());
        for &reading in &self.prev {
            writer.push_u32(reading);
        }
        writer.push(self.same_streak);
        writer.push(self.plausible_streak);
        writer.push(self.episode_ticks);
        writer.push_bool(self.degraded);
        // Counters ride along so a restored run's aggregate watchdog
        // telemetry matches the uninterrupted run's.
        writer.push(self.stats.0.activations.load(Ordering::Relaxed));
        writer.push(self.stats.0.degraded_ticks.load(Ordering::Relaxed));
        writer.push(self.stats.0.recoveries.load(Ordering::Relaxed));
        writer.push(self.stats.0.recovery_ticks_total.load(Ordering::Relaxed));
        self.inner.save_state(writer);
        self.fallback.save_state(writer);
    }

    fn load_state(
        &mut self,
        reader: &mut utilbp_core::state::StateReader<'_>,
    ) -> Result<(), utilbp_core::state::StateError> {
        let len = reader.take_usize()?;
        self.prev.clear();
        for _ in 0..len {
            self.prev.push(reader.take_u32()?);
        }
        self.same_streak = reader.take_count("watchdog frozen streak")?;
        self.plausible_streak = reader.take_count("watchdog plausible streak")?;
        self.episode_ticks = reader.take_count("watchdog episode ticks")?;
        self.degraded = reader.take_bool()?;
        let stats = &self.stats.0;
        for (counter, what) in [
            (&stats.activations, "watchdog activations"),
            (&stats.degraded_ticks, "watchdog degraded ticks"),
            (&stats.recoveries, "watchdog recoveries"),
            (&stats.recovery_ticks_total, "watchdog recovery ticks"),
        ] {
            counter.store(reader.take_count(what)?, Ordering::Relaxed);
        }
        self.stats
            .0
            .degraded_now
            .store(self.degraded, Ordering::Relaxed);
        self.inner.load_state(reader)?;
        self.fallback.load_state(reader)
    }

    fn check_state(
        &self,
        layout: &utilbp_core::IntersectionLayout,
    ) -> Result<(), utilbp_core::state::StateError> {
        self.inner.check_state(layout)?;
        self.fallback.check_state(layout)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FixedTime;
    use utilbp_core::standard::{self, Approach, Turn};
    use utilbp_core::{QueueObservation, Ticks, UtilBp};

    fn layout() -> utilbp_core::IntersectionLayout {
        standard::four_way(120, 1.0)
    }

    fn watchdog() -> WatchdogConfig {
        WatchdogConfig {
            freeze_ticks: 6,
            max_delta: 10,
            recovery_ticks: 4,
        }
    }

    fn wrapped() -> Degrading<UtilBp, FixedTime> {
        Degrading::new(
            UtilBp::paper(),
            FixedTime::new(Ticks::new(4), Ticks::new(1)),
            watchdog(),
        )
    }

    #[test]
    fn plausible_streams_never_degrade() {
        let layout = layout();
        let link = standard::link_id(Approach::East, Turn::Straight);
        let mut ctrl = wrapped();
        let mut clean = UtilBp::paper();
        let mut obs = QueueObservation::zeros(&layout);
        for k in 0..100u64 {
            // A live queue: small, rate-limited movements.
            obs.set_movement(link, (5 + (k % 3)) as u32);
            let view = IntersectionView::new(&layout, &obs).unwrap();
            let view2 = IntersectionView::new(&layout, &obs).unwrap();
            assert_eq!(
                ctrl.decide(&view, Tick::new(k)),
                clean.decide(&view2, Tick::new(k)),
                "healthy watchdog must be transparent at k={k}"
            );
        }
        let stats = ctrl.stats();
        assert_eq!(stats.activations(), 0);
        assert_eq!(stats.degraded_ticks(), 0);
        assert!(!stats.is_degraded());
    }

    #[test]
    fn frozen_stream_activates_the_fallback() {
        let layout = layout();
        let link = standard::link_id(Approach::East, Turn::Straight);
        let mut ctrl = wrapped();
        let mut fallback = FixedTime::new(Ticks::new(4), Ticks::new(1));
        let mut obs = QueueObservation::zeros(&layout);
        obs.set_movement(link, 12);
        let cfg = watchdog();
        for k in 0..60u64 {
            let view = IntersectionView::new(&layout, &obs).unwrap();
            let view2 = IntersectionView::new(&layout, &obs).unwrap();
            let got = ctrl.decide(&view, Tick::new(k));
            let safe = fallback.decide(&view2, Tick::new(k));
            if k > cfg.freeze_ticks {
                assert_eq!(
                    got, safe,
                    "degraded controller must follow the fallback at k={k}"
                );
            }
        }
        let stats = ctrl.stats();
        assert_eq!(stats.activations(), 1);
        assert!(stats.is_degraded());
        assert!(stats.degraded_ticks() > 0);
        assert_eq!(stats.recoveries(), 0);
    }

    #[test]
    fn impossible_delta_degrades_immediately() {
        let layout = layout();
        let link = standard::link_id(Approach::North, Turn::Straight);
        let mut ctrl = wrapped();
        let mut obs = QueueObservation::zeros(&layout);
        obs.set_movement(link, 2);
        let view = IntersectionView::new(&layout, &obs).unwrap();
        let _ = ctrl.decide(&view, Tick::ZERO);
        // A 2 → 40 jump exceeds max_delta = 10 by far.
        obs.set_movement(link, 40);
        let view = IntersectionView::new(&layout, &obs).unwrap();
        let _ = ctrl.decide(&view, Tick::new(1));
        assert_eq!(ctrl.stats().activations(), 1);
        assert!(ctrl.stats().is_degraded());
    }

    #[test]
    fn recovery_needs_a_full_plausible_streak() {
        let layout = layout();
        let link = standard::link_id(Approach::East, Turn::Straight);
        let cfg = watchdog();
        let mut ctrl = wrapped();
        let mut obs = QueueObservation::zeros(&layout);
        obs.set_movement(link, 12);
        // Freeze long enough to degrade.
        let mut k = 0u64;
        while !ctrl.stats().is_degraded() {
            let view = IntersectionView::new(&layout, &obs).unwrap();
            let _ = ctrl.decide(&view, Tick::new(k));
            k += 1;
            assert!(k < 100, "frozen stream must degrade");
        }
        // Thaw: readings move again, but recovery only lands after
        // `recovery_ticks` consecutive plausible decisions.
        let mut plausible = 0u64;
        while ctrl.stats().is_degraded() {
            obs.set_movement(link, (10 + (k % 4)) as u32);
            let view = IntersectionView::new(&layout, &obs).unwrap();
            let _ = ctrl.decide(&view, Tick::new(k));
            k += 1;
            plausible += 1;
            assert!(plausible <= cfg.recovery_ticks + 1, "recovery must land");
        }
        let stats = ctrl.stats();
        assert_eq!(stats.recoveries(), 1);
        assert!(stats.recovery_ticks_total() >= stats.recoveries());
        // Degraded-tick accounting stops growing after recovery.
        let frozen_at = stats.degraded_ticks();
        for _ in 0..20 {
            obs.set_movement(link, (10 + (k % 4)) as u32);
            let view = IntersectionView::new(&layout, &obs).unwrap();
            let _ = ctrl.decide(&view, Tick::new(k));
            k += 1;
        }
        assert_eq!(ctrl.stats().degraded_ticks(), frozen_at);
    }

    #[test]
    #[should_panic(expected = "invalid watchdog config")]
    fn rejects_zero_thresholds() {
        let _ = Degrading::new(
            UtilBp::paper(),
            FixedTime::new(Ticks::new(4), Ticks::new(1)),
            WatchdogConfig {
                freeze_ticks: 0,
                ..WatchdogConfig::default()
            },
        );
    }
}
