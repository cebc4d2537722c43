//! The utilization-aware adaptive back-pressure controller — Algorithm 1 of
//! the paper, the primary contribution being reproduced.
//!
//! [`UtilBp`] is invoked at every mini-slot, which is what enables
//! varying-length control phases. Per invocation it distinguishes three
//! cases:
//!
//! 1. **Ongoing transition** — the amber period `∆k` has not expired: keep
//!    `c0`.
//! 2. **Keep the current phase** — some link of the current phase has gain
//!    above the non-negative threshold `g*(k)` (Eq. 12 by default): junction
//!    utilization is still good, so avoid churning through amber.
//! 3. **Select a new phase** — among phases that guarantee some utilization
//!    (`g_max(c_j,k) > α`), pick the one with the highest total gain
//!    (best effort against instability); if no phase can guarantee flow,
//!    pick the one with the highest single-link gain. A change of phase
//!    (from a control phase) always passes through an amber of length `∆k`.

use crate::controller::{PhaseDecision, SignalController};
use crate::ids::PhaseId;
use crate::layout::IntersectionLayout;
use crate::observation::IntersectionView;
use crate::pressure::{self, GainPenalties};
use crate::time::{Tick, Ticks};

/// Policy for the keep-current-phase threshold `g*(k)` of Algorithm 1,
/// Line 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GStarPolicy {
    /// Eq. 12: if the current phase's best link is `L_i^{i'}`, then
    /// `g*(k) = W*·µ_i^{i'}`. Under the ordinary gain (Eq. 6) this keeps
    /// the phase exactly while that link's pressure difference is positive.
    #[default]
    MaxLinkCapacityRate,
    /// `g* = +∞`: Case 2 never holds and the phase choice is re-evaluated
    /// every mini-slot. This is the *no-hysteresis* ablation; it maximizes
    /// responsiveness but pays an amber on every change of preference.
    AlwaysReevaluate,
}

/// Which link gain Case 3 ranks phases by. [`GainMode::UtilizationAware`]
/// is the paper's Eq. 8; the others are ablations quantifying its two
/// ingredients.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GainMode {
    /// Eq. 8: per-movement pressure, `W*` offset, `α`/`β` special cases.
    #[default]
    UtilizationAware,
    /// Eq. 6 only — no empty-incoming/full-outgoing discrimination
    /// (ablation "special cases off").
    PlainModified,
    /// Eq. 6 but with the *whole-road* incoming pressure `b_i` of Eq. 5
    /// instead of the per-movement `b_i^{i'}` (ablation for change (i) of
    /// Section III-A).
    PerRoadPressure,
}

/// Configuration of [`UtilBp`]. The defaults reproduce Section V of the
/// paper: `α = −1`, `β = −2`, `∆k = 4` mini-slots, `g*` per Eq. 12, gain
/// per Eq. 8.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UtilBpConfig {
    /// The `α`/`β` penalties of Eq. 8.
    pub penalties: GainPenalties,
    /// Duration `∆k` of the transition (amber) phase.
    pub transition: Ticks,
    /// The keep-phase threshold policy (Line 3 / Eq. 12).
    pub g_star: GStarPolicy,
    /// The link-gain definition used for ranking.
    pub gain_mode: GainMode,
}

impl Default for UtilBpConfig {
    fn default() -> Self {
        UtilBpConfig {
            penalties: GainPenalties::PAPER,
            transition: Ticks::new(4),
            g_star: GStarPolicy::MaxLinkCapacityRate,
            gain_mode: GainMode::UtilizationAware,
        }
    }
}

/// Scores of one phase at one instant, as used by Algorithm 1
/// (exposed for tests, ablation studies, and debugging — C-INTERMEDIATE).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseScore {
    /// The phase being scored.
    pub phase: PhaseId,
    /// `g(c_j,k)` — the total gain (Eq. 10).
    pub total: f64,
    /// `g_max(c_j,k)` — the best link gain (Eq. 11).
    pub max: f64,
    /// The link attaining `g_max` (the paper's `L_max(c_j,k)`).
    pub argmax: crate::ids::LinkId,
}

/// The utilization-aware adaptive back-pressure controller (Algorithm 1).
///
/// # Examples
///
/// ```
/// use utilbp_core::{
///     standard, PhaseDecision, QueueObservation, IntersectionView,
///     SignalController, Tick, UtilBp,
/// };
///
/// let layout = standard::four_way(120, 1.0);
/// let mut obs = QueueObservation::zeros(&layout);
/// // Ten vehicles queued to go straight from the north.
/// obs.set_movement(
///     standard::link_id(standard::Approach::North, standard::Turn::Straight),
///     10,
/// );
///
/// let mut ctrl = UtilBp::paper();
/// let view = IntersectionView::new(&layout, &obs).unwrap();
/// let decision = ctrl.decide(&view, Tick::ZERO);
/// // c1 (north–south straight + left) is the only phase with flow.
/// assert_eq!(decision, PhaseDecision::Control(standard::phase_id(1)));
/// ```
#[derive(Debug, Clone)]
pub struct UtilBp {
    config: UtilBpConfig,
    /// `c(k−1)`.
    previous: PhaseDecision,
    /// The transition expiry `t_∆k` (global variable of Algorithm 1).
    transition_until: Tick,
}

impl UtilBp {
    /// Creates a controller with the given configuration.
    pub fn new(config: UtilBpConfig) -> Self {
        UtilBp {
            config,
            previous: PhaseDecision::Transition,
            transition_until: Tick::ZERO,
        }
    }

    /// Creates a controller with the paper's Section V parameters.
    pub fn paper() -> Self {
        UtilBp::new(UtilBpConfig::default())
    }

    /// The previous decision `c(k−1)` (initially `Transition` with an
    /// already-expired timer, so the first invocation selects a phase).
    pub fn previous_decision(&self) -> PhaseDecision {
        self.previous
    }

    /// The link gain under the configured [`GainMode`].
    fn gain(&self, view: &IntersectionView<'_>, link: crate::ids::LinkId) -> f64 {
        let layout = view.layout();
        let l = layout.link(link);
        match self.config.gain_mode {
            GainMode::UtilizationAware => pressure::link_gain(view, link, self.config.penalties),
            GainMode::PlainModified => pressure::modified_link_gain(
                view.movement_queue(link),
                view.outgoing_occupancy(l.to()),
                layout.max_capacity(),
                l.service_rate(),
            ),
            GainMode::PerRoadPressure => pressure::modified_link_gain(
                view.incoming_total(l.from()),
                view.outgoing_occupancy(l.to()),
                layout.max_capacity(),
                l.service_rate(),
            ),
        }
    }

    /// Scores every phase at the current instant (Eqs. 10–11 under the
    /// configured gain mode).
    pub fn phase_scores(&self, view: &IntersectionView<'_>) -> Vec<PhaseScore> {
        view.layout()
            .phase_ids()
            .map(|phase| {
                let links = view.layout().phase(phase);
                let mut total = 0.0;
                let mut max = f64::NEG_INFINITY;
                let mut argmax = links[0];
                for &l in links {
                    let g = self.gain(view, l);
                    total += g;
                    if g > max {
                        max = g;
                        argmax = l;
                    }
                }
                PhaseScore {
                    phase,
                    total,
                    max,
                    argmax,
                }
            })
            .collect()
    }

    /// The keep-phase threshold `g*(k)` for the current phase, given the
    /// link attaining its `g_max`.
    fn g_star(&self, view: &IntersectionView<'_>, argmax: crate::ids::LinkId) -> f64 {
        match self.config.g_star {
            GStarPolicy::MaxLinkCapacityRate => {
                // Eq. 12: g* = W*·µ of the current phase's best link.
                view.layout().max_capacity() as f64 * view.layout().link(argmax).service_rate()
            }
            GStarPolicy::AlwaysReevaluate => f64::INFINITY,
        }
    }

    /// Lines 6–11 of Algorithm 1: select the candidate next phase `c'`,
    /// scoring phases on the fly (no per-decision allocation — this sits
    /// on the simulators' per-tick hot path).
    ///
    /// Exact ties resolve in favor of the current phase (avoiding a
    /// gratuitous amber), then in phase-table order. Equivalent to
    /// ranking the full [`phase_scores`](Self::phase_scores) table: one
    /// tracker ranks utilizable phases (`g_max > α`) by total gain
    /// (Line 8), the other ranks all phases by `g_max` (Line 10); the
    /// first tracker wins whenever it is non-empty.
    fn select_phase(&self, view: &IntersectionView<'_>) -> PhaseId {
        let alpha = self.config.penalties.alpha();
        let current = self.previous.phase();
        // (key, phase) trackers, updated in phase-table order with the
        // same comparison the table-based ranking used.
        let mut best_utilizable: Option<(f64, PhaseId)> = None;
        let mut best_any: Option<(f64, PhaseId)> = None;
        let prefer = |best: &mut Option<(f64, PhaseId)>, key: f64, phase: PhaseId| {
            *best = match *best {
                None => Some((key, phase)),
                Some(b) => {
                    if key > b.0 || (key == b.0 && current == Some(phase)) {
                        Some((key, phase))
                    } else {
                        Some(b)
                    }
                }
            };
        };
        for (phase, links) in view.layout().phase_ids().zip(view.layout().phases()) {
            let mut total = 0.0;
            let mut max = f64::NEG_INFINITY;
            for &l in links {
                let g = self.gain(view, l);
                total += g;
                max = max.max(g);
            }
            if max > alpha {
                prefer(&mut best_utilizable, total, phase);
            }
            prefer(&mut best_any, max, phase);
        }
        best_utilizable
            .or(best_any)
            .map(|(_, phase)| phase)
            .expect("layout validation guarantees at least one phase")
    }
}

impl SignalController for UtilBp {
    fn decide(&mut self, view: &IntersectionView<'_>, now: Tick) -> PhaseDecision {
        // Case 1 (Lines 1–2): ongoing transition.
        if self.previous.is_transition() && now < self.transition_until {
            return PhaseDecision::Transition;
        }

        // Case 2 (Lines 3–4): keep the current phase while it still offers
        // reasonable utilization.
        if let PhaseDecision::Control(current) = self.previous {
            let (gmax, argmax) = phase_gain_max_under(self, view, current);
            if gmax > self.g_star(view, argmax) {
                return PhaseDecision::Control(current);
            }
        }

        // Case 3 (Lines 5–18): pick the best next phase.
        let candidate = self.select_phase(view);

        let decision = if self.previous == PhaseDecision::Control(candidate)
            || self.previous.is_transition()
        {
            // Line 12–13: same phase, or transition just expired.
            PhaseDecision::Control(candidate)
        } else {
            // Lines 14–16: different phase — go through amber first.
            self.transition_until = now + self.config.transition;
            PhaseDecision::Transition
        };
        self.previous = decision;
        decision
    }

    fn reset(&mut self) {
        self.previous = PhaseDecision::Transition;
        self.transition_until = Tick::ZERO;
    }

    fn save_state(&self, writer: &mut crate::state::StateWriter) {
        writer.push(self.previous.state_word());
        writer.push(self.transition_until.index());
    }

    fn load_state(
        &mut self,
        reader: &mut crate::state::StateReader<'_>,
    ) -> Result<(), crate::state::StateError> {
        self.previous = PhaseDecision::from_state_word(reader.take()?)?;
        self.transition_until = Tick::new(reader.take()?);
        Ok(())
    }

    fn check_state(&self, layout: &IntersectionLayout) -> Result<(), crate::state::StateError> {
        self.previous.check_in(layout)
    }

    /// At rest exactly while holding a control phase `c`.
    ///
    /// With `c(k−1) = c`, Case 1 cannot apply, and Case 2 is a pure
    /// function of `(Q, c)`. Case 3's tie rule can only favor `c`. So if
    /// the previous call chose `c` (through Case 2, or through Case 3
    /// with `c(k−1)` either `c` or an amber that had just expired), a
    /// fresh evaluation on the same `Q` chooses `c` again, reads no
    /// clock and changes no state. An amber is never at rest: its timer
    /// runs out on the clock alone.
    fn holds_on_unchanged(&self) -> bool {
        !self.previous.is_transition()
    }

    fn name(&self) -> &'static str {
        match (self.config.gain_mode, self.config.g_star) {
            (GainMode::UtilizationAware, GStarPolicy::AlwaysReevaluate) => "util-bp/no-hysteresis",
            (GainMode::PlainModified, _) => "util-bp/no-special-cases",
            (GainMode::PerRoadPressure, _) => "util-bp/per-road-pressure",
            _ => "util-bp",
        }
    }
}

/// `g_max` of one phase under the controller's configured gain mode.
fn phase_gain_max_under(
    ctrl: &UtilBp,
    view: &IntersectionView<'_>,
    phase: PhaseId,
) -> (f64, crate::ids::LinkId) {
    let links = view.layout().phase(phase);
    let mut best = (f64::NEG_INFINITY, links[0]);
    for &l in links {
        let g = ctrl.gain(view, l);
        if g > best.0 {
            best = (g, l);
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observation::QueueObservation;
    use crate::standard::{self, Approach, Turn};

    fn layout() -> crate::IntersectionLayout {
        standard::four_way(120, 1.0)
    }

    fn decide(
        ctrl: &mut UtilBp,
        layout: &crate::IntersectionLayout,
        obs: &QueueObservation,
        now: u64,
    ) -> PhaseDecision {
        let view = IntersectionView::new(layout, obs).unwrap();
        ctrl.decide(&view, Tick::new(now))
    }

    #[test]
    fn first_decision_picks_the_loaded_phase() {
        let layout = layout();
        let mut obs = QueueObservation::zeros(&layout);
        obs.set_movement(standard::link_id(Approach::East, Turn::Straight), 8);
        let mut ctrl = UtilBp::paper();
        let d = decide(&mut ctrl, &layout, &obs, 0);
        assert_eq!(d, PhaseDecision::Control(standard::phase_id(3)));
    }

    #[test]
    fn keeps_phase_while_pressure_difference_positive() {
        let layout = layout();
        let mut obs = QueueObservation::zeros(&layout);
        let ns = standard::link_id(Approach::North, Turn::Straight);
        obs.set_movement(ns, 10);
        let mut ctrl = UtilBp::paper();
        assert_eq!(
            decide(&mut ctrl, &layout, &obs, 0),
            PhaseDecision::Control(standard::phase_id(1))
        );

        // Outgoing road fills up to just below the incoming queue: pressure
        // difference still positive → keep.
        obs.set_outgoing(layout.link(ns).to(), 9);
        assert_eq!(
            decide(&mut ctrl, &layout, &obs, 1),
            PhaseDecision::Control(standard::phase_id(1))
        );

        // Pressure difference hits zero: g = W*µ = g*, no longer *greater*,
        // so Case 2 fails and Case 3 re-selects. With the east approach now
        // loaded, control moves away (through amber).
        obs.set_outgoing(layout.link(ns).to(), 10);
        obs.set_movement(standard::link_id(Approach::East, Turn::Straight), 30);
        assert_eq!(
            decide(&mut ctrl, &layout, &obs, 2),
            PhaseDecision::Transition
        );
    }

    #[test]
    fn transition_runs_for_delta_k_then_new_phase_applies() {
        let layout = layout();
        let mut obs = QueueObservation::zeros(&layout);
        let ns = standard::link_id(Approach::North, Turn::Straight);
        let ew = standard::link_id(Approach::East, Turn::Straight);
        obs.set_movement(ns, 5);
        let mut ctrl = UtilBp::paper();
        assert_eq!(
            decide(&mut ctrl, &layout, &obs, 0),
            PhaseDecision::Control(standard::phase_id(1))
        );

        // Drain the north queue, load the east: switch through amber.
        obs.set_movement(ns, 0);
        obs.set_movement(ew, 12);
        assert_eq!(
            decide(&mut ctrl, &layout, &obs, 1),
            PhaseDecision::Transition
        );
        // ∆k = 4: amber at k = 2, 3, 4 (timer set to expire at k = 5).
        for k in 2..5 {
            assert_eq!(
                decide(&mut ctrl, &layout, &obs, k),
                PhaseDecision::Transition,
                "amber must persist at k={k}"
            );
        }
        assert_eq!(
            decide(&mut ctrl, &layout, &obs, 5),
            PhaseDecision::Control(standard::phase_id(3))
        );
    }

    #[test]
    fn empty_intersection_settles_without_thrashing() {
        let layout = layout();
        let obs = QueueObservation::zeros(&layout);
        let mut ctrl = UtilBp::paper();
        let first = decide(&mut ctrl, &layout, &obs, 0);
        // All gains are α; Line 10 picks a deterministic phase.
        let PhaseDecision::Control(p) = first else {
            panic!("expected a control phase, got {first}");
        };
        // And it must stick with it on subsequent ticks (tie prefers the
        // current phase), never inserting ambers while nothing changes.
        for k in 1..50 {
            assert_eq!(
                decide(&mut ctrl, &layout, &obs, k),
                PhaseDecision::Control(p)
            );
        }
    }

    #[test]
    fn full_outgoing_roads_cut_the_phase_short() {
        let layout = layout();
        let mut obs = QueueObservation::zeros(&layout);
        let ns = standard::link_id(Approach::North, Turn::Straight);
        let nl = standard::link_id(Approach::North, Turn::Left);
        obs.set_movement(ns, 20);
        obs.set_movement(nl, 10);
        let mut ctrl = UtilBp::paper();
        assert_eq!(
            decide(&mut ctrl, &layout, &obs, 0),
            PhaseDecision::Control(standard::phase_id(1))
        );

        // The two exits used by the loaded north approach fill to capacity
        // (south and east arms); queues remain but every c1 link now gains
        // β or α. c4 (east-west right turns) still has a servable vehicle
        // exiting toward the open north arm.
        obs.set_outgoing(layout.link(ns).to(), 120);
        obs.set_outgoing(layout.link(nl).to(), 120);
        obs.set_movement(standard::link_id(Approach::East, Turn::Right), 3);
        let d = decide(&mut ctrl, &layout, &obs, 1);
        assert_eq!(
            d,
            PhaseDecision::Transition,
            "a blocked phase must be abandoned within one mini-slot"
        );
    }

    #[test]
    fn fully_blocked_junction_keeps_current_phase() {
        // When *every* exit of the junction is full, no phase can guarantee
        // utilization; Line 10 picks the best link gain and the tie rule
        // keeps the current phase — at most one mini-slot is wasted, and no
        // amber is churned while the neighbors drain.
        let layout = layout();
        let mut obs = QueueObservation::zeros(&layout);
        let ns = standard::link_id(Approach::North, Turn::Straight);
        obs.set_movement(ns, 20);
        let mut ctrl = UtilBp::paper();
        assert_eq!(
            decide(&mut ctrl, &layout, &obs, 0),
            PhaseDecision::Control(standard::phase_id(1))
        );
        for o in layout.outgoing_ids() {
            obs.set_outgoing(o, 120);
        }
        for k in 1..10 {
            assert_eq!(
                decide(&mut ctrl, &layout, &obs, k),
                PhaseDecision::Control(standard::phase_id(1)),
                "no amber churn while fully blocked (k={k})"
            );
        }
    }

    #[test]
    fn case3_prefers_guaranteed_utilization_over_raw_gain() {
        let layout = layout();
        let mut obs = QueueObservation::zeros(&layout);
        // c1's best link is blocked (full outgoing) but c1 has a huge queue;
        // c4 can actually serve one vehicle.
        let ns = standard::link_id(Approach::North, Turn::Straight);
        obs.set_movement(ns, 100);
        obs.set_outgoing(layout.link(ns).to(), 120);
        let er = standard::link_id(Approach::East, Turn::Right);
        obs.set_movement(er, 1);

        let mut ctrl = UtilBp::paper();
        let d = decide(&mut ctrl, &layout, &obs, 0);
        assert_eq!(
            d,
            PhaseDecision::Control(standard::phase_id(4)),
            "the only phase with g_max > α must win"
        );
    }

    #[test]
    fn all_blocked_falls_back_to_best_link_gain() {
        let layout = layout();
        let mut obs = QueueObservation::zeros(&layout);
        // Every outgoing road full, all movement queues loaded: every link
        // gains β, so Line 10 applies and a control phase is still chosen
        // (no amber churn while blocked).
        for l in layout.link_ids() {
            obs.set_movement(l, 10);
        }
        for o in layout.outgoing_ids() {
            obs.set_outgoing(o, 120);
        }
        let mut ctrl = UtilBp::paper();
        let d = decide(&mut ctrl, &layout, &obs, 0);
        assert!(d.phase().is_some());
        // Stays put afterwards (ties prefer current).
        let d2 = decide(&mut ctrl, &layout, &obs, 1);
        assert_eq!(d, d2);
    }

    #[test]
    fn no_hysteresis_ablation_reevaluates_every_slot() {
        let layout = layout();
        let mut obs = QueueObservation::zeros(&layout);
        let ns = standard::link_id(Approach::North, Turn::Straight);
        let ew = standard::link_id(Approach::East, Turn::Straight);
        obs.set_movement(ns, 10);
        obs.set_movement(ew, 9);

        let mut ctrl = UtilBp::new(UtilBpConfig {
            g_star: GStarPolicy::AlwaysReevaluate,
            ..UtilBpConfig::default()
        });
        assert_eq!(ctrl.name(), "util-bp/no-hysteresis");
        assert_eq!(
            decide(&mut ctrl, &layout, &obs, 0),
            PhaseDecision::Control(standard::phase_id(1))
        );
        // The east queue overtakes: with no hysteresis the controller
        // immediately pays an amber to chase it.
        obs.set_movement(ew, 11);
        assert_eq!(
            decide(&mut ctrl, &layout, &obs, 1),
            PhaseDecision::Transition
        );

        // The paper controller would have kept c1 (its pressure difference
        // is still positive).
        let mut paper = UtilBp::paper();
        let mut obs2 = QueueObservation::zeros(&layout);
        obs2.set_movement(ns, 10);
        obs2.set_movement(ew, 9);
        assert_eq!(
            decide(&mut paper, &layout, &obs2, 0),
            PhaseDecision::Control(standard::phase_id(1))
        );
        obs2.set_movement(ew, 11);
        assert_eq!(
            decide(&mut paper, &layout, &obs2, 1),
            PhaseDecision::Control(standard::phase_id(1))
        );
    }

    #[test]
    fn reset_restores_initial_state() {
        let layout = layout();
        let mut obs = QueueObservation::zeros(&layout);
        obs.set_movement(standard::link_id(Approach::North, Turn::Straight), 5);
        let mut ctrl = UtilBp::paper();
        let first = decide(&mut ctrl, &layout, &obs, 0);
        let _ = decide(&mut ctrl, &layout, &obs, 1);
        ctrl.reset();
        assert_eq!(ctrl.previous_decision(), PhaseDecision::Transition);
        assert_eq!(decide(&mut ctrl, &layout, &obs, 100), first);
    }

    #[test]
    fn phase_scores_expose_eq10_eq11() {
        let layout = layout();
        let mut obs = QueueObservation::zeros(&layout);
        let ns = standard::link_id(Approach::North, Turn::Straight);
        obs.set_movement(ns, 10);
        let ctrl = UtilBp::paper();
        let view = IntersectionView::new(&layout, &obs).unwrap();
        let scores = ctrl.phase_scores(&view);
        assert_eq!(scores.len(), 4);
        let c1 = &scores[0];
        assert_eq!(c1.argmax, ns);
        assert_eq!(c1.max, 130.0); // (10 − 0 + 120)·1
                                   // total = 130 + 3·α (three empty links in c1)
        assert_eq!(c1.total, 130.0 - 3.0);
        // c2 has two empty links → total 2α, max α.
        assert_eq!(scores[1].total, -2.0);
        assert_eq!(scores[1].max, -1.0);
    }

    fn saved(ctrl: &UtilBp) -> Vec<u8> {
        let mut w = crate::state::StateWriter::new();
        ctrl.save_state(&mut w);
        w.bytes().to_vec()
    }

    /// The contract behind the decide phase's skip: whenever the
    /// controller reports itself at rest, a repeat call on the same view,
    /// at any later tick, returns the same decision and leaves every
    /// state word as it was. Checked on seeded random observation
    /// sequences with deliberate repeats, under every gain mode and `g*`
    /// policy.
    #[test]
    fn a_controller_at_rest_repeats_its_decision_on_unchanged_readings() {
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        let mut next = move |n: u64| {
            // SplitMix64.
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) % n
        };
        // A small capacity so outgoing roads fill and the α/β cases of
        // Eq. 8 occur next to ordinary gains.
        let layout = standard::four_way(12, 1.0);
        let modes = [
            GainMode::UtilizationAware,
            GainMode::PlainModified,
            GainMode::PerRoadPressure,
        ];
        let policies = [
            GStarPolicy::MaxLinkCapacityRate,
            GStarPolicy::AlwaysReevaluate,
        ];
        for gain_mode in modes {
            for g_star in policies {
                let mut ctrl = UtilBp::new(UtilBpConfig {
                    gain_mode,
                    g_star,
                    ..UtilBpConfig::default()
                });
                let mut obs = QueueObservation::zeros(&layout);
                let (mut rests, mut ambers) = (0, 0);
                for k in 0..4000 {
                    // Half the ticks repeat the last observation; the rest
                    // change one to three readings.
                    if next(2) == 0 {
                        for _ in 0..=next(3) {
                            if next(3) == 0 {
                                let o = crate::OutgoingId::new(next(4) as u8);
                                obs.set_outgoing(o, next(13) as u32);
                            } else {
                                let l = crate::LinkId::new(next(12) as u16);
                                obs.set_movement(l, next(6) as u32);
                            }
                        }
                    }
                    let view = IntersectionView::new(&layout, &obs).unwrap();
                    let decision = ctrl.decide(&view, Tick::new(k));
                    ambers += usize::from(decision.is_transition());
                    if !ctrl.holds_on_unchanged() {
                        continue;
                    }
                    rests += 1;
                    let mut repeat = ctrl.clone();
                    let later = Tick::new(k + next(50));
                    assert_eq!(
                        repeat.decide(&view, later),
                        decision,
                        "{gain_mode:?}/{g_star:?} at k={k}"
                    );
                    assert_eq!(
                        saved(&repeat),
                        saved(&ctrl),
                        "{gain_mode:?}/{g_star:?} at k={k}"
                    );
                }
                assert!(
                    rests > 500 && ambers > 100,
                    "{gain_mode:?}/{g_star:?}: {rests} rests, {ambers} ambers"
                );
            }
        }
    }

    #[test]
    fn only_a_control_phase_is_at_rest_and_reset_wakes_it() {
        let layout = layout();
        let mut obs = QueueObservation::zeros(&layout);
        obs.set_movement(standard::link_id(Approach::North, Turn::Straight), 5);
        let mut ctrl = UtilBp::paper();
        assert!(!ctrl.holds_on_unchanged(), "a fresh controller selects");
        decide(&mut ctrl, &layout, &obs, 0);
        assert!(ctrl.holds_on_unchanged());
        obs.set_movement(standard::link_id(Approach::North, Turn::Straight), 0);
        obs.set_movement(standard::link_id(Approach::East, Turn::Straight), 9);
        assert_eq!(
            decide(&mut ctrl, &layout, &obs, 1),
            PhaseDecision::Transition
        );
        assert!(!ctrl.holds_on_unchanged(), "an amber runs on the clock");
        ctrl.reset();
        assert!(!ctrl.holds_on_unchanged());
    }

    #[test]
    fn default_config_matches_paper_section_v() {
        let config = UtilBpConfig::default();
        assert_eq!(config.penalties.alpha(), -1.0);
        assert_eq!(config.penalties.beta(), -2.0);
        assert_eq!(config.transition, Ticks::new(4));
        assert_eq!(config.g_star, GStarPolicy::MaxLinkCapacityRate);
        assert_eq!(config.gain_mode, GainMode::UtilizationAware);
    }

    #[test]
    fn restored_phase_outside_the_layout_fails_the_state_check() {
        let layout = layout();
        let mut ctrl = UtilBp::paper();
        for (phase, ok) in [
            (layout.num_phases() - 1, true),
            (layout.num_phases(), false),
        ] {
            let decision = PhaseDecision::Control(PhaseId::new(phase as u8));
            let mut w = crate::state::StateWriter::new();
            [decision.state_word(), 0]
                .into_iter()
                .for_each(|word| w.push(word));
            ctrl.load_state(&mut crate::state::StateReader::new(w.bytes()))
                .unwrap();
            assert_eq!(ctrl.check_state(&layout).is_ok(), ok, "phase {phase}");
        }
    }
}
