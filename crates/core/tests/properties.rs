//! Property-based tests of the core model and Algorithm 1.

use proptest::prelude::*;
use utilbp_core::{
    pressure, standard, GStarPolicy, GainMode, GainPenalties, IntersectionLayout, IntersectionView,
    LinkId, PhaseDecision, PhaseId, PhaseScore, QueueObservation, SignalController, Tick, Ticks,
    UtilBp, UtilBpConfig,
};

const W: u32 = 120;

/// A random observation for the standard four-way layout.
fn observation_strategy() -> impl Strategy<Value = (Vec<u32>, Vec<u32>)> {
    (
        proptest::collection::vec(0u32..=40, 12),
        proptest::collection::vec(0u32..=W, 4),
    )
}

fn build_view(
    layout: &utilbp_core::IntersectionLayout,
    movements: &[u32],
    outgoing: &[u32],
) -> QueueObservation {
    let mut obs = QueueObservation::zeros(layout);
    for (i, &q) in movements.iter().enumerate() {
        obs.set_movement(utilbp_core::LinkId::new(i as u16), q);
    }
    for (i, &q) in outgoing.iter().enumerate() {
        obs.set_outgoing(utilbp_core::OutgoingId::new(i as u8), q);
    }
    obs
}

/// The phase a ranking of `pool` (key, phase) picks: the highest key,
/// the current phase among equals, else the first in table order.
fn best(pool: impl Iterator<Item = (f64, PhaseId)>, current: Option<PhaseId>) -> Option<PhaseId> {
    let pool: Vec<(f64, PhaseId)> = pool.collect();
    let top = pool.iter().map(|p| p.0).fold(f64::NEG_INFINITY, f64::max);
    let tied: Vec<PhaseId> = pool.iter().filter(|p| p.0 == top).map(|p| p.1).collect();
    match current {
        Some(c) if tied.contains(&c) => Some(c),
        _ => tied.first().copied(),
    }
}

/// Algorithm 1's Case 3 choice, read off a [`UtilBp::phase_scores`]
/// table: the utilizable phases (`g_max > α`) by total gain, else every
/// phase by `g_max`.
fn ranked(scores: &[PhaseScore], current: Option<PhaseId>) -> PhaseId {
    let alpha = GainPenalties::PAPER.alpha();
    let utilizable = scores.iter().filter(|s| s.max > alpha);
    best(utilizable.map(|s| (s.total, s.phase)), current)
        .or_else(|| best(scores.iter().map(|s| (s.max, s.phase)), current))
        .expect("a layout has phases")
}

proptest! {
    /// Whatever a builder is given, the flat layout hands back exactly
    /// that: each phase's links, each road's departing links in link
    /// order, and each link's record with its exit's capacity.
    #[test]
    fn flat_layout_returns_what_was_added(
        incoming in 1usize..=6,
        capacities in proptest::collection::vec(1u32..=200, 1..=6),
        raw_links in proptest::collection::vec((0usize..6, 0usize..6, 0.1f64..4.0), 1..=24),
        raw_phases in proptest::collection::vec(
            proptest::collection::vec(0usize..24, 1..=8),
            1..=8,
        ),
    ) {
        let mut b = IntersectionLayout::builder();
        let arms: Vec<_> = (0..incoming).map(|_| b.add_incoming()).collect();
        let exits: Vec<_> = capacities.iter().map(|&w| b.add_outgoing(w)).collect();
        let mut links = Vec::new();
        for (f, t, mu) in raw_links {
            let (from, to) = (arms[f % arms.len()], exits[t % exits.len()]);
            if !links.iter().any(|&(a, o, _)| (a, o) == (from, to)) {
                prop_assert_eq!(b.add_link(from, to, mu), LinkId::new(links.len() as u16));
                links.push((from, to, mu));
            }
        }
        let mut phases = Vec::new();
        for raw in raw_phases {
            let mut phase: Vec<LinkId> = Vec::new();
            for r in raw {
                let l = LinkId::new((r % links.len()) as u16);
                if !phase.contains(&l) {
                    phase.push(l);
                }
            }
            b.add_phase(&phase);
            phases.push(phase);
        }
        let layout = b.build().expect("valid inputs build");

        prop_assert_eq!(layout.num_incoming(), incoming);
        prop_assert_eq!(layout.num_outgoing(), capacities.len());
        prop_assert_eq!(layout.num_links(), links.len());
        prop_assert_eq!(layout.num_phases(), phases.len());
        for (j, phase) in phases.iter().enumerate() {
            prop_assert_eq!(layout.phase(PhaseId::new(j as u8)), phase.as_slice());
        }
        for (n, &(from, to, mu)) in links.iter().enumerate() {
            let link = layout.link(LinkId::new(n as u16));
            prop_assert_eq!((link.from(), link.to(), link.service_rate()), (from, to, mu));
            prop_assert_eq!(link.capacity(), capacities[to.index()]);
            prop_assert_eq!(layout.capacity(to), capacities[to.index()]);
        }
        for &arm in &arms {
            let departing: Vec<LinkId> = (0..links.len())
                .filter(|&n| links[n].0 == arm)
                .map(|n| LinkId::new(n as u16))
                .collect();
            prop_assert_eq!(layout.links_from(arm), departing.as_slice());
        }
    }

    /// Eq. 8's three cases are mutually exclusive and exhaustive, and the
    /// ordinary case is always strictly better than both penalties.
    #[test]
    fn util_gain_case_analysis((q_in, q_out) in (0u32..=200, 0u32..=200)) {
        let p = GainPenalties::PAPER;
        let g = pressure::util_link_gain(q_in, q_out.min(W), W, W, 1.0, p);
        if q_out.min(W) >= W {
            prop_assert_eq!(g, p.beta());
        } else if q_in == 0 {
            prop_assert_eq!(g, p.alpha());
        } else {
            prop_assert!(g > 0.0, "ordinary gain must be positive, got {}", g);
            prop_assert!(g > p.alpha());
            prop_assert!(g > p.beta());
        }
    }

    /// The ordinary gain is monotone: more upstream queue never lowers it,
    /// more downstream occupancy never raises it.
    #[test]
    fn util_gain_monotonicity(q_in in 1u32..=40, q_out in 0u32..W - 1, bump in 1u32..=10) {
        let p = GainPenalties::PAPER;
        let base = pressure::util_link_gain(q_in, q_out, W, W, 1.0, p);
        let more_up = pressure::util_link_gain(q_in + bump, q_out, W, W, 1.0, p);
        prop_assert!(more_up >= base);
        let more_down =
            pressure::util_link_gain(q_in, (q_out + bump).min(W - 1), W, W, 1.0, p);
        prop_assert!(more_down <= base);
    }

    /// The original gain (Eq. 5) is never negative and is zero whenever
    /// downstream dominates upstream.
    #[test]
    fn original_gain_sign(q_in in 0u32..=200, q_out in 0u32..=200, mu in 0.1f64..4.0) {
        let g = pressure::original_link_gain(q_in, q_out, mu);
        prop_assert!(g >= 0.0);
        if q_out >= q_in {
            prop_assert_eq!(g, 0.0);
        } else {
            prop_assert!((g - (q_in - q_out) as f64 * mu).abs() < 1e-9);
        }
    }

    /// Whatever the observation, the controller returns either a valid
    /// phase of the layout or a transition — never junk, never a panic.
    #[test]
    fn decide_is_total((movements, outgoing) in observation_strategy()) {
        let layout = standard::four_way(W, 1.0);
        let obs = build_view(&layout, &movements, &outgoing);
        let mut ctrl = UtilBp::paper();
        let view = IntersectionView::new(&layout, &obs).unwrap();
        match ctrl.decide(&view, Tick::ZERO) {
            PhaseDecision::Control(p) => prop_assert!(p.index() < layout.num_phases()),
            PhaseDecision::Transition => {}
        }
    }

    /// Single-instant work conservation: if any link is servable, the
    /// phase UTIL-BP picks from a cold start has at least one servable
    /// link.
    #[test]
    fn first_decision_is_work_conserving((movements, outgoing) in observation_strategy()) {
        let layout = standard::four_way(W, 1.0);
        let obs = build_view(&layout, &movements, &outgoing);
        let view = IntersectionView::new(&layout, &obs).unwrap();
        let any_servable = layout.link_ids().any(|l| view.link_servable(l));
        let mut ctrl = UtilBp::paper();
        let decision = ctrl.decide(&view, Tick::ZERO);
        if any_servable {
            let PhaseDecision::Control(p) = decision else {
                return Err(TestCaseError::fail("cold start must not transition"));
            };
            let serves = layout.phase(p).iter().any(|&l| view.link_servable(l));
            prop_assert!(serves, "picked {p} which serves nothing");
        }
    }

    /// Every amber the controller starts lasts exactly `∆k` ticks, and is
    /// followed by a control phase.
    #[test]
    fn transitions_last_exactly_delta_k(
        seq in proptest::collection::vec(observation_strategy(), 3..20),
        delta in 1u64..=6,
    ) {
        let layout = standard::four_way(W, 1.0);
        let mut ctrl = UtilBp::new(UtilBpConfig {
            transition: Ticks::new(delta),
            ..UtilBpConfig::default()
        });
        let mut k = 0u64;
        let mut amber_run = 0u64;
        for (movements, outgoing) in seq {
            // Hold each observation for enough ticks to cross an amber.
            let obs = build_view(&layout, &movements, &outgoing);
            for _ in 0..=delta {
                let view = IntersectionView::new(&layout, &obs).unwrap();
                match ctrl.decide(&view, Tick::new(k)) {
                    PhaseDecision::Transition => amber_run += 1,
                    PhaseDecision::Control(_) => {
                        if amber_run > 0 {
                            prop_assert_eq!(
                                amber_run, delta,
                                "amber must last exactly ∆k"
                            );
                        }
                        amber_run = 0;
                    }
                }
                k += 1;
            }
        }
    }

    /// The controller is a pure function of its state and inputs: two
    /// instances fed the same sequence agree tick by tick.
    #[test]
    fn controller_is_deterministic(
        seq in proptest::collection::vec(observation_strategy(), 1..30),
    ) {
        let layout = standard::four_way(W, 1.0);
        let mut a = UtilBp::paper();
        let mut b = UtilBp::paper();
        for (k, (movements, outgoing)) in seq.into_iter().enumerate() {
            let obs = build_view(&layout, &movements, &outgoing);
            let view = IntersectionView::new(&layout, &obs).unwrap();
            let view2 = IntersectionView::new(&layout, &obs).unwrap();
            prop_assert_eq!(
                a.decide(&view, Tick::new(k as u64)),
                b.decide(&view2, Tick::new(k as u64))
            );
        }
    }

    /// Incoming totals (Eq. 1) always equal the sum of the movement
    /// queues, for any observation.
    #[test]
    fn eq1_total_is_movement_sum((movements, outgoing) in observation_strategy()) {
        let layout = standard::four_way(W, 1.0);
        let obs = build_view(&layout, &movements, &outgoing);
        let view = IntersectionView::new(&layout, &obs).unwrap();
        for arm in layout.incoming_ids() {
            let expected: u32 = layout
                .links_from(arm)
                .iter()
                .map(|&l| obs.movement(l))
                .sum();
            prop_assert_eq!(view.incoming_total(arm), expected);
        }
    }

    /// Phase scores (Eq. 10/11) are consistent: the max never exceeds the
    /// total minus the other links' minimum contributions, and the argmax
    /// link is a member of the phase.
    #[test]
    fn phase_scores_are_consistent((movements, outgoing) in observation_strategy()) {
        let layout = standard::four_way(W, 1.0);
        let obs = build_view(&layout, &movements, &outgoing);
        let view = IntersectionView::new(&layout, &obs).unwrap();
        let ctrl = UtilBp::paper();
        for score in ctrl.phase_scores(&view) {
            let links = layout.phase(score.phase);
            prop_assert!(links.contains(&score.argmax));
            let manual_total: f64 = links
                .iter()
                .map(|&l| pressure::link_gain(&view, l, GainPenalties::PAPER))
                .sum();
            prop_assert!((score.total - manual_total).abs() < 1e-9);
            let manual_max = links
                .iter()
                .map(|&l| pressure::link_gain(&view, l, GainPenalties::PAPER))
                .fold(f64::NEG_INFINITY, f64::max);
            prop_assert!((score.max - manual_max).abs() < 1e-9);
        }
    }

    /// Under every gain mode and `g*` policy, the decisions are the ones
    /// a ranking of the [`UtilBp::phase_scores`] table implies: from a
    /// cold start Case 3's pick, and on the next tick Case 2's keep
    /// (`g_max > g*`, with `g* = W*·µ` of the phase's best link) or
    /// Case 3's pick, through an amber when it differs.
    #[test]
    fn decisions_follow_the_phase_score_ranking(
        (first, second) in (observation_strategy(), observation_strategy()),
    ) {
        let layout = standard::four_way(W, 1.0);
        let obs1 = build_view(&layout, &first.0, &first.1);
        let obs2 = build_view(&layout, &second.0, &second.1);
        let view1 = IntersectionView::new(&layout, &obs1).unwrap();
        let view2 = IntersectionView::new(&layout, &obs2).unwrap();
        for gain_mode in [GainMode::UtilizationAware, GainMode::PlainModified, GainMode::PerRoadPressure] {
            for g_star in [GStarPolicy::MaxLinkCapacityRate, GStarPolicy::AlwaysReevaluate] {
                let mut ctrl = UtilBp::new(UtilBpConfig { gain_mode, g_star, ..UtilBpConfig::default() });
                let picked = ranked(&ctrl.phase_scores(&view1), None);
                prop_assert_eq!(ctrl.decide(&view1, Tick::ZERO), PhaseDecision::Control(picked));

                let scores = ctrl.phase_scores(&view2);
                let current = scores[picked.index()];
                let threshold = match g_star {
                    GStarPolicy::MaxLinkCapacityRate => {
                        W as f64 * layout.link(current.argmax).service_rate()
                    }
                    GStarPolicy::AlwaysReevaluate => f64::INFINITY,
                };
                let keeps = current.max > threshold || ranked(&scores, Some(picked)) == picked;
                let expected = if keeps {
                    PhaseDecision::Control(picked)
                } else {
                    PhaseDecision::Transition
                };
                prop_assert_eq!(
                    ctrl.decide(&view2, Tick::new(1)),
                    expected,
                    "{:?} / {:?}",
                    gain_mode,
                    g_star
                );
            }
        }
    }
}
