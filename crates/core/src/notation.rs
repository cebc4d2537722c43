//! Paper-to-API notation map (documentation only).
//!
//! The reproduction follows the paper's notation closely; this page is
//! the dictionary between the symbols of *Chang et al., DATE 2020* and the
//! items of this workspace.
//!
//! # Section II — system model
//!
//! | Paper | Meaning | API |
//! |---|---|---|
//! | `N_i ∈ N_I` | incoming road | [`IncomingId`](crate::IncomingId) |
//! | `N_{i'} ∈ N_O` | outgoing road | [`OutgoingId`](crate::OutgoingId) |
//! | `L_i^{i'} ∈ L` | feasible link (turning movement) | [`LinkId`](crate::LinkId), [`Link`](crate::Link) |
//! | `c_j ∈ C` | control phase | [`PhaseId`](crate::PhaseId), [`IntersectionLayout::phase`](crate::IntersectionLayout::phase) |
//! | `c_0 = ∅` | transition (amber) phase | [`PhaseDecision::Transition`](crate::PhaseDecision::Transition) |
//! | `k` | discrete time instant (mini-slot) | [`Tick`](crate::Tick) |
//! | `∆k` | transition duration | [`UtilBpConfig::transition`](crate::UtilBpConfig) |
//! | `q_i^{i'}(k)` | per-movement queue | [`QueueObservation::movement`](crate::QueueObservation::movement) |
//! | `q_i(k)` (Eq. 1) | total incoming queue | [`IntersectionView::incoming_total`](crate::IntersectionView::incoming_total) |
//! | `q_{i'}(k)` | outgoing road queue | [`QueueObservation::outgoing`](crate::QueueObservation::outgoing) |
//! | `W_i` | road capacity | [`IntersectionLayout::capacity`](crate::IntersectionLayout::capacity) |
//! | `W*` (Eq. 7) | max capacity | cached in [`IntersectionLayout`](crate::IntersectionLayout) at build time |
//! | `µ_i^{i'}` | max service rate | [`Link::service_rate`](crate::Link::service_rate) |
//! | `A_i^{i'}(k, k+1)` | exogenous arrivals | [`DemandGenerator::poll`](https://docs.rs/utilbp-netgen) (netgen crate) |
//! | `S_i^{i'}(k, k+1)` (Eq. 2) | served vehicles | `QueueSim::step` / `MicroSim::step` (simulator crates) |
//!
//! # Section III — controller
//!
//! | Paper | Meaning | API |
//! |---|---|---|
//! | `c(k) = φ(Q(k))` (Eq. 3) | state-feedback law | [`SignalController::decide`](crate::SignalController::decide) |
//! | `b = f(q)` (Eq. 4) | pressure mapping | `pressure::pressure` (crate-internal) |
//! | `g_o(L, k)` (Eq. 5) | original link gain | [`pressure::original_link_gain`](crate::pressure::original_link_gain) |
//! | `g(L, k)` (Eq. 6) | modified link gain | `pressure::modified_link_gain` (crate-internal) |
//! | `g(L, k)` (Eq. 8) | utilization-aware gain | [`pressure::util_link_gain`](crate::pressure::util_link_gain) |
//! | `α`, `β` (Eq. 9) | empty/full penalties | [`GainPenalties`](crate::GainPenalties) |
//! | `g(c_j, k)` (Eq. 10) | phase gain | summed where [`UtilBp`](crate::UtilBp) ranks phases |
//! | `g_max(c_j, k)` (Eq. 11) | best link gain | taken where [`UtilBp`](crate::UtilBp) ranks phases and tests Case 2 |
//! | `g*(k)` (Eq. 12) | keep-phase threshold | [`GStarPolicy`](crate::GStarPolicy) |
//! | Algorithm 1 | UTIL-BP | [`UtilBp`](crate::UtilBp) |
//!
//! # Section V — experiments
//!
//! Table I → `utilbp_netgen::TurningProbabilities::PAPER`; Table II →
//! `utilbp_netgen::Pattern`; the 3×3 network → `utilbp_netgen::GridSpec::paper()`;
//! CAP-BP → `utilbp_baselines::CapBp`; the figures/tables →
//! `utilbp_experiments` (see that crate's docs for the artifact table).
