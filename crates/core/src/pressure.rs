//! Pressures and link gains (Section III-A of the paper).
//!
//! Back-pressure control maps queue lengths to pressures through `b = f(q)`
//! (Eq. 4, with `f` the identity in the paper) and ranks links by a *gain*:
//!
//! - [`original_link_gain`] — Eq. 5, the classic gain
//!   `g_o = max(0, (b_i − b_{i'})·µ)` with the *whole-road* incoming
//!   pressure `b_i`;
//! - `modified_link_gain` — Eq. 6, the paper's per-movement gain
//!   `g = (b_i^{i'} − b_{i'} + W*)·µ`, always positive in the ordinary
//!   case so negative pressure differences still permit flow;
//! - [`util_link_gain`] — Eq. 8, Eq. 6 refined with the two special
//!   scenarios: gain `β` when the outgoing road is full and `α` when the
//!   movement queue is empty (with `β < α < 0` by default, Eq. 9).
//!
//! The phase-level aggregates `g(c_j,k)` (Eq. 10) and `g_max(c_j,k)`
//! (Eq. 11) are computed where [`UtilBp`](crate::UtilBp) ranks phases,
//! under its configured gain mode.

use crate::ids::LinkId;
use crate::observation::IntersectionView;

/// The pressure mapping `b = f(q)` (Eq. 4). The paper takes `f` to be the
/// identity; the indirection is kept so alternative mappings stay one edit
/// away.
#[inline]
pub(crate) fn pressure(queue: u32) -> f64 {
    queue as f64
}

/// The `α`/`β` penalties of the utilization-aware gain (Eq. 8) and their
/// validity rule (Eq. 9).
///
/// `β` is the gain of a link whose outgoing road is full; `α` the gain of a
/// link whose movement queue is empty (with room downstream). Both must be
/// negative so they rank below any link that guarantees flow. The paper
/// defaults to `β < α` but notes the order may be reversed by a traffic
/// authority's preference, so only negativity is enforced.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GainPenalties {
    alpha: f64,
    beta: f64,
}

impl GainPenalties {
    /// The paper's experimental values: `α = −1`, `β = −2`.
    pub const PAPER: GainPenalties = GainPenalties {
        alpha: -1.0,
        beta: -2.0,
    };

    /// Creates penalties, validating Eq. 9's negativity requirement.
    ///
    /// # Errors
    ///
    /// Returns [`PenaltyError`] if either value is not strictly negative and
    /// finite.
    pub fn new(alpha: f64, beta: f64) -> Result<Self, PenaltyError> {
        if !(alpha.is_finite() && alpha < 0.0) {
            return Err(PenaltyError {
                name: "alpha",
                value: alpha,
            });
        }
        if !(beta.is_finite() && beta < 0.0) {
            return Err(PenaltyError {
                name: "beta",
                value: beta,
            });
        }
        Ok(GainPenalties { alpha, beta })
    }

    /// The empty-incoming penalty `α`.
    pub const fn alpha(self) -> f64 {
        self.alpha
    }

    /// The full-outgoing penalty `β`.
    pub const fn beta(self) -> f64 {
        self.beta
    }
}

impl Default for GainPenalties {
    fn default() -> Self {
        GainPenalties::PAPER
    }
}

/// Error returned by [`GainPenalties::new`] for non-negative penalties.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PenaltyError {
    name: &'static str,
    value: f64,
}

impl std::fmt::Display for PenaltyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "penalty {} = {} must be strictly negative and finite (Eq. 9)",
            self.name, self.value
        )
    }
}

impl std::error::Error for PenaltyError {}

/// Eq. 5 — the original back-pressure link gain
/// `g_o(L_i^{i'}, k) = max(0, (b_i(k) − b_{i'}(k))·µ_i^{i'})`.
///
/// `q_in_road` is the *total* queue at the incoming road (Eq. 1), not the
/// per-movement queue; obliviousness to the split across movements is one of
/// the shortcomings the paper's modified gain addresses.
#[inline]
pub fn original_link_gain(q_in_road: u32, q_out: u32, mu: f64) -> f64 {
    ((pressure(q_in_road) - pressure(q_out)) * mu).max(0.0)
}

/// Eq. 6 — the paper's modified link gain
/// `g(L_i^{i'}, k) = (b_i^{i'}(k) − b_{i'}(k) + W*)·µ_i^{i'}`.
///
/// Differences from Eq. 5: the incoming pressure counts only the movement
/// queue that would actually use the link, and the additive `W*` keeps the
/// parenthesized term positive so links with negative pressure difference
/// can still be ranked (and served).
#[inline]
pub(crate) fn modified_link_gain(q_in_movement: u32, q_out: u32, w_star: u32, mu: f64) -> f64 {
    (pressure(q_in_movement) - pressure(q_out) + w_star as f64) * mu
}

/// Eq. 8 — the utilization-aware link gain.
///
/// Returns `β` if the outgoing road is full (`q_out = W_out`), `α` if the
/// outgoing road has room but the movement queue is empty, and the modified
/// gain of Eq. 6 otherwise.
#[inline]
pub fn util_link_gain(
    q_in_movement: u32,
    q_out: u32,
    w_out: u32,
    w_star: u32,
    mu: f64,
    penalties: GainPenalties,
) -> f64 {
    if q_out >= w_out {
        penalties.beta
    } else if q_in_movement == 0 {
        penalties.alpha
    } else {
        modified_link_gain(q_in_movement, q_out, w_star, mu)
    }
}

/// The utilization-aware gain (Eq. 8) of one link in a live intersection
/// view.
pub fn link_gain(view: &IntersectionView<'_>, link: LinkId, penalties: GainPenalties) -> f64 {
    let layout = view.layout();
    let l = layout.link(link);
    util_link_gain(
        view.movement_queue(link),
        view.outgoing_occupancy(l.to()),
        l.capacity(),
        layout.max_capacity(),
        l.service_rate(),
        penalties,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn penalties_enforce_negativity() {
        assert!(GainPenalties::new(-1.0, -2.0).is_ok());
        assert!(GainPenalties::new(0.0, -2.0).is_err());
        assert!(GainPenalties::new(-1.0, 0.5).is_err());
        assert!(GainPenalties::new(f64::NAN, -1.0).is_err());
        let err = GainPenalties::new(0.0, -1.0).unwrap_err();
        assert!(err.to_string().contains("alpha"));
    }

    #[test]
    fn paper_penalties_match_section_v() {
        let p = GainPenalties::PAPER;
        assert_eq!(p.alpha(), -1.0);
        assert_eq!(p.beta(), -2.0);
        assert_eq!(GainPenalties::default(), p);
    }

    #[test]
    fn original_gain_clamps_at_zero() {
        assert_eq!(original_link_gain(10, 4, 1.0), 6.0);
        assert_eq!(original_link_gain(4, 10, 1.0), 0.0, "negative difference");
        assert_eq!(original_link_gain(5, 5, 2.0), 0.0, "balanced queues");
        assert_eq!(original_link_gain(10, 0, 0.5), 5.0, "scaled by µ");
    }

    #[test]
    fn modified_gain_allows_negative_pressure_difference() {
        // q_in=2, q_out=10, W*=120: difference is −8 but the gain stays
        // positive, so the link can still be ranked for service.
        let g = modified_link_gain(2, 10, 120, 1.0);
        assert_eq!(g, (2.0 - 10.0 + 120.0));
        assert!(g > 0.0);
    }

    #[test]
    fn modified_gain_orders_by_pressure_difference_and_rate() {
        let base = modified_link_gain(5, 5, 120, 1.0);
        assert!(
            modified_link_gain(9, 5, 120, 1.0) > base,
            "longer queue wins"
        );
        assert!(
            modified_link_gain(5, 9, 120, 1.0) < base,
            "fuller exit loses"
        );
        assert!(
            modified_link_gain(5, 5, 120, 2.0) > base,
            "faster link wins"
        );
    }

    #[test]
    fn util_gain_special_cases_match_eq8() {
        let p = GainPenalties::PAPER;
        // Full outgoing road → β, regardless of the incoming queue.
        assert_eq!(util_link_gain(50, 120, 120, 120, 1.0, p), -2.0);
        assert_eq!(util_link_gain(0, 120, 120, 120, 1.0, p), -2.0);
        // Empty movement queue with room downstream → α.
        assert_eq!(util_link_gain(0, 3, 120, 120, 1.0, p), -1.0);
        // Ordinary case → Eq. 6.
        assert_eq!(
            util_link_gain(7, 3, 120, 120, 1.0, p),
            modified_link_gain(7, 3, 120, 1.0)
        );
    }

    #[test]
    fn util_gain_full_beats_empty_in_badness() {
        // β < α: a full exit ranks below an empty approach by default.
        let p = GainPenalties::PAPER;
        let full = util_link_gain(10, 120, 120, 120, 1.0, p);
        let empty = util_link_gain(0, 10, 120, 120, 1.0, p);
        assert!(full < empty);
        assert!(empty < 0.0);
    }

    #[test]
    fn ordinary_gain_always_exceeds_penalties() {
        // With W* ≥ W_out and q_out < W_out, Eq. 6 gives
        // (q_in − q_out + W*)µ ≥ (1 − (W_out − 1) + W*)µ ≥ 2µ > 0 > α > β.
        let p = GainPenalties::PAPER;
        for q_in in 1..=120u32 {
            for q_out in 0..120u32 {
                let g = util_link_gain(q_in, q_out, 120, 120, 1.0, p);
                assert!(g > 0.0, "q_in={q_in} q_out={q_out} gave {g}");
            }
        }
    }

    #[test]
    fn pressure_is_identity_per_eq4() {
        for q in [0u32, 1, 7, 120] {
            assert_eq!(pressure(q), q as f64);
        }
    }
}
