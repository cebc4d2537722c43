//! En-route replanning: rewriting a vehicle's remaining route in
//! response to the live state of the network.
//!
//! A [`Replanner`] is built per routing-response pass (a closure event, a
//! reopening, or a periodic congestion check) over the current closure
//! mask — and, optionally, a per-road weight view of the live network
//! ([`Replanner::with_road_weights`]). For each vehicle it is shown (via
//! the substrate layer's route-cursor walk), it derives the road sequence
//! of the remaining journey and proposes a rewrite of the uncommitted
//! suffix:
//!
//! - [`replan`](Replanner::replan) diverts journeys that would enter a
//!   *closed* road, splicing the best-weighted open detour (enumerated
//!   with [`enumerate_routes`] from the first uncommitted road) onto the
//!   preserved prefix.
//! - [`replan_congested`](Replanner::replan_congested) diverts journeys
//!   that would enter a *congested* road (a caller-supplied mask), with
//!   candidates scored through the road-weight view so the detour choice
//!   prefers emptier roads; candidates crossing a congested or closed
//!   road are never chosen, so a rerouted journey cannot be re-triggered
//!   while the congested set is unchanged.
//! - [`restore`](Replanner::restore) rewrites a previously diverted
//!   journey back when a *strictly* better open continuation exists (a
//!   reopened road un-dominates the original route) — the reopening
//!   counterpart of `replan`.
//!
//! Everything is deterministic: enumeration order is fixed by the
//! topology, the best option wins by (weighted) score with ties broken by
//! enumeration order, and no randomness is drawn — so replanning cannot
//! perturb the simulators' RNG streams, and repeat runs stay
//! bit-identical.

use std::collections::HashMap;
use std::sync::Arc;

use utilbp_core::standard::{self, Turn};
use utilbp_core::LinkId;
use utilbp_metrics::VehicleId;

use crate::network::enumerate_routes;
use crate::patterns::TurningProbabilities;
use crate::route::Route;
use crate::topology::{IntersectionId, NetworkTopology, RoadId};

/// The route-rewrite callback the substrate layer's route-cursor walk
/// hands each vehicle to: `(vehicle id, current route, committed leading
/// hops) -> optional replacement route`. A replacement must preserve
/// exactly the committed prefix and keep the same entry road.
pub type RouteRewrite<'a> = dyn FnMut(VehicleId, &Route, usize) -> Option<Arc<Route>> + 'a;

/// Default bound on non-straight movements in a detour suffix: rejoining
/// a grid route around one closed segment takes up to four turns
/// (off, around, back, re-align); three covers every detour that does
/// not re-cross the closure's row/column twice.
const DEFAULT_MAX_TURNS: usize = 3;

/// Hard cap on detour enumeration depth, independent of network size
/// (bounded-turn enumeration is exponential in the turn budget only, but
/// depth still multiplies the walk).
const MAX_HOPS_CAP: usize = 32;

/// A cached detour from one anchor road: the hops to splice, the roads
/// they traverse (anchor first), and the suffix's selection score (the
/// turning-model weight, multiplied through the road-weight view when one
/// is installed).
type SuffixPlan = (Vec<(IntersectionId, LinkId)>, Vec<RoadId>, f64);

/// Deterministic route-suffix planner for one closure event.
///
/// # Examples
///
/// ```
/// use utilbp_netgen::{GridNetwork, GridSpec, Network, Pattern, Replanner, TurningProbabilities};
///
/// let grid = GridNetwork::new(GridSpec::paper());
/// let net = Network::from_grid(&grid, Pattern::II);
/// let closed_road = net
///     .topology()
///     .road_ids()
///     .find(|&r| net.topology().road(r).is_internal())
///     .unwrap();
/// let mut closed = vec![false; net.topology().num_roads()];
/// closed[closed_road.index()] = true;
/// let mut planner = Replanner::new(net.topology(), &TurningProbabilities::PAPER, &closed);
///
/// // A route that enters the closed road beyond its committed first hop
/// // gets rewritten around it…
/// let through = (0..net.num_entries())
///     .flat_map(|e| net.route_options(e))
///     .find(|o| o.roads[2..].contains(&closed_road))
///     .expect("some option crosses the closed road late enough to divert");
/// let diverted = planner.replan(&through.route, 1).expect("an open detour exists");
/// assert_eq!(diverted.hops()[0], through.route.hops()[0], "committed hop preserved");
///
/// // …while a route that avoids it is left alone.
/// let clear = net
///     .route_options(0)
///     .iter()
///     .find(|o| !o.roads.contains(&closed_road))
///     .unwrap();
/// assert!(planner.replan(&clear.route, 1).is_none());
/// ```
pub struct Replanner<'a> {
    topology: &'a NetworkTopology,
    turning: &'a TurningProbabilities,
    closed: &'a [bool],
    /// Optional per-road multiplicative weight view (a congestion-derived
    /// cost surface): a candidate suffix's score is its turning-model
    /// weight times the product of the weights of the roads it enters. A
    /// zero weight excludes the road from every candidate. `None` means
    /// every road weighs 1.
    road_weights: Option<&'a [f64]>,
    max_turns: usize,
    max_hops: usize,
    /// Best open suffix per anchor road (`None` = no open detour exists),
    /// so N stranded vehicles behind the same junction cost one
    /// enumeration, not N.
    cache: HashMap<usize, Option<SuffixPlan>>,
    /// Roads introduced by rewritten suffixes that the original routes
    /// did not traverse, in first-seen order (deduplicated).
    detours: Vec<RoadId>,
    diverted: u64,
    restored: u64,
}

impl<'a> Replanner<'a> {
    /// A planner over `topology` with `closed` as the per-road closure
    /// mask (indexed by `RoadId`) and `turning` weighting the detour
    /// choice, using the default turn/depth budget.
    ///
    /// # Panics
    ///
    /// Panics if `closed` is not sized to the topology's road count.
    pub fn new(
        topology: &'a NetworkTopology,
        turning: &'a TurningProbabilities,
        closed: &'a [bool],
    ) -> Self {
        assert_eq!(
            closed.len(),
            topology.num_roads(),
            "closure mask must cover every road"
        );
        Replanner {
            topology,
            turning,
            closed,
            road_weights: None,
            max_turns: DEFAULT_MAX_TURNS,
            max_hops: (topology.num_intersections() + 4).min(MAX_HOPS_CAP),
            cache: HashMap::new(),
            detours: Vec::new(),
            diverted: 0,
            restored: 0,
        }
    }

    /// A planner whose candidate scoring sees the network through
    /// `weights` — a per-road multiplier over the turning-model weight
    /// (e.g. a congestion-derived cost surface where emptier roads weigh
    /// more and saturated roads weigh zero). Used by the congestion
    /// policy; [`restore`](Self::restore) expects a weight-free planner
    /// (its dominance comparison is against the turning model alone).
    ///
    /// # Panics
    ///
    /// Panics if either slice is not sized to the topology's road count,
    /// or a weight is negative or non-finite.
    pub fn with_road_weights(
        topology: &'a NetworkTopology,
        turning: &'a TurningProbabilities,
        closed: &'a [bool],
        weights: &'a [f64],
    ) -> Self {
        assert_eq!(
            weights.len(),
            topology.num_roads(),
            "road-weight view must cover every road"
        );
        assert!(
            weights.iter().all(|w| w.is_finite() && *w >= 0.0),
            "road weights must be finite and non-negative"
        );
        let mut planner = Replanner::new(topology, turning, closed);
        planner.road_weights = Some(weights);
        planner
    }

    /// Vehicles diverted so far (closure *and* congestion diversions).
    pub fn diverted(&self) -> u64 {
        self.diverted
    }

    /// Vehicles restored to a strictly better route so far.
    pub fn restored(&self) -> u64 {
        self.restored
    }

    /// Roads that rewritten routes traverse which their originals did
    /// not — the detour set, in first-seen order.
    pub fn detour_roads(&self) -> &[RoadId] {
        &self.detours
    }

    /// The outgoing road a crossing lands on.
    fn out_road(&self, intersection: IntersectionId, link: LinkId) -> RoadId {
        let node = self.topology.intersection(intersection);
        node.outgoing_road(node.layout().link(link).to())
    }

    /// The first road `route` is not committed beyond: the entry road if
    /// nothing is committed, otherwise the landing road of the last
    /// committed hop.
    fn anchor_of(&self, route: &Route, fixed_hops: usize) -> RoadId {
        if fixed_hops == 0 {
            route.entry()
        } else {
            let (i, l) = route.hops()[fixed_hops - 1];
            self.out_road(i, l)
        }
    }

    /// The cached best continuation from `anchor` (computing and caching
    /// it on first use), or `None` when no admissible suffix exists.
    fn cached_suffix(&mut self, anchor: RoadId) -> Option<&SuffixPlan> {
        if !self.cache.contains_key(&anchor.index()) {
            let plan = best_open_suffix(
                self.topology,
                anchor,
                self.turning,
                self.closed,
                self.road_weights,
                self.max_turns,
                self.max_hops,
            );
            self.cache.insert(anchor.index(), plan);
        }
        self.cache.get(&anchor.index()).unwrap().as_ref()
    }

    /// The turning-model weight of `route`'s hops from `fixed_hops` on —
    /// the same product [`enumerate_routes`] would assign the suffix, so
    /// the two compare exactly (bit-for-bit, same multiplication order).
    fn suffix_weight(&self, route: &Route, fixed_hops: usize) -> f64 {
        let mut weight = 1.0;
        for &(_, link) in &route.hops()[fixed_hops..] {
            let (approach, turn) =
                standard::movement_of(link).expect("routes use standard four-way links");
            weight *= match turn {
                Turn::Straight => self.turning.straight(approach),
                Turn::Left => self.turning.left(approach),
                Turn::Right => self.turning.right(approach),
            };
        }
        weight
    }

    /// Splices the cached suffix of `anchor` onto `route`'s committed
    /// prefix. With `record_detours`, roads the old journey did not
    /// traverse are recorded into the detour set — diversion passes want
    /// that; restores do not (a restored original route is not a
    /// detour). Must only be called once
    /// [`cached_suffix`](Self::cached_suffix) returned a plan for
    /// `anchor`.
    fn splice(
        &mut self,
        route: &Route,
        fixed_hops: usize,
        anchor: RoadId,
        record_detours: bool,
    ) -> Arc<Route> {
        let hops = route.hops();
        let (suffix, suffix_roads, _) = self.cache[&anchor.index()]
            .as_ref()
            .expect("splice follows a cache hit");
        let old_roads: Vec<RoadId> = std::iter::once(route.entry())
            .chain(hops.iter().map(|&(i, l)| self.out_road(i, l)))
            .collect();
        let fresh: Vec<RoadId> = suffix_roads
            .iter()
            .skip(1) // the anchor itself is shared
            .filter(|r| !old_roads.contains(r))
            .copied()
            .collect();
        let mut new_hops = hops[..fixed_hops].to_vec();
        new_hops.extend_from_slice(suffix);
        if record_detours {
            for r in fresh {
                if !self.detours.contains(&r) {
                    self.detours.push(r);
                }
            }
        }
        Arc::new(Route::new(route.entry(), new_hops))
    }

    /// The shared diversion path: rewrite the uncommitted suffix when it
    /// enters a road flagged by `trigger`, if an admissible continuation
    /// exists.
    fn divert_on(
        &mut self,
        route: &Route,
        fixed_hops: usize,
        trigger: &[bool],
    ) -> Option<Arc<Route>> {
        let hops = route.hops();
        if fixed_hops >= hops.len() {
            // Only the final exit road remains, and exits cannot close.
            return None;
        }
        // Roads entered strictly after the anchor: the landing road of
        // every uncommitted hop. If none of them is flagged, the journey
        // is unaffected.
        let threatened = hops[fixed_hops..]
            .iter()
            .any(|&(i, l)| trigger[self.out_road(i, l).index()]);
        if !threatened {
            return None;
        }
        let anchor = self.anchor_of(route, fixed_hops);
        self.cached_suffix(anchor)?;
        let new_route = self.splice(route, fixed_hops, anchor, true);
        self.diverted += 1;
        Some(new_route)
    }

    /// Proposes a replacement for `route` whose first `fixed_hops` hops
    /// are committed (the vehicle's lane, queue, or crossing is already
    /// bound to them; `0` for a vehicle still outside the network).
    ///
    /// Returns `None` when the remaining journey never enters a closed
    /// road, when the cursor is already past every junction, or when no
    /// open detour exists within the turn/depth budget — in all three
    /// cases the vehicle keeps its route.
    pub fn replan(&mut self, route: &Route, fixed_hops: usize) -> Option<Arc<Route>> {
        self.divert_on(route, fixed_hops, self.closed)
    }

    /// Proposes a congestion diversion: rewrites the uncommitted suffix
    /// when it enters a road flagged in `congested`, choosing the best
    /// continuation under the planner's road-weight view. Candidates that
    /// cross a closed road are never chosen, and — provided the caller's
    /// weight view zeroes every congested road — neither are candidates
    /// through the congestion itself, so a journey rewritten here cannot
    /// trigger again while the congested set is unchanged (no reroute
    /// churn).
    ///
    /// Returns `None` when the remaining journey avoids the congestion,
    /// the cursor is past every junction, or no admissible alternative
    /// exists.
    ///
    /// # Panics
    ///
    /// Panics if `congested` is not sized to the topology's road count.
    pub fn replan_congested(
        &mut self,
        route: &Route,
        fixed_hops: usize,
        congested: &[bool],
    ) -> Option<Arc<Route>> {
        assert_eq!(
            congested.len(),
            self.topology.num_roads(),
            "congestion mask must cover every road"
        );
        self.divert_on(route, fixed_hops, congested)
    }

    /// Proposes restoring a previously diverted `route`: rewrites the
    /// uncommitted suffix when the best open continuation from the anchor
    /// is *strictly* better (by turning-model weight) than the journey's
    /// current remaining suffix — the reopening counterpart of
    /// [`replan`](Self::replan). A suffix that still crosses a closed
    /// road counts as weight zero, so any open continuation dominates it.
    ///
    /// Returns `None` when the cursor is past every junction, no open
    /// continuation exists, or the current suffix is already undominated
    /// — the vehicle keeps its (detour) route.
    pub fn restore(&mut self, route: &Route, fixed_hops: usize) -> Option<Arc<Route>> {
        debug_assert!(
            self.road_weights.is_none(),
            "restore compares turning-model weights; a road-weight view would \
             deflate the cached scores and mask dominated detours"
        );
        let hops = route.hops();
        if fixed_hops >= hops.len() {
            return None;
        }
        let anchor = self.anchor_of(route, fixed_hops);
        let best_score = self.cached_suffix(anchor)?.2;
        let current = if hops[fixed_hops..]
            .iter()
            .any(|&(i, l)| self.closed[self.out_road(i, l).index()])
        {
            0.0
        } else {
            self.suffix_weight(route, fixed_hops)
        };
        if best_score <= current {
            return None;
        }
        let new_route = self.splice(route, fixed_hops, anchor, false);
        self.restored += 1;
        Some(new_route)
    }
}

/// The best fully-open journey continuing from `anchor` under the
/// closure mask and the optional road-weight view: highest score wins
/// (turning weight × the product of entered roads' weights), ties keep
/// enumeration order; zero-score candidates are inadmissible.
fn best_open_suffix(
    topology: &NetworkTopology,
    anchor: RoadId,
    turning: &TurningProbabilities,
    closed: &[bool],
    road_weights: Option<&[f64]>,
    max_turns: usize,
    max_hops: usize,
) -> Option<SuffixPlan> {
    let options = enumerate_routes(topology, anchor, turning, max_turns, max_hops);
    let mut best: Option<(f64, &crate::network::RouteOption)> = None;
    for opt in &options {
        // `roads[0]` is the anchor itself: the vehicle is already bound
        // to it, so its closure/congestion state cannot be helped here.
        if opt.roads[1..].iter().any(|r| closed[r.index()]) {
            continue;
        }
        let score = match road_weights {
            None => opt.weight,
            Some(w) => {
                let mut s = opt.weight;
                for r in &opt.roads[1..] {
                    s *= w[r.index()];
                }
                s
            }
        };
        if score <= 0.0 {
            continue;
        }
        match best {
            Some((b, _)) if score <= b => {}
            _ => best = Some((score, opt)),
        }
    }
    best.map(|(score, opt)| (opt.route.hops().to_vec(), opt.roads.clone(), score))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::{GridNetwork, GridSpec};
    use crate::network::Network;
    use crate::patterns::Pattern;

    fn setup() -> (Network, RoadId, Vec<bool>) {
        let grid = GridNetwork::new(GridSpec::paper());
        let net = Network::from_grid(&grid, Pattern::II);
        let closed_road = net
            .topology()
            .road_ids()
            .find(|&r| net.topology().road(r).is_internal())
            .unwrap();
        let mut mask = vec![false; net.topology().num_roads()];
        mask[closed_road.index()] = true;
        (net, closed_road, mask)
    }

    /// The roads a route traverses, entry first.
    fn roads_of(topology: &NetworkTopology, route: &Route) -> Vec<RoadId> {
        std::iter::once(route.entry())
            .chain(route.hops().iter().map(|&(i, l)| {
                let node = topology.intersection(i);
                node.outgoing_road(node.layout().link(l).to())
            }))
            .collect()
    }

    #[test]
    fn rewrites_avoid_the_closure_and_preserve_the_prefix() {
        let (net, closed_road, mask) = setup();
        let mut planner = Replanner::new(net.topology(), &TurningProbabilities::PAPER, &mask);
        let mut rewrote = 0;
        for entry in 0..net.num_entries() {
            for opt in net.route_options(entry) {
                let hits = opt.roads.contains(&closed_road);
                for fixed in 0..=opt.route.len() {
                    let result = planner.replan(&opt.route, fixed);
                    let remaining_hit =
                        opt.roads[(fixed + 1).min(opt.roads.len())..].contains(&closed_road);
                    if !remaining_hit {
                        assert!(result.is_none(), "untouched journeys keep their route");
                        continue;
                    }
                    let new = result.expect("the paper grid always has an open detour");
                    rewrote += 1;
                    assert_eq!(
                        &new.hops()[..fixed],
                        &opt.route.hops()[..fixed],
                        "committed prefix must be preserved"
                    );
                    assert_eq!(new.entry(), opt.route.entry());
                    let new_roads = roads_of(net.topology(), &new);
                    assert!(
                        !new_roads[fixed + 1..].contains(&closed_road),
                        "the rewritten journey must avoid the closed road"
                    );
                    // The route must still end at a boundary exit.
                    assert!(net.topology().road(*new_roads.last().unwrap()).is_exit());
                }
                let _ = hits;
            }
        }
        assert!(rewrote > 0, "the option set crosses the closed road");
        assert_eq!(planner.diverted(), rewrote);
        assert!(!planner.detour_roads().is_empty());
    }

    #[test]
    fn replanning_is_deterministic() {
        let (net, _, mask) = setup();
        let run = || {
            let mut planner = Replanner::new(net.topology(), &TurningProbabilities::PAPER, &mask);
            let mut digest: Vec<Option<Vec<(IntersectionId, LinkId)>>> = Vec::new();
            for entry in 0..net.num_entries() {
                for opt in net.route_options(entry) {
                    digest.push(planner.replan(&opt.route, 1).map(|r| r.hops().to_vec()));
                }
            }
            (digest, planner.detour_roads().to_vec())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn fully_blocked_detours_leave_the_route_alone() {
        // Close every road except the boundary entries: no suffix from
        // any anchor can reach an (open) exit, so nothing is rewritten.
        // (Scenario validation forbids closing exits, but the planner
        // must stay correct for any mask it is handed.)
        let grid = GridNetwork::new(GridSpec::paper());
        let net = Network::from_grid(&grid, Pattern::II);
        let mut mask = vec![false; net.topology().num_roads()];
        for r in net.topology().road_ids() {
            if !net.topology().road(r).is_entry() {
                mask[r.index()] = true;
            }
        }
        let mut planner = Replanner::new(net.topology(), &TurningProbabilities::PAPER, &mask);
        let long = net
            .route_options(0)
            .iter()
            .max_by_key(|o| o.route.len())
            .unwrap();
        assert!(
            planner.replan(&long.route, 1).is_none(),
            "no open detour exists, the vehicle keeps its route"
        );
        assert_eq!(planner.diverted(), 0);
    }

    #[test]
    fn cursor_past_all_junctions_is_untouched() {
        let (net, _, mask) = setup();
        let mut planner = Replanner::new(net.topology(), &TurningProbabilities::PAPER, &mask);
        let opt = &net.route_options(0)[0];
        assert!(planner.replan(&opt.route, opt.route.len()).is_none());
        assert!(planner.replan(&opt.route, opt.route.len() + 1).is_none());
    }

    /// Mirrors the planner's selection rule: highest weight wins, ties
    /// keep enumeration order.
    fn best_option(options: &[crate::network::RouteOption]) -> &crate::network::RouteOption {
        let mut best: Option<&crate::network::RouteOption> = None;
        for opt in options {
            match best {
                Some(b) if opt.weight <= b.weight => {}
                _ => best = Some(opt),
            }
        }
        best.expect("option set is non-empty")
    }

    #[test]
    fn restore_rewrites_diverted_routes_back_and_is_idempotent() {
        let (net, _, _) = setup();
        let topo = net.topology();
        let budget_hops = (topo.num_intersections() + 4).min(32);
        // Build a journey whose uncommitted suffix (fixed = 1) is exactly
        // the *strictly* best continuation from its anchor, with an
        // internal road on it to close: closing that road forces a
        // strictly worse detour, and reopening must restore the original.
        let mut picked = None;
        'outer: for e in 0..net.num_entries() {
            for o in net.route_options(e) {
                let anchor = o.roads[1];
                if !topo.road(anchor).is_internal() {
                    continue;
                }
                let conts =
                    enumerate_routes(topo, anchor, &TurningProbabilities::PAPER, 3, budget_hops);
                let best = best_option(&conts);
                let Some(&victim) = best.roads[1..]
                    .iter()
                    .find(|r| topo.road(**r).is_internal())
                else {
                    continue;
                };
                // The best continuation must strictly dominate every
                // alternative that avoids the victim road, or restore has
                // nothing strict to prefer.
                let dominated = conts
                    .iter()
                    .filter(|c| !c.roads[1..].contains(&victim))
                    .all(|c| c.weight < best.weight);
                if !dominated {
                    continue;
                }
                let mut hops = vec![o.route.hops()[0]];
                hops.extend_from_slice(best.route.hops());
                picked = Some((Route::new(o.route.entry(), hops), victim));
                break 'outer;
            }
        }
        let (through, victim) = picked.expect("the paper grid offers such a journey");
        let mut mask = vec![false; topo.num_roads()];
        mask[victim.index()] = true;
        // Divert around the closure…
        let diverted = {
            let mut planner = Replanner::new(topo, &TurningProbabilities::PAPER, &mask);
            planner.replan(&through, 1).expect("detour exists")
        };
        assert_ne!(diverted.hops(), through.hops());
        // …then reopen everything: the detour is dominated by the best
        // open continuation and gets rewritten back.
        let open = vec![false; topo.num_roads()];
        let mut planner = Replanner::new(topo, &TurningProbabilities::PAPER, &open);
        let restored = planner
            .restore(&diverted, 1)
            .expect("the open network strictly dominates the detour");
        assert_eq!(planner.restored(), 1);
        assert_eq!(planner.diverted(), 0, "restores are not diversions");
        assert_eq!(
            restored.hops(),
            through.hops(),
            "restore returns the original (best) journey"
        );
        // The restored route is the best open continuation: restoring it
        // again proposes nothing (no oscillation).
        assert!(planner.restore(&restored, 1).is_none());
        assert_eq!(planner.restored(), 1);
    }

    #[test]
    fn restore_treats_still_blocked_suffixes_as_dominated() {
        // A suffix through a still-closed road weighs zero, so any open
        // continuation restores it — even a lower-weight one.
        let (net, closed_road, mask) = setup();
        let through = (0..net.num_entries())
            .flat_map(|e| net.route_options(e))
            .find(|o| o.roads[2..].contains(&closed_road))
            .expect("an option crosses the closed road late enough");
        let mut planner = Replanner::new(net.topology(), &TurningProbabilities::PAPER, &mask);
        let restored = planner
            .restore(&through.route, 1)
            .expect("an open continuation exists");
        let restored_roads = roads_of(net.topology(), &restored);
        assert!(!restored_roads[2..].contains(&closed_road));
        assert_eq!(planner.restored(), 1);
    }

    #[test]
    fn congestion_diversion_avoids_the_congested_road_and_cannot_churn() {
        let (net, hot_road, congested) = setup();
        let open = vec![false; net.topology().num_roads()];
        // The congestion weight view: saturated roads weigh zero (never
        // chosen), everything else weighs one.
        let weights: Vec<f64> = congested
            .iter()
            .map(|&c| if c { 0.0 } else { 1.0 })
            .collect();
        let mut planner = Replanner::with_road_weights(
            net.topology(),
            &TurningProbabilities::PAPER,
            &open,
            &weights,
        );
        let through = (0..net.num_entries())
            .flat_map(|e| net.route_options(e))
            .find(|o| o.roads[2..].contains(&hot_road))
            .expect("an option crosses the congested road late enough");
        let rerouted = planner
            .replan_congested(&through.route, 1, &congested)
            .expect("an uncongested alternative exists");
        assert_eq!(planner.diverted(), 1);
        let new_roads = roads_of(net.topology(), &rerouted);
        assert!(
            !new_roads[2..].contains(&hot_road),
            "the rewritten journey avoids the congestion"
        );
        // The rewrite avoids every congested road, so the same congested
        // set can never trigger it again — no reroute churn.
        assert!(planner.replan_congested(&rerouted, 1, &congested).is_none());
        assert_eq!(planner.diverted(), 1);
        // A journey that never touches the congestion is left alone.
        let clear = net
            .route_options(0)
            .iter()
            .find(|o| !o.roads.contains(&hot_road))
            .unwrap();
        assert!(planner
            .replan_congested(&clear.route, 1, &congested)
            .is_none());
    }

    #[test]
    fn road_weights_steer_the_detour_choice() {
        // With every road weighing 1 the congestion pass picks the same
        // suffix the closure pass would; sinking one detour road's weight
        // steers the choice elsewhere.
        let (net, hot_road, congested) = setup();
        let open = vec![false; net.topology().num_roads()];
        let through = (0..net.num_entries())
            .flat_map(|e| net.route_options(e))
            .find(|o| o.roads[2..].contains(&hot_road))
            .expect("an option crosses the congested road late enough");

        let uniform: Vec<f64> = congested
            .iter()
            .map(|&c| if c { 0.0 } else { 1.0 })
            .collect();
        let baseline = {
            let mut planner = Replanner::with_road_weights(
                net.topology(),
                &TurningProbabilities::PAPER,
                &open,
                &uniform,
            );
            planner
                .replan_congested(&through.route, 1, &congested)
                .expect("alternative exists")
        };
        // Make one road of the baseline detour (one the journey did not
        // already use) nearly free to traverse… in weight terms, nearly
        // worthless — the planner must route around it too.
        let old_roads = roads_of(net.topology(), &through.route);
        let baseline_roads = roads_of(net.topology(), &baseline);
        let steer = baseline_roads[2..]
            .iter()
            .find(|r| !old_roads.contains(r))
            .copied()
            .expect("the detour adds roads");
        let mut skewed = uniform.clone();
        skewed[steer.index()] = 1e-6;
        let mut planner = Replanner::with_road_weights(
            net.topology(),
            &TurningProbabilities::PAPER,
            &open,
            &skewed,
        );
        let steered = planner
            .replan_congested(&through.route, 1, &congested)
            .expect("another alternative exists");
        let steered_roads = roads_of(net.topology(), &steered);
        assert!(
            !steered_roads[2..].contains(&steer),
            "a near-zero weight steers the detour off that road"
        );
    }
}
