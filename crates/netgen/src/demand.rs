//! Stochastic demand generation: Poisson arrivals with routed vehicles.
//!
//! The paper models arrivals at each entry road as a Poisson process
//! (Section II-B); equivalently, inter-arrival times are exponential with
//! the Table II means. A [`DemandGenerator`] owns one exponential clock per
//! entry road, samples each arriving vehicle's turn from Table I, and picks
//! its turning intersection uniformly along its straight path, exactly as
//! described in Section V.

use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use utilbp_core::standard::Turn;
use utilbp_core::Tick;
use utilbp_metrics::VehicleId;

use crate::grid::{EntryPoint, GridNetwork, RouteChoice};
use crate::patterns::{DemandSchedule, TurningProbabilities};
use crate::route::Route;

/// One vehicle appearing at the network boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct Arrival {
    /// The new vehicle's id (unique within the generator's lifetime).
    pub vehicle: VehicleId,
    /// The arrival instant.
    pub tick: Tick,
    /// The vehicle's full route, shared with the generator's route cache —
    /// injecting a vehicle clones a pointer, never a route.
    pub route: Arc<Route>,
}

/// Configuration of a [`DemandGenerator`].
#[derive(Debug, Clone, PartialEq)]
pub struct DemandConfig {
    /// The arrival schedule (Table II pattern(s)).
    pub schedule: DemandSchedule,
    /// Turning probabilities (Table I).
    pub turning: TurningProbabilities,
    /// Wall-clock seconds per tick (the mini-slot length `Δt`; 1 s in the
    /// paper).
    pub dt_seconds: f64,
}

impl DemandConfig {
    /// A config with the paper's turning probabilities and `Δt = 1 s`.
    pub fn new(schedule: DemandSchedule) -> Self {
        DemandConfig {
            schedule,
            turning: TurningProbabilities::PAPER,
            dt_seconds: 1.0,
        }
    }
}

#[derive(Debug, Clone)]
struct EntryClock {
    point: EntryPoint,
    /// Absolute time (seconds) of the next arrival at this entry.
    next_arrival_s: f64,
}

/// Seeded, deterministic generator of routed vehicle arrivals.
///
/// # Examples
///
/// ```
/// use utilbp_core::{Tick, Ticks};
/// use utilbp_netgen::{
///     DemandConfig, DemandGenerator, DemandSchedule, GridNetwork, GridSpec,
///     Pattern,
/// };
///
/// let grid = GridNetwork::new(GridSpec::paper());
/// let config = DemandConfig::new(DemandSchedule::constant(
///     Pattern::II,
///     Ticks::new(600),
/// ));
/// let mut demand = DemandGenerator::new(&grid, config, 42);
/// let mut total = 0;
/// for k in 0..600 {
///     total += demand.poll(&grid, Tick::new(k)).len();
/// }
/// // 12 entries × (600 s / 6 s) = 1200 expected arrivals.
/// assert!(total > 900 && total < 1500, "got {total}");
/// ```
#[derive(Debug, Clone)]
pub struct DemandGenerator {
    config: DemandConfig,
    clocks: Vec<EntryClock>,
    /// Per entry: every route the paper's demand model can sample, indexed
    /// by [`choice_index`]. Precomputed once so injection is
    /// allocation-free — sampling clones an [`Arc`], not a route.
    route_cache: Vec<Vec<Arc<Route>>>,
    rng: SmallRng,
    next_vehicle: u64,
}

/// The cache slot of a [`RouteChoice`] for an entry whose straight path
/// crosses `path_len` intersections: slot 0 is the straight route, then
/// `(left, right)` pairs per turning intersection.
fn choice_index(choice: RouteChoice) -> usize {
    match choice {
        RouteChoice::Straight => 0,
        RouteChoice::TurnAt { turn, path_index } => {
            1 + path_index * 2 + usize::from(turn == Turn::Right)
        }
    }
}

impl DemandGenerator {
    /// Creates a generator for `grid`'s entry points.
    ///
    /// The same `(grid, config, seed)` triple always produces the same
    /// arrival stream, which is what makes every experiment in this
    /// workspace reproducible.
    ///
    /// # Panics
    ///
    /// Panics if `config.dt_seconds` is not strictly positive and finite.
    pub fn new(grid: &GridNetwork, config: DemandConfig, seed: u64) -> Self {
        assert!(
            config.dt_seconds.is_finite() && config.dt_seconds > 0.0,
            "dt_seconds must be positive"
        );
        let mut rng = SmallRng::seed_from_u64(seed);
        let clocks = grid
            .entries()
            .iter()
            .map(|&point| {
                let mean = config
                    .schedule
                    .pattern_at(Tick::ZERO)
                    .inter_arrival_s(point.side);
                let first = exponential(&mut rng, mean);
                EntryClock {
                    point,
                    next_arrival_s: first,
                }
            })
            .collect();
        // Precompute every route the demand model can sample (straight plus
        // one left/right turn at each intersection along the straight
        // path), in `choice_index` order.
        let route_cache = grid
            .entries()
            .iter()
            .map(|point| {
                let path_len = grid.straight_path_len(point.side) as usize;
                let mut routes = Vec::with_capacity(1 + 2 * path_len);
                routes.push(Arc::new(grid.route(point, RouteChoice::Straight)));
                for path_index in 0..path_len {
                    for turn in [Turn::Left, Turn::Right] {
                        let choice = RouteChoice::TurnAt { turn, path_index };
                        debug_assert_eq!(choice_index(choice), routes.len());
                        routes.push(Arc::new(grid.route(point, choice)));
                    }
                }
                routes
            })
            .collect();
        DemandGenerator {
            config,
            clocks,
            route_cache,
            rng,
            next_vehicle: 0,
        }
    }

    /// Number of vehicles generated so far.
    pub fn generated(&self) -> u64 {
        self.next_vehicle
    }

    /// Returns all vehicles arriving during the mini-slot `[tick, tick+1)`,
    /// with their sampled routes.
    ///
    /// Must be called with non-decreasing ticks; skipping ticks skips the
    /// arrivals that would have fallen in them.
    pub fn poll(&mut self, grid: &GridNetwork, tick: Tick) -> Vec<Arrival> {
        let mut arrivals = Vec::new();
        self.poll_into(grid, tick, &mut arrivals);
        arrivals
    }

    /// Allocation-free variant of [`poll`](Self::poll): appends this
    /// mini-slot's arrivals to `arrivals` (typically a cleared, reused
    /// buffer), so a steady-state simulation loop allocates nothing per
    /// tick on the demand side.
    pub fn poll_into(&mut self, grid: &GridNetwork, tick: Tick, arrivals: &mut Vec<Arrival>) {
        let window_end = (tick.index() + 1) as f64 * self.config.dt_seconds;
        let pattern = self.config.schedule.pattern_at(tick);
        for i in 0..self.clocks.len() {
            let point = self.clocks[i].point;
            let mean = pattern.inter_arrival_s(point.side);
            while self.clocks[i].next_arrival_s < window_end {
                let vehicle = VehicleId::new(self.next_vehicle);
                self.next_vehicle += 1;
                let route = self.sample_route(grid, i, &point);
                arrivals.push(Arrival {
                    vehicle,
                    tick,
                    route,
                });
                let gap = exponential(&mut self.rng, mean);
                self.clocks[i].next_arrival_s += gap;
            }
        }
    }

    /// Samples a route for a vehicle entering at `point`: turn per Table I,
    /// turning intersection uniform along the straight path. Returns a
    /// shared handle into the precomputed route cache — no allocation.
    fn sample_route(&mut self, grid: &GridNetwork, entry: usize, point: &EntryPoint) -> Arc<Route> {
        let u: f64 = self.rng.gen();
        let turn = self.config.turning.turn_for(point.side, u);
        let choice = match turn {
            Turn::Straight => RouteChoice::Straight,
            turn => {
                let path_len = grid.straight_path_len(point.side) as usize;
                let path_index = self.rng.gen_range(0..path_len);
                RouteChoice::TurnAt { turn, path_index }
            }
        };
        Arc::clone(&self.route_cache[entry][choice_index(choice)])
    }
}

/// Inverse-transform sample of an exponential with the given mean.
fn exponential(rng: &mut SmallRng, mean_s: f64) -> f64 {
    let u: f64 = rng.gen_range(f64::EPSILON..1.0);
    -u.ln() * mean_s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::GridSpec;
    use crate::patterns::Pattern;
    use utilbp_core::standard::Approach;
    use utilbp_core::Ticks;

    fn grid() -> GridNetwork {
        GridNetwork::new(GridSpec::paper())
    }

    fn config(pattern: Pattern, duration: u64) -> DemandConfig {
        DemandConfig::new(DemandSchedule::constant(pattern, Ticks::new(duration)))
    }

    #[test]
    fn deterministic_for_equal_seeds() {
        let g = grid();
        let mut a = DemandGenerator::new(&g, config(Pattern::I, 100), 7);
        let mut b = DemandGenerator::new(&g, config(Pattern::I, 100), 7);
        for k in 0..100 {
            assert_eq!(a.poll(&g, Tick::new(k)), b.poll(&g, Tick::new(k)));
        }
        let mut c = DemandGenerator::new(&g, config(Pattern::I, 100), 8);
        let totals: usize = (0..100).map(|k| c.poll(&g, Tick::new(k)).len()).sum();
        let totals_a = a.generated() as usize;
        // Different seeds almost surely differ in arrival count over 100 s.
        assert_ne!(totals, 0);
        assert_ne!(totals_a, 0);
    }

    #[test]
    fn arrival_rates_match_pattern_ii() {
        let g = grid();
        let horizon = 20_000u64;
        let mut demand = DemandGenerator::new(&g, config(Pattern::II, horizon), 1);
        let mut count = 0usize;
        for k in 0..horizon {
            count += demand.poll(&g, Tick::new(k)).len();
        }
        // Expected: 12 entries / 6 s = 2 veh/s → 40 000 vehicles.
        let expected = 12.0 * horizon as f64 / 6.0;
        let rel = (count as f64 - expected).abs() / expected;
        assert!(rel < 0.05, "count {count} vs expected {expected}");
    }

    #[test]
    fn pattern_i_sides_are_ordered_by_load() {
        let g = grid();
        let horizon = 30_000u64;
        let mut demand = DemandGenerator::new(&g, config(Pattern::I, horizon), 2);
        let mut per_side = [0usize; 4];
        for k in 0..horizon {
            for a in demand.poll(&g, Tick::new(k)) {
                let entry = g
                    .entries()
                    .iter()
                    .find(|e| e.road == a.route.entry())
                    .unwrap();
                per_side[entry.side as usize] += 1;
            }
        }
        // N (3 s) > E (5 s) > S (7 s) > W (9 s).
        assert!(per_side[Approach::North as usize] > per_side[Approach::East as usize]);
        assert!(per_side[Approach::East as usize] > per_side[Approach::South as usize]);
        assert!(per_side[Approach::South as usize] > per_side[Approach::West as usize]);
    }

    #[test]
    fn turning_shares_match_table1() {
        let g = grid();
        let horizon = 40_000u64;
        let mut demand = DemandGenerator::new(&g, config(Pattern::II, horizon), 3);
        let mut north_turns = [0usize; 3]; // left, straight, right
        for k in 0..horizon {
            for a in demand.poll(&g, Tick::new(k)) {
                let entry = g
                    .entries()
                    .iter()
                    .find(|e| e.road == a.route.entry())
                    .unwrap();
                if entry.side != Approach::North {
                    continue;
                }
                // Classify by whether/where the route turns.
                let first_links: Vec<_> = a.route.hops().iter().map(|&(_, l)| l).collect();
                let turned_left = first_links
                    .iter()
                    .any(|&l| l == utilbp_core::standard::link_id(Approach::North, Turn::Left));
                let turned_right = first_links
                    .iter()
                    .any(|&l| l == utilbp_core::standard::link_id(Approach::North, Turn::Right));
                if turned_left {
                    north_turns[0] += 1;
                } else if turned_right {
                    north_turns[2] += 1;
                } else {
                    north_turns[1] += 1;
                }
            }
        }
        let total: usize = north_turns.iter().sum();
        let share = |n: usize| n as f64 / total as f64;
        assert!(
            (share(north_turns[0]) - 0.2).abs() < 0.03,
            "left {north_turns:?}"
        );
        assert!(
            (share(north_turns[1]) - 0.4).abs() < 0.03,
            "straight {north_turns:?}"
        );
        assert!(
            (share(north_turns[2]) - 0.4).abs() < 0.03,
            "right {north_turns:?}"
        );
    }

    #[test]
    fn vehicle_ids_are_unique_and_sequential() {
        let g = grid();
        let mut demand = DemandGenerator::new(&g, config(Pattern::I, 200), 4);
        let mut seen = std::collections::HashSet::new();
        for k in 0..200 {
            for a in demand.poll(&g, Tick::new(k)) {
                assert!(seen.insert(a.vehicle), "duplicate id {}", a.vehicle);
                assert_eq!(a.tick, Tick::new(k));
            }
        }
        assert_eq!(seen.len() as u64, demand.generated());
    }

    #[test]
    fn mixed_schedule_shifts_rates() {
        let g = grid();
        // 1000 ticks of I (north-heavy) then 1000 of IV (north-heavy but
        // everything else light): total counts should drop in segment 2 on
        // the east side.
        let schedule = DemandSchedule::from_segments(vec![
            (Ticks::new(5000), Pattern::I),
            (Ticks::new(5000), Pattern::IV),
        ]);
        let mut demand = DemandGenerator::new(&g, DemandConfig::new(schedule), 5);
        let mut east_counts = [0usize; 2];
        for k in 0..10_000u64 {
            for a in demand.poll(&g, Tick::new(k)) {
                let entry = g
                    .entries()
                    .iter()
                    .find(|e| e.road == a.route.entry())
                    .unwrap();
                if entry.side == Approach::East {
                    east_counts[(k / 5000) as usize] += 1;
                }
            }
        }
        // East: 5 s mean in I vs 9 s in IV.
        assert!(
            east_counts[0] as f64 > east_counts[1] as f64 * 1.3,
            "{east_counts:?}"
        );
    }

    #[test]
    fn cached_routes_match_fresh_construction() {
        let g = grid();
        let demand = DemandGenerator::new(&g, config(Pattern::I, 10), 0);
        for (entry, point) in g.entries().iter().enumerate() {
            let path_len = g.straight_path_len(point.side) as usize;
            let mut choices = vec![RouteChoice::Straight];
            for path_index in 0..path_len {
                for turn in [Turn::Left, Turn::Right] {
                    choices.push(RouteChoice::TurnAt { turn, path_index });
                }
            }
            assert_eq!(demand.route_cache[entry].len(), choices.len());
            for choice in choices {
                assert_eq!(
                    *demand.route_cache[entry][choice_index(choice)],
                    g.route(point, choice),
                    "{choice:?}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "dt_seconds")]
    fn rejects_bad_dt() {
        let g = grid();
        let mut cfg = config(Pattern::I, 10);
        cfg.dt_seconds = 0.0;
        let _ = DemandGenerator::new(&g, cfg, 0);
    }
}
