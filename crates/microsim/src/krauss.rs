//! The Krauss car-following model (SUMO's default).
//!
//! Stefan Krauss' stochastic model computes, per step, the maximum *safe*
//! speed that lets the follower stop behind its leader under worst-case
//! braking, clamps desire by acceleration and the speed limit, and
//! subtracts a random dawdling term:
//!
//! ```text
//! v_safe = v_l + (g − v_l·τ) / (v̄/b + τ),   v̄ = (v + v_l)/2
//! v_des  = min(v_max, v + a·Δt, v_safe)
//! v'     = max(0, v_des − σ·a·Δt·ξ),         ξ ~ U[0,1)
//! x'     = x + v'·Δt
//! ```
//!
//! where `g` is the net gap to the leader (bumper to bumper, minus the
//! desired standstill gap), `τ` the reaction time, `a`/`b` the maximum
//! acceleration/deceleration.

use crate::config::MicroSimConfig;

/// The leader situation a vehicle reacts to.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LeaderInfo {
    /// Open road: no obstacle within sight.
    Free,
    /// A standing obstacle (stop line / red light) at the given net
    /// distance ahead of the front bumper.
    Wall {
        /// Distance to the obstacle in meters (may be negative if already
        /// past it).
        distance_m: f64,
    },
    /// A leading vehicle with the given net gap and speed.
    Vehicle {
        /// Net gap in meters: leader rear bumper − follower front bumper −
        /// desired standstill gap.
        net_gap_m: f64,
        /// Leader speed in m/s.
        speed_mps: f64,
    },
}

/// Krauss safe speed for a follower at `speed` facing `leader`.
pub(crate) fn safe_speed(speed: f64, leader: LeaderInfo, cfg: &MicroSimConfig) -> f64 {
    let (gap, v_l) = match leader {
        LeaderInfo::Free => return f64::INFINITY,
        LeaderInfo::Wall { distance_m } => (distance_m, 0.0),
        LeaderInfo::Vehicle {
            net_gap_m,
            speed_mps,
        } => (net_gap_m, speed_mps),
    };
    let tau = cfg.reaction_time_s;
    let v_bar = (speed + v_l) / 2.0;
    v_l + (gap - v_l * tau) / (v_bar / cfg.max_decel + tau)
}

/// One Krauss speed update. `dawdle_xi` is the uniform sample `ξ ∈ [0, 1)`;
/// pass 0 for deterministic behavior.
pub fn next_speed(speed: f64, leader: LeaderInfo, dawdle_xi: f64, cfg: &MicroSimConfig) -> f64 {
    let v_safe = safe_speed(speed, leader, cfg);
    let v_des = cfg
        .free_speed_mps
        .min(speed + cfg.max_accel * cfg.dt_seconds)
        .min(v_safe);
    (v_des - cfg.sigma * cfg.max_accel * cfg.dt_seconds * dawdle_xi).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> MicroSimConfig {
        MicroSimConfig::deterministic()
    }

    #[test]
    fn free_road_accelerates_to_the_limit() {
        let c = cfg();
        let mut v = 0.0;
        for _ in 0..20 {
            v = next_speed(v, LeaderInfo::Free, 0.0, &c);
        }
        assert!((v - c.free_speed_mps).abs() < 1e-9, "v = {v}");
    }

    #[test]
    fn acceleration_is_bounded() {
        let c = cfg();
        let v1 = next_speed(0.0, LeaderInfo::Free, 0.0, &c);
        assert!(v1 <= c.max_accel * c.dt_seconds + 1e-12);
    }

    #[test]
    fn stops_before_a_wall() {
        let c = cfg();
        let mut pos: f64 = 0.0;
        let mut v: f64 = c.free_speed_mps;
        for _ in 0..60 {
            let leader = LeaderInfo::Wall {
                distance_m: 100.0 - pos,
            };
            v = next_speed(v, leader, 0.0, &c);
            pos += v * c.dt_seconds;
        }
        assert!(v < 0.05, "vehicle must come to rest, v = {v}");
        assert!(
            pos <= 100.0 + 1e-9,
            "front bumper at most at the wall, pos = {pos}"
        );
        assert!(pos > 90.0, "but close to it, pos = {pos}");
    }

    #[test]
    fn follower_never_collides_with_standing_leader() {
        let c = cfg();
        // Leader standing 50 m ahead; follower approaches at full speed.
        let mut pos: f64 = 0.0;
        let mut v: f64 = c.free_speed_mps;
        let leader_rear = 50.0;
        for _ in 0..60 {
            let net_gap = leader_rear - pos - c.min_gap_m;
            v = next_speed(
                v,
                LeaderInfo::Vehicle {
                    net_gap_m: net_gap,
                    speed_mps: 0.0,
                },
                0.0,
                &c,
            );
            pos += v * c.dt_seconds;
        }
        assert!(pos <= leader_rear - c.min_gap_m + 1e-9, "pos = {pos}");
        assert!(v < 0.05);
    }

    #[test]
    fn platoon_following_tracks_leader_speed() {
        let c = cfg();
        // Follower 30 m behind a leader cruising at 10 m/s reaches a
        // steady state near the leader's speed.
        let mut gap: f64 = 30.0;
        let mut v: f64 = 0.0;
        let v_l = 10.0;
        for _ in 0..120 {
            v = next_speed(
                v,
                LeaderInfo::Vehicle {
                    net_gap_m: gap,
                    speed_mps: v_l,
                },
                0.0,
                &c,
            );
            gap += (v_l - v) * c.dt_seconds;
            assert!(gap > 0.0, "no collision");
        }
        assert!((v - v_l).abs() < 0.5, "v = {v}");
    }

    #[test]
    fn dawdling_slows_but_never_reverses() {
        let c = MicroSimConfig::default(); // σ = 0.5
        let v_nodawdle = next_speed(5.0, LeaderInfo::Free, 0.0, &c);
        let v_dawdle = next_speed(5.0, LeaderInfo::Free, 1.0, &c);
        assert!(v_dawdle < v_nodawdle);
        assert!(v_dawdle >= 0.0);
        assert_eq!(
            next_speed(0.0, LeaderInfo::Wall { distance_m: 0.0 }, 1.0, &c),
            0.0
        );
    }

    #[test]
    fn safe_speed_is_negative_when_too_close() {
        let c = cfg();
        let v = safe_speed(
            10.0,
            LeaderInfo::Vehicle {
                net_gap_m: -1.0,
                speed_mps: 0.0,
            },
            &c,
        );
        assert!(v < 0.0, "overlap must demand braking, got {v}");
        // next_speed clamps it to 0.
        assert_eq!(
            next_speed(
                10.0,
                LeaderInfo::Vehicle {
                    net_gap_m: -1.0,
                    speed_mps: 0.0
                },
                0.0,
                &c
            ),
            0.0
        );
    }

    #[test]
    fn discharge_headway_is_realistic() {
        // A queue of standing vehicles discharging across a stop line
        // yields sub-second to ~2 s headways under plain Krauss (the model
        // has no explicit reaction-delay chain at startup). In the full
        // simulator the per-link service credit (`µ` = 1 veh/s in the
        // paper) is the binding limit on junction throughput; this test
        // pins the car-following contribution.
        let c = cfg();
        let spacing = c.jam_spacing_m();
        let n = 8usize;
        // Vehicle 0 at the line (pos = 0 means front at stop line).
        let mut pos: Vec<f64> = (0..n).map(|i| -(i as f64) * spacing).collect();
        let mut vel = vec![0.0f64; n];
        let mut cross_times = Vec::new();
        for step in 0..120u64 {
            for i in 0..n {
                let leader = if i == 0 || pos[i - 1] > 60.0 {
                    LeaderInfo::Free
                } else {
                    LeaderInfo::Vehicle {
                        net_gap_m: pos[i - 1] - pos[i] - c.vehicle_length_m - c.min_gap_m,
                        speed_mps: vel[i - 1],
                    }
                };
                vel[i] = next_speed(vel[i], leader, 0.0, &c);
                let before = pos[i];
                pos[i] += vel[i] * c.dt_seconds;
                if before <= 0.0 && pos[i] > 0.0 {
                    cross_times.push(step);
                }
            }
            if cross_times.len() == n {
                break;
            }
        }
        assert_eq!(cross_times.len(), n, "all vehicles must discharge");
        let headways: Vec<f64> = cross_times
            .windows(2)
            .map(|w| (w[1] - w[0]) as f64)
            .collect();
        let mean = headways.iter().sum::<f64>() / headways.len() as f64;
        assert!(
            (0.4..=3.0).contains(&mean),
            "mean saturation headway {mean} s outside the plausible range"
        );
    }
}
