//! The scenario text format: a line-oriented, diffable description that
//! round-trips through [`parse_scenario`] / [`ScenarioSpec::to_text`].
//!
//! The workspace has no serialization dependency, so scenario files use
//! a small hand-rolled format:
//!
//! ```text
//! # comments and blank lines are ignored
//! scenario arterial-rush-hour
//! seed 2020
//! horizon 900
//! topology arterial intersections=5 arterial-length=400 ...
//! demand rush-hour ramp=200 peak=200 factor=2.5
//! replan at-next-junction
//! # …or queue-state-driven routing response:
//! # replan congestion period=32 threshold=0.75 hysteresis=0.1
//! event close road=12 at=300
//! event reopen road=12 at=600
//! event surge factor=3 from=100 until=250
//! event sensor-fault from=150 until=450 dropout=0.3 noise=0.1 noise-mag=3 freeze=0.05 \
//!   stuck-at=0.01 stuck-value=0 frozen=0.02
//! # actuator/comms fault windows (the command path, not the sensors):
//! fault actuator from=100 until=400 stuck=0.02 stuck-ticks=40 drop=0.1 delay=0.1 delay-ticks=4
//! fault comms from=100 until=400 drop=0.2 delay=0.1 delay-ticks=4
//! # per-intersection watchdog fallback (omit for no watchdog):
//! watchdog freeze-ticks=24 max-delta=16 recovery-ticks=12
//! ```
//!
//! Every `key=value` argument is optional unless noted; omitted keys take
//! the corresponding spec's default. See the crate docs for the semantics
//! of each event.

use std::collections::HashMap;

use utilbp_baselines::{ActuationFaultConfig, SensorFaultConfig, WatchdogConfig};
use utilbp_core::{Tick, Ticks};
use utilbp_netgen::{
    ArterialSpec, AsymmetricGridSpec, GridSpec, Pattern, RingSpec, RoadId, TurningProbabilities,
};

use crate::spec::{DemandProfile, ReplanPolicy, ScenarioEvent, ScenarioSpec, TopologySpec};

/// Parsed `key=value` arguments of one directive line.
struct Args {
    line_no: usize,
    map: HashMap<String, String>,
}

impl Args {
    fn parse(line_no: usize, parts: &[&str]) -> Result<Args, String> {
        let mut map = HashMap::new();
        for part in parts {
            let (k, v) = part
                .split_once('=')
                .ok_or_else(|| format!("line {line_no}: expected key=value, got `{part}`"))?;
            map.insert(k.to_string(), v.to_string());
        }
        Ok(Args { line_no, map })
    }

    /// Errors on any argument no directive consumed — a typo'd key must
    /// not silently fall back to a default.
    fn finish(&self) -> Result<(), String> {
        if self.map.is_empty() {
            return Ok(());
        }
        let mut keys: Vec<&str> = self.map.keys().map(String::as_str).collect();
        keys.sort_unstable();
        Err(format!(
            "line {}: unknown argument(s): {}",
            self.line_no,
            keys.join(", ")
        ))
    }

    fn f64(&mut self, key: &str, default: f64) -> Result<f64, String> {
        match self.map.remove(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("line {}: bad number for {key}: `{v}`", self.line_no)),
        }
    }

    fn u64(&mut self, key: &str, default: u64) -> Result<u64, String> {
        match self.map.remove(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("line {}: bad integer for {key}: `{v}`", self.line_no)),
        }
    }

    fn u32(&mut self, key: &str, default: u32) -> Result<u32, String> {
        let v = self.u64(key, default as u64)?;
        u32::try_from(v)
            .map_err(|_| format!("line {}: {key}={v} exceeds the u32 range", self.line_no))
    }

    fn req_u32(&mut self, key: &str) -> Result<u32, String> {
        let v = self.req_u64(key)?;
        u32::try_from(v)
            .map_err(|_| format!("line {}: {key}={v} exceeds the u32 range", self.line_no))
    }

    fn req_u64(&mut self, key: &str) -> Result<u64, String> {
        self.map
            .remove(key)
            .ok_or_else(|| format!("line {}: missing {key}=", self.line_no))?
            .parse()
            .map_err(|_| format!("line {}: bad integer for {key}", self.line_no))
    }

    fn req_f64(&mut self, key: &str) -> Result<f64, String> {
        self.map
            .remove(key)
            .ok_or_else(|| format!("line {}: missing {key}=", self.line_no))?
            .parse()
            .map_err(|_| format!("line {}: bad number for {key}", self.line_no))
    }

    fn turning(&mut self) -> Result<TurningProbabilities, String> {
        match self.map.remove("turning") {
            None => Ok(TurningProbabilities::PAPER),
            Some(v) => {
                let pairs: Vec<&str> = v.split(',').collect();
                if pairs.len() != 4 {
                    return Err(format!(
                        "line {}: turning= needs 4 right:left pairs",
                        self.line_no
                    ));
                }
                let mut right_left = [(0.0f64, 0.0f64); 4];
                for (i, pair) in pairs.iter().enumerate() {
                    let (r, l) = pair.split_once(':').ok_or_else(|| {
                        format!("line {}: turning pair `{pair}` needs r:l", self.line_no)
                    })?;
                    right_left[i] = (
                        r.parse()
                            .map_err(|_| format!("line {}: bad turning number", self.line_no))?,
                        l.parse()
                            .map_err(|_| format!("line {}: bad turning number", self.line_no))?,
                    );
                }
                TurningProbabilities::new(right_left)
                    .map_err(|e| format!("line {}: {e}", self.line_no))
            }
        }
    }
}

fn render_turning(t: &TurningProbabilities) -> String {
    use utilbp_core::standard::Approach;
    let parts: Vec<String> = Approach::ALL
        .iter()
        .map(|&s| format!("{}:{}", t.right(s), t.left(s)))
        .collect();
    parts.join(",")
}

fn parse_pattern(line_no: usize, v: &str) -> Result<Pattern, String> {
    match v {
        "I" => Ok(Pattern::I),
        "II" => Ok(Pattern::II),
        "III" => Ok(Pattern::III),
        "IV" => Ok(Pattern::IV),
        _ => Err(format!("line {line_no}: unknown pattern `{v}`")),
    }
}

/// Parses a scenario file.
///
/// # Errors
///
/// Returns a message naming the offending line on the first syntax or
/// semantic error. (Structural validation against the built network is
/// separate — see [`ScenarioSpec::validate`].)
pub fn parse_scenario(text: &str) -> Result<ScenarioSpec, String> {
    let mut name = None;
    let mut seed = 0u64;
    let mut horizon = None;
    let mut topology = None;
    let mut demand = DemandProfile::Constant;
    let mut events = Vec::new();
    let mut replan = ReplanPolicy::Off;
    let mut watchdog = None;

    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let directive = parts.next().expect("non-empty line has a first token");
        let rest: Vec<&str> = parts.collect();
        match directive {
            "scenario" => {
                name = Some(rest.join(" "));
            }
            "seed" => {
                seed = rest
                    .first()
                    .ok_or_else(|| format!("line {line_no}: seed needs a value"))?
                    .parse()
                    .map_err(|_| format!("line {line_no}: bad seed"))?;
            }
            "horizon" => {
                let h: u64 = rest
                    .first()
                    .ok_or_else(|| format!("line {line_no}: horizon needs a value"))?
                    .parse()
                    .map_err(|_| format!("line {line_no}: bad horizon"))?;
                horizon = Some(Ticks::new(h));
            }
            "topology" => {
                let kind = *rest
                    .first()
                    .ok_or_else(|| format!("line {line_no}: topology needs a kind"))?;
                let mut args = Args::parse(line_no, &rest[1..])?;
                let spec = parse_topology(line_no, kind, &mut args)?;
                args.finish()?;
                spec.validate()
                    .map_err(|e| format!("line {line_no}: {e}"))?;
                topology = Some(spec);
            }
            "demand" => {
                let kind = *rest
                    .first()
                    .ok_or_else(|| format!("line {line_no}: demand needs a kind"))?;
                let mut args = Args::parse(line_no, &rest[1..])?;
                demand = parse_demand(line_no, kind, &mut args)?;
                args.finish()?;
                demand
                    .validate()
                    .map_err(|e| format!("line {line_no}: {e}"))?;
            }
            "replan" => {
                replan = match rest.first().copied() {
                    Some(kind @ ("off" | "at-next-junction")) => {
                        if rest.len() > 1 {
                            return Err(format!(
                                "line {line_no}: replan {kind} takes no arguments"
                            ));
                        }
                        if kind == "off" {
                            ReplanPolicy::Off
                        } else {
                            ReplanPolicy::AtNextJunction
                        }
                    }
                    Some("congestion") => {
                        let mut args = Args::parse(line_no, &rest[1..])?;
                        let policy = ReplanPolicy::Congestion {
                            period: args.u64("period", 32)?,
                            threshold: args.f64("threshold", 0.75)?,
                            hysteresis: args.f64("hysteresis", 0.1)?,
                        };
                        args.finish()?;
                        policy
                            .validate()
                            .map_err(|e| format!("line {line_no}: {e}"))?;
                        policy
                    }
                    Some(other) => {
                        return Err(format!("line {line_no}: unknown replan policy `{other}`"))
                    }
                    None => return Err(format!("line {line_no}: replan needs a policy")),
                };
            }
            "event" => {
                let kind = *rest
                    .first()
                    .ok_or_else(|| format!("line {line_no}: event needs a kind"))?;
                let mut args = Args::parse(line_no, &rest[1..])?;
                events.push(parse_event(line_no, kind, &mut args)?);
                args.finish()?;
            }
            "fault" => {
                let kind = *rest
                    .first()
                    .ok_or_else(|| format!("line {line_no}: fault needs a kind"))?;
                let mut args = Args::parse(line_no, &rest[1..])?;
                events.push(parse_fault(line_no, kind, &mut args)?);
                args.finish()?;
            }
            "watchdog" => {
                let d = WatchdogConfig::default();
                let mut args = Args::parse(line_no, &rest)?;
                let config = WatchdogConfig {
                    freeze_ticks: args.u64("freeze-ticks", d.freeze_ticks)?,
                    max_delta: args.u32("max-delta", d.max_delta)?,
                    recovery_ticks: args.u64("recovery-ticks", d.recovery_ticks)?,
                };
                args.finish()?;
                config
                    .validate()
                    .map_err(|e| format!("line {line_no}: {e}"))?;
                watchdog = Some(config);
            }
            other => return Err(format!("line {line_no}: unknown directive `{other}`")),
        }
    }

    Ok(ScenarioSpec {
        name: name.ok_or("missing `scenario <name>` line")?,
        seed,
        horizon: horizon.ok_or("missing `horizon <ticks>` line")?,
        topology: topology.ok_or("missing `topology` line")?,
        demand,
        events,
        replan,
        watchdog,
    })
}

fn parse_topology(line_no: usize, kind: &str, args: &mut Args) -> Result<TopologySpec, String> {
    match kind {
        "grid" => {
            let d = GridSpec::default();
            let pattern = match args.map.remove("pattern") {
                None => Pattern::II,
                Some(v) => parse_pattern(line_no, &v)?,
            };
            Ok(TopologySpec::Grid {
                spec: GridSpec {
                    rows: args.u32("rows", d.rows)?,
                    cols: args.u32("cols", d.cols)?,
                    road_length_m: args.f64("length", d.road_length_m)?,
                    capacity: args.u32("capacity", d.capacity)?,
                    service_rate: args.f64("service-rate", d.service_rate)?,
                    free_speed_mps: args.f64("free-speed", d.free_speed_mps)?,
                },
                pattern,
            })
        }
        "arterial" => {
            let d = ArterialSpec::default();
            Ok(TopologySpec::Arterial(ArterialSpec {
                intersections: args.u32("intersections", d.intersections)?,
                arterial_length_m: args.f64("arterial-length", d.arterial_length_m)?,
                arterial_capacity: args.u32("arterial-capacity", d.arterial_capacity)?,
                side_length_m: args.f64("side-length", d.side_length_m)?,
                side_capacity: args.u32("side-capacity", d.side_capacity)?,
                service_rate: args.f64("service-rate", d.service_rate)?,
                arterial_inter_arrival_s: args.f64("arterial-gap", d.arterial_inter_arrival_s)?,
                side_inter_arrival_s: args.f64("side-gap", d.side_inter_arrival_s)?,
                turning: args.turning()?,
            }))
        }
        "ring" => {
            let d = RingSpec::default();
            Ok(TopologySpec::Ring(RingSpec {
                intersections: args.u32("intersections", d.intersections)?,
                ring_length_m: args.f64("ring-length", d.ring_length_m)?,
                ring_capacity: args.u32("ring-capacity", d.ring_capacity)?,
                spoke_length_m: args.f64("spoke-length", d.spoke_length_m)?,
                spoke_capacity: args.u32("spoke-capacity", d.spoke_capacity)?,
                service_rate: args.f64("service-rate", d.service_rate)?,
                outer_inter_arrival_s: args.f64("outer-gap", d.outer_inter_arrival_s)?,
                inner_inter_arrival_s: args.f64("inner-gap", d.inner_inter_arrival_s)?,
                turning: args.turning()?,
            }))
        }
        "asym-grid" => {
            let d = AsymmetricGridSpec::default();
            Ok(TopologySpec::AsymmetricGrid(AsymmetricGridSpec {
                rows: args.u32("rows", d.rows)?,
                cols: args.u32("cols", d.cols)?,
                ew_length_m: args.f64("ew-length", d.ew_length_m)?,
                ew_capacity: args.u32("ew-capacity", d.ew_capacity)?,
                ns_length_m: args.f64("ns-length", d.ns_length_m)?,
                ns_capacity: args.u32("ns-capacity", d.ns_capacity)?,
                service_rate: args.f64("service-rate", d.service_rate)?,
                inter_arrival_s: [
                    args.f64("north-gap", d.inter_arrival_s[0])?,
                    args.f64("east-gap", d.inter_arrival_s[1])?,
                    args.f64("south-gap", d.inter_arrival_s[2])?,
                    args.f64("west-gap", d.inter_arrival_s[3])?,
                ],
                turning: args.turning()?,
            }))
        }
        other => Err(format!("line {line_no}: unknown topology `{other}`")),
    }
}

fn parse_demand(line_no: usize, kind: &str, args: &mut Args) -> Result<DemandProfile, String> {
    match kind {
        "constant" => Ok(DemandProfile::Constant),
        "rush-hour" => Ok(DemandProfile::RushHour {
            ramp: args.u64("ramp", 200)?,
            peak: args.u64("peak", 200)?,
            peak_factor: args.f64("factor", 2.0)?,
        }),
        "pulse" => Ok(DemandProfile::Pulse {
            from: args.u64("from", 0)?,
            len: args.req_u64("len")?,
            factor: args.req_f64("factor")?,
        }),
        "day" => Ok(DemandProfile::Day {
            peak_factor: args.f64("factor", 2.0)?,
        }),
        other => Err(format!("line {line_no}: unknown demand profile `{other}`")),
    }
}

fn parse_event(line_no: usize, kind: &str, args: &mut Args) -> Result<ScenarioEvent, String> {
    match kind {
        "close" => Ok(ScenarioEvent::CloseRoad {
            road: RoadId::new(args.req_u32("road")?),
            at: Tick::new(args.req_u64("at")?),
        }),
        "reopen" => Ok(ScenarioEvent::ReopenRoad {
            road: RoadId::new(args.req_u32("road")?),
            at: Tick::new(args.req_u64("at")?),
        }),
        "surge" => Ok(ScenarioEvent::Surge {
            factor: args.req_f64("factor")?,
            from: Tick::new(args.req_u64("from")?),
            until: Tick::new(args.req_u64("until")?),
        }),
        "sensor-fault" => Ok(ScenarioEvent::SensorFault {
            config: SensorFaultConfig {
                dropout: args.f64("dropout", 0.0)?,
                noise: args.f64("noise", 0.0)?,
                noise_magnitude: args.u32("noise-mag", 0)?,
                freeze: args.f64("freeze", 0.0)?,
                stuck_at: args.f64("stuck-at", 0.0)?,
                stuck_at_value: args.u32("stuck-value", 0)?,
                frozen: args.f64("frozen", 0.0)?,
            },
            from: Tick::new(args.req_u64("from")?),
            until: Tick::new(args.req_u64("until")?),
        }),
        other => Err(format!("line {line_no}: unknown event `{other}`")),
    }
}

/// Parses a `fault` directive: `actuator` takes the full actuation fault
/// model, `comms` the channel-only subset (drop/delay — a comms fault
/// cannot jam the actuator hardware). Both produce the same event; the
/// renderer picks the narrowest directive that preserves the config.
fn parse_fault(line_no: usize, kind: &str, args: &mut Args) -> Result<ScenarioEvent, String> {
    let config = match kind {
        "actuator" => ActuationFaultConfig {
            stuck: args.f64("stuck", 0.0)?,
            stuck_ticks: args.u64("stuck-ticks", 0)?,
            drop: args.f64("drop", 0.0)?,
            delay: args.f64("delay", 0.0)?,
            delay_ticks: args.u64("delay-ticks", 0)?,
        },
        "comms" => ActuationFaultConfig {
            stuck: 0.0,
            stuck_ticks: 0,
            drop: args.f64("drop", 0.0)?,
            delay: args.f64("delay", 0.0)?,
            delay_ticks: args.u64("delay-ticks", 0)?,
        },
        other => Err(format!("line {line_no}: unknown fault kind `{other}`"))?,
    };
    config
        .validate()
        .map_err(|e| format!("line {line_no}: {e}"))?;
    Ok(ScenarioEvent::ActuationFault {
        config,
        from: Tick::new(args.req_u64("from")?),
        until: Tick::new(args.req_u64("until")?),
    })
}

impl ScenarioSpec {
    /// Renders the spec in the scenario text format; the output parses
    /// back to an equal spec.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("scenario {}\n", self.name));
        out.push_str(&format!("seed {}\n", self.seed));
        out.push_str(&format!("horizon {}\n", self.horizon.count()));
        match &self.topology {
            TopologySpec::Grid { spec, pattern } => {
                out.push_str(&format!(
                    "topology grid rows={} cols={} pattern={pattern} length={} capacity={} \
                     service-rate={} free-speed={}\n",
                    spec.rows,
                    spec.cols,
                    spec.road_length_m,
                    spec.capacity,
                    spec.service_rate,
                    spec.free_speed_mps,
                ));
            }
            TopologySpec::Arterial(s) => {
                out.push_str(&format!(
                    "topology arterial intersections={} arterial-length={} arterial-capacity={} \
                     side-length={} side-capacity={} service-rate={} arterial-gap={} side-gap={} \
                     turning={}\n",
                    s.intersections,
                    s.arterial_length_m,
                    s.arterial_capacity,
                    s.side_length_m,
                    s.side_capacity,
                    s.service_rate,
                    s.arterial_inter_arrival_s,
                    s.side_inter_arrival_s,
                    render_turning(&s.turning),
                ));
            }
            TopologySpec::Ring(s) => {
                out.push_str(&format!(
                    "topology ring intersections={} ring-length={} ring-capacity={} \
                     spoke-length={} spoke-capacity={} service-rate={} outer-gap={} inner-gap={} \
                     turning={}\n",
                    s.intersections,
                    s.ring_length_m,
                    s.ring_capacity,
                    s.spoke_length_m,
                    s.spoke_capacity,
                    s.service_rate,
                    s.outer_inter_arrival_s,
                    s.inner_inter_arrival_s,
                    render_turning(&s.turning),
                ));
            }
            TopologySpec::AsymmetricGrid(s) => {
                out.push_str(&format!(
                    "topology asym-grid rows={} cols={} ew-length={} ew-capacity={} ns-length={} \
                     ns-capacity={} service-rate={} north-gap={} east-gap={} south-gap={} \
                     west-gap={} turning={}\n",
                    s.rows,
                    s.cols,
                    s.ew_length_m,
                    s.ew_capacity,
                    s.ns_length_m,
                    s.ns_capacity,
                    s.service_rate,
                    s.inter_arrival_s[0],
                    s.inter_arrival_s[1],
                    s.inter_arrival_s[2],
                    s.inter_arrival_s[3],
                    render_turning(&s.turning),
                ));
            }
        }
        match self.demand {
            DemandProfile::Constant => out.push_str("demand constant\n"),
            DemandProfile::RushHour {
                ramp,
                peak,
                peak_factor,
            } => out.push_str(&format!(
                "demand rush-hour ramp={ramp} peak={peak} factor={peak_factor}\n"
            )),
            DemandProfile::Pulse { from, len, factor } => {
                out.push_str(&format!(
                    "demand pulse from={from} len={len} factor={factor}\n"
                ));
            }
            DemandProfile::Day { peak_factor } => {
                out.push_str(&format!("demand day factor={peak_factor}\n"));
            }
        }
        // `off` is the parse default; only the non-default policy needs a
        // line, which keeps pre-replanning scenario files valid as-is.
        if self.replan != ReplanPolicy::Off {
            out.push_str(&format!("replan {}\n", self.replan));
        }
        // No watchdog is the parse default; only an installed watchdog
        // needs a line, which keeps pre-fault-plane files valid as-is.
        if let Some(w) = &self.watchdog {
            out.push_str(&format!(
                "watchdog freeze-ticks={} max-delta={} recovery-ticks={}\n",
                w.freeze_ticks, w.max_delta, w.recovery_ticks,
            ));
        }
        for event in &self.events {
            match event {
                ScenarioEvent::CloseRoad { road, at } => out.push_str(&format!(
                    "event close road={} at={}\n",
                    road.index(),
                    at.index()
                )),
                ScenarioEvent::ReopenRoad { road, at } => out.push_str(&format!(
                    "event reopen road={} at={}\n",
                    road.index(),
                    at.index()
                )),
                ScenarioEvent::Surge {
                    factor,
                    from,
                    until,
                } => out.push_str(&format!(
                    "event surge factor={factor} from={} until={}\n",
                    from.index(),
                    until.index()
                )),
                ScenarioEvent::SensorFault {
                    config,
                    from,
                    until,
                } => out.push_str(&format!(
                    "event sensor-fault from={} until={} dropout={} noise={} noise-mag={} \
                     freeze={} stuck-at={} stuck-value={} frozen={}\n",
                    from.index(),
                    until.index(),
                    config.dropout,
                    config.noise,
                    config.noise_magnitude,
                    config.freeze,
                    config.stuck_at,
                    config.stuck_at_value,
                    config.frozen,
                )),
                ScenarioEvent::ActuationFault {
                    config,
                    from,
                    until,
                } => {
                    // The narrowest directive that preserves the config:
                    // a channel-only fault renders as `fault comms`, so
                    // its round trip cannot resurrect actuator keys.
                    if config.stuck == 0.0 && config.stuck_ticks == 0 {
                        out.push_str(&format!(
                            "fault comms from={} until={} drop={} delay={} delay-ticks={}\n",
                            from.index(),
                            until.index(),
                            config.drop,
                            config.delay,
                            config.delay_ticks,
                        ));
                    } else {
                        out.push_str(&format!(
                            "fault actuator from={} until={} stuck={} stuck-ticks={} drop={} \
                             delay={} delay-ticks={}\n",
                            from.index(),
                            until.index(),
                            config.stuck,
                            config.stuck_ticks,
                            config.drop,
                            config.delay,
                            config.delay_ticks,
                        ));
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::library::builtin_scenarios;

    #[test]
    fn builtins_round_trip_through_the_text_format() {
        for spec in builtin_scenarios() {
            let text = spec.to_text();
            let parsed =
                parse_scenario(&text).unwrap_or_else(|e| panic!("{}: {e}\n{text}", spec.name));
            assert_eq!(parsed, spec, "round trip of {}", spec.name);
        }
        // The library's replanning builtin pins the `replan` line through
        // the round trip.
        let replanned = builtin_scenarios()
            .into_iter()
            .find(|s| s.replan == ReplanPolicy::AtNextJunction)
            .expect("a replanning builtin exists");
        assert!(replanned.to_text().contains("replan at-next-junction"));
    }

    #[test]
    fn replan_directive_round_trips_and_rejects_unknown_policies() {
        let base = "scenario x\nhorizon 10\ntopology grid\n";
        assert_eq!(
            parse_scenario(base).unwrap().replan,
            ReplanPolicy::Off,
            "omitted replan defaults to off"
        );
        let off = parse_scenario(&format!("{base}replan off\n")).unwrap();
        assert_eq!(off.replan, ReplanPolicy::Off);
        // `off` is the default, so rendering omits the line entirely.
        assert!(!off.to_text().contains("replan"));
        let on = parse_scenario(&format!("{base}replan at-next-junction\n")).unwrap();
        assert_eq!(on.replan, ReplanPolicy::AtNextJunction);
        assert_eq!(parse_scenario(&on.to_text()).unwrap(), on);
        let bad = parse_scenario(&format!("{base}replan sometimes\n"));
        let err = bad.unwrap_err();
        assert!(err.contains("unknown replan policy"), "{err}");
        assert!(err.contains("line 4"), "{err}");
        // A bare `replan` must error like every other value-taking
        // directive, not silently mean `off`.
        let bare = parse_scenario(&format!("{base}replan\n"));
        assert!(bare.unwrap_err().contains("needs a policy"));
        // Argument-free policies reject stray arguments rather than
        // silently dropping them.
        let stray = parse_scenario(&format!("{base}replan off period=5\n"));
        assert!(stray.unwrap_err().contains("takes no arguments"));
    }

    #[test]
    fn congestion_replan_directive_round_trips_and_validates() {
        let base = "scenario x\nhorizon 10\ntopology grid\n";
        let spec = parse_scenario(&format!(
            "{base}replan congestion period=40 threshold=0.6 hysteresis=0.15\n"
        ))
        .unwrap();
        assert_eq!(
            spec.replan,
            ReplanPolicy::Congestion {
                period: 40,
                threshold: 0.6,
                hysteresis: 0.15,
            }
        );
        // Rendering goes through the policy's Display form and parses
        // back to an equal spec.
        let text = spec.to_text();
        assert!(
            text.contains("replan congestion period=40 threshold=0.6 hysteresis=0.15"),
            "{text}"
        );
        assert_eq!(parse_scenario(&text).unwrap(), spec);
        // Omitted keys take the documented defaults.
        let defaulted = parse_scenario(&format!("{base}replan congestion\n")).unwrap();
        assert_eq!(
            defaulted.replan,
            ReplanPolicy::Congestion {
                period: 32,
                threshold: 0.75,
                hysteresis: 0.1,
            }
        );
        assert_eq!(parse_scenario(&defaulted.to_text()).unwrap(), defaulted);

        // Error paths: typo'd keys, non-numeric values, and parameter
        // combinations the policy itself rejects — all with line numbers.
        let typo = parse_scenario(&format!("{base}replan congestion perid=40\n"));
        let err = typo.unwrap_err();
        assert!(
            err.contains("unknown argument") && err.contains("perid"),
            "{err}"
        );
        let err = parse_scenario(&format!("{base}replan congestion threshold=hot\n")).unwrap_err();
        assert!(err.contains("bad number"), "{err}");
        let err = parse_scenario(&format!("{base}replan congestion period=0\n")).unwrap_err();
        assert!(err.contains("period") && err.contains("line 4"), "{err}");
        let err = parse_scenario(&format!(
            "{base}replan congestion threshold=0.5 hysteresis=0.5\n"
        ))
        .unwrap_err();
        assert!(err.contains("hysteresis"), "{err}");
        let err = parse_scenario(&format!("{base}replan congestion threshold=-1\n")).unwrap_err();
        assert!(err.contains("threshold"), "{err}");
    }

    #[test]
    fn fault_and_watchdog_directives_round_trip() {
        let base = "scenario x\nhorizon 500\ntopology grid\n";
        // Full actuator fault.
        let spec = parse_scenario(&format!(
            "{base}fault actuator from=100 until=400 stuck=0.02 stuck-ticks=40 drop=0.1 \
             delay=0.1 delay-ticks=4\n"
        ))
        .unwrap();
        let (config, from, until) = spec.actuation_fault().expect("window parsed");
        assert_eq!(config.stuck, 0.02);
        assert_eq!(config.stuck_ticks, 40);
        assert_eq!(config.drop, 0.1);
        assert_eq!((from.index(), until.index()), (100, 400));
        let text = spec.to_text();
        assert!(text.contains("fault actuator"), "{text}");
        assert_eq!(parse_scenario(&text).unwrap(), spec);
        // Channel-only faults render through the narrower comms form.
        let spec = parse_scenario(&format!(
            "{base}fault comms from=50 until=90 drop=0.25 delay=0.1 delay-ticks=2\n"
        ))
        .unwrap();
        let (config, ..) = spec.actuation_fault().unwrap();
        assert_eq!(config.stuck, 0.0);
        let text = spec.to_text();
        assert!(
            text.contains("fault comms") && !text.contains("stuck"),
            "{text}"
        );
        assert_eq!(parse_scenario(&text).unwrap(), spec);
        // Watchdog line round-trips; omitted means no watchdog.
        let spec = parse_scenario(&format!(
            "{base}watchdog freeze-ticks=30 max-delta=20 recovery-ticks=8\n"
        ))
        .unwrap();
        let w = spec.watchdog.expect("watchdog parsed");
        assert_eq!((w.freeze_ticks, w.max_delta, w.recovery_ticks), (30, 20, 8));
        assert_eq!(parse_scenario(&spec.to_text()).unwrap(), spec);
        assert!(parse_scenario(base).unwrap().watchdog.is_none());
        // Extended sensor-fault keys round-trip too.
        let spec = parse_scenario(&format!(
            "{base}event sensor-fault from=10 until=90 frozen=0.5 stuck-at=0.1 stuck-value=7\n"
        ))
        .unwrap();
        let (config, ..) = spec.sensor_fault().unwrap();
        assert_eq!(config.frozen, 0.5);
        assert_eq!(config.stuck_at, 0.1);
        assert_eq!(config.stuck_at_value, 7);
        assert_eq!(parse_scenario(&spec.to_text()).unwrap(), spec);

        // Error paths: unknown fault kinds, comms rejecting actuator
        // keys, invalid configs and watchdogs — all with line numbers.
        let err = parse_scenario(&format!("{base}fault gremlin from=0 until=9\n")).unwrap_err();
        assert!(
            err.contains("unknown fault kind") && err.contains("line 4"),
            "{err}"
        );
        let err = parse_scenario(&format!(
            "{base}fault comms from=0 until=9 stuck=0.5 stuck-ticks=9\n"
        ))
        .unwrap_err();
        assert!(
            err.contains("unknown argument") && err.contains("stuck"),
            "{err}"
        );
        let err = parse_scenario(&format!("{base}fault actuator from=0 until=9 stuck=0.5\n"))
            .unwrap_err();
        assert!(err.contains("stuck-ticks"), "{err}");
        let err = parse_scenario(&format!("{base}fault comms drop=0.5 until=9\n")).unwrap_err();
        assert!(err.contains("from="), "{err}");
        let err = parse_scenario(&format!("{base}watchdog freeze-ticks=0\n")).unwrap_err();
        assert!(
            err.contains("freeze-ticks") && err.contains("line 4"),
            "{err}"
        );
        let err = parse_scenario(&format!("{base}watchdog max-deltas=3\n")).unwrap_err();
        assert!(err.contains("unknown argument"), "{err}");
    }

    #[test]
    fn fidelity_lines_are_rejected_with_their_line_number() {
        // The microscopic plant has one car-following contract; a
        // `fidelity` line, whatever its value, is an unknown directive.
        let base = "scenario x\nhorizon 10\ntopology grid\n";
        for line in ["fidelity batched", "fidelity exact", "fidelity"] {
            let err = parse_scenario(&format!("{base}{line}\n")).unwrap_err();
            assert_eq!(err, "line 4: unknown directive `fidelity`");
        }
    }

    #[test]
    fn parses_a_hand_written_file() {
        let text = "\
# rush hour on a short corridor
scenario my-corridor
seed 7
horizon 500
topology arterial intersections=3
demand rush-hour ramp=100 peak=100 factor=2.5
event surge factor=2 from=50 until=80
event close road=0 at=100
event reopen road=0 at=200
";
        let spec = parse_scenario(text).expect("file parses");
        assert_eq!(spec.name, "my-corridor");
        assert_eq!(spec.seed, 7);
        assert_eq!(spec.horizon.count(), 500);
        assert!(matches!(
            spec.topology,
            TopologySpec::Arterial(ArterialSpec {
                intersections: 3,
                ..
            })
        ));
        assert_eq!(spec.events.len(), 3);
    }

    #[test]
    fn reports_errors_with_line_numbers() {
        let missing = parse_scenario("seed 1\nhorizon 10\ntopology grid\n");
        assert!(missing.unwrap_err().contains("scenario"));
        let bad = parse_scenario("scenario x\nhorizon 10\ntopology warp\n");
        assert!(bad.unwrap_err().contains("line 3"));
        let bad = parse_scenario("scenario x\nhorizon ten\ntopology grid\n");
        assert!(bad.unwrap_err().contains("line 2"));
        let bad = parse_scenario("scenario x\nhorizon 10\ntopology grid\nevent close road=1\n");
        assert!(bad.unwrap_err().contains("at="));
    }

    #[test]
    fn degenerate_topology_and_demand_parameters_are_errors_not_panics() {
        // Each parameter would reach an assert in a network builder or
        // the demand schedule inside `ScenarioEngine::new`, which restore
        // also runs on the spec text a capture embeds. Parsing names the
        // line; an engine built from an unvalidated spec refuses it too.
        let cases = [
            ("demand pulse len=0 factor=2", "len"),
            ("demand rush-hour ramp=2", "ramp"),
            ("demand rush-hour factor=nan", "factor"),
            ("demand day factor=0", "factor"),
            ("topology grid rows=0", "rows"),
            ("topology grid rows=0 cols=0", "rows"),
            ("topology grid length=0", "length"),
            ("topology grid length=-5", "length"),
            ("topology grid capacity=0", "capacity"),
            ("topology grid service-rate=0", "service-rate"),
            ("topology asym-grid rows=0", "rows"),
            ("topology asym-grid north-gap=0", "north-gap"),
            ("topology arterial intersections=0", "intersections"),
            ("topology arterial arterial-gap=0", "arterial-gap"),
            ("topology arterial side-capacity=0", "side-capacity"),
            ("topology ring intersections=1", "intersections"),
            // Past the longest route a weight can represent; these
            // panicked, or overflowed the stack, while the network was
            // built.
            ("topology grid rows=2000 cols=1", "rows + cols"),
            ("topology grid rows=70000 cols=1", "rows + cols"),
            ("topology asym-grid rows=700 cols=1", "rows + cols"),
            ("topology arterial intersections=2000", "intersections"),
        ];
        let template = "scenario x\nhorizon 50\ntopology grid\n";
        for (line, key) in cases {
            let no_panic = |result: std::thread::Result<Result<(), String>>| {
                let err = result.unwrap_or_else(|_| panic!("{line} panicked"));
                err.expect_err(line)
            };
            let text = format!("{template}{line}\n").replace("topology grid\ntopology", "topology");
            let line_no = text.lines().count();
            let err = no_panic(std::panic::catch_unwind(|| parse_scenario(&text).map(drop)));
            assert!(
                err.starts_with(&format!("line {line_no}: ")),
                "{line}: {err}"
            );
            assert!(err.contains(key), "{line}: {err}");

            let mut spec = parse_scenario(template).expect("the template parses");
            let words: Vec<&str> = line.split_whitespace().collect();
            let mut args = Args::parse(line_no, &words[2..]).expect("arguments parse");
            match words[0] {
                "topology" => spec.topology = parse_topology(line_no, words[1], &mut args).unwrap(),
                _ => spec.demand = parse_demand(line_no, words[1], &mut args).unwrap(),
            }
            let controller = |_: usize| -> Box<dyn utilbp_core::SignalController> {
                Box::new(utilbp_core::UtilBp::paper())
            };
            let config = crate::EngineConfig::new(crate::Backend::Queueing);
            let err = no_panic(std::panic::catch_unwind(|| {
                crate::ScenarioEngine::new(spec, config, &controller).map(drop)
            }));
            assert!(err.contains(key), "{line}: {err}");
        }
    }

    #[test]
    fn rejects_unknown_and_out_of_range_arguments() {
        // A typo'd key must not silently fall back to a default.
        let typo = parse_scenario("scenario x\nhorizon 10\ntopology grid row=5\n");
        let err = typo.unwrap_err();
        assert!(err.contains("unknown argument"), "{err}");
        assert!(err.contains("row"), "{err}");
        let typo =
            parse_scenario("scenario x\nhorizon 10\ntopology grid\ndemand rush-hour facter=3\n");
        assert!(typo.unwrap_err().contains("facter"));
        // Out-of-u32-range ids must error, not wrap.
        let wrap = parse_scenario(
            "scenario x\nhorizon 10\ntopology grid\nevent close road=4294967296 at=1\n",
        );
        assert!(wrap.unwrap_err().contains("u32 range"));
    }
}
