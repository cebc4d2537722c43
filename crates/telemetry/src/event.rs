//! Typed, tick-stamped events and the recorders that capture them.

use utilbp_core::Tick;

/// What triggered a routing-response pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplanTrigger {
    /// A road closed: journeys headed into it were offered a detour.
    Closure,
    /// A road reopened: diverted vehicles were offered their route back.
    Reopen,
    /// The periodic congestion monitor diverted journeys headed into
    /// congested roads.
    Congestion,
    /// The congested set emptied: congestion-diverted vehicles were
    /// offered their route back.
    CongestionCleared,
}

impl ReplanTrigger {
    /// The trigger's canonical name (what the JSONL sink records).
    pub(crate) fn name(self) -> &'static str {
        match self {
            ReplanTrigger::Closure => "closure",
            ReplanTrigger::Reopen => "reopen",
            ReplanTrigger::Congestion => "congestion",
            ReplanTrigger::CongestionCleared => "congestion_cleared",
        }
    }
}

/// One observable occurrence in a run (see the crate docs for the full
/// taxonomy). Road and intersection identities are raw indices so the
/// telemetry plane sits below the network layer in the dependency graph.
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// An intersection's signal decision changed. `phase` is the
    /// decision's trace value: 0 for a transition (amber / all-red),
    /// `1..=|C|` for a control phase.
    PhaseChange {
        /// Intersection index.
        intersection: u32,
        /// The new decision's trace value.
        phase: u32,
    },
    /// A road closed to entering traffic.
    RoadClosed {
        /// Road index.
        road: u32,
    },
    /// A closed road reopened.
    RoadReopened {
        /// Road index.
        road: u32,
    },
    /// The demand-surge multiplier changed (1 restores the baseline).
    Surge {
        /// The new multiplier.
        factor: f64,
    },
    /// The sensor-fault window opened (`active: true`) or shut.
    SensorFaultWindow {
        /// Whether faults are injected from this tick on.
        active: bool,
    },
    /// The actuation-fault window opened or shut.
    ActuationFaultWindow {
        /// Whether faults are injected from this tick on.
        active: bool,
    },
    /// An intersection's watchdog handed control to the fixed-time
    /// fallback.
    WatchdogActivated {
        /// Intersection index.
        intersection: u32,
    },
    /// An intersection's watchdog handed control back to the adaptive
    /// controller after a full plausible streak.
    WatchdogRecovered {
        /// Intersection index.
        intersection: u32,
    },
    /// A routing-response pass ran.
    Replan {
        /// What triggered the pass.
        trigger: ReplanTrigger,
        /// Vehicles diverted onto a detour by this pass.
        diverted: u64,
        /// Vehicles restored onto their dominating route by this pass.
        restored: u64,
    },
    /// An observe-mode invariant guard recorded a violation instead of
    /// panicking.
    GuardViolation {
        /// The violated check (`conservation`, `sensors`, …).
        check: String,
        /// The guard's diagnostic.
        message: String,
    },
    /// A durable checkpoint of the whole run was captured.
    Checkpoint {
        /// Snapshot size in bytes.
        bytes: u64,
        /// CRC-32 of the snapshot bytes (an end-to-end identity check:
        /// the restore drill logs the same value it verified).
        crc: u32,
    },
    /// The run was restored from a checkpoint (a recovery drill or a
    /// crash-recovery restart — not recorded for transparent resumes).
    Restore {
        /// Whether recovery had to fall back past a corrupted
        /// checkpoint to an older valid one.
        fallback: bool,
    },
}

impl EventKind {
    /// The kind's canonical snake-case name (the JSONL `kind` field).
    pub(crate) fn name(&self) -> &'static str {
        match self {
            EventKind::PhaseChange { .. } => "phase_change",
            EventKind::RoadClosed { .. } => "road_closed",
            EventKind::RoadReopened { .. } => "road_reopened",
            EventKind::Surge { .. } => "surge",
            EventKind::SensorFaultWindow { .. } => "sensor_fault_window",
            EventKind::ActuationFaultWindow { .. } => "actuation_fault_window",
            EventKind::WatchdogActivated { .. } => "watchdog_activated",
            EventKind::WatchdogRecovered { .. } => "watchdog_recovered",
            EventKind::Replan { .. } => "replan",
            EventKind::GuardViolation { .. } => "guard_violation",
            EventKind::Checkpoint { .. } => "checkpoint",
            EventKind::Restore { .. } => "restore",
        }
    }
}

/// A tick-stamped [`EventKind`].
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// The tick the event was observed at.
    pub tick: Tick,
    /// What happened.
    pub kind: EventKind,
}

/// Escapes a string for inclusion in the hand-rolled JSON output.
fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

impl Event {
    /// The event as one compact JSON object (keys in fixed order, so
    /// equal event streams render to byte-identical text).
    pub(crate) fn to_json(&self) -> String {
        let tick = self.tick.index();
        let kind = self.kind.name();
        match &self.kind {
            EventKind::PhaseChange {
                intersection,
                phase,
            } => format!(
                "{{\"tick\":{tick},\"kind\":\"{kind}\",\"intersection\":{intersection},\"phase\":{phase}}}"
            ),
            EventKind::RoadClosed { road } | EventKind::RoadReopened { road } => {
                format!("{{\"tick\":{tick},\"kind\":\"{kind}\",\"road\":{road}}}")
            }
            EventKind::Surge { factor } => {
                format!("{{\"tick\":{tick},\"kind\":\"{kind}\",\"factor\":{factor}}}")
            }
            EventKind::SensorFaultWindow { active }
            | EventKind::ActuationFaultWindow { active } => {
                format!("{{\"tick\":{tick},\"kind\":\"{kind}\",\"active\":{active}}}")
            }
            EventKind::WatchdogActivated { intersection }
            | EventKind::WatchdogRecovered { intersection } => {
                format!("{{\"tick\":{tick},\"kind\":\"{kind}\",\"intersection\":{intersection}}}")
            }
            EventKind::Replan {
                trigger,
                diverted,
                restored,
            } => format!(
                "{{\"tick\":{tick},\"kind\":\"{kind}\",\"trigger\":\"{}\",\"diverted\":{diverted},\"restored\":{restored}}}",
                trigger.name()
            ),
            EventKind::GuardViolation { check, message } => format!(
                "{{\"tick\":{tick},\"kind\":\"{kind}\",\"check\":\"{}\",\"message\":\"{}\"}}",
                escape_json(check),
                escape_json(message)
            ),
            EventKind::Checkpoint { bytes, crc } => {
                format!("{{\"tick\":{tick},\"kind\":\"{kind}\",\"bytes\":{bytes},\"crc\":{crc}}}")
            }
            EventKind::Restore { fallback } => {
                format!("{{\"tick\":{tick},\"kind\":\"{kind}\",\"fallback\":{fallback}}}")
            }
        }
    }

    /// Serializes the event into a durable word stream.
    pub(crate) fn save_state(&self, writer: &mut utilbp_core::state::StateWriter) {
        writer.push(self.tick.index());
        match &self.kind {
            EventKind::PhaseChange {
                intersection,
                phase,
            } => {
                writer.push(0);
                writer.push_u32(*intersection);
                writer.push_u32(*phase);
            }
            EventKind::RoadClosed { road } => {
                writer.push(1);
                writer.push_u32(*road);
            }
            EventKind::RoadReopened { road } => {
                writer.push(2);
                writer.push_u32(*road);
            }
            EventKind::Surge { factor } => {
                writer.push(3);
                writer.push_f64(*factor);
            }
            EventKind::SensorFaultWindow { active } => {
                writer.push(4);
                writer.push_bool(*active);
            }
            EventKind::ActuationFaultWindow { active } => {
                writer.push(5);
                writer.push_bool(*active);
            }
            EventKind::WatchdogActivated { intersection } => {
                writer.push(6);
                writer.push_u32(*intersection);
            }
            EventKind::WatchdogRecovered { intersection } => {
                writer.push(7);
                writer.push_u32(*intersection);
            }
            EventKind::Replan {
                trigger,
                diverted,
                restored,
            } => {
                writer.push(8);
                writer.push(match trigger {
                    ReplanTrigger::Closure => 0,
                    ReplanTrigger::Reopen => 1,
                    ReplanTrigger::Congestion => 2,
                    ReplanTrigger::CongestionCleared => 3,
                });
                writer.push(*diverted);
                writer.push(*restored);
            }
            EventKind::GuardViolation { check, message } => {
                writer.push(9);
                writer.push_str(check);
                writer.push_str(message);
            }
            EventKind::Checkpoint { bytes, crc } => {
                writer.push(10);
                writer.push(*bytes);
                writer.push_u32(*crc);
            }
            EventKind::Restore { fallback } => {
                writer.push(11);
                writer.push_bool(*fallback);
            }
        }
    }

    /// Deserializes one event from a durable word stream.
    ///
    /// # Errors
    ///
    /// Returns a [`StateError`](utilbp_core::state::StateError) on a
    /// truncated stream or an unknown kind/trigger tag.
    pub(crate) fn load_state(
        reader: &mut utilbp_core::state::StateReader<'_>,
    ) -> Result<Self, utilbp_core::state::StateError> {
        use utilbp_core::state::StateError;
        let tick = Tick::new(reader.take()?);
        let kind = match reader.take()? {
            0 => EventKind::PhaseChange {
                intersection: reader.take_u32()?,
                phase: reader.take_u32()?,
            },
            1 => EventKind::RoadClosed {
                road: reader.take_u32()?,
            },
            2 => EventKind::RoadReopened {
                road: reader.take_u32()?,
            },
            3 => EventKind::Surge {
                factor: reader.take_f64()?,
            },
            4 => EventKind::SensorFaultWindow {
                active: reader.take_bool()?,
            },
            5 => EventKind::ActuationFaultWindow {
                active: reader.take_bool()?,
            },
            6 => EventKind::WatchdogActivated {
                intersection: reader.take_u32()?,
            },
            7 => EventKind::WatchdogRecovered {
                intersection: reader.take_u32()?,
            },
            8 => EventKind::Replan {
                trigger: match reader.take()? {
                    0 => ReplanTrigger::Closure,
                    1 => ReplanTrigger::Reopen,
                    2 => ReplanTrigger::Congestion,
                    3 => ReplanTrigger::CongestionCleared,
                    word => {
                        return Err(StateError::Invalid {
                            what: "replan trigger tag",
                            word,
                        })
                    }
                },
                diverted: reader.take()?,
                restored: reader.take()?,
            },
            9 => EventKind::GuardViolation {
                check: reader.take_string()?,
                message: reader.take_string()?,
            },
            10 => EventKind::Checkpoint {
                bytes: reader.take()?,
                crc: reader.take_u32()?,
            },
            11 => EventKind::Restore {
                fallback: reader.take_bool()?,
            },
            word => {
                return Err(StateError::Invalid {
                    what: "event kind tag",
                    word,
                })
            }
        };
        Ok(Event { tick, kind })
    }
}

/// A bounded ring buffer of events: when full, the **oldest** event is
/// dropped (and counted), so the recorder keeps the most recent history
/// — flight-recorder semantics. Eviction depends only on the event
/// stream itself, so two identical runs drop identical events and
/// [`to_jsonl`](Self::to_jsonl) stays byte-deterministic.
///
/// # Examples
///
/// ```
/// use utilbp_core::Tick;
/// use utilbp_telemetry::{Event, EventKind, FlightRecorder};
///
/// let mut rec = FlightRecorder::new(2);
/// for k in 0..3 {
///     rec.record(Event {
///         tick: Tick::new(k),
///         kind: EventKind::RoadClosed { road: 0 },
///     });
/// }
/// assert_eq!(rec.events().count(), 2);
/// assert_eq!(rec.dropped(), 1);
/// assert_eq!(rec.events().next().unwrap().tick, Tick::new(1));
/// ```
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    buffer: std::collections::VecDeque<Event>,
    capacity: usize,
    recorded: u64,
    dropped: u64,
}

impl FlightRecorder {
    /// A recorder holding at most `capacity` events.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is 0.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "flight recorder capacity must be at least 1");
        Self::try_new(capacity).expect("flight recorder ring fits in memory")
    }

    /// [`new`](Self::new) for a capacity read from untrusted input, such
    /// as a checkpoint: `None` when `capacity` is 0 or its ring cannot be
    /// allocated, instead of a panic or an abort.
    pub fn try_new(capacity: usize) -> Option<Self> {
        let mut buffer = std::collections::VecDeque::new();
        buffer.try_reserve_exact(capacity).ok()?;
        (capacity > 0).then_some(FlightRecorder {
            buffer,
            capacity,
            recorded: 0,
            dropped: 0,
        })
    }

    /// Accepts one event, evicting the oldest when the ring is full.
    /// Events arrive in tick order; ties preserve emission order.
    pub fn record(&mut self, event: Event) {
        if self.buffer.len() == self.capacity {
            self.buffer.pop_front();
            self.dropped += 1;
        }
        self.buffer.push_back(event);
        self.recorded += 1;
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &Event> + '_ {
        self.buffer.iter()
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Events accepted over the recorder's lifetime (retained or not).
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Events evicted because the buffer was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Serializes the buffered stream and lifetime counters (capacity
    /// is construction-time configuration and is *not* saved — restore
    /// into a recorder built with the run's configured capacity).
    pub fn save_state(&self, writer: &mut utilbp_core::state::StateWriter) {
        writer.push(self.recorded);
        writer.push(self.dropped);
        writer.push_usize(self.buffer.len());
        for event in &self.buffer {
            event.save_state(writer);
        }
    }

    /// Restores the buffered stream and lifetime counters saved by
    /// [`save_state`](Self::save_state), replacing this recorder's
    /// current contents.
    ///
    /// # Errors
    ///
    /// Returns a [`StateError`](utilbp_core::state::StateError) on a
    /// truncated or corrupt stream, or when the saved buffer exceeds
    /// this recorder's capacity (the run was recorded with a larger
    /// ring, so restoring here would silently drop history).
    pub fn load_state(
        &mut self,
        reader: &mut utilbp_core::state::StateReader<'_>,
    ) -> Result<(), utilbp_core::state::StateError> {
        let recorded = reader.take_count("recorded event count")?;
        let dropped = reader.take_count("dropped event count")?;
        let len = reader.take_usize()?;
        if len > self.capacity {
            return Err(utilbp_core::state::StateError::Invalid {
                what: "flight recorder buffer exceeds capacity",
                word: len as u64,
            });
        }
        self.buffer.clear();
        for _ in 0..len {
            self.buffer.push_back(Event::load_state(reader)?);
        }
        self.recorded = recorded;
        self.dropped = dropped;
        Ok(())
    }

    /// The retained stream as JSON Lines: one object per event, oldest
    /// first, `\n`-terminated. Byte-deterministic for equal streams.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for event in &self.buffer {
            out.push_str(&event.to_json());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(tick: u64, kind: EventKind) -> Event {
        Event {
            tick: Tick::new(tick),
            kind,
        }
    }

    #[test]
    fn jsonl_renders_fixed_key_order() {
        let mut rec = FlightRecorder::new(16);
        rec.record(ev(
            3,
            EventKind::PhaseChange {
                intersection: 4,
                phase: 2,
            },
        ));
        rec.record(ev(5, EventKind::SensorFaultWindow { active: true }));
        rec.record(ev(
            7,
            EventKind::Replan {
                trigger: ReplanTrigger::Closure,
                diverted: 12,
                restored: 0,
            },
        ));
        assert_eq!(
            rec.to_jsonl(),
            "{\"tick\":3,\"kind\":\"phase_change\",\"intersection\":4,\"phase\":2}\n\
             {\"tick\":5,\"kind\":\"sensor_fault_window\",\"active\":true}\n\
             {\"tick\":7,\"kind\":\"replan\",\"trigger\":\"closure\",\"diverted\":12,\"restored\":0}\n"
        );
    }

    #[test]
    fn guard_violation_messages_are_escaped() {
        let event = ev(
            1,
            EventKind::GuardViolation {
                check: "conservation".to_string(),
                message: "say \"hi\"\nback\\slash".to_string(),
            },
        );
        assert_eq!(
            event.to_json(),
            "{\"tick\":1,\"kind\":\"guard_violation\",\"check\":\"conservation\",\
             \"message\":\"say \\\"hi\\\"\\nback\\\\slash\"}"
        );
    }

    #[test]
    fn ring_buffer_keeps_the_newest_events() {
        let mut rec = FlightRecorder::new(3);
        for k in 0..10 {
            rec.record(ev(k, EventKind::RoadClosed { road: k as u32 }));
        }
        assert_eq!(rec.events().count(), 3);
        assert_eq!(rec.recorded(), 10);
        assert_eq!(rec.dropped(), 7);
        let ticks: Vec<u64> = rec.events().map(|e| e.tick.index()).collect();
        assert_eq!(ticks, [7, 8, 9]);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_is_rejected() {
        let _ = FlightRecorder::new(0);
    }

    #[test]
    fn unallocatable_capacity_is_refused_not_an_abort() {
        assert!(FlightRecorder::try_new(0).is_none());
        assert!(FlightRecorder::try_new(usize::MAX / 2).is_none());
        assert_eq!(FlightRecorder::try_new(8).map(|r| r.capacity()), Some(8));
    }
}
