//! Figs. 3, 4, and 5 — Pattern I phase traces and queue lengths at the
//! top-right intersection.
//!
//! The paper runs Pattern I for 2000 s and plots, for the north-eastern
//! intersection: the applied control phase over time under CAP-BP at its
//! optimal period (Fig. 3) and under UTIL-BP (Fig. 4), plus the queue
//! length of the incoming-from-the-east road under both (Fig. 5).

use utilbp_core::standard::Approach;
use utilbp_core::Ticks;
use utilbp_metrics::{ascii_chart, PhaseTrace, TextTable, TimeSeries};
use utilbp_netgen::{DemandSchedule, GridNetwork, Pattern};

use crate::options::ExperimentOptions;
use crate::runner::{run, Probe};
use crate::scenario::{ControllerKind, Scenario};

/// The data behind Figs. 3–5.
#[derive(Debug, Clone)]
pub struct Pattern1Detail {
    /// Fig. 3: CAP-BP phase trace at the top-right intersection.
    pub capbp_trace: PhaseTrace,
    /// Fig. 4: UTIL-BP phase trace at the same intersection.
    pub utilbp_trace: PhaseTrace,
    /// Fig. 5 (solid): queue at the east approach under CAP-BP.
    pub capbp_queue: TimeSeries,
    /// Fig. 5 (dashed): queue at the east approach under UTIL-BP.
    pub utilbp_queue: TimeSeries,
    /// The CAP-BP period used (the paper's Pattern I optimum).
    pub(crate) capbp_period: u64,
}

impl Pattern1Detail {
    /// Renders Figs. 3 and 4: the two phase traces as timelines plus
    /// dwell-time statistics.
    pub fn render_fig3_fig4(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "Fig. 3 — control phases, top-right intersection, Pattern I, \
             CAP-BP (T={} s)\n\n",
            self.capbp_period
        ));
        out.push_str(&render_trace(&self.capbp_trace));
        out.push_str("\nFig. 4 — control phases, same intersection, UTIL-BP\n\n");
        out.push_str(&render_trace(&self.utilbp_trace));
        out.push_str("\nPhase-dwell statistics (0 = amber/transition):\n");
        out.push_str(&dwell_table(&self.capbp_trace, &self.utilbp_trace));
        out
    }

    /// Renders Fig. 5: queue length at the incoming-from-the-east road of
    /// the top-right intersection, both controllers.
    pub fn render_fig5(&self) -> String {
        let mut out = String::new();
        out.push_str(
            "Fig. 5 — queue length, east approach of the top-right intersection, Pattern I\n\n",
        );
        out.push_str(&ascii_chart(
            &[&self.capbp_queue, &self.utilbp_queue],
            72,
            16,
        ));
        out.push_str(&format!(
            "\nmean queue: CAP-BP {:.2}, UTIL-BP {:.2} | peak: CAP-BP {:.0}, UTIL-BP {:.0}\n",
            self.capbp_queue.mean(),
            self.utilbp_queue.mean(),
            self.capbp_queue.max().unwrap_or(0.0),
            self.utilbp_queue.max().unwrap_or(0.0),
        ));
        out
    }
}

/// Renders a phase trace as a bucketed timeline of phase digits (`0` =
/// amber) with a time axis.
fn render_trace(trace: &PhaseTrace) -> String {
    const WIDTH: usize = 100;
    let horizon = trace.end().index().max(1);
    let bucket = (horizon as usize).div_ceil(WIDTH).max(1);
    let values = trace.expand();
    let mut line = String::new();
    for chunk in values.chunks(bucket) {
        // Majority phase in the bucket (prefer showing ambers when tied —
        // they are the expensive events).
        let mut counts = [0usize; 6];
        for &v in chunk {
            counts[v as usize] += 1;
        }
        let digit = (0..6)
            .max_by_key(|&d| (counts[d], usize::from(d == 0)))
            .unwrap_or(0);
        line.push(char::from_digit(digit as u32, 10).unwrap_or('?'));
    }
    let mut out = String::new();
    out.push_str(&line);
    out.push('\n');
    out.push_str(&format!(
        "0s{:>width$}\n",
        format!("{}s", horizon),
        width = line.len().saturating_sub(2)
    ));
    out.push_str(&format!(
        "switches: {} | ambers: {} | amber time: {} ticks\n",
        trace.num_switches(),
        trace.num_transitions(),
        trace.time_at(0).count(),
    ));
    out
}

fn dwell_table(capbp: &PhaseTrace, utilbp: &PhaseTrace) -> String {
    let mut table = TextTable::new([
        "Phase",
        "CAP-BP time [ticks]",
        "UTIL-BP time [ticks]",
        "CAP-BP activations",
        "UTIL-BP activations",
    ]);
    for phase in 0..=4u8 {
        table.push_row([
            if phase == 0 {
                "amber".to_string()
            } else {
                format!("c{phase}")
            },
            capbp.time_at(phase).count().to_string(),
            utilbp.time_at(phase).count().to_string(),
            capbp.run_lengths(phase).len().to_string(),
            utilbp.run_lengths(phase).len().to_string(),
        ]);
    }
    table.render()
}

/// Runs the Pattern I detail experiment behind Figs. 3–5.
pub fn pattern1_detail(opts: &ExperimentOptions) -> Pattern1Detail {
    let grid = GridNetwork::new(utilbp_netgen::GridSpec::paper());
    let top_right = grid.top_right();
    let east = Approach::East.incoming();
    let probe = Probe {
        phase_traces: vec![top_right],
        queue_series: vec![(top_right, east)],
        sample_every: 5,
    };
    let schedule = DemandSchedule::constant(Pattern::I, Ticks::new(opts.trace_horizon.count()));
    let scenario = Scenario::paper(schedule, opts.backend, opts.seed);

    let capbp = run(
        &scenario,
        &ControllerKind::CapBp {
            period: opts.trace_capbp_period,
        },
        &probe,
    );
    let utilbp = run(&scenario, &ControllerKind::UtilBp, &probe);

    Pattern1Detail {
        capbp_trace: capbp.phase_traces.into_iter().next().expect("probed"),
        utilbp_trace: utilbp.phase_traces.into_iter().next().expect("probed"),
        capbp_queue: {
            let mut s = capbp.queue_series.into_iter().next().expect("probed");
            s = rename(s, "CAP-BP");
            s
        },
        utilbp_queue: rename(
            utilbp.queue_series.into_iter().next().expect("probed"),
            "UTIL-BP",
        ),
        capbp_period: opts.trace_capbp_period,
    }
}

fn rename(series: TimeSeries, name: &str) -> TimeSeries {
    let mut out = TimeSeries::new(name);
    for (t, v) in series.iter() {
        out.push(t, v);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pattern1_detail_quick() {
        let mut opts = ExperimentOptions::quick();
        opts.trace_horizon = Ticks::new(400);
        let d = pattern1_detail(&opts);
        assert_eq!(d.capbp_trace.end().index(), 400);
        assert_eq!(d.utilbp_trace.end().index(), 400);
        assert!(!d.capbp_queue.is_empty());
        let f34 = d.render_fig3_fig4();
        assert!(f34.contains("Fig. 3"));
        assert!(f34.contains("Fig. 4"));
        assert!(f34.contains("amber"));
        let f5 = d.render_fig5();
        assert!(f5.contains("Fig. 5"));
        assert!(f5.contains("CAP-BP"));
    }

    #[test]
    fn trace_rendering_buckets_long_runs() {
        let mut trace = PhaseTrace::new("t");
        for k in 0..500u64 {
            let decision = if (k / 50) % 2 == 0 {
                utilbp_core::PhaseDecision::Control(utilbp_core::PhaseId::new(0))
            } else {
                utilbp_core::PhaseDecision::Control(utilbp_core::PhaseId::new(2))
            };
            trace.record(utilbp_core::Tick::new(k), decision);
        }
        let rendered = render_trace(&trace);
        assert!(rendered.contains('1'));
        assert!(rendered.contains('3'));
        assert!(rendered.contains("switches"));
    }
}
