//! A tick-section profiler: streaming wall-clock statistics for the
//! step pipeline's sections.

use utilbp_metrics::{Histogram, SummaryStats, TextTable};

/// Histogram granularity: 2 µs bins, 256 of them, so percentile
/// resolution is 2 µs up to ~0.5 ms per section per tick (slower laps
/// land in the last bin and still count toward max/mean exactly via
/// the summary stats).
const BIN_WIDTH_US: f64 = 2.0;
const BINS: usize = 256;

/// One attributable section of a simulated tick.
///
/// The first four are the plant step's laps: each takes one lap per
/// profiled tick from the matching [`PhaseTimings`] field, which both
/// substrates fill through the same step path. `Replan` and `Monitor`
/// cover the scenario engine's routing-response and congestion-monitor
/// work around the plant step. Nothing else the engine does — events,
/// demand, checkpoints, guard checks, telemetry — is timed.
///
/// [`PhaseTimings`]: utilbp_metrics::PhaseTimings
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Section {
    /// Controller decisions (the controllers the decide phase called;
    /// see [`TickProfiler::decide_calls_per_tick`]). On the microscopic
    /// plant the lap also covers sense (gathering every observation from
    /// the detector counters) and the signal refresh; the queueing plant
    /// has no sense pass (its observations are kept current where queues
    /// change).
    Decide,
    /// Vehicle advancement: box countdown, head release and the
    /// follower sweep (microscopic) or serving the active phases
    /// (queueing).
    CarFollowing,
    /// Vehicles landing on roads: junction-box landings (microscopic)
    /// or transit arrivals joining queues plus boundary backlog drains
    /// (queueing).
    Landings,
    /// Entering this tick's arrivals and writing the step report; on
    /// the microscopic plant also the boundary backlog drain.
    Waiting,
    /// Routing-response passes (closure / reopen / congestion).
    Replan,
    /// Periodic congestion-monitor checks (the scan and any diversions
    /// or restores it triggers).
    Monitor,
}

impl Section {
    /// Every section, in rendering order.
    pub const ALL: [Section; 6] = [
        Section::Decide,
        Section::CarFollowing,
        Section::Landings,
        Section::Waiting,
        Section::Replan,
        Section::Monitor,
    ];

    /// The section's display name.
    pub fn name(self) -> &'static str {
        match self {
            Section::Decide => "decide",
            Section::CarFollowing => "car-following",
            Section::Landings => "landings",
            Section::Waiting => "waiting",
            Section::Replan => "replan",
            Section::Monitor => "monitor",
        }
    }

    fn index(self) -> usize {
        match self {
            Section::Decide => 0,
            Section::CarFollowing => 1,
            Section::Landings => 2,
            Section::Waiting => 3,
            Section::Replan => 4,
            Section::Monitor => 5,
        }
    }
}

/// Streaming per-[`Section`] wall-clock statistics. Each recorded lap
/// feeds a [`SummaryStats`] (exact mean/min/max) and a [`Histogram`]
/// (percentiles at 2 µs resolution). Laps are recorded in seconds (the
/// unit `Instant::elapsed().as_secs_f64()` hands out) and rendered in
/// microseconds.
///
/// Wall-clock readings are measurements of the run, never inputs to
/// it — profiling cannot perturb simulation results, only add time.
#[derive(Debug, Clone)]
pub struct TickProfiler {
    stats: [SummaryStats; 6],
    histograms: Vec<Histogram>,
    /// Controllers the profiled ticks' decide phases called.
    decide_calls: u64,
}

impl Default for TickProfiler {
    fn default() -> Self {
        Self::new()
    }
}

impl TickProfiler {
    /// An empty profiler.
    pub fn new() -> Self {
        TickProfiler {
            stats: [SummaryStats::new(); 6],
            histograms: (0..6).map(|_| Histogram::new(BIN_WIDTH_US, BINS)).collect(),
            decide_calls: 0,
        }
    }

    /// Adds the controllers one profiled tick's decide phase called
    /// (`PhaseTimings::decide_calls`).
    pub fn record_decide_calls(&mut self, calls: u64) {
        self.decide_calls += calls;
    }

    /// Controllers called per profiled tick: the decide phase skips
    /// those at rest on unchanged readings, so this shows where its
    /// saving is. `None` before the first [`Section::Decide`] lap.
    pub fn decide_calls_per_tick(&self) -> Option<f64> {
        let ticks = self.stats(Section::Decide).count();
        (ticks > 0).then(|| self.decide_calls as f64 / ticks as f64)
    }

    /// Records one lap of `seconds` wall-clock spent in `section`.
    pub fn record(&mut self, section: Section, seconds: f64) {
        let us = seconds * 1e6;
        let i = section.index();
        self.stats[i].record(us);
        self.histograms[i].record(us);
    }

    /// The exact streaming statistics for `section`, in microseconds.
    pub fn stats(&self, section: Section) -> &SummaryStats {
        &self.stats[section.index()]
    }

    /// The percentile histogram for `section`, in microseconds.
    pub fn histogram(&self, section: Section) -> &Histogram {
        &self.histograms[section.index()]
    }

    /// Total recorded wall-clock across all sections, in seconds.
    pub fn total_seconds(&self) -> f64 {
        self.stats
            .iter()
            .map(|s| s.mean() * s.count() as f64)
            .sum::<f64>()
            / 1e6
    }

    /// The profile as a table: one row per section with laps, mean,
    /// p50/p90/p99, max (all µs) and share of total recorded time.
    /// Sections with no laps are omitted.
    pub fn table(&self) -> TextTable {
        let total_us: f64 = self.stats.iter().map(|s| s.mean() * s.count() as f64).sum();
        let mut table = TextTable::new([
            "section", "laps", "mean µs", "p50 µs", "p90 µs", "p99 µs", "max µs", "share",
        ]);
        let pct = |h: &Histogram, p: f64| -> String {
            match h.percentile(p) {
                Some(v) => format!("{v:.1}"),
                None => "-".to_string(),
            }
        };
        for section in Section::ALL {
            let stats = self.stats(section);
            if stats.count() == 0 {
                continue;
            }
            let hist = self.histogram(section);
            let sum = stats.mean() * stats.count() as f64;
            let share = if total_us > 0.0 {
                100.0 * sum / total_us
            } else {
                0.0
            };
            table.push_row([
                section.name().to_string(),
                stats.count().to_string(),
                format!("{:.1}", stats.mean()),
                pct(hist, 50.0),
                pct(hist, 90.0),
                pct(hist, 99.0),
                format!("{:.1}", stats.max().unwrap_or(0.0)),
                format!("{share:.1}%"),
            ]);
        }
        table
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn laps_accumulate_per_section() {
        let mut profiler = TickProfiler::new();
        profiler.record(Section::Decide, 10e-6);
        profiler.record(Section::Decide, 30e-6);
        profiler.record(Section::Replan, 60e-6);
        let decide = profiler.stats(Section::Decide);
        assert_eq!(decide.count(), 2);
        assert!((decide.mean() - 20.0).abs() < 1e-9);
        assert!((profiler.total_seconds() - 100e-6).abs() < 1e-12);
    }

    #[test]
    fn table_omits_empty_sections_and_sums_shares() {
        let mut profiler = TickProfiler::new();
        profiler.record(Section::Decide, 75e-6);
        profiler.record(Section::Monitor, 25e-6);
        let rendered = profiler.table().render();
        assert!(rendered.contains("decide"));
        assert!(rendered.contains("monitor"));
        assert!(!rendered.contains("car-following"));
        assert!(rendered.contains("75.0%"));
        assert!(rendered.contains("25.0%"));
    }

    #[test]
    fn decide_calls_are_averaged_over_the_decide_laps() {
        let mut profiler = TickProfiler::new();
        assert_eq!(profiler.decide_calls_per_tick(), None);
        for calls in [3, 5] {
            profiler.record(Section::Decide, 1e-6);
            profiler.record_decide_calls(calls);
        }
        assert_eq!(profiler.decide_calls_per_tick(), Some(4.0));
    }

    #[test]
    fn percentiles_come_from_the_histogram() {
        let mut profiler = TickProfiler::new();
        for k in 0..100 {
            profiler.record(Section::Waiting, k as f64 * 1e-6);
        }
        let p50 = profiler
            .histogram(Section::Waiting)
            .percentile(50.0)
            .unwrap();
        assert!((40.0..=60.0).contains(&p50), "p50 was {p50}");
    }
}
