//! A tick-section profiler: streaming wall-clock statistics for the
//! step pipeline's sections, and the stopwatch that laps into it.

use std::time::Instant;

use utilbp_metrics::{SummaryStats, TextTable};

/// Lap-histogram buckets per doubling of lap time: percentiles resolve
/// to within 2^(1/4) ≈ 19% of the lap at every scale.
const PER_OCTAVE: usize = 4;
/// Bucket 0 holds laps up to 1 ns; bucket `i` those in
/// (2^((i−1)/4), 2^(i/4)] ns, up to 2^30 ns ≈ 1.07 s. The last bucket
/// also takes anything slower (the summary stats keep its max exactly).
const BUCKETS: usize = 30 * PER_OCTAVE + 1;

/// Log-scaled lap-time counts, for percentiles: means hide the tail.
#[derive(Debug, Clone)]
struct LapHistogram {
    counts: [u64; BUCKETS],
}

impl LapHistogram {
    const EMPTY: LapHistogram = LapHistogram {
        counts: [0; BUCKETS],
    };

    /// Records one lap of `us` microseconds.
    fn record(&mut self, us: f64) {
        let ns = us * 1e3;
        // NaN and laps up to 1 ns land in bucket 0; `as` saturates an
        // infinite lap, which the `min` puts in the last bucket.
        let bucket = (ns.log2() * PER_OCTAVE as f64).ceil().max(0.0) as usize;
        self.counts[bucket.min(BUCKETS - 1)] += 1;
    }

    /// The `p`-th percentile (0–100) in microseconds, as the upper edge
    /// of the bucket where the cumulative count crosses `p`% — `None`
    /// when empty.
    fn percentile(&self, p: f64) -> Option<f64> {
        let total: u64 = self.counts.iter().sum();
        let target = (p / 100.0 * total as f64).ceil().max(1.0) as u64;
        let mut cumulative = 0;
        let bucket = self.counts.iter().position(|&n| {
            cumulative += n;
            cumulative >= target
        })?;
        Some((bucket as f64 / PER_OCTAVE as f64).exp2() / 1e3)
    }
}

/// One attributable section of a simulated tick.
///
/// The first four are the plant step's laps: both plants lap each of
/// them once per profiled step through a [`PhaseStopwatch`], in step
/// order (microscopic: decide, car-following, landings, waiting;
/// queueing: landings, decide, car-following, waiting). `Replan` and
/// `Monitor` are laps the scenario engine takes around its
/// routing-response and congestion-monitor work. Nothing else the
/// engine does — events, demand, checkpoints, guard checks, telemetry —
/// is timed.
///
/// A lap is the time between two clock readings, so the few
/// nanoseconds it takes to record one lap fall inside the next lap of
/// the same stopwatch.
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
    pub(crate) fn name(self) -> &'static str {
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
/// feeds a [`SummaryStats`] (exact mean/min/max) and a log-scaled
/// histogram (percentiles within ~19% of the lap, from nanoseconds to
/// a second). Laps are recorded in seconds (the
/// unit `Instant::elapsed().as_secs_f64()` hands out) and rendered in
/// microseconds.
///
/// Wall-clock readings are measurements of the run, never inputs to
/// it — profiling cannot perturb simulation results, only add time.
#[derive(Debug, Clone)]
pub struct TickProfiler {
    stats: [SummaryStats; 6],
    histograms: [LapHistogram; 6],
    /// Controllers the profiled ticks' decide phases called (added by
    /// [`PhaseStopwatch::count_decide_calls`]).
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
            histograms: [LapHistogram::EMPTY; 6],
            decide_calls: 0,
        }
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

    /// The profile as a table: one row per section with laps, mean,
    /// p50/p90/p99, max (all µs) and share of total recorded time.
    /// Sections with no laps are omitted. A percentile is the upper edge
    /// of its histogram bucket clamped to the section's observed
    /// `[min, max]`, so it never reads above the section's own maximum.
    pub fn table(&self) -> TextTable {
        let total_us: f64 = self.stats.iter().map(|s| s.mean() * s.count() as f64).sum();
        let mut table = TextTable::new([
            "section", "laps", "mean µs", "p50 µs", "p90 µs", "p99 µs", "max µs", "share",
        ]);
        for section in Section::ALL {
            let stats = self.stats(section);
            let (Some(min), Some(max)) = (stats.min(), stats.max()) else {
                continue;
            };
            let hist = &self.histograms[section.index()];
            let pct = |p: f64| {
                let edge = hist.percentile(p).unwrap_or(f64::INFINITY);
                format!("{:.1}", edge.clamp(min, max))
            };
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
                pct(50.0),
                pct(90.0),
                pct(99.0),
                format!("{max:.1}"),
                format!("{share:.1}%"),
            ]);
        }
        table
    }
}

/// Laps a step's wall-clock into a [`TickProfiler`]: each
/// [`lap`](Self::lap) records the time since the previous lap (or since
/// [`new`](Self::new)) as one lap of a [`Section`], taking one clock
/// reading. Detached (`None`), it takes no clock readings at all, so the
/// untimed step path pays nothing. Timing reads are measurements, never
/// inputs: a timed step simulates exactly what an untimed one does.
#[derive(Debug)]
pub struct PhaseStopwatch<'a> {
    attached: Option<(&'a mut TickProfiler, Instant)>,
}

impl<'a> PhaseStopwatch<'a> {
    /// Starts the first lap now, when `profiler` is attached.
    #[inline]
    pub fn new(profiler: Option<&'a mut TickProfiler>) -> Self {
        PhaseStopwatch {
            attached: profiler.map(|p| (p, Instant::now())),
        }
    }

    /// Records the time since the previous lap as one lap of `section`
    /// and starts the next lap.
    #[inline]
    pub fn lap(&mut self, section: Section) {
        if let Some((profiler, last)) = self.attached.as_mut() {
            let now = Instant::now();
            profiler.record(section, now.duration_since(*last).as_secs_f64());
            *last = now;
        }
    }

    /// Adds `calls` controllers called by a decide phase onto the
    /// profiler's count (see [`TickProfiler::decide_calls_per_tick`]).
    #[inline]
    pub fn count_decide_calls(&mut self, calls: usize) {
        if let Some((profiler, _)) = self.attached.as_mut() {
            profiler.decide_calls += calls as u64;
        }
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
        assert_eq!(profiler.stats(Section::Replan).count(), 1);
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
            let mut watch = PhaseStopwatch::new(Some(&mut profiler));
            watch.count_decide_calls(calls);
            watch.lap(Section::Decide);
        }
        assert_eq!(profiler.decide_calls_per_tick(), Some(4.0));
    }

    #[test]
    fn laps_record_one_lap_per_call_and_a_detached_watch_is_inert() {
        let mut profiler = TickProfiler::new();
        let mut watch = PhaseStopwatch::new(Some(&mut profiler));
        std::thread::sleep(std::time::Duration::from_millis(2));
        watch.lap(Section::Landings);
        watch.lap(Section::Decide);
        assert!(profiler.stats(Section::Landings).min().unwrap() >= 2000.0);
        assert_eq!(profiler.stats(Section::Decide).count(), 1);
        assert_eq!(profiler.stats(Section::CarFollowing).count(), 0);

        let mut detached = PhaseStopwatch::new(None);
        detached.lap(Section::Waiting);
        detached.count_decide_calls(3);
        assert!(detached.attached.is_none());
    }

    #[test]
    fn printed_percentiles_are_ordered_and_resolve_fast_and_slow_laps() {
        let mut profiler = TickProfiler::new();
        // Sub-microsecond laps over one octave, and multi-millisecond
        // ones: both must resolve a median below their maximum.
        for us in [0.30, 0.35, 0.40, 0.45, 0.50, 0.55, 0.60] {
            profiler.record(Section::Landings, us * 1e-6);
        }
        for ms in [2.0, 3.0, 4.0, 5.0, 8.0] {
            profiler.record(Section::Replan, ms * 1e-3);
        }
        profiler.record(Section::Monitor, 5.0); // beyond the last bucket edge
        let rendered = profiler.table().render();
        for name in ["landings", "replan", "monitor"] {
            let row = rendered
                .lines()
                .find(|l| l.contains(name))
                .expect("section row");
            let cells: Vec<f64> = row
                .split('|')
                .map(str::trim)
                .filter_map(|c| c.parse().ok())
                .collect();
            // laps, mean, p50, p90, p99, max
            let [_, _, p50, p90, p99, max] = cells[..] else {
                panic!("unexpected row {row:?}");
            };
            assert!(p50 <= p90 && p90 <= p99 && p99 <= max, "{row}");
            if name != "monitor" {
                assert!(p50 < max, "{row}");
            }
        }
    }

    #[test]
    fn lap_buckets_are_log_scaled_from_a_nanosecond_to_a_second() {
        let mut hist = LapHistogram::EMPTY;
        hist.record(0.0005); // 0.5 ns: the first bucket, edge 1 ns
        hist.record(1.0); // 1000 ns: edge 2^(40/4) = 1024 ns
        hist.record(2e6); // 2 s: the last bucket, edge 2^30 ns
        let edge = |p: f64| hist.percentile(p).unwrap();
        assert!((edge(0.0) - 0.001).abs() < 1e-15);
        assert!((edge(50.0) - 1.024).abs() < 1e-12);
        assert!((edge(100.0) - (1u64 << 30) as f64 / 1e3).abs() < 1e-6);
    }

    #[test]
    fn percentiles_come_from_the_histogram() {
        let mut profiler = TickProfiler::new();
        for k in 0..100 {
            profiler.record(Section::Waiting, k as f64 * 1e-6);
        }
        let hist = &profiler.histograms[Section::Waiting.index()];
        let p50 = hist.percentile(50.0).unwrap();
        assert!((40.0..=60.0).contains(&p50), "p50 was {p50}");
        assert_eq!(LapHistogram::EMPTY.percentile(50.0), None);
    }
}
