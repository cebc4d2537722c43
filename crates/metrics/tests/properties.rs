//! Property-based tests of the metrics primitives.

use proptest::prelude::*;
use utilbp_core::{PhaseDecision, PhaseId, Tick};
use utilbp_metrics::{PhaseTrace, SummaryStats, TimeSeries, WaitingLedger};

proptest! {
    /// Merging partial accumulators equals sequential accumulation, for
    /// any split of any sample stream.
    #[test]
    fn summary_merge_equals_sequential(
        data in proptest::collection::vec(-1e6f64..1e6, 1..200),
        split in 0usize..200,
    ) {
        let split = split.min(data.len());
        let mut left = SummaryStats::new();
        for &x in &data[..split] {
            left.record(x);
        }
        let mut right = SummaryStats::new();
        for &x in &data[split..] {
            right.record(x);
        }
        left.merge(&right);

        let mut seq = SummaryStats::new();
        for &x in &data {
            seq.record(x);
        }
        prop_assert_eq!(left.count(), seq.count());
        prop_assert!((left.mean() - seq.mean()).abs() < 1e-6 * (1.0 + seq.mean().abs()));
        prop_assert!(
            (left.population_variance() - seq.population_variance()).abs()
                < 1e-4 * (1.0 + seq.population_variance())
        );
        prop_assert_eq!(left.min(), seq.min());
        prop_assert_eq!(left.max(), seq.max());
    }

    /// Mean and extrema are always within the sample range.
    #[test]
    fn summary_mean_is_bounded(data in proptest::collection::vec(-1e3f64..1e3, 1..100)) {
        let mut s = SummaryStats::new();
        for &x in &data {
            s.record(x);
        }
        let min = s.min().unwrap();
        let max = s.max().unwrap();
        prop_assert!(min <= max);
        prop_assert!(s.mean() >= min - 1e-9 && s.mean() <= max + 1e-9);
        prop_assert!(s.population_variance() >= 0.0);
    }

    /// Run-length compression round-trips: expanding a trace reproduces
    /// exactly the recorded per-tick values, and per-value times sum to
    /// the horizon.
    #[test]
    fn phase_trace_roundtrip(values in proptest::collection::vec(0u8..=4, 1..300)) {
        let mut trace = PhaseTrace::new("t");
        for (k, &v) in values.iter().enumerate() {
            let decision = if v == 0 {
                PhaseDecision::Transition
            } else {
                PhaseDecision::Control(PhaseId::new(v - 1))
            };
            trace.record(Tick::new(k as u64), decision);
        }
        prop_assert_eq!(trace.expand(), values.clone());
        let total: u64 = (0u8..=4).map(|v| trace.time_at(v).count()).sum();
        prop_assert_eq!(total, values.len() as u64);
        // Segment count equals the number of value changes plus one.
        let changes = values.windows(2).filter(|w| w[0] != w[1]).count();
        prop_assert_eq!(trace.segments().len(), changes + 1);
        prop_assert_eq!(trace.num_switches(), changes);
    }

    /// Run lengths of each value sum to that value's total time.
    #[test]
    fn phase_trace_run_lengths_partition(values in proptest::collection::vec(0u8..=4, 1..200)) {
        let mut trace = PhaseTrace::new("t");
        for (k, &v) in values.iter().enumerate() {
            let decision = if v == 0 {
                PhaseDecision::Transition
            } else {
                PhaseDecision::Control(PhaseId::new(v - 1))
            };
            trace.record(Tick::new(k as u64), decision);
        }
        for v in 0u8..=4 {
            let runs: u64 = trace.run_lengths(v).iter().map(|d| d.count()).sum();
            prop_assert_eq!(runs, trace.time_at(v).count());
        }
    }

    /// Decimation keeps the first sample and at most ⌈n/stride⌉ samples.
    #[test]
    fn decimation_bounds(
        n in 1usize..500,
        stride in 1usize..50,
    ) {
        let mut s = TimeSeries::new("s");
        for k in 0..n {
            s.push(Tick::new(k as u64), k as f64);
        }
        let d = s.decimate(stride);
        prop_assert_eq!(d.len(), n.div_ceil(stride));
        prop_assert_eq!(d.points()[0], (Tick::new(0), 0.0));
    }

    /// Ledger accounting: the mean including actives is a convex
    /// combination of completed and active means.
    #[test]
    fn ledger_snapshot_mean_is_convex(
        completed_waits in proptest::collection::vec(0u64..1000, 0..50),
        active_waits in proptest::collection::vec(0u64..1000, 0..50),
    ) {
        let mut ledger = WaitingLedger::new();
        for &w in &completed_waits {
            ledger.enter();
            ledger.complete(Tick::ZERO, Tick::new(1000), w);
        }
        // Active vehicles carry their accumulators outside the ledger and
        // are folded in at query time.
        for _ in &active_waits {
            ledger.enter();
        }
        let n = completed_waits.len() + active_waits.len();
        if n == 0 {
            prop_assert_eq!(
                ledger.mean_waiting_including_active(active_waits.iter().copied()),
                0.0
            );
        } else {
            let expected: f64 = completed_waits
                .iter()
                .chain(&active_waits)
                .map(|&w| w as f64)
                .sum::<f64>()
                / n as f64;
            prop_assert!(
                (ledger.mean_waiting_including_active(active_waits.iter().copied()) - expected)
                    .abs()
                    < 1e-9
            );
        }
        prop_assert_eq!(ledger.completed(), completed_waits.len() as u64);
        prop_assert_eq!(ledger.active(), active_waits.len());
    }
}
