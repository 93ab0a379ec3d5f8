//! Deterministic, bounded-memory time series for scheduler health.
//!
//! [`Telemetry`] is a fold over the event stream: each
//! `SchedulerEpoch` event samples a fixed set of gauges (queue depth,
//! utilization split, loaned capacity, reclaim backlog, fragmentation,
//! …) plus the change in the loan, reclaim and preemption counters
//! since the previous epoch into [`RingSeries`] — fixed-capacity series with
//! *deterministic decimation*: when a series fills, every other retained
//! point is dropped and the sampling stride doubles. The retained point
//! set is a pure function of the sample sequence, so same-seed runs
//! export byte-identical series, and memory stays bounded no matter how
//! long the run is (1M-job scale included).
//!
//! Cumulative [`Counters`] of loans, reclaims, preemptions, scaling
//! operations, faults and job transitions ride along, each bumped by
//! the one event that announces the operation, with four fixed-bucket
//! histograms — simulated epoch span, modelled decision latency, job
//! completion time and job queued time — whose bounds are frozen at
//! construction so golden gates can pin exported bytes. Wall-clock
//! readings never enter this module (the span profiler owns wall-clock);
//! every recorded quantity is simulated or modelled.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::event::{EpochSample, SchedEvent};

/// Default per-series point capacity. At one sample per 30-second epoch
/// this holds ~4 hours at full rate, a week at stride 64, and years at
/// the strides a 1M-job run decimates to — all in ≤ `cap` points.
pub const DEFAULT_SERIES_CAPACITY: usize = 512;

/// One retained sample: simulated time and gauge value.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SeriesPoint {
    /// Simulated time of the sample, milliseconds.
    pub t_ms: u64,
    /// Gauge value at that instant.
    pub value: f64,
}

/// A fixed-capacity time series with deterministic stride decimation.
///
/// Samples are *subsampled*, not averaged: every `stride`-th offered
/// sample is retained point-in-time, the rest are discarded. When the
/// buffer reaches capacity, every other retained point is dropped and
/// the stride doubles. Both rules depend only on the monotonic sample
/// index, never on wall-clock or allocation state, so the retained set
/// is reproducible byte-for-byte across same-seed runs and across a
/// checkpoint/restore boundary.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RingSeries {
    /// Maximum retained points; decimation halves the buffer at this
    /// threshold, so `len()` stays within `cap/2..=cap`.
    cap: usize,
    /// Current sampling stride: a sample is retained iff its index is a
    /// multiple of `stride`. Doubles at each decimation.
    stride: u64,
    /// Monotonic count of samples *offered* (retained or not).
    offered: u64,
    /// Retained points, oldest first.
    points: Vec<SeriesPoint>,
}

impl RingSeries {
    /// Creates an empty series retaining at most `cap` points
    /// (minimum 2, so decimation always makes progress).
    pub fn new(cap: usize) -> Self {
        RingSeries {
            cap: cap.max(2),
            stride: 1,
            offered: 0,
            points: Vec::new(),
        }
    }

    /// Offers one sample. Retained iff the sample's monotonic index is a
    /// multiple of the current stride; triggers decimation when the
    /// buffer is full.
    pub fn record(&mut self, t_ms: u64, value: f64) {
        if self.offered.is_multiple_of(self.stride) {
            if self.points.len() == self.cap {
                // Keep every other point (even offsets) and double the
                // stride: pure function of the index sequence.
                let mut i = 0;
                self.points.retain(|_| {
                    let keep = i % 2 == 0;
                    i += 1;
                    keep
                });
                self.stride *= 2;
            }
            // The surviving index grid after decimation is multiples of
            // the *new* stride; only record if this index still lands
            // on it (it may not, immediately after doubling).
            if self.offered.is_multiple_of(self.stride) {
                self.points.push(SeriesPoint { t_ms, value });
            }
        }
        self.offered += 1;
    }

    /// Retained points, oldest first.
    pub fn points(&self) -> &[SeriesPoint] {
        &self.points
    }

    /// Number of retained points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether no points are retained yet.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Total samples offered (retained or decimated away).
    pub fn offered(&self) -> u64 {
        self.offered
    }

    /// Current decimation stride.
    pub fn stride(&self) -> u64 {
        self.stride
    }

    /// The most recently retained point, if any.
    pub fn last(&self) -> Option<SeriesPoint> {
        self.points.last().copied()
    }
}

/// Bucket bounds for job-level durations, seconds: 1 min … 7 days,
/// then overflow.
pub const DURATION_BUCKETS_S: &[f64] = &[
    60.0, 300.0, 900.0, 3_600.0, 7_200.0, 21_600.0, 43_200.0, 86_400.0, 172_800.0, 604_800.0,
];

/// A fixed-bucket histogram.
///
/// Bounds are frozen at construction, plus an implicit overflow
/// bucket, so exported bytes are pinnable by the golden gate. The
/// intended inputs are simulated or modelled quantities.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Histogram {
    /// Ascending bucket upper bounds.
    pub bounds: Vec<f64>,
    /// Counts per bucket; `bounds.len() + 1` entries, last = overflow.
    pub counts: Vec<u64>,
    /// Sum of all observations.
    pub sum: f64,
    /// Number of observations.
    pub count: u64,
}

impl Histogram {
    /// Creates a histogram with the given ascending bucket bounds.
    pub fn new(bounds: &[f64]) -> Self {
        Histogram {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            sum: 0.0,
            count: 0,
        }
    }

    /// Creates a histogram with power-of-two bounds
    /// `2^min_exp ..= 2^max_exp`.
    pub fn log2(min_exp: u32, max_exp: u32) -> Self {
        let bounds: Vec<f64> = (min_exp..=max_exp).map(|e| (1u64 << e) as f64).collect();
        Histogram::new(&bounds)
    }

    /// Records one observation.
    pub fn observe(&mut self, value: f64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(self.bounds.len());
        self.counts[idx] += 1;
        self.sum += value;
        self.count += 1;
    }
}

/// Cumulative operation counts, one per counted event kind, named in
/// [`named`](Self::named).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct Counters {
    /// `FlexRelease` events.
    pub flex_releases: u64,
    /// `LoanGrant` events.
    pub loans: u64,
    /// `ReclaimCarryover` events.
    pub reclaim_carryovers: u64,
    /// `ReclaimDeadlineMiss` events.
    pub reclaim_deadline_misses: u64,
    /// `ReclaimGrant` events.
    pub reclaims: u64,
    /// `ControllerRescale` events.
    pub rendezvous: u64,
    /// `Fault` events of kind `injected`.
    pub faults_injected: u64,
    /// `Fault` events of kind `job_killed`.
    pub jobs_killed: u64,
    /// `DeadlineMiss` events.
    pub deadlines_missed: u64,
    /// `JobAdmit` events.
    pub admitted: u64,
    /// `JobComplete` events.
    pub completed: u64,
    /// `JobPreempt` events.
    pub preemptions: u64,
    /// `JobStart` events.
    pub started: u64,
    /// `JobScaleIn` events.
    pub scale_ins: u64,
    /// `JobScaleOut` events.
    pub scale_outs: u64,
}

impl Counters {
    /// Counts `event` if it is one of the counted kinds.
    fn count(&mut self, event: &SchedEvent) {
        let counter = match event {
            SchedEvent::FlexRelease { .. } => &mut self.flex_releases,
            SchedEvent::LoanGrant { .. } => &mut self.loans,
            SchedEvent::ReclaimCarryover { .. } => &mut self.reclaim_carryovers,
            SchedEvent::ReclaimDeadlineMiss { .. } => &mut self.reclaim_deadline_misses,
            SchedEvent::ReclaimGrant { .. } => &mut self.reclaims,
            SchedEvent::ControllerRescale { .. } => &mut self.rendezvous,
            SchedEvent::Fault { kind, .. } if kind == "injected" => &mut self.faults_injected,
            SchedEvent::Fault { kind, .. } if kind == "job_killed" => &mut self.jobs_killed,
            SchedEvent::DeadlineMiss { .. } => &mut self.deadlines_missed,
            SchedEvent::JobAdmit { .. } => &mut self.admitted,
            SchedEvent::JobComplete { .. } => &mut self.completed,
            SchedEvent::JobPreempt { .. } => &mut self.preemptions,
            SchedEvent::JobStart { .. } => &mut self.started,
            SchedEvent::JobScaleIn { .. } => &mut self.scale_ins,
            SchedEvent::JobScaleOut { .. } => &mut self.scale_outs,
            _ => return,
        };
        *counter += 1;
    }

    /// `(metric name, value)` pairs in sorted name order.
    pub fn named(&self) -> [(&'static str, u64); 15] {
        [
            ("cluster.flex_release.ops", self.flex_releases),
            ("cluster.loan.ops", self.loans),
            ("cluster.reclaim.carryovers", self.reclaim_carryovers),
            ("cluster.reclaim.deadline_misses", self.reclaim_deadline_misses),
            ("cluster.reclaim.ops", self.reclaims),
            ("elastic.rendezvous.ops", self.rendezvous),
            ("faults.injected", self.faults_injected),
            ("faults.jobs_killed", self.jobs_killed),
            ("sim.deadline.missed", self.deadlines_missed),
            ("sim.jobs.admitted", self.admitted),
            ("sim.jobs.completed", self.completed),
            ("sim.jobs.preemptions", self.preemptions),
            ("sim.jobs.started", self.started),
            ("sim.scale.in", self.scale_ins),
            ("sim.scale.out", self.scale_outs),
        ]
    }
}

/// The per-run telemetry store: named ring series, cumulative operation
/// counters and four fixed histograms (epoch span, decision latency,
/// job completion time, job queued time), folded from the event stream
/// by [`observe`](Self::observe).
///
/// Everything here is `serde`-serialisable and enters the engine
/// checkpoint, so a restored run continues sampling exactly where the
/// crashed run stopped and resumed exports stay byte-identical to an
/// uninterrupted run's.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Telemetry {
    /// Per-series retained-point capacity used for new series.
    pub capacity: usize,
    /// Scheduler epochs sampled so far.
    pub epochs: u64,
    /// Named gauge series, in stable (sorted) order.
    series: BTreeMap<String, RingSeries>,
    /// Cumulative operation counts.
    pub counters: Counters,
    /// The counters at the previous epoch sample, so each `rate.*`
    /// series is the change since then.
    at_last_epoch: Counters,
    /// When the open reclaim carry was first sampled, for
    /// `reclaim.backlog_age_s`; `None` while no debt is open.
    carry_since_ms: Option<u64>,
    /// Simulated time of the previous epoch sample, if any.
    last_sample_ms: Option<u64>,
    /// Simulated span between consecutive epoch samples, milliseconds.
    pub epoch_span_ms: Histogram,
    /// Modelled scheduler decision latency per epoch, milliseconds.
    pub decision_latency_ms: Histogram,
    /// Completion time of each completed job, seconds.
    pub jct_s: Histogram,
    /// Total queued time of each completed job, seconds.
    pub queue_s: Histogram,
}

impl Default for Telemetry {
    fn default() -> Self {
        Telemetry::new(DEFAULT_SERIES_CAPACITY)
    }
}

impl Telemetry {
    /// Creates an empty store whose series retain at most `capacity`
    /// points each.
    pub fn new(capacity: usize) -> Self {
        Telemetry {
            capacity,
            epochs: 0,
            series: BTreeMap::new(),
            counters: Counters::default(),
            at_last_epoch: Counters::default(),
            carry_since_ms: None,
            last_sample_ms: None,
            // 1 ms .. ~17.9 min covers epoch spans from sub-second
            // control loops to hourly housekeeping ticks.
            epoch_span_ms: Histogram::log2(0, 20),
            // 1 ms .. ~65 s covers modelled control-plane latencies.
            decision_latency_ms: Histogram::log2(0, 16),
            jct_s: Histogram::new(DURATION_BUCKETS_S),
            queue_s: Histogram::new(DURATION_BUCKETS_S),
        }
    }

    /// Folds one event at simulated `t_ms`: every counted kind bumps
    /// its counter, `JobComplete` records its completion time, and each
    /// `SchedulerEpoch` samples its gauges, the counter changes since
    /// the previous epoch and its decision latency.
    pub fn observe(&mut self, t_ms: u64, event: &SchedEvent) {
        self.counters.count(event);
        match event {
            SchedEvent::JobComplete { jct_s, .. } => self.jct_s.observe(*jct_s),
            SchedEvent::SchedulerEpoch(epoch) => self.sample_epoch(t_ms, epoch),
            _ => {}
        }
    }

    /// Records one completed job's total queued time, milliseconds.
    pub fn observe_queued(&mut self, queued_ms: u64) {
        self.queue_s.observe(queued_ms as f64 / 1000.0);
    }

    fn sample_epoch(&mut self, t_ms: u64, e: &EpochSample) {
        self.begin_epoch(t_ms);
        self.decision_latency_ms.observe(e.latency_ms);
        let backlog_age_s = if e.carry_servers > 0 {
            let since = *self.carry_since_ms.get_or_insert(t_ms);
            t_ms.saturating_sub(since) as f64 / 1000.0
        } else {
            self.carry_since_ms = None;
            0.0
        };
        let ratio = |used: u32, total: u32| {
            if total == 0 {
                0.0
            } else {
                f64::from(used) / f64::from(total)
            }
        };
        let now = self.counters;
        let prev = std::mem::replace(&mut self.at_last_epoch, now);
        let samples = [
            ("util.dedicated", ratio(e.training_used, e.training_total)),
            ("util.loaned", ratio(e.loaned_used, e.loaned_total)),
            ("util.flexible", ratio(e.flexible_used, e.loaned_total)),
            ("queue.depth", f64::from(e.queued)),
            ("queue.gpus", e.queued_gpus as f64),
            ("jobs.running", f64::from(e.running)),
            ("elastic.workers", f64::from(e.elastic_workers)),
            ("cluster.loaned_servers", f64::from(e.loaned_servers)),
            ("reclaim.carry_servers", f64::from(e.carry_servers)),
            ("reclaim.backlog_age_s", backlog_age_s),
            ("frag.index", e.fragmentation),
            ("rate.loans", (now.loans - prev.loans) as f64),
            ("rate.preemptions", (now.preemptions - prev.preemptions) as f64),
            ("rate.reclaims", (now.reclaims - prev.reclaims) as f64),
        ];
        for (name, value) in samples {
            self.sample_gauge(name, t_ms, value);
        }
    }

    /// Marks the start of one epoch sample at simulated `t_ms`:
    /// advances the epoch count and records the span since the previous
    /// sample into [`Telemetry::epoch_span_ms`].
    pub fn begin_epoch(&mut self, t_ms: u64) {
        if let Some(prev) = self.last_sample_ms {
            self.epoch_span_ms.observe(t_ms.saturating_sub(prev) as f64);
        }
        self.last_sample_ms = Some(t_ms);
        self.epochs += 1;
    }

    /// Samples gauge `name` at `t_ms`, creating the series on first use.
    pub fn sample_gauge(&mut self, name: &str, t_ms: u64, value: f64) {
        let cap = self.capacity;
        self.series
            .entry(name.to_string())
            .or_insert_with(|| RingSeries::new(cap))
            .record(t_ms, value);
    }

    /// Series names in stable sorted order.
    pub fn series_names(&self) -> impl Iterator<Item = &str> {
        self.series.keys().map(|s| s.as_str())
    }

    /// Looks up one series by name.
    pub fn series(&self, name: &str) -> Option<&RingSeries> {
        self.series.get(name)
    }

    /// The most recent retained value of series `name`, if any.
    pub fn latest(&self, name: &str) -> Option<f64> {
        self.series.get(name).and_then(|s| s.last()).map(|p| p.value)
    }

    /// Iterates `(name, series)` pairs in stable sorted order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &RingSeries)> {
        self.series.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Renders all series as CSV in long format
    /// (`series,t_ms,value`), one row per retained point, series in
    /// sorted order — a pure function of the store's state.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("series,t_ms,value\n");
        for (name, series) in self.series.iter() {
            for p in series.points() {
                out.push_str(name);
                out.push(',');
                out.push_str(&p.t_ms.to_string());
                out.push(',');
                out.push_str(&format_value(p.value));
                out.push('\n');
            }
        }
        out
    }
}

/// Formats a gauge value for text export: integral values print without
/// a trailing `.0` so CSV/Prometheus bytes stay compact and stable.
pub fn format_value(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_series_records_until_capacity() {
        let mut s = RingSeries::new(8);
        for i in 0..8u64 {
            s.record(i * 1000, i as f64);
        }
        assert_eq!(s.len(), 8);
        assert_eq!(s.stride(), 1);
        assert_eq!(s.points()[3], SeriesPoint { t_ms: 3000, value: 3.0 });
    }

    #[test]
    fn decimation_halves_and_doubles_stride() {
        let mut s = RingSeries::new(8);
        for i in 0..9u64 {
            s.record(i, i as f64);
        }
        // The 9th sample (index 8) triggers decimation: even-offset
        // survivors 0,2,4,6 remain, stride becomes 2, and index 8 lands
        // on the new grid so it is retained too.
        assert_eq!(s.stride(), 2);
        let kept: Vec<u64> = s.points().iter().map(|p| p.t_ms).collect();
        assert_eq!(kept, vec![0, 2, 4, 6, 8]);
    }

    #[test]
    fn memory_stays_bounded_under_long_runs() {
        let mut s = RingSeries::new(16);
        for i in 0..1_000_000u64 {
            s.record(i, (i % 97) as f64);
        }
        assert!(s.len() <= 16, "len {} exceeds cap", s.len());
        assert!(s.len() >= 8, "decimation over-dropped to {}", s.len());
        assert_eq!(s.offered(), 1_000_000);
        // stride is a power of two by construction.
        assert_eq!(s.stride().count_ones(), 1);
    }

    #[test]
    fn retained_set_is_pure_function_of_samples() {
        let run = || {
            let mut s = RingSeries::new(32);
            for i in 0..12_345u64 {
                s.record(i * 7, (i as f64).sin());
            }
            s
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn log2_histogram_buckets_powers_of_two() {
        let mut h = Histogram::log2(0, 3); // bounds 1,2,4,8
        assert_eq!(h.bounds, vec![1.0, 2.0, 4.0, 8.0]);
        for v in [0.5, 2.0, 3.0, 100.0] {
            h.observe(v);
        }
        assert_eq!(h.counts, vec![1, 1, 1, 0, 1]);
        assert_eq!(h.count, 4);
    }

    fn epoch(queued: u32) -> SchedEvent {
        SchedEvent::SchedulerEpoch(EpochSample {
            queued,
            ..EpochSample::default()
        })
    }

    #[test]
    fn rate_series_count_events_since_the_last_epoch() {
        let mut t = Telemetry::new(16);
        let loan = SchedEvent::LoanGrant { servers: vec![1] };
        let preempt = SchedEvent::JobPreempt {
            job: 9,
            checkpointed: false,
            decision: None,
        };
        let tick = epoch(0);
        for ev in [&loan, &loan, &loan, &tick, &loan, &preempt, &loan, &tick, &tick] {
            t.observe(0, ev);
        }
        let values = |name: &str| -> Vec<f64> {
            t.series(name)
                .expect("series exists")
                .points()
                .iter()
                .map(|p| p.value)
                .collect()
        };
        assert_eq!(values("rate.loans"), vec![3.0, 2.0, 0.0]);
        assert_eq!(values("rate.preemptions"), vec![0.0, 1.0, 0.0]);
        assert_eq!(values("rate.reclaims"), vec![0.0, 0.0, 0.0]);
        assert_eq!(t.epochs, 3);
        assert_eq!((t.counters.loans, t.counters.preemptions), (5, 1));
    }

    #[test]
    fn counters_count_only_their_event_kind() {
        let mut t = Telemetry::new(16);
        let fault = |kind: &str| SchedEvent::Fault {
            kind: kind.to_string(),
            target: 0,
        };
        for ev in [
            fault("injected"),
            fault("job_killed"),
            fault("restart"),
            fault("server_crash"),
            SchedEvent::JobAdmit { job: 1 },
            SchedEvent::JobComplete { job: 1, jct_s: 90.0 },
        ] {
            t.observe(0, &ev);
        }
        let nonzero: Vec<(&str, u64)> =
            t.counters.named().into_iter().filter(|(_, v)| *v > 0).collect();
        assert_eq!(
            nonzero,
            vec![
                ("faults.injected", 1),
                ("faults.jobs_killed", 1),
                ("sim.jobs.admitted", 1),
                ("sim.jobs.completed", 1),
            ]
        );
        assert_eq!(t.jct_s.counts[1], 1, "90 s falls in the 300 s bucket");
        let names: Vec<&str> = t.counters.named().iter().map(|(n, _)| *n).collect();
        assert!(names.is_sorted(), "exposition order is sorted: {names:?}");
    }

    #[test]
    fn epoch_events_sample_ratios_and_backlog_age() {
        let mut t = Telemetry::new(16);
        let sample = |carry_servers| {
            SchedEvent::SchedulerEpoch(EpochSample {
                queued: 5,
                training_used: 24,
                training_total: 32,
                loaned_used: 4,
                loaned_total: 16,
                flexible_used: 2,
                carry_servers,
                latency_ms: 3.0,
                ..EpochSample::default()
            })
        };
        t.observe(0, &sample(0));
        t.observe(30_000, &sample(2));
        t.observe(90_000, &sample(1));
        assert_eq!(t.latest("util.dedicated"), Some(0.75));
        assert_eq!(t.latest("util.loaned"), Some(0.25));
        assert_eq!(t.latest("util.flexible"), Some(0.125));
        assert_eq!(t.latest("queue.depth"), Some(5.0));
        // The debt opened at 30 s and is still open at 90 s.
        assert_eq!(t.latest("reclaim.backlog_age_s"), Some(60.0));
        t.observe(120_000, &sample(0));
        assert_eq!(t.latest("reclaim.backlog_age_s"), Some(0.0));
        assert_eq!(t.decision_latency_ms.count, 4);
        // Non-epoch events sample nothing.
        t.observe(150_000, &SchedEvent::JobAdmit { job: 1 });
        assert_eq!(t.epochs, 4);
    }

    #[test]
    fn epoch_span_histogram_sees_sample_gaps() {
        let mut t = Telemetry::new(16);
        t.begin_epoch(0);
        t.begin_epoch(30_000);
        t.begin_epoch(60_000);
        assert_eq!(t.epochs, 3);
        assert_eq!(t.epoch_span_ms.count, 2);
        assert!((t.epoch_span_ms.sum - 60_000.0).abs() < 1e-9);
    }

    #[test]
    fn csv_export_is_deterministic_and_sorted() {
        let mut t = Telemetry::new(8);
        t.sample_gauge("z.last", 0, 1.5);
        t.sample_gauge("a.first", 0, 2.0);
        t.sample_gauge("a.first", 1000, 3.0);
        let csv = t.to_csv();
        assert_eq!(
            csv,
            "series,t_ms,value\na.first,0,2\na.first,1000,3\nz.last,0,1.5\n"
        );
        assert_eq!(csv, t.to_csv());
    }

    #[test]
    fn serde_round_trip_preserves_state() {
        let mut t = Telemetry::new(8);
        for i in 0..100u64 {
            if i % 3 == 0 {
                t.observe(i * 500, &SchedEvent::LoanGrant { servers: vec![2] });
            }
            t.observe(i * 500, &epoch((i % 7) as u32));
        }
        // A loan counted but not yet sampled is state too.
        t.observe(50_000, &SchedEvent::LoanGrant { servers: vec![3] });
        let json = serde_json::to_string(&t).expect("serialises");
        let back: Telemetry = serde_json::from_str(&json).expect("deserialises");
        assert_eq!(t, back);
        assert_eq!(t.to_csv(), back.to_csv());
    }
}
