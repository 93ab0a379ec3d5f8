//! Timing loops: set-up, the measured runs, the traced run and the
//! offline replay, with a correctness check on every operation.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::Instant;

use lyra_obs::{AttributionSummary, Profile, ProvenanceGraph, TimedEvent};
use lyra_sim::{build_scenario, ObserverConfig, SimReport};

use crate::census::{census, Census, KINDS};
use crate::check::{check_replay, check_report};
use crate::reference;
use crate::workload::{Inputs, Workload};

/// Set-up repeats at least this often and for at least
/// [`SETUP_MIN_S`]; `setup_s` is the median repetition.
pub const SETUP_MIN_REPS: usize = 11;
/// Minimum host time spent on set-up repetitions, seconds.
pub const SETUP_MIN_S: f64 = 1.0;

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// What one benchmark run measured and how many operations it checked.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Simulations, replays and set-ups performed.
    pub attempted: u64,
    /// Those that errored or failed a check.
    pub failed: u64,
    /// End-to-end metrics, or per-layer metrics for a traced run.
    pub metrics: Vec<Metric>,
    /// Records digest of the first completed simulation.
    pub digest: Option<u64>,
}

impl Outcome {
    /// Every operation passed its checks.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }
}

/// One benchmark run.
pub struct Plan<'a> {
    /// Which workload this is.
    pub workload: Workload,
    /// Generates the run's inputs (timed as set-up).
    pub make_inputs: &'a dyn Fn() -> Inputs,
    /// Digest every simulation's records must have; `None` accepts the
    /// first run's digest and requires every later run to repeat it.
    pub expected_digest: Option<u64>,
    /// Measuring budget: runs repeat while the next one is expected to
    /// finish inside it. At least two end-to-end runs, or one traced
    /// cycle, always run.
    pub seconds: f64,
    /// Report per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Where observed runs write their JSONL sink.
    pub sink: PathBuf,
}

/// Counts operations and their failures.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    digest: Option<u64>,
}

impl Tally {
    fn op<T>(&mut self, what: &str, result: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                eprintln!("FAILED {what}: {e}");
                None
            }
        }
    }

    /// Checks a finished simulation against the expected digest, or
    /// against the first one seen.
    fn simulation(
        &mut self,
        what: &str,
        result: Result<Run, String>,
        expected: Option<u64>,
    ) -> Option<Run> {
        let expected = expected.or(self.digest);
        let run = self.op(
            what,
            result.and_then(|run| check_report(&run.report, expected).map(|d| (run, d))),
        )?;
        self.digest.get_or_insert(run.1);
        Some(run.0)
    }
}

/// A finished simulation with its host time and span profile.
struct Run {
    report: SimReport,
    secs: f64,
    profile: Profile,
}

/// Builds a fresh simulation (untimed) and times its run. `traced`
/// turns the span profiler on; an attached observer turns it on by
/// itself and returns the profile in the report.
fn simulate(
    inputs: &Inputs,
    observer: Option<ObserverConfig>,
    traced: bool,
) -> Result<Run, String> {
    let sim = build_scenario(&inputs.scenario, &inputs.jobs, &inputs.inference)
        .map_err(|e| format!("build: {e}"))?;
    let observed = observer.is_some();
    let sim = match observer {
        Some(cfg) => sim
            .with_observer(cfg)
            .map_err(|e| format!("observer: {e}"))?,
        None => sim,
    };
    if traced {
        lyra_obs::span::set_enabled(true);
        let _ = lyra_obs::span::take_profile();
    }
    let start = Instant::now();
    // A panic inside the simulator is a failed operation, not an abort.
    let result = catch_unwind(AssertUnwindSafe(|| sim.run(&inputs.scenario.name)));
    let secs = start.elapsed().as_secs_f64();
    let taken = lyra_obs::span::take_profile();
    lyra_obs::span::set_enabled(false);
    let report = result
        .map_err(|_| "run panicked".to_string())?
        .map_err(|e| format!("run: {e}"))?;
    let profile = if observed {
        report.profile.clone()
    } else {
        taken
    };
    Ok(Run {
        report,
        secs,
        profile,
    })
}

/// The sink read back and folded offline, with the host time of each
/// step.
struct Replay {
    parse_s: f64,
    attribute_s: f64,
    provenance_s: f64,
    census: Census,
}

fn replay(sink: &Path, report: &SimReport) -> Result<Replay, String> {
    let start = Instant::now();
    let text =
        std::fs::read_to_string(sink).map_err(|e| format!("read {}: {e}", sink.display()))?;
    let events: Vec<TimedEvent> = lyra_obs::parse_log(&text)?;
    let parse_s = start.elapsed().as_secs_f64();
    let start = Instant::now();
    let attribution: AttributionSummary = lyra_obs::summarize(&lyra_obs::attribute_log(&events));
    let attribute_s = start.elapsed().as_secs_f64();
    let start = Instant::now();
    let provenance: ProvenanceGraph = lyra_obs::build_provenance(&events);
    let provenance_s = start.elapsed().as_secs_f64();
    check_replay(report, &attribution, &provenance)?;
    Ok(Replay {
        parse_s,
        attribute_s,
        provenance_s,
        census: census(&text, &events)?,
    })
}

fn observer(sink: &Path, provenance: bool) -> ObserverConfig {
    ObserverConfig {
        sink_path: Some(sink.to_path_buf()),
        provenance,
        ..ObserverConfig::default()
    }
}

/// Peak resident set size of this process so far, MB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb * 1024.0 / 1e6)
}

/// Median of a non-empty sample (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Repeats `body` at least `min_reps` times, then while the next
/// repetition is expected to end inside the budget.
fn repeat(seconds: f64, min_reps: u32, mut body: impl FnMut()) {
    let start = Instant::now();
    let mut reps = 0;
    loop {
        body();
        reps += 1;
        let elapsed = start.elapsed().as_secs_f64();
        if reps >= min_reps && elapsed + elapsed / f64::from(reps) > seconds {
            break;
        }
    }
}

/// Host times of the set-up repetitions.
struct Setup {
    inputs: Inputs,
    generate_s: Vec<f64>,
    build_s: Vec<f64>,
    /// Reference kernel host times just before and just after.
    kernel_s: (f64, f64),
}

impl Setup {
    /// Median set-up repetition at the reference host speed.
    fn setup_s(&self) -> f64 {
        let totals: Vec<f64> = self
            .generate_s
            .iter()
            .zip(&self.build_s)
            .map(|(g, b)| g + b)
            .collect();
        reference::normalise(median(&totals), self.kernel_s.0, self.kernel_s.1)
    }
}

/// Generates the traces and builds the simulation repeatedly (see
/// [`SETUP_MIN_REPS`]). The set-up is one checked operation: it fails
/// if any build does.
fn setup(plan: &Plan, tally: &mut Tally) -> Option<Setup> {
    let mut generate_s = Vec::new();
    let mut build_s = Vec::new();
    let before = reference::kernel();
    let start = Instant::now();
    let inputs = loop {
        let t = Instant::now();
        let made = (plan.make_inputs)();
        generate_s.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        let built = build_scenario(&made.scenario, &made.jobs, &made.inference);
        build_s.push(t.elapsed().as_secs_f64());
        if let Err(e) = built {
            break Err(format!("build: {e}"));
        }
        if generate_s.len() >= SETUP_MIN_REPS && start.elapsed().as_secs_f64() >= SETUP_MIN_S {
            break Ok(made);
        }
    };
    let after = reference::kernel();
    Some(Setup {
        inputs: tally.op("setup", inputs)?,
        generate_s,
        build_s,
        kernel_s: (before, after),
    })
}

/// Runs the plan and returns its checked outcome.
pub fn run(plan: &Plan) -> Outcome {
    let mut tally = Tally::default();
    if let Some(dir) = plan.sink.parent() {
        // Failing here makes every observed run fail to open its sink.
        let _ = std::fs::create_dir_all(dir);
    }
    let metrics = match setup(plan, &mut tally) {
        Some(setup) if plan.trace => traced(plan, &setup, &mut tally),
        Some(setup) => untraced(plan, &setup, &mut tally),
        None => Vec::new(),
    };
    let _ = std::fs::remove_file(&plan.sink);
    Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        digest: tally.digest,
    }
}

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

/// The end-to-end run: the workload's simulation repeated for the
/// budget (observed and replayed for `observed-replay`). The timed
/// metrics, `setup_s`, `run_s` and `jobs_per_s`, are taken at the
/// reference host speed (see [`reference`]).
fn untraced(plan: &Plan, setup: &Setup, tally: &mut Tally) -> Vec<Metric> {
    let inputs = &setup.inputs;
    let expected = plan.expected_digest;
    if plan.workload.observed() {
        // The bare run the observed records must equal.
        tally.simulation("bare run", simulate(inputs, None, false), expected);
    }
    // Host time of each simulation, and the same at the reference host
    // speed. The reference kernel runs before the first simulation and
    // after each one, so every simulation has a kernel run on each side.
    let mut raw_s = Vec::new();
    let mut run_s = Vec::new();
    let mut kernel_s = vec![reference::kernel()];
    let mut first: Option<SimReport> = None;
    // Two runs at least, so that a single slow stretch of the host does
    // not decide the median of a workload whose run takes half the
    // budget.
    repeat(plan.seconds, 2, || {
        let cfg = plan.workload.observed().then(|| observer(&plan.sink, true));
        let Some(run) = tally.simulation("run", simulate(inputs, cfg, false), expected) else {
            return;
        };
        let before = *kernel_s.last().expect("timed before the first run");
        let after = reference::kernel();
        kernel_s.push(after);
        let secs = reference::normalise(run.secs, before, after);
        raw_s.push(run.secs);
        run_s.push(secs);
        eprintln!(
            "run {}: {:.3} s host time, kernel {after:.3} s, {secs:.3} s at reference speed",
            run_s.len(),
            run.secs
        );
        if plan.workload.observed() {
            // Replaying once per process checks the sink and puts its
            // memory into the peak; later runs are only timed.
            if first.is_none() {
                tally.op("replay", replay(&plan.sink, &run.report));
            }
            let _ = std::fs::remove_file(&plan.sink);
        }
        first.get_or_insert(run.report);
    });
    let rss = tally.op("peak rss", peak_rss_mb()).unwrap_or(0.0);
    let run_median = median(&run_s);
    eprintln!(
        "median of {} runs: {:.3} s host time, kernel {:.3} s, {run_median:.3} s at reference speed",
        run_s.len(),
        median(&raw_s),
        median(&kernel_s)
    );
    let (jobs, jct) = first.map_or((0, Default::default()), |r| (r.submitted, r.jct));
    vec![
        metric("setup_s", setup.setup_s(), "s"),
        metric("run_s", run_median, "s"),
        metric(
            "jobs_per_s",
            if run_median > 0.0 {
                jobs as f64 / run_median
            } else {
                0.0
            },
            "jobs/s",
        ),
        metric("peak_rss_mb", rss, "MB"),
        metric("jct_p50_s", jct.p50, "s"),
        metric("jct_p99_s", jct.p99, "s"),
    ]
}

/// Spans whose self time is reported, in output order. With the
/// loop residual they add up to the traced run time.
const SELF_SPANS: &[&str] = &[
    "sim.scheduler_tick",
    "sim.snapshot_refresh",
    "sim.orchestrator_tick",
    "sim.telemetry_sample",
    "core.allocation",
    "core.placement.gang",
    "core.placement.flex",
    "core.mckp",
    "core.reclaim",
    "cluster.loan",
    "cluster.reclaim",
    "elastic.rendezvous",
];

/// Spans whose call count is reported.
const CALL_SPANS: &[&str] = &[
    "sim.orchestrator_tick",
    "core.placement.gang",
    "core.mckp",
    "core.reclaim",
    "cluster.loan",
    "cluster.reclaim",
    "elastic.rendezvous",
];

/// Fixed-name per-layer metrics, in output order after the spans.
const LAYER_METRICS: &[(&str, &str)] = &[
    ("core.placement.gang.calls_per_job", "ratio"),
    ("sim.loop_residual_s", "s"),
    ("sim.loop_residual_share", "ratio"),
    ("obs.overhead_s", "s"),
    ("obs.overhead_ratio", "ratio"),
    ("obs.provenance_live_s", "s"),
    ("obs.rss_delta_mb", "MB"),
    ("obs.events", "count"),
    ("obs.sink_bytes", "bytes"),
    ("obs.parse_s", "s"),
    ("obs.attribute_s", "s"),
    ("obs.provenance_replay_s", "s"),
    ("obs.replay_s", "s"),
    ("trace.untraced_run_s", "s"),
    ("trace.traced_run_s", "s"),
    ("trace.overhead_s", "s"),
    ("host.reference_s", "s"),
];

/// Name and unit of every per-layer metric, in output order.
fn per_layer_metrics() -> Vec<(String, &'static str)> {
    let mut out = vec![
        ("trace.generate_s".to_string(), "s"),
        ("sim.build_s".to_string(), "s"),
        ("sim.epochs".to_string(), "count"),
    ];
    out.extend(SELF_SPANS.iter().map(|n| (format!("{n}.self_s"), "s")));
    out.extend(CALL_SPANS.iter().map(|n| (format!("{n}.calls"), "count")));
    out.extend(LAYER_METRICS.iter().map(|(n, u)| (n.to_string(), *u)));
    for kind in KINDS {
        out.push((format!("obs.events.{kind}"), "count"));
        out.push((format!("obs.bytes.{kind}"), "bytes"));
    }
    out
}

/// Per-layer values by metric name, one per traced cycle that measured
/// it. Reported as medians; a metric no cycle measured reads 0.
#[derive(Default)]
struct Samples(BTreeMap<String, Vec<f64>>);

impl Samples {
    fn push(&mut self, name: &str, value: f64) {
        self.0.entry(name.to_string()).or_default().push(value);
    }

    /// Records the spans of the workload's traced simulation.
    fn profile(&mut self, run: &Run) {
        let span = |name: &str| run.profile.0.iter().find(|p| p.name == name);
        for name in SELF_SPANS {
            self.push(
                &format!("{name}.self_s"),
                span(name).map_or(0.0, |p| p.self_s),
            );
        }
        let calls = |name: &str| span(name).map_or(0.0, |p| p.calls as f64);
        for name in CALL_SPANS {
            self.push(&format!("{name}.calls"), calls(name));
        }
        self.push("sim.epochs", calls("sim.scheduler_tick"));
        self.push(
            "core.placement.gang.calls_per_job",
            calls("core.placement.gang") / run.report.submitted.max(1) as f64,
        );
        let spanned: f64 = run.profile.0.iter().map(|p| p.self_s).sum();
        self.push("sim.loop_residual_s", run.secs - spanned);
        self.push("sim.loop_residual_share", (run.secs - spanned) / run.secs);
    }

    fn tracing(&mut self, untraced: &Run, traced: &Run) {
        self.push("trace.untraced_run_s", untraced.secs);
        self.push("trace.traced_run_s", traced.secs);
        self.push("trace.overhead_s", traced.secs - untraced.secs);
    }

    fn replay(&mut self, r: &Replay) {
        self.push("obs.parse_s", r.parse_s);
        self.push("obs.attribute_s", r.attribute_s);
        self.push("obs.provenance_replay_s", r.provenance_s);
        self.push("obs.replay_s", r.parse_s + r.attribute_s + r.provenance_s);
        self.push("obs.events", r.census.events.iter().sum::<u64>() as f64);
        self.push("obs.sink_bytes", r.census.bytes.iter().sum::<u64>() as f64);
        for (i, kind) in KINDS.iter().enumerate() {
            self.push(&format!("obs.events.{kind}"), r.census.events[i] as f64);
            self.push(&format!("obs.bytes.{kind}"), r.census.bytes[i] as f64);
        }
    }
}

/// The traced run, repeated in cycles for the budget. Each cycle first
/// times the reference kernel. A bare workload's cycle then runs its
/// simulation untraced and traced. An `observed-replay` cycle runs the
/// bare simulation untraced and traced, the observed one without and
/// with provenance, and the timed replay of its sink.
fn traced(plan: &Plan, setup: &Setup, tally: &mut Tally) -> Vec<Metric> {
    let inputs = &setup.inputs;
    let expected = plan.expected_digest;
    let mut s = Samples::default();
    s.push("trace.generate_s", median(&setup.generate_s));
    s.push("sim.build_s", median(&setup.build_s));
    repeat(plan.seconds, 1, || {
        s.push("host.reference_s", reference::kernel());
        let untraced = tally.simulation("untraced run", simulate(inputs, None, false), expected);
        let hwm_bare = peak_rss_mb();
        let traced = tally.simulation("traced run", simulate(inputs, None, true), expected);
        if let (Some(untraced), Some(traced)) = (&untraced, &traced) {
            s.tracing(untraced, traced);
        }
        if !plan.workload.observed() {
            if let Some(traced) = &traced {
                s.profile(traced);
            }
            return;
        }
        let no_prov = tally.simulation(
            "run without provenance",
            simulate(inputs, Some(observer(&plan.sink, false)), false),
            expected,
        );
        let _ = std::fs::remove_file(&plan.sink);
        let Some(run) = tally.simulation(
            "observed run",
            simulate(inputs, Some(observer(&plan.sink, true)), false),
            expected,
        ) else {
            return;
        };
        // VmHWM only grows, so only the first cycle measures the growth.
        if !s.0.contains_key("obs.rss_delta_mb") {
            if let (Ok(before), Ok(after)) = (hwm_bare, peak_rss_mb()) {
                s.push("obs.rss_delta_mb", after - before);
            }
        }
        s.profile(&run);
        if let Some(bare) = &untraced {
            s.push("obs.overhead_s", run.secs - bare.secs);
            s.push("obs.overhead_ratio", run.secs / bare.secs);
        }
        if let Some(no_prov) = &no_prov {
            s.push("obs.provenance_live_s", run.secs - no_prov.secs);
        }
        if let Some(r) = tally.op("replay", replay(&plan.sink, &run.report)) {
            s.replay(&r);
        }
        let _ = std::fs::remove_file(&plan.sink);
    });
    per_layer_metrics()
        .into_iter()
        .map(|(name, unit)| {
            let value = s.0.get(&name).map_or(0.0, |v| median(v));
            Metric { name, value, unit }
        })
        .collect()
}
