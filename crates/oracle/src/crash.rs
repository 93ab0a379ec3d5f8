//! The kill-and-resume crash-storm harness.
//!
//! Proves the checkpoint/restore subsystem end to end: the faulted
//! golden scenario is killed at seeded random epochs by injecting a
//! [`FaultKind::SchedulerCrash`], the crash-point
//! [`EngineState`](lyra_sim::EngineState) is
//! saved through the durable [`SimCheckpoint`] file format (atomic
//! write, checksum header), the JSONL sink is torn mid-line to
//! simulate a crash cutting a write, and the run is restored and
//! driven to completion. The gate is *byte-identical equivalence*: the
//! resumed run's event log, delay-attribution table, `SimReport` JSON
//! (wall-clock profile excluded), on-disk JSONL sink, telemetry series
//! export (CSV) and Prometheus exposition must all equal the
//! uninterrupted run's, for every kill point.
//!
//! One kill point per storm is deliberately placed past the end of the
//! run: the crash event then never fires, and the report must *still*
//! match the baseline — inserting a never-fired fault into the plan
//! must be unobservable.
//!
//! The storm also exercises the refusal paths once per run: a
//! bit-flipped, a truncated and a version-bumped copy of a real
//! checkpoint must each be rejected with the right typed
//! [`CheckpointError`], never partially loaded.

use lyra_sim::checkpoint;
use lyra_sim::{
    build_scenario, CheckpointError, FaultEvent, FaultKind, ObserverConfig, RunOutcome,
    SimCheckpoint, SimReport,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fs;
use std::path::{Path, PathBuf};

/// Outcome of one kill point in a storm.
#[derive(Debug)]
pub struct KillOutcome {
    /// Simulated time the scheduler was killed at, seconds.
    pub kill_time_s: f64,
    /// Whether the kill actually interrupted the run (`false` when the
    /// kill landed after the run had already finished — the crash event
    /// never fired and the comparison degenerates to determinism).
    pub resumed: bool,
    /// Every divergence from the uninterrupted baseline (empty = pass).
    pub failures: Vec<String>,
}

/// Summary of a whole crash storm.
#[derive(Debug)]
pub struct StormReport {
    /// Scenario name the storm ran against.
    pub name: String,
    /// Per-kill outcomes, in kill order.
    pub kills: Vec<KillOutcome>,
}

impl StormReport {
    /// `true` when every kill point matched the baseline byte-for-byte.
    pub fn passed(&self) -> bool {
        self.kills.iter().all(|k| k.failures.is_empty())
    }

    /// Human-readable per-kill summary for CLI output.
    pub fn render(&self) -> String {
        let mut out = format!("crash storm on `{}`: {} kill points\n", self.name, self.kills.len());
        for (i, k) in self.kills.iter().enumerate() {
            let what = if k.resumed { "kill+resume" } else { "past end" };
            if k.failures.is_empty() {
                out.push_str(&format!("  kill {i:2} @ {:>9.1}s  {what:11}  ok\n", k.kill_time_s));
            } else {
                out.push_str(&format!(
                    "  kill {i:2} @ {:>9.1}s  {what:11}  FAIL\n",
                    k.kill_time_s
                ));
                for f in &k.failures {
                    out.push_str(&format!("      {f}\n"));
                }
            }
        }
        out.push_str(if self.passed() {
            "resume ≡ uninterrupted: PASS"
        } else {
            "resume ≡ uninterrupted: FAIL"
        });
        out
    }
}

/// The uninterrupted run's artifacts, captured once per storm.
struct Baseline {
    /// Report JSON with the wall-clock profile zeroed.
    report_json: String,
    /// Ring-buffer event log lines.
    events: Vec<String>,
    /// Rendered delay-attribution table derived from the log.
    table: String,
    /// Raw bytes of the on-disk JSONL sink.
    sink_bytes: Vec<u8>,
    /// Telemetry series export (CSV long format) — the bounded-memory
    /// ring series are checkpointed engine state, so a resumed run must
    /// reproduce the export byte-for-byte.
    series_csv: String,
    /// Prometheus text exposition rendered from the telemetry store.
    prom: String,
    /// `why` rendering for the first preemption victim, top-5 `blame`
    /// table and flow-annotated provenance trace, all derived from the
    /// log — the online graph is pinned through the report JSON, these
    /// pin the offline rendering pipeline too.
    why: String,
    blame: String,
    prov_trace: String,
    /// Simulated time of the last logged event, seconds.
    last_s: f64,
}

/// Derives the provenance artifacts from a JSONL event log: the `why`
/// rendering for the log's first preemption victim (or a fixed line if
/// none), the top-5 blame table and the provenance-annotated Chrome
/// trace.
fn provenance_artifacts(events: &[String]) -> Result<(String, String, String), String> {
    let parsed =
        lyra_obs::parse_log(&events.join("\n")).map_err(|e| format!("log does not parse: {e}"))?;
    let victim = parsed.iter().find_map(|e| match &e.event {
        lyra_obs::SchedEvent::JobPreempt { job, .. } => Some(*job),
        _ => None,
    });
    let why = match victim {
        Some(job) => lyra_obs::why_from_log(&parsed, job).map_err(|e| format!("why: {e}"))?,
        None => "no preemption victim in log\n".to_string(),
    };
    let blame = lyra_obs::blame_from_log(&parsed, 5);
    Ok((why, blame, lyra_obs::export_provenance_trace(&parsed)))
}

/// Renders the Prometheus exposition a finished run would serve.
fn prom_text(report: &SimReport) -> String {
    lyra_obs::render_prometheus(&report.telemetry)
}

/// Serializes a report with its wall-clock profile zeroed; timing data
/// is run-dependent and explicitly outside the equivalence contract.
fn report_json(report: &SimReport) -> Result<String, String> {
    let mut r = report.clone();
    r.profile = lyra_obs::Profile::default();
    serde_json::to_string(&r).map_err(|e| format!("serializing report: {e:?}"))
}

/// Derives the rendered attribution table from a JSONL event log.
fn attribution_table(events: &[String]) -> Result<String, String> {
    let parsed =
        lyra_obs::parse_log(&events.join("\n")).map_err(|e| format!("log does not parse: {e}"))?;
    Ok(lyra_obs::summarize(&lyra_obs::attribute_log(&parsed)).render_table())
}

/// Runs a scenario under full observation with a JSONL sink at `sink`,
/// returning the outcome.
fn run_observed(
    scenario: &lyra_sim::Scenario,
    jobs: &lyra_trace::JobTrace,
    inference: &lyra_trace::InferenceTrace,
    sink: &Path,
) -> Result<RunOutcome, String> {
    let _ = fs::remove_file(sink);
    build_scenario(scenario, jobs, inference)
        .map_err(|e| format!("building `{}`: {e}", scenario.name))?
        .with_observer(ObserverConfig {
            sink_path: Some(sink.to_path_buf()),
            ..ObserverConfig::default()
        })
        .map_err(|e| format!("opening sink {}: {e}", sink.display()))?
        .run_to_outcome(&scenario.name)
        .map_err(|e| format!("running `{}`: {e}", scenario.name))
}

/// Compares one finished run against the baseline; returns every
/// divergence as a message.
fn compare(report: &SimReport, sink: &Path, base: &Baseline) -> Vec<String> {
    let mut failures = Vec::new();
    if report.events != base.events {
        let first = report
            .events
            .iter()
            .zip(&base.events)
            .position(|(a, b)| a != b)
            .map_or_else(
                || format!("length {} vs {}", report.events.len(), base.events.len()),
                |i| format!("first diff at line {i}"),
            );
        failures.push(format!("event log diverges ({first})"));
    }
    match attribution_table(&report.events) {
        Ok(table) if table != base.table => {
            failures.push("attribution table diverges".to_string());
        }
        Ok(_) => {}
        Err(e) => failures.push(format!("attribution table: {e}")),
    }
    match report_json(report) {
        Ok(json) if json != base.report_json => {
            failures.push("SimReport JSON diverges".to_string());
        }
        Ok(_) => {}
        Err(e) => failures.push(e),
    }
    match fs::read(sink) {
        Ok(bytes) if bytes != base.sink_bytes => failures.push(format!(
            "JSONL sink bytes diverge ({} vs {} bytes)",
            bytes.len(),
            base.sink_bytes.len()
        )),
        Ok(_) => {}
        Err(e) => failures.push(format!("reading sink {}: {e}", sink.display())),
    }
    if report.telemetry.to_csv() != base.series_csv {
        failures.push("telemetry series export diverges".to_string());
    }
    if prom_text(report) != base.prom {
        failures.push("Prometheus exposition diverges".to_string());
    }
    match provenance_artifacts(&report.events) {
        Ok((why, blame, prov_trace)) => {
            if why != base.why {
                failures.push("provenance `why` rendering diverges".to_string());
            }
            if blame != base.blame {
                failures.push("provenance `blame` table diverges".to_string());
            }
            if prov_trace != base.prov_trace {
                failures.push("provenance trace diverges".to_string());
            }
        }
        Err(e) => failures.push(format!("provenance artifacts: {e}")),
    }
    failures
}

/// Asserts the checkpoint loader refuses corrupted copies of a real
/// checkpoint file with the right typed error, never a partial load.
fn refusal_checks(ckpt: &Path, scratch: &Path) -> Vec<String> {
    let mut failures = Vec::new();
    let bytes = match fs::read(ckpt) {
        Ok(b) => b,
        Err(e) => return vec![format!("reading checkpoint {}: {e}", ckpt.display())],
    };
    let mut check = |name: &str, mutated: Vec<u8>, want: fn(&CheckpointError) -> bool| {
        let path = scratch.join(format!("refusal-{name}.ckpt"));
        if let Err(e) = fs::write(&path, &mutated) {
            failures.push(format!("writing {name} copy: {e}"));
            return;
        }
        match SimCheckpoint::load(&path) {
            Ok(_) => failures.push(format!("{name} checkpoint was accepted")),
            Err(e) if want(&e) => {}
            Err(e) => failures.push(format!("{name} checkpoint: wrong error kind: {e}")),
        }
        let _ = fs::remove_file(&path);
    };

    // Flip one payload bit (well past the header line).
    let mut flipped = bytes.clone();
    let mid = bytes.len() / 2;
    flipped[mid] ^= 0x01;
    check("bit-flipped", flipped, |e| {
        matches!(e, CheckpointError::ChecksumMismatch { .. })
    });

    // Cut the tail off the payload.
    check("truncated", bytes[..bytes.len() - 64].to_vec(), |e| {
        matches!(e, CheckpointError::ChecksumMismatch { .. })
    });

    // Bump the header's format version.
    let text = String::from_utf8_lossy(&bytes);
    let bumped = text.replacen(
        &format!("\"version\":{}", lyra_sim::checkpoint::CHECKPOINT_VERSION),
        "\"version\":999",
        1,
    );
    if bumped == text {
        failures.push("version-bump mutation did not apply".to_string());
    } else {
        check("version-bumped", bumped.into_bytes(), |e| {
            matches!(e, CheckpointError::VersionMismatch { .. })
        });
    }
    failures
}

/// Runs a crash storm: `kills` seeded kill points against the faulted
/// golden scenario, each saved through the checkpoint file, restored,
/// and compared byte-for-byte against the uninterrupted baseline.
/// Scratch files (sinks, checkpoints) live under `dir`; artifacts of
/// failing kill points are left behind for inspection, passing ones
/// are cleaned up.
///
/// # Errors
///
/// Returns `Err` only for harness-level problems (the baseline run or
/// a rebuild failing, I/O on `dir`). Divergence is *not* an `Err`: it
/// is recorded per kill in the returned [`StormReport`].
pub fn crash_storm(kills: usize, seed: u64, dir: &Path) -> Result<StormReport, String> {
    fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let case = crate::golden::cases()
        .into_iter()
        .find(|c| c.scenario.faults.is_some())
        .ok_or("no faulted golden case to storm")?;
    let name = case.scenario.name.clone();

    // Uninterrupted baseline.
    let base_sink = dir.join("baseline.jsonl");
    let base_report = match run_observed(&case.scenario, &case.jobs, &case.inference, &base_sink)? {
        RunOutcome::Completed(r) => *r,
        RunOutcome::Crashed(_) => {
            return Err("baseline run crashed: the golden fault plan must not contain \
                 SchedulerCrash events"
                .to_string())
        }
    };
    let last_s = lyra_obs::parse_log(&base_report.events.join("\n"))
        .map_err(|e| format!("baseline log does not parse: {e}"))?
        .last()
        .map(|ev| ev.time_ms as f64 / 1000.0)
        .ok_or("baseline log is empty")?;
    let (why, blame, prov_trace) = provenance_artifacts(&base_report.events)?;
    let base = Baseline {
        report_json: report_json(&base_report)?,
        table: attribution_table(&base_report.events)?,
        sink_bytes: fs::read(&base_sink)
            .map_err(|e| format!("reading baseline sink: {e}"))?,
        series_csv: base_report.telemetry.to_csv(),
        prom: prom_text(&base_report),
        why,
        blame,
        prov_trace,
        events: base_report.events,
        last_s,
    };

    let mut rng = StdRng::seed_from_u64(seed);
    let mut outcomes = Vec::with_capacity(kills);
    let mut refused = false;
    for i in 0..kills {
        // The last kill point lands past the end of the run on purpose.
        let kill_time_s = if i + 1 == kills && kills > 1 {
            base.last_s * 2.0
        } else {
            (rng.gen::<f64>() * base.last_s).max(1.0)
        };

        let mut scenario = case.scenario.clone();
        let plan = scenario.faults.as_mut().expect("faulted case");
        // Appended, not inserted in time order: fault log lines carry
        // the plan *index* of the fired event, so shifting existing
        // indices would make the injection itself observable.
        plan.events.push(FaultEvent {
            time_s: kill_time_s,
            kind: FaultKind::SchedulerCrash,
        });

        let sink = dir.join(format!("kill-{i}.jsonl"));
        let ckpt: PathBuf = dir.join(format!("kill-{i}.ckpt"));
        let (resumed, failures) =
            match run_observed(&scenario, &case.jobs, &case.inference, &sink)? {
                // Kill landed after the run finished: the inserted,
                // never-fired crash event must be unobservable.
                RunOutcome::Completed(report) => (false, compare(&report, &sink, &base)),
                RunOutcome::Crashed(state) => {
                    let mut failures = Vec::new();
                    SimCheckpoint::new(
                        scenario.clone(),
                        case.jobs.clone(),
                        case.inference.clone(),
                        *state,
                    )
                    .save(&ckpt)
                    .map_err(|e| format!("saving checkpoint {}: {e}", ckpt.display()))?;
                    if !refused {
                        refused = true;
                        failures.extend(refusal_checks(&ckpt, dir));
                    }
                    // Tear the sink mid-line, as a real crash cutting a
                    // write would; restore must repair the tail.
                    {
                        use std::io::Write;
                        let mut f = fs::OpenOptions::new()
                            .append(true)
                            .open(&sink)
                            .map_err(|e| format!("tearing sink {}: {e}", sink.display()))?;
                        f.write_all(b"{\"time_ms\":9")
                            .map_err(|e| format!("tearing sink: {e}"))?;
                    }
                    match checkpoint::resume(&ckpt, &name) {
                        Ok(RunOutcome::Completed(report)) => {
                            failures.extend(compare(&report, &sink, &base));
                        }
                        Ok(RunOutcome::Crashed(_)) => {
                            failures.push("resumed run crashed again".to_string());
                        }
                        Err(e) => failures.push(format!("resume failed: {e}")),
                    }
                    (true, failures)
                }
            };
        if failures.is_empty() {
            let _ = fs::remove_file(&sink);
            let _ = fs::remove_file(&ckpt);
        }
        outcomes.push(KillOutcome {
            kill_time_s,
            resumed,
            failures,
        });
    }
    let report = StormReport {
        name,
        kills: outcomes,
    };
    if report.passed() {
        let _ = fs::remove_file(&base_sink);
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("lyra-crash-storm-{tag}-{}", std::process::id()))
    }

    #[test]
    fn storm_of_three_kills_matches_baseline() {
        let dir = scratch("three");
        let report = crash_storm(3, 42, &dir).expect("storm harness");
        assert_eq!(report.kills.len(), 3);
        assert!(report.passed(), "{}", report.render());
        // At least one kill must have actually interrupted the run and
        // the last one must have landed past the end.
        assert!(report.kills.iter().any(|k| k.resumed), "{}", report.render());
        assert!(!report.kills.last().unwrap().resumed, "{}", report.render());
        let _ = fs::remove_dir_all(&dir);
    }
}
