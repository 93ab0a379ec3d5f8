//! Live ≡ replay for every fold over the event stream.
//!
//! The observer folds each event into attribution, provenance and
//! telemetry as it is emitted; [`EventFolds::replay`] folds the parsed
//! log offline. Both must yield the same views for any faulted run,
//! including runs that end with jobs still pending or running.

mod common;

use common::faulty_scenario;
use lyra_obs::{summarize, EventFolds, TimedEvent};
use lyra_sim::{run_scenario_observed, ObserverConfig, SimReport};
use proptest::prelude::*;

/// Runs the faulted scenario observed, optionally stopping the drain
/// `drain_h` hours after the last submission, and parses its log.
fn observed_run(
    scenario: (u64, u64, f64, f64, f64),
    drain_h: Option<u32>,
) -> (SimReport, Vec<TimedEvent>) {
    let (seed, fault_seed, crash, worker, straggler) = scenario;
    let (mut s, jobs, inference) = faulty_scenario(seed, fault_seed, crash, worker, straggler);
    if let Some(h) = drain_h {
        s.sim.drain_horizon_s = f64::from(h) * 3600.0;
    }
    let r = run_scenario_observed(&s, &jobs, &inference, ObserverConfig::default())
        .expect("faulted run completes");
    let parsed = lyra_obs::parse_log(&r.events.join("\n")).expect("log parses");
    (r, parsed)
}

/// Asserts the live views equal the views replayed from the log.
fn assert_live_equals_replay(r: &SimReport, parsed: &[TimedEvent]) -> Result<(), TestCaseError> {
    // These runs log a few thousand events, well inside the ring, so
    // the parsed log is the whole stream the observer folded.
    prop_assert_eq!(
        parsed.first().map(|e| e.seq),
        Some(0),
        "ring dropped events"
    );
    let replay = EventFolds::replay(parsed);
    prop_assert_eq!(&r.attribution, &summarize(&replay.lifecycle.attributions()));
    prop_assert_eq!(&r.telemetry, &replay.telemetry);
    prop_assert_eq!(&r.provenance, &replay.into_graph());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The live attribution summary, provenance graph and telemetry
    /// equal the views replayed from the run's log. Half the runs stop
    /// draining early, so they end with unfinished jobs.
    #[test]
    fn live_folds_equal_log_replay(
        seed in 0u64..500,
        fault_seed in 0u64..500,
        crash_rate in 0.0f64..2.0,
        worker_rate in 0.0f64..10.0,
        straggler_rate in 0.0f64..2.0,
        drain_h in 0u32..48,
    ) {
        let (r, parsed) = observed_run(
            (seed, fault_seed, crash_rate, worker_rate, straggler_rate),
            (drain_h < 24).then_some(drain_h),
        );
        assert_live_equals_replay(&r, &parsed)?;
    }
}

#[test]
fn live_equals_replay_when_jobs_are_left_unfinished() {
    let (r, parsed) = observed_run((17, 23, 1.0, 8.0, 0.5), Some(0));
    assert!(
        r.completed < r.submitted,
        "the cut drain must leave jobs unfinished"
    );
    assert_live_equals_replay(&r, &parsed).unwrap_or_else(|e| panic!("{e:?}"));
}
