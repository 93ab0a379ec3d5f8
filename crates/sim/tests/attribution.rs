//! Delay-attribution properties over randomly faulted scenarios.
//!
//! The engine's online lifecycle tracker must produce, for every job, an
//! ordered, disjoint, gapless partition of `[arrival, completion)` —
//! the engine itself enforces this at the end of every observed run
//! (release builds included), and these tests check the same invariant
//! on the *log-derived* decomposition plus same-seed byte-identity of
//! the rendered artifacts. Live ≡ replay is checked in `folds.rs`.

mod common;

use common::faulty_scenario;
use lyra_obs::{attribute_log, export_chrome_trace, validate_chrome_trace};
use lyra_sim::{run_scenario_observed, ObserverConfig};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Every job's attributed intervals are ordered, disjoint and sum
    /// exactly to `completion − arrival`, whatever faults fired.
    #[test]
    fn attribution_partitions_every_job_exactly(
        seed in 0u64..500,
        fault_seed in 0u64..500,
        crash_rate in 0.0f64..2.0,
        worker_rate in 0.0f64..10.0,
        straggler_rate in 0.0f64..2.0,
    ) {
        let (s, jobs, inference) =
            faulty_scenario(seed, fault_seed, crash_rate, worker_rate, straggler_rate);
        // The run itself reconciles every job (release-mode audit in
        // `finish_observation`); an error here means a partition broke.
        let r = run_scenario_observed(&s, &jobs, &inference, ObserverConfig::default())
            .expect("attribution reconciles inside the engine");
        let log = r.events.join("\n");
        let parsed = lyra_obs::parse_log(&log).expect("log parses");
        let admits = parsed
            .iter()
            .filter(|e| matches!(e.event, lyra_obs::SchedEvent::JobAdmit { .. }))
            .count();
        let attrs = attribute_log(&parsed);
        prop_assert_eq!(attrs.len(), admits, "one attribution per admitted job");
        for a in &attrs {
            if let Err(e) = a.reconcile() {
                return Err(TestCaseError::fail(e));
            }
            for w in a.intervals.windows(2) {
                prop_assert!(
                    w[0].end_ms <= w[1].start_ms,
                    "job {}: intervals out of order or overlapping",
                    a.job
                );
            }
            if let Some(done) = a.completion_ms {
                prop_assert_eq!(
                    a.attributed_ms(),
                    done - a.arrival_ms,
                    "job {}: Σ intervals ≠ completion − arrival",
                    a.job
                );
            }
        }
    }
}

#[test]
fn same_seed_runs_yield_identical_tables_and_traces() {
    let (s, jobs, inference) = faulty_scenario(17, 23, 1.0, 8.0, 0.5);
    let a = run_scenario_observed(&s, &jobs, &inference, ObserverConfig::default()).expect("runs");
    let b = run_scenario_observed(&s, &jobs, &inference, ObserverConfig::default()).expect("runs");
    assert_eq!(a.attribution, b.attribution, "summaries match");
    assert_eq!(
        a.attribution.render_table(),
        b.attribution.render_table(),
        "attribution tables are byte-identical"
    );
    let parsed_a = lyra_obs::parse_log(&a.events.join("\n")).expect("parses");
    let parsed_b = lyra_obs::parse_log(&b.events.join("\n")).expect("parses");
    let trace_a = export_chrome_trace(&parsed_a);
    let trace_b = export_chrome_trace(&parsed_b);
    assert_eq!(trace_a, trace_b, "Chrome traces are byte-identical");
    let stats = validate_chrome_trace(&trace_a).expect("trace is well-formed");
    assert!(stats.events > 0 && stats.span_pairs > 0, "trace has content");
}

#[test]
fn fault_causes_show_up_in_the_summary() {
    let (s, jobs, inference) = faulty_scenario(41, 7, 2.0, 10.0, 1.0);
    let r = run_scenario_observed(&s, &jobs, &inference, ObserverConfig::default()).expect("runs");
    assert!(r.fault.injected > 0, "plan fired");
    let productive = r
        .attribution
        .causes
        .iter()
        .find(|c| c.cause == lyra_obs::DelayCause::Productive)
        .expect("productive time exists");
    assert!(productive.total_ms > 0);
    assert_eq!(
        r.attribution.jobs,
        r.submitted,
        "every submitted job is tracked"
    );
    if r.fault.jobs_killed > 0 {
        assert!(
            r.attribution
                .causes
                .iter()
                .any(|c| c.cause == lyra_obs::DelayCause::FaultRestart),
            "killed jobs charge fault-restart time: {:?}",
            r.attribution.causes
        );
    }
}
