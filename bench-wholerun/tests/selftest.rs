//! Self-tests of the benchmark at a tiny size: its printed metric names
//! match `BENCHMARK.json`, its inputs follow the seed, and a perturbed
//! scenario is reported as failed rather than passed.

use std::path::{Path, PathBuf};

use lyra_wholerun::{run, to_json, Inputs, Outcome, Plan, Size, Workload};
use serde::Value;

fn sink(tag: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("selftest-{tag}.jsonl"))
}

/// Runs one tiny workload once; `tamper` edits the generated inputs.
/// `test` names the sink, since tests run on parallel threads.
fn tiny(
    test: &str,
    workload: Workload,
    seed: u64,
    trace: bool,
    tamper: fn(&mut Inputs),
) -> Outcome {
    let make_inputs = || {
        let mut inputs = workload.inputs(Size::Tiny, seed);
        tamper(&mut inputs);
        inputs
    };
    let plan = Plan {
        workload,
        make_inputs: &make_inputs,
        expected_digest: (seed == workload.default_seed())
            .then(|| workload.pinned_digest(Size::Tiny)),
        seconds: 0.0,
        trace,
        sink: sink(&format!(
            "{test}-{}-{seed}-{}",
            workload.name(),
            u8::from(trace)
        )),
    };
    run(&plan)
}

fn untouched(_: &mut Inputs) {}

/// `(name, unit)` of each metric listed under `key` in BENCHMARK.json.
fn listed(key: &str) -> Vec<(String, String)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json next to the benchmark");
    let json: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    let field = |m: &Value, f: &str| match m.get(f) {
        Some(Value::Str(s)) => s.clone(),
        other => panic!("{key} entry field {f} is {other:?}"),
    };
    json.get(key)
        .and_then(Value::as_array)
        .expect("metric list")
        .iter()
        .map(|m| (field(m, "name"), field(m, "unit")))
        .collect()
}

#[test]
fn printed_metrics_match_benchmark_json() {
    for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
        let want = listed(key);
        for workload in Workload::ALL {
            let outcome = tiny("names", workload, workload.default_seed(), trace, untouched);
            let got: Vec<(String, String)> = outcome
                .metrics
                .iter()
                .map(|m| (m.name.clone(), m.unit.to_string()))
                .collect();
            assert_eq!(got, want, "{} trace={trace}", workload.name());
            let line: Value = serde_json::from_str(&to_json(&outcome)).expect("result line parses");
            let Some(Value::Object(metrics)) = line.get("metrics") else {
                panic!("result line has no metrics object");
            };
            assert_eq!(metrics.len(), want.len());
            assert_eq!(line.get("correct"), Some(&Value::Bool(true)));
        }
    }
}

#[test]
fn default_seeds_match_pinned_digests() {
    for workload in Workload::ALL {
        for trace in [false, true] {
            let outcome = tiny("pins", workload, workload.default_seed(), trace, untouched);
            assert!(outcome.correct(), "{} trace={trace}", workload.name());
            assert!(outcome.attempted > 0);
            assert_eq!(outcome.digest, Some(workload.pinned_digest(Size::Tiny)));
        }
    }
}

#[test]
fn seed_changes_the_digest() {
    for workload in Workload::ALL {
        let seed = workload.default_seed();
        let a = tiny("seed", workload, seed, false, untouched);
        let b = tiny("seed", workload, seed + 1, false, untouched);
        assert!(a.correct() && b.correct(), "{}", workload.name());
        assert_ne!(a.digest, b.digest, "{}", workload.name());
    }
}

#[test]
fn perturbed_scenario_is_a_failed_operation() {
    fn other_policy(inputs: &mut Inputs) {
        inputs.scenario.policy = "fifo-backfill".to_string();
    }
    for workload in Workload::ALL {
        for trace in [false, true] {
            let outcome = tiny(
                "perturbed",
                workload,
                workload.default_seed(),
                trace,
                other_policy,
            );
            assert!(!outcome.correct(), "{} trace={trace}", workload.name());
            assert!(outcome.failed >= 1 && outcome.failed <= outcome.attempted);
        }
    }
}
