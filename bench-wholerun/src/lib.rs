//! Whole-run benchmark of the Lyra simulator.
//!
//! Each workload generates its traces from a seed, simulates them for a
//! time budget and checks every run; a traced run splits the host time
//! into the span profiler's layers and, on `observed-replay`, measures
//! what observation and offline replay of the event log cost. See
//! `README.md` next to this crate for the workloads and metrics.

pub mod census;
pub mod check;
pub mod reference;
pub mod run;
pub mod workload;

pub use run::{run, Metric, Outcome, Plan};
pub use workload::{Inputs, Size, Workload};

/// Renders an outcome as the one-line JSON object the benchmark prints
/// last.
pub fn to_json(outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            // Non-finite numbers are not JSON; they only arise from a
            // failed run, which `correct` already reports.
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct(),
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}
