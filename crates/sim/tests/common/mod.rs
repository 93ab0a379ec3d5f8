//! Faulted-scenario fixtures shared by the observation test suites.

use lyra_cluster::state::ClusterConfig;
use lyra_sim::{transform, FaultConfig, FaultPlan, Scenario};
use lyra_trace::{InferenceTrace, InferenceTraceConfig, JobTrace, TraceConfig};

/// One day of training jobs (60 % load on 32 GPUs) and three days of
/// inference demand, both seeded.
pub fn traces(seed: u64) -> (JobTrace, InferenceTrace) {
    let jobs = JobTrace::generate(TraceConfig {
        days: 1,
        training_gpus: 32,
        target_load: 0.6,
        max_demand_gpus: 16,
        seed,
        ..TraceConfig::default()
    });
    let inference = InferenceTrace::generate(InferenceTraceConfig {
        days: 3,
        total_gpus: 32,
        seed: seed ^ 0xFACE,
        ..InferenceTraceConfig::default()
    });
    (jobs, inference)
}

/// A 4 + 4 server cluster of 8-GPU servers.
pub fn cluster() -> ClusterConfig {
    ClusterConfig {
        training_servers: 4,
        inference_servers: 4,
        gpus_per_server: 8,
        speed: lyra_core::gpu::SpeedFactors::default(),
    }
}

/// The Basic scenario on [`cluster`] over [`traces`], with 60 % elastic
/// and 50 % checkpointing jobs and a one-day fault plan at the given
/// per-day rates.
pub fn faulty_scenario(
    seed: u64,
    fault_seed: u64,
    crash_rate: f64,
    worker_rate: f64,
    straggler_rate: f64,
) -> (Scenario, JobTrace, InferenceTrace) {
    let (mut jobs, inference) = traces(seed);
    transform::set_elastic_fraction(&mut jobs, 0.6, seed);
    transform::set_checkpoint_fraction(&mut jobs, 0.5, seed ^ 1);
    let mut s = Scenario::basic();
    s.cluster = cluster();
    s.seed = seed;
    s.faults = Some(FaultPlan::generate(
        &FaultConfig {
            server_crash_rate_per_day: crash_rate,
            worker_failure_rate_per_day: worker_rate,
            straggler_rate_per_day: straggler_rate,
            checkpoint_restore_failure_prob: 0.2,
            dropped_tick_prob: 0.05,
            horizon_s: 86_400.0,
            ..FaultConfig::default()
        },
        s.cluster.training_servers + s.cluster.inference_servers,
        fault_seed,
    ));
    (s, jobs, inference)
}
