//! The benchmark's workloads: scenario plus generated traces, made from
//! a seed.

use lyra_sim::Scenario;
use lyra_trace::{InferenceTrace, InferenceTraceConfig, JobTrace, TraceConfig};

/// One named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Lyra with loaning and elasticity on the Full cluster under the
    /// saturated Full trace; no observer.
    PaperSaturated,
    /// The Full cluster under elastic-heavy, bursty, fast-orchestrator
    /// load; no observer.
    ElasticChurn,
    /// The saturated regime on the Medium cluster, fully observed into a
    /// JSONL sink that is then replayed offline.
    ObservedReplay,
}

/// Input size: the sizes the benchmark measures, or a tiny stand-in
/// of the same shape for the self-tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The measured configuration of each workload.
    Bench,
    /// One day on 16 + 16 servers; simulates in milliseconds.
    Tiny,
}

/// The scenario and traces one run simulates.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// Cluster, policy and engine parameters.
    pub scenario: Scenario,
    /// Training jobs.
    pub jobs: JobTrace,
    /// Inference-cluster utilisation.
    pub inference: InferenceTrace,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::PaperSaturated,
        Workload::ElasticChurn,
        Workload::ObservedReplay,
    ];

    /// The name the command line and `BENCHMARK.json` use.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperSaturated => "paper-saturated",
            Workload::ElasticChurn => "elastic-churn",
            Workload::ObservedReplay => "observed-replay",
        }
    }

    /// Looks a workload up by name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The seed used when none is given, and the one whose record
    /// digest is pinned.
    pub fn default_seed(self) -> u64 {
        match self {
            Workload::PaperSaturated | Workload::ObservedReplay => 5,
            Workload::ElasticChurn => 7,
        }
    }

    /// Whether the run attaches an observer with a JSONL sink.
    pub fn observed(self) -> bool {
        self == Workload::ObservedReplay
    }

    /// fnv1a64 of the per-job records at the default seed (see
    /// [`crate::check::records_digest`]).
    pub fn pinned_digest(self, size: Size) -> u64 {
        match (self, size) {
            (Workload::PaperSaturated, Size::Bench) => 0x477b_2a96_0709_b0b7,
            (Workload::ElasticChurn, Size::Bench) => 0x37e0_d540_3211_f2d9,
            (Workload::ObservedReplay, Size::Bench) => 0x508b_6f3a_5f26_d354,
            // The tiny size gives both saturated workloads the same
            // inputs.
            (Workload::PaperSaturated | Workload::ObservedReplay, Size::Tiny) => {
                0xacb6_7186_0f3a_069f
            }
            (Workload::ElasticChurn, Size::Tiny) => 0xe086_9c9f_e2d1_5c6c,
        }
    }

    /// Generates the traces and scenario for `seed`. The same seed
    /// always gives the same inputs.
    ///
    /// The job trace stands in for the paper's fixed production trace:
    /// it comes from the workload's default seed, so every seed offers
    /// the same training load. `seed` drives the inference cluster's
    /// utilisation trace and the orchestrator's randomised comparators,
    /// which change every loan, reclaim and schedule that follows.
    pub fn inputs(self, size: Size, seed: u64) -> Inputs {
        // (days, training servers, inference servers)
        let (days, train, inf) = match (self, size) {
            (_, Size::Tiny) => (1, 16, 16),
            (Workload::ObservedReplay, Size::Bench) => (4, 150, 170),
            (_, Size::Bench) => (15, 443, 520),
        };
        let mut trace = TraceConfig {
            days,
            training_gpus: train * 8,
            // Offered load above capacity keeps the pending queue deep
            // for the whole trace.
            target_load: 1.4,
            seed: self.default_seed(),
            ..TraceConfig::default()
        };
        let mut utilisation = InferenceTraceConfig {
            // Cover the drain after the last arrival.
            days: days + 30,
            total_gpus: inf * 8,
            seed: seed ^ 0x5A5A,
            ..InferenceTraceConfig::default()
        };
        let mut scenario = Scenario::basic();
        scenario.seed = seed;
        scenario.cluster.training_servers = train;
        scenario.cluster.inference_servers = inf;
        if self == Workload::ElasticChurn {
            trace.frac_elastic = 0.5;
            // Frequent bursts on top of the diurnal wave keep the
            // orchestrator switching between loaning and reclaiming.
            utilisation.burst_prob = 0.25;
            utilisation.burst_mean = 0.10;
            utilisation.noise = 0.05;
            scenario.sim.orchestrator_interval_s = 60.0;
        }
        Inputs {
            scenario,
            jobs: JobTrace::generate(trace),
            inference: InferenceTrace::generate(utilisation),
        }
    }
}
