#![warn(missing_docs)]

//! # lyra-obs
//!
//! Zero-dependency observability for the Lyra stack (vendored `serde` /
//! `serde_json` only — the build stays fully offline).
//!
//! Production schedulers live or die by their visibility into every
//! placement and preemption decision; this crate gives the reproduction
//! the same four pillars a real deployment would have:
//!
//! * [`event`] + [`log`] — a **structured event log**: typed, serialisable
//!   scheduler events emitted as JSON Lines into a ring buffer with an
//!   optional file sink. Event payloads carry only simulated quantities,
//!   so two runs with the same seed produce byte-identical logs.
//! * [`timeseries`] + [`alerts`] + [`prom`] — **continuous telemetry**:
//!   per-epoch scheduler health gauges, folded from the `SchedulerEpoch`
//!   events into fixed-capacity ring series with deterministic
//!   decimation (bounded memory at 1M-job scale), cumulative operation
//!   counters and fixed-bucket histograms folded from the events that
//!   announce each operation, a threshold/sustained-window alert engine
//!   emitting typed `Alert` events into the log, and Prometheus text
//!   exposition + CSV export — all byte-reproducible under the same
//!   seed.
//! * [`span`] — **span timing** for the hot paths (MCKP DP, best-fit
//!   placement, reclaim cost search, engine ticks), aggregated into a
//!   per-phase self-time profile.
//! * [`audit`] — a **decision audit trail**: phase-1 orderings, phase-2
//!   MCKP allocations, placement and reclaim choices record their inputs
//!   so [`explain`] can reconstruct the causal chain for one job.
//!
//! Every derived view is one fold over the event stream: [`fold`]'s
//! [`EventFolds`] feeds each event to the attribution, provenance and
//! telemetry state, online inside the simulation observer and offline
//! through [`EventFolds::replay`] — so a replayed log yields exactly the
//! live views.
//!
//! On top of the event log sits the **causal delay-attribution layer**:
//! [`lifecycle`] folds the stream through a per-job state machine,
//! [`attribution`] decomposes every job's completion time into
//! cause-attributed intervals that reconcile exactly (Σ intervals ==
//! completion − arrival, checked end-of-run), and [`chrome`] exports
//! the whole run as Chrome/Perfetto `trace_event` JSON.
//!
//! [`provenance`] + [`graph`] add **decision provenance**: every
//! scheduling decision gets a stable `DecisionId` (its log `seq`) and
//! the events form a causal graph — admission → rank → MCKP verdict →
//! placement → launch per job, plus the cross-job edges (loan-grant →
//! the scale-out it enabled, loan-demand → victim ranking → the
//! preemptions it triggered, fault → restart → re-placement). The graph
//! builds online (checkpoint-safe observer state) or offline from any
//! JSONL log, and renders as `why`/`blame` reports and Perfetto flow
//! arrows.
//!
//! [`output`] is the small experiment-output writer used by the bench
//! CLI's `--quiet` / `--json` modes.
//!
//! The span and audit collectors are thread-local: the simulator runs one
//! simulation per thread (the bench harness fans scenarios out with
//! `std::thread::scope`), so per-thread state isolates concurrent runs
//! without any handle threading through the algorithm crates.

pub mod alerts;
pub mod attribution;
pub mod audit;
pub mod chrome;
pub mod event;
pub mod explain;
pub mod fold;
pub mod graph;
pub mod lifecycle;
pub mod log;
pub mod output;
pub mod provenance;
pub mod prom;
pub mod span;
pub mod timeseries;

pub use alerts::{default_rules, AlertCondition, AlertEngine, AlertRule, AlertTransition};
pub use attribution::{
    render_job, render_top, summarize, AttributedInterval, AttributionSummary, CauseStat,
    DelayCause, JobAttribution,
};
pub use audit::{
    AuditRecord, MckpGroupAudit, Phase1Entry, PlacementAlternative, ReclaimCandidate,
};
pub use chrome::{
    export_chrome_trace, export_provenance_trace, validate_chrome_trace, ChromeTraceStats,
};
pub use event::{EpochSample, SchedEvent, TimedEvent, KIND_NAMES};
pub use explain::{explain_job, parse_log};
pub use fold::EventFolds;
pub use graph::{
    DecisionId, EdgeKind, NodeKind, ProvenanceEdge, ProvenanceGraph, ProvenanceNode,
};
pub use lifecycle::{attribute_log, LifecycleTracker};
pub use log::{EventLog, EventLogState};
pub use provenance::{
    blame_from_log, build_provenance, render_blame, render_why, why_from_log, ProvenanceTracker,
};
pub use output::OutputMode;
pub use prom::render_prometheus;
pub use span::{PhaseStat, Profile, SpanGuard};
pub use timeseries::{
    Counters, Histogram, RingSeries, SeriesPoint, Telemetry, DURATION_BUCKETS_S,
};
