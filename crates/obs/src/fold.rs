//! The one fold over the event stream.
//!
//! [`EventFolds`] feeds every event to the three derived views — the
//! per-job delay attribution ([`LifecycleTracker`]), the decision
//! provenance graph ([`ProvenanceTracker`]) and the scheduler-health
//! series, counters and histograms ([`Telemetry`]). The simulation
//! observer runs it online as each event is emitted;
//! [`EventFolds::replay`] runs it offline over a parsed log. Both paths apply the same transition to the same
//! `(time, seq, event)` stream and close the lifecycle with the same
//! end-of-observation rule, so live and replayed views are equal by
//! construction.

use serde::{Deserialize, Serialize};

use crate::event::{SchedEvent, TimedEvent};
use crate::graph::ProvenanceGraph;
use crate::lifecycle::LifecycleTracker;
use crate::provenance::ProvenanceTracker;
use crate::timeseries::Telemetry;

/// The composite fold: attribution, provenance and telemetry state.
///
/// All of it is serialisable checkpoint state, so a resumed run keeps
/// folding where the crashed one stopped.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EventFolds {
    /// Per-job delay attribution.
    pub lifecycle: LifecycleTracker,
    /// Decision provenance; `None` when provenance tracking is off.
    pub provenance: Option<ProvenanceTracker>,
    /// Per-epoch scheduler-health series.
    pub telemetry: Telemetry,
    /// Time of the latest observed event, milliseconds: the end of
    /// observation [`finish`](Self::finish) closes open jobs at.
    last_ms: u64,
}

impl EventFolds {
    /// Empty folds; `provenance` turns the provenance tracker on.
    pub fn new(provenance: bool) -> Self {
        EventFolds {
            lifecycle: LifecycleTracker::new(),
            provenance: provenance.then(ProvenanceTracker::new),
            telemetry: Telemetry::default(),
            last_ms: 0,
        }
    }

    /// Feeds one event, emitted under log sequence number `seq`, to
    /// every fold. Events must arrive in emission order.
    pub fn observe(&mut self, time_ms: u64, seq: u64, event: &SchedEvent) {
        self.last_ms = self.last_ms.max(time_ms);
        self.lifecycle.observe(time_ms, event);
        if let Some(prov) = self.provenance.as_mut() {
            prov.observe(time_ms, seq, event);
        }
        self.telemetry.observe(time_ms, event);
        if let SchedEvent::JobComplete { job, .. } = event {
            // The lifecycle has just closed the job's last segment, so
            // its queued time is final.
            self.telemetry.observe_queued(self.lifecycle.queued_ms(*job));
        }
    }

    /// Ends observation: closes every still-open job at the time of the
    /// last observed event.
    pub fn finish(&mut self) {
        self.lifecycle.finish(self.last_ms);
    }

    /// Replays a parsed log through fresh folds (provenance on) and
    /// finishes them — the one offline path to every view.
    pub fn replay(events: &[TimedEvent]) -> EventFolds {
        let mut folds = EventFolds::new(true);
        for ev in events {
            folds.observe(ev.time_ms, ev.seq, &ev.event);
        }
        folds.finish();
        folds
    }

    /// Consumes the folds, yielding the provenance graph (empty when
    /// provenance tracking is off).
    pub fn into_graph(self) -> ProvenanceGraph {
        self.provenance
            .map(ProvenanceTracker::into_graph)
            .unwrap_or_default()
    }
}
