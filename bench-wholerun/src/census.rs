//! Census of an event-log sink: events and bytes per event kind, with
//! audit records split by record type.

use lyra_obs::{AuditRecord, SchedEvent, TimedEvent};

/// The kinds the census reports, in output order. Kinds outside this
/// list (rare in the measured runs) are counted under `other`.
pub const KINDS: &[&str] = &[
    "JobAdmit",
    "JobStart",
    "JobScaleOut",
    "JobScaleIn",
    "ControllerRescale",
    "FlexRelease",
    "JobPreempt",
    "JobComplete",
    "LoanGrant",
    "ReclaimDemand",
    "ReclaimGrant",
    "JobStall",
    "SchedulerEpoch",
    "Alert",
    "Audit.Phase1Order",
    "Audit.Phase2Mckp",
    "Audit.PlacementDecision",
    "Audit.ReclaimChoice",
    "other",
];

/// Events and bytes per entry of [`KINDS`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Census {
    /// Events per kind.
    pub events: Vec<u64>,
    /// Sink bytes per kind, newline included.
    pub bytes: Vec<u64>,
}

/// Classifies each parsed event and charges it the bytes of the sink
/// line it came from. Classification reads the parsed event, never the
/// JSON layout, so a change of encoding keeps the census meaningful.
pub fn census(sink: &str, events: &[TimedEvent]) -> Result<Census, String> {
    let lines: Vec<&str> = sink.lines().filter(|l| !l.trim().is_empty()).collect();
    if lines.len() != events.len() {
        return Err(format!(
            "sink has {} lines but parsed to {} events",
            lines.len(),
            events.len()
        ));
    }
    let mut out = Census {
        events: vec![0; KINDS.len()],
        bytes: vec![0; KINDS.len()],
    };
    for (line, ev) in lines.iter().zip(events) {
        let label = label(&ev.event);
        let slot = KINDS
            .iter()
            .position(|k| *k == label)
            .unwrap_or(KINDS.len() - 1);
        out.events[slot] += 1;
        out.bytes[slot] += line.len() as u64 + 1;
    }
    Ok(out)
}

fn label(event: &SchedEvent) -> &'static str {
    match event {
        SchedEvent::Audit(record) => audit_label(record),
        other => other.kind_name(),
    }
}

// The wildcard keeps record types added later countable (as `other`)
// without editing the benchmark.
#[allow(unreachable_patterns)]
fn audit_label(record: &AuditRecord) -> &'static str {
    match record {
        AuditRecord::Phase1Order { .. } => "Audit.Phase1Order",
        AuditRecord::Phase2Mckp { .. } => "Audit.Phase2Mckp",
        AuditRecord::PlacementDecision { .. } => "Audit.PlacementDecision",
        AuditRecord::ReclaimChoice { .. } => "Audit.ReclaimChoice",
        _ => "other",
    }
}
