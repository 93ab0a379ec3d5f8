//! Correctness checks applied to every run.

use lyra_obs::{AttributionSummary, ProvenanceGraph};
use lyra_sim::{JobRecord, SimReport};

/// fnv1a64 over the per-job records, field by field, floats by their
/// bit patterns. Independent of any serialiser, so a change that keeps
/// every scheduling decision keeps the digest.
pub fn records_digest(records: &[JobRecord]) -> u64 {
    let mut hash = Fnv1a64::default();
    for r in records {
        hash.u64(r.id.0);
        hash.f64(r.submit_s);
        hash.opt_f64(r.first_start_s);
        hash.opt_f64(r.complete_s);
        hash.f64(r.queue_s);
        hash.u64(u64::from(r.preemptions));
        hash.u64(u64::from(r.ran_on_loan));
        hash.u64(u64::from(r.scaling_ops));
        hash.u64(u64::from(r.fault_restarts));
        hash.opt_f64(r.deadline_s);
    }
    hash.0
}

struct Fnv1a64(u64);

impl Default for Fnv1a64 {
    fn default() -> Self {
        Fnv1a64(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv1a64 {
    fn u64(&mut self, v: u64) {
        for byte in v.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn opt_f64(&mut self, v: Option<f64>) {
        match v {
            Some(v) => {
                self.u64(1);
                self.f64(v);
            }
            None => self.u64(0),
        }
    }
}

/// Checks one finished run: every float is finite, every job finished,
/// and the records are the ones expected (`expected` is the pinned or
/// first-seen digest). Returns the records digest.
pub fn check_report(report: &SimReport, expected: Option<u64>) -> Result<u64, String> {
    let bad = report.non_finite_fields();
    if !bad.is_empty() {
        return Err(format!("non-finite report fields: {}", bad.join(", ")));
    }
    if report.completed != report.submitted {
        return Err(format!(
            "{} of {} jobs completed",
            report.completed, report.submitted
        ));
    }
    let digest = records_digest(&report.records);
    match expected {
        Some(want) if want != digest => Err(format!(
            "records digest {digest:#018x} differs from the expected {want:#018x}"
        )),
        _ => Ok(digest),
    }
}

/// Checks that the folds replayed offline from the sink equal what the
/// observer built online during the run.
pub fn check_replay(
    report: &SimReport,
    attribution: &AttributionSummary,
    provenance: &ProvenanceGraph,
) -> Result<(), String> {
    if *attribution != report.attribution {
        return Err("offline delay attribution differs from the online summary".to_string());
    }
    if *provenance != report.provenance {
        return Err("offline provenance graph differs from the online one".to_string());
    }
    Ok(())
}
