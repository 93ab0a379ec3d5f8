//! Deterministic fault injection for the simulator.
//!
//! The paper's production setting loses machines — inference servers get
//! pulled back abruptly, nodes die, containers crash, and slow hosts drag
//! synchronous training down. This module turns those failure modes into
//! first-class, *seeded* simulator events so robustness experiments are
//! exactly reproducible: a [`FaultPlan`] is generated once from a
//! [`FaultConfig`] and a seed, carries absolute event times, and is
//! replayed identically on every run.
//!
//! Server selection is deliberately deferred: events carry an opaque
//! `selector` draw that the engine resolves against the set of servers
//! actually eligible *when the event fires* (whitelisted, not already
//! down). A plan generated before the run therefore keeps hitting live
//! servers even as loans and crashes reshape the cluster.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Rates and magnitudes of the injected faults.
///
/// Rates are per *server per day* (crash/straggler) or per cluster per
/// day (worker failures), so experiments scale naturally with cluster
/// size.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultConfig {
    /// Expected whole-server crashes per server per day.
    pub server_crash_rate_per_day: f64,
    /// Whether on-loan servers can crash too (they can in production —
    /// the inference fleet is no more reliable than the training one).
    pub include_loaned: bool,
    /// Seconds a crashed server stays down before rejoining its pool.
    pub crash_recovery_s: f64,
    /// Expected single-worker (container) failures per cluster per day.
    pub worker_failure_rate_per_day: f64,
    /// Probability that restoring from a checkpoint fails and the job
    /// restarts from scratch (corrupt/missing checkpoint).
    pub checkpoint_restore_failure_prob: f64,
    /// Expected straggler episodes per server per day.
    pub straggler_rate_per_day: f64,
    /// Throughput factor of a straggling server (e.g. 0.4 = runs at
    /// 40 % speed).
    pub straggler_slowdown: f64,
    /// Seconds one straggler episode lasts.
    pub straggler_duration_s: f64,
    /// Probability that any given orchestrator tick is dropped (control
    /// plane hiccup: the tick's loan/reclaim instruction is lost).
    pub dropped_tick_prob: f64,
    /// Horizon over which events are generated, seconds.
    pub horizon_s: f64,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            server_crash_rate_per_day: 0.0,
            include_loaned: true,
            crash_recovery_s: 3_600.0,
            worker_failure_rate_per_day: 0.0,
            checkpoint_restore_failure_prob: 0.0,
            straggler_rate_per_day: 0.0,
            straggler_slowdown: 0.4,
            straggler_duration_s: 1_800.0,
            dropped_tick_prob: 0.0,
            horizon_s: 2.0 * 86_400.0,
        }
    }
}

impl FaultConfig {
    /// A moderate all-modes preset for tests and demos: crashes,
    /// worker failures, stragglers and occasional dropped ticks over
    /// `horizon_s` seconds.
    pub fn moderate(horizon_s: f64) -> Self {
        FaultConfig {
            server_crash_rate_per_day: 0.05,
            worker_failure_rate_per_day: 4.0,
            checkpoint_restore_failure_prob: 0.1,
            straggler_rate_per_day: 0.05,
            dropped_tick_prob: 0.02,
            horizon_s,
            ..FaultConfig::default()
        }
    }
}

/// One kind of injected fault.
///
/// `selector` fields are uniform `u64` draws fixed at plan-generation
/// time; the engine maps them onto the eligible server (and job) set at
/// fire time, keeping plans meaningful under any cluster evolution.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum FaultKind {
    /// A whole server dies: its workers are lost, it leaves the
    /// whitelist, and it rejoins its pool after `recovery_s`.
    ServerCrash {
        /// Opaque draw resolved against eligible servers at fire time.
        selector: u64,
        /// Seconds until the server comes back.
        recovery_s: f64,
    },
    /// One worker container on one busy server dies.
    WorkerFailure {
        /// Opaque draw resolved against busy servers (and their jobs).
        selector: u64,
    },
    /// A server runs slow for a while, dragging synchronous jobs with
    /// workers there.
    Straggler {
        /// Opaque draw resolved against eligible servers at fire time.
        selector: u64,
        /// Throughput factor while straggling (0 < factor ≤ 1).
        factor: f64,
        /// Episode length, seconds.
        duration_s: f64,
    },
    /// The next orchestrator tick is lost (no loan/reclaim executes).
    DropOrchestratorTick,
    /// The scheduler process itself dies: the engine snapshots its
    /// complete state and aborts the run at this instant. The crash is
    /// invisible to every observable output (event log, telemetry,
    /// report) — the contract is that a resumed run is byte-identical
    /// to an uninterrupted one, so the crash must not perturb either.
    SchedulerCrash,
}

/// One scheduled fault.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultEvent {
    /// Absolute simulation time the fault fires, seconds.
    pub time_s: f64,
    /// What happens.
    pub kind: FaultKind,
}

/// A complete, reproducible fault schedule.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Seed the plan was generated from; also seeds the engine's
    /// fire-time rolls (checkpoint-restore failures).
    pub seed: u64,
    /// Whether crash/straggler events may target on-loan servers.
    pub include_loaned: bool,
    /// Probability a checkpoint restore fails at fire time.
    pub checkpoint_restore_failure_prob: f64,
    /// All scheduled faults, ascending by time.
    pub events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan (no faults); useful as a neutral default.
    pub fn none() -> Self {
        FaultPlan {
            seed: 0,
            include_loaned: true,
            checkpoint_restore_failure_prob: 0.0,
            events: Vec::new(),
        }
    }

    /// Generates a plan from `config` and `seed`.
    ///
    /// Each fault class is an independent Poisson process: inter-arrival
    /// times are exponential with the configured per-day rate (scaled by
    /// a nominal server count for per-server rates — the caller passes
    /// the cluster size via `servers`). Dropped ticks are Bernoulli per
    /// orchestrator tick and are materialised as events too, so the
    /// whole schedule is visible up front.
    pub fn generate(config: &FaultConfig, servers: u32, seed: u64) -> Self {
        // Inverse-CDF exponential inter-arrivals of one Poisson process.
        fn exp_times(rate_per_s: f64, horizon_s: f64, rng: &mut StdRng) -> Vec<f64> {
            let mut out = Vec::new();
            if rate_per_s <= 0.0 {
                return out;
            }
            let mut t = 0.0;
            loop {
                let u: f64 = rng.gen::<f64>().max(1e-12);
                t += -u.ln() / rate_per_s;
                if t >= horizon_s {
                    break;
                }
                out.push(t);
            }
            out
        }
        let mut rng = StdRng::seed_from_u64(seed ^ 0xFA_0175);
        let mut events = Vec::new();
        let day = 86_400.0;
        let horizon = config.horizon_s.max(0.0);
        let crash_rate = config.server_crash_rate_per_day * f64::from(servers.max(1)) / day;
        let recovery = config.crash_recovery_s.max(0.0);
        for t in exp_times(crash_rate, horizon, &mut rng) {
            events.push(FaultEvent {
                time_s: t,
                kind: FaultKind::ServerCrash {
                    selector: rng.gen::<u64>(),
                    recovery_s: recovery,
                },
            });
        }
        let worker_rate = config.worker_failure_rate_per_day / day;
        for t in exp_times(worker_rate, horizon, &mut rng) {
            events.push(FaultEvent {
                time_s: t,
                kind: FaultKind::WorkerFailure {
                    selector: rng.gen::<u64>(),
                },
            });
        }
        let straggler_rate = config.straggler_rate_per_day * f64::from(servers.max(1)) / day;
        let factor = config.straggler_slowdown.clamp(0.01, 1.0);
        let duration = config.straggler_duration_s.max(0.0);
        for t in exp_times(straggler_rate, horizon, &mut rng) {
            events.push(FaultEvent {
                time_s: t,
                kind: FaultKind::Straggler {
                    selector: rng.gen::<u64>(),
                    factor,
                    duration_s: duration,
                },
            });
        }
        if config.dropped_tick_prob > 0.0 {
            // Bernoulli per 5-minute orchestrator tick.
            let mut t = 300.0;
            while t < horizon {
                if rng.gen_bool(config.dropped_tick_prob.clamp(0.0, 1.0)) {
                    events.push(FaultEvent {
                        time_s: t - 1.0, // just before the tick it drops
                        kind: FaultKind::DropOrchestratorTick,
                    });
                }
                t += 300.0;
            }
        }
        events.sort_by(|a, b| a.time_s.total_cmp(&b.time_s));
        FaultPlan {
            seed,
            include_loaned: config.include_loaned,
            checkpoint_restore_failure_prob: config.checkpoint_restore_failure_prob.clamp(0.0, 1.0),
            events,
        }
    }

    /// Whether the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// A reclaim demand that could not be satisfied at its tick: carried
/// forward and retried with exponential backoff until met, resolved
/// externally, or expired (a counted deadline violation).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ReclaimCarry {
    /// Servers still owed to the inference cluster.
    pub servers: u32,
    /// Absolute time the debt expires.
    pub deadline_s: f64,
    /// Earliest tick the demand is retried.
    pub next_retry_s: f64,
    /// Current backoff step (doubles per failed retry).
    pub backoff_s: f64,
}

/// What booking a reclaim shortfall did to the ledger.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CarryTransition {
    /// A new debt was opened: the caller should count a carryover and
    /// emit the carryover event.
    Opened,
    /// An existing debt shrank to the remainder and doubled its backoff.
    Retried,
    /// A met retried demand cleared the debt it had folded in.
    Cleared,
    /// Nothing changed (no shortfall and no retried debt outstanding).
    Unchanged,
}

/// The deadline + backoff state machine for carried-forward reclaim
/// debt (the graceful-degradation path of §4: inference demanded
/// servers back and the training side could not free enough).
///
/// The engine drives it at orchestrator-tick cadence:
///
/// 1. [`take_expired`](ReclaimLedger::take_expired) first — a debt past
///    its deadline is reported *exactly once* as a violation, then
///    dropped (no further retries).
/// 2. On a `Reclaim(n)` instruction, [`fold_into`](ReclaimLedger::fold_into)
///    raises the fresh demand to cover the carried debt once the retry
///    backoff has elapsed.
/// 3. After the reclaim executes, [`note_shortfall`](ReclaimLedger::note_shortfall)
///    books the unmet remainder: new debts get a deadline and an
///    initial backoff, retried debts shrink to the remainder with a
///    doubled backoff, and a fully met retried demand clears the debt.
/// 4. A `Loan` or `Hold` instruction means the inference side no longer
///    wants the servers: [`clear`](ReclaimLedger::clear).
///
/// The ledger is pure state (no clock, no event sink), so the paths are
/// directly unit-testable; the engine owns event emission and counters.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct ReclaimLedger {
    carry: Option<ReclaimCarry>,
}

impl ReclaimLedger {
    /// An empty ledger with no outstanding debt.
    pub fn new() -> Self {
        Self::default()
    }

    /// The outstanding debt, if any.
    pub fn carry(&self) -> Option<&ReclaimCarry> {
        self.carry.as_ref()
    }

    /// Drops any outstanding debt (the inference side resolved it:
    /// it is offering servers again, or holding).
    pub fn clear(&mut self) {
        self.carry = None;
    }

    /// Expires a debt whose deadline has passed: returns the owed
    /// server count and clears the debt, so a deadline miss is reported
    /// exactly once no matter how many ticks follow.
    pub fn take_expired(&mut self, now_s: f64) -> Option<u32> {
        match self.carry {
            Some(c) if now_s > c.deadline_s => {
                self.carry = None;
                Some(c.servers)
            }
            _ => None,
        }
    }

    /// Folds the carried debt into a fresh reclaim `demand` once its
    /// retry time has arrived. Returns the (possibly raised) demand and
    /// whether a carry was retried — a met demand uses the flag to know
    /// there is a debt to clear.
    pub fn fold_into(&self, now_s: f64, demand: u32) -> (u32, bool) {
        match self.carry {
            Some(c) if now_s >= c.next_retry_s => (demand.max(c.servers), true),
            _ => (demand, false),
        }
    }

    /// Books the unmet remainder of a reclaim demand. `retried_carry`
    /// is the flag returned by [`fold_into`](ReclaimLedger::fold_into);
    /// `retry_backoff_s` and `deadline_after_s` are the engine's
    /// configured initial backoff and debt lifetime.
    pub fn note_shortfall(
        &mut self,
        now_s: f64,
        unmet: u32,
        retried_carry: bool,
        retry_backoff_s: f64,
        deadline_after_s: f64,
    ) -> CarryTransition {
        if unmet == 0 {
            if retried_carry && self.carry.is_some() {
                self.carry = None;
                return CarryTransition::Cleared;
            }
            return CarryTransition::Unchanged;
        }
        match &mut self.carry {
            Some(carry) => {
                carry.servers = unmet;
                carry.backoff_s *= 2.0;
                carry.next_retry_s = now_s + carry.backoff_s;
                CarryTransition::Retried
            }
            None => {
                self.carry = Some(ReclaimCarry {
                    servers: unmet,
                    deadline_s: now_s + deadline_after_s,
                    next_retry_s: now_s + retry_backoff_s,
                    backoff_s: retry_backoff_s,
                });
                CarryTransition::Opened
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> FaultConfig {
        FaultConfig {
            server_crash_rate_per_day: 0.5,
            worker_failure_rate_per_day: 10.0,
            straggler_rate_per_day: 0.3,
            dropped_tick_prob: 0.05,
            horizon_s: 86_400.0,
            ..FaultConfig::default()
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = FaultPlan::generate(&config(), 20, 7);
        let b = FaultPlan::generate(&config(), 20, 7);
        assert_eq!(a, b);
        assert!(!a.is_empty());
    }

    #[test]
    fn different_seeds_differ() {
        let a = FaultPlan::generate(&config(), 20, 1);
        let b = FaultPlan::generate(&config(), 20, 2);
        assert_ne!(a.events, b.events);
    }

    #[test]
    fn events_are_sorted_and_within_horizon() {
        let plan = FaultPlan::generate(&config(), 20, 3);
        let mut last = 0.0;
        for e in &plan.events {
            assert!(e.time_s >= last, "events out of order");
            assert!(e.time_s < 86_400.0, "event beyond horizon");
            last = e.time_s;
        }
    }

    #[test]
    fn rates_scale_event_counts() {
        let low = FaultPlan::generate(
            &FaultConfig {
                server_crash_rate_per_day: 0.1,
                horizon_s: 10.0 * 86_400.0,
                ..FaultConfig::default()
            },
            20,
            4,
        );
        let high = FaultPlan::generate(
            &FaultConfig {
                server_crash_rate_per_day: 1.0,
                horizon_s: 10.0 * 86_400.0,
                ..FaultConfig::default()
            },
            20,
            4,
        );
        assert!(
            high.events.len() > 3 * low.events.len(),
            "10x the rate should yield far more events: {} vs {}",
            high.events.len(),
            low.events.len()
        );
    }

    #[test]
    fn serde_round_trip_replays_identical_fault_sequence() {
        let cfg = FaultConfig {
            checkpoint_restore_failure_prob: 0.25,
            ..config()
        };
        let plan = FaultPlan::generate(&cfg, 20, 13);
        let json = serde_json::to_string(&plan).expect("serialize plan");
        let restored: FaultPlan = serde_json::from_str(&json).expect("deserialize plan");
        assert_eq!(plan, restored, "round-trip must preserve the schedule exactly");
        // The engine's fire-time rolls (checkpoint-restore failures) are
        // drawn from an RNG seeded off the plan seed; a restored plan must
        // therefore reproduce the identical roll sequence too.
        let mut a = StdRng::seed_from_u64(plan.seed ^ 0x5EED_F417);
        let mut b = StdRng::seed_from_u64(restored.seed ^ 0x5EED_F417);
        for _ in 0..256 {
            assert_eq!(
                a.gen_bool(plan.checkpoint_restore_failure_prob),
                b.gen_bool(restored.checkpoint_restore_failure_prob)
            );
        }
    }

    #[test]
    fn zero_rates_yield_empty_plan() {
        let plan = FaultPlan::generate(&FaultConfig::default(), 100, 9);
        assert!(plan.is_empty());
        assert!(FaultPlan::none().is_empty());
    }

    // --- ReclaimLedger: deadline + backoff state machine ---

    const BACKOFF: f64 = 300.0;
    const DEADLINE: f64 = 1_800.0;

    #[test]
    fn shortfall_opens_one_debt_with_deadline_and_backoff() {
        let mut ledger = ReclaimLedger::new();
        assert!(ledger.carry().is_none());
        let t = ledger.note_shortfall(100.0, 3, false, BACKOFF, DEADLINE);
        assert_eq!(t, CarryTransition::Opened);
        let carry = ledger.carry().unwrap();
        assert_eq!(carry.servers, 3);
        assert_eq!(carry.deadline_s, 100.0 + DEADLINE);
        assert_eq!(carry.next_retry_s, 100.0 + BACKOFF);
        assert_eq!(carry.backoff_s, BACKOFF);
    }

    #[test]
    fn deadline_miss_fires_exactly_once() {
        let mut ledger = ReclaimLedger::new();
        ledger.note_shortfall(0.0, 4, false, BACKOFF, DEADLINE);
        // Not yet expired: the deadline itself is still within budget.
        assert_eq!(ledger.take_expired(DEADLINE), None);
        // One tick past the deadline: the miss fires with the owed count…
        assert_eq!(ledger.take_expired(DEADLINE + 1.0), Some(4));
        // …and never again, even as time keeps advancing.
        assert_eq!(ledger.take_expired(DEADLINE + 2.0), None);
        assert_eq!(ledger.take_expired(1e12), None);
        assert!(ledger.carry().is_none());
    }

    #[test]
    fn backoff_never_underflows_at_tick_zero() {
        // Degenerate config: zero initial backoff, debt opened at t=0.
        let mut ledger = ReclaimLedger::new();
        ledger.note_shortfall(0.0, 2, false, 0.0, 0.0);
        let carry = *ledger.carry().unwrap();
        assert!(carry.next_retry_s >= 0.0 && carry.backoff_s >= 0.0);
        // Retry is immediately due and folds the debt in.
        assert_eq!(ledger.fold_into(0.0, 0), (2, true));
        // A failed retry at t=0 doubles a zero backoff to zero — still
        // non-negative, never NaN, never behind the clock.
        ledger.note_shortfall(0.0, 2, true, 0.0, 0.0);
        let carry = *ledger.carry().unwrap();
        assert!(carry.backoff_s >= 0.0 && carry.backoff_s.is_finite());
        assert!(carry.next_retry_s >= 0.0 && carry.next_retry_s.is_finite());
        // The regular config at tick 0 defers the first retry by the
        // full initial backoff.
        let mut ledger = ReclaimLedger::new();
        ledger.note_shortfall(0.0, 1, false, BACKOFF, DEADLINE);
        assert_eq!(ledger.fold_into(0.0, 5), (5, false));
        assert_eq!(ledger.fold_into(BACKOFF, 5), (5, true));
    }

    #[test]
    fn failed_retries_double_backoff_and_keep_the_deadline() {
        let mut ledger = ReclaimLedger::new();
        ledger.note_shortfall(0.0, 6, false, BACKOFF, DEADLINE);
        let deadline = ledger.carry().unwrap().deadline_s;
        // First retry due at t=300 returns only part of the debt.
        let (demand, retried) = ledger.fold_into(300.0, 1);
        assert_eq!((demand, retried), (6, true));
        assert_eq!(
            ledger.note_shortfall(300.0, 2, retried, BACKOFF, DEADLINE),
            CarryTransition::Retried
        );
        let carry = *ledger.carry().unwrap();
        assert_eq!(carry.servers, 2, "debt shrinks to the remainder");
        assert_eq!(carry.backoff_s, 2.0 * BACKOFF);
        assert_eq!(carry.next_retry_s, 300.0 + 2.0 * BACKOFF);
        assert_eq!(carry.deadline_s, deadline, "retries never extend the deadline");
        // Before the doubled backoff elapses the debt is not folded in.
        assert_eq!(ledger.fold_into(600.0, 0), (0, false));
        assert_eq!(ledger.fold_into(900.0, 0), (2, true));
    }

    #[test]
    fn met_retried_demand_clears_the_debt() {
        let mut ledger = ReclaimLedger::new();
        ledger.note_shortfall(0.0, 2, false, BACKOFF, DEADLINE);
        let (_, retried) = ledger.fold_into(BACKOFF, 0);
        assert!(retried);
        assert_eq!(
            ledger.note_shortfall(BACKOFF, 0, retried, BACKOFF, DEADLINE),
            CarryTransition::Cleared
        );
        assert!(ledger.carry().is_none());
        // With no debt outstanding, a fully met demand is a no-op.
        assert_eq!(
            ledger.note_shortfall(BACKOFF, 0, false, BACKOFF, DEADLINE),
            CarryTransition::Unchanged
        );
    }

    #[test]
    fn loan_or_hold_clears_and_a_new_debt_reopens() {
        let mut ledger = ReclaimLedger::new();
        ledger.note_shortfall(0.0, 5, false, BACKOFF, DEADLINE);
        ledger.clear();
        assert!(ledger.carry().is_none());
        assert_eq!(ledger.take_expired(1e9), None, "cleared debts never expire");
        // A fresh shortfall later opens a brand-new debt (fresh deadline,
        // fresh backoff) and counts as a new carryover.
        let t = ledger.note_shortfall(5_000.0, 1, false, BACKOFF, DEADLINE);
        assert_eq!(t, CarryTransition::Opened);
        let carry = ledger.carry().unwrap();
        assert_eq!(carry.deadline_s, 5_000.0 + DEADLINE);
        assert_eq!(carry.backoff_s, BACKOFF);
    }
}
