//! Cluster-wide state: the two management domains, loans and occupancy.
//!
//! The training scheduler controls exactly the servers on its *whitelist*
//! (§6): its dedicated V100 servers plus whatever inference servers are
//! currently on loan. Inference-owned servers never appear in scheduler
//! snapshots. All occupancy mutations validate first and apply atomically,
//! so a buggy policy cannot corrupt the bookkeeping.

use crate::server::Server;
use lyra_core::gpu::{GpuType, SpeedFactors};
use lyra_core::job::JobId;
use lyra_core::reclaim::{JobFootprint, ReclaimRequest, ReclaimServerView};
use lyra_core::snapshot::{PoolKind, ServerGroup, ServerId, ServerView};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// Cluster shape.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ClusterConfig {
    /// Dedicated training servers (the paper: 443).
    pub training_servers: u32,
    /// Inference-owned servers (the paper: 520).
    pub inference_servers: u32,
    /// GPUs per server (8 in both clusters).
    pub gpus_per_server: u32,
    /// Per-generation speed multipliers stamped onto every server of the
    /// matching GPU type; all 1.0 reproduces the paper's environment.
    pub speed: SpeedFactors,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            training_servers: 443,
            inference_servers: 520,
            gpus_per_server: 8,
            speed: SpeedFactors::default(),
        }
    }
}

impl ClusterConfig {
    /// The testbed shape of §7.5: four training and four inference
    /// servers.
    pub fn testbed() -> Self {
        ClusterConfig {
            training_servers: 4,
            inference_servers: 4,
            gpus_per_server: 8,
            speed: SpeedFactors::default(),
        }
    }

    /// Sets the per-generation speed multipliers.
    pub fn with_speed(mut self, speed: SpeedFactors) -> Self {
        self.speed = speed;
        self
    }
}

/// Errors from cluster-state operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClusterError {
    /// The server id does not exist.
    UnknownServer(ServerId),
    /// The server is not under training-scheduler control.
    NotWhitelisted(ServerId),
    /// The server is not currently on loan.
    NotLoaned(ServerId),
    /// The server is down (crashed) and cannot take part in the
    /// operation.
    ServerDown(ServerId),
    /// A loaned server cannot be returned while occupied.
    Occupied(ServerId),
    /// An occupancy mutation would overflow or underflow a server.
    Occupancy(String),
    /// Not enough idle inference servers to loan.
    InsufficientLoanable {
        /// Servers requested.
        requested: u32,
        /// Servers actually available.
        available: u32,
    },
    /// The state failed a consistency audit (see [`ClusterState::audit`]).
    AuditViolation(String),
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::UnknownServer(s) => write!(f, "unknown {s}"),
            ClusterError::NotWhitelisted(s) => write!(f, "{s} is not whitelisted"),
            ClusterError::NotLoaned(s) => write!(f, "{s} is not on loan"),
            ClusterError::ServerDown(s) => write!(f, "{s} is down"),
            ClusterError::Occupied(s) => write!(f, "{s} still hosts workers"),
            ClusterError::Occupancy(msg) => write!(f, "occupancy violation: {msg}"),
            ClusterError::InsufficientLoanable {
                requested,
                available,
            } => write!(
                f,
                "asked to loan {requested} servers, only {available} idle"
            ),
            ClusterError::AuditViolation(msg) => write!(f, "audit violation: {msg}"),
        }
    }
}

impl std::error::Error for ClusterError {}

/// Cluster-wide footprint of one running job: the GPUs it holds on each
/// hosting server (any pool). Maintained eagerly by every occupancy
/// mutator so reclaim-request assembly never rescans the whole cluster.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
struct JobOccupancy {
    /// GPUs held per hosting server; entries are removed at zero, so
    /// `hosts.len()` is the paper's `servers(j)` denominator.
    hosts: BTreeMap<ServerId, u32>,
    /// Total GPUs across all hosts (the sum of `hosts` values).
    gpus: u32,
}

/// The whole cluster as the training scheduler and orchestrator see it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterState {
    /// Shape the state was built with.
    pub config: ClusterConfig,
    servers: BTreeMap<ServerId, Server>,
    whitelist: BTreeSet<ServerId>,
    loaned: BTreeSet<ServerId>,
    /// Derived index: the loaned servers currently hosting no workers —
    /// exactly the ones eligible for a prompt return. Kept in lockstep by
    /// every mutator (checked by [`ClusterState::audit`]) so the
    /// scheduler's per-epoch surplus check is O(idle) instead of a walk
    /// over the whole loan ledger.
    idle_loaned: BTreeSet<ServerId>,
    /// Servers currently crashed: off the whitelist, off the loan ledger,
    /// and ineligible for loans until they recover.
    down: BTreeSet<ServerId>,
    /// Derived index: every running job's cluster-wide footprint. Updated
    /// on launch, scale, preemption, vacate and crash transitions (checked
    /// by [`ClusterState::audit`]) so [`ClusterState::reclaim_request`]
    /// assembles footprints in O(loaned servers + their jobs) instead of a
    /// full-cluster scan, and [`ClusterState::evict_job`] touches only the
    /// servers actually hosting the job.
    occupancy: BTreeMap<JobId, JobOccupancy>,
    /// Derived index: `(used, total)` GPUs across whitelisted Training
    /// servers. Kept in lockstep by every mutator (checked by
    /// [`ClusterState::audit`]) so [`ClusterState::gpu_usage`] — on the
    /// scheduler's per-epoch loan-demand path — is O(1) instead of a
    /// whitelist walk.
    usage_training: (u32, u32),
    /// Same as `usage_training` for whitelisted OnLoan servers.
    usage_on_loan: (u32, u32),
    /// Servers changed since the last [`ClusterState::audit_touched`],
    /// each with its usage share before the first change. Servers that
    /// failed that audit stay, with their share at the audit.
    touched: BTreeMap<ServerId, UsageShare>,
    /// Jobs whose footprint entry changed since the last
    /// [`ClusterState::audit_touched`], plus those that failed it.
    touched_jobs: BTreeSet<JobId>,
    /// The `(training, on_loan)` usage the last
    /// [`ClusterState::audit_touched`] derived from the servers, which
    /// the next one updates by the touched servers' changes.
    audited_usage: ((u32, u32), (u32, u32)),
}

/// What one server adds to the pool usage counters: `(pool, used,
/// total)` GPUs while whitelisted, nothing otherwise.
type UsageShare = Option<(PoolKind, u32, u32)>;

impl ClusterState {
    /// Builds the cluster: training servers get ids `0..T`, inference
    /// servers `T..T+I`.
    pub fn new(config: ClusterConfig) -> Self {
        let mut servers = BTreeMap::new();
        let mut whitelist = BTreeSet::new();
        for i in 0..config.training_servers {
            let s = Server::new(i, GpuType::V100, config.gpus_per_server, PoolKind::Training)
                .with_speed_factor(config.speed.factor(GpuType::V100));
            whitelist.insert(s.id);
            servers.insert(s.id, s);
        }
        for i in 0..config.inference_servers {
            let s = Server::new(
                config.training_servers + i,
                GpuType::T4,
                config.gpus_per_server,
                PoolKind::OnLoan,
            )
            .with_speed_factor(config.speed.factor(GpuType::T4));
            servers.insert(s.id, s);
        }
        let usage_training = (0, config.training_servers * config.gpus_per_server);
        ClusterState {
            servers,
            whitelist,
            loaned: BTreeSet::new(),
            idle_loaned: BTreeSet::new(),
            down: BTreeSet::new(),
            occupancy: BTreeMap::new(),
            usage_training,
            usage_on_loan: (0, 0),
            touched: BTreeMap::new(),
            touched_jobs: BTreeSet::new(),
            audited_usage: (usage_training, (0, 0)),
            config,
        }
    }

    /// `id`'s current share of the pool usage counters.
    fn usage_share(&self, id: ServerId) -> UsageShare {
        if !self.whitelist.contains(&id) {
            return None;
        }
        self.servers
            .get(&id)
            .map(|s| (s.pool, s.used_gpus(), s.total_gpus))
    }

    /// Marks `id` for the next [`Self::audit_touched`]. Call before
    /// changing the server: the first mark records its usage share.
    fn touch(&mut self, id: ServerId) {
        if !self.touched.contains_key(&id) {
            let share = self.usage_share(id);
            self.touched.insert(id, share);
        }
    }

    /// The mutable usage counter of `pool`.
    fn usage_mut(&mut self, pool: PoolKind) -> &mut (u32, u32) {
        match pool {
            PoolKind::Training => &mut self.usage_training,
            PoolKind::OnLoan => &mut self.usage_on_loan,
        }
    }

    /// Records `gpus` of `job` landing on `server` in the footprint index.
    fn occupancy_add(&mut self, job: JobId, server: ServerId, gpus: u32) {
        if gpus == 0 {
            return;
        }
        self.touched_jobs.insert(job);
        let entry = self.occupancy.entry(job).or_default();
        *entry.hosts.entry(server).or_insert(0) += gpus;
        entry.gpus += gpus;
    }

    /// Records `gpus` of `job` leaving `server` in the footprint index,
    /// dropping host entries at zero and the job once it runs nowhere.
    fn occupancy_remove(&mut self, job: JobId, server: ServerId, gpus: u32) {
        if gpus == 0 {
            return;
        }
        self.touched_jobs.insert(job);
        if let Some(entry) = self.occupancy.get_mut(&job) {
            if let Some(held) = entry.hosts.get_mut(&server) {
                *held = held.saturating_sub(gpus);
                if *held == 0 {
                    entry.hosts.remove(&server);
                }
            }
            entry.gpus = entry.gpus.saturating_sub(gpus);
            if entry.hosts.is_empty() {
                self.occupancy.remove(&job);
            }
        }
    }

    /// Loaned servers currently hosting no workers, ascending — the ones
    /// eligible for [`ClusterState::return_servers`] right now. O(idle).
    pub fn idle_loaned_ids(&self) -> impl Iterator<Item = ServerId> + '_ {
        self.idle_loaned.iter().copied()
    }

    /// The scheduler-facing views of all whitelisted servers.
    pub fn server_views(&self) -> Vec<ServerView> {
        self.whitelist
            .iter()
            .filter_map(|id| self.servers.get(id).map(Server::view))
            .collect()
    }

    /// Access one server.
    pub fn server(&self, id: ServerId) -> Option<&Server> {
        self.servers.get(&id)
    }

    /// Ids of servers currently on loan, ascending.
    pub fn loaned_ids(&self) -> Vec<ServerId> {
        self.loaned.iter().copied().collect()
    }

    /// Number of servers currently on loan.
    pub fn loaned_count(&self) -> u32 {
        self.loaned.len() as u32
    }

    /// Number of loaned servers hosting workers: the loan ledger minus
    /// the idle index kept in lockstep with it. O(1).
    pub fn busy_loaned_count(&self) -> u32 {
        self.loaned.len().saturating_sub(self.idle_loaned.len()) as u32
    }

    /// Whether `id` is on loan to training.
    pub fn is_loaned(&self, id: ServerId) -> bool {
        self.loaned.contains(&id)
    }

    /// `(used, total)` GPUs across whitelisted servers of `pool` — O(1)
    /// from the eagerly-maintained counters.
    pub fn gpu_usage(&self, pool: PoolKind) -> (u32, u32) {
        match pool {
            PoolKind::Training => self.usage_training,
            PoolKind::OnLoan => self.usage_on_loan,
        }
    }

    /// GPUs currently used by workers on loaned *Flexible*-group
    /// servers — the capacity that §5.3 can hand back preemption-free.
    /// Telemetry samples this per epoch as the `flexible` slice of the
    /// utilization split.
    pub fn flexible_gpu_usage(&self) -> u32 {
        self.loaned
            .iter()
            .filter_map(|id| self.servers.get(id))
            .filter(|s| s.group == ServerGroup::Flexible)
            .map(Server::used_gpus)
            .sum()
    }

    /// Fragmentation index over the whitelisted servers: the fraction
    /// of free GPUs stranded on *partially occupied* servers, `0.0`
    /// (every free GPU sits on an empty server — gang-friendly) to
    /// `1.0` (all free capacity is slivers no full-server gang fits
    /// in). `0.0` when nothing is free.
    pub fn fragmentation_index(&self) -> f64 {
        let mut free_total = 0u32;
        let mut free_on_empty = 0u32;
        for id in &self.whitelist {
            let Some(s) = self.servers.get(id) else {
                continue;
            };
            let free = s.free_gpus();
            free_total += free;
            if s.is_empty() {
                free_on_empty += free;
            }
        }
        if free_total == 0 {
            0.0
        } else {
            1.0 - f64::from(free_on_empty) / f64::from(free_total)
        }
    }

    /// Whether `id` is currently down (crashed).
    pub fn is_down(&self, id: ServerId) -> bool {
        self.down.contains(&id)
    }

    /// Ids of servers currently down, ascending.
    pub fn down_ids(&self) -> Vec<ServerId> {
        self.down.iter().copied().collect()
    }

    /// Crashes a server: every worker on it is lost, it leaves the
    /// whitelist and the loan ledger, and it stays ineligible for loans
    /// until [`Self::recover_server`]. Returns the `(job, gpus)` pairs
    /// that were running there.
    pub fn crash_server(&mut self, id: ServerId) -> Result<Vec<(JobId, u32)>, ClusterError> {
        if self.down.contains(&id) {
            return Err(ClusterError::ServerDown(id));
        }
        if !self.servers.contains_key(&id) {
            return Err(ClusterError::UnknownServer(id));
        }
        self.touch(id);
        let s = self.servers.get_mut(&id).expect("checked above");
        let victims: Vec<(JobId, u32)> = s.jobs().collect();
        let (pool, total) = (s.pool, s.total_gpus);
        for (job, _) in &victims {
            s.evict(*job);
        }
        for &(job, gpus) in &victims {
            self.occupancy_remove(job, id, gpus);
        }
        if self.whitelist.remove(&id) {
            let victim_gpus: u32 = victims.iter().map(|&(_, g)| g).sum();
            let u = self.usage_mut(pool);
            u.0 -= victim_gpus;
            u.1 -= total;
        }
        self.loaned.remove(&id);
        self.idle_loaned.remove(&id);
        self.down.insert(id);
        self.debug_audit();
        Ok(victims)
    }

    /// Brings a crashed server back: dedicated training servers rejoin
    /// the whitelist immediately; inference-owned servers return to the
    /// inference pool and become loanable again.
    pub fn recover_server(&mut self, id: ServerId) -> Result<(), ClusterError> {
        if !self.down.contains(&id) {
            return Err(ClusterError::UnknownServer(id));
        }
        self.touch(id);
        self.down.remove(&id);
        let s = self
            .servers
            .get_mut(&id)
            .ok_or(ClusterError::UnknownServer(id))?;
        s.group = ServerGroup::Unassigned;
        let total = s.total_gpus;
        if s.gpu_type == GpuType::V100 {
            s.pool = PoolKind::Training;
            // Down servers host no workers, so only the capacity returns.
            if self.whitelist.insert(id) {
                self.usage_training.1 += total;
            }
        }
        self.debug_audit();
        Ok(())
    }

    /// Audits the bookkeeping invariants and returns a typed error on the
    /// first violation:
    ///
    /// * per-server GPU accounting never exceeds capacity;
    /// * the loan ledger is a subset of the whitelist and only ever holds
    ///   inference-owned (T4) servers;
    /// * down servers are neither whitelisted nor loaned, and host no
    ///   workers;
    /// * no orphaned assignments: servers outside the whitelist host no
    ///   workers.
    ///
    /// This is the oracle, O(cluster). The simulator runs it once at the
    /// end of a run; after orchestrator ticks and faults it runs
    /// [`Self::audit_touched`] instead, which debug builds cross-check
    /// against this. Debug builds also run it after every mutation (via
    /// `debug_audit`) so tests fail fast at the corrupting operation.
    pub fn audit(&self) -> Result<(), ClusterError> {
        let violation = |msg: String| Err(ClusterError::AuditViolation(msg));
        for s in self.servers.values() {
            if s.used_gpus() > s.total_gpus {
                return violation(format!(
                    "{}: {} GPUs used of {}",
                    s.id,
                    s.used_gpus(),
                    s.total_gpus
                ));
            }
        }
        for id in &self.whitelist {
            if !self.servers.contains_key(id) {
                return violation(format!("whitelisted {id} does not exist"));
            }
        }
        for id in &self.loaned {
            if !self.whitelist.contains(id) {
                return violation(format!("loaned {id} is not whitelisted"));
            }
            match self.servers.get(id) {
                Some(s) if s.gpu_type != GpuType::T4 => {
                    return violation(format!("loaned {id} is a dedicated training server"));
                }
                Some(_) => {}
                None => return violation(format!("loaned {id} does not exist")),
            }
        }
        for id in &self.down {
            if self.whitelist.contains(id) {
                return violation(format!("down {id} is still whitelisted"));
            }
            if self.loaned.contains(id) {
                return violation(format!("down {id} is still on the loan ledger"));
            }
            if self.servers.get(id).is_some_and(|s| !s.is_empty()) {
                return violation(format!("down {id} still hosts workers"));
            }
        }
        for s in self.servers.values() {
            if !self.whitelist.contains(&s.id) && !s.is_empty() {
                return violation(format!(
                    "{} hosts workers but is outside the whitelist",
                    s.id
                ));
            }
        }
        for id in &self.loaned {
            let empty = self.servers.get(id).is_some_and(|s| s.is_empty());
            if empty != self.idle_loaned.contains(id) {
                return violation(format!(
                    "idle-loan index out of lockstep for {id} (empty: {empty})"
                ));
            }
        }
        if let Some(id) = self.idle_loaned.difference(&self.loaned).next() {
            return violation(format!("idle-loan index holds non-loaned {id}"));
        }
        // The job-footprint index must equal what a full-cluster rebuild
        // produces — every mutator keeps it in lockstep.
        let mut rebuilt: BTreeMap<JobId, JobOccupancy> = BTreeMap::new();
        for s in self.servers.values() {
            for (job, gpus) in s.jobs() {
                let entry = rebuilt.entry(job).or_default();
                entry.hosts.insert(s.id, gpus);
                entry.gpus += gpus;
            }
        }
        if rebuilt != self.occupancy {
            return violation("job-footprint index out of lockstep".to_string());
        }
        // The pool GPU-usage counters must equal a whitelist walk.
        let mut training = (0u32, 0u32);
        let mut on_loan = (0u32, 0u32);
        for id in &self.whitelist {
            let Some(s) = self.servers.get(id) else {
                continue;
            };
            let slot = match s.pool {
                PoolKind::Training => &mut training,
                PoolKind::OnLoan => &mut on_loan,
            };
            slot.0 += s.used_gpus();
            slot.1 += s.total_gpus;
        }
        if (training, on_loan) != (self.usage_training, self.usage_on_loan) {
            return violation(format!(
                "pool GPU-usage counters out of lockstep: training {:?} vs {:?}, \
                 on-loan {:?} vs {:?}",
                self.usage_training, training, self.usage_on_loan, on_loan
            ));
        }
        Ok(())
    }

    /// Audits what changed since the last call: every per-server check of
    /// [`Self::audit`] on the servers the mutators touched, the footprint
    /// index from both sides (touched servers' jobs, touched jobs' hosts)
    /// and the pool usage counters against the last audit's usage plus
    /// each touched server's change. It reports a violation exactly when
    /// [`Self::audit`] would, as long as the state changes only through
    /// the mutators. Servers and jobs that fail stay marked, so a
    /// violation left in place is reported again by the next call.
    ///
    /// O(touched servers + touched jobs' hosts), against `audit`'s
    /// O(cluster): the engine runs this after each orchestrator tick and
    /// fault.
    pub fn audit_touched(&mut self) -> Result<(), ClusterError> {
        let mut first = None;
        let mut usage = self.audited_usage;
        let touched = std::mem::take(&mut self.touched);
        for (id, before) in touched {
            let now = self.usage_share(id);
            let sub: fn(u32, u32) -> u32 = u32::wrapping_sub;
            for (share, op) in [(before, sub), (now, u32::wrapping_add)] {
                if let Some((pool, used, total)) = share {
                    let slot = match pool {
                        PoolKind::Training => &mut usage.0,
                        PoolKind::OnLoan => &mut usage.1,
                    };
                    // Wrapping is exact: the final sums are true totals.
                    *slot = (op(slot.0, used), op(slot.1, total));
                }
            }
            if let Err(e) = self.audit_server(id) {
                first.get_or_insert(e);
                self.touched.insert(id, now);
            }
        }
        let touched_jobs = std::mem::take(&mut self.touched_jobs);
        for job in touched_jobs {
            if let Err(e) = self.audit_job(job) {
                first.get_or_insert(e);
                self.touched_jobs.insert(job);
            }
        }
        self.audited_usage = usage;
        if (self.usage_training, self.usage_on_loan) != usage {
            first.get_or_insert(ClusterError::AuditViolation(format!(
                "pool GPU-usage counters out of lockstep: training {:?} vs {:?}, \
                 on-loan {:?} vs {:?}",
                self.usage_training, usage.0, self.usage_on_loan, usage.1
            )));
        }
        first.map_or(Ok(()), Err)
    }

    /// The per-server checks of [`Self::audit`] on one server, with the
    /// footprint index checked from the server's side.
    fn audit_server(&self, id: ServerId) -> Result<(), ClusterError> {
        let violation = |msg: String| Err(ClusterError::AuditViolation(msg));
        let Some(s) = self.servers.get(&id) else {
            return violation(format!("touched {id} does not exist"));
        };
        let whitelisted = self.whitelist.contains(&id);
        let loaned = self.loaned.contains(&id);
        let idle = self.idle_loaned.contains(&id);
        if s.used_gpus() > s.total_gpus {
            return violation(format!(
                "{id}: {} GPUs used of {}",
                s.used_gpus(),
                s.total_gpus
            ));
        }
        if loaned && !whitelisted {
            return violation(format!("loaned {id} is not whitelisted"));
        }
        if loaned && s.gpu_type != GpuType::T4 {
            return violation(format!("loaned {id} is a dedicated training server"));
        }
        if self.down.contains(&id) && (whitelisted || loaned) {
            return violation(format!("down {id} is still whitelisted or on loan"));
        }
        if !whitelisted && !s.is_empty() {
            return violation(format!("{id} hosts workers but is outside the whitelist"));
        }
        if idle != (loaned && s.is_empty()) {
            return violation(format!("idle-loan index out of lockstep for {id}"));
        }
        for (job, gpus) in s.jobs() {
            let indexed = self.occupancy.get(&job).and_then(|o| o.hosts.get(&id));
            if indexed != Some(&gpus) {
                return violation(format!(
                    "job-footprint index out of lockstep for {job} on {id}"
                ));
            }
        }
        Ok(())
    }

    /// The footprint index entry of `job` checked from its side: every
    /// indexed host holds exactly the indexed GPUs, which sum to the total.
    fn audit_job(&self, job: JobId) -> Result<(), ClusterError> {
        let Some(o) = self.occupancy.get(&job) else {
            return Ok(());
        };
        let hosted = o.hosts.iter().all(|(sid, &gpus)| {
            self.servers
                .get(sid)
                .is_some_and(|s| s.jobs().any(|held| held == (job, gpus)))
        });
        if o.hosts.is_empty() || !hosted || o.hosts.values().sum::<u32>() != o.gpus {
            return Err(ClusterError::AuditViolation(format!(
                "job-footprint index out of lockstep for {job}"
            )));
        }
        Ok(())
    }

    /// In debug builds, panics at the corrupting mutation instead of
    /// letting an inconsistency propagate. No-op in release.
    #[inline]
    fn debug_audit(&self) {
        #[cfg(debug_assertions)]
        if let Err(e) = self.audit() {
            panic!("cluster-state {e}");
        }
    }

    /// Loans `n` idle inference-owned servers to training, adding them to
    /// the whitelist. Returns the loaned ids.
    pub fn loan(&mut self, n: u32) -> Result<Vec<ServerId>, ClusterError> {
        let candidates: Vec<ServerId> = self
            .servers
            .values()
            .filter(|s| {
                s.gpu_type == GpuType::T4
                    && !self.whitelist.contains(&s.id)
                    && !self.down.contains(&s.id)
                    && s.is_empty()
            })
            .map(|s| s.id)
            .take(n as usize)
            .collect();
        if (candidates.len() as u32) < n {
            return Err(ClusterError::InsufficientLoanable {
                requested: n,
                available: candidates.len() as u32,
            });
        }
        for id in &candidates {
            self.touch(*id);
            self.whitelist.insert(*id);
            self.loaned.insert(*id);
            // Freshly loaned servers arrive empty.
            self.idle_loaned.insert(*id);
            if let Some(s) = self.servers.get_mut(id) {
                s.pool = PoolKind::OnLoan;
                s.group = ServerGroup::Unassigned;
                let total = s.total_gpus;
                self.usage_on_loan.1 += total;
            }
        }
        self.debug_audit();
        Ok(candidates)
    }

    /// Returns loaned servers to the inference cluster. Each must be on
    /// loan and empty.
    pub fn return_servers(&mut self, ids: &[ServerId]) -> Result<(), ClusterError> {
        for id in ids {
            let s = self
                .servers
                .get(id)
                .ok_or(ClusterError::UnknownServer(*id))?;
            if !self.loaned.contains(id) {
                return Err(ClusterError::NotLoaned(*id));
            }
            if !s.is_empty() {
                return Err(ClusterError::Occupied(*id));
            }
        }
        for id in ids {
            self.touch(*id);
            let total = self.servers.get(id).map_or(0, |s| s.total_gpus);
            // Returned servers are validated empty above, so only the
            // capacity leaves the counter.
            if self.whitelist.remove(id) {
                self.usage_on_loan.1 -= total;
            }
            self.loaned.remove(id);
            self.idle_loaned.remove(id);
        }
        self.debug_audit();
        Ok(())
    }

    /// Allocates workers of `job` per the assignment, labelling on-loan
    /// servers with `group` when unassigned. Validates every leg first
    /// (a leg of zero GPUs is refused); applies atomically.
    pub fn allocate(
        &mut self,
        job: JobId,
        assignment: &[(ServerId, u32)],
        gpus_per_worker: u32,
        group: ServerGroup,
    ) -> Result<(), ClusterError> {
        for (id, workers) in assignment {
            let s = self
                .servers
                .get(id)
                .ok_or(ClusterError::UnknownServer(*id))?;
            if !self.whitelist.contains(id) {
                return Err(ClusterError::NotWhitelisted(*id));
            }
            let need = workers * gpus_per_worker;
            if need == 0 {
                return Err(ClusterError::Occupancy(format!("{id}: zero-GPU leg for {job}")));
            }
            if need > s.free_gpus() {
                return Err(ClusterError::Occupancy(format!(
                    "{id}: need {need}, free {}",
                    s.free_gpus()
                )));
            }
        }
        for (id, workers) in assignment {
            let gpus = workers * gpus_per_worker;
            self.touch(*id);
            let s = self.servers.get_mut(id).expect("validated above");
            s.allocate(job, gpus).map_err(ClusterError::Occupancy)?;
            if s.pool == PoolKind::OnLoan && s.group == ServerGroup::Unassigned {
                s.group = group;
            }
            let pool = s.pool;
            self.occupancy_add(job, *id, gpus);
            self.usage_mut(pool).0 += gpus;
            // No-op unless the server was an idle loaner.
            self.idle_loaned.remove(id);
        }
        self.debug_audit();
        Ok(())
    }

    /// Releases workers of `job` per the assignment (scale-in). Validates
    /// first; applies atomically.
    pub fn release(
        &mut self,
        job: JobId,
        assignment: &[(ServerId, u32)],
        gpus_per_worker: u32,
    ) -> Result<(), ClusterError> {
        for (id, workers) in assignment {
            let s = self
                .servers
                .get(id)
                .ok_or(ClusterError::UnknownServer(*id))?;
            if s.gpus_of(job) < workers * gpus_per_worker {
                return Err(ClusterError::Occupancy(format!(
                    "{id}: {job} holds {} GPUs, releasing {}",
                    s.gpus_of(job),
                    workers * gpus_per_worker
                )));
            }
        }
        for (id, workers) in assignment {
            let gpus = workers * gpus_per_worker;
            self.touch(*id);
            let s = self.servers.get_mut(id).expect("validated above");
            s.release(job, gpus).map_err(ClusterError::Occupancy)?;
            let now_empty = s.is_empty();
            let pool = s.pool;
            self.occupancy_remove(job, *id, gpus);
            self.usage_mut(pool).0 -= gpus;
            if now_empty && self.loaned.contains(id) {
                self.idle_loaned.insert(*id);
            }
        }
        self.debug_audit();
        Ok(())
    }

    /// Vacates every allocation on one server (flexible-group release),
    /// returning the `(job, gpus)` pairs that were freed.
    pub fn vacate_server(&mut self, id: ServerId) -> Result<Vec<(JobId, u32)>, ClusterError> {
        if !self.servers.contains_key(&id) {
            return Err(ClusterError::UnknownServer(id));
        }
        self.touch(id);
        let s = self.servers.get_mut(&id).expect("checked above");
        let jobs: Vec<(JobId, u32)> = s.jobs().collect();
        let pool = s.pool;
        for (job, _) in &jobs {
            s.evict(*job);
        }
        for &(job, gpus) in &jobs {
            self.occupancy_remove(job, id, gpus);
        }
        // Occupied servers are always whitelisted (audited invariant),
        // so the freed GPUs leave the pool counter; an empty server
        // frees nothing.
        let freed: u32 = jobs.iter().map(|&(_, g)| g).sum();
        self.usage_mut(pool).0 -= freed;
        if self.loaned.contains(&id) {
            self.idle_loaned.insert(id);
        }
        self.debug_audit();
        Ok(jobs)
    }

    /// Evicts `job` everywhere (preemption). Returns `(server, gpus)`
    /// freed. O(hosting servers) via the footprint index.
    pub fn evict_job(&mut self, job: JobId) -> Vec<(ServerId, u32)> {
        let hosts: Vec<ServerId> = self
            .occupancy
            .get(&job)
            .map(|o| o.hosts.keys().copied().collect())
            .unwrap_or_default();
        let mut freed = Vec::new();
        for &sid in &hosts {
            self.touch(sid);
            let Some(s) = self.servers.get_mut(&sid) else {
                continue;
            };
            let g = s.evict(job);
            let pool = s.pool;
            if g > 0 {
                freed.push((sid, g));
                self.usage_mut(pool).0 -= g;
            }
        }
        self.occupancy.remove(&job);
        for &(sid, _) in &freed {
            if self.loaned.contains(&sid)
                && self.servers.get(&sid).is_some_and(|s| s.is_empty())
            {
                self.idle_loaned.insert(sid);
            }
        }
        self.debug_audit();
        freed
    }

    /// Servers on loan whose group is `Flexible`, with their jobs — the
    /// candidates for §5.3's preemption-free release.
    pub fn flexible_group_servers(&self) -> Vec<(ServerId, Vec<(JobId, u32)>)> {
        self.loaned
            .iter()
            .filter_map(|id| {
                let s = self.servers.get(id)?;
                (s.group == ServerGroup::Flexible).then(|| (s.id, s.jobs().collect()))
            })
            .collect()
    }

    /// Builds the §4 reclaim request over the currently loaned servers.
    ///
    /// Footprints count each job's servers and GPUs cluster-wide, so the
    /// preemption-cost denominators include training-side placements. Runs
    /// in O(loaned servers + their jobs): footprints come straight from the
    /// job-occupancy index instead of a scan over every server.
    pub fn reclaim_request(&self, need: usize) -> ReclaimRequest {
        let servers: Vec<ReclaimServerView> = self
            .loaned
            .iter()
            .filter_map(|id| {
                let s = self.servers.get(id)?;
                Some(ReclaimServerView {
                    id: s.id,
                    total_gpus: s.total_gpus,
                    jobs: s.jobs().collect(),
                })
            })
            .collect();
        let jobs: Vec<JobFootprint> = servers
            .iter()
            .flat_map(|s| s.jobs.iter().map(|(j, _)| *j))
            .collect::<BTreeSet<JobId>>()
            .into_iter()
            .map(|id| {
                let occ = self.occupancy.get(&id);
                JobFootprint {
                    id,
                    total_servers: occ.map_or(0, |o| o.hosts.len() as u32),
                    total_gpus: occ.map_or(0, |o| o.gpus),
                }
            })
            .collect();
        let request = ReclaimRequest {
            servers,
            jobs,
            need,
        };
        // The engine must never hand the reclaim heuristics a request with
        // duplicate candidates or duplicate per-server job entries.
        debug_assert!(
            request.validate().is_ok(),
            "engine-built reclaim request failed validation: {:?}",
            request.validate()
        );
        request
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn small() -> ClusterState {
        ClusterState::new(ClusterConfig {
            training_servers: 2,
            inference_servers: 3,
            gpus_per_server: 8,
            speed: SpeedFactors::default(),
        })
    }

    #[test]
    fn initial_whitelist_is_training_only() {
        let c = small();
        let views = c.server_views();
        assert_eq!(views.len(), 2);
        assert!(views.iter().all(|v| v.pool == PoolKind::Training));
        assert_eq!(c.gpu_usage(PoolKind::Training), (0, 16));
        assert_eq!(c.gpu_usage(PoolKind::OnLoan), (0, 0));
    }

    #[test]
    fn loan_and_return_roundtrip() {
        let mut c = small();
        let loaned = c.loan(2).expect("2 of 3 idle");
        assert_eq!(loaned.len(), 2);
        assert_eq!(c.loaned_count(), 2);
        assert_eq!(c.server_views().len(), 4);
        assert_eq!(c.gpu_usage(PoolKind::OnLoan), (0, 16));
        c.return_servers(&loaned).expect("all empty");
        assert_eq!(c.loaned_count(), 0);
        assert_eq!(c.server_views().len(), 2);
    }

    #[test]
    fn loan_rejects_over_request() {
        let mut c = small();
        match c.loan(4) {
            Err(ClusterError::InsufficientLoanable {
                requested: 4,
                available: 3,
            }) => {}
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(c.loaned_count(), 0, "failed loan changes nothing");
    }

    #[test]
    fn cannot_return_occupied_or_unloaned() {
        let mut c = small();
        let loaned = c.loan(1).unwrap();
        c.allocate(JobId(1), &[(loaned[0], 2)], 2, ServerGroup::Base)
            .unwrap();
        assert_eq!(
            c.return_servers(&loaned),
            Err(ClusterError::Occupied(loaned[0]))
        );
        assert_eq!(
            c.return_servers(&[ServerId(0)]),
            Err(ClusterError::NotLoaned(ServerId(0)))
        );
    }

    #[test]
    fn fragmentation_index_tracks_stranded_free_gpus() {
        let mut c = small();
        // Empty cluster: all free GPUs sit on empty servers.
        assert_eq!(c.fragmentation_index(), 0.0);
        // Half-fill one server: its 4 free GPUs are stranded, the other
        // server's 8 are not → 4/12 fragmented.
        c.allocate(JobId(1), &[(ServerId(0), 4)], 1, ServerGroup::Base)
            .unwrap();
        assert!((c.fragmentation_index() - 4.0 / 12.0).abs() < 1e-12);
        // Fill everything: no free GPUs at all → defined as 0.
        c.allocate(
            JobId(2),
            &[(ServerId(0), 4), (ServerId(1), 8)],
            1,
            ServerGroup::Base,
        )
        .unwrap();
        assert_eq!(c.fragmentation_index(), 0.0);
    }

    #[test]
    fn flexible_gpu_usage_counts_only_flexible_loaned_workers() {
        let mut c = small();
        let loaned = c.loan(2).unwrap();
        assert_eq!(c.flexible_gpu_usage(), 0);
        c.allocate(JobId(1), &[(loaned[0], 3)], 1, ServerGroup::Flexible)
            .unwrap();
        c.allocate(JobId(2), &[(loaned[1], 2)], 1, ServerGroup::Base)
            .unwrap();
        // Training-side placement never counts.
        c.allocate(JobId(3), &[(ServerId(0), 4)], 1, ServerGroup::Flexible)
            .unwrap();
        assert_eq!(c.flexible_gpu_usage(), 3);
    }

    #[test]
    fn allocate_is_atomic_across_servers() {
        let mut c = small();
        // First leg fits, second overflows → nothing applies.
        let a = [(ServerId(0), 2u32), (ServerId(1), 5u32)];
        let err = c.allocate(JobId(1), &a, 2, ServerGroup::Base);
        assert!(matches!(err, Err(ClusterError::Occupancy(_))));
        assert_eq!(c.gpu_usage(PoolKind::Training).0, 0);
    }

    #[test]
    fn allocate_refuses_a_zero_leg() {
        let mut c = small();
        let a = [(ServerId(0), 1u32), (ServerId(1), 0u32)];
        let err = c.allocate(JobId(1), &a, 2, ServerGroup::Base);
        assert!(matches!(err, Err(ClusterError::Occupancy(_))));
        let err = c.allocate(JobId(1), &[(ServerId(0), 1)], 0, ServerGroup::Base);
        assert!(matches!(err, Err(ClusterError::Occupancy(_))));
        assert_eq!(c.gpu_usage(PoolKind::Training).0, 0);
        c.audit().expect("a refused allocation leaves the state consistent");
        c.audit_touched().expect("and marks nothing inconsistent");
    }

    #[test]
    fn allocate_requires_whitelist() {
        let mut c = small();
        // Server 2 is inference-owned, not loaned.
        let err = c.allocate(JobId(1), &[(ServerId(2), 1)], 1, ServerGroup::Base);
        assert_eq!(err, Err(ClusterError::NotWhitelisted(ServerId(2))));
    }

    #[test]
    fn release_and_evict() {
        let mut c = small();
        c.allocate(
            JobId(1),
            &[(ServerId(0), 2), (ServerId(1), 1)],
            2,
            ServerGroup::Base,
        )
        .unwrap();
        c.release(JobId(1), &[(ServerId(0), 1)], 2).unwrap();
        assert_eq!(c.gpu_usage(PoolKind::Training).0, 4);
        let freed = c.evict_job(JobId(1));
        assert_eq!(freed, vec![(ServerId(0), 2), (ServerId(1), 2)]);
        assert_eq!(c.gpu_usage(PoolKind::Training).0, 0);
    }

    #[test]
    fn release_validates_holdings() {
        let mut c = small();
        c.allocate(JobId(1), &[(ServerId(0), 1)], 2, ServerGroup::Base)
            .unwrap();
        let err = c.release(JobId(1), &[(ServerId(0), 2)], 2);
        assert!(matches!(err, Err(ClusterError::Occupancy(_))));
        assert_eq!(c.gpu_usage(PoolKind::Training).0, 2, "unchanged");
    }

    #[test]
    fn group_labels_follow_allocations() {
        let mut c = small();
        let loaned = c.loan(2).unwrap();
        c.allocate(JobId(1), &[(loaned[0], 1)], 1, ServerGroup::Flexible)
            .unwrap();
        assert_eq!(c.server(loaned[0]).unwrap().group, ServerGroup::Flexible);
        assert_eq!(
            c.flexible_group_servers(),
            vec![(loaned[0], vec![(JobId(1), 1)])]
        );
        // Releasing everything resets the label.
        c.release(JobId(1), &[(loaned[0], 1)], 1).unwrap();
        assert!(c.flexible_group_servers().is_empty());
    }

    #[test]
    fn reclaim_request_footprints_span_pools() {
        let mut c = small();
        let loaned = c.loan(1).unwrap();
        // Job 1 spans a training server and the loaned server.
        c.allocate(
            JobId(1),
            &[(ServerId(0), 1), (loaned[0], 1)],
            4,
            ServerGroup::Base,
        )
        .unwrap();
        let req = c.reclaim_request(1);
        assert_eq!(req.need, 1);
        assert_eq!(req.servers.len(), 1);
        assert_eq!(req.jobs.len(), 1);
        assert_eq!(req.jobs[0].total_servers, 2);
        assert_eq!(req.jobs[0].total_gpus, 8);
        req.validate().expect("request is consistent");
    }

    #[test]
    fn crash_evicts_and_delists() {
        let mut c = small();
        c.allocate(JobId(1), &[(ServerId(0), 2)], 2, ServerGroup::Base)
            .unwrap();
        let victims = c.crash_server(ServerId(0)).expect("crashes");
        assert_eq!(victims, vec![(JobId(1), 4)]);
        assert!(c.is_down(ServerId(0)));
        assert_eq!(c.down_ids(), vec![ServerId(0)]);
        assert_eq!(c.server_views().len(), 1, "left the whitelist");
        // Down servers reject double-crash and cannot take allocations.
        assert_eq!(
            c.crash_server(ServerId(0)),
            Err(ClusterError::ServerDown(ServerId(0)))
        );
        assert!(matches!(
            c.allocate(JobId(2), &[(ServerId(0), 1)], 1, ServerGroup::Base),
            Err(ClusterError::NotWhitelisted(_))
        ));
    }

    #[test]
    fn crashed_training_server_recovers_to_whitelist() {
        let mut c = small();
        c.crash_server(ServerId(0)).unwrap();
        c.recover_server(ServerId(0)).expect("recovers");
        assert!(!c.is_down(ServerId(0)));
        assert_eq!(c.server_views().len(), 2);
        assert!(matches!(
            c.recover_server(ServerId(0)),
            Err(ClusterError::UnknownServer(_))
        ));
    }

    #[test]
    fn crashed_loaned_server_recovers_to_inference_pool() {
        let mut c = small();
        let loaned = c.loan(1).unwrap();
        c.allocate(JobId(1), &[(loaned[0], 1)], 2, ServerGroup::Flexible)
            .unwrap();
        let victims = c.crash_server(loaned[0]).unwrap();
        assert_eq!(victims.len(), 1);
        assert_eq!(c.loaned_count(), 0, "off the loan ledger");
        // While down it cannot be loaned again.
        assert!(matches!(
            c.loan(3),
            Err(ClusterError::InsufficientLoanable { available: 2, .. })
        ));
        c.recover_server(loaned[0]).unwrap();
        assert_eq!(c.server_views().len(), 2, "not auto-rewhitelisted");
        let again = c.loan(3).expect("recovered server is loanable again");
        assert!(again.contains(&loaned[0]));
    }

    #[test]
    fn audit_accepts_all_legal_histories() {
        let mut c = small();
        c.audit().expect("fresh state is consistent");
        let loaned = c.loan(2).unwrap();
        c.allocate(JobId(1), &[(ServerId(0), 2), (loaned[0], 1)], 2, ServerGroup::Base)
            .unwrap();
        c.crash_server(loaned[1]).unwrap();
        c.audit().expect("after loan/allocate/crash");
        c.recover_server(loaned[1]).unwrap();
        c.evict_job(JobId(1));
        c.audit().expect("after recover/evict");
    }

    /// One mutator call: `(mutator, server, job, size, two legs)`.
    /// Server ids 5 and 6 do not exist in [`small`], so some calls fail.
    type Op = (u8, u32, u64, u32, bool);

    fn apply(c: &mut ClusterState, (kind, server, job, size, two): Op) {
        let (sid, job) = (ServerId(server), JobId(job));
        let legs = [(sid, 1 + size % 4), (ServerId((server + 1) % 7), 1)];
        let legs = &legs[..1 + usize::from(two)];
        let gpus_per_worker = 1 + size / 4;
        let group = if size % 2 == 0 {
            ServerGroup::Base
        } else {
            ServerGroup::Flexible
        };
        let _ = match kind {
            0 => c.crash_server(sid).map(drop),
            1 => c.recover_server(sid),
            2 => c.loan(server % 4).map(drop),
            3 => c.return_servers(&[sid]),
            4 => c.allocate(job, legs, gpus_per_worker, group),
            5 => c.release(job, legs, gpus_per_worker),
            6 => c.vacate_server(sid).map(drop),
            _ => {
                c.evict_job(job);
                Ok(())
            }
        };
    }

    fn ops(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<Op>> {
        prop::collection::vec((0u8..8, 0u32..7, 0u64..3, 0u32..8, any::<bool>()), len)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The touched-server audit agrees with the full audit after any
        /// mutator history, and both catch a corrupted field of a touched
        /// server, again at the next touched-server audit.
        #[test]
        fn incremental_audit_equals_full_audit(
            batches in prop::collection::vec(ops(0..5), 1..12),
            tail in ops(1..5),
            corruption in 0u8..6,
        ) {
            let mut c = small();
            for batch in &batches {
                for &op in batch {
                    apply(&mut c, op);
                }
                prop_assert_eq!(c.audit_touched().is_ok(), c.audit().is_ok());
                prop_assert!(c.touched.is_empty() && c.touched_jobs.is_empty());
            }
            for &op in &tail {
                apply(&mut c, op);
            }
            // Vacating an existing server always succeeds and touches it.
            if c.touched.is_empty() {
                c.vacate_server(ServerId(0)).unwrap();
            }
            let first = *c.touched.keys().next().unwrap();
            // A job on a touched server, preferring one whose footprint
            // entry is unmarked, so only the server's side can see it.
            let hosted = c
                .touched
                .keys()
                .flat_map(|&id| c.servers[&id].jobs().map(move |(job, gpus)| (id, job, gpus)))
                .min_by_key(|(_, job, _)| c.touched_jobs.contains(job));
            // A running job and a touched server not hosting it, so only
            // the job's side can see a phantom host.
            let phantom = c
                .occupancy
                .keys()
                .flat_map(|&job| c.touched.keys().map(move |&id| (id, job)))
                .find(|(id, job)| c.servers[id].gpus_of(*job) == 0);
            // A marked footprint entry, for a total only its side sees.
            let marked = c
                .touched_jobs
                .iter()
                .copied()
                .find(|job| c.occupancy.contains_key(job));
            match (corruption, hosted, phantom, marked) {
                (0, Some((id, job, _)), ..) => {
                    c.servers.get_mut(&id).unwrap().release(job, 1).unwrap();
                }
                (0, None, ..) => {
                    c.servers.get_mut(&first).unwrap().allocate(JobId(99), 1).unwrap();
                }
                (1, ..) => {
                    if !c.idle_loaned.remove(&first) {
                        c.idle_loaned.insert(first);
                    }
                }
                (2, Some((id, job, gpus)), ..) => {
                    let entry = c.occupancy.get_mut(&job).unwrap();
                    entry.hosts.insert(id, gpus + 1);
                    entry.gpus += 1;
                }
                // A buggy mutator indexing the wrong server.
                (3, _, Some((id, job)), _) => c.occupancy_add(job, id, 1),
                (4, .., Some(job)) => c.occupancy.get_mut(&job).unwrap().gpus += 1,
                _ => c.usage_on_loan.0 += 1,
            }
            prop_assert!(c.audit().is_err());
            prop_assert!(c.audit_touched().is_err());
            prop_assert!(c.audit_touched().is_err(), "a violation left in place is reported again");
        }
    }

    #[test]
    fn touched_audit_reports_a_violation_until_it_is_mended() {
        let mut c = small();
        let loaned = c.loan(1).unwrap();
        c.audit_touched().expect("loaning is consistent");
        c.allocate(JobId(1), &[(loaned[0], 1)], 1, ServerGroup::Base)
            .unwrap();
        // Corrupt the idle-loan index of the touched server.
        c.idle_loaned.insert(loaned[0]);
        assert!(c.audit_touched().is_err());
        assert!(c.audit_touched().is_err(), "still marked, still reported");
        c.idle_loaned.remove(&loaned[0]);
        c.audit_touched().expect("mended");
        assert!(c.touched.is_empty());
    }
}
