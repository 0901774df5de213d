//! The admission mempool: the one validated, class-aware,
//! tenant-quota'd intake path shared by the serving runtime and the
//! orchestrator.
//!
//! Both sims used to carry their own copy-pasted FIFO `VecDeque` with
//! linear drains, no validation, no priorities, no quotas and no
//! retry/eviction. The [`Mempool`] replaces both:
//!
//! * **Validate on submit** — a job whose model no hardware profile in
//!   the fleet could admit *even on an empty board* is rejected
//!   immediately ([`RejectReason::Unservable`]) instead of waiting
//!   forever.
//! * **Per-tenant in-queue quotas** — a tenant may hold at most
//!   [`AdmissionPolicy::tenant_queue_quota`] waiting entries; submits
//!   beyond that are rejected ([`RejectReason::TenantQuota`]), so one
//!   tenant's burst cannot monopolize the queue.
//! * **Priority classes** — [`SloClass::Guaranteed`] entries jump the
//!   queue ahead of best-effort work on every drain (and placement
//!   prefers boards whose projected load honors the floor — see
//!   [`crate::Fleet::place`]).
//! * **Deficit-weighted drain** — [`QueueOrder::TenantDeficit`] offers
//!   freed capacity to the most-starved tenant's job first, now in both
//!   runtimes (it used to be orchestrator-only).
//! * **Retry backoff** — a job that failed a drain attempt is not
//!   re-probed on every freed slot: with
//!   [`AdmissionPolicy::retry_backoff_ms`] set it backs off
//!   exponentially (capped at [`AdmissionPolicy::max_backoff_ms`]).
//! * **TTL eviction** — entries older than
//!   [`AdmissionPolicy::ttl_ms`] are expired with first-class
//!   accounting instead of rotting at the head of the queue.
//! * **Indexed drains** — entries are bucketed per model, so a drain
//!   probes fleet admissibility once per *model* (≤ the zoo size, not
//!   the queue length) and walks only the entries some board could
//!   actually admit. Capacity only shrinks while a drain places jobs,
//!   so a model inadmissible at drain start stays inadmissible for the
//!   whole drain — skipping its bucket is exact, not heuristic.
//!
//! The **default policy is bit-for-bit the historical behaviour**:
//! FIFO order, no quota, no TTL, no backoff — seeded replays produce
//! the same digests they did when each sim owned its own `VecDeque`
//! (pinned by the behaviour-preservation tests in both crates).

use crate::fleet::Fleet;
use crate::tenants::TenantAccumulator;
use omniboost_hw::ThroughputModel;
use omniboost_models::{zoo, JobSpec, ModelId};
use omniboost_telemetry::LogHistogram;
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// In what order the waiting queue is offered freed capacity.
///
/// (Moved down from `omniboost-orchestrator` in PR 7 so both runtimes
/// share one drain implementation; the orchestrator re-exports it.)
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QueueOrder {
    /// Strict arrival order — the historical behaviour and the default.
    #[default]
    Fifo,
    /// Most-deficient tenant first: waiting jobs are attempted in
    /// ascending order of their tenant's attained tps·ms integral
    /// (ties back off to arrival order), so a starved tenant's job
    /// claims freed capacity before a well-served tenant's older one.
    /// Jobs that still fit nowhere keep their arrival order in the
    /// residual queue.
    TenantDeficit,
}

/// The mempool's admission knobs. [`AdmissionPolicy::default`] is the
/// permissive historical queue: FIFO, validation on, no quota, no TTL,
/// no backoff — traces with no validation rejects replay bit-for-bit
/// against the pre-mempool sims.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdmissionPolicy {
    /// Drain ordering (within each SLO class).
    pub order: QueueOrder,
    /// Whether submits are validated against the fleet's hardware
    /// profiles (a job no profile could admit on an *empty* board is
    /// rejected instead of queued forever).
    pub validate: bool,
    /// Maximum waiting entries per tenant (`None` = unbounded). Submits
    /// past the quota are rejected; evacuation requeues are exempt —
    /// an already-admitted job is never dropped by its own quota.
    pub tenant_queue_quota: Option<usize>,
    /// Maximum time an entry may wait before being expired (`None` =
    /// wait forever). Sims sweep expiry at every tick.
    pub ttl_ms: Option<u64>,
    /// Base retry backoff after a failed drain attempt (`None` = retry
    /// on every drain, the historical behaviour). Doubles per failed
    /// attempt, capped at [`AdmissionPolicy::max_backoff_ms`].
    pub retry_backoff_ms: Option<u64>,
    /// Backoff ceiling (only read when `retry_backoff_ms` is set).
    pub max_backoff_ms: u64,
}

impl Default for AdmissionPolicy {
    fn default() -> Self {
        Self {
            order: QueueOrder::Fifo,
            validate: true,
            tenant_queue_quota: None,
            ttl_ms: None,
            retry_backoff_ms: None,
            max_backoff_ms: 8_000,
        }
    }
}

impl AdmissionPolicy {
    /// A production overload posture: deficit-weighted drain, tenant
    /// quotas, TTL eviction and retry backoff all on. The numbers suit
    /// second-scale traces; benches tune their own.
    pub fn strict() -> Self {
        Self {
            order: QueueOrder::TenantDeficit,
            validate: true,
            tenant_queue_quota: Some(8),
            ttl_ms: Some(10_000),
            retry_backoff_ms: Some(250),
            max_backoff_ms: 8_000,
        }
    }
}

/// Why a submit was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// No hardware profile in the fleet could admit the job's model
    /// even on an empty board — it could never be served.
    Unservable,
    /// The submitting tenant already holds its full in-queue quota.
    TenantQuota,
}

/// What [`Mempool::submit`] did with the job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitOutcome {
    /// Placed immediately on this board.
    Placed(usize),
    /// No board could admit it right now; it waits in the pool.
    Queued,
    /// Refused — the job never enters the pool.
    Rejected(RejectReason),
}

/// One job placed by a [`Mempool::drain`] call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Drained {
    /// The job that left the pool.
    pub job: JobSpec,
    /// When it entered the pool (its queue wait is `now - queued_at`).
    pub queued_at: u64,
    /// The board it landed on.
    pub board: usize,
}

/// Lifetime counters over everything that entered the pool's intake.
/// Conservation — `submitted + requeued == placed + rejected + expired
/// + departed_queued + in-queue` — holds at every step and is checked
/// by [`Mempool::index_check`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MempoolStats {
    /// [`Mempool::submit`] calls.
    pub submitted: usize,
    /// [`Mempool::requeue`] calls (evacuees re-entering).
    pub requeued: usize,
    /// Jobs placed on a board (immediately or by a drain).
    pub placed: usize,
    /// Submits refused (validation + quota).
    pub rejected: usize,
    /// Entries evicted by TTL.
    pub expired: usize,
    /// Entries removed because the job departed while still waiting.
    pub departed_queued: usize,
    /// Failed drain attempts (an entry probed by a drain that still fit
    /// nowhere) — the counter behind retry backoff. Not part of the
    /// conservation identity: retries re-enter the queue by definition.
    pub retries: usize,
}

/// One waiting job.
#[derive(Debug, Clone, Copy)]
struct PoolEntry {
    job: JobSpec,
    queued_at: u64,
    /// Failed drain attempts so far (drives the backoff).
    attempts: u32,
    /// Earliest stamp the next drain may re-probe this entry.
    not_before: u64,
}

/// Per-model admissibility bucket: the waiting entries of one model,
/// with the model's totals precomputed so a drain can probe fleet
/// admissibility once per bucket instead of once per entry.
#[derive(Debug)]
struct ModelBucket {
    model: ModelId,
    weight_bytes: u64,
    seqs: BTreeSet<u64>,
}

/// The shared admission mempool. See the module docs for the feature
/// walk; see [`AdmissionPolicy`] for the knobs.
#[derive(Debug, Default)]
pub struct Mempool {
    policy: AdmissionPolicy,
    /// Waiting entries by admission sequence number — the FIFO spine
    /// (BTreeMap iteration *is* arrival order).
    entries: BTreeMap<u64, PoolEntry>,
    /// Job id → sequence number: O(log n) departures of queued jobs.
    by_id: HashMap<u64, u64>,
    /// Per-model buckets (linear `Vec` — the zoo holds 11 models — so
    /// drain iteration order is deterministic).
    buckets: Vec<ModelBucket>,
    /// Waiting entries per tenant (the quota counter).
    tenant_depth: HashMap<u32, usize>,
    next_seq: u64,
    stats: MempoolStats,
    /// Wall-clock of every placement attempt routed through the pool
    /// (successful or not) — the orchestrator's `placement` latency
    /// surface. A bounded log-bucketed histogram, not a sample buffer:
    /// a long-lived daemon must not grow per placement. Read with
    /// [`Mempool::place_histogram`].
    place_hist: LogHistogram,
}

impl Mempool {
    /// An empty pool under `policy`.
    pub fn new(policy: AdmissionPolicy) -> Self {
        Self {
            policy,
            ..Self::default()
        }
    }

    /// The policy this pool runs.
    pub fn policy(&self) -> &AdmissionPolicy {
        &self.policy
    }

    /// Waiting entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing is waiting.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Lifetime intake counters.
    pub fn stats(&self) -> MempoolStats {
        self.stats
    }

    /// Waiting entries of `tenant` (the quota counter's view).
    pub fn tenant_depth(&self, tenant: u32) -> usize {
        self.tenant_depth.get(&tenant).copied().unwrap_or(0)
    }

    /// The waiting jobs in arrival order.
    pub fn queued_jobs(&self) -> Vec<JobSpec> {
        self.entries.values().map(|e| e.job).collect()
    }

    /// Empties the pool and resets every counter — a sim run starts
    /// from a clean intake (the policy survives).
    pub fn reset(&mut self) {
        self.entries.clear();
        self.by_id.clear();
        self.buckets.clear();
        self.tenant_depth.clear();
        self.next_seq = 0;
        self.stats = MempoolStats::default();
        self.place_hist = LogHistogram::new();
    }

    /// Wall-clock histogram of every placement attempt since the last
    /// [`Mempool::reset`].
    pub fn place_histogram(&self) -> &LogHistogram {
        &self.place_hist
    }

    /// Submits a fresh arrival: tries to place it now, otherwise
    /// validates (could any profile ever admit it?), checks the
    /// tenant's in-queue quota, and enqueues.
    pub fn submit<M: ThroughputModel + Send + Sync>(
        &mut self,
        fleet: &mut Fleet<M>,
        job: JobSpec,
        now: u64,
    ) -> SubmitOutcome {
        self.stats.submitted += 1;
        if let Some(board) = self.timed_place(fleet, job) {
            self.stats.placed += 1;
            return SubmitOutcome::Placed(board);
        }
        // Validation runs only on the queue path: a job that just
        // placed proved its own admissibility.
        if self.policy.validate && !Self::servable(fleet, job.model) {
            self.stats.rejected += 1;
            return SubmitOutcome::Rejected(RejectReason::Unservable);
        }
        if let Some(quota) = self.policy.tenant_queue_quota {
            if self.tenant_depth(job.tenant) >= quota {
                self.stats.rejected += 1;
                return SubmitOutcome::Rejected(RejectReason::TenantQuota);
            }
        }
        self.enqueue(job, now);
        SubmitOutcome::Queued
    }

    /// Re-submits an evacuee (its board failed or drained): tries to
    /// place it now, otherwise enqueues **unconditionally** — an
    /// already-admitted job is never bounced by validation, quota or a
    /// full pool, or the orchestrator's zero-loss conservation
    /// invariant would break.
    pub fn requeue<M: ThroughputModel + Send + Sync>(
        &mut self,
        fleet: &mut Fleet<M>,
        job: JobSpec,
        now: u64,
    ) -> SubmitOutcome {
        self.stats.requeued += 1;
        if let Some(board) = self.timed_place(fleet, job) {
            self.stats.placed += 1;
            return SubmitOutcome::Placed(board);
        }
        self.enqueue(job, now);
        SubmitOutcome::Queued
    }

    /// Removes a still-waiting job that departed. Returns whether it
    /// was waiting (an O(log n) id-index lookup, not a queue walk).
    pub fn depart(&mut self, job_id: u64) -> bool {
        let Some(seq) = self.by_id.get(&job_id).copied() else {
            return false;
        };
        self.remove_entry(seq);
        self.stats.departed_queued += 1;
        true
    }

    /// Evicts every entry older than the policy's TTL, returning the
    /// expired job ids in arrival order. A no-op when
    /// [`AdmissionPolicy::ttl_ms`] is `None`.
    pub fn expire(&mut self, now: u64) -> Vec<u64> {
        let Some(ttl) = self.policy.ttl_ms else {
            return Vec::new();
        };
        let stale: Vec<u64> = self
            .entries
            .iter()
            .filter(|(_, e)| now.saturating_sub(e.queued_at) >= ttl)
            .map(|(seq, _)| *seq)
            .collect();
        let mut expired = Vec::with_capacity(stale.len());
        for seq in stale {
            let entry = self.entries[&seq];
            expired.push(entry.job.id);
            self.remove_entry(seq);
            self.stats.expired += 1;
        }
        expired
    }

    /// Offers freed capacity to the waiting entries: guaranteed-class
    /// jobs first, then best-effort, each set ordered by
    /// [`AdmissionPolicy::order`] (`tenant_acc` supplies the deficit
    /// key). Only entries whose model some board can admit *right now*
    /// are probed — one admissibility check per model bucket, exact
    /// because capacity never grows mid-drain — and entries inside
    /// their retry backoff window are skipped.
    pub fn drain<M: ThroughputModel + Send + Sync>(
        &mut self,
        fleet: &mut Fleet<M>,
        now: u64,
        tenant_acc: &TenantAccumulator,
    ) -> Vec<Drained> {
        if self.entries.is_empty() {
            return Vec::new();
        }
        // One fleet probe per model with waiting entries (≤ zoo size).
        // Placements only consume capacity, so a model inadmissible
        // here stays inadmissible for the whole drain and its bucket
        // can be skipped without changing any outcome.
        let mut candidates: Vec<(u8, f64, u64)> = Vec::new();
        for bucket in &self.buckets {
            if bucket.seqs.is_empty() || !fleet.can_admit(bucket.weight_bytes) {
                continue;
            }
            for &seq in &bucket.seqs {
                let entry = &self.entries[&seq];
                if entry.not_before > now {
                    continue;
                }
                let class = u8::from(!entry.job.slo.is_guaranteed());
                let deficit = match self.policy.order {
                    QueueOrder::Fifo => 0.0,
                    QueueOrder::TenantDeficit => tenant_acc.attained_integral(entry.job.tenant),
                };
                candidates.push((class, deficit, seq));
            }
        }
        candidates.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.total_cmp(&b.1)).then(a.2.cmp(&b.2)));

        let mut placed = Vec::new();
        for (_, _, seq) in candidates {
            let entry = self.entries[&seq];
            match self.timed_place(fleet, entry.job) {
                Some(board) => {
                    self.remove_entry(seq);
                    self.stats.placed += 1;
                    placed.push(Drained {
                        job: entry.job,
                        queued_at: entry.queued_at,
                        board,
                    });
                }
                None => {
                    self.stats.retries += 1;
                    let entry = self.entries.get_mut(&seq).expect("entry still queued");
                    entry.attempts += 1;
                    if let Some(base) = self.policy.retry_backoff_ms {
                        let exp = (entry.attempts - 1).min(16);
                        let wait = base
                            .saturating_mul(1u64 << exp)
                            .min(self.policy.max_backoff_ms);
                        entry.not_before = now.saturating_add(wait);
                    }
                }
            }
        }
        #[cfg(debug_assertions)]
        self.index_check().expect("mempool indexes diverged");
        placed
    }

    /// Exhaustively validates the id index, the model buckets, the
    /// tenant depths and the conservation counters against the entry
    /// spine — the linear cross-check mirroring `Fleet::index_check`,
    /// asserted after every drain under debug assertions and driven
    /// directly by the mempool proptests.
    pub fn index_check(&self) -> Result<(), String> {
        if self.by_id.len() != self.entries.len() {
            return Err(format!(
                "id index holds {} rows for {} entries",
                self.by_id.len(),
                self.entries.len()
            ));
        }
        let bucketed: usize = self.buckets.iter().map(|b| b.seqs.len()).sum();
        if bucketed != self.entries.len() {
            return Err(format!(
                "{bucketed} bucketed seqs for {} entries",
                self.entries.len()
            ));
        }
        for (seq, entry) in &self.entries {
            if self.by_id.get(&entry.job.id) != Some(seq) {
                return Err(format!("job {} missing from the id index", entry.job.id));
            }
            let Some(bucket) = self.buckets.iter().find(|b| b.model == entry.job.model) else {
                return Err(format!("no bucket for model {:?}", entry.job.model));
            };
            if !bucket.seqs.contains(seq) {
                return Err(format!("seq {seq} missing from its model bucket"));
            }
        }
        let mut depths: HashMap<u32, usize> = HashMap::new();
        for entry in self.entries.values() {
            *depths.entry(entry.job.tenant).or_default() += 1;
        }
        for (tenant, n) in &depths {
            if self.tenant_depth(*tenant) != *n {
                return Err(format!("tenant {tenant} depth stale"));
            }
        }
        if self.tenant_depth.values().sum::<usize>() != self.entries.len() {
            return Err("tenant depths do not sum to the queue length".into());
        }
        let s = &self.stats;
        let intake = s.submitted + s.requeued;
        let outcome = s.placed + s.rejected + s.expired + s.departed_queued + self.entries.len();
        if intake != outcome {
            return Err(format!(
                "conservation broken: {intake} in, {outcome} accounted"
            ));
        }
        Ok(())
    }

    /// Whether any hardware profile in the fleet (active or not — a
    /// board that failed may be rejoined by an identical profile) could
    /// admit one job of `model` on an empty board.
    fn servable<M: ThroughputModel + Sync>(fleet: &Fleet<M>, model: ModelId) -> bool {
        let weight = zoo::build(model).total_weight_bytes();
        let mut seen: Vec<u64> = Vec::new();
        for slot in fleet.slots() {
            let fp = slot.board.fingerprint();
            if seen.contains(&fp) {
                continue;
            }
            seen.push(fp);
            if slot.board.admit_totals(1, weight).is_ok() {
                return true;
            }
        }
        false
    }

    fn enqueue(&mut self, job: JobSpec, now: u64) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.entries.insert(
            seq,
            PoolEntry {
                job,
                queued_at: now,
                attempts: 0,
                not_before: 0,
            },
        );
        self.by_id.insert(job.id, seq);
        *self.tenant_depth.entry(job.tenant).or_default() += 1;
        match self.buckets.iter_mut().find(|b| b.model == job.model) {
            Some(bucket) => {
                bucket.seqs.insert(seq);
            }
            None => self.buckets.push(ModelBucket {
                model: job.model,
                weight_bytes: zoo::build(job.model).total_weight_bytes(),
                seqs: BTreeSet::from([seq]),
            }),
        }
    }

    fn remove_entry(&mut self, seq: u64) {
        let entry = self.entries.remove(&seq).expect("entry exists");
        self.by_id.remove(&entry.job.id);
        if let Some(depth) = self.tenant_depth.get_mut(&entry.job.tenant) {
            *depth -= 1;
            if *depth == 0 {
                self.tenant_depth.remove(&entry.job.tenant);
            }
        }
        if let Some(bucket) = self.buckets.iter_mut().find(|b| b.model == entry.job.model) {
            bucket.seqs.remove(&seq);
        }
    }

    fn timed_place<M: ThroughputModel + Send + Sync>(
        &mut self,
        fleet: &mut Fleet<M>,
        job: JobSpec,
    ) -> Option<usize> {
        let start = std::time::Instant::now();
        let board = fleet.place(job);
        self.place_hist.record(start.elapsed().as_secs_f64() * 1e3);
        board
    }
}
