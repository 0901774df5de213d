//! The admission mempool: the one validated, class-aware intake path
//! shared by the serving runtime and the orchestrator. It is one fixed
//! queue; nothing about it is configured.
//!
//! * **Validate on submit** — a job whose model no hardware profile in
//!   the fleet could admit *even on an empty board* is rejected
//!   immediately ([`SubmitOutcome::Rejected`]) instead of waiting
//!   forever.
//! * **Guaranteed first, then arrival order** —
//!   [`SloClass::Guaranteed`](omniboost_models::SloClass::Guaranteed)
//!   entries jump the queue ahead of best-effort work on every drain
//!   (and placement prefers boards whose projected load honors the
//!   floor — see [`crate::Fleet::place`]); within a class, entries
//!   drain in arrival order.
//! * **Indexed drains** — entries are bucketed per model, so a drain
//!   probes fleet admissibility once per *model* (≤ the zoo size, not
//!   the queue length) and walks only the entries some board could
//!   actually admit. Capacity only shrinks while a drain places jobs,
//!   so a model inadmissible at drain start stays inadmissible for the
//!   whole drain — skipping its bucket is exact, not heuristic.

use crate::fleet::Fleet;
use omniboost_hw::ThroughputModel;
use omniboost_models::{zoo, JobSpec, ModelId};
use omniboost_telemetry::LogHistogram;
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// What [`Mempool::submit`] did with the job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitOutcome {
    /// Placed immediately on this board.
    Placed(usize),
    /// No board could admit it right now; it waits in the pool.
    Queued,
    /// Refused: no hardware profile in the fleet could admit the job's
    /// model even on an empty board, so it never enters the pool.
    Rejected,
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
/// Conservation — `submitted + requeued == placed + rejected +
/// departed_queued + in-queue` — holds at every step and is checked by
/// [`Mempool::index_check`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MempoolStats {
    /// [`Mempool::submit`] calls.
    pub submitted: usize,
    /// [`Mempool::requeue`] calls (evacuees re-entering).
    pub requeued: usize,
    /// Jobs placed on a board (immediately or by a drain).
    pub placed: usize,
    /// Submits refused as unservable.
    pub rejected: usize,
    /// Always 0: the pool evicts nothing. Kept because perfbench's
    /// daemon workload still adds it into its conservation check.
    pub expired: usize,
    /// Entries removed because the job departed while still waiting.
    pub departed_queued: usize,
    /// Failed drain attempts (an entry probed by a drain that still fit
    /// nowhere). Not part of the conservation identity: a retried entry
    /// stays queued.
    pub retries: usize,
}

/// One waiting job.
#[derive(Debug, Clone, Copy)]
struct PoolEntry {
    job: JobSpec,
    queued_at: u64,
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

/// The shared admission mempool. See the module docs for the drain
/// order.
#[derive(Debug, Default)]
pub struct Mempool {
    /// Waiting entries by admission sequence number — the FIFO spine
    /// (BTreeMap iteration *is* arrival order).
    entries: BTreeMap<u64, PoolEntry>,
    /// Job id → sequence number: O(log n) departures of queued jobs.
    by_id: HashMap<u64, u64>,
    /// Per-model buckets (linear `Vec` — the zoo holds 11 models — so
    /// drain iteration order is deterministic).
    buckets: Vec<ModelBucket>,
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
    /// An empty pool.
    pub fn new() -> Self {
        Self::default()
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

    /// The waiting jobs in arrival order.
    pub fn queued_jobs(&self) -> Vec<JobSpec> {
        self.entries.values().map(|e| e.job).collect()
    }

    /// Empties the pool and resets every counter — a sim run starts
    /// from a clean intake.
    pub fn reset(&mut self) {
        self.entries.clear();
        self.by_id.clear();
        self.buckets.clear();
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
    /// validates (could any profile ever admit it?) and enqueues.
    pub fn submit<M: ThroughputModel>(
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
        if !Self::servable(fleet, job.model) {
            self.stats.rejected += 1;
            return SubmitOutcome::Rejected;
        }
        self.enqueue(job, now);
        SubmitOutcome::Queued
    }

    /// Re-submits an evacuee (its board failed or drained): tries to
    /// place it now, otherwise enqueues **unconditionally** — an
    /// already-admitted job is never bounced by validation, or the
    /// orchestrator's zero-loss conservation invariant would break.
    pub fn requeue<M: ThroughputModel>(
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

    /// Offers freed capacity to the waiting entries: guaranteed-class
    /// jobs first, then best-effort, each in arrival order. Only entries
    /// whose model some board can admit *right now* are probed — one
    /// admissibility check per model bucket, exact because capacity
    /// never grows mid-drain.
    pub fn drain<M: ThroughputModel>(&mut self, fleet: &mut Fleet<M>) -> Vec<Drained> {
        if self.entries.is_empty() {
            return Vec::new();
        }
        // One fleet probe per model with waiting entries (≤ zoo size).
        // Placements only consume capacity, so a model inadmissible
        // here stays inadmissible for the whole drain and its bucket
        // can be skipped without changing any outcome.
        let mut candidates: Vec<(u8, u64)> = Vec::new();
        for bucket in &self.buckets {
            if bucket.seqs.is_empty() || !fleet.can_admit(bucket.weight_bytes) {
                continue;
            }
            for &seq in &bucket.seqs {
                let class = u8::from(!self.entries[&seq].job.slo.is_guaranteed());
                candidates.push((class, seq));
            }
        }
        candidates.sort_unstable();

        let mut placed = Vec::new();
        for (_, seq) in candidates {
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
                None => self.stats.retries += 1,
            }
        }
        #[cfg(debug_assertions)]
        self.index_check().expect("mempool indexes diverged");
        placed
    }

    /// Exhaustively validates the id index, the model buckets and the
    /// conservation counters against the entry spine — a linear
    /// cross-check, asserted after every drain under debug assertions
    /// and driven directly by the mempool proptests.
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
        let s = &self.stats;
        let intake = s.submitted + s.requeued;
        let outcome = s.placed + s.rejected + s.departed_queued + self.entries.len();
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
    fn servable<M: ThroughputModel>(fleet: &Fleet<M>, model: ModelId) -> bool {
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
            },
        );
        self.by_id.insert(job.id, seq);
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
        if let Some(bucket) = self.buckets.iter_mut().find(|b| b.model == entry.job.model) {
            bucket.seqs.remove(&seq);
        }
    }

    fn timed_place<M: ThroughputModel>(
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
