//! Cross-decision evaluation cache: a bounded, sharded LRU over
//! `(workload fingerprint, mapping) → ThroughputReport`.
//!
//! The per-decision reward memo inside the scheduling environment and the
//! runtime's decision memo both die with their scope: a new `decide` call
//! re-queries the estimator for every mapping it visits, even mappings
//! scored seconds ago for the same recurring workload. [`EvalCache`]
//! closes that gap — it outlives individual decisions, so recurring
//! traffic (the serving scenario) amortizes estimator work across
//! queries. [`CachedEstimator`] wraps any [`ThroughputModel`]
//! (the CNN estimator in production, oracles in ablations) and threads
//! every `evaluate`/`evaluate_batch` through the cache.
//!
//! Design:
//!
//! * **Keyed on content, not identity** — [`Workload::fingerprint`]
//!   (names + layer counts + weight bytes) plus the full [`Mapping`], so
//!   two equal workload values share entries and distinct architectures
//!   under one name do not collide.
//! * **Sharded** — the key hash picks one of [`NUM_SHARDS`] independent
//!   mutex-guarded LRU shards, so concurrent deciders (one scheduler per
//!   board, the daemon's workers) do not serialize on a single cache
//!   lock.
//! * **One hash, one stored key** — the same 64-bit FNV-1a digest picks
//!   the shard and keys its index; the key itself lives once, in the
//!   slab, and a hit is verified against it by reference. A lookup
//!   allocates nothing.
//! * **Bounded** — each shard holds at most `ceil(capacity / NUM_SHARDS)`
//!   entries with least-recently-*used* eviction (lookup hits refresh
//!   recency), implemented as an index-linked list over a slab: O(1)
//!   lookup, insert and eviction, no unsafe.
//! * **Observable** — hit/miss/eviction counters ([`EvalCacheStats`])
//!   surface on `RunOutcome` next to the runtime memo stats.
//!
//! Only successful reports are cached: errors are cheap to recompute,
//! workload-shape errors would be cached forever, and the paper's
//! evaluators are deterministic, so a cached report is exactly what a
//! fresh query would return.

use omniboost_hw::{EvalCacheStats, HwError, Mapping, ThroughputModel, ThroughputReport, Workload};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Number of independent LRU shards (power of two, masks cheaply).
const NUM_SHARDS: usize = 8;

/// Sentinel index for "no entry" in the intrusive LRU list.
const NIL: usize = usize::MAX;

/// One slab slot of a shard's LRU list. The slab is the only place a
/// key is stored: the shard map holds the key's digest.
struct Entry {
    fingerprint: u64,
    mapping: Mapping,
    /// [`key_digest`] of `(fingerprint, mapping)` — the entry's map key,
    /// kept so eviction can drop the map row without re-hashing.
    digest: u64,
    value: ThroughputReport,
    /// Towards more-recently-used.
    prev: usize,
    /// Towards less-recently-used.
    next: usize,
}

impl Entry {
    fn holds(&self, fingerprint: u64, mapping: &Mapping) -> bool {
        self.fingerprint == fingerprint && self.mapping == *mapping
    }
}

/// One mutex-guarded LRU shard: slab + digest index + recency list.
///
/// The index is keyed by the 64-bit [`key_digest`], and every hit is
/// verified against the slab entry's key by reference. Two keys
/// sharing a digest share one slot: the lookup of the other key is a
/// miss and its insert replaces the occupant — a collision costs a
/// re-evaluation, never a wrong report.
struct Shard {
    map: HashMap<u64, usize>,
    slab: Vec<Entry>,
    /// Most-recently-used entry, or [`NIL`] when empty.
    head: usize,
    /// Least-recently-used entry, or [`NIL`] when empty.
    tail: usize,
    capacity: usize,
}

impl Shard {
    fn new(capacity: usize) -> Self {
        Self {
            map: HashMap::with_capacity(capacity),
            slab: Vec::with_capacity(capacity),
            head: NIL,
            tail: NIL,
            capacity,
        }
    }

    /// Unlinks `i` from the recency list (it must be linked).
    fn unlink(&mut self, i: usize) {
        let (prev, next) = (self.slab[i].prev, self.slab[i].next);
        if prev == NIL {
            self.head = next;
        } else {
            self.slab[prev].next = next;
        }
        if next == NIL {
            self.tail = prev;
        } else {
            self.slab[next].prev = prev;
        }
    }

    /// Links `i` at the most-recently-used end.
    fn link_front(&mut self, i: usize) {
        self.slab[i].prev = NIL;
        self.slab[i].next = self.head;
        if self.head != NIL {
            self.slab[self.head].prev = i;
        }
        self.head = i;
        if self.tail == NIL {
            self.tail = i;
        }
    }

    fn get(
        &mut self,
        digest: u64,
        fingerprint: u64,
        mapping: &Mapping,
    ) -> Option<ThroughputReport> {
        let i = *self.map.get(&digest)?;
        if !self.slab[i].holds(fingerprint, mapping) {
            return None;
        }
        self.unlink(i);
        self.link_front(i);
        Some(self.slab[i].value.clone())
    }

    /// Inserts (or refreshes) an entry, cloning the mapping only when a
    /// slot actually takes it; returns whether another entry was
    /// displaced to make room.
    fn insert(
        &mut self,
        digest: u64,
        fingerprint: u64,
        mapping: &Mapping,
        value: ThroughputReport,
    ) -> bool {
        if let Some(&i) = self.map.get(&digest) {
            let collision = !self.slab[i].holds(fingerprint, mapping);
            if collision {
                self.slab[i].fingerprint = fingerprint;
                self.slab[i].mapping = mapping.clone();
            }
            self.slab[i].value = value;
            self.unlink(i);
            self.link_front(i);
            return collision;
        }
        let entry = Entry {
            fingerprint,
            mapping: mapping.clone(),
            digest,
            value,
            prev: NIL,
            next: NIL,
        };
        let evicted = self.slab.len() >= self.capacity;
        let slot = if evicted {
            // Recycle the least-recently-used slot in place.
            let lru = self.tail;
            self.unlink(lru);
            self.map.remove(&self.slab[lru].digest);
            self.slab[lru] = entry;
            lru
        } else {
            self.slab.push(entry);
            self.slab.len() - 1
        };
        self.map.insert(digest, slot);
        self.link_front(slot);
        evicted
    }
}

/// FNV-1a over `(fingerprint, mapping)`: its low bits pick the shard
/// and the whole digest keys the shard's index. Stable across
/// processes, and computed from borrowed halves so a lookup never
/// builds an owned key.
fn key_digest(fingerprint: u64, mapping: &Mapping) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = omniboost_hw::Fnv1a::default();
    fingerprint.hash(&mut h);
    mapping.hash(&mut h);
    h.finish()
}

/// Bounded, sharded, cross-decision LRU cache of evaluator reports.
///
/// Thread-safe behind `&self`; see the module docs for the design.
/// A `capacity` of 0 disables the cache entirely (every lookup misses
/// without being counted, nothing is stored) so a single code path can
/// serve both cached and uncached configurations.
pub struct EvalCache {
    shards: Vec<Mutex<Shard>>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl std::fmt::Debug for EvalCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EvalCache")
            .field("capacity", &self.capacity)
            .field("len", &self.len())
            .field("stats", &self.stats())
            .finish()
    }
}

impl EvalCache {
    /// Creates a cache holding at most `capacity` reports (rounded up to
    /// a multiple of the shard count; 0 disables caching).
    pub fn new(capacity: usize) -> Self {
        let per_shard = capacity.div_ceil(NUM_SHARDS);
        let shards = (0..NUM_SHARDS)
            .map(|_| Mutex::new(Shard::new(per_shard)))
            .collect();
        Self {
            shards,
            capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Configured capacity bound (0 = disabled).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Whether the cache is a no-op (capacity 0).
    pub fn is_disabled(&self) -> bool {
        self.capacity == 0
    }

    /// Number of cached reports across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().map.len()).sum()
    }

    /// Whether no reports are cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Cumulative hit/miss/eviction counters.
    pub fn stats(&self) -> EvalCacheStats {
        EvalCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }

    /// Drops every cached report (counters are preserved). Call after
    /// retraining the wrapped estimator.
    pub fn clear(&self) {
        for shard in &self.shards {
            let mut s = shard.lock();
            s.map.clear();
            s.slab.clear();
            s.head = NIL;
            s.tail = NIL;
        }
    }

    /// The shard a digest lives on.
    fn shard(&self, digest: u64) -> &Mutex<Shard> {
        &self.shards[(digest as usize) & (NUM_SHARDS - 1)]
    }

    /// Cached report for a (fingerprint, mapping) pair, refreshing its
    /// recency. Counts a hit or a miss (disabled caches count nothing).
    pub fn get(&self, fingerprint: u64, mapping: &Mapping) -> Option<ThroughputReport> {
        if self.is_disabled() {
            return None;
        }
        let digest = key_digest(fingerprint, mapping);
        let found = self.shard(digest).lock().get(digest, fingerprint, mapping);
        match &found {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    /// Stores a report (no-op when disabled), evicting the shard's
    /// least-recently-used entry if it is full.
    pub fn insert(&self, fingerprint: u64, mapping: &Mapping, report: ThroughputReport) {
        if self.is_disabled() {
            return;
        }
        let digest = key_digest(fingerprint, mapping);
        let evicted = self
            .shard(digest)
            .lock()
            .insert(digest, fingerprint, mapping, report);
        if evicted {
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Snapshot of every cached entry, **least-recently-used first** (per
    /// shard, shards concatenated) — replaying the snapshot through
    /// [`EvalCache::insert`] reproduces the recency order, which is what
    /// persistence ([`crate::BoardScopedCache::save`]) relies on.
    pub fn entries_lru_first(&self) -> Vec<(u64, Mapping, ThroughputReport)> {
        let mut out = Vec::with_capacity(self.len());
        for shard in &self.shards {
            let s = shard.lock();
            let mut i = s.tail;
            while i != NIL {
                let e = &s.slab[i];
                out.push((e.fingerprint, e.mapping.clone(), e.value.clone()));
                i = e.prev;
            }
        }
        out
    }

    /// Copies every entry of `other` into this cache, in
    /// [`EvalCache::entries_lru_first`] order (recency preserved,
    /// capacity bound enforced by normal eviction) — the in-memory warm
    /// boot of a scheduler coming up next to a cache of its profile, and
    /// the per-profile merge before persisting. A key's digest picks the
    /// same shard in both caches, so each shard pair is locked once and
    /// every entry is cloned once, straight from slab to slab.
    pub fn absorb(&self, other: &EvalCache) {
        if self.is_disabled() || std::ptr::eq(self, other) {
            return;
        }
        let mut evicted = 0u64;
        for (mine, theirs) in self.shards.iter().zip(&other.shards) {
            let (mut mine, theirs) = (mine.lock(), theirs.lock());
            let mut i = theirs.tail;
            while i != NIL {
                let e = &theirs.slab[i];
                evicted +=
                    u64::from(mine.insert(e.digest, e.fingerprint, &e.mapping, e.value.clone()));
                i = e.prev;
            }
        }
        self.evictions.fetch_add(evicted, Ordering::Relaxed);
    }
}

/// A [`ThroughputModel`] that answers repeat queries from an
/// [`EvalCache`] and forwards the rest to the wrapped model.
///
/// Borrowing both halves keeps the wrapper free to construct per
/// decision while the cache (and its contents) persist across decisions:
///
/// ```
/// use omniboost_estimator::{CachedEstimator, EvalCache};
/// use omniboost_hw::{AnalyticModel, Board, Device, Mapping, ThroughputModel, Workload};
/// use omniboost_models::ModelId;
///
/// let model = AnalyticModel::new(Board::hikey970());
/// let cache = EvalCache::new(1024);
/// let cached = CachedEstimator::new(&model, &cache);
/// let w = Workload::from_ids([ModelId::AlexNet]);
/// let m = Mapping::all_on(&w, Device::Gpu);
/// let first = cached.evaluate(&w, &m)?;          // miss: queries the model
/// let second = cached.evaluate(&w, &m)?;         // hit: answered from cache
/// assert_eq!(first, second);
/// assert_eq!(cache.stats().hits, 1);
/// # Ok::<(), omniboost_hw::HwError>(())
/// ```
pub struct CachedEstimator<'c, M> {
    inner: M,
    cache: &'c EvalCache,
}

impl<'c, M: ThroughputModel> CachedEstimator<'c, M> {
    /// Wraps a model with a cache.
    pub fn new(inner: M, cache: &'c EvalCache) -> Self {
        Self { inner, cache }
    }

    /// The wrapped model.
    pub fn inner(&self) -> &M {
        &self.inner
    }

    /// The backing cache.
    pub fn cache(&self) -> &EvalCache {
        self.cache
    }
}

impl<M: ThroughputModel> ThroughputModel for CachedEstimator<'_, M> {
    fn evaluate(
        &self,
        workload: &Workload,
        mapping: &Mapping,
    ) -> Result<ThroughputReport, HwError> {
        let fp = workload.fingerprint();
        if let Some(report) = self.cache.get(fp, mapping) {
            return Ok(report);
        }
        let result = self.inner.evaluate(workload, mapping);
        if let Ok(report) = &result {
            self.cache.insert(fp, mapping, report.clone());
        }
        result
    }

    /// Splits the batch into cache hits and misses, forwards the misses
    /// as **one** inner `evaluate_batch` call (preserving the wrapped
    /// model's amortization), and stores the fresh reports.
    fn evaluate_batch(
        &self,
        workload: &Workload,
        mappings: &[Mapping],
    ) -> Vec<Result<ThroughputReport, HwError>> {
        let fp = workload.fingerprint();
        let mut out: Vec<Option<Result<ThroughputReport, HwError>>> = mappings
            .iter()
            .map(|m| self.cache.get(fp, m).map(Ok))
            .collect();
        let miss_idx: Vec<usize> = (0..mappings.len()).filter(|i| out[*i].is_none()).collect();
        if !miss_idx.is_empty() {
            let miss_mappings: Vec<Mapping> =
                miss_idx.iter().map(|&i| mappings[i].clone()).collect();
            let fresh = self.inner.evaluate_batch(workload, &miss_mappings);
            for (&i, result) in miss_idx.iter().zip(fresh) {
                if let Ok(report) = &result {
                    self.cache.insert(fp, &mappings[i], report.clone());
                }
                out[i] = Some(result);
            }
        }
        out.into_iter()
            .map(|slot| slot.expect("every batch slot is filled"))
            .collect()
    }

    fn model_name(&self) -> &str {
        self.inner.model_name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omniboost_hw::{AnalyticModel, Board, Device};
    use omniboost_models::ModelId;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::atomic::AtomicUsize;

    /// Counts every mapping that reaches the wrapped model.
    struct Counting<M> {
        inner: M,
        queries: AtomicUsize,
    }

    impl<M> Counting<M> {
        fn new(inner: M) -> Self {
            Self {
                inner,
                queries: AtomicUsize::new(0),
            }
        }

        fn queries(&self) -> usize {
            self.queries.load(Ordering::Relaxed)
        }
    }

    impl<M: ThroughputModel> ThroughputModel for Counting<M> {
        fn evaluate(
            &self,
            workload: &Workload,
            mapping: &Mapping,
        ) -> Result<ThroughputReport, HwError> {
            self.queries.fetch_add(1, Ordering::Relaxed);
            self.inner.evaluate(workload, mapping)
        }

        fn evaluate_batch(
            &self,
            workload: &Workload,
            mappings: &[Mapping],
        ) -> Vec<Result<ThroughputReport, HwError>> {
            self.queries.fetch_add(mappings.len(), Ordering::Relaxed);
            self.inner.evaluate_batch(workload, mappings)
        }
    }

    fn setup() -> (Workload, Counting<AnalyticModel>) {
        let board = Board::hikey970();
        let w = Workload::from_ids([ModelId::AlexNet, ModelId::SqueezeNet]);
        (w, Counting::new(AnalyticModel::new(board)))
    }

    #[test]
    fn repeat_evaluations_hit_the_cache() {
        let (w, model) = setup();
        let cache = EvalCache::new(64);
        let cached = CachedEstimator::new(&model, &cache);
        let m = Mapping::all_on(&w, Device::Gpu);
        let a = cached.evaluate(&w, &m).unwrap();
        let b = cached.evaluate(&w, &m).unwrap();
        assert_eq!(a, b);
        assert_eq!(model.queries(), 1, "second query must not reach the model");
        assert_eq!(
            cache.stats(),
            EvalCacheStats {
                hits: 1,
                misses: 1,
                evictions: 0
            }
        );
    }

    #[test]
    fn batch_path_matches_scalar_and_reuses_entries() {
        let (w, model) = setup();
        let cache = EvalCache::new(128);
        let cached = CachedEstimator::new(&model, &cache);
        let mut rng = StdRng::seed_from_u64(5);
        let mappings: Vec<Mapping> = (0..10).map(|_| Mapping::random(&w, 3, &mut rng)).collect();
        // Warm half the cache through the scalar path.
        for m in &mappings[..5] {
            cached.evaluate(&w, m).unwrap();
        }
        assert_eq!(model.queries(), 5);
        let batch = cached.evaluate_batch(&w, &mappings);
        // Only the cold half reached the model.
        assert_eq!(model.queries(), 10);
        for (m, b) in mappings.iter().zip(batch) {
            assert_eq!(model.inner.evaluate(&w, m).unwrap(), b.unwrap());
        }
    }

    #[test]
    fn batch_errors_pass_through_uncached() {
        let (w, model) = setup();
        let cache = EvalCache::new(16);
        let cached = CachedEstimator::new(&model, &cache);
        let good = Mapping::all_on(&w, Device::Gpu);
        let bad = Mapping::new(vec![vec![Device::Gpu; 2]]);
        let out = cached.evaluate_batch(&w, &[good.clone(), bad.clone()]);
        assert!(out[0].is_ok());
        assert!(out[1].is_err());
        // Errors are not cached: the bad mapping re-queries (and fails)
        // again, the good one hits.
        let before = model.queries();
        let again = cached.evaluate_batch(&w, &[good, bad]);
        assert!(again[0].is_ok());
        assert!(again[1].is_err());
        assert_eq!(model.queries(), before + 1);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        // Single-entry-per-shard capacity forces evictions quickly; use a
        // tiny capacity and verify the use-order (not insert-order) rule
        // on one shard by using one workload and probing recency.
        let (w, model) = setup();
        let cache = EvalCache::new(NUM_SHARDS); // one slot per shard
        let cached = CachedEstimator::new(&model, &cache);
        let mut rng = StdRng::seed_from_u64(9);
        // Find two mappings living on the same shard.
        let fp = w.fingerprint();
        let mut same_shard: Vec<Mapping> = Vec::new();
        while same_shard.len() < 3 {
            let m = Mapping::random(&w, 3, &mut rng);
            if (same_shard.is_empty()
                || key_digest(fp, &m) % NUM_SHARDS as u64
                    == key_digest(fp, &same_shard[0]) % NUM_SHARDS as u64)
                && !same_shard.contains(&m)
            {
                same_shard.push(m);
            }
        }
        let (a, b, c) = (&same_shard[0], &same_shard[1], &same_shard[2]);
        cached.evaluate(&w, a).unwrap(); // cache: [a]
        cached.evaluate(&w, b).unwrap(); // evicts a -> [b]
        assert_eq!(cache.stats().evictions, 1);
        let before = model.queries();
        cached.evaluate(&w, b).unwrap(); // hit
        assert_eq!(model.queries(), before, "b must still be cached");
        cached.evaluate(&w, c).unwrap(); // evicts b -> [c]
        cached.evaluate(&w, a).unwrap(); // miss again (was evicted first)
        assert_eq!(model.queries(), before + 2);
    }

    #[test]
    fn lru_refresh_on_hit_changes_eviction_order() {
        // Direct shard-level check of the recency rule: insert a, b;
        // touch a; insert c. The LRU is now b, not a.
        let mut shard = Shard::new(2);
        let (w, model) = setup();
        let report = model
            .inner
            .evaluate(&w, &Mapping::all_on(&w, Device::Gpu))
            .unwrap();
        let m = Mapping::all_on(&w, Device::Gpu);
        let insert =
            |shard: &mut Shard, fp: u64| shard.insert(key_digest(fp, &m), fp, &m, report.clone());
        let get = |shard: &mut Shard, fp: u64| shard.get(key_digest(fp, &m), fp, &m);
        insert(&mut shard, 1);
        insert(&mut shard, 2);
        assert!(get(&mut shard, 1).is_some(), "refresh 1");
        assert!(insert(&mut shard, 3), "must evict");
        assert!(get(&mut shard, 1).is_some(), "1 was refreshed, kept");
        assert!(get(&mut shard, 2).is_none(), "2 was LRU, evicted");
        assert!(get(&mut shard, 3).is_some());
    }

    #[test]
    fn digest_collision_is_a_miss_and_the_newcomer_replaces_the_occupant() {
        // Two distinct keys forced onto one digest: the shard must never
        // answer one key with the other's report.
        let (w, model) = setup();
        let (a, b) = (
            Mapping::all_on(&w, Device::Gpu),
            Mapping::all_on(&w, Device::BigCpu),
        );
        let report_a = model.inner.evaluate(&w, &a).unwrap();
        let report_b = model.inner.evaluate(&w, &b).unwrap();
        assert_ne!(report_a, report_b);
        let mut shard = Shard::new(4);
        let digest = 42;
        assert!(!shard.insert(digest, 1, &a, report_a.clone()));
        assert_eq!(shard.get(digest, 1, &b), None, "collision must miss");
        assert_eq!(shard.get(digest, 2, &a), None, "fingerprint is key too");
        assert!(
            shard.insert(digest, 1, &b, report_b.clone()),
            "the occupant is displaced"
        );
        assert_eq!(shard.get(digest, 1, &b), Some(report_b));
        assert_eq!(shard.get(digest, 1, &a), None);
        assert_eq!((shard.map.len(), shard.slab.len()), (1, 1));
    }

    #[test]
    fn absorb_equals_replaying_the_snapshot_through_insert() {
        let (w, model) = setup();
        let fp = w.fingerprint();
        let mut rng = StdRng::seed_from_u64(13);
        let source = EvalCache::new(64);
        for _ in 0..48 {
            let m = Mapping::random(&w, 3, &mut rng);
            source.insert(fp, &m, model.inner.evaluate(&w, &m).unwrap());
        }
        // Refresh a few entries so recency differs from insertion order.
        for (fp, m, _) in source.entries_lru_first().into_iter().step_by(5) {
            assert!(source.get(fp, &m).is_some());
        }
        // Roomy target, then one small enough to evict while absorbing.
        for capacity in [64, 16] {
            let absorbed = EvalCache::new(capacity);
            absorbed.absorb(&source);
            let replayed = EvalCache::new(capacity);
            for (fp, m, report) in source.entries_lru_first() {
                replayed.insert(fp, &m, report);
            }
            assert_eq!(absorbed.entries_lru_first(), replayed.entries_lru_first());
            assert_eq!(absorbed.stats(), replayed.stats());
        }
        // A disabled target stays empty.
        let disabled = EvalCache::new(0);
        disabled.absorb(&source);
        assert!(disabled.is_empty());
    }

    #[test]
    fn capacity_zero_disables_the_cache() {
        let (w, model) = setup();
        let cache = EvalCache::new(0);
        assert!(cache.is_disabled());
        let cached = CachedEstimator::new(&model, &cache);
        let m = Mapping::all_on(&w, Device::Gpu);
        cached.evaluate(&w, &m).unwrap();
        cached.evaluate(&w, &m).unwrap();
        assert_eq!(model.queries(), 2, "disabled cache must not answer");
        assert_eq!(cache.stats(), EvalCacheStats::default());
        assert!(cache.is_empty());
    }

    #[test]
    fn distinct_workloads_do_not_collide() {
        let board = Board::hikey970();
        let model = Counting::new(AnalyticModel::new(board));
        let cache = EvalCache::new(64);
        let cached = CachedEstimator::new(&model, &cache);
        let w1 = Workload::from_ids([ModelId::AlexNet]);
        let w2 = Workload::from_ids([ModelId::MobileNet]);
        let m1 = Mapping::all_on(&w1, Device::Gpu);
        let m2 = Mapping::all_on(&w2, Device::Gpu);
        let r1 = cached.evaluate(&w1, &m1).unwrap();
        let r2 = cached.evaluate(&w2, &m2).unwrap();
        assert_ne!(r1, r2);
        // Same-shape mappings under different workloads stay separate.
        assert_eq!(cached.evaluate(&w1, &m1).unwrap(), r1);
        assert_eq!(cached.evaluate(&w2, &m2).unwrap(), r2);
        assert_eq!(cache.stats().hits, 2);
        assert_eq!(cache.stats().misses, 2);
    }

    #[test]
    fn clear_drops_entries_but_keeps_counters() {
        let (w, model) = setup();
        let cache = EvalCache::new(32);
        let cached = CachedEstimator::new(&model, &cache);
        let m = Mapping::all_on(&w, Device::BigCpu);
        cached.evaluate(&w, &m).unwrap();
        assert_eq!(cache.len(), 1);
        cache.clear();
        assert!(cache.is_empty());
        cached.evaluate(&w, &m).unwrap();
        assert_eq!(model.queries(), 2);
        assert_eq!(cache.stats().misses, 2);
    }

    #[test]
    fn concurrent_access_is_safe_and_coherent() {
        let (w, model) = setup();
        let cache = EvalCache::new(256);
        let cached = CachedEstimator::new(&model, &cache);
        let mut rng = StdRng::seed_from_u64(31);
        let mappings: Vec<Mapping> = (0..16).map(|_| Mapping::random(&w, 3, &mut rng)).collect();
        let expected: Vec<ThroughputReport> = mappings
            .iter()
            .map(|m| model.inner.evaluate(&w, m).unwrap())
            .collect();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for (m, want) in mappings.iter().zip(&expected) {
                        assert_eq!(&cached.evaluate(&w, m).unwrap(), want);
                    }
                });
            }
        });
        let stats = cache.stats();
        assert_eq!(stats.hits + stats.misses, 64);
        assert!(stats.misses >= 16);
    }
}
