//! Cross-decision evaluation cache: a bounded LRU over
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
//! * **One owner** — a cache belongs to one scheduler, and every
//!   decision runs on one thread, so the LRU sits in a `RefCell` and
//!   the counters in `Cell`s. The type is `!Sync`: sharing one across
//!   threads is a compile error, not a silent serialization.
//! * **One hash, one stored key** — a 64-bit FNV-1a digest keys the
//!   index; the key itself lives once, in the slab, and a hit is
//!   verified against it by reference. A lookup allocates nothing.
//! * **Bounded** — at most `capacity` entries with
//!   least-recently-*used* eviction (lookup hits refresh recency),
//!   implemented as an index-linked list over a slab: O(1) lookup,
//!   insert and eviction, no unsafe.
//! * **Observable** — hit/miss/eviction counters ([`EvalCacheStats`])
//!   surface on `RunOutcome` next to the runtime memo stats.
//! * **No copies on a cold batch** — [`CachedEstimator::evaluate_batch`]
//!   forwards an all-miss batch (most of a cold search's) to the wrapped
//!   model as the caller's own slice; only a partial hit gathers its
//!   misses into a new vector.
//!
//! Only successful reports are cached: errors are cheap to recompute,
//! workload-shape errors would be cached forever, and the paper's
//! evaluators are deterministic, so a cached report is exactly what a
//! fresh query would return.

use omniboost_hw::{EvalCacheStats, HwError, Mapping, ThroughputModel, ThroughputReport, Workload};
use std::cell::{Cell, RefCell};
use std::collections::HashMap;

/// Sentinel index for "no entry" in the intrusive LRU list.
const NIL: usize = usize::MAX;

/// One slab slot of the LRU list. The slab is the only place a key is
/// stored: the map holds the key's digest.
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

/// The LRU itself: slab + digest index + recency list.
///
/// The index is keyed by the 64-bit [`key_digest`], and every hit is
/// verified against the slab entry's key by reference. Two keys
/// sharing a digest share one slot: the lookup of the other key is a
/// miss and its insert replaces the occupant — a collision costs a
/// re-evaluation, never a wrong report.
struct Lru {
    map: HashMap<u64, usize>,
    slab: Vec<Entry>,
    /// Most-recently-used entry, or [`NIL`] when empty.
    head: usize,
    /// Least-recently-used entry, or [`NIL`] when empty.
    tail: usize,
    capacity: usize,
}

impl Lru {
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

    /// Every entry, least-recently-used first.
    #[cfg(test)]
    fn lru_first(&self) -> impl Iterator<Item = &Entry> {
        std::iter::successors((self.tail != NIL).then(|| &self.slab[self.tail]), |e| {
            (e.prev != NIL).then(|| &self.slab[e.prev])
        })
    }
}

/// FNV-1a over `(fingerprint, mapping)`: the digest keys the LRU's
/// index. Stable across processes, and computed from borrowed halves so
/// a lookup never builds an owned key.
fn key_digest(fingerprint: u64, mapping: &Mapping) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = omniboost_hw::Fnv1a::default();
    fingerprint.hash(&mut h);
    mapping.hash(&mut h);
    h.finish()
}

/// Bounded, cross-decision LRU cache of evaluator reports.
///
/// Queried through `&self` by its one owner; see the module docs for
/// the design. A `capacity` of 0 disables the cache entirely (every
/// lookup misses without being counted, nothing is stored) so a single
/// code path can serve both cached and uncached configurations.
pub struct EvalCache {
    lru: RefCell<Lru>,
    capacity: usize,
    hits: Cell<u64>,
    misses: Cell<u64>,
    evictions: Cell<u64>,
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
    /// Creates a cache holding at most `capacity` reports (0 disables
    /// caching).
    pub fn new(capacity: usize) -> Self {
        Self {
            lru: RefCell::new(Lru::new(capacity)),
            capacity,
            hits: Cell::new(0),
            misses: Cell::new(0),
            evictions: Cell::new(0),
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

    /// Number of cached reports (never more than the capacity).
    pub fn len(&self) -> usize {
        self.lru.borrow().map.len()
    }

    /// Whether no reports are cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Cumulative hit/miss/eviction counters.
    pub fn stats(&self) -> EvalCacheStats {
        EvalCacheStats {
            hits: self.hits.get(),
            misses: self.misses.get(),
            evictions: self.evictions.get(),
        }
    }

    /// Drops every cached report (counters are preserved). Call after
    /// retraining the wrapped estimator.
    pub fn clear(&self) {
        *self.lru.borrow_mut() = Lru::new(self.capacity);
    }

    /// Cached report for a (fingerprint, mapping) pair, refreshing its
    /// recency. Counts a hit or a miss (disabled caches count nothing).
    pub fn get(&self, fingerprint: u64, mapping: &Mapping) -> Option<ThroughputReport> {
        if self.is_disabled() {
            return None;
        }
        let digest = key_digest(fingerprint, mapping);
        let found = self.lru.borrow_mut().get(digest, fingerprint, mapping);
        let counter = if found.is_some() {
            &self.hits
        } else {
            &self.misses
        };
        counter.set(counter.get() + 1);
        found
    }

    /// Stores a report (no-op when disabled), evicting the
    /// least-recently-used entry if the cache is full.
    pub fn insert(&self, fingerprint: u64, mapping: &Mapping, report: ThroughputReport) {
        if self.is_disabled() {
            return;
        }
        let digest = key_digest(fingerprint, mapping);
        let evicted = self
            .lru
            .borrow_mut()
            .insert(digest, fingerprint, mapping, report);
        self.evictions
            .set(self.evictions.get() + u64::from(evicted));
    }

    /// Snapshot of every cached entry, **least-recently-used first**.
    #[cfg(test)]
    pub fn entries_lru_first(&self) -> Vec<(u64, Mapping, ThroughputReport)> {
        self.lru
            .borrow()
            .lru_first()
            .map(|e| (e.fingerprint, e.mapping.clone(), e.value.clone()))
            .collect()
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
    /// model's amortization), and stores the fresh reports. An all-miss
    /// batch is forwarded as the caller's slice; only a partial hit
    /// copies its misses out.
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
            let fresh = if miss_idx.len() == mappings.len() {
                self.inner.evaluate_batch(workload, mappings)
            } else {
                let misses: Vec<Mapping> = miss_idx.iter().map(|&i| mappings[i].clone()).collect();
                self.inner.evaluate_batch(workload, &misses)
            };
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

    /// Counts every mapping that reaches the wrapped model.
    struct Counting<M> {
        inner: M,
        queries: Cell<usize>,
    }

    impl<M> Counting<M> {
        fn new(inner: M) -> Self {
            Self {
                inner,
                queries: Cell::new(0),
            }
        }

        fn queries(&self) -> usize {
            self.queries.get()
        }
    }

    impl<M: ThroughputModel> ThroughputModel for Counting<M> {
        fn evaluate(
            &self,
            workload: &Workload,
            mapping: &Mapping,
        ) -> Result<ThroughputReport, HwError> {
            self.queries.set(self.queries.get() + 1);
            self.inner.evaluate(workload, mapping)
        }

        fn evaluate_batch(
            &self,
            workload: &Workload,
            mappings: &[Mapping],
        ) -> Vec<Result<ThroughputReport, HwError>> {
            self.queries.set(self.queries.get() + mappings.len());
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
    fn all_miss_partial_hit_and_all_hit_batches_equal_the_uncached_model() {
        let (w, model) = setup();
        let cache = EvalCache::new(128);
        let cached = CachedEstimator::new(&model, &cache);
        let mut rng = StdRng::seed_from_u64(17);
        let mappings: Vec<Mapping> = (0..12).map(|_| Mapping::random(&w, 3, &mut rng)).collect();
        let uncached = model.inner.evaluate_batch(&w, &mappings);
        // All miss: forwarded as the caller's slice.
        assert_eq!(cached.evaluate_batch(&w, &mappings[..6]), uncached[..6]);
        assert_eq!(model.queries(), 6);
        // Partial hit: only the cold half reaches the model.
        assert_eq!(cached.evaluate_batch(&w, &mappings), uncached);
        assert_eq!(model.queries(), 12);
        // All hit: nothing does.
        assert_eq!(cached.evaluate_batch(&w, &mappings), uncached);
        assert_eq!(model.queries(), 12);
        assert_eq!(
            cache.stats(),
            EvalCacheStats {
                hits: 6 + 12,
                misses: 6 + 6,
                evictions: 0
            }
        );
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
        // The bound is exact: a cache of 8 holds 8 distinct keys without
        // evicting, and the 9th evicts exactly the least-recently-used
        // one — use order, not insert order.
        let (w, model) = setup();
        let cache = EvalCache::new(8);
        let cached = CachedEstimator::new(&model, &cache);
        let mut rng = StdRng::seed_from_u64(9);
        let mut keys: Vec<Mapping> = Vec::new();
        while keys.len() < 9 {
            let m = Mapping::random(&w, 3, &mut rng);
            if !keys.contains(&m) {
                keys.push(m);
            }
        }
        for m in &keys[..8] {
            cached.evaluate(&w, m).unwrap();
        }
        assert_eq!(cache.len(), 8);
        assert_eq!(cache.stats().evictions, 0);
        // Touch the oldest key: the second-oldest becomes the LRU.
        cached.evaluate(&w, &keys[0]).unwrap();
        assert_eq!(model.queries(), 8, "a touch is a hit");
        cached.evaluate(&w, &keys[8]).unwrap();
        assert_eq!(cache.len(), 8);
        assert_eq!(cache.stats().evictions, 1);
        let fp = w.fingerprint();
        let held: Vec<Mapping> = cache
            .entries_lru_first()
            .into_iter()
            .map(|(entry_fp, m, _)| {
                assert_eq!(entry_fp, fp);
                m
            })
            .collect();
        let mut want: Vec<Mapping> = keys[2..].to_vec();
        want.insert(6, keys[0].clone());
        assert_eq!(held, want, "keys[1] was the LRU and the only eviction");
        cached.evaluate(&w, &keys[1]).unwrap();
        assert_eq!(model.queries(), 10, "the evicted key misses again");
    }

    #[test]
    fn lru_refresh_on_hit_changes_eviction_order() {
        // Direct check of the recency rule: insert a, b; touch a;
        // insert c. The LRU is now b, not a.
        let mut lru = Lru::new(2);
        let (w, model) = setup();
        let report = model
            .inner
            .evaluate(&w, &Mapping::all_on(&w, Device::Gpu))
            .unwrap();
        let m = Mapping::all_on(&w, Device::Gpu);
        let insert =
            |lru: &mut Lru, fp: u64| lru.insert(key_digest(fp, &m), fp, &m, report.clone());
        let get = |lru: &mut Lru, fp: u64| lru.get(key_digest(fp, &m), fp, &m);
        insert(&mut lru, 1);
        insert(&mut lru, 2);
        assert!(get(&mut lru, 1).is_some(), "refresh 1");
        assert!(insert(&mut lru, 3), "must evict");
        assert!(get(&mut lru, 1).is_some(), "1 was refreshed, kept");
        assert!(get(&mut lru, 2).is_none(), "2 was LRU, evicted");
        assert!(get(&mut lru, 3).is_some());
    }

    #[test]
    fn digest_collision_is_a_miss_and_the_newcomer_replaces_the_occupant() {
        // Two distinct keys forced onto one digest: the LRU must never
        // answer one key with the other's report.
        let (w, model) = setup();
        let (a, b) = (
            Mapping::all_on(&w, Device::Gpu),
            Mapping::all_on(&w, Device::BigCpu),
        );
        let report_a = model.inner.evaluate(&w, &a).unwrap();
        let report_b = model.inner.evaluate(&w, &b).unwrap();
        assert_ne!(report_a, report_b);
        let mut lru = Lru::new(4);
        let digest = 42;
        assert!(!lru.insert(digest, 1, &a, report_a.clone()));
        assert_eq!(lru.get(digest, 1, &b), None, "collision must miss");
        assert_eq!(lru.get(digest, 2, &a), None, "fingerprint is key too");
        assert!(
            lru.insert(digest, 1, &b, report_b.clone()),
            "the occupant is displaced"
        );
        assert_eq!(lru.get(digest, 1, &b), Some(report_b));
        assert_eq!(lru.get(digest, 1, &a), None);
        assert_eq!((lru.map.len(), lru.slab.len()), (1, 1));
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
}
