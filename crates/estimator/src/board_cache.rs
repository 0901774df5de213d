//! Board-scoped cross-decision evaluation caching.
//!
//! Every scheduler that owns an [`EvalCache`] used to repeat the same
//! two fragments by hand in its `decide` implementation: *flush when the
//! board changes* (cache keys carry no board identity, so reports are
//! valid for exactly one piece of hardware) and *miss-delta accounting*
//! (`last_evaluations` must count evaluator queries that actually ran,
//! not cache hits). [`BoardScopedCache`] folds both into one wrapper:
//! [`BoardScopedCache::begin`] scopes a decision to a board and hands
//! back a [`DecisionScope`] that wraps evaluators and answers "how many
//! fresh queries did this decision cost?" afterwards.
//!
//! The wrapper also owns the **snapshot format**: one cache serializes
//! to a segment ([`BoardScopedCache::to_bytes`] /
//! [`BoardScopedCache::from_bytes`]) keyed on the process-stable
//! [`Board::fingerprint`], so a snapshot collected on one piece of
//! hardware can never warm-start another (entries themselves are keyed
//! on the process-stable `Workload::fingerprint()`, so they mean the
//! same thing in every process). Files hold a [`CacheArchive`] of such
//! segments, one per hardware profile ([`CacheArchive::save`] /
//! [`CacheArchive::load`]).

use crate::cache::{CachedEstimator, EvalCache};
use crate::io::LoadError;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use omniboost_hw::{Board, Device, EvalCacheStats, Mapping, ThroughputModel, ThroughputReport};
use std::fs;
use std::path::Path;

const MAGIC: u32 = 0x0B00_CACE;
const VERSION: u16 = 1;
/// Archive container magic ([`CacheArchive`]): distinct from the
/// single-segment magic so either format is recognized unambiguously.
const ARCHIVE_MAGIC: u32 = 0x0B00_CAFE;
const ARCHIVE_VERSION: u16 = 1;

/// An [`EvalCache`] bound to (at most) one board at a time, with the
/// per-decision bookkeeping every caching scheduler needs.
///
/// ```
/// use omniboost_estimator::BoardScopedCache;
/// use omniboost_hw::{AnalyticModel, Board, Device, Mapping, ThroughputModel, Workload};
/// use omniboost_models::ModelId;
///
/// let board = Board::hikey970();
/// let mut cache = BoardScopedCache::new(1024);
/// let w = Workload::from_ids([ModelId::AlexNet]);
/// let m = Mapping::all_on(&w, Device::Gpu);
///
/// let scope = cache.begin(&board);
/// let model = scope.wrap(AnalyticModel::new(board.clone()));
/// model.evaluate(&w, &m)?;
/// assert_eq!(scope.fresh_evaluations(0), 1);
///
/// // Same board, recurring mapping: the next decision is free.
/// let scope = cache.begin(&board);
/// let model = scope.wrap(AnalyticModel::new(board.clone()));
/// model.evaluate(&w, &m)?;
/// assert_eq!(scope.fresh_evaluations(1), 0);
/// # Ok::<(), omniboost_hw::HwError>(())
/// ```
pub struct BoardScopedCache {
    cache: EvalCache,
    /// Fingerprint of the board the cached reports were computed
    /// against; `None` until the first decision (or after `clear`).
    board_fingerprint: Option<u64>,
}

impl std::fmt::Debug for BoardScopedCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BoardScopedCache")
            .field("board_fingerprint", &self.board_fingerprint)
            .field("cache", &self.cache)
            .finish()
    }
}

impl BoardScopedCache {
    /// Creates a cache holding at most `capacity` reports (0 disables
    /// caching entirely, matching [`EvalCache::new`]).
    pub fn new(capacity: usize) -> Self {
        Self {
            cache: EvalCache::new(capacity),
            board_fingerprint: None,
        }
    }

    /// The underlying cache (stats, capacity, len).
    pub fn cache(&self) -> &EvalCache {
        &self.cache
    }

    /// Whether the cache is a no-op (capacity 0).
    pub fn is_disabled(&self) -> bool {
        self.cache.is_disabled()
    }

    /// Cumulative hit/miss/eviction counters.
    pub fn stats(&self) -> EvalCacheStats {
        self.cache.stats()
    }

    /// The stats when caching is enabled — the exact body every
    /// scheduler's `eval_cache_stats` hook shares.
    pub fn stats_if_enabled(&self) -> Option<EvalCacheStats> {
        (!self.is_disabled()).then(|| self.stats())
    }

    /// Drops every cached report and forgets the bound board.
    pub fn clear(&mut self) {
        self.cache.clear();
        self.board_fingerprint = None;
    }

    /// Scopes the next decision to `board`: flushes the cache if the
    /// board changed since the last decision (stale reports from other
    /// hardware must never be replayed) and snapshots the miss counter
    /// so the scope can report how many evaluator queries the decision
    /// actually cost.
    pub fn begin(&mut self, board: &Board) -> DecisionScope<'_> {
        let fp = board.fingerprint();
        if self.board_fingerprint != Some(fp) {
            self.cache.clear();
            self.board_fingerprint = Some(fp);
        }
        DecisionScope {
            misses_before: self.cache.stats().misses,
            cache: &self.cache,
        }
    }

    /// Copies `other`'s reports into this cache and binds it to
    /// `other`'s board — the in-memory warm boot: a scheduler coming up
    /// takes over what a cache of its hardware profile already learned,
    /// with no bytes in between ([`EvalCache::absorb`]). Reports this
    /// cache held for a different board are dropped first, as
    /// [`BoardScopedCache::begin`] would; a source that never saw a
    /// decision has no board and nothing to give. Returns the entries
    /// held afterwards.
    pub fn absorb(&mut self, other: &BoardScopedCache) -> usize {
        if let Some(fp) = other.board_fingerprint {
            if self.board_fingerprint != Some(fp) {
                self.cache.clear();
                self.board_fingerprint = Some(fp);
            }
            self.cache.absorb(&other.cache);
        }
        self.cache.len()
    }

    /// Serializes the board fingerprint plus every cached entry
    /// (least-recently-used first, so loading replays recency).
    pub fn to_bytes(&self) -> Bytes {
        let entries = self.cache.entries_lru_first();
        let mut buf = BytesMut::with_capacity(64 + entries.len() * 128);
        buf.put_u32_le(MAGIC);
        buf.put_u16_le(VERSION);
        buf.put_u64_le(self.board_fingerprint.unwrap_or(0));
        buf.put_u64_le(entries.len() as u64);
        for (fp, mapping, report) in &entries {
            buf.put_u64_le(*fp);
            buf.put_u32_le(mapping.len() as u32);
            for devs in mapping.assignments() {
                buf.put_u32_le(devs.len() as u32);
                for d in devs {
                    buf.put_u8(d.index() as u8);
                }
            }
            buf.put_u32_le(report.per_dnn.len() as u32);
            for t in &report.per_dnn {
                buf.put_f64_le(*t);
            }
            for t in &report.per_device {
                buf.put_f64_le(*t);
            }
        }
        buf.freeze()
    }

    /// Reconstructs a snapshot written by [`BoardScopedCache::to_bytes`]
    /// into a cache of the given `capacity`, validating that it was
    /// collected on `board`.
    ///
    /// # Errors
    ///
    /// [`LoadError::Corrupt`]/[`LoadError::Version`] for malformed
    /// blobs; [`LoadError::BoardMismatch`] when the snapshot belongs to
    /// different hardware (callers start cold instead).
    pub fn from_bytes(mut blob: Bytes, capacity: usize, board: &Board) -> Result<Self, LoadError> {
        let buf = &mut blob;
        if buf.remaining() < 4 + 2 + 8 + 8 {
            return Err(LoadError::Corrupt("cache header"));
        }
        if buf.get_u32_le() != MAGIC {
            return Err(LoadError::Corrupt("cache magic"));
        }
        let version = buf.get_u16_le();
        if version != VERSION {
            return Err(LoadError::Version(version));
        }
        let found = buf.get_u64_le();
        let expected = board.fingerprint();
        if found != expected {
            return Err(LoadError::BoardMismatch { expected, found });
        }
        let count = buf.get_u64_le() as usize;
        let out = Self {
            cache: EvalCache::new(capacity),
            board_fingerprint: Some(expected),
        };
        for _ in 0..count {
            if buf.remaining() < 8 + 4 {
                return Err(LoadError::Corrupt("cache entry header"));
            }
            let fp = buf.get_u64_le();
            let dnns = buf.get_u32_le() as usize;
            // Each DNN takes at least its 4-byte layer count: a hostile
            // `dnns` fails on the bytes, not on the allocator.
            let mut assignments = Vec::with_capacity(dnns.min(buf.remaining() / 4));
            for _ in 0..dnns {
                if buf.remaining() < 4 {
                    return Err(LoadError::Corrupt("cache mapping length"));
                }
                let layers = buf.get_u32_le() as usize;
                if buf.remaining() < layers {
                    return Err(LoadError::Corrupt("cache mapping body"));
                }
                let devs: Result<Vec<Device>, _> = (0..layers)
                    .map(|_| {
                        Device::from_index(buf.get_u8() as usize)
                            .ok_or(LoadError::Corrupt("cache device index"))
                    })
                    .collect();
                assignments.push(devs?);
            }
            if buf.remaining() < 4 {
                return Err(LoadError::Corrupt("cache report length"));
            }
            let per_dnn_len = buf.get_u32_le() as usize;
            if buf.remaining() < (per_dnn_len + Device::COUNT) * 8 {
                return Err(LoadError::Corrupt("cache report body"));
            }
            let per_dnn: Vec<f64> = (0..per_dnn_len).map(|_| buf.get_f64_le()).collect();
            if per_dnn_len != dnns {
                return Err(LoadError::Corrupt("cache report shape"));
            }
            let mut per_device = [0.0f64; Device::COUNT];
            for d in &mut per_device {
                *d = buf.get_f64_le();
            }
            if per_dnn
                .iter()
                .chain(per_device.iter())
                .any(|v| !v.is_finite())
            {
                return Err(LoadError::Corrupt("cache report values"));
            }
            // `average` is derived, not stored — it can't disagree.
            let report = ThroughputReport::new(per_dnn, per_device);
            out.cache.insert(fp, &Mapping::new(assignments), report);
        }
        if buf.remaining() > 0 {
            return Err(LoadError::Corrupt("cache trailing bytes"));
        }
        Ok(out)
    }

    /// Fingerprint of the board the cached reports belong to (`None`
    /// before the first decision).
    pub fn board_fingerprint(&self) -> Option<u64> {
        self.board_fingerprint
    }
}

/// A multi-profile cache snapshot: one serialized [`BoardScopedCache`]
/// segment **per board fingerprint**, so a heterogeneous fleet persists
/// and reloads each hardware profile's reports independently.
///
/// A single segment ([`BoardScopedCache::from_bytes`]) rejects any
/// board whose fingerprint differs from the one the snapshot was
/// collected on — correct for one board, but in a mixed fleet it meant
/// every profile except the first booted cold. The archive keys
/// segments by fingerprint: at startup each board pulls **its own**
/// segment (and only a genuinely unknown profile starts cold), at
/// shutdown each profile's merged cache overwrites its segment while
/// segments of profiles absent from the current fleet are preserved.
#[derive(Debug, Default, Clone)]
pub struct CacheArchive {
    /// `(board fingerprint, single-segment blob)`, unique fingerprints.
    segments: Vec<(u64, Vec<u8>)>,
}

impl CacheArchive {
    /// An empty archive.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of profile segments held.
    pub fn len(&self) -> usize {
        self.segments.len()
    }

    /// Whether the archive holds no segments.
    pub fn is_empty(&self) -> bool {
        self.segments.is_empty()
    }

    /// Inserts (or replaces) the segment for `cache`'s board profile.
    /// A cache that never saw a decision has no fingerprint and is
    /// skipped — there is nothing worth persisting.
    pub fn upsert(&mut self, cache: &BoardScopedCache) {
        let Some(fp) = cache.board_fingerprint else {
            return;
        };
        let blob = cache.to_bytes().to_vec();
        match self.segments.iter_mut().find(|(f, _)| *f == fp) {
            Some(slot) => slot.1 = blob,
            None => self.segments.push((fp, blob)),
        }
    }

    /// Decodes the segment matching `board`'s fingerprint into a cache
    /// of `capacity` entries; `None` when the archive holds no segment
    /// for this profile **or** the stored segment is corrupt (a daemon
    /// must boot cold rather than refuse to boot).
    pub fn segment(&self, capacity: usize, board: &Board) -> Option<BoardScopedCache> {
        let fp = board.fingerprint();
        let blob = self.segments.iter().find(|(f, _)| *f == fp)?.1.clone();
        BoardScopedCache::from_bytes(Bytes::from(blob), capacity, board).ok()
    }

    /// Serializes the archive: segments sorted by fingerprint so equal
    /// contents produce equal bytes regardless of insertion order.
    pub fn to_bytes(&self) -> Bytes {
        let mut segments = self.segments.clone();
        segments.sort_by_key(|(fp, _)| *fp);
        let mut buf =
            BytesMut::with_capacity(16 + segments.iter().map(|(_, b)| b.len() + 16).sum::<usize>());
        buf.put_u32_le(ARCHIVE_MAGIC);
        buf.put_u16_le(ARCHIVE_VERSION);
        buf.put_u64_le(segments.len() as u64);
        for (fp, blob) in &segments {
            buf.put_u64_le(*fp);
            buf.put_u64_le(blob.len() as u64);
            buf.put_slice(blob.as_slice());
        }
        buf.freeze()
    }

    /// Parses an archive written by [`CacheArchive::to_bytes`]. Segment
    /// *containers* are validated here (bounds, duplicates); segment
    /// *contents* are validated lazily by [`CacheArchive::segment`]
    /// against the requesting board.
    ///
    /// # Errors
    ///
    /// [`LoadError::Corrupt`] / [`LoadError::Version`] on malformed
    /// blobs.
    pub fn from_bytes(mut blob: Bytes) -> Result<Self, LoadError> {
        let buf = &mut blob;
        if buf.remaining() < 4 + 2 + 8 {
            return Err(LoadError::Corrupt("archive header"));
        }
        if buf.get_u32_le() != ARCHIVE_MAGIC {
            return Err(LoadError::Corrupt("archive magic"));
        }
        let version = buf.get_u16_le();
        if version != ARCHIVE_VERSION {
            return Err(LoadError::Version(version));
        }
        let count = buf.get_u64_le() as usize;
        let mut segments: Vec<(u64, Vec<u8>)> = Vec::with_capacity(count.min(64));
        for _ in 0..count {
            if buf.remaining() < 16 {
                return Err(LoadError::Corrupt("archive segment header"));
            }
            let fp = buf.get_u64_le();
            let len = buf.get_u64_le() as usize;
            if buf.remaining() < len {
                return Err(LoadError::Corrupt("archive segment body"));
            }
            if segments.iter().any(|(f, _)| *f == fp) {
                return Err(LoadError::Corrupt("archive duplicate segment"));
            }
            segments.push((fp, buf.copy_to_bytes(len).to_vec()));
        }
        if buf.remaining() > 0 {
            return Err(LoadError::Corrupt("archive trailing bytes"));
        }
        Ok(Self { segments })
    }

    /// Persists the archive.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn save(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        fs::write(path, self.to_bytes())
    }

    /// Loads an archive previously written by [`CacheArchive::save`].
    ///
    /// # Errors
    ///
    /// I/O, corruption and version [`LoadError`]s.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, LoadError> {
        let raw = fs::read(path)?;
        Self::from_bytes(Bytes::from(raw))
    }
}

/// One decision's view of a [`BoardScopedCache`]: wraps evaluators and
/// accounts fresh evaluator work. See [`BoardScopedCache::begin`].
pub struct DecisionScope<'c> {
    cache: &'c EvalCache,
    misses_before: u64,
}

impl<'c> DecisionScope<'c> {
    /// The scoped cache (shareable across the whole decision).
    pub fn cache(&self) -> &'c EvalCache {
        self.cache
    }

    /// Threads every query of `model` through the scoped cache.
    pub fn wrap<M: ThroughputModel>(&self, model: M) -> CachedEstimator<'c, M> {
        CachedEstimator::new(model, self.cache)
    }

    /// Evaluator queries that actually ran since [`BoardScopedCache::begin`]
    /// — the truthful `last_evaluations` every scheduler reports. With
    /// caching disabled the cache counts nothing, so callers pass their
    /// own `uncached_count` (the raw query tally) as the fallback.
    pub fn fresh_evaluations(&self, uncached_count: usize) -> usize {
        if self.cache.is_disabled() {
            uncached_count
        } else {
            (self.cache.stats().misses - self.misses_before) as usize
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omniboost_hw::{AnalyticModel, Workload};
    use omniboost_models::ModelId;

    fn setup() -> (Board, Workload, Mapping) {
        let board = Board::hikey970();
        let w = Workload::from_ids([ModelId::AlexNet, ModelId::SqueezeNet]);
        let m = Mapping::all_on(&w, Device::Gpu);
        (board, w, m)
    }

    #[test]
    fn board_change_flushes_between_decisions() {
        let (board, w, m) = setup();
        let mut cache = BoardScopedCache::new(64);
        {
            let scope = cache.begin(&board);
            scope
                .wrap(AnalyticModel::new(board.clone()))
                .evaluate(&w, &m)
                .unwrap();
            assert_eq!(scope.fresh_evaluations(0), 1);
        }
        assert_eq!(cache.cache().len(), 1);
        // A different board: the entry must not survive into the scope.
        let mut other = Board::hikey970();
        other.max_concurrent_dnns += 1;
        let scope = cache.begin(&other);
        scope
            .wrap(AnalyticModel::new(other.clone()))
            .evaluate(&w, &m)
            .unwrap();
        assert_eq!(scope.fresh_evaluations(0), 1, "stale report replayed");
    }

    #[test]
    fn fresh_evaluations_falls_back_when_disabled() {
        let (board, w, m) = setup();
        let mut cache = BoardScopedCache::new(0);
        assert!(cache.is_disabled());
        assert_eq!(cache.stats_if_enabled(), None);
        let scope = cache.begin(&board);
        let model = scope.wrap(AnalyticModel::new(board.clone()));
        model.evaluate(&w, &m).unwrap();
        model.evaluate(&w, &m).unwrap();
        assert_eq!(scope.fresh_evaluations(2), 2);
    }

    #[test]
    fn snapshot_roundtrips_and_warm_starts() {
        let (board, w, m) = setup();
        let mut cache = BoardScopedCache::new(64);
        let scope = cache.begin(&board);
        let model = scope.wrap(AnalyticModel::new(board.clone()));
        let want = model.evaluate(&w, &m).unwrap();
        let blob = cache.to_bytes();

        let restored = BoardScopedCache::from_bytes(blob, 64, &board).unwrap();
        assert_eq!(restored.cache().len(), 1);
        // The restored cache answers without touching the evaluator, and
        // `begin` on the same board must NOT flush it.
        let mut restored = restored;
        let scope = restored.begin(&board);
        let got = scope
            .cache()
            .get(w.fingerprint(), &m)
            .expect("persisted entry answers");
        assert_eq!(got, want);
    }

    #[test]
    fn snapshot_for_other_hardware_is_rejected() {
        let (board, w, m) = setup();
        let mut cache = BoardScopedCache::new(16);
        let scope = cache.begin(&board);
        scope
            .wrap(AnalyticModel::new(board.clone()))
            .evaluate(&w, &m)
            .unwrap();
        let blob = cache.to_bytes();
        let mut other = Board::hikey970();
        other.bus.latency_ms *= 2.0;
        assert!(matches!(
            BoardScopedCache::from_bytes(blob, 16, &other),
            Err(LoadError::BoardMismatch { .. })
        ));
    }

    #[test]
    fn corrupt_snapshots_roundtrip_to_errors_not_panics() {
        let (board, w, m) = setup();
        let mut cache = BoardScopedCache::new(16);
        let scope = cache.begin(&board);
        scope
            .wrap(AnalyticModel::new(board.clone()))
            .evaluate(&w, &m)
            .unwrap();
        let blob = cache.to_bytes().to_vec();

        // Wrong magic.
        let mut bad = blob.clone();
        bad[0] ^= 0xFF;
        assert!(matches!(
            BoardScopedCache::from_bytes(Bytes::from(bad), 16, &board),
            Err(LoadError::Corrupt("cache magic"))
        ));
        // Future version.
        let mut versioned = blob.clone();
        versioned[4] = 0xFF;
        assert!(matches!(
            BoardScopedCache::from_bytes(Bytes::from(versioned), 16, &board),
            Err(LoadError::Version(_))
        ));
        // Truncations at every prefix length must error, never panic.
        for cut in 0..blob.len() {
            let short = Bytes::from(blob[..cut].to_vec());
            assert!(
                BoardScopedCache::from_bytes(short, 16, &board).is_err(),
                "truncation at {cut} accepted"
            );
        }
        // Out-of-range device index.
        let full = BoardScopedCache::from_bytes(Bytes::from(blob.clone()), 16, &board);
        assert!(full.is_ok(), "baseline blob must load");
        let mut bad_dev = blob.clone();
        // Entry layout: header(4+2+8+8) + fp(8) + dnns(4) + first len(4),
        // then device bytes start.
        let dev_off = 4 + 2 + 8 + 8 + 8 + 4 + 4;
        bad_dev[dev_off] = 9;
        assert!(matches!(
            BoardScopedCache::from_bytes(Bytes::from(bad_dev), 16, &board),
            Err(LoadError::Corrupt("cache device index"))
        ));
        // Trailing garbage.
        let mut long = blob;
        long.push(0);
        assert!(matches!(
            BoardScopedCache::from_bytes(Bytes::from(long), 16, &board),
            Err(LoadError::Corrupt("cache trailing bytes"))
        ));
    }

    /// Builds a warmed cache for `board` holding the GPU-only report.
    fn warmed(board: &Board) -> BoardScopedCache {
        let w = Workload::from_ids([ModelId::AlexNet]);
        let m = Mapping::all_on(&w, Device::Gpu);
        let mut cache = BoardScopedCache::new(64);
        let scope = cache.begin(board);
        scope
            .wrap(AnalyticModel::new(board.clone()))
            .evaluate(&w, &m)
            .unwrap();
        cache
    }

    #[test]
    fn absorb_binds_the_target_to_the_source_board() {
        let full = Board::hikey970();
        let lite = Board::hikey970_lite();
        let w = Workload::from_ids([ModelId::AlexNet]);
        let m = Mapping::all_on(&w, Device::Gpu);
        // A fresh cache takes over the source's board and reports, and
        // `begin` on that board must not flush them.
        let mut fresh = BoardScopedCache::new(64);
        assert_eq!(fresh.absorb(&warmed(&full)), 1);
        assert_eq!(fresh.board_fingerprint(), Some(full.fingerprint()));
        let scope = fresh.begin(&full);
        assert_eq!(
            scope.cache().get(w.fingerprint(), &m).unwrap(),
            AnalyticModel::new(full.clone()).evaluate(&w, &m).unwrap()
        );
        // Reports held for other hardware are dropped, never mixed in.
        assert_eq!(fresh.absorb(&warmed(&lite)), 1);
        assert_eq!(fresh.board_fingerprint(), Some(lite.fingerprint()));
        assert_eq!(
            fresh.cache().get(w.fingerprint(), &m).unwrap(),
            AnalyticModel::new(lite).evaluate(&w, &m).unwrap()
        );
        // A source that never saw a decision gives nothing and rebinds
        // nothing.
        let mut bound = warmed(&full);
        assert_eq!(bound.absorb(&BoardScopedCache::new(64)), 1);
        assert_eq!(bound.board_fingerprint(), Some(full.fingerprint()));
    }

    #[test]
    fn archive_keys_segments_per_board_profile() {
        let full = Board::hikey970();
        let lite = Board::hikey970_lite();
        let mut archive = CacheArchive::new();
        archive.upsert(&warmed(&full));
        archive.upsert(&warmed(&lite));
        assert_eq!(archive.len(), 2);

        // Each profile pulls its own segment — the heterogeneous-fleet
        // fix: the lite board no longer boots cold just because the
        // snapshot "belongs" to the full board.
        let w = Workload::from_ids([ModelId::AlexNet]);
        let m = Mapping::all_on(&w, Device::Gpu);
        for board in [&full, &lite] {
            let seg = archive.segment(64, board).expect("segment for profile");
            assert_eq!(seg.board_fingerprint(), Some(board.fingerprint()));
            assert_eq!(
                seg.cache().get(w.fingerprint(), &m).unwrap(),
                AnalyticModel::new(board.clone()).evaluate(&w, &m).unwrap(),
                "segment must hold the profile's own report, not the other's"
            );
        }
        // An unknown profile has no segment: boots cold, no error.
        let mut other = Board::hikey970();
        other.bus.latency_ms *= 3.0;
        assert!(archive.segment(64, &other).is_none());
    }

    #[test]
    fn archive_roundtrips_and_upsert_replaces() {
        let full = Board::hikey970();
        let lite = Board::hikey970_lite();
        let mut archive = CacheArchive::new();
        archive.upsert(&warmed(&full));
        archive.upsert(&warmed(&lite));
        let restored = CacheArchive::from_bytes(archive.to_bytes()).unwrap();
        assert_eq!(restored.len(), 2);
        assert_eq!(restored.to_bytes().to_vec(), archive.to_bytes().to_vec());

        // Upserting the same profile replaces its segment, not appends.
        let mut again = restored.clone();
        again.upsert(&warmed(&full));
        assert_eq!(again.len(), 2);

        // A fresh, never-used cache has no fingerprint: nothing to save.
        let mut empty = CacheArchive::new();
        empty.upsert(&BoardScopedCache::new(16));
        assert!(empty.is_empty());
    }

    #[test]
    fn archive_rejects_corruption_without_panicking() {
        let mut archive = CacheArchive::new();
        archive.upsert(&warmed(&Board::hikey970()));
        let blob = archive.to_bytes().to_vec();
        for cut in 0..blob.len() {
            assert!(
                CacheArchive::from_bytes(Bytes::from(blob[..cut].to_vec())).is_err(),
                "truncation at {cut} accepted"
            );
        }
        let mut bad = blob.clone();
        bad[0] ^= 0xFF;
        assert!(matches!(
            CacheArchive::from_bytes(Bytes::from(bad)),
            Err(LoadError::Corrupt("archive magic"))
        ));
        let mut long = blob.clone();
        long.push(7);
        assert!(matches!(
            CacheArchive::from_bytes(Bytes::from(long)),
            Err(LoadError::Corrupt("archive trailing bytes"))
        ));
        // A segment whose *contents* are corrupted decodes to None (the
        // board boots cold) rather than failing the whole archive. The
        // inner blob starts after the archive header (14 bytes) and the
        // segment header (16 bytes); flip its magic.
        let mut seg_bad = blob;
        seg_bad[14 + 16] ^= 0xFF;
        let parsed = CacheArchive::from_bytes(Bytes::from(seg_bad)).unwrap();
        assert!(parsed.segment(64, &Board::hikey970()).is_none());
    }

    #[test]
    fn save_load_via_filesystem_preserves_recency() {
        let board = Board::hikey970();
        let w = Workload::from_ids([ModelId::AlexNet]);
        let model = AnalyticModel::new(board.clone());
        let mut cache = BoardScopedCache::new(64);
        let scope = cache.begin(&board);
        let cached = scope.wrap(&model);
        let mappings = [
            Mapping::all_on(&w, Device::Gpu),
            Mapping::all_on(&w, Device::BigCpu),
            Mapping::all_on(&w, Device::LittleCpu),
        ];
        for m in &mappings {
            cached.evaluate(&w, m).unwrap();
        }
        let dir = std::env::temp_dir().join("omniboost-cache-io-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("evalcache.bin");
        let mut archive = CacheArchive::new();
        archive.upsert(&cache);
        archive.save(&path).unwrap();
        let restored = CacheArchive::load(&path)
            .unwrap()
            .segment(64, &board)
            .unwrap();
        assert_eq!(restored.cache().len(), 3);
        for m in &mappings {
            assert_eq!(
                restored.cache().get(w.fingerprint(), m).unwrap(),
                model.evaluate(&w, m).unwrap()
            );
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn hostile_dnn_count_is_corrupt_not_an_abort() {
        // A `u32::MAX` DNN count once went straight to `Vec::with_capacity`
        // and aborted the process; a daemon booting from such a segment
        // must start cold instead.
        let board = Board::hikey970();
        let mut blob = BytesMut::with_capacity(64);
        blob.put_u32_le(MAGIC);
        blob.put_u16_le(VERSION);
        blob.put_u64_le(board.fingerprint());
        blob.put_u64_le(1); // one entry
        blob.put_u64_le(0); // its workload key
        blob.put_u32_le(u32::MAX); // its DNN count
        assert!(matches!(
            BoardScopedCache::from_bytes(blob.freeze(), 16, &board),
            Err(LoadError::Corrupt(_))
        ));
    }

    /// A cache for `board` holding four entries over a one- and a
    /// two-DNN mix.
    fn populated(board: &Board) -> BoardScopedCache {
        let mut cache = BoardScopedCache::new(64);
        let scope = cache.begin(board);
        let model = scope.wrap(AnalyticModel::new(board.clone()));
        for w in [
            Workload::from_ids([ModelId::AlexNet]),
            Workload::from_ids([ModelId::AlexNet, ModelId::SqueezeNet]),
        ] {
            for device in [Device::Gpu, Device::BigCpu] {
                model.evaluate(&w, &Mapping::all_on(&w, device)).unwrap();
            }
        }
        assert_eq!(cache.cache().len(), 4);
        cache
    }

    /// Marks the bytes of a valid snapshot that carry values rather than
    /// structure: each entry's workload key and its report's `f64`s. The
    /// format has no checksum, so a flipped value byte decodes (to
    /// another value). Every other byte is a magic, version, board
    /// fingerprint, count, length or device index.
    fn value_bytes(blob: &[u8]) -> Vec<bool> {
        let u32_at = |at: usize| u32::from_le_bytes(blob[at..at + 4].try_into().unwrap()) as usize;
        let mut is_value = vec![false; blob.len()];
        let count = u64::from_le_bytes(blob[14..22].try_into().unwrap());
        let mut at = 22;
        for _ in 0..count {
            is_value[at..at + 8].fill(true);
            let dnns = u32_at(at + 8);
            at += 12;
            for _ in 0..dnns {
                at += 4 + u32_at(at);
            }
            let report = (u32_at(at) + Device::COUNT) * 8;
            at += 4;
            is_value[at..at + report].fill(true);
            at += report;
        }
        assert_eq!(at, blob.len(), "snapshot layout drifted; fix value_bytes");
        is_value
    }

    #[test]
    fn torn_snapshots_fail_closed_at_every_byte() {
        let board = Board::hikey970();
        let blob = populated(&board).to_bytes().to_vec();
        let load =
            |bytes: &[u8]| BoardScopedCache::from_bytes(Bytes::from(bytes.to_vec()), 64, &board);
        for cut in 0..blob.len() {
            assert!(load(&blob[..cut]).is_err(), "a {cut}-byte prefix loaded");
        }
        for (at, is_value) in value_bytes(&blob).into_iter().enumerate() {
            let mut torn = blob.clone();
            torn[at] ^= 0xFF;
            if let Ok(cache) = load(&torn) {
                assert!(is_value, "a flipped structural byte at {at} loaded");
                assert_eq!(
                    cache.cache().len(),
                    4,
                    "a flipped value at {at} lost entries"
                );
            }
        }
    }

    #[test]
    fn torn_archives_boot_each_profile_cold_or_intact() {
        let boards = [Board::hikey970(), Board::hikey970_lite()];
        let mut archive = CacheArchive::new();
        for board in &boards {
            archive.upsert(&populated(board));
        }
        let blob = archive.to_bytes().to_vec();
        for cut in 0..blob.len() {
            assert!(
                CacheArchive::from_bytes(Bytes::from(blob[..cut].to_vec())).is_err(),
                "a {cut}-byte archive prefix loaded"
            );
        }
        // Each board's segment: where its fingerprint starts, and where
        // its snapshot starts and ends.
        let u64_at = |at: usize| u64::from_le_bytes(blob[at..at + 8].try_into().unwrap());
        let mut segments = Vec::new();
        let mut at = 14;
        while at < blob.len() {
            let (fp, len) = (u64_at(at), u64_at(at + 8) as usize);
            let board = boards.iter().position(|b| b.fingerprint() == fp).unwrap();
            segments.push((board, at, at + 16..at + 16 + len));
            at += 16 + len;
        }
        for flip in 0..blob.len() {
            let mut torn = blob.clone();
            torn[flip] ^= 0xFF;
            let torn = CacheArchive::from_bytes(Bytes::from(torn)).ok();
            for (board, _, body) in &segments {
                let got = torn.as_ref().and_then(|a| a.segment(64, &boards[*board]));
                let in_other = segments.iter().any(|(other, o_at, o_body)| {
                    other != board && ((*o_at..o_at + 8).contains(&flip) || o_body.contains(&flip))
                });
                if in_other {
                    // Another profile's fingerprint or snapshot: this
                    // segment is untouched.
                    let seg = got.unwrap_or_else(|| panic!("a flip at {flip} lost board {board}"));
                    assert_eq!(seg.to_bytes().to_vec(), blob[body.clone()].to_vec());
                } else if body.contains(&flip)
                    && value_bytes(&blob[body.clone()])[flip - body.start]
                {
                    if let Some(seg) = got {
                        assert_eq!(
                            seg.cache().len(),
                            4,
                            "a flipped value at {flip} lost entries"
                        );
                    }
                } else {
                    // The header, a length, this board's fingerprint or
                    // a structural byte of its snapshot: boot cold.
                    assert!(got.is_none(), "a flip at {flip} left board {board} warm");
                }
            }
        }
    }
}
