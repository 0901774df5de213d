//! Sharded metric registry: counters, gauges and latency histograms
//! keyed by static names.
//!
//! Writers hash the metric name to one of a fixed set of shards and
//! take only that shard's lock, so concurrent recorders (the daemon's
//! worker threads) rarely contend.
//! Snapshots merge the shards into name-sorted vectors; histogram
//! snapshots are exact merges (see [`LogHistogram::merge`]).

use crate::histogram::LogHistogram;
use std::collections::BTreeMap;
use std::sync::Mutex;

/// Shard count. A small power of two: the registry holds tens of
/// metrics, the goal is only to keep independent writers off one lock.
const SHARDS: usize = 8;

#[derive(Default)]
struct Shard {
    counters: Mutex<BTreeMap<&'static str, u64>>,
    gauges: Mutex<BTreeMap<&'static str, f64>>,
    histograms: Mutex<BTreeMap<&'static str, LogHistogram>>,
}

/// A sharded registry of named counters, gauges and histograms.
pub struct Registry {
    shards: Vec<Shard>,
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self {
            shards: (0..SHARDS).map(|_| Shard::default()).collect(),
        }
    }

    /// FNV-1a over the name picks the shard — stable across runs so a
    /// metric always lives in exactly one shard.
    fn shard(&self, name: &str) -> &Shard {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for byte in name.as_bytes() {
            hash ^= u64::from(*byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        &self.shards[(hash as usize) % SHARDS]
    }

    /// Adds `by` to counter `name`, creating it at zero first.
    pub fn incr(&self, name: &'static str, by: u64) {
        let mut map = self
            .shard(name)
            .counters
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        *map.entry(name).or_insert(0) += by;
    }

    /// Sets gauge `name` to `value`.
    pub fn gauge(&self, name: &'static str, value: f64) {
        let mut map = self
            .shard(name)
            .gauges
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        map.insert(name, value);
    }

    /// Records `value_ms` into histogram `name`, creating it empty
    /// first.
    pub fn observe(&self, name: &'static str, value_ms: f64) {
        let mut map = self
            .shard(name)
            .histograms
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        map.entry(name).or_default().record(value_ms);
    }

    /// All counters, name-sorted.
    pub fn counters(&self) -> Vec<(&'static str, u64)> {
        let mut out: Vec<(&'static str, u64)> = Vec::new();
        for shard in &self.shards {
            let map = shard.counters.lock().unwrap_or_else(|e| e.into_inner());
            out.extend(map.iter().map(|(k, v)| (*k, *v)));
        }
        out.sort_by_key(|(k, _)| *k);
        out
    }

    /// All gauges, name-sorted.
    pub fn gauges(&self) -> Vec<(&'static str, f64)> {
        let mut out: Vec<(&'static str, f64)> = Vec::new();
        for shard in &self.shards {
            let map = shard.gauges.lock().unwrap_or_else(|e| e.into_inner());
            out.extend(map.iter().map(|(k, v)| (*k, *v)));
        }
        out.sort_by_key(|(k, _)| *k);
        out
    }

    /// All histograms (cloned snapshots), name-sorted.
    pub fn histograms(&self) -> Vec<(&'static str, LogHistogram)> {
        let mut out: Vec<(&'static str, LogHistogram)> = Vec::new();
        for shard in &self.shards {
            let map = shard.histograms.lock().unwrap_or_else(|e| e.into_inner());
            out.extend(map.iter().map(|(k, v)| (*k, v.clone())));
        }
        out.sort_by_key(|(k, _)| *k);
        out
    }

    /// One counter's current value (0 if never incremented).
    pub fn counter_value(&self, name: &str) -> u64 {
        let map = self
            .shard(name)
            .counters
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        map.get(name).copied().unwrap_or(0)
    }

    /// One histogram's snapshot, if it exists.
    pub fn histogram(&self, name: &str) -> Option<LogHistogram> {
        let map = self
            .shard(name)
            .histograms
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        map.get(name).cloned()
    }
}
