//! The batched reward path as it was before the keyed memo, kept
//! verbatim (only its memo and counters moved into a struct of their
//! own, so it can run next to the live one) as the exactness reference:
//! the memo and the round's dedup map are keyed by the whole assignment
//! under std's SipHash, and every fresh mapping is cloned once more
//! before the evaluator sees it. The tests compare the live path against
//! it reward by reward, counter by counter and batch by batch.

use super::SchedulingEnv;
use crate::env::Environment;
use omniboost_hw::{Device, Mapping, ThroughputModel};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// One environment's reference memo and counters.
pub(super) struct ReferenceMemo<'e, 'a, M: ThroughputModel> {
    env: &'e SchedulingEnv<'a, M>,
    reward_memo: Mutex<HashMap<Vec<Device>, f64>>,
    memo_hits: AtomicUsize,
    batch_dedup_hits: AtomicUsize,
    memo_misses: AtomicUsize,
}

impl<'e, 'a, M: ThroughputModel> ReferenceMemo<'e, 'a, M> {
    pub(super) fn new(env: &'e SchedulingEnv<'a, M>) -> Self {
        Self {
            env,
            reward_memo: Mutex::new(HashMap::new()),
            memo_hits: AtomicUsize::new(0),
            batch_dedup_hits: AtomicUsize::new(0),
            memo_misses: AtomicUsize::new(0),
        }
    }

    /// `(memo_hits, batch_dedup_hits, memo_misses)`.
    pub(super) fn counters(&self) -> (usize, usize, usize) {
        (
            self.memo_hits.load(Ordering::Relaxed),
            self.batch_dedup_hits.load(Ordering::Relaxed),
            self.memo_misses.load(Ordering::Relaxed),
        )
    }

    pub(super) fn reward_batch_counted(&self, states: &[super::SchedState]) -> (Vec<f64>, usize) {
        let mut out = vec![0.0f64; states.len()];
        // Indices still needing an evaluator query, deduplicated by
        // assignment (first occurrence wins; duplicates share the slot).
        let mut unique: HashMap<&[Device], usize> = HashMap::new();
        let mut fresh: Vec<(Vec<usize>, Mapping)> = Vec::new();
        let mut memo_hits = 0usize;
        let mut dedup_hits = 0usize;
        {
            // Memo lookups under the lock; the guard is dropped before
            // the evaluator runs so the expensive batch call is never
            // made while holding it.
            let memo = self.reward_memo.lock().unwrap_or_else(|e| e.into_inner());
            for (i, state) in states.iter().enumerate() {
                debug_assert!(self.env.is_terminal(state), "reward on non-terminal state");
                if state.dead {
                    continue;
                }
                if let Some(r) = memo.get(state.devices.as_slice()) {
                    out[i] = *r;
                    memo_hits += 1;
                    continue;
                }
                match unique.get(state.devices.as_slice()) {
                    Some(&slot) => {
                        fresh[slot].0.push(i);
                        dedup_hits += 1;
                    }
                    None => {
                        unique.insert(state.devices.as_slice(), fresh.len());
                        fresh.push((vec![i], self.env.mapping_of(state)));
                    }
                }
            }
        }
        self.memo_hits.fetch_add(memo_hits, Ordering::Relaxed);
        self.batch_dedup_hits
            .fetch_add(dedup_hits, Ordering::Relaxed);
        self.memo_misses.fetch_add(fresh.len(), Ordering::Relaxed);
        let queries = fresh.len();
        if fresh.is_empty() {
            return (out, queries);
        }
        let mappings: Vec<Mapping> = fresh.iter().map(|(_, m)| m.clone()).collect();
        // Unlocked: two trees may race to evaluate the same assignment,
        // but the evaluator is deterministic, so both insert the same
        // reward — wasted work at worst, never wrong answers.
        let reports = self
            .env
            .evaluator
            .evaluate_batch(self.env.workload, &mappings);
        let mut memo = self.reward_memo.lock().unwrap_or_else(|e| e.into_inner());
        for ((indices, _), report) in fresh.iter().zip(reports) {
            let reward = match report {
                Ok(r) => self.env.score(&r),
                Err(_) => 0.0,
            };
            memo.insert(states[indices[0]].devices.clone(), reward);
            for &i in indices {
                out[i] = reward;
            }
        }
        (out, queries)
    }
}
