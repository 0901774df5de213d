//! The multi-DNN scheduling environment (§IV-C).

use crate::env::Environment;
use omniboost_hw::{Device, HwError, Mapping, ThroughputModel, Workload};
use rand::Rng;
use std::cell::{Cell, RefCell};
use std::collections::hash_map::Entry;
use std::collections::HashMap;

/// Partial layer-to-device assignment under construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchedState {
    /// Flattened per-layer devices (all DNNs concatenated).
    devices: Vec<Device>,
    /// Next decision index.
    decision: usize,
    /// Pipeline-stage count of the decided prefix of the DNN currently
    /// being edited (decisions run DNN by DNN, so one counter suffices).
    /// Maintained incrementally by `apply` — this is what makes both the
    /// losing-rule check and the budget-aware rollout policy O(1).
    stages: usize,
    /// Whether a losing condition (stage-cap violation) was hit.
    dead: bool,
    /// Per-DNN freeze flags: `apply` skips every decision belonging to a
    /// frozen DNN, so its carried device path survives the search
    /// verbatim. Empty means nothing is frozen (the common cold-search
    /// case pays nothing for the feature). Unlike the decision pointer —
    /// which can only express *prefix* freezing — this supports any
    /// subset, e.g. releasing one mid-workload carried DNN back into the
    /// warm search space while its neighbours stay pinned.
    frozen: Vec<bool>,
}

impl SchedState {
    /// Builds a **partially decided** state whose first `decided_dnns`
    /// DNNs take their per-layer device paths from `previous` — the
    /// warm-start seed of online rescheduling: when a workload changes by
    /// one job, the surviving DNNs keep the mapping the last decision
    /// found, and [`crate::Mcts::search_from`] only explores the
    /// still-open decisions (the new DNN's layers) instead of searching
    /// cold.
    ///
    /// `previous` must carry one row per decided DNN (extra rows are
    /// ignored), each matching that DNN's layer count in the
    /// environment's workload. Undecided DNNs default to the GPU exactly
    /// like [`Environment::initial`]. If a carried path violates the
    /// environment's stage cap (possible when the previous decision ran
    /// under a looser cap), the returned state is dead — callers check
    /// [`SchedState::is_dead`] and fall back to a cold search.
    ///
    /// # Errors
    ///
    /// Returns [`HwError::MappingShape`] when `previous` has fewer than
    /// `decided_dnns` rows or a row's layer count mismatches.
    pub fn from_partial_mapping<M: ThroughputModel>(
        env: &SchedulingEnv<'_, M>,
        previous: &Mapping,
        decided_dnns: usize,
    ) -> Result<SchedState, HwError> {
        let decided = decided_dnns.min(env.workload.len());
        let mut frozen = vec![false; env.workload.len()];
        for f in frozen.iter_mut().take(decided) {
            *f = true;
        }
        Self::from_frozen_subset(env, previous, &frozen)
    }

    /// Generalization of [`SchedState::from_partial_mapping`] to an
    /// **arbitrary subset** of frozen DNNs: every DNN `di` with
    /// `frozen[di]` takes its per-layer device path from `previous`'s row
    /// `di` and is skipped by the search entirely; every other DNN stays
    /// open (defaulting to the GPU like [`Environment::initial`]), even
    /// when it sits *between* frozen ones.
    ///
    /// This is what lets warm-started rescheduling release the
    /// worst-placed carried DNN back into the search space alongside an
    /// arriving job: freeze all carried paths except the released one,
    /// and the warm search re-decides exactly two DNNs while the rest of
    /// the deployment is pinned. A prefix freeze is the special case
    /// `frozen = [true; k] ++ [false; n-k]`.
    ///
    /// `frozen` may be shorter than the workload (missing entries are
    /// open); `previous` needs a shape-matching row at every frozen
    /// index (rows of open DNNs are ignored). If a frozen path violates
    /// the environment's stage cap the state comes back dead — callers
    /// check [`SchedState::is_dead`] and fall back to a cold search.
    ///
    /// # Errors
    ///
    /// Returns [`HwError::MappingShape`] when a frozen index has no row
    /// in `previous` or its layer count mismatches the workload.
    pub fn from_frozen_subset<M: ThroughputModel>(
        env: &SchedulingEnv<'_, M>,
        previous: &Mapping,
        frozen: &[bool],
    ) -> Result<SchedState, HwError> {
        let workload = env.workload;
        let n = workload.len();
        let frozen: Vec<bool> = (0..n)
            .map(|di| frozen.get(di).copied().unwrap_or(false))
            .collect();
        let counts = workload.layer_counts();
        let expected: Vec<usize> = (0..n)
            .filter(|di| frozen[*di])
            .map(|di| counts[di])
            .collect();
        let found: Vec<usize> = (0..n)
            .filter(|di| frozen[*di])
            .map(|di| previous.assignments().get(di).map_or(0, Vec::len))
            .collect();
        if expected != found {
            return Err(HwError::MappingShape { expected, found });
        }
        let mut state = env.initial();
        state.frozen = frozen;
        // The incremental stage counter tracks the DNN currently being
        // edited; the first open decision is always a whole-DNN
        // placement (which resets it), so auditing the frozen rows
        // against the cap — remembering the last one's count for the
        // all-frozen (terminal) case — keeps the counter exact.
        for di in 0..n {
            if !state.frozen[di] {
                continue;
            }
            let row = &previous.assignments()[di];
            let off = env.offsets[di];
            state.devices[off..off + row.len()].copy_from_slice(row);
            let stages = env.prefix_stages(&state, di, row.len() - 1);
            if stages > env.stage_cap {
                state.dead = true;
            }
            state.stages = stages;
        }
        env.skip_frozen(&mut state);
        Ok(state)
    }

    /// Whether the state hit the losing rule.
    pub fn is_dead(&self) -> bool {
        self.dead
    }

    /// Decisions already taken.
    pub fn decisions_taken(&self) -> usize {
        self.decision
    }
}

/// One decision point: either place a whole DNN or re-place one layer.
#[derive(Debug, Clone, Copy)]
enum Decision {
    /// (dnn): assign every layer of the DNN to the chosen device.
    WholeDnn(usize),
    /// (dnn, layer): re-assign one layer (layer ≥ 1).
    Layer(usize, usize),
}

/// The reward memo's key for a complete assignment: eight device
/// indices packed per `u64` word, the words folded by multiply–rotate,
/// so keying costs one multiply per eight layers. Computed once per live
/// terminal state per scoring round. The key is never persisted, so it
/// needs no stability across processes; the memo verifies every hit, so
/// a collision costs a comparison, never a wrong reward.
fn assignment_key(devices: &[Device]) -> u64 {
    devices.chunks(8).fold(devices.len() as u64, |h, word| {
        let packed = word.iter().fold(0u64, |w, d| w << 8 | d.index() as u64);
        (h ^ packed)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .rotate_left(29)
    })
}

/// [`SchedulingEnv`]'s reward memo: assignments by [`assignment_key`].
#[derive(Default)]
struct RewardMemo {
    buckets: HashMap<u64, MemoBucket>,
}

/// The memoized assignments sharing one key. Almost always one, so the
/// first lives inline; the others (a key collision) wait in a list that
/// allocates only when one happens.
struct MemoBucket {
    first: (Vec<Device>, f64),
    collided: Vec<(Vec<Device>, f64)>,
}

impl MemoBucket {
    fn get(&self, devices: &[Device]) -> Option<f64> {
        std::iter::once(&self.first)
            .chain(&self.collided)
            .find(|(held, _)| held.as_slice() == devices)
            .map(|(_, reward)| *reward)
    }
}

impl RewardMemo {
    /// The reward memoized for `devices`, whose key is `key`.
    fn get(&self, key: u64, devices: &[Device]) -> Option<f64> {
        self.buckets.get(&key)?.get(devices)
    }

    /// Memoizes `reward` for `devices` under `key`. The assignment must
    /// not be held yet: callers insert only assignments that missed the
    /// memo, once each, so an occupied key is a collision.
    fn insert(&mut self, key: u64, devices: &[Device], reward: f64) {
        match self.buckets.entry(key) {
            Entry::Vacant(slot) => {
                slot.insert(MemoBucket {
                    first: (devices.to_vec(), reward),
                    collided: Vec::new(),
                });
            }
            Entry::Occupied(slot) => {
                let bucket = slot.into_mut();
                debug_assert!(bucket.get(devices).is_none(), "assignment memoized twice");
                bucket.collided.push((devices.to_vec(), reward));
            }
        }
    }
}

/// The scheduling environment: states are partial mappings, actions are
/// devices, terminal rewards come from a throughput model.
///
/// Losing states (§IV-C): as soon as any DNN's decided prefix contains
/// more pipeline stages than `stage_cap` (= the device count on the
/// board), the state is dead and rewards 0 — stages in a decided prefix
/// can never merge again, so pruning is sound.
pub struct SchedulingEnv<'a, M: ThroughputModel> {
    workload: &'a Workload,
    evaluator: &'a M,
    stage_cap: usize,
    decisions: Vec<Decision>,
    offsets: Vec<usize>,
    reference: f64,
    /// Bonus added to every winning reward so completion dominates death.
    win_bonus: f64,
    /// Per-DNN throughput floors in inferences/s (empty = no floors —
    /// the historical reward, bit-for-bit). A mapping that leaves DNN
    /// `i` below `floors[i]` is penalized in proportion to the
    /// normalized shortfall, so the search prefers mappings honoring
    /// every floor over marginally higher aggregates that starve a
    /// guaranteed job. See [`SchedulingEnv::with_floors`].
    floors: Vec<f64>,
    /// Reward memo for the batched pipeline: completed assignments the
    /// search revisits (UCT re-selects good terminals many times, and
    /// rollout policies recreate the same completions) are answered
    /// without re-querying the evaluator. Scoped to this environment,
    /// i.e. to one scheduling decision — the evaluator is deterministic,
    /// so memoized rewards are exactly what a fresh query would return.
    /// (Cross-decision reuse is the estimator-side `EvalCache`'s job.)
    ///
    /// Keyed by [`assignment_key`], and every hit is verified against
    /// the stored assignment: two assignments sharing a key are both
    /// held, each with its own reward. The key lives and dies with this
    /// memo, never leaving the process, so it needs no stability — only
    /// speed.
    reward_memo: RefCell<RewardMemo>,
    /// Reward queries answered from the memo (a previous round scored
    /// the same assignment).
    memo_hits: Cell<usize>,
    /// Reward queries answered by deduplication *within* one batch (two
    /// pending rollouts of the same round completed identically). Kept
    /// separate from `memo_hits` so cache-effectiveness numbers don't
    /// conflate "the memo worked" with "the round duplicated itself".
    batch_dedup_hits: Cell<usize>,
    memo_misses: Cell<usize>,
}

impl<'a, M: ThroughputModel> SchedulingEnv<'a, M> {
    /// Builds the environment, normalizing rewards against the GPU-only
    /// mapping (the paper's baseline).
    ///
    /// # Errors
    ///
    /// Propagates the evaluator's error for inadmissible workloads.
    pub fn new(
        workload: &'a Workload,
        evaluator: &'a M,
        stage_cap: usize,
    ) -> Result<Self, HwError> {
        if workload.is_empty() {
            return Err(HwError::EmptyWorkload);
        }
        let baseline = Mapping::all_on(workload, Device::Gpu);
        let reference = evaluator.evaluate(workload, &baseline)?.average.max(1e-9);
        let mut decisions = Vec::with_capacity(workload.total_layers());
        let mut offsets = Vec::with_capacity(workload.len());
        let mut off = 0usize;
        for (di, dnn) in workload.dnns().iter().enumerate() {
            offsets.push(off);
            decisions.push(Decision::WholeDnn(di));
            for l in 1..dnn.num_layers() {
                decisions.push(Decision::Layer(di, l));
            }
            off += dnn.num_layers();
        }
        Ok(Self {
            workload,
            evaluator,
            stage_cap: stage_cap.max(1),
            decisions,
            offsets,
            reference,
            win_bonus: 0.1,
            floors: Vec::new(),
            reward_memo: RefCell::new(RewardMemo::default()),
            memo_hits: Cell::new(0),
            batch_dedup_hits: Cell::new(0),
            memo_misses: Cell::new(0),
        })
    }

    /// Attaches per-DNN throughput floors (inferences/s, one entry per
    /// workload DNN; `0.0` = best-effort, no floor). With any positive
    /// floor, rewards divide by `1 + 4 × Σ normalized shortfall`, so
    /// the search trades a little aggregate throughput to keep
    /// guaranteed DNNs above their floors — and a mapping meeting every
    /// floor scores exactly the historical reward. An all-zero vector
    /// is dropped, keeping the reward (and the search it drives)
    /// bit-for-bit the floorless one.
    ///
    /// # Panics
    ///
    /// Panics if `floors.len()` differs from the workload's DNN count.
    #[must_use]
    pub fn with_floors(mut self, floors: Vec<f64>) -> Self {
        assert_eq!(
            floors.len(),
            self.workload.len(),
            "one floor per workload DNN"
        );
        self.floors = if floors.iter().any(|f| *f > 0.0) {
            floors
        } else {
            Vec::new()
        };
        self
    }

    /// The reward of a measured report: normalized average throughput
    /// plus the win bonus, shrunk by the floor-shortfall penalty when
    /// [`SchedulingEnv::with_floors`] armed any floors.
    fn score(&self, report: &omniboost_hw::ThroughputReport) -> f64 {
        let base = self.win_bonus + report.average / self.reference;
        if self.floors.is_empty() {
            return base;
        }
        let shortfall: f64 = report
            .per_dnn
            .iter()
            .zip(&self.floors)
            .filter(|(_, floor)| **floor > 0.0)
            .map(|(tps, floor)| ((floor - tps) / floor).clamp(0.0, 1.0))
            .sum();
        base / (1.0 + 4.0 * shortfall)
    }

    /// Batched-pipeline reward queries answered from the cross-round
    /// memo (repeat visits of an assignment scored in an earlier round).
    pub fn memo_hits(&self) -> usize {
        self.memo_hits.get()
    }

    /// Batched-pipeline reward queries answered by within-batch
    /// deduplication (two rollouts of the *same* round completed the
    /// same assignment — not a memo hit).
    pub fn batch_dedup_hits(&self) -> usize {
        self.batch_dedup_hits.get()
    }

    /// Evaluator queries [`SchedulingEnv::new`] spent scoring the
    /// GPU-only reference mapping. No search's
    /// [`crate::SearchResult::evaluations`] counts them, so a decision's
    /// query tally adds them once.
    pub fn reference_queries(&self) -> usize {
        1
    }

    /// Batched-pipeline reward queries that reached the evaluator.
    pub fn memo_misses(&self) -> usize {
        self.memo_misses.get()
    }

    /// Number of decisions needed to complete a mapping (= total layers).
    pub fn num_decisions(&self) -> usize {
        self.decisions.len()
    }

    /// The stage cap `x` of the losing rule.
    pub fn stage_cap(&self) -> usize {
        self.stage_cap
    }

    /// Converts a (possibly partial) state into a mapping; undecided DNNs
    /// default to the GPU.
    pub fn mapping_of(&self, state: &SchedState) -> Mapping {
        let mut assignments = Vec::with_capacity(self.workload.len());
        for (di, dnn) in self.workload.dnns().iter().enumerate() {
            let off = self.offsets[di];
            assignments.push(state.devices[off..off + dnn.num_layers()].to_vec());
        }
        Mapping::new(assignments)
    }

    /// Stage count of the decided prefix of DNN `di` when layers
    /// `0..=last` are final.
    fn prefix_stages(&self, state: &SchedState, di: usize, last: usize) -> usize {
        let off = self.offsets[di];
        let devs = &state.devices[off..=off + last];
        1 + devs.windows(2).filter(|w| w[0] != w[1]).count()
    }

    /// The DNN a decision index belongs to.
    fn decision_dnn(&self, idx: usize) -> usize {
        match self.decisions[idx] {
            Decision::WholeDnn(di) | Decision::Layer(di, _) => di,
        }
    }

    /// Advances the decision pointer past every decision belonging to a
    /// frozen DNN. Frozen DNNs start at a whole-DNN decision and own a
    /// contiguous decision run, so after skipping, the pointer sits on
    /// an open DNN's whole-DNN decision (or past the end).
    fn skip_frozen(&self, state: &mut SchedState) {
        if state.frozen.is_empty() {
            return;
        }
        while state.decision < self.decisions.len()
            && state.frozen[self.decision_dnn(state.decision)]
        {
            state.decision += 1;
        }
    }

    /// [`Environment::reward_batch_counted`] under the key function
    /// `key_of` (always [`assignment_key`] outside the tests, which
    /// force collisions through it).
    fn reward_batch_keyed(
        &self,
        states: &[SchedState],
        key_of: impl Fn(&[Device]) -> u64,
    ) -> (Vec<f64>, usize) {
        let mut out = vec![0.0f64; states.len()];
        // The round's evaluator queries, first occurrence first: each
        // unique un-memoized live assignment's key and first state, and
        // its mapping at the same index.
        let mut fresh: Vec<(u64, usize)> = Vec::new();
        let mut mappings: Vec<Mapping> = Vec::new();
        // Later occurrences within the round: (state, its fresh slot).
        let mut duplicates: Vec<(usize, usize)> = Vec::new();
        let mut memo_hits = 0usize;
        {
            // The memo's borrow ends before the evaluator runs.
            let memo = self.reward_memo.borrow();
            for (i, state) in states.iter().enumerate() {
                debug_assert!(self.is_terminal(state), "reward on non-terminal state");
                if state.dead {
                    continue;
                }
                let key = key_of(&state.devices);
                if let Some(r) = memo.get(key, &state.devices) {
                    out[i] = r;
                    memo_hits += 1;
                    continue;
                }
                // A round holds at most `batch_size` states: scanning
                // its fresh keys is cheaper than a second map.
                match fresh
                    .iter()
                    .position(|&(k, first)| k == key && states[first].devices == state.devices)
                {
                    Some(slot) => duplicates.push((i, slot)),
                    None => {
                        fresh.push((key, i));
                        mappings.push(self.mapping_of(state));
                    }
                }
            }
        }
        self.memo_hits.set(self.memo_hits.get() + memo_hits);
        self.batch_dedup_hits
            .set(self.batch_dedup_hits.get() + duplicates.len());
        self.memo_misses.set(self.memo_misses.get() + fresh.len());
        if fresh.is_empty() {
            return (out, 0);
        }
        let reports = self.evaluator.evaluate_batch(self.workload, &mappings);
        let mut memo = self.reward_memo.borrow_mut();
        for (&(key, first), report) in fresh.iter().zip(reports) {
            let reward = match report {
                Ok(r) => self.score(&r),
                Err(_) => 0.0,
            };
            memo.insert(key, &states[first].devices, reward);
            out[first] = reward;
        }
        for (i, slot) in duplicates {
            out[i] = out[fresh[slot].1];
        }
        (out, fresh.len())
    }
}

impl<M: ThroughputModel> Environment for SchedulingEnv<'_, M> {
    type State = SchedState;

    fn initial(&self) -> SchedState {
        SchedState {
            devices: vec![Device::Gpu; self.workload.total_layers()],
            decision: 0,
            stages: 0,
            dead: false,
            frozen: Vec::new(),
        }
    }

    fn num_actions(&self) -> usize {
        Device::COUNT
    }

    fn apply(&self, state: &SchedState, action: usize) -> SchedState {
        let mut next = state.clone();
        self.advance(&mut next, action);
        next
    }

    /// The transition itself; [`SchedulingEnv::apply`] is a clone plus
    /// this, so a rollout stepping one state forward allocates nothing.
    fn advance(&self, state: &mut SchedState, action: usize) {
        assert!(!self.is_terminal(state), "apply on terminal state");
        let device = Device::from_index(action).expect("action is a device index");
        match self.decisions[state.decision] {
            Decision::WholeDnn(di) => {
                let off = self.offsets[di];
                let n = self.workload.dnn(di).num_layers();
                for d in &mut state.devices[off..off + n] {
                    *d = device;
                }
                // A whole-DNN placement is always 1 stage: no prune check.
                state.stages = 1;
            }
            Decision::Layer(di, l) => {
                let off = self.offsets[di];
                // Re-placing layer `l` adds a stage boundary exactly when
                // it differs from the (final) layer `l-1`; layers after
                // `l` are not yet decided, so the incremental count stays
                // exact.
                if device != state.devices[off + l - 1] {
                    state.stages += 1;
                    if state.stages > self.stage_cap {
                        state.dead = true;
                    }
                }
                state.devices[off + l] = device;
                debug_assert_eq!(
                    state.stages,
                    self.prefix_stages(state, di, l),
                    "incremental stage count drifted from the prefix scan"
                );
            }
        }
        state.decision += 1;
        self.skip_frozen(state);
    }

    fn is_terminal(&self, state: &SchedState) -> bool {
        state.dead || state.decision >= self.decisions.len()
    }

    /// The §IV-C losing rule is decidable without the evaluator, so the
    /// search can prune stage-cap-violating children at expansion time.
    fn is_losing(&self, state: &SchedState) -> bool {
        state.dead
    }

    fn reward(&self, state: &SchedState) -> f64 {
        assert!(self.is_terminal(state), "reward on non-terminal state");
        if state.dead {
            return 0.0;
        }
        let mapping = self.mapping_of(state);
        match self.evaluator.evaluate(self.workload, &mapping) {
            Ok(report) => self.score(&report),
            Err(_) => 0.0,
        }
    }

    /// The batched evaluation pipeline: dead states score 0 immediately,
    /// repeat assignments are answered from the reward memo, and the
    /// remaining unique mappings go to the evaluator as **one**
    /// `evaluate_batch` call (one minibatched CNN forward for the
    /// estimator). Element `i` equals `self.reward(&states[i])` because
    /// the evaluator is deterministic.
    fn reward_batch(&self, states: &[SchedState]) -> Vec<f64> {
        self.reward_batch_counted(states).0
    }

    /// [`SchedulingEnv::reward_batch`] plus truthful accounting: the
    /// second element is the number of **actual evaluator queries**
    /// (unique, un-memoized, live assignments) — dead states, memo hits
    /// and within-batch duplicates are answered for free.
    ///
    /// Each live state is keyed once, by [`assignment_key`]; the reward
    /// memo and the round's dedup both look up by that key and verify a
    /// match against the assignment itself, so a key collision is a
    /// miss, never another assignment's reward. The key never leaves
    /// this call and the memo, so it needs no stability across
    /// processes. Each fresh mapping is built once, straight into the
    /// batch the evaluator receives.
    fn reward_batch_counted(&self, states: &[SchedState]) -> (Vec<f64>, usize) {
        self.reward_batch_keyed(states, assignment_key)
    }

    /// Stage-budget-aware simulation playouts: whole-DNN placements draw
    /// uniformly (they always reset to 1 stage). When re-placing layer
    /// `l`, compute the remaining stage budget `b = stage_cap -
    /// stages(prefix)` in O(1) from the state's tracked counter. `b == 0`
    /// forces the previous layer's device — the only moves that could
    /// kill the playout are never taken, so **every playout from a live
    /// state reaches a live terminal**. While `b > 0`, switch devices
    /// with probability `b / (remaining_layers + b)` (uniform over the
    /// other devices), spreading splits across the network's remaining
    /// depth. The denominator keeps the probability strictly below 1 at
    /// every depth: the playout may *leave budget unspent*, so mappings
    /// with fewer than `stage_cap` stages (a whole DNN on one device,
    /// say) stay sampleable — a `b / remaining` rule would force
    /// exactly-`stage_cap`-stage terminals and bias the search away from
    /// low-stage optima.
    fn rollout_action(&self, state: &SchedState, rng: &mut dyn rand::RngCore) -> usize {
        match self.decisions[state.decision] {
            Decision::WholeDnn(_) => rng.gen_range(0..Device::COUNT),
            Decision::Layer(di, l) => {
                let prev = state.devices[self.offsets[di] + l - 1];
                // Live state ⇒ stages ≤ cap, so this never underflows.
                let budget = self.stage_cap - state.stages;
                if budget == 0 {
                    return prev.index();
                }
                let remaining = self.workload.dnn(di).num_layers() - l;
                // Strictly below 1 (see doc): keeping the previous
                // device must stay possible at every depth so
                // sub-cap-stage mappings remain in the playout
                // distribution.
                let p_switch = budget as f64 / (remaining + budget) as f64;
                if rng.gen_bool(p_switch) {
                    // Uniform over the devices other than `prev`, so a
                    // "switch" draw always spends budget.
                    let k = rng.gen_range(0..Device::COUNT - 1);
                    if k >= prev.index() {
                        k + 1
                    } else {
                        k
                    }
                } else {
                    prev.index()
                }
            }
        }
    }
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::SearchBudget;
    use crate::tree::Mcts;
    use omniboost_hw::{AnalyticModel, Board};
    use omniboost_models::ModelId;
    use proptest::prelude::*;
    use rand::SeedableRng;

    fn setup() -> (Workload, AnalyticModel) {
        let board = Board::hikey970();
        let w = Workload::from_ids([ModelId::AlexNet, ModelId::SqueezeNet]);
        (w, AnalyticModel::new(board))
    }

    #[test]
    fn decision_count_equals_total_layers() {
        let (w, ev) = setup();
        let env = SchedulingEnv::new(&w, &ev, 3).unwrap();
        assert_eq!(env.num_decisions(), 11 + 22);
    }

    #[test]
    fn whole_dnn_decision_fills_all_layers() {
        let (w, ev) = setup();
        let env = SchedulingEnv::new(&w, &ev, 3).unwrap();
        let s = env.apply(&env.initial(), Device::LittleCpu.index());
        let m = env.mapping_of(&s);
        assert!(m.assignments()[0].iter().all(|d| *d == Device::LittleCpu));
    }

    #[test]
    fn exceeding_stage_cap_kills_the_state() {
        let (w, ev) = setup();
        let env = SchedulingEnv::new(&w, &ev, 3).unwrap();
        // Alternate devices layer by layer: stages grow 1 per decision,
        // so after 3 alternations the prefix has 4 stages -> dead.
        let mut s = env.apply(&env.initial(), 0); // whole dnn on GPU
        for (i, a) in [1usize, 0, 1].iter().enumerate() {
            assert!(!s.dead, "died too early at {i}");
            s = env.apply(&s, *a);
        }
        assert!(s.dead);
        assert!(env.is_terminal(&s));
        assert_eq!(env.reward(&s), 0.0);
    }

    #[test]
    fn completed_states_win_and_score_positive() {
        let (w, ev) = setup();
        let env = SchedulingEnv::new(&w, &ev, 3).unwrap();
        // All decisions pick GPU: 1 stage everywhere, reward ≈ bonus + 1.
        let mut s = env.initial();
        while !env.is_terminal(&s) {
            s = env.apply(&s, Device::Gpu.index());
        }
        assert!(!s.dead);
        let r = env.reward(&s);
        assert!((r - 1.1).abs() < 0.05, "gpu-only reward = {r}");
    }

    #[test]
    fn search_returns_valid_cap_respecting_mapping() {
        let (w, ev) = setup();
        let env = SchedulingEnv::new(&w, &ev, 3).unwrap();
        let result = Mcts::new(SearchBudget::with_iterations(150)).run(&env, 5);
        let mapping = env.mapping_of(&result.best_state);
        mapping.validate(&w).unwrap();
        assert!(mapping.max_stages() <= 3);
        assert!(result.best_reward > 0.0);
    }

    #[test]
    fn search_beats_or_matches_baseline_on_heavy_mix() {
        // Under a heavy 4-DNN mix the GPU-only baseline saturates; MCTS
        // must find something strictly better.
        let board = Board::hikey970();
        let w = Workload::from_ids([
            ModelId::Vgg19,
            ModelId::ResNet50,
            ModelId::InceptionV3,
            ModelId::AlexNet,
        ]);
        let ev = AnalyticModel::new(board);
        let env = SchedulingEnv::new(&w, &ev, 3).unwrap();
        let result = Mcts::new(SearchBudget::with_iterations(300)).run(&env, 11);
        // Reward = bonus + T/T_baseline, so > bonus + 1 means "beat it".
        assert!(
            result.best_reward > 1.1,
            "best reward {} did not beat the baseline",
            result.best_reward
        );
    }

    #[test]
    fn empty_workload_is_rejected() {
        let board = Board::hikey970();
        let ev = AnalyticModel::new(board);
        let w = Workload::new(vec![]);
        assert!(matches!(
            SchedulingEnv::new(&w, &ev, 3),
            Err(HwError::EmptyWorkload)
        ));
    }

    #[test]
    fn stage_counter_tracks_prefix_scan() {
        let (w, ev) = setup();
        let env = SchedulingEnv::new(&w, &ev, 3).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        use rand::Rng as _;
        for _ in 0..50 {
            let mut s = env.initial();
            while !env.is_terminal(&s) {
                s = env.apply(&s, rng.gen_range(0..Device::COUNT));
            }
            // The debug_assert inside `apply` checks the counter against
            // the O(n) scan at every step; reaching a terminal without
            // panicking is the property.
            assert!(env.is_terminal(&s));
        }
    }

    fn rollout_to_terminal<M: ThroughputModel>(
        env: &SchedulingEnv<'_, M>,
        mut s: SchedState,
        rng: &mut rand::rngs::StdRng,
    ) -> SchedState {
        while !env.is_terminal(&s) {
            let a = env.rollout_action(&s, rng);
            s = env.apply(&s, a);
        }
        s
    }

    #[test]
    fn budget_aware_rollouts_never_die_from_live_states() {
        // From ANY live state — including prefixes that already spent the
        // whole stage budget — budget-aware playouts must reach a live
        // terminal. Drive to random live states first (tree-style uniform
        // actions, retrying past deaths), then roll out.
        let board = Board::hikey970();
        let w = Workload::from_ids([
            ModelId::Vgg19,
            ModelId::ResNet50,
            ModelId::InceptionV3,
            ModelId::AlexNet,
        ]);
        let ev = AnalyticModel::new(board);
        let env = SchedulingEnv::new(&w, &ev, 3).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        use rand::Rng as _;
        for trial in 0..200 {
            // Random live prefix of random length.
            let target = rng.gen_range(0..env.num_decisions());
            let mut s = env.initial();
            while s.decisions_taken() < target && !env.is_terminal(&s) {
                let next = env.apply(&s, rng.gen_range(0..Device::COUNT));
                if next.is_dead() {
                    continue; // that action kills; try another draw
                }
                s = next;
            }
            let t = rollout_to_terminal(&env, s, &mut rng);
            assert!(
                !t.is_dead(),
                "trial {trial}: budget-aware rollout died on the stage cap"
            );
            assert!(env.reward(&t) > 0.0);
        }
    }

    #[test]
    fn budget_aware_forces_previous_device_when_budget_exhausted() {
        let (w, ev) = setup();
        let env = SchedulingEnv::new(&w, &ev, 3).unwrap();
        // Burn the whole budget: place DNN 0, then alternate twice.
        let mut s = env.apply(&env.initial(), Device::Gpu.index());
        s = env.apply(&s, Device::BigCpu.index());
        s = env.apply(&s, Device::LittleCpu.index());
        assert_eq!(s.stages, 3, "the incremental stage count of DNN 0");
        assert!(!s.is_dead());
        // Every rollout draw must now repeat the previous layer's device.
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        for _ in 0..50 {
            let a = env.rollout_action(&s, &mut rng);
            assert_eq!(a, Device::LittleCpu.index(), "forced move violated");
        }
    }

    #[test]
    fn budget_aware_playouts_sample_sub_cap_mappings_too() {
        // The playout distribution must not force every terminal to the
        // full stage cap: single-stage (whole-DNN) completions have to
        // remain reachable or the search can never return low-stage
        // optima from its rollouts.
        let (w, ev) = setup();
        let env = SchedulingEnv::new(&w, &ev, 3).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(23);
        let mut saw_sub_cap = false;
        let mut saw_full_cap = false;
        for _ in 0..200 {
            let t = rollout_to_terminal(&env, env.initial(), &mut rng);
            assert!(!t.is_dead());
            let stages = env.mapping_of(&t).max_stages();
            saw_sub_cap |= stages < 3;
            saw_full_cap |= stages == 3;
        }
        assert!(saw_sub_cap, "playouts never leave stage budget unspent");
        assert!(saw_full_cap, "playouts never use the full stage budget");
    }

    #[test]
    fn budget_aware_yield_fills_the_batch_on_heavy_mix() {
        // On the heavy 4-DNN mix with cap 3, budget-aware playouts
        // essentially all reach live terminals (the PR 2 tentpole claim;
        // the sticky A/B baseline they beat 7× is gone now).
        let board = Board::hikey970();
        let w = Workload::from_ids([
            ModelId::Vgg19,
            ModelId::ResNet50,
            ModelId::InceptionV3,
            ModelId::AlexNet,
        ]);
        let ev = AnalyticModel::new(board);
        let budget = SearchBudget::with_iterations(500).with_batch_size(16);
        let env = SchedulingEnv::new(&w, &ev, 3).unwrap();
        let aware = Mcts::new(budget).run(&env, 42);
        assert!(
            aware.iterations >= budget.patience,
            "stopped before a plateau could form"
        );
        assert!(
            aware.live_terminal_rollouts * 10 >= aware.iterations * 9,
            "budget-aware yield {}/{} below the 0.9 bar",
            aware.live_terminal_rollouts,
            aware.iterations
        );
        assert!(aware.best_reward > 0.0);
    }

    #[test]
    fn partial_mapping_state_freezes_carried_paths() {
        let (w, ev) = setup();
        let env = SchedulingEnv::new(&w, &ev, 3).unwrap();
        // Previous decision: AlexNet split GPU -> BigCpu after layer 5.
        let mut prev = Mapping::all_on(&w, Device::Gpu);
        for l in 6..11 {
            prev.assign(0, l, Device::BigCpu);
        }
        let s = SchedState::from_partial_mapping(&env, &prev, 1).unwrap();
        assert!(!s.is_dead());
        assert_eq!(s.decisions_taken(), 11, "DNN 0 fully decided");
        assert!(!env.is_terminal(&s));
        // Search from the partial root: DNN 0's carried path survives in
        // every mapping the warm search can return.
        let result = Mcts::new(SearchBudget::with_iterations(80)).search_from(&env, s, 7);
        assert!(result.best_reward > 0.0);
        let mapping = env.mapping_of(&result.best_state);
        assert_eq!(mapping.assignments()[0], prev.assignments()[0]);
        mapping.validate(&w).unwrap();
        assert!(mapping.max_stages() <= 3);
    }

    #[test]
    fn frozen_subset_pins_a_mid_workload_dnn() {
        // Freeze DNN 0 and DNN 2 of a 3-DNN mix; only DNN 1 (between
        // them) stays open — the shape prefix freezing cannot express.
        let board = Board::hikey970();
        let w = Workload::from_ids([ModelId::AlexNet, ModelId::SqueezeNet, ModelId::MobileNet]);
        let ev = AnalyticModel::new(board);
        let env = SchedulingEnv::new(&w, &ev, 3).unwrap();
        let mut prev = Mapping::all_on(&w, Device::Gpu);
        for l in 6..11 {
            prev.assign(0, l, Device::BigCpu);
        }
        for l in 0..w.dnn(2).num_layers() {
            prev.assign(2, l, Device::LittleCpu);
        }
        let s = SchedState::from_frozen_subset(&env, &prev, &[true, false, true]).unwrap();
        assert!(!s.is_dead());
        // The pointer sits on DNN 1's whole-DNN decision: DNN 0's 11
        // decisions are skipped, DNN 1's 22 are open.
        assert_eq!(s.decisions_taken(), 11);
        let result = Mcts::new(SearchBudget::with_iterations(60)).search_from(&env, s, 3);
        assert!(result.best_reward > 0.0);
        let mapping = env.mapping_of(&result.best_state);
        mapping.validate(&w).unwrap();
        assert!(mapping.max_stages() <= 3);
        assert_eq!(mapping.assignments()[0], prev.assignments()[0]);
        assert_eq!(mapping.assignments()[2], prev.assignments()[2]);
    }

    #[test]
    fn advance_agrees_with_apply_on_random_walks() {
        // Uniformly random actions (not the budget-aware policy) so the
        // walks also die on the stage cap; every frozen subset of the
        // 3-DNN mix, so the pointer skips leading, middle and trailing
        // runs. After each step the in-place state must equal the
        // cloned successor, field for field.
        let w = Workload::from_ids([ModelId::AlexNet, ModelId::SqueezeNet, ModelId::MobileNet]);
        let ev = AnalyticModel::new(Board::hikey970());
        let env = SchedulingEnv::new(&w, &ev, 3).unwrap();
        let mut carried = Mapping::all_on(&w, Device::Gpu);
        for l in 6..11 {
            carried.assign(0, l, Device::BigCpu);
        }
        let mut rng = rand::rngs::StdRng::seed_from_u64(23);
        let (mut died, mut completed) = (0usize, 0usize);
        for mask in 0u8..8 {
            let frozen: Vec<bool> = (0..3).map(|di| mask & (1 << di) != 0).collect();
            for _ in 0..12 {
                let mut walked = SchedState::from_frozen_subset(&env, &carried, &frozen).unwrap();
                while !env.is_terminal(&walked) {
                    let action = rng.gen_range(0..env.num_actions());
                    let applied = env.apply(&walked, action);
                    env.advance(&mut walked, action);
                    assert_eq!(walked, applied, "frozen {frozen:?}");
                }
                died += usize::from(walked.is_dead());
                completed += usize::from(!walked.is_dead());
            }
        }
        assert!(died > 0 && completed > 0, "{died} dead, {completed} live");
    }

    #[test]
    fn frozen_subset_validates_rows_and_audits_caps() {
        let (w, ev) = setup();
        let env = SchedulingEnv::new(&w, &ev, 3).unwrap();
        // Frozen index 1 needs a matching row; a 1-row mapping fails.
        let short = Mapping::new(vec![vec![Device::Gpu; 11]]);
        assert!(matches!(
            SchedState::from_frozen_subset(&env, &short, &[false, true]),
            Err(HwError::MappingShape { .. })
        ));
        // An over-cap frozen row comes back dead even when it is not the
        // prefix.
        let mut overcap = Mapping::all_on(&w, Device::Gpu);
        overcap.assign(1, 2, Device::BigCpu);
        overcap.assign(1, 5, Device::LittleCpu);
        overcap.assign(1, 8, Device::BigCpu);
        assert!(overcap.stage_count(1) > 3);
        let s = SchedState::from_frozen_subset(&env, &overcap, &[false, true]).unwrap();
        assert!(s.is_dead());
        // A short `frozen` slice leaves the remaining DNNs open.
        let ok = SchedState::from_frozen_subset(&env, &overcap, &[]).unwrap();
        assert!(!ok.is_dead());
        assert_eq!(ok.decisions_taken(), 0);
    }

    #[test]
    fn frozen_subset_all_frozen_is_terminal_and_matches_prefix_path() {
        let (w, ev) = setup();
        let env = SchedulingEnv::new(&w, &ev, 3).unwrap();
        let prev = Mapping::all_on(&w, Device::BigCpu);
        let subset = SchedState::from_frozen_subset(&env, &prev, &[true, true]).unwrap();
        assert!(env.is_terminal(&subset));
        assert_eq!(env.mapping_of(&subset), prev);
        // The prefix constructor is the special case of the subset one.
        let prefix = SchedState::from_partial_mapping(&env, &prev, 2).unwrap();
        assert_eq!(env.mapping_of(&prefix), env.mapping_of(&subset));
        assert_eq!(prefix.decisions_taken(), subset.decisions_taken());
    }

    #[test]
    fn fully_decided_partial_state_is_terminal() {
        let (w, ev) = setup();
        let env = SchedulingEnv::new(&w, &ev, 3).unwrap();
        let prev = Mapping::all_on(&w, Device::BigCpu);
        let s = SchedState::from_partial_mapping(&env, &prev, w.len()).unwrap();
        assert!(env.is_terminal(&s));
        assert!(!s.is_dead());
        assert_eq!(env.mapping_of(&s), prev);
        assert!(env.reward(&s) > 0.0);
    }

    #[test]
    fn partial_mapping_rejects_shape_mismatch_and_flags_cap_violations() {
        let (w, ev) = setup();
        let env = SchedulingEnv::new(&w, &ev, 3).unwrap();
        // Wrong layer count for DNN 0.
        let bad = Mapping::new(vec![vec![Device::Gpu; 3]]);
        assert!(matches!(
            SchedState::from_partial_mapping(&env, &bad, 1),
            Err(HwError::MappingShape { .. })
        ));
        // A carried path with 4 stages under cap 3 must come back dead,
        // never silently searchable.
        let mut overcap = Mapping::all_on(&w, Device::Gpu);
        overcap.assign(0, 2, Device::BigCpu);
        overcap.assign(0, 5, Device::LittleCpu);
        overcap.assign(0, 8, Device::BigCpu);
        assert_eq!(overcap.stage_count(0), 7);
        let s = SchedState::from_partial_mapping(&env, &overcap, 1).unwrap();
        assert!(s.is_dead());
        assert!(env.is_terminal(&s));
    }

    /// Counts every mapping that reaches the evaluator.
    struct CountingModel {
        inner: AnalyticModel,
        queries: Cell<usize>,
    }

    impl ThroughputModel for CountingModel {
        fn evaluate(
            &self,
            workload: &Workload,
            mapping: &Mapping,
        ) -> Result<omniboost_hw::ThroughputReport, HwError> {
            self.queries.set(self.queries.get() + 1);
            self.inner.evaluate(workload, mapping)
        }

        fn evaluate_batch(
            &self,
            workload: &Workload,
            mappings: &[Mapping],
        ) -> Vec<Result<omniboost_hw::ThroughputReport, HwError>> {
            self.queries.set(self.queries.get() + mappings.len());
            self.inner.evaluate_batch(workload, mappings)
        }
    }

    #[test]
    fn search_evaluations_equal_actual_evaluator_queries() {
        // The §V-B accounting invariant: `SearchResult::evaluations` must
        // equal the number of mappings the evaluator actually scored —
        // dead states, memo hits and within-batch duplicates are free.
        let board = Board::hikey970();
        let w = Workload::from_ids([ModelId::AlexNet, ModelId::SqueezeNet]);
        let counting = CountingModel {
            inner: AnalyticModel::new(board),
            queries: Cell::new(0),
        };
        for batch in [1usize, 16] {
            let env = SchedulingEnv::new(&w, &counting, 3).unwrap();
            let before = counting.queries.get();
            let result =
                Mcts::new(SearchBudget::with_iterations(200).with_batch_size(batch)).run(&env, 9);
            let actual = counting.queries.get() - before;
            assert_eq!(
                result.evaluations, actual,
                "batch {batch}: reported {} vs actual {actual}",
                result.evaluations
            );
            // Cross-check against the env's own counters.
            assert_eq!(result.evaluations, env.memo_misses());
            assert!(result.live_terminal_rollouts <= result.terminal_rollouts);
            assert!(result.terminal_rollouts <= result.iterations);
        }
    }

    #[test]
    fn memo_and_dedup_counters_are_split() {
        let (w, ev) = setup();
        let env = SchedulingEnv::new(&w, &ev, 3).unwrap();
        let mut s = env.initial();
        while !env.is_terminal(&s) {
            s = env.apply(&s, Device::Gpu.index());
        }
        // Three copies in one batch: 1 evaluator query + 2 dedup hits.
        let (r, queries) = env.reward_batch_counted(&[s.clone(), s.clone(), s.clone()]);
        assert_eq!(queries, 1);
        assert!((r[0] - r[1]).abs() < 1e-12 && (r[1] - r[2]).abs() < 1e-12);
        assert_eq!(env.memo_misses(), 1);
        assert_eq!(env.batch_dedup_hits(), 2);
        assert_eq!(env.memo_hits(), 0, "same-round dups are not memo hits");
        // A later batch with the same assignment: a true memo hit.
        let (_, queries) = env.reward_batch_counted(&[s.clone()]);
        assert_eq!(queries, 0);
        assert_eq!(env.memo_hits(), 1);
        assert_eq!(env.batch_dedup_hits(), 2);
        assert_eq!(env.memo_misses(), 1);
    }

    #[test]
    fn two_assignments_on_one_key_are_both_memoized_with_their_own_rewards() {
        let mut memo = RewardMemo::default();
        let (a, b) = (vec![Device::Gpu; 5], vec![Device::BigCpu; 5]);
        memo.insert(7, &a, 1.25);
        assert_eq!(memo.get(7, &b), None, "a shared key is not a hit");
        memo.insert(7, &b, 2.5);
        assert_eq!(memo.get(7, &a), Some(1.25));
        assert_eq!(memo.get(7, &b), Some(2.5));
        assert_eq!(memo.get(8, &a), None, "the key is looked up first");
        let held: usize = memo.buckets.values().map(|b| 1 + b.collided.len()).sum();
        assert_eq!((memo.buckets.len(), held), (1, 2));
    }

    /// Scores every mapping with the analytic model and records each
    /// batch it is handed.
    struct Recording {
        inner: AnalyticModel,
        batches: RefCell<Vec<Vec<Mapping>>>,
    }

    impl Recording {
        fn new() -> Self {
            Self {
                inner: AnalyticModel::new(Board::hikey970()),
                batches: RefCell::new(Vec::new()),
            }
        }

        fn batches(&self) -> Vec<Vec<Mapping>> {
            self.batches.borrow().clone()
        }
    }

    impl ThroughputModel for Recording {
        fn evaluate(
            &self,
            workload: &Workload,
            mapping: &Mapping,
        ) -> Result<omniboost_hw::ThroughputReport, HwError> {
            self.inner.evaluate(workload, mapping)
        }

        fn evaluate_batch(
            &self,
            workload: &Workload,
            mappings: &[Mapping],
        ) -> Vec<Result<omniboost_hw::ThroughputReport, HwError>> {
            self.batches.borrow_mut().push(mappings.to_vec());
            self.inner.evaluate_batch(workload, mappings)
        }
    }

    /// A terminal state: a uniform random walk (which mostly dies on the
    /// stage cap) or a rollout (which never does).
    fn random_terminal<M: ThroughputModel>(
        env: &SchedulingEnv<'_, M>,
        rng: &mut rand::rngs::StdRng,
    ) -> SchedState {
        let uniform = rng.gen_bool(0.4);
        let mut s = env.initial();
        while !env.is_terminal(&s) {
            let action = if uniform {
                rng.gen_range(0..Device::COUNT)
            } else {
                env.rollout_action(&s, rng)
            };
            env.advance(&mut s, action);
        }
        s
    }

    /// Rounds of random terminal states — dead ones, duplicates within a
    /// round, repeats of earlier rounds — through the live path under
    /// `key_of` and through the reference, each on its own environment:
    /// the rewards' bits, the query counts, the counters and every batch
    /// the evaluator saw must agree.
    fn agrees_with_the_reference(workload: &Workload, seed: u64, key_of: fn(&[Device]) -> u64) {
        let (live_model, reference_model) = (Recording::new(), Recording::new());
        let live = SchedulingEnv::new(workload, &live_model, 3).unwrap();
        let reference_env = SchedulingEnv::new(workload, &reference_model, 3).unwrap();
        let reference = reference::ReferenceMemo::new(&reference_env);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut seen: Vec<SchedState> = (0..6).map(|_| random_terminal(&live, &mut rng)).collect();
        for round in 0..8 {
            let size = rng.gen_range(1..=16);
            let states: Vec<SchedState> = (0..size)
                .map(|_| {
                    if rng.gen_bool(0.35) {
                        seen.push(random_terminal(&live, &mut rng));
                        seen[seen.len() - 1].clone()
                    } else {
                        seen[rng.gen_range(0..seen.len())].clone()
                    }
                })
                .collect();
            let (got, got_queries) = live.reward_batch_keyed(&states, key_of);
            let (want, want_queries) = reference.reward_batch_counted(&states);
            for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                assert_eq!(g.to_bits(), w.to_bits(), "round {round}, state {i}");
            }
            assert_eq!(got_queries, want_queries, "round {round}");
            assert_eq!(
                (
                    live.memo_hits(),
                    live.batch_dedup_hits(),
                    live.memo_misses()
                ),
                reference.counters(),
                "round {round}"
            );
            assert_eq!(
                live_model.batches(),
                reference_model.batches(),
                "round {round}"
            );
        }
        let dead = seen.iter().filter(|s| s.is_dead()).count();
        assert!(
            dead > 0 && dead < seen.len(),
            "{dead} of {} dead",
            seen.len()
        );
        assert!(live.memo_hits() > 0 && live.batch_dedup_hits() > 0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The keyed memo is the reference memo, bit for bit, on random
        /// 1–5-DNN zoo mixes (repeats allowed) — under the real key, and
        /// with every assignment forced onto one key, so each hit and
        /// each dedup match stands on its assignment check alone.
        #[test]
        fn keyed_memo_equals_the_reference(dnns in 1usize..=5, seed in 0u64..1_000_000) {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let workload = Workload::from_ids(
                (0..dnns).map(|_| ModelId::ALL[rng.gen_range(0..ModelId::ALL.len())]),
            );
            agrees_with_the_reference(&workload, seed, assignment_key);
            agrees_with_the_reference(&workload, seed, |_| 0);
        }
    }
}
