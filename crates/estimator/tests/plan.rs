//! The compiled inference plan against the `Module` graph it was
//! lowered from: same values, no allocation once warm.

use omniboost_estimator::{ActivationKind, EstimatorNet, InferencePlan};
use omniboost_tensor::{Module, Tensor};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const GRID: (usize, usize) = (11, 37);

/// A network with every parameter — biases too, which initialize to
/// zero — drawn at random.
fn random_net(kind: ActivationKind, seed: u64) -> EstimatorNet {
    let mut net = EstimatorNet::new(GRID.0, GRID.1, kind, seed);
    let mut rng = StdRng::seed_from_u64(seed);
    for p in net.params_mut() {
        for v in p.value.data_mut() {
            *v = rng.gen_range(-0.5f32..0.5);
        }
    }
    net
}

/// A batch shaped like real masked inputs: most `(device, model)` rows
/// all zero, the rest a zero-padded run of small positive cells.
fn masked_batch(n: usize, seed: u64) -> Tensor {
    let (m, l) = GRID;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut x = Tensor::zeros(&[n, 3, m, l]);
    for row in x.data_mut().chunks_exact_mut(l) {
        if rng.gen_bool(0.2) {
            let layers = rng.gen_range(1..=l);
            for v in &mut row[..layers] {
                *v = rng.gen_range(0.0f32..2.0);
            }
        }
    }
    x
}

fn run(plan: &mut InferencePlan, x: &Tensor) -> Vec<f32> {
    plan.stage_nchw(x);
    plan.forward().to_vec()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Plan output `==` the graph's forward, element for element: random
    /// weights, both activation families (ReLU in the residual blocks
    /// too), batch sizes from `n == 1`, ragged 16-wide tails and short
    /// last blocks.
    #[test]
    fn plan_equals_graph_forward(seed in 0u64..1_000_000, n in 1usize..=40, relu in 0usize..2) {
        let kind = [ActivationKind::Gelu, ActivationKind::Relu][relu];
        let mut net = random_net(kind, seed);
        let mut plan = InferencePlan::compile(&mut net);
        let x = masked_batch(n, seed ^ 0x5EED);
        let want = net.forward(&x);
        prop_assert_eq!(want.shape(), &[n, 3]);
        prop_assert!(want.data().iter().all(|v| v.is_finite()));
        prop_assert_eq!(run(&mut plan, &x), want.data());
    }
}

/// One plan instance across batch sizes 16 → 3 → 16 → 1: a smaller
/// batch must not see the larger one's leftovers (lowered samples, tail
/// lanes, activation buffers), and once the largest size has run the
/// plan's buffers stop growing — serving allocates nothing when warm.
#[test]
fn plan_is_reusable_across_batch_sizes_without_growing() {
    let mut net = random_net(ActivationKind::Gelu, 21);
    let mut plan = InferencePlan::compile(&mut net);
    let mut warm = None;
    for (seed, n) in [16usize, 3, 16, 1].into_iter().enumerate() {
        let x = masked_batch(n, seed as u64);
        assert_eq!(run(&mut plan, &x), net.forward(&x).data(), "n={n}");
        let capacity = plan.scratch_capacity();
        assert_eq!(*warm.get_or_insert(capacity), capacity, "grew at n={n}");
    }
}
