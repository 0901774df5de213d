//! Where one estimator forward spends its time: a batch of 16 masked
//! inputs through the compiled [`InferencePlan`], timed stage by stage
//! (lower / GEMM + epilogue / pool / head), fastest of N, with the
//! multiply's achieved GFLOP/s and the vector features the build was
//! compiled for. Start a kernel change from this breakdown, not from a
//! guess.
//!
//! Run with `cargo run --release --example profile_forward [reps]`.

use omniboost::estimator::{
    ActivationKind, EmbeddingTensor, EstimatorNet, InferencePlan, MaskTensor,
};
use omniboost::tensor::infer::{Activation, Probe, Stage};
use omniboost::tensor::Tensor;
use omniboost_hw::{Board, Mapping, NoiseModel, Workload};
use omniboost_models::{zoo, ModelId};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::{Duration, Instant};

const BATCH: usize = 16;
const STAGES: [Stage; 4] = [Stage::Lower, Stage::Gemm, Stage::Pool, Stage::Head];

/// Charges the time between two stage boundaries to the stage that was
/// running.
struct StageClock {
    running: Option<Stage>,
    since: Instant,
    spent: [Duration; STAGES.len()],
}

impl StageClock {
    fn start() -> Self {
        Self {
            running: None,
            since: Instant::now(),
            spent: [Duration::ZERO; STAGES.len()],
        }
    }

    fn switch(&mut self, next: Option<Stage>) {
        let now = Instant::now();
        if let Some(stage) = self.running {
            self.spent[stage as usize] += now - self.since;
        }
        self.running = next;
        self.since = now;
    }
}

impl Probe for StageClock {
    fn enter(&mut self, stage: Stage) {
        self.switch(Some(stage));
    }
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn main() {
    let reps: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(200);

    // Real serving inputs: masked embeddings of random mappings of a
    // 4-DNN mix (mostly zero rows). Weights are untrained — the kernels
    // do the same work whatever the values.
    let board = Board::hikey970();
    let embedding = EmbeddingTensor::profile(&board, &zoo::build_all(), NoiseModel::none());
    let workload = Workload::from_ids([
        ModelId::Vgg19,
        ModelId::ResNet50,
        ModelId::MobileNet,
        ModelId::AlexNet,
    ]);
    let mut rng = StdRng::seed_from_u64(7);
    let mut data = Vec::new();
    for _ in 0..BATCH {
        let mapping = Mapping::random(&workload, 3, &mut rng);
        let mask = MaskTensor::build(&embedding, &workload, &mapping).expect("zoo models");
        data.extend_from_slice(mask.apply(&embedding).data());
    }
    let (m, l) = (embedding.num_models(), embedding.max_layers());
    let x = Tensor::from_vec(data, &[BATCH, 3, m, l]);
    let mut net = EstimatorNet::new(m, l, ActivationKind::Gelu, 42);
    let mut plan = InferencePlan::compile(&mut net);

    let mut stage_best = [Duration::MAX; STAGES.len()];
    let (mut probed_best, mut plain_best) = (Duration::MAX, Duration::MAX);
    for _ in 0..reps {
        plan.stage_nchw(&x);
        let mut clock = StageClock::start();
        black_box(plan.forward_probed(&mut clock));
        clock.switch(None);
        for (best, spent) in stage_best.iter_mut().zip(clock.spent) {
            *best = (*best).min(spent);
        }
        probed_best = probed_best.min(clock.spent.iter().sum());

        plan.stage_nchw(&x);
        let t = Instant::now();
        black_box(plan.forward());
        plain_best = plain_best.min(t.elapsed());
    }

    // What the seven convolutions emit and multiply, from the plan's own
    // weight shapes `[OC, IC, 3, 3]`: two convs at full resolution, three
    // at half, two at quarter; 2·OC·IC·9 flops per output column.
    let (s0, s1, s2) = (m * l, (m / 2) * (l / 2), (m / 4) * (l / 4));
    let (mut emitted, mut flops) = (0usize, 0usize);
    for (weight, plane) in plan
        .params()
        .iter()
        .step_by(2)
        .zip([s0, s0, s1, s1, s1, s2, s2])
    {
        let (oc, ic) = (weight.shape()[0], weight.shape()[1]);
        emitted += oc * BATCH * plane;
        flops += 2 * oc * ic * 9 * BATCH * plane;
    }

    // The epilogue runs inside the GEMM stage, on each register tile as
    // it is stored. Its arithmetic alone, as a standalone pass over as
    // many values as a forward's convolutions emit, bounds its share.
    let mut values: Vec<f32> = Tensor::randn(&[emitted], 3).data().to_vec();
    let mut epilogue_best = Duration::MAX;
    for _ in 0..reps {
        let t = Instant::now();
        for v in values.iter_mut() {
            *v = Activation::Gelu.apply(*v);
        }
        epilogue_best = epilogue_best.min(t.elapsed());
        black_box(&mut values);
    }

    println!("one batch-{BATCH} forward on the {m}x{l} grid, fastest of {reps}:");
    for (stage, best) in STAGES.iter().zip(stage_best) {
        print!("  {:<8} {:>8.1} us", format!("{stage:?}"), us(best));
        if *stage == Stage::Gemm {
            print!(
                "   ({:.1} MFLOP at {:.1} GFLOP/s, epilogue included)",
                flops as f64 / 1e6,
                flops as f64 / best.as_secs_f64() / 1e9
            );
        }
        println!();
    }
    println!(
        "  sum      {:>8.1} us   ({:.1} us per mapping)",
        us(probed_best),
        us(probed_best) / BATCH as f64
    );
    println!(
        "  unprobed {:>8.1} us   ({:.1} us per mapping)",
        us(plain_best),
        us(plain_best) / BATCH as f64
    );
    println!(
        "  epilogue {:>8.1} us   (GELU alone over the {emitted} values the convs emit; inside Gemm above)",
        us(epilogue_best)
    );
    // Static, as compiled: the kernels have one form and take whatever
    // the build's target features give them.
    println!(
        "  kernel   fma: {}, avx512f: {}   (target features of this build; see .cargo/config.toml)",
        cfg!(target_feature = "fma"),
        cfg!(target_feature = "avx512f")
    );
}
