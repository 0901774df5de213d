//! Extensibility: add a user-defined DNN to the scheduling dataset —
//! one of the paper's headline claims is that OmniBoost accommodates new
//! models with minimal effort (kernel-granular profiling, §IV-A).
//!
//! The workflow mirrors what a user of the real framework would do:
//! describe the network's layers, profile it into the embedding dataset,
//! regenerate the estimator, then schedule mixes containing it.
//!
//! Run with `cargo run --release --example custom_model`.

use omniboost::mcts::{Mcts, SchedulingEnv, SearchBudget};
use omniboost::Runtime;
use omniboost_hw::{Board, Device, Mapping, Workload};
use omniboost_models::{zoo, DnnModelBuilder, ModelId, TensorShape};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Describe a custom network ("TinyDet", a detection-style
    //    backbone) with the same declarative builder the zoo uses.
    let tinydet = DnnModelBuilder::new(TensorShape::new(3, 320, 320))
        .conv("stem", 24, 3, 2, 1)
        .dw_conv("dw1", 3, 1, 1)
        .conv("pw1", 48, 1, 1, 0)
        .dw_conv("dw2", 3, 2, 1)
        .conv("pw2", 96, 1, 1, 0)
        .residual_basic("res1", 96, 1)
        .residual_basic("res2", 96, 1)
        .conv("neck", 128, 3, 2, 1)
        .global_avg_pool("gap")
        .fc("head", 80)
        .build("tinydet")?;
    println!("custom model: {tinydet}");

    let board = Board::hikey970();
    let runtime = Runtime::new(board.clone());

    // 2. Schedule a mix containing the custom model. The simulator can
    //    evaluate any described model directly; for the CNN-estimator
    //    path you would regenerate the embedding dataset with the model
    //    included (DatasetConfig over zoo + custom) — here we use the
    //    board oracle to keep the example fast.
    let workload = Workload::new(vec![
        tinydet,
        zoo::build(ModelId::MobileNet),
        zoo::build(ModelId::Vgg16),
    ]);
    let oracle = board.simulator();
    let env = SchedulingEnv::new(&workload, &oracle, 3)?;
    let result = Mcts::new(SearchBudget::with_iterations(300)).run(&env, 42);
    let mapping = env.mapping_of(&result.best_state);

    println!("\nbest mapping found:\n{mapping}");
    let ours = runtime.measure(&workload, &mapping)?;
    let baseline = runtime.measure(&workload, &Mapping::all_on(&workload, Device::Gpu))?;
    println!(
        "\nT = {:.2} inf/s vs {:.2} on the GPU-only baseline ({:.2}x)",
        ours.average,
        baseline.average,
        ours.average / baseline.average
    );
    Ok(())
}
