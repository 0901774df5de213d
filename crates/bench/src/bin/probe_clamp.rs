//! Diagnostic probe (not a paper artefact): does the feasibility clamp
//! stop the MCTS from exploiting a small-data estimator?

use omniboost::estimator::{CnnEstimator, DatasetConfig, TrainConfig};
use omniboost::mcts::{Mcts, SchedulingEnv, SearchBudget};
use omniboost_hw::{Board, Device, Mapping, ThroughputModel, Workload};
use omniboost_models::ModelId;

fn main() {
    let board = Board::hikey970();
    let sim = board.simulator();
    let dataset = DatasetConfig {
        num_workloads: 500,
        ..DatasetConfig::default()
    }
    .generate(&board);
    let (est, hist) = CnnEstimator::train(
        &board,
        &dataset,
        &TrainConfig {
            epochs: 100,
            ..TrainConfig::default()
        },
    );
    println!("val loss {:.4}", hist.final_validation_loss());

    for mix in [
        vec![ModelId::Vgg19, ModelId::ResNet50, ModelId::InceptionV3],
        vec![
            ModelId::Vgg19,
            ModelId::ResNet50,
            ModelId::InceptionV3,
            ModelId::Vgg16,
        ],
        vec![
            ModelId::ResNet34,
            ModelId::AlexNet,
            ModelId::MobileNet,
            ModelId::SqueezeNet,
            ModelId::Vgg13,
        ],
    ] {
        let w = Workload::from_ids(mix);
        let base = sim
            .evaluate(&w, &Mapping::all_on(&w, Device::Gpu))
            .unwrap()
            .average;
        let env = SchedulingEnv::new(&w, &est, 3).unwrap();
        let result = Mcts::new(SearchBudget::default()).run(&env, 7);
        let mapping = env.mapping_of(&result.best_state);
        let pred = est.predict_average(&w, &mapping).unwrap();
        let truth = sim.evaluate(&w, &mapping).unwrap().average;
        println!(
            "{w}: baseline {base:.3} | mcts pred {pred:.3} measured {truth:.3} -> {:.2}x",
            truth / base
        );
    }
}
