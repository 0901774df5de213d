//! Diagnostic probe (not a paper artefact): estimator prediction vs board
//! truth on canonical mappings, plus what MCTS/MOSAIC actually choose.

use omniboost::baselines::Mosaic;
use omniboost::estimator::{CnnEstimator, DatasetConfig, TrainConfig};
use omniboost::mcts::{Mcts, SchedulingEnv, SearchBudget};
use omniboost_hw::{Board, Device, Mapping, Scheduler, ThroughputModel, Workload};
use omniboost_models::ModelId;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let board = Board::hikey970();
    let sim = board.simulator();
    let dataset = DatasetConfig {
        num_workloads: 2000,
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

    let w = Workload::from_ids([ModelId::Vgg19, ModelId::ResNet50, ModelId::InceptionV3]);
    let mut rng = StdRng::seed_from_u64(1);

    let mut cases: Vec<(String, Mapping)> = vec![
        ("all-gpu".into(), Mapping::all_on(&w, Device::Gpu)),
        ("all-big".into(), Mapping::all_on(&w, Device::BigCpu)),
        ("all-little".into(), Mapping::all_on(&w, Device::LittleCpu)),
        (
            "spread g/b/l".into(),
            Mapping::new(vec![
                vec![Device::Gpu; 24],
                vec![Device::BigCpu; 20],
                vec![Device::LittleCpu; 20],
            ]),
        ),
    ];
    for i in 0..4 {
        cases.push((format!("random-{i}"), Mapping::random(&w, 3, &mut rng)));
    }
    let env = SchedulingEnv::new(&w, &est, 3).unwrap();
    let result = Mcts::new(SearchBudget::with_iterations(500)).run(&env, 7);
    cases.push(("mcts-choice".into(), env.mapping_of(&result.best_state)));
    let mut mosaic = Mosaic::new();
    cases.push(("mosaic-choice".into(), mosaic.decide(&board, &w).unwrap()));

    println!("{:<14} {:>10} {:>10}", "mapping", "predicted", "measured");
    for (name, m) in &cases {
        let pred = est.predict_average(&w, m).unwrap();
        let truth = sim.evaluate(&w, m).unwrap().average;
        println!("{name:<14} {pred:>10.3} {truth:>10.3}");
    }
    println!("\nmcts mapping:\n{}", cases[cases.len() - 2].1);
    println!("\nmosaic mapping:\n{}", cases[cases.len() - 1].1);
}
