//! Integration tests spanning every crate: the full design-time →
//! run-time → measurement pipeline of OmniBoost and all baselines.

use omniboost::baselines::{Genetic, GeneticConfig, GpuOnly, Mosaic, MosaicConfig, RandomSplit};
use omniboost::mcts::SearchBudget;
use omniboost::{OmniBoost, OmniBoostConfig, OracleOmniBoost, Runtime};
use omniboost_hw::{Board, Device, HwError, Mapping, Scheduler, Workload};
use omniboost_models::ModelId;

fn heavy_mix() -> Workload {
    Workload::from_ids([
        ModelId::Vgg19,
        ModelId::ResNet50,
        ModelId::InceptionV3,
        ModelId::Vgg16,
    ])
}

/// Every scheduler produces a valid, stage-cap-respecting mapping and a
/// positive measured throughput.
#[test]
fn all_schedulers_produce_valid_measurable_mappings() {
    let board = Board::hikey970();
    let runtime = Runtime::new(board.clone());
    let workload = Workload::from_ids([ModelId::AlexNet, ModelId::MobileNet, ModelId::SqueezeNet]);

    let mut schedulers: Vec<Box<dyn Scheduler>> = vec![
        Box::new(GpuOnly::new()),
        Box::new(RandomSplit::new(3)),
        Box::new(Mosaic::with_config(MosaicConfig {
            training_samples: 600,
            ..MosaicConfig::default()
        })),
        Box::new(Genetic::new(GeneticConfig {
            population: 8,
            generations: 3,
            ..GeneticConfig::default()
        })),
        Box::new(OracleOmniBoost::new(
            SearchBudget::with_iterations(60),
            3,
            1,
        )),
    ];
    for s in schedulers.iter_mut() {
        let outcome = runtime.run(s.as_mut(), &workload).expect("run succeeds");
        outcome.mapping.validate(&workload).expect("valid mapping");
        assert!(
            outcome.mapping.max_stages() <= 3,
            "{} violated the stage cap",
            s.name()
        );
        assert!(
            outcome.report.average > 0.0,
            "{} produced zero throughput",
            s.name()
        );
    }
}

/// The full OmniBoost flow: train once, schedule several different mixes
/// without retraining, and beat the baseline on a heavy mix.
#[test]
fn omniboost_trains_once_and_beats_baseline_on_heavy_mix() {
    let board = Board::hikey970();
    let runtime = Runtime::new(board.clone());
    let (mut omniboost, history) = OmniBoost::design_time(&board, OmniBoostConfig::quick());
    assert!(
        history.final_train_loss() < history.train[0],
        "training never improved: {:?}",
        history.train
    );

    let heavy = heavy_mix();
    let ours = runtime.run(&mut omniboost, &heavy).expect("omniboost run");
    let base = runtime
        .run(&mut GpuOnly::new(), &heavy)
        .expect("baseline run");
    // The quick config trains a reduced estimator (60 workloads, 20
    // epochs); it must still clearly beat the saturated baseline. This
    // is mix-1 of Fig. 5b; `omniboost-bench`'s `paper` binary prints the
    // full configuration's result on it.
    assert!(
        ours.report.average > base.report.average * 1.2,
        "omniboost {} vs baseline {}",
        ours.report.average,
        base.report.average
    );

    // Re-query with different mixes, no retraining.
    for ids in [
        vec![ModelId::MobileNet, ModelId::SqueezeNet],
        vec![ModelId::ResNet34, ModelId::AlexNet, ModelId::Vgg13],
    ] {
        let w = Workload::from_ids(ids);
        let out = runtime.run(&mut omniboost, &w).expect("requery");
        out.mapping.validate(&w).expect("valid mapping");
    }
}

/// The board refuses six concurrent DNNs through every entry point,
/// mirroring §V-A's unresponsiveness observation.
#[test]
fn six_concurrent_dnns_are_rejected_everywhere() {
    let board = Board::hikey970();
    let runtime = Runtime::new(board.clone());
    let w = Workload::from_ids(vec![ModelId::SqueezeNet; 6]);
    for result in [
        runtime.run(&mut GpuOnly::new(), &w).map(|_| ()),
        runtime
            .measure(&w, &Mapping::all_on(&w, Device::Gpu))
            .map(|_| ()),
        board.admit(&w),
    ] {
        assert!(matches!(
            result,
            Err(HwError::Unresponsive { dnns: 6, max: 5 })
        ));
    }
}

/// The GA and the oracle-guided MCTS explore the same space with the same
/// evaluator; both must land within a sane band of each other on a small
/// problem (neither should be pathologically bad).
#[test]
fn ga_and_oracle_mcts_land_in_the_same_band() {
    let board = Board::hikey970();
    let runtime = Runtime::new(board.clone());
    let workload = heavy_mix();

    let mut ga = Genetic::new(GeneticConfig {
        population: 12,
        generations: 8,
        ..GeneticConfig::default()
    });
    let ga_t = runtime
        .run(&mut ga, &workload)
        .expect("ga run")
        .report
        .average;
    let mut mcts = OracleOmniBoost::new(SearchBudget::with_iterations(250), 3, 3);
    let mcts_t = runtime
        .run(&mut mcts, &workload)
        .expect("mcts run")
        .report
        .average;
    let ratio = mcts_t / ga_t;
    assert!(
        (0.5..2.5).contains(&ratio),
        "mcts {mcts_t} vs ga {ga_t} diverge unreasonably"
    );
}

/// Decision latency ordering of §V-B: baseline fastest, then MOSAIC
/// queries, with GA slowest at matched evaluation budgets.
#[test]
fn decision_latency_ordering_matches_paper() {
    let board = Board::hikey970();
    let runtime = Runtime::new(board.clone());
    let workload = heavy_mix();

    let base = runtime
        .run(&mut GpuOnly::new(), &workload)
        .expect("baseline");
    let mut mosaic = Mosaic::with_config(MosaicConfig {
        training_samples: 600,
        ..MosaicConfig::default()
    });
    mosaic.train(&board);
    let mos = runtime.run(&mut mosaic, &workload).expect("mosaic");
    let mut ga = Genetic::new(GeneticConfig {
        population: 16,
        generations: 12,
        ..GeneticConfig::default()
    });
    let ga_out = runtime.run(&mut ga, &workload).expect("ga");

    assert!(base.decision_time < mos.decision_time);
    assert!(
        mos.decision_time < ga_out.decision_time,
        "mosaic {:?} should be faster than ga {:?}",
        mos.decision_time,
        ga_out.decision_time
    );
}
