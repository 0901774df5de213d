//! Board-occupancy view: print the model-zoo inventory, then compare how
//! the GPU-only baseline and an OmniBoost-style spread occupy the three
//! computing components of the board under a heavy mix — the "evenly
//! distribute the given workload" claim of the paper's abstract, made
//! visible.
//!
//! Run with `cargo run --release --example board_utilization`.

use omniboost::mcts::{Mcts, SchedulingEnv, SearchBudget};
use omniboost_hw::{Board, Device, Mapping, Workload};
use omniboost_models::{summary_table, zoo, ModelId};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!(
        "## model zoo inventory\n{}",
        summary_table(&zoo::build_all())
    );

    let board = Board::hikey970();
    let sim = board.simulator();
    let workload = Workload::from_ids([
        ModelId::Vgg19,
        ModelId::ResNet50,
        ModelId::InceptionV3,
        ModelId::Vgg16,
    ]);
    println!("## workload: {workload}\n");

    let show = |label: &str, mapping: &Mapping| -> Result<(), omniboost_hw::HwError> {
        let (report, util) = sim.evaluate_traced(&workload, mapping)?;
        println!("{label}: T = {:.2} inf/s", report.average);
        for d in Device::ALL {
            println!(
                "  {:<11} busy {:>5.1}%  ({} layers)",
                d.to_string(),
                util.device_busy[d.index()] * 100.0,
                mapping.layers_on(d)
            );
        }
        println!("  bus         busy {:>5.1}%\n", util.bus_busy * 100.0);
        Ok(())
    };

    show(
        "baseline (all on GPU)",
        &Mapping::all_on(&workload, Device::Gpu),
    )?;

    // Let the oracle-guided search distribute the workload.
    let env = SchedulingEnv::new(&workload, &sim, 3)?;
    let result = Mcts::new(SearchBudget::with_iterations(200)).run(&env, 1);
    let mapping = env.mapping_of(&result.best_state);
    show("omniboost-style spread", &mapping)?;
    println!("spread mapping:\n{mapping}");
    Ok(())
}
