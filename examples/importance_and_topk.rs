//! Risk prioritisation on the pressure-tank system: top-k most probable
//! minimal cut sets, exact top-event probability via the BDD engine, and
//! Birnbaum / Fussell-Vesely importance measures.
//!
//! ```text
//! cargo run --release --example importance_and_topk
//! ```

use bdd_engine::{compile_fault_tree, VariableOrdering};
use fault_tree::examples::pressure_tank_system;
use ft_analysis::importance::{self, ImportanceTable};
use ft_analysis::{mocus::Mocus, quant};
use ft_backend::{AnalysisBackend, BackendConfig, BddBackend};
use mpmcs::MpmcsSolver;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let tree = pressure_tank_system();
    println!(
        "analysing '{}' ({} events, {} gates)\n",
        tree.name(),
        tree.num_events(),
        tree.num_gates()
    );

    // Top-3 most probable minimal cut sets via the MaxSAT pipeline.
    let solver = MpmcsSolver::new();
    println!("top-3 most probable minimal cut sets (MaxSAT):");
    for (rank, solution) in solver.solve_top_k(&tree, 3)?.iter().enumerate() {
        println!(
            "  #{} {:<45} p = {:.3e}",
            rank + 1,
            solution.cut_set.display_names(&tree),
            solution.probability
        );
    }

    // Exact top-event probability (BDD, Shannon decomposition) and MCS-based
    // bounds (classical quantification).
    let compiled = compile_fault_tree(&tree, VariableOrdering::DepthFirst);
    let exact = compiled.top_event_probability(&tree);
    let cut_sets = Mocus::new(&tree).minimal_cut_sets()?;
    println!("\ntop event probability:");
    println!("  exact (BDD)              = {:.6e}", exact);
    println!(
        "  rare-event approximation = {:.6e}",
        quant::rare_event_approximation(&tree, &cut_sets)
    );
    println!(
        "  min-cut upper bound      = {:.6e}",
        quant::min_cut_upper_bound(&tree, &cut_sets)
    );

    // Importance measures: which component matters most? The table
    // requantifies the one compiled diagram under re-priced events.
    let mut requantifier = compiled.requantifier();
    let table = ImportanceTable::repriced(&tree, &cut_sets, |prices| {
        requantifier.probability_with(|event| prices[event.index()])
    });
    println!("\nimportance measures (Birnbaum / Fussell-Vesely):");
    for (event, importance_value) in importance::rank(&table.birnbaum) {
        println!(
            "  {:<35} I_B = {:.3e}   I_FV = {:.3}",
            tree.event(event).name(),
            importance_value,
            table.fussell_vesely[event.index()]
        );
    }

    // Cross-check: the BDD baseline agrees with the MaxSAT MPMCS.
    let config = BackendConfig::default();
    let bdd = BddBackend::new(config.bdd_ordering, config.bdd_path_budget).mpmcs(&tree)?;
    let maxsat = solver.solve(&tree)?;
    assert_eq!(bdd.cut_set, maxsat.cut_set);
    assert!((bdd.probability - maxsat.probability).abs() < 1e-12);
    println!("\nBDD baseline and MaxSAT pipeline agree on the MPMCS.");
    Ok(())
}
