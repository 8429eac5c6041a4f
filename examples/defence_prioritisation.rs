//! Defence prioritisation for a cyber-physical system.
//!
//! The MPMCS tells a defender where the *attacker's* (or nature's) easiest
//! route lies; the complementary questions are which components to harden
//! first and which minimal set of components, if kept healthy, most probably
//! keeps the system alive. This example combines three views on the
//! water-treatment SCADA tree:
//!
//! 1. the top-5 most probable minimal cut sets (MaxSAT enumeration),
//! 2. the per-event importance table (Birnbaum, Fussell–Vesely, RAW, RRW,
//!    criticality, structural),
//! 3. the maximum-reliability minimal path set — the cheapest "defence core".
//!
//! Run with: `cargo run --release --example defence_prioritisation`

use bdd_engine::{compile_fault_tree, VariableOrdering};
use fault_tree::examples::water_treatment_scada;
use fault_tree::transform::success_tree;
use ft_analysis::importance::ImportanceTable;
use ft_analysis::mocus::Mocus;
use mpmcs::{EnumerationLimit, MpmcsSolver};

fn main() {
    let tree = water_treatment_scada();
    let solver = MpmcsSolver::new();

    println!("system: {}\n", tree.name());

    // 1. The most probable ways the system fails.
    let top5 = solver
        .solve_top_k(&tree, 5)
        .expect("the SCADA tree has cut sets");
    println!("top 5 minimal cut sets by probability:");
    for (rank, solution) in top5.iter().enumerate() {
        println!(
            "  #{} {:<55} p = {:.5}",
            rank + 1,
            solution.cut_set.display_names(&tree),
            solution.probability
        );
    }

    // 2. Which single components matter most.
    let cut_sets = Mocus::new(&tree)
        .minimal_cut_sets()
        .expect("the SCADA tree is small");
    let exact = |t: &fault_tree::FaultTree| {
        compile_fault_tree(t, VariableOrdering::DepthFirst).top_event_probability(t)
    };
    let table = ImportanceTable::compute(&tree, &cut_sets, exact);
    println!("\nimportance measures (sorted by criticality):");
    print!("{}", table.render(&tree));

    // 3. The cheapest set of components that, kept working, keeps the plant
    //    up: the minimal path sets are the minimal cut sets of the success
    //    tree, priced with the component reliabilities.
    let success = success_tree(&tree);
    let path = solver
        .solve(&success)
        .expect("the SCADA tree has path sets");
    println!(
        "\nmaximum-reliability defence core: {} (survival probability {:.4})",
        path.cut_set.display_names(&tree),
        path.probability
    );
    println!("all minimal defence cores, by reliability:");
    for solution in solver
        .enumerate(&success, EnumerationLimit::AtMost(5))
        .expect("path sets exist")
    {
        println!(
            "  {:<60} r = {:.4}",
            solution.cut_set.display_names(&tree),
            solution.probability
        );
    }
}
