//! End-to-end integration test on the paper's worked example: the
//! cyber-physical fire protection system of Fig. 1, Table I and Fig. 2.

use bdd_engine::{compile_fault_tree, VariableOrdering, ZbddAnalysis};
use fault_tree::examples::fire_protection_system;
use fault_tree::parser::{galileo, json};
use fault_tree::CutSet;
use ft_analysis::{brute, mocus::Mocus, quant};
use mpmcs::{AlgorithmChoice, EnumerationLimit, MpmcsOptions, MpmcsReport, MpmcsSolver};

/// Table I of the paper: probabilities and `-log` weights.
// The expected weights are the paper's printed 5-decimal values; 2.30259
// happens to round ln(10), which clippy's approx_constant flags.
#[allow(clippy::approx_constant)]
#[test]
fn table_one_weights_are_reproduced() {
    let tree = fire_protection_system();
    let encoding = MpmcsSolver::new().encode(&tree);
    let expected = [
        ("x1", 0.2, 1.60944),
        ("x2", 0.1, 2.30259),
        ("x3", 0.001, 6.90776),
        ("x4", 0.002, 6.21461),
        ("x5", 0.05, 2.99573),
        ("x6", 0.1, 2.30259),
        ("x7", 0.05, 2.99573),
    ];
    for (name, probability, weight) in expected {
        let id = tree.event_by_name(name).expect("event exists");
        assert_eq!(tree.event(id).probability().value(), probability);
        assert!((encoding.log_weights()[id.index()] - weight).abs() < 1e-4);
    }
}

/// Fig. 2 of the paper: the MPMCS is {x1, x2} with joint probability 0.02,
/// and every solving strategy agrees.
#[test]
fn mpmcs_is_x1_x2_for_every_algorithm() {
    let tree = fire_protection_system();
    for algorithm in [
        AlgorithmChoice::Portfolio,
        AlgorithmChoice::Oll,
        AlgorithmChoice::LinearSu,
    ] {
        let solver = MpmcsSolver::with_options(MpmcsOptions {
            algorithm,
            ..MpmcsOptions::new()
        });
        let solution = solver.solve(&tree).expect("solvable");
        assert_eq!(solution.event_names(&tree), vec!["x1", "x2"]);
        assert!((solution.probability - 0.02).abs() < 1e-9);
    }
}

/// The MaxSAT pipeline, the BDD engine's ZBDD route, MOCUS and brute force
/// all agree on the complete set of minimal cut sets and on the MPMCS.
#[test]
fn all_engines_agree_on_the_example() {
    let tree = fire_protection_system();

    let maxsat: Vec<CutSet> = MpmcsSolver::new()
        .enumerate(&tree, EnumerationLimit::All)
        .expect("solvable")
        .into_iter()
        .map(|s| s.cut_set)
        .collect();
    let zbdd = ZbddAnalysis::new(&tree).minimal_cut_sets(usize::MAX);
    let mocus = Mocus::new(&tree).minimal_cut_sets().expect("small tree");
    let brute_force = brute::all_minimal_cut_sets(&tree);

    let normalise = |mut sets: Vec<CutSet>| {
        sets.sort();
        sets
    };
    let reference = normalise(brute_force);
    assert_eq!(normalise(maxsat), reference);
    assert_eq!(normalise(zbdd), reference);
    assert_eq!(normalise(mocus), reference);
    assert_eq!(reference.len(), 5);

    let (bdd_best, bdd_probability) = ZbddAnalysis::new(&tree)
        .maximum_probability_mcs(&tree)
        .expect("has cuts");
    let (brute_best, brute_probability) = brute::maximum_probability_mcs(&tree).expect("has cuts");
    assert_eq!(bdd_best, brute_best);
    assert!((bdd_probability - brute_probability).abs() < 1e-15);
    assert!((bdd_probability - 0.02).abs() < 1e-12);
}

/// The exact top-event probability (BDD) matches brute force and is bracketed
/// by the classical MCS-based approximations.
#[test]
fn quantification_is_consistent_on_the_example() {
    let tree = fire_protection_system();
    let exact = brute::exact_top_event_probability(&tree);
    let bdd = compile_fault_tree(&tree, VariableOrdering::DepthFirst).top_event_probability(&tree);
    assert!((exact - bdd).abs() < 1e-12);

    let cut_sets = Mocus::new(&tree).minimal_cut_sets().expect("small tree");
    let rare = quant::rare_event_approximation(&tree, &cut_sets);
    let mcub = quant::min_cut_upper_bound(&tree, &cut_sets);
    let inclusion_exclusion =
        quant::inclusion_exclusion(&tree, &cut_sets, 32).expect("few cut sets");
    assert!((inclusion_exclusion - exact).abs() < 1e-12);
    assert!(exact <= mcub + 1e-15);
    assert!(mcub <= rare + 1e-15);
}

/// The example survives a round trip through both exchange formats and still
/// produces the same MPMCS.
#[test]
fn parsers_round_trip_the_example_and_preserve_the_answer() {
    let tree = fire_protection_system();
    let solver = MpmcsSolver::new();
    let reference = solver.solve(&tree).expect("solvable");

    let from_galileo = galileo::parse_galileo(&galileo::to_galileo_string(&tree)).expect("valid");
    let from_json = json::from_json_str(&json::to_json_string(&tree)).expect("valid");
    for parsed in [from_galileo, from_json] {
        let solution = solver.solve(&parsed).expect("solvable");
        assert!((solution.probability - reference.probability).abs() < 1e-12);
        let names: Vec<String> = solution.event_names(&parsed);
        assert_eq!(names, vec!["x1", "x2"]);
    }
}

/// The JSON report (Fig. 2 content) carries the MPMCS and tool metadata.
#[test]
fn report_matches_the_fig2_content() {
    let tree = fire_protection_system();
    let solution = MpmcsSolver::new().solve(&tree).expect("solvable");
    let report = MpmcsReport::new(&tree, &solution);
    let value: serde_json::Value = serde_json::from_str(&report.to_json()).expect("valid JSON");
    assert_eq!(value["tree"], "fire protection system");
    assert_eq!(value["num_events"], 7);
    assert_eq!(value["mpmcs"].as_array().unwrap().len(), 2);
    assert!((value["probability"].as_f64().unwrap() - 0.02).abs() < 1e-9);
}
