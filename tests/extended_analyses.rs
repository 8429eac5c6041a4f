//! Cross-crate integration tests for the extended analyses: the ZBDD cut-set
//! engine, minimal path sets, modular quantification, importance measures and
//! common-cause modelling, all cross-checked against the MaxSAT pipeline and
//! against each other on both the worked examples and generated trees.

use bdd_engine::{compile_fault_tree, VariableOrdering, ZbddAnalysis};
use fault_tree::examples::{
    aircraft_hydraulic_system, all_examples, fire_protection_system, water_treatment_scada,
};
use fault_tree::FaultTree;
use ft_analysis::brute;
use ft_analysis::ccf::{apply_beta_factor, CcfGroup};
use ft_analysis::importance::ImportanceTable;
use ft_analysis::mocus::Mocus;
use ft_analysis::modules::{independent_top_probability, ModularReport};
use ft_analysis::pathset::{is_minimal_path_set, maximum_reliability_path_set, minimal_path_sets};
use ft_generators::{modular_tree, replicated_fps, Family};
use mpmcs::{EnumerationLimit, MpmcsSolver};

fn exact_probability(tree: &FaultTree) -> f64 {
    compile_fault_tree(tree, VariableOrdering::DepthFirst).top_event_probability(tree)
}

#[test]
fn zbdd_and_maxsat_agree_on_the_mpmcs_probability_for_generated_trees() {
    let solver = MpmcsSolver::new();
    for family in [Family::RandomMixed, Family::AndHeavy, Family::VotingHeavy] {
        for seed in [1, 2, 3] {
            let tree = family.generate(120, seed);
            let maxsat = solver.solve(&tree).expect("generated trees have cut sets");
            let zbdd = ZbddAnalysis::new(&tree);
            let (_, p_zbdd) = zbdd
                .maximum_probability_mcs(&tree)
                .expect("generated trees have cut sets");
            assert!(
                (maxsat.probability - p_zbdd).abs() <= 1e-9 * maxsat.probability.max(1e-300),
                "{} seed {seed}: maxsat {} vs zbdd {}",
                family.name(),
                maxsat.probability,
                p_zbdd
            );
        }
    }
}

/// The ZBDD cut-set route agrees with exhaustive enumeration on every
/// bundled example: the same minimal cut sets, the same count, and the same
/// maximum-probability minimal cut set.
#[test]
fn zbdd_agrees_with_brute_force_on_all_examples() {
    for (name, tree) in all_examples() {
        let zbdd = ZbddAnalysis::new(&tree);
        let mut zbdd_cuts = zbdd.minimal_cut_sets(usize::MAX);
        zbdd_cuts.sort();
        let mut reference = brute::all_minimal_cut_sets(&tree);
        reference.sort();
        assert_eq!(zbdd_cuts, reference, "{name}");
        assert_eq!(zbdd.count() as usize, reference.len(), "{name}");
        let (best, p_zbdd) = zbdd.maximum_probability_mcs(&tree).expect("has cuts");
        let (_, p_brute) = brute::maximum_probability_mcs(&tree).expect("has cuts");
        assert!(tree.is_minimal_cut_set(&best), "{name}");
        assert!((p_zbdd - p_brute).abs() < 1e-12, "{name}");
    }
}

#[test]
fn zbdd_counts_match_full_maxsat_enumeration_on_the_examples() {
    let solver = MpmcsSolver::new();
    for (name, tree) in all_examples() {
        let enumerated = solver
            .enumerate(&tree, EnumerationLimit::All)
            .expect("examples have cut sets");
        let zbdd = ZbddAnalysis::new(&tree);
        assert_eq!(zbdd.count() as usize, enumerated.len(), "{name}");
    }
}

#[test]
fn maxsat_path_sets_agree_with_the_mocus_dual_on_the_examples() {
    let solver = MpmcsSolver::new();
    for (name, tree) in all_examples() {
        let via_maxsat = solver
            .solve_max_reliability_path_set(&tree)
            .expect("examples have path sets");
        let (_, best_reliability) = maximum_reliability_path_set(&tree)
            .expect("within budget")
            .expect("examples have path sets");
        assert!(
            (via_maxsat.reliability - best_reliability).abs() < 1e-9,
            "{name}: {} vs {}",
            via_maxsat.reliability,
            best_reliability
        );
        assert!(is_minimal_path_set(&tree, &via_maxsat.path_set), "{name}");
    }
}

#[test]
fn every_cut_set_intersects_every_path_set_on_generated_trees() {
    let solver = MpmcsSolver::new();
    for seed in [7, 8] {
        let tree = Family::RandomMixed.generate(80, seed);
        let cuts = solver
            .enumerate(&tree, EnumerationLimit::AtMost(20))
            .expect("solvable");
        let paths = minimal_path_sets(&tree).expect("within budget");
        for cut in &cuts {
            for path in &paths {
                assert!(
                    cut.cut_set.iter().any(|e| path.contains(e)),
                    "seed {seed}: disjoint cut and path set"
                );
            }
        }
    }
}

#[test]
fn modular_quantification_matches_the_bdd_on_modular_trees() {
    for seed in [1, 5] {
        let tree = modular_tree(8, 6, seed);
        let report = ModularReport::of(&tree);
        assert_eq!(report.repeated_events, 0);
        let propagated = independent_top_probability(&tree).expect("modular trees share no events");
        let exact = exact_probability(&tree);
        assert!(
            (propagated - exact).abs() < 1e-9,
            "seed {seed}: {propagated} vs {exact}"
        );
    }
    // Shared events (the hydraulic reservoir) defeat bottom-up propagation.
    assert!(independent_top_probability(&aircraft_hydraulic_system()).is_none());
}

#[test]
fn replicated_fps_keeps_the_paper_answer_at_every_scale() {
    let solver = MpmcsSolver::new();
    for copies in [1, 10, 50] {
        let tree = replicated_fps(copies);
        let solution = solver.solve(&tree).expect("solvable");
        assert_eq!(solution.cut_set.len(), 2, "{copies} copies");
        assert!(
            (solution.probability - 0.02).abs() < 1e-9,
            "{copies} copies: {}",
            solution.probability
        );
    }
}

#[test]
fn importance_table_is_consistent_with_the_mpmcs_ranking() {
    let tree = water_treatment_scada();
    let cut_sets = Mocus::new(&tree).minimal_cut_sets().expect("small tree");
    let table = ImportanceTable::compute(&tree, &cut_sets, exact_probability);
    let solution = MpmcsSolver::new().solve(&tree).expect("solvable");
    // The single most probable cut set here is a singleton; its event must
    // carry the highest Fussell–Vesely importance.
    assert_eq!(solution.cut_set.len(), 1);
    let mpmcs_event = solution.cut_set.iter().next().unwrap();
    let max_fv = table
        .fussell_vesely
        .iter()
        .cloned()
        .fold(f64::NEG_INFINITY, f64::max);
    assert!((table.fussell_vesely[mpmcs_event.index()] - max_fv).abs() < 1e-12);
    // RAW and RRW are at least 1 everywhere on a coherent tree.
    assert!(table.raw.iter().all(|&v| v >= 1.0 - 1e-12));
    assert!(table.rrw.iter().all(|&v| v >= 1.0 - 1e-12));
}

#[test]
fn beta_factor_ccf_shifts_the_mpmcs_towards_the_common_cause() {
    let tree = fire_protection_system();
    let solver = MpmcsSolver::new();
    let baseline = solver.solve(&tree).expect("solvable");
    assert_eq!(baseline.event_names(&tree), vec!["x1", "x2"]);
    let group = CcfGroup {
        name: "sensor common cause".to_string(),
        members: vec![
            tree.event_by_name("x1").unwrap(),
            tree.event_by_name("x2").unwrap(),
        ],
        beta: 0.6,
    };
    let with_ccf = apply_beta_factor(&tree, &group).expect("valid group");
    let solution = solver.solve(&with_ccf).expect("solvable");
    // With beta = 0.6 the shared cause (p ≈ 0.6·√0.02 ≈ 0.085) is a
    // single-event cut set more probable than the residual pair.
    assert_eq!(solution.event_names(&with_ccf), vec!["sensor common cause"]);
    assert!(solution.probability > baseline.probability);
    // The exact top-event probability grows as well.
    assert!(exact_probability(&with_ccf) > exact_probability(&tree));
}
