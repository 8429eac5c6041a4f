//! Integration tests exercising the solving substrates (SAT, MaxSAT, WCNF,
//! DIMACS) through the fault-tree encodings, plus the CLI-facing formats.

use fault_tree::examples::{fire_protection_system, redundant_sensor_network};
use fault_tree::StructureFormula;
use ft_generators::{random_tree, RandomTreeConfig};
use maxsat_solver::{wcnf, MaxSatAlgorithm, OllSolver, PortfolioSolver};
use mpmcs::{AlgorithmChoice, MpmcsOptions, MpmcsSolver};
use sat_solver::tseitin::TseitinEncoder;
use sat_solver::{dimacs, SolveResult, Solver};

/// The Tseitin CNF of the failure formula is satisfiable, and conjoined with
/// the success formula it becomes unsatisfiable (f ∧ ¬f).
#[test]
fn failure_and_success_formulas_are_contradictory() {
    for tree in [fire_protection_system(), redundant_sensor_network()] {
        let formula = StructureFormula::of(&tree);
        let mut encoder = TseitinEncoder::with_reserved_vars(tree.num_events());
        encoder.assert_true(formula.failure_expr());
        let mut solver = Solver::from_cnf(encoder.cnf());
        assert!(solver.solve().is_sat(), "{}", tree.name());

        let mut encoder = TseitinEncoder::with_reserved_vars(tree.num_events());
        encoder.assert_true(formula.failure_expr());
        encoder.assert_true(&formula.success_expr());
        let mut solver = Solver::from_cnf(encoder.cnf());
        assert_eq!(solver.solve(), SolveResult::Unsat, "{}", tree.name());
    }
}

/// The hard part of the MPMCS encoding survives a DIMACS round trip.
#[test]
fn dimacs_round_trip_of_the_encoding_hard_clauses() {
    let tree = fire_protection_system();
    let formula = StructureFormula::of(&tree);
    let mut encoder = TseitinEncoder::with_reserved_vars(tree.num_events());
    encoder.assert_true(formula.failure_expr());
    let cnf = encoder.into_cnf();
    let text = dimacs::to_dimacs_string(&cnf);
    let parsed = dimacs::parse_dimacs_str(&text).expect("round trip");
    assert_eq!(parsed.num_clauses(), cnf.num_clauses());
    let mut solver = Solver::from_cnf(&parsed);
    assert!(solver.solve().is_sat());
}

/// The full Weighted Partial MaxSAT instance survives a WCNF round trip and
/// still has the same optimum — so the encoding can be exported to any
/// off-the-shelf MaxSAT solver, as the original tool does.
#[test]
fn wcnf_round_trip_preserves_the_optimum() {
    let tree = fire_protection_system();
    let encoding = MpmcsSolver::new().encode(&tree);
    let text = wcnf::to_wcnf_string(encoding.instance());
    let parsed = wcnf::parse_wcnf_str(&text).expect("round trip");
    let original = OllSolver::default().solve(encoding.instance());
    let reparsed = OllSolver::default().solve(&parsed);
    assert_eq!(original.outcome.cost(), reparsed.outcome.cost());
    // Decoding the re-parsed model still gives the paper's MPMCS.
    let cut = encoding.decode(reparsed.outcome.model().expect("optimum"));
    assert_eq!(cut.display_names(&tree), "{x1, x2}");
}

/// The parallel portfolio and the plain OLL solver agree on generated
/// encodings of moderate size.
#[test]
fn portfolio_and_oll_agree_on_generated_encodings() {
    for seed in 0..5u64 {
        let tree = random_tree(
            &RandomTreeConfig {
                num_events: 60,
                ..RandomTreeConfig::default()
            },
            seed,
        );
        let encoding = MpmcsSolver::new().encode(&tree);
        let portfolio = PortfolioSolver::default().solve(encoding.instance());
        let oll = OllSolver::default().solve(encoding.instance());
        assert_eq!(portfolio.outcome.cost(), oll.outcome.cost(), "seed {seed}");
    }
}

/// A moderately sized generated tree runs through the full pipeline quickly
/// and all algorithm choices agree on the optimal probability.
#[test]
fn all_algorithms_agree_on_a_midsize_generated_tree() {
    let tree = random_tree(
        &RandomTreeConfig {
            num_events: 150,
            ..RandomTreeConfig::default()
        },
        9,
    );
    let mut probabilities = Vec::new();
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
        assert!(tree.is_minimal_cut_set(&solution.cut_set));
        probabilities.push(solution.probability);
    }
    for pair in probabilities.windows(2) {
        assert!((pair[0] - pair[1]).abs() <= 1e-9 * pair[0].max(1e-300));
    }
}
