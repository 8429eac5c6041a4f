//! Cross-validation of the MaxSAT pipeline against independent oracles
//! (brute force, BDD/ZBDD, MOCUS) on randomly generated fault trees.

use bdd_engine::{compile_fault_tree, VariableOrdering, ZbddAnalysis};
use fault_tree::CutSet;
use ft_analysis::{brute, mocus::Mocus};
use ft_generators::{random_tree, RandomTreeConfig};
use mpmcs::{AlgorithmChoice, EncodingStyle, MpmcsOptions, MpmcsSolver};

fn small_config(num_events: usize) -> RandomTreeConfig {
    RandomTreeConfig {
        num_events,
        ..RandomTreeConfig::default()
    }
}

/// On trees small enough for exhaustive enumeration, the MaxSAT answer always
/// has exactly the optimal probability, for every algorithm and encoding.
#[test]
fn maxsat_matches_the_brute_force_optimum_on_random_trees() {
    for seed in 0..40u64 {
        let num_events = 3 + (seed as usize % 10);
        let tree = random_tree(&small_config(num_events), seed);
        let (_, expected) = brute::maximum_probability_mcs(&tree).expect("monotone trees cut");
        for (algorithm, encoding) in [
            (AlgorithmChoice::Oll, EncodingStyle::Direct),
            (AlgorithmChoice::Oll, EncodingStyle::SuccessTree),
            (AlgorithmChoice::LinearSu, EncodingStyle::Direct),
        ] {
            let solver = MpmcsSolver::with_options(MpmcsOptions {
                algorithm,
                encoding,
                ..MpmcsOptions::new()
            });
            let solution = solver.solve(&tree).expect("solvable");
            assert!(
                (solution.probability - expected).abs() <= 1e-9 * expected.max(1e-300),
                "seed {seed}: {algorithm:?}/{encoding:?} found {} expected {expected}",
                solution.probability
            );
            assert!(tree.is_minimal_cut_set(&solution.cut_set), "seed {seed}");
        }
    }
}

/// The three independent cut-set engines (brute force, the BDD engine's
/// ZBDD, MOCUS) agree on the full family of minimal cut sets of random trees.
#[test]
fn cut_set_engines_agree_on_random_trees() {
    for seed in 100..130u64 {
        let num_events = 4 + (seed as usize % 8);
        let tree = random_tree(&small_config(num_events), seed);
        let normalise = |mut sets: Vec<CutSet>| {
            sets.sort();
            sets
        };
        let reference = normalise(brute::all_minimal_cut_sets(&tree));
        let zbdd = normalise(ZbddAnalysis::new(&tree).minimal_cut_sets(usize::MAX));
        let mocus = normalise(Mocus::new(&tree).minimal_cut_sets().expect("small"));
        assert_eq!(zbdd, reference, "seed {seed}");
        assert_eq!(mocus, reference, "seed {seed}");
        // And the MaxSAT enumeration finds the same number of cut sets.
        let enumerated = MpmcsSolver::with_options(MpmcsOptions {
            algorithm: AlgorithmChoice::Oll,
            ..MpmcsOptions::new()
        })
        .enumerate(&tree, mpmcs::EnumerationLimit::All)
        .expect("solvable");
        assert_eq!(enumerated.len(), reference.len(), "seed {seed}");
    }
}

/// The exact BDD probability matches the exhaustive computation, under both
/// variable orderings.
#[test]
fn bdd_probability_matches_brute_force_on_random_trees() {
    for seed in 200..225u64 {
        let num_events = 4 + (seed as usize % 9);
        let tree = random_tree(&small_config(num_events), seed);
        let expected = brute::exact_top_event_probability(&tree);
        for ordering in [VariableOrdering::Natural, VariableOrdering::DepthFirst] {
            let got = compile_fault_tree(&tree, ordering).top_event_probability(&tree);
            assert!(
                (got - expected).abs() < 1e-10,
                "seed {seed} ordering {ordering:?}: {got} vs {expected}"
            );
        }
    }
}

/// Enumeration in probability order: the sequence is non-increasing, free of
/// duplicates, and each element is a verified minimal cut set.
#[test]
fn enumeration_order_and_minimality_hold_on_random_trees() {
    for seed in 300..315u64 {
        let tree = random_tree(&small_config(10), seed);
        let solutions = MpmcsSolver::with_options(MpmcsOptions {
            algorithm: AlgorithmChoice::Oll,
            ..MpmcsOptions::new()
        })
        .solve_top_k(&tree, 6)
        .expect("solvable");
        assert!(!solutions.is_empty());
        for pair in solutions.windows(2) {
            assert!(
                pair[0].probability >= pair[1].probability - 1e-12,
                "seed {seed}: enumeration must be non-increasing"
            );
            assert_ne!(pair[0].cut_set, pair[1].cut_set, "seed {seed}");
        }
        for solution in &solutions {
            assert!(tree.is_minimal_cut_set(&solution.cut_set), "seed {seed}");
        }
    }
}
