//! Step 5 and the overall pipeline driver: the [`MpmcsSolver`].

use std::time::{Duration, Instant};

use fault_tree::{CutSet, FaultTree};
use maxsat_solver::{
    IncrementalMaxSat, LinearSuSolver, MaxSatOutcome, MaxSatResult, MaxSatStats, PortfolioSolver,
};

use sat_solver::SolverConfig;

use crate::encode::{EncodingStyle, MpmcsEncoding, WeightScale};
use crate::error::MpmcsError;
use crate::verify;

/// Which MaxSAT solver a single MPMCS [`solve`](MpmcsSolver::solve) uses
/// (paper Step 5). Enumeration always drains the core-guided OLL session of
/// an [`McsStream`](crate::McsStream), whatever the choice.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum AlgorithmChoice {
    /// The parallel portfolio of heterogeneous solvers (the paper's design).
    /// The first entry to finish wins, so on trees with tied optima the
    /// reported cut set may vary between runs.
    Portfolio,
    /// Core-guided OLL: the deterministic default.
    #[default]
    Oll,
    /// Linear SAT–UNSAT only.
    LinearSu,
}

impl AlgorithmChoice {
    /// The former deterministic "sequential portfolio", kept as a name for
    /// [`AlgorithmChoice::Oll`]: it ran every portfolio entry to completion
    /// and always kept the first one, plain OLL, because every entry is exact
    /// and ties went to declaration order.
    #[allow(non_upper_case_globals)]
    pub const SequentialPortfolio: AlgorithmChoice = AlgorithmChoice::Oll;
}

/// Options controlling the MPMCS pipeline.
#[derive(Clone, Copy, Debug)]
pub struct MpmcsOptions {
    /// The MaxSAT solver of a single MPMCS (paper Step 5; see
    /// [`AlgorithmChoice`]).
    pub algorithm: AlgorithmChoice,
    /// The hard-clause encoding style (paper Step 1).
    pub encoding: EncodingStyle,
    /// The probability-to-weight scaling (paper Step 3).
    pub scale: WeightScale,
}

impl MpmcsOptions {
    /// The default options: core-guided OLL, direct encoding, default
    /// weight scale.
    pub fn new() -> Self {
        MpmcsOptions {
            algorithm: AlgorithmChoice::Oll,
            encoding: EncodingStyle::Direct,
            scale: WeightScale::default(),
        }
    }
}

impl Default for MpmcsOptions {
    fn default() -> Self {
        MpmcsOptions::new()
    }
}

/// One computed minimal cut set together with its probability and solver
/// metadata.
#[derive(Clone, Debug, PartialEq)]
pub struct MpmcsSolution {
    /// The events of the minimal cut set.
    pub cut_set: CutSet,
    /// Joint probability of the cut set (product of event probabilities).
    pub probability: f64,
    /// Total logarithmic weight `Σ −ln pᵢ` of the cut set.
    pub log_weight: f64,
    /// Name of the algorithm (or winning portfolio entry) that produced it.
    pub algorithm: String,
    /// MaxSAT statistics of the run.
    pub stats: MaxSatStats,
    /// Wall-clock time spent solving.
    pub duration: Duration,
}

impl MpmcsSolution {
    /// Paper Step 6 for one MaxSAT optimum: decodes `model` into a cut set,
    /// repairs its minimality, prices it and checks it against the tree.
    pub(crate) fn from_model(
        tree: &FaultTree,
        encoding: &MpmcsEncoding,
        model: &[bool],
        stats: MaxSatStats,
        duration: Duration,
    ) -> Result<Self, MpmcsError> {
        let cut_set = verify::minimise(tree, &encoding.decode(model));
        let (log_weight, probability) = encoding.cut_probability(&cut_set);
        verify::check_solution(tree, &cut_set, probability)?;
        Ok(MpmcsSolution {
            cut_set,
            probability,
            log_weight,
            algorithm: stats.algorithm.clone(),
            stats,
            duration,
        })
    }

    /// The names of the events in the cut set, in identifier order.
    pub fn event_names(&self, tree: &FaultTree) -> Vec<String> {
        self.cut_set
            .iter()
            .map(|e| tree.event(e).name().to_string())
            .collect()
    }
}

/// The MPMCS pipeline driver (paper Steps 1–6).
///
/// See the [crate-level documentation](crate) for an example.
#[derive(Clone, Debug, Default)]
pub struct MpmcsSolver {
    options: MpmcsOptions,
}

impl MpmcsSolver {
    /// Creates a solver with the default options (core-guided OLL).
    pub fn new() -> Self {
        MpmcsSolver {
            options: MpmcsOptions::new(),
        }
    }

    /// Creates a solver with explicit options.
    pub fn with_options(options: MpmcsOptions) -> Self {
        MpmcsSolver { options }
    }

    /// The options in effect.
    pub fn options(&self) -> &MpmcsOptions {
        &self.options
    }

    /// Encodes the tree (paper Steps 1–4) without solving. Useful for
    /// inspection and the benchmark harness.
    pub fn encode(&self, tree: &FaultTree) -> MpmcsEncoding {
        MpmcsEncoding::with_style(tree, self.options.encoding, self.options.scale)
    }

    /// Computes the Maximum Probability Minimal Cut Set of `tree`
    /// (paper Steps 1–6).
    ///
    /// # Errors
    ///
    /// * [`MpmcsError::NoCutSet`] when the top event cannot occur.
    /// * [`MpmcsError::Internal`] if an internal invariant is violated
    ///   (indicates a bug).
    pub fn solve(&self, tree: &FaultTree) -> Result<MpmcsSolution, MpmcsError> {
        let encoding = self.encode(tree);
        let start = Instant::now();
        let result = self.run_maxsat(&encoding);
        let duration = start.elapsed();
        match result.outcome {
            MaxSatOutcome::Unsatisfiable => Err(MpmcsError::NoCutSet),
            MaxSatOutcome::Optimum { ref model, .. } => {
                MpmcsSolution::from_model(tree, &encoding, model, result.stats, duration)
            }
        }
    }

    fn run_maxsat(&self, encoding: &MpmcsEncoding) -> MaxSatResult {
        let instance = encoding.instance();
        let result = match self.options.algorithm {
            AlgorithmChoice::Portfolio => PortfolioSolver::new().solve(instance),
            AlgorithmChoice::Oll => Some(IncrementalMaxSat::new(instance).solve()),
            AlgorithmChoice::LinearSu => {
                LinearSuSolver::new(SolverConfig::default()).solve(instance)
            }
        };
        result.expect("no interrupt hook is installed")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fault_tree::examples::{
        fire_protection_system, pressure_tank_system, redundant_sensor_network,
    };
    use fault_tree::FaultTreeBuilder;

    #[test]
    fn fire_protection_system_gives_the_paper_answer() {
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
            let solution = solver.solve(&tree).expect("the FPS tree has cut sets");
            assert_eq!(
                solution.event_names(&tree),
                vec!["x1", "x2"],
                "algorithm {algorithm:?}"
            );
            assert!((solution.probability - 0.02).abs() < 1e-9);
            assert!((solution.log_weight - 3.91202).abs() < 1e-4);
            assert!(tree.is_minimal_cut_set(&solution.cut_set));
        }
    }

    #[test]
    fn success_tree_encoding_gives_the_same_answer() {
        let tree = fire_protection_system();
        let solver = MpmcsSolver::with_options(MpmcsOptions {
            encoding: EncodingStyle::SuccessTree,
            algorithm: AlgorithmChoice::Oll,
            ..MpmcsOptions::new()
        });
        let solution = solver.solve(&tree).expect("solvable");
        assert_eq!(solution.event_names(&tree), vec!["x1", "x2"]);
        assert!((solution.probability - 0.02).abs() < 1e-9);
    }

    #[test]
    fn pressure_tank_mpmcs_is_the_most_probable_minimal_cut() {
        let tree = pressure_tank_system();
        let solution = MpmcsSolver::new().solve(&tree).expect("solvable");
        // Candidate MCSs: {tank} 1e-5, {relief, switch} 5e-6,
        // {relief, monitor, operator} 1e-6. The most probable is {tank}.
        assert_eq!(solution.cut_set.len(), 1);
        assert_eq!(
            solution.event_names(&tree),
            vec!["tank rupture (mechanical)"]
        );
        assert!((solution.probability - 1e-5).abs() < 1e-12);
    }

    #[test]
    fn voting_gates_are_supported() {
        let tree = redundant_sensor_network();
        let solution = MpmcsSolver::new().solve(&tree).expect("solvable");
        // Most probable MCS: {bus} 0.01 vs {power} 0.002 vs sensor pairs
        // (0.05*0.08=0.004, 0.05*0.1=0.005, 0.08*0.1=0.008) → {bus}.
        assert_eq!(solution.event_names(&tree), vec!["field bus fails"]);
        assert!((solution.probability - 0.01).abs() < 1e-12);
    }

    #[test]
    fn probability_one_events_are_handled() {
        let mut b = FaultTreeBuilder::new("certain");
        let certain = b.basic_event("certain", 1.0).unwrap();
        let a = b.basic_event("a", 0.3).unwrap();
        let and = b.and_gate("and", [certain.into(), a.into()]).unwrap();
        let tree = b.build(and.into()).unwrap();
        let solution = MpmcsSolver::new().solve(&tree).expect("solvable");
        // The MPMCS is {certain, a} with probability 0.3.
        assert_eq!(solution.cut_set.len(), 2);
        assert!((solution.probability - 0.3).abs() < 1e-12);
        assert!(tree.is_minimal_cut_set(&solution.cut_set));
    }

    #[test]
    fn single_event_tree() {
        let mut b = FaultTreeBuilder::new("single");
        let only = b.basic_event("only", 0.42).unwrap();
        let tree = b.build(only.into()).unwrap();
        let solution = MpmcsSolver::new().solve(&tree).expect("solvable");
        assert_eq!(solution.cut_set.len(), 1);
        assert!((solution.probability - 0.42).abs() < 1e-12);
    }

    #[test]
    fn ties_are_broken_consistently_between_algorithms() {
        // Two identical branches: both {a} and {b} have probability 0.5; any
        // of them is a valid MPMCS, but the probability must be 0.5.
        let mut b = FaultTreeBuilder::new("tie");
        let a = b.basic_event("a", 0.5).unwrap();
        let c = b.basic_event("b", 0.5).unwrap();
        let top = b.or_gate("top", [a.into(), c.into()]).unwrap();
        let tree = b.build(top.into()).unwrap();
        for algorithm in [AlgorithmChoice::Oll, AlgorithmChoice::LinearSu] {
            let solution = MpmcsSolver::with_options(MpmcsOptions {
                algorithm,
                ..MpmcsOptions::new()
            })
            .solve(&tree)
            .expect("solvable");
            assert_eq!(solution.cut_set.len(), 1);
            assert!((solution.probability - 0.5).abs() < 1e-12);
        }
    }

    #[test]
    fn solution_metadata_is_populated() {
        let tree = fire_protection_system();
        let solution = MpmcsSolver::new().solve(&tree).expect("solvable");
        assert!(!solution.algorithm.is_empty());
        assert!(solution.stats.sat_calls > 0);
    }
}
