//! The dual optimisation: maximum-reliability minimal path sets via MaxSAT.
//!
//! The paper's MPMCS asks for the most probable minimal way the system
//! *fails*. The same machinery, pointed at the success tree (paper Step 1),
//! answers the dual question: which inclusion-minimal set of components, if
//! they all keep working, most probably keeps the system up. That set is the
//! minimal *path set* with the maximum reliability `Π (1 − pᵢ)`, and it is
//! obtained by running the unchanged Steps 2–6 on the success tree — whose
//! minimal cut sets are exactly the original tree's minimal path sets and
//! whose event probabilities are the component reliabilities.

use fault_tree::transform::success_tree;
use fault_tree::{CutSet, FaultTree};

use crate::error::MpmcsError;
use crate::solver::{MpmcsSolution, MpmcsSolver};
use crate::EnumerationLimit;

/// A minimal path set together with its reliability and solver metadata.
#[derive(Clone, Debug, PartialEq)]
pub struct PathSetSolution {
    /// The events of the minimal path set (all of them must *not* occur).
    pub path_set: CutSet,
    /// Probability that none of the path-set events occurs, `Π (1 − pᵢ)`.
    pub reliability: f64,
    /// Total logarithmic weight `Σ −ln (1 − pᵢ)` of the path set.
    pub log_weight: f64,
    /// Name of the algorithm (or winning portfolio entry) that produced it.
    pub algorithm: String,
}

impl PathSetSolution {
    /// The names of the events in the path set, in identifier order.
    pub fn event_names(&self, tree: &FaultTree) -> Vec<String> {
        self.path_set
            .iter()
            .map(|e| tree.event(e).name().to_string())
            .collect()
    }

    fn from_dual(solution: MpmcsSolution) -> Self {
        PathSetSolution {
            path_set: solution.cut_set,
            reliability: solution.probability,
            log_weight: solution.log_weight,
            algorithm: solution.algorithm,
        }
    }
}

impl MpmcsSolver {
    /// Computes the maximum-reliability minimal path set of `tree` by solving
    /// the MPMCS problem on its success tree.
    ///
    /// The returned event identifiers refer to `tree` (the success tree keeps
    /// the original event indices).
    ///
    /// # Errors
    ///
    /// Returns [`MpmcsError::NoCutSet`] when the tree has no path set — that
    /// is, the top event occurs regardless of the basic events, which cannot
    /// happen for trees built from AND/OR/VOT gates over at least one event —
    /// and propagates internal verification errors.
    pub fn solve_max_reliability_path_set(
        &self,
        tree: &FaultTree,
    ) -> Result<PathSetSolution, MpmcsError> {
        let dual = success_tree(tree);
        Ok(PathSetSolution::from_dual(self.solve(&dual)?))
    }

    /// Enumerates minimal path sets in non-increasing reliability order, up
    /// to the given limit.
    ///
    /// # Errors
    ///
    /// Returns [`MpmcsError::NoCutSet`] when the tree has no path set, and
    /// propagates internal verification errors.
    pub fn enumerate_path_sets(
        &self,
        tree: &FaultTree,
        limit: EnumerationLimit,
    ) -> Result<Vec<PathSetSolution>, MpmcsError> {
        let dual = success_tree(tree);
        Ok(self
            .enumerate(&dual, limit)?
            .into_iter()
            .map(PathSetSolution::from_dual)
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fault_tree::examples::{fire_protection_system, redundant_sensor_network};

    #[test]
    fn fps_maximum_reliability_path_set_matches_the_hand_computation() {
        let tree = fire_protection_system();
        let solution = MpmcsSolver::new()
            .solve_max_reliability_path_set(&tree)
            .expect("the FPS tree has path sets");
        // Keeping x2, x3, x4 and x5 working blocks every cut set; its
        // reliability 0.9·0.999·0.998·0.95 beats the alternative with x1
        // (0.8·…) and the ones that keep x6 and x7 instead of x5.
        assert_eq!(solution.event_names(&tree), vec!["x2", "x3", "x4", "x5"]);
        let expected = 0.9 * 0.999 * 0.998 * 0.95;
        assert!((solution.reliability - expected).abs() < 1e-9);
    }

    #[test]
    fn path_set_blocks_every_minimal_cut_set() {
        let tree = fire_protection_system();
        let solver = MpmcsSolver::new();
        let path = solver
            .solve_max_reliability_path_set(&tree)
            .expect("solvable");
        let cuts = solver
            .enumerate(&tree, EnumerationLimit::All)
            .expect("solvable");
        for cut in cuts {
            assert!(
                cut.cut_set.iter().any(|e| path.path_set.contains(e)),
                "path set must intersect {}",
                cut.cut_set.display_names(&tree)
            );
        }
    }

    #[test]
    fn enumeration_returns_all_four_fps_path_sets_in_order() {
        let tree = fire_protection_system();
        let all = MpmcsSolver::new()
            .enumerate_path_sets(&tree, EnumerationLimit::All)
            .expect("solvable");
        assert_eq!(all.len(), 4);
        for pair in all.windows(2) {
            assert!(pair[0].reliability >= pair[1].reliability - 1e-15);
        }
        let mut names: Vec<Vec<String>> = all.iter().map(|s| s.event_names(&tree)).collect();
        names.sort();
        assert_eq!(
            names,
            vec![
                vec!["x1", "x3", "x4", "x5"],
                vec!["x1", "x3", "x4", "x6", "x7"],
                vec!["x2", "x3", "x4", "x5"],
                vec!["x2", "x3", "x4", "x6", "x7"],
            ]
            .into_iter()
            .map(|v: Vec<&str>| v.into_iter().map(String::from).collect::<Vec<String>>())
            .collect::<Vec<_>>()
        );
    }

    #[test]
    fn voting_gate_path_sets_keep_a_sensor_quorum() {
        let tree = redundant_sensor_network();
        let solution = MpmcsSolver::new()
            .solve_max_reliability_path_set(&tree)
            .expect("solvable");
        // Keeping two sensors plus the bus and the power supply is required;
        // the best choice keeps the two most reliable sensors (s1, s2).
        assert_eq!(solution.path_set.len(), 4);
        let names = solution.event_names(&tree);
        assert!(names.contains(&"field bus fails".to_string()));
        assert!(names.contains(&"power supply fails".to_string()));
        assert!(names.contains(&"sensor 1 fails".to_string()));
        assert!(names.contains(&"sensor 2 fails".to_string()));
        let expected = 0.95 * 0.92 * 0.99 * 0.998;
        assert!((solution.reliability - expected).abs() < 1e-9);
    }
}
