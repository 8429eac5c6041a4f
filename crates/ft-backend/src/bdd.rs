//! The BDD engine behind the [`AnalysisBackend`] interface.

use std::time::Instant;

use bdd_engine::{compile_fault_tree, VariableOrdering, ZbddAnalysis};
use fault_tree::FaultTree;

use crate::control::QueryControl;
use crate::solution::{ranked, BackendSolution};
use crate::{AnalysisBackend, BackendError, Enumerated};

/// The classical exact BDD engine as an analysis backend.
///
/// Cut-set queries compile the tree's minimal cut sets bottom-up into a ZBDD
/// ([`ZbddAnalysis`]), count them, and enumerate them only when the count is
/// within the cut-set budget. The exact top-event probability is a single
/// Shannon-decomposition sweep over the ROBDD compiled under the configured
/// variable ordering — no enumeration and no budget involved, which is the
/// BDD's classical strength.
#[derive(Clone, Debug)]
pub struct BddBackend {
    ordering: VariableOrdering,
    max_cut_sets: usize,
}

impl BddBackend {
    /// Creates the backend with an explicit ROBDD variable ordering and a
    /// budget on the number of minimal cut sets a cut-set query may
    /// enumerate (see [`BackendConfig`](crate::BackendConfig)).
    pub fn new(ordering: VariableOrdering, max_cut_sets: usize) -> Self {
        BddBackend {
            ordering,
            max_cut_sets,
        }
    }

    /// The variable ordering in effect.
    pub fn ordering(&self) -> VariableOrdering {
        self.ordering
    }
}

impl AnalysisBackend for BddBackend {
    fn name(&self) -> &'static str {
        "bdd"
    }

    fn mpmcs(&self, tree: &FaultTree) -> Result<BackendSolution, BackendError> {
        Ok(self.all_mcs(tree)?.swap_remove(0))
    }

    /// The ZBDD computes the whole family before any cut set is known, so
    /// the control is checked once, before compiling: a stopped query
    /// reports an empty, labelled prefix.
    fn enumerate(
        &self,
        tree: &FaultTree,
        limit: Option<usize>,
        control: &QueryControl,
    ) -> Result<Enumerated, BackendError> {
        if let Some(cause) = control.stop_cause() {
            return Ok(Enumerated::interrupted(cause));
        }
        let start = Instant::now();
        let zbdd = ZbddAnalysis::new(tree);
        let count = zbdd.count();
        if count > self.max_cut_sets as u128 {
            return Err(BackendError::Budget {
                backend: self.name(),
                detail: format!(
                    "the ZBDD holds {count} minimal cut sets, more than the budget of {}",
                    self.max_cut_sets
                ),
            });
        }
        if count == 0 {
            return Err(BackendError::NoCutSet);
        }
        let cuts = zbdd.minimal_cut_sets(self.max_cut_sets);
        Ok(Enumerated::complete(ranked(
            tree,
            cuts,
            self.name(),
            limit,
            start,
        )))
    }

    fn top_event_probability(&self, tree: &FaultTree) -> Result<f64, BackendError> {
        Ok(compile_fault_tree(tree, self.ordering).top_event_probability(tree))
    }

    /// Both variable orderings are purely structural, so one compilation
    /// serves the whole grid; each timepoint is a Shannon requantification
    /// over the shared diagram through a preallocated scratch memo — no BDD
    /// construction and no per-point allocation.
    fn probability_sweep(&self, tree: &FaultTree, grid: &[f64]) -> Result<Vec<f64>, BackendError> {
        let compiled = compile_fault_tree(tree, self.ordering);
        let mut requantifier = compiled.requantifier();
        Ok(grid
            .iter()
            .map(|&t| requantifier.probability_with(|e| tree.event(e).probability_at(t).value()))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BackendConfig;
    use fault_tree::examples::{fire_protection_system, redundant_sensor_network};

    #[test]
    fn bdd_backend_answers_all_four_queries() {
        let tree = fire_protection_system();
        for ordering in [VariableOrdering::Natural, VariableOrdering::DepthFirst] {
            let backend = BddBackend::new(ordering, 1_000_000);
            let best = backend.mpmcs(&tree).expect("small tree");
            assert_eq!(best.event_names(&tree), vec!["x1", "x2"], "{ordering:?}");
            assert_eq!(backend.all_mcs(&tree).expect("small tree").len(), 5);
            let p = backend.top_event_probability(&tree).expect("exact");
            assert!(p > 0.02 && p < 0.1);
        }
    }

    #[test]
    fn voting_gates_are_supported() {
        let tree = redundant_sensor_network();
        let backend = BddBackend::new(VariableOrdering::DepthFirst, 1_000_000);
        let all = backend.all_mcs(&tree).expect("small tree");
        assert_eq!(all.len(), 5);
        assert_eq!(
            backend.mpmcs(&tree).unwrap().event_names(&tree),
            vec!["field bus fails"]
        );
    }

    #[test]
    fn cut_set_budget_counts_cut_sets_not_paths() {
        // 72 minimal cut sets behind more than a million ROBDD true-paths.
        let tree = ft_generators::Family::SharedModules.generate(80, 0);
        let config = BackendConfig::default();
        let answered = BddBackend::new(config.bdd_ordering, config.bdd_path_budget)
            .all_mcs(&tree)
            .expect("72 cut sets are within the default budget");
        assert_eq!(answered.len(), 72);
        let starved = BddBackend::new(VariableOrdering::DepthFirst, 71);
        match starved.all_mcs(&tree) {
            Err(BackendError::Budget { backend, detail }) => {
                assert_eq!(backend, "bdd");
                assert!(detail.contains("72 minimal cut sets"), "{detail}");
            }
            other => panic!("expected a budget error, got {other:?}"),
        }
        assert_eq!(
            BddBackend::new(VariableOrdering::DepthFirst, 72)
                .all_mcs(&tree)
                .expect("exactly at the budget")
                .len(),
            72
        );
    }

    #[test]
    fn path_budget_surfaces_as_a_backend_error() {
        let tree = fire_protection_system();
        let starved = BddBackend::new(VariableOrdering::DepthFirst, 1);
        assert!(matches!(
            starved.all_mcs(&tree),
            Err(BackendError::Budget { backend: "bdd", .. })
        ));
    }
}
