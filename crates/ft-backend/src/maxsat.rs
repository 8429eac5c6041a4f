//! The MaxSAT engine behind the [`AnalysisBackend`] interface.

use std::sync::Arc;

use fault_tree::{CutSet, FaultTree};
use mpmcs::{
    AlgorithmChoice, EnumerationLimit, McsStream, MpmcsError, MpmcsOptions, MpmcsSolver, StreamStep,
};

use crate::control::{QueryControl, StopCause};
use crate::solution::BackendSolution;
use crate::{AnalysisBackend, BackendError, Enumerated};

/// The paper's Weighted Partial MaxSAT pipeline as an analysis backend,
/// wrapping the incremental [`MpmcsSolver`].
///
/// MPMCS and enumeration queries delegate directly to the solver (one
/// persistent incremental session per enumeration). The exact top-event
/// probability — which the MaxSAT formulation does not compute natively —
/// enumerates every minimal cut set through the SAT engine and quantifies
/// the union exactly by pivotal decomposition, within the configured budget.
#[derive(Clone, Debug)]
pub struct MaxSatBackend {
    options: MpmcsOptions,
    probability_budget: usize,
}

impl MaxSatBackend {
    /// Creates the backend with the given MaxSAT strategy and
    /// exact-quantification recursion budget (see
    /// [`BackendConfig::probability_budget`](crate::BackendConfig)).
    pub fn new(algorithm: AlgorithmChoice, probability_budget: usize) -> Self {
        MaxSatBackend {
            options: MpmcsOptions {
                algorithm,
                ..MpmcsOptions::new()
            },
            probability_budget,
        }
    }

    /// Creates the backend from fully explicit pipeline options.
    ///
    /// The cross-backend canonical output order (and therefore byte-level
    /// comparability with the BDD/MOCUS backends, `--cross-check` and the
    /// preprocessing pass) is defined over the **default**
    /// [`mpmcs::WeightScale`]; a custom `options.scale` still produces
    /// correct answers, but equal-cost tie groups may then be ordered
    /// differently from the other engines.
    pub fn with_options(options: MpmcsOptions, probability_budget: usize) -> Self {
        MaxSatBackend {
            options,
            probability_budget,
        }
    }

    fn solver(&self) -> MpmcsSolver {
        MpmcsSolver::with_options(self.options)
    }
}

fn map_error(error: MpmcsError) -> BackendError {
    match error {
        MpmcsError::NoCutSet => BackendError::NoCutSet,
        other => BackendError::Internal(other.to_string()),
    }
}

impl AnalysisBackend for MaxSatBackend {
    fn name(&self) -> &'static str {
        "maxsat"
    }

    fn mpmcs(&self, tree: &FaultTree) -> Result<BackendSolution, BackendError> {
        self.solver()
            .solve(tree)
            .map(BackendSolution::from_mpmcs)
            .map_err(map_error)
    }

    fn top_k(&self, tree: &FaultTree, k: usize) -> Result<Vec<BackendSolution>, BackendError> {
        Ok(self
            .solver()
            .solve_top_k(tree, k)
            .map_err(map_error)?
            .into_iter()
            .map(BackendSolution::from_mpmcs)
            .collect())
    }

    fn all_mcs(&self, tree: &FaultTree) -> Result<Vec<BackendSolution>, BackendError> {
        Ok(self
            .solver()
            .enumerate(tree, EnumerationLimit::All)
            .map_err(map_error)?
            .into_iter()
            .map(BackendSolution::from_mpmcs)
            .collect())
    }

    fn top_event_probability(&self, tree: &FaultTree) -> Result<f64, BackendError> {
        let cut_sets: Vec<CutSet> = match self.all_mcs(tree) {
            Ok(solutions) => solutions.into_iter().map(|s| s.cut_set).collect(),
            Err(BackendError::NoCutSet) => return Ok(0.0),
            Err(other) => return Err(other),
        };
        crate::mocus::exact_union_probability(tree, &cut_sets, self.probability_budget, self.name())
    }

    /// The minimal-cut-set family depends on the structure alone, so the SAT
    /// enumeration runs once for the whole grid; each timepoint re-prices the
    /// cached family under the probabilities at `t`, re-establishes the
    /// canonical (weight-dependent) order the point query quantifies in, and
    /// computes the exact union — zero further SAT calls.
    fn probability_sweep(&self, tree: &FaultTree, grid: &[f64]) -> Result<Vec<f64>, BackendError> {
        let family: Vec<CutSet> = match self.all_mcs(tree) {
            Ok(solutions) => solutions.into_iter().map(|s| s.cut_set).collect(),
            Err(BackendError::NoCutSet) => return Ok(vec![0.0; grid.len()]),
            Err(other) => return Err(other),
        };
        crate::mocus::reprice_sweep(
            tree,
            &family,
            grid,
            self.probability_budget,
            self.name(),
            true,
        )
    }

    /// The MaxSAT engine is *anytime*: the enumeration streams one cut set at
    /// a time from a live incremental session with the control's probe
    /// threaded down into the CDCL search loop, so a stopped query reports
    /// the canonical prefix it had proven instead of nothing.
    fn all_mcs_under(
        &self,
        tree: &FaultTree,
        control: &QueryControl,
    ) -> Result<Enumerated, BackendError> {
        let stopped = |solutions: Vec<BackendSolution>, control: &QueryControl| Enumerated {
            solutions,
            // The hook may have fired between two control polls; report the
            // most specific cause still observable.
            stopped: Some(control.stop_cause().unwrap_or(StopCause::Cancelled)),
        };
        if control.stop_cause().is_some() {
            return Ok(stopped(Vec::new(), control));
        }
        if self.options.algorithm == AlgorithmChoice::LinearSu || !self.options.incremental {
            // An explicit linear-SAT–UNSAT (or from-scratch) request has no
            // streaming counterpart; honour it through the collected path
            // with control checks at the boundaries, keeping the requested
            // algorithm and its tags instead of silently running OLL.
            return Ok(Enumerated {
                solutions: self.all_mcs(tree)?,
                stopped: None,
            });
        }
        let mut stream = McsStream::open(Arc::new(tree.clone()), self.options);
        stream.set_interrupt(Some(control.interrupt_hook()));
        let mut solutions = Vec::new();
        loop {
            // Solutions already proven (buffered tie groups) bypass the SAT
            // loop and its probe, so poll the control here as well.
            if control.stop_cause().is_some() {
                return Ok(stopped(solutions, control));
            }
            match stream.next_step().map_err(map_error)? {
                StreamStep::Solution(solution) => {
                    solutions.push(BackendSolution::from_mpmcs(solution));
                }
                StreamStep::Exhausted => {
                    return Ok(Enumerated {
                        solutions,
                        stopped: None,
                    })
                }
                StreamStep::Interrupted => return Ok(stopped(solutions, control)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fault_tree::examples::fire_protection_system;

    #[test]
    fn maxsat_backend_reproduces_the_solver_pipeline() {
        let tree = fire_protection_system();
        let backend = MaxSatBackend::new(AlgorithmChoice::Oll, 20);
        let best = backend.mpmcs(&tree).expect("solvable");
        assert_eq!(best.event_names(&tree), vec!["x1", "x2"]);
        assert!(best.stats.is_some(), "MaxSAT runs carry solver statistics");
        let all = backend.all_mcs(&tree).expect("solvable");
        assert_eq!(all.len(), 5);
        // Exact probability via SAT enumeration + pivotal decomposition agrees
        // with the BDD's Shannon decomposition.
        let p = backend.top_event_probability(&tree).expect("5 cut sets");
        let exact = bdd_engine::compile_fault_tree(&tree, bdd_engine::VariableOrdering::DepthFirst)
            .top_event_probability(&tree);
        assert!((p - exact).abs() < 1e-12);
    }
}
