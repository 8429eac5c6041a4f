//! The MaxSAT engine behind the [`AnalysisBackend`] interface.

use std::sync::Arc;

use fault_tree::{CutSet, FaultTree};
use mpmcs::{AlgorithmChoice, McsStream, MpmcsError, MpmcsOptions, MpmcsSolver, StreamStep};

use crate::control::{QueryControl, StopCause};
use crate::solution::BackendSolution;
use crate::{AnalysisBackend, BackendError, Enumerated};

/// The paper's Weighted Partial MaxSAT pipeline as an analysis backend,
/// wrapping the incremental [`MpmcsSolver`].
///
/// The MPMCS query runs [`MpmcsSolver::solve`] with the configured
/// algorithm; enumeration drains one persistent [`McsStream`] session per
/// query, whatever the algorithm. The exact top-event
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

/// The one pull loop over an [`McsStream`] under a [`QueryControl`], shared
/// by [`MaxSatBackend`]'s enumeration and the session facade's warm prefix
/// and live streams:
/// appends solutions to `solutions` until it holds `target` of them (every
/// one when `None`), the stream is exhausted, or `control` fires. The
/// control's probe is threaded into the CDCL search for the duration of the
/// call and polled between pulls, since buffered tie-group members are
/// delivered without a SAT call.
///
/// Returns the stop cause when the control cut the pull short. A drained
/// stream is [exhausted](McsStream::is_exhausted); whether a reached target
/// also ended the family takes [`McsStream::has_more`].
///
/// # Errors
///
/// The stream's errors: [`MpmcsError::NoCutSet`] when the tree has no cut
/// set at all, and verification failures.
pub fn pull_solutions(
    stream: &mut McsStream,
    solutions: &mut Vec<BackendSolution>,
    target: Option<usize>,
    control: &QueryControl,
) -> Result<Option<StopCause>, MpmcsError> {
    stream.set_interrupt(Some(control.interrupt_hook()));
    let outcome = loop {
        if target.is_some_and(|t| solutions.len() >= t) {
            break Ok(None);
        }
        if let Some(cause) = control.stop_cause() {
            break Ok(Some(cause));
        }
        match stream.next_step() {
            Ok(StreamStep::Solution(solution)) => {
                solutions.push(BackendSolution::from_mpmcs(solution));
            }
            Ok(StreamStep::Exhausted) => break Ok(None),
            // The hook may have fired between two control polls; report the
            // most specific cause still observable.
            Ok(StreamStep::Interrupted) => {
                break Ok(Some(control.stop_cause().unwrap_or(StopCause::Cancelled)))
            }
            Err(error) => break Err(error),
        }
    };
    stream.set_interrupt(None);
    outcome
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

    /// The MaxSAT engine is *anytime*: the enumeration drains one
    /// [`McsStream`] under `control` (see [`pull_solutions`]), so a stopped
    /// query reports the canonical prefix it had proven instead of nothing.
    /// The configured algorithm does not apply here — it selects the solver
    /// of [`mpmcs`](AnalysisBackend::mpmcs) only.
    fn enumerate(
        &self,
        tree: &FaultTree,
        limit: Option<usize>,
        control: &QueryControl,
    ) -> Result<Enumerated, BackendError> {
        if let Some(cause) = control.stop_cause() {
            return Ok(Enumerated::interrupted(cause));
        }
        let mut solutions = Vec::new();
        if limit == Some(0) {
            return Ok(Enumerated::complete(solutions));
        }
        let mut stream = McsStream::open(Arc::new(tree.clone()), self.options);
        let stopped =
            pull_solutions(&mut stream, &mut solutions, limit, control).map_err(map_error)?;
        Ok(Enumerated { solutions, stopped })
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
