//! The backend-agnostic solution type and the canonical output ordering.

use std::time::{Duration, Instant};

use fault_tree::{CutSet, FaultTree};
use maxsat_solver::MaxSatStats;
use mpmcs::{MpmcsReport, MpmcsSolution, SolverStatsReport, WeightScale};

/// One minimal cut set reported by an [`AnalysisBackend`](crate::AnalysisBackend),
/// whichever engine produced it.
#[derive(Clone, Debug, PartialEq)]
pub struct BackendSolution {
    /// The events of the minimal cut set (identifiers of the queried tree).
    pub cut_set: CutSet,
    /// Joint probability of the cut set, computed as `exp(−Σ −ln pᵢ)` — the
    /// paper's reverse log-space transformation — so every backend reports
    /// bit-identical probabilities for the same cut set.
    pub probability: f64,
    /// Total logarithmic weight `Σ −ln pᵢ` of the cut set.
    pub log_weight: f64,
    /// Name of the engine (or winning MaxSAT portfolio entry) that produced
    /// the answer.
    pub algorithm: String,
    /// MaxSAT statistics, when a SAT engine was involved (`None` for the
    /// classical backends and for per-cut-set rows of decomposed
    /// enumerations, where per-solution attribution is undefined).
    pub stats: Option<MaxSatStats>,
    /// Wall-clock time attributed to this solution. Engines that compute all
    /// cut sets in one pass charge the whole pass to the first reported
    /// solution, mirroring the MaxSAT pipeline's setup accounting.
    pub duration: Duration,
}

impl BackendSolution {
    /// Builds a solution from a bare cut set, recomputing probability and
    /// log-weight from the event probabilities of `tree` exactly the way the
    /// MaxSAT pipeline does.
    pub fn from_cut(tree: &FaultTree, cut_set: CutSet, algorithm: impl Into<String>) -> Self {
        let log_weight: f64 = cut_set
            .iter()
            .map(|e| tree.event(e).probability().log_weight().value())
            .sum();
        BackendSolution {
            probability: (-log_weight).exp(),
            log_weight,
            cut_set,
            algorithm: algorithm.into(),
            stats: None,
            duration: Duration::ZERO,
        }
    }

    /// Converts a solution of the MaxSAT pipeline.
    pub fn from_mpmcs(solution: MpmcsSolution) -> Self {
        BackendSolution {
            cut_set: solution.cut_set,
            probability: solution.probability,
            log_weight: solution.log_weight,
            algorithm: solution.algorithm,
            stats: Some(solution.stats),
            duration: solution.duration,
        }
    }

    /// The names of the events in the cut set, in identifier order.
    pub fn event_names(&self, tree: &FaultTree) -> Vec<String> {
        self.cut_set
            .iter()
            .map(|e| tree.event(e).name().to_string())
            .collect()
    }

    /// Builds the standard JSON report row for this solution; `with_stats`
    /// attaches the detailed solver-statistics block when the engine
    /// provided one.
    pub fn to_report(&self, tree: &FaultTree, with_stats: bool) -> MpmcsReport {
        let stats = self.stats.as_ref();
        MpmcsReport {
            solver_stats: stats.filter(|_| with_stats).map(SolverStatsReport::from),
            ..MpmcsReport::for_answer(
                tree,
                &self.cut_set,
                self.probability,
                self.log_weight,
                &self.algorithm,
                self.duration,
                stats,
            )
        }
    }
}

/// The exact integer MaxSAT cost of a cut set under the default weight scale
/// — the shared ordering key of every backend (two cut sets tie in the
/// MaxSAT search exactly when their scaled costs are equal).
pub fn scaled_cut_cost(tree: &FaultTree, cut: &CutSet) -> u64 {
    let scale = WeightScale::default();
    cut.iter()
        .map(|e| scale.scale(tree.event(e).probability().log_weight().value()))
        .sum()
}

/// Sorts solutions into the canonical cross-backend order: ascending exact
/// scaled cost (which refines the non-increasing probability order), ties
/// broken by cut set. This is the same key the MaxSAT enumeration
/// canonicalises with, so every backend's exhaustive output is directly
/// comparable. The key is computed once per solution (enumerations run into
/// the millions under the default budgets), not per comparison.
pub fn canonical_sort(tree: &FaultTree, solutions: &mut [BackendSolution]) {
    solutions.sort_by_cached_key(|s| (scaled_cut_cost(tree, &s.cut_set), s.cut_set.clone()));
}

/// Ranks the cut sets of a one-pass enumeration: builds each solution with
/// [`BackendSolution::from_cut`], sorts canonically, keeps the first `limit`,
/// and charges the pass's wall-clock time since `start` to the first
/// solution (the rest keep zero), mirroring the MaxSAT pipeline's convention
/// of charging setup to the first reported solution.
pub(crate) fn ranked(
    tree: &FaultTree,
    cuts: impl IntoIterator<Item = CutSet>,
    engine: &str,
    limit: Option<usize>,
    start: Instant,
) -> Vec<BackendSolution> {
    let mut solutions: Vec<BackendSolution> = cuts
        .into_iter()
        .map(|cut| BackendSolution::from_cut(tree, cut, engine))
        .collect();
    canonical_sort(tree, &mut solutions);
    if let Some(limit) = limit {
        solutions.truncate(limit);
    }
    if let Some(first) = solutions.first_mut() {
        first.duration = start.elapsed();
    }
    solutions
}

#[cfg(test)]
mod tests {
    use super::*;
    use fault_tree::examples::fire_protection_system;

    #[test]
    fn from_cut_matches_the_maxsat_probability_convention() {
        let tree = fire_protection_system();
        let x1 = tree.event_by_name("x1").unwrap();
        let x2 = tree.event_by_name("x2").unwrap();
        let solution = BackendSolution::from_cut(&tree, CutSet::from_iter([x1, x2]), "test");
        assert!((solution.probability - 0.02).abs() < 1e-12);
        assert!((solution.log_weight - -(0.1f64.ln() + 0.2f64.ln())).abs() < 1e-12);
        assert_eq!(solution.event_names(&tree), vec!["x1", "x2"]);
        let report = solution.to_report(&tree, true);
        assert_eq!(report.mpmcs.len(), 2);
        assert_eq!(report.sat_calls, 0);
        assert!(report.solver_stats.is_none(), "no stats without an engine");
    }

    #[test]
    fn canonical_sort_orders_by_cost_then_cut_set() {
        let tree = fire_protection_system();
        let cut = |names: &[&str]| {
            names
                .iter()
                .map(|n| tree.event_by_name(n).unwrap())
                .collect::<CutSet>()
        };
        let mut solutions = vec![
            BackendSolution::from_cut(&tree, cut(&["x3"]), "t"),
            BackendSolution::from_cut(&tree, cut(&["x1", "x2"]), "t"),
            BackendSolution::from_cut(&tree, cut(&["x5", "x6"]), "t"),
        ];
        canonical_sort(&tree, &mut solutions);
        // Probabilities: {x1,x2}=0.02 > {x5,x6}=0.005 > {x3}=0.001.
        assert_eq!(solutions[0].event_names(&tree), vec!["x1", "x2"]);
        assert_eq!(solutions[1].event_names(&tree), vec!["x5", "x6"]);
        assert_eq!(solutions[2].event_names(&tree), vec!["x3"]);
    }
}
