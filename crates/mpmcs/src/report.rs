//! JSON reports mirroring the output of the original MPMCS4FTA tool (Fig. 2
//! of the paper).

use std::time::Duration;

use fault_tree::{CutSet, FaultTree};
use maxsat_solver::MaxSatStats;

use crate::solver::MpmcsSolution;

/// One basic event of the reported cut set.
#[derive(Clone, Debug, PartialEq)]
pub struct ReportEvent {
    /// Event name.
    pub name: String,
    /// Probability of occurrence.
    pub probability: f64,
    /// Logarithmic weight `−ln p` (paper Table I).
    pub log_weight: f64,
}

serde::impl_serde_struct!(ReportEvent {
    name,
    probability,
    log_weight
});

/// Detailed solver statistics for one reported cut set, emitted when the
/// caller opts in (CLI `--stats`). For incremental enumeration these are
/// per-stage figures: the work spent on *this* cut set, plus the
/// session-cumulative call counter proving the session is shared.
///
/// Like the timing fields, this block is excluded from deterministic report
/// comparisons (the `ft-batch` redaction helpers strip it) — solver work
/// counters are an implementation detail, not part of the answer.
#[derive(Clone, Debug, PartialEq)]
pub struct SolverStatsReport {
    /// SAT calls spent on this cut set.
    pub sat_calls: u64,
    /// Conflicts encountered by the CDCL search.
    pub conflicts: u64,
    /// Literals propagated.
    pub propagations: u64,
    /// Restarts performed.
    pub restarts: u64,
    /// Learnt clauses carried into warm-started SAT calls instead of being
    /// re-derived. Counts every call after a solver's first, so a from-
    /// scratch MaxSAT run reports its *within-run* reuse; only the
    /// incremental session additionally reuses state *across* cut sets
    /// (visible through `session_calls`).
    pub learnt_reused: u64,
    /// Cumulative SAT calls of the owning solver session after this cut set.
    pub session_calls: u64,
    /// Clause-arena compactions performed by the solver.
    pub arena_compactions: u64,
}

serde::impl_serde_struct!(SolverStatsReport {
    sat_calls,
    conflicts,
    propagations,
    restarts,
    learnt_reused,
    session_calls,
    arena_compactions
});

impl From<&MaxSatStats> for SolverStatsReport {
    fn from(stats: &MaxSatStats) -> Self {
        SolverStatsReport {
            sat_calls: stats.sat_calls,
            conflicts: stats.conflicts,
            propagations: stats.propagations,
            restarts: stats.restarts,
            learnt_reused: stats.learnt_reused,
            session_calls: stats.session_calls,
            arena_compactions: stats.arena_compactions,
        }
    }
}

/// A serialisable MPMCS analysis report.
///
/// The original tool emits a JSON file that a browser front-end renders; this
/// report carries the same analysis content (tree summary, the MPMCS, its
/// probability, and solver metadata).
#[derive(Clone, Debug, PartialEq)]
pub struct MpmcsReport {
    /// Name of the analysed fault tree.
    pub tree: String,
    /// Number of basic events in the tree.
    pub num_events: usize,
    /// Number of gates in the tree.
    pub num_gates: usize,
    /// The events of the maximum probability minimal cut set.
    pub mpmcs: Vec<ReportEvent>,
    /// Joint probability of the MPMCS.
    pub probability: f64,
    /// Total logarithmic weight of the MPMCS.
    pub log_weight: f64,
    /// Algorithm (or winning portfolio entry) that produced the answer.
    pub algorithm: String,
    /// Wall-clock solving time in milliseconds.
    pub solve_time_ms: f64,
    /// Number of SAT calls performed by the MaxSAT search.
    pub sat_calls: u64,
    /// Detailed solver statistics, present only when requested (CLI
    /// `--stats`; built with [`SolverStatsReport::from`]).
    pub solver_stats: Option<SolverStatsReport>,
}

serde::impl_serde_struct!(MpmcsReport {
    tree,
    num_events,
    num_gates,
    mpmcs,
    probability,
    log_weight,
    algorithm,
    solve_time_ms,
    sat_calls,
} optional { solver_stats });

impl MpmcsReport {
    /// Builds a report from a solution of the MaxSAT pipeline, without the
    /// solver-statistics block.
    pub fn new(tree: &FaultTree, solution: &MpmcsSolution) -> Self {
        MpmcsReport::for_answer(
            tree,
            &solution.cut_set,
            solution.probability,
            solution.log_weight,
            &solution.algorithm,
            solution.duration,
            Some(&solution.stats),
        )
    }

    /// Builds the report of one answer, whichever engine produced it: the
    /// tree summary, one row per event of `cut_set`, the answer's figures,
    /// and the SAT-call count of `stats` (0 when no SAT engine ran). The
    /// solver-statistics block stays empty; a caller that wants it sets
    /// `solver_stats` from the same `stats`.
    pub fn for_answer(
        tree: &FaultTree,
        cut_set: &CutSet,
        probability: f64,
        log_weight: f64,
        algorithm: &str,
        duration: Duration,
        stats: Option<&MaxSatStats>,
    ) -> Self {
        MpmcsReport {
            tree: tree.name().to_string(),
            num_events: tree.num_events(),
            num_gates: tree.num_gates(),
            mpmcs: cut_set
                .iter()
                .map(|e| {
                    let event = tree.event(e);
                    ReportEvent {
                        name: event.name().to_string(),
                        probability: event.probability().value(),
                        log_weight: event.probability().log_weight().value(),
                    }
                })
                .collect(),
            probability,
            log_weight,
            algorithm: algorithm.to_string(),
            solve_time_ms: duration.as_secs_f64() * 1e3,
            sat_calls: stats.map_or(0, |s| s.sat_calls),
            solver_stats: None,
        }
    }

    /// Renders the report as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("reports always serialise")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::MpmcsSolver;
    use fault_tree::examples::fire_protection_system;

    #[test]
    fn report_reflects_the_fig2_content() {
        let tree = fire_protection_system();
        let solution = MpmcsSolver::new().solve(&tree).expect("solvable");
        let report = MpmcsReport::new(&tree, &solution);
        assert_eq!(report.tree, "fire protection system");
        assert_eq!(report.num_events, 7);
        assert_eq!(report.num_gates, 5);
        assert_eq!(report.mpmcs.len(), 2);
        assert_eq!(report.mpmcs[0].name, "x1");
        assert_eq!(report.mpmcs[1].name, "x2");
        assert!((report.probability - 0.02).abs() < 1e-9);
        assert!(report.sat_calls > 0);
        assert!(report.solver_stats.is_none(), "stats are opt-in");
    }

    #[test]
    fn with_stats_carries_the_solver_statistics_block() {
        let tree = fire_protection_system();
        let solution = MpmcsSolver::new().solve(&tree).expect("solvable");
        let report = MpmcsReport {
            solver_stats: Some(SolverStatsReport::from(&solution.stats)),
            ..MpmcsReport::new(&tree, &solution)
        };
        let stats = report.solver_stats.as_ref().expect("stats requested");
        assert_eq!(stats.sat_calls, report.sat_calls);
        assert!(stats.propagations > 0);
        let json = report.to_json();
        assert!(json.contains("solver_stats"));
        assert!(json.contains("propagations"));
        let back: MpmcsReport = serde_json::from_str(&json).expect("valid JSON");
        assert_eq!(back.solver_stats, report.solver_stats);
        // Plain reports omit the block entirely from the JSON.
        let plain = MpmcsReport::new(&tree, &solution).to_json();
        assert!(!plain.contains("solver_stats"));
    }

    #[test]
    fn report_round_trips_through_json() {
        let tree = fire_protection_system();
        let solution = MpmcsSolver::new().solve(&tree).expect("solvable");
        let report = MpmcsReport::new(&tree, &solution);
        let json = report.to_json();
        assert!(json.contains("\"x1\""));
        assert!(json.contains("probability"));
        let back: MpmcsReport = serde_json::from_str(&json).expect("valid JSON");
        // Floating point values may lose their last bit through the decimal
        // representation; compare structure exactly and numbers approximately.
        assert_eq!(report.tree, back.tree);
        assert_eq!(report.num_events, back.num_events);
        assert_eq!(report.num_gates, back.num_gates);
        assert_eq!(report.algorithm, back.algorithm);
        assert_eq!(report.sat_calls, back.sat_calls);
        assert_eq!(report.mpmcs.len(), back.mpmcs.len());
        for (a, b) in report.mpmcs.iter().zip(&back.mpmcs) {
            assert_eq!(a.name, b.name);
            assert!((a.probability - b.probability).abs() < 1e-12);
            assert!((a.log_weight - b.log_weight).abs() < 1e-12);
        }
        assert!((report.probability - back.probability).abs() < 1e-12);
    }
}
