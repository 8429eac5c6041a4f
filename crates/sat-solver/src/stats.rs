//! Solver statistics, exposed for benchmarking and experiment reporting.

use std::fmt;

/// Counters accumulated by the CDCL search.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Number of decisions taken.
    pub decisions: u64,
    /// Number of literals propagated.
    pub propagations: u64,
    /// Number of conflicts encountered.
    pub conflicts: u64,
    /// Number of restarts performed.
    pub restarts: u64,
    /// Number of learnt clauses currently in the database.
    pub learnt_clauses: u64,
    /// Number of learnt clauses deleted by database reductions.
    pub deleted_clauses: u64,
    /// Number of top-level `solve` / `solve_with_assumptions` calls.
    pub solve_calls: u64,
    /// Number of solve calls that reused state from an earlier call on the
    /// same solver (warm starts of an incremental solver).
    pub incremental_calls: u64,
    /// Total learnt clauses already present in the database at the start of
    /// the warm-started solve calls — the clauses an incremental session
    /// carries over instead of re-deriving.
    pub learnt_reused: u64,
    /// Number of clause-arena compactions (each rewrites the watch lists and
    /// reason references in place).
    pub arena_compactions: u64,
}

impl SolverStats {
    /// Sum of two counter sets, where `other` is the *live* solver and
    /// `self` holds retired predecessors (incremental session compaction).
    /// Monotonic counters add; the `learnt_clauses` gauge reports only the
    /// live solver's value — a retired solver's learnt clauses no longer
    /// exist.
    pub fn merged(&self, other: &SolverStats) -> SolverStats {
        SolverStats {
            decisions: self.decisions + other.decisions,
            propagations: self.propagations + other.propagations,
            conflicts: self.conflicts + other.conflicts,
            restarts: self.restarts + other.restarts,
            learnt_clauses: other.learnt_clauses,
            deleted_clauses: self.deleted_clauses + other.deleted_clauses,
            solve_calls: self.solve_calls + other.solve_calls,
            incremental_calls: self.incremental_calls + other.incremental_calls,
            learnt_reused: self.learnt_reused + other.learnt_reused,
            arena_compactions: self.arena_compactions + other.arena_compactions,
        }
    }

    /// Counter-wise difference `self − earlier`, for per-stage reporting in
    /// incremental sessions. Monotonic counters are subtracted; the
    /// `learnt_clauses` gauge keeps its current value.
    pub fn delta_since(&self, earlier: &SolverStats) -> SolverStats {
        SolverStats {
            decisions: self.decisions - earlier.decisions,
            propagations: self.propagations - earlier.propagations,
            conflicts: self.conflicts - earlier.conflicts,
            restarts: self.restarts - earlier.restarts,
            learnt_clauses: self.learnt_clauses,
            deleted_clauses: self.deleted_clauses - earlier.deleted_clauses,
            solve_calls: self.solve_calls - earlier.solve_calls,
            incremental_calls: self.incremental_calls - earlier.incremental_calls,
            learnt_reused: self.learnt_reused - earlier.learnt_reused,
            arena_compactions: self.arena_compactions - earlier.arena_compactions,
        }
    }
}

impl fmt::Display for SolverStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "decisions={} propagations={} conflicts={} restarts={} learnt={} deleted={} \
             solves={} incremental={} reused={} compactions={}",
            self.decisions,
            self.propagations,
            self.conflicts,
            self.restarts,
            self.learnt_clauses,
            self.deleted_clauses,
            self.solve_calls,
            self.incremental_calls,
            self.learnt_reused,
            self.arena_compactions
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_all_zero_and_displays() {
        let stats = SolverStats::default();
        assert_eq!(stats.decisions, 0);
        assert_eq!(stats.conflicts, 0);
        let text = stats.to_string();
        assert!(text.contains("decisions=0"));
        assert!(text.contains("solves=0"));
        assert!(text.contains("reused=0"));
        assert!(text.contains("compactions=0"));
    }

    #[test]
    fn merged_adds_counters_and_keeps_the_live_gauge() {
        let retired = SolverStats {
            conflicts: 7,
            solve_calls: 3,
            learnt_clauses: 500,
            arena_compactions: 1,
            ..SolverStats::default()
        };
        let live = SolverStats {
            conflicts: 2,
            solve_calls: 1,
            learnt_clauses: 200,
            arena_compactions: 3,
            ..SolverStats::default()
        };
        let merged = retired.merged(&live);
        assert_eq!(merged.conflicts, 9);
        assert_eq!(merged.solve_calls, 4);
        assert_eq!(merged.arena_compactions, 4);
        assert_eq!(
            merged.learnt_clauses, 200,
            "retired solvers' learnt clauses no longer exist"
        );
    }

    #[test]
    fn delta_since_subtracts_counters_and_keeps_gauges() {
        let earlier = SolverStats {
            decisions: 10,
            propagations: 100,
            conflicts: 5,
            restarts: 1,
            learnt_clauses: 4,
            deleted_clauses: 2,
            solve_calls: 2,
            incremental_calls: 1,
            learnt_reused: 4,
            arena_compactions: 1,
        };
        let later = SolverStats {
            decisions: 15,
            propagations: 180,
            conflicts: 9,
            restarts: 2,
            learnt_clauses: 6,
            deleted_clauses: 2,
            solve_calls: 3,
            incremental_calls: 2,
            learnt_reused: 10,
            arena_compactions: 2,
        };
        let delta = later.delta_since(&earlier);
        assert_eq!(delta.decisions, 5);
        assert_eq!(delta.propagations, 80);
        assert_eq!(delta.conflicts, 4);
        assert_eq!(delta.restarts, 1);
        assert_eq!(delta.learnt_clauses, 6, "gauges keep the current value");
        assert_eq!(delta.deleted_clauses, 0);
        assert_eq!(delta.solve_calls, 1);
        assert_eq!(delta.incremental_calls, 1);
        assert_eq!(delta.learnt_reused, 6);
        assert_eq!(delta.arena_compactions, 1);
    }
}
