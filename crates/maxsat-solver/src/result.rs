//! Result and statistics types shared by all MaxSAT algorithms.

use std::fmt;

use sat_solver::SolverStats;

/// Outcome of a MaxSAT solving run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MaxSatOutcome {
    /// An optimal model of the hard clauses was found.
    Optimum {
        /// A model of the hard clauses minimising the soft penalty, indexed by
        /// variable.
        model: Vec<bool>,
        /// The optimal cost (total weight of falsified soft clauses).
        cost: u64,
    },
    /// The hard clauses are unsatisfiable.
    Unsatisfiable,
}

impl MaxSatOutcome {
    /// Returns the optimal cost, if an optimum was found.
    pub fn cost(&self) -> Option<u64> {
        match self {
            MaxSatOutcome::Optimum { cost, .. } => Some(*cost),
            MaxSatOutcome::Unsatisfiable => None,
        }
    }

    /// Returns the optimal model, if an optimum was found.
    pub fn model(&self) -> Option<&[bool]> {
        match self {
            MaxSatOutcome::Optimum { model, .. } => Some(model),
            MaxSatOutcome::Unsatisfiable => None,
        }
    }

    /// `true` if an optimum was found.
    pub fn is_optimum(&self) -> bool {
        matches!(self, MaxSatOutcome::Optimum { .. })
    }
}

/// Counters describing a MaxSAT run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MaxSatStats {
    /// Number of SAT solver calls.
    pub sat_calls: u64,
    /// Number of unsatisfiable cores extracted (core-guided algorithms).
    pub cores: u64,
    /// Number of model-improving iterations (linear algorithms).
    pub improvements: u64,
    /// Final lower bound on the optimum established by the search.
    pub lower_bound: u64,
    /// Final upper bound on the optimum established by the search.
    pub upper_bound: u64,
    /// Name of the algorithm (or of the winning portfolio entry).
    pub algorithm: String,
    /// Conflicts encountered by the underlying SAT search during this run
    /// (for incremental sessions: during this call only).
    pub conflicts: u64,
    /// Literals propagated by the underlying SAT search during this run.
    pub propagations: u64,
    /// Restarts performed by the underlying SAT search during this run.
    pub restarts: u64,
    /// Learnt clauses carried into warm-started SAT calls instead of being
    /// re-derived — the payoff of incremental solving.
    pub learnt_reused: u64,
    /// Cumulative SAT calls of the owning solver session at the end of this
    /// run. Equals `sat_calls` for a one-shot core-guided run; strictly
    /// grows across the calls of an
    /// [`IncrementalMaxSat`](crate::IncrementalMaxSat) session, proving the
    /// session is shared. The linear solver's OLL fallback reports
    /// `sat_calls` summed over *both* sessions while `session_calls` stays
    /// the OLL session's own count, so there `sat_calls` may exceed
    /// `session_calls`.
    pub session_calls: u64,
    /// Clause-arena compactions performed during this run.
    pub arena_compactions: u64,
}

impl MaxSatStats {
    /// Combines two statistics records into one, summing every work counter.
    ///
    /// Used by the modular divide-and-conquer driver of the analysis-backend
    /// layer: when a query is split over independent modules, each piece is
    /// solved by its own MaxSAT run and the composed answer carries the total
    /// search effort. Bounds are not meaningful across different instances,
    /// so the merged record keeps the tighter invariant-free convention of
    /// summing them as totals; `algorithm` keeps `self`'s name when the two
    /// agree and is tagged `"mixed"` otherwise.
    #[must_use]
    pub fn merged(&self, other: &MaxSatStats) -> MaxSatStats {
        MaxSatStats {
            sat_calls: self.sat_calls + other.sat_calls,
            cores: self.cores + other.cores,
            improvements: self.improvements + other.improvements,
            lower_bound: self.lower_bound + other.lower_bound,
            upper_bound: self.upper_bound + other.upper_bound,
            algorithm: if self.algorithm == other.algorithm || other.algorithm.is_empty() {
                self.algorithm.clone()
            } else if self.algorithm.is_empty() {
                other.algorithm.clone()
            } else {
                "mixed".to_string()
            },
            conflicts: self.conflicts + other.conflicts,
            propagations: self.propagations + other.propagations,
            restarts: self.restarts + other.restarts,
            learnt_reused: self.learnt_reused + other.learnt_reused,
            session_calls: self.session_calls + other.session_calls,
            arena_compactions: self.arena_compactions + other.arena_compactions,
        }
    }

    /// Copies the SAT-level counters of `solver` into this record (used by
    /// the algorithms right before returning).
    pub(crate) fn absorb_solver(&mut self, solver: &SolverStats) {
        self.conflicts = solver.conflicts;
        self.propagations = solver.propagations;
        self.restarts = solver.restarts;
        self.learnt_reused = solver.learnt_reused;
        self.arena_compactions = solver.arena_compactions;
    }
}

impl fmt::Display for MaxSatStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: sat_calls={} cores={} improvements={} lb={} ub={} conflicts={} \
             propagations={} restarts={} reused={} compactions={}",
            self.algorithm,
            self.sat_calls,
            self.cores,
            self.improvements,
            self.lower_bound,
            self.upper_bound,
            self.conflicts,
            self.propagations,
            self.restarts,
            self.learnt_reused,
            self.arena_compactions
        )
    }
}

/// The result of a MaxSAT run: outcome plus statistics.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MaxSatResult {
    /// The outcome (optimum or unsatisfiable).
    pub outcome: MaxSatOutcome,
    /// Statistics describing the run.
    pub stats: MaxSatStats,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_accessors() {
        let opt = MaxSatOutcome::Optimum {
            model: vec![true, false],
            cost: 7,
        };
        assert!(opt.is_optimum());
        assert_eq!(opt.cost(), Some(7));
        assert_eq!(opt.model(), Some([true, false].as_slice()));

        let unsat = MaxSatOutcome::Unsatisfiable;
        assert!(!unsat.is_optimum());
        assert_eq!(unsat.cost(), None);
        assert_eq!(unsat.model(), None);
    }

    #[test]
    fn stats_display_mentions_algorithm_and_bounds() {
        let stats = MaxSatStats {
            algorithm: "oll".to_string(),
            sat_calls: 3,
            lower_bound: 5,
            upper_bound: 5,
            ..MaxSatStats::default()
        };
        let text = stats.to_string();
        assert!(text.contains("oll"));
        assert!(text.contains("lb=5"));
    }
}
