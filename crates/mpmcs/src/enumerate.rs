//! Enumeration of minimal cut sets in decreasing probability order.
//!
//! The MPMCS machinery naturally extends to ranking: after reporting the
//! optimum, a *blocking clause* excludes it (and all of its supersets) and
//! the next call returns the second most probable minimal cut set, and so on.
//! Running the loop to exhaustion enumerates **all** minimal cut sets of the
//! tree ordered by probability, which subsumes the classic qualitative
//! cut-set analysis.
//!
//! By default the whole loop runs inside **one persistent incremental
//! session** ([`maxsat_solver::IncrementalMaxSat`]): the tree is Tseitin-
//! encoded exactly once, blocking clauses are pushed into the live session,
//! and every query after the first resumes from the learnt clauses, variable
//! activities and saved phases of its predecessors. Setting
//! [`MpmcsOptions::incremental`](crate::MpmcsOptions) to `false` restores
//! the historical from-scratch pipeline per cut set (the baseline of the E11
//! `enumeration-scaling` study).

use std::time::Instant;

use fault_tree::FaultTree;
use maxsat_solver::{IncrementalMaxSat, MaxSatOutcome};

use crate::encode::MpmcsEncoding;
use crate::error::MpmcsError;
use crate::solver::{MpmcsSolution, MpmcsSolver};
use crate::verify;

/// Exact integer MaxSAT cost of a solution's cut set (the sum of the scaled
/// event weights). Two cut sets tie — either may be enumerated first by a
/// correct solver — exactly when their scaled costs are equal, so this is
/// the key the canonical tie ordering below is built on.
fn scaled_cost(encoding: &MpmcsEncoding, solution: &MpmcsSolution) -> u64 {
    solution
        .cut_set
        .iter()
        .map(|e| encoding.scaled_weights()[e.index()])
        .sum()
}

/// Canonicalises the enumeration output: solutions are ordered by exact
/// scaled cost (which refines the non-increasing probability order) and,
/// within an equal-cost tie group, by cut set. Successive optima of a
/// correct solver already arrive in non-decreasing cost order, so this only
/// permutes within tie groups — it makes exhaustive enumeration order
/// independent of solver internals, so the incremental session and the
/// from-scratch baseline produce byte-identical reports. (For a bounded
/// top-k, *which* members of a tie group straddling the `k` boundary are
/// reported still follows discovery order — deliberately: completing an
/// arbitrarily large boundary tie group could dwarf the requested work.)
fn canonicalize(encoding: &MpmcsEncoding, mut solutions: Vec<MpmcsSolution>) -> Vec<MpmcsSolution> {
    solutions.sort_by(|a, b| {
        scaled_cost(encoding, a)
            .cmp(&scaled_cost(encoding, b))
            .then_with(|| a.cut_set.cmp(&b.cut_set))
    });
    solutions
}

/// How many cut sets to enumerate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EnumerationLimit {
    /// Enumerate every minimal cut set.
    All,
    /// Stop after at most this many cut sets.
    AtMost(usize),
}

impl EnumerationLimit {
    fn allows(&self, count: usize) -> bool {
        match self {
            EnumerationLimit::All => true,
            EnumerationLimit::AtMost(limit) => count < *limit,
        }
    }
}

impl MpmcsSolver {
    /// Returns the `k` most probable minimal cut sets, in non-increasing
    /// probability order. Fewer than `k` are returned when the tree has fewer
    /// minimal cut sets.
    ///
    /// ```rust
    /// use fault_tree::examples::fire_protection_system;
    /// use mpmcs::MpmcsSolver;
    ///
    /// # fn main() -> Result<(), mpmcs::MpmcsError> {
    /// let tree = fire_protection_system();
    /// let top2 = MpmcsSolver::new().solve_top_k(&tree, 2)?;
    /// assert_eq!(top2[0].event_names(&tree), vec!["x1", "x2"]); // p = 0.02
    /// assert_eq!(top2[1].event_names(&tree), vec!["x5", "x6"]); // p = 0.005
    /// assert!(top2[0].probability >= top2[1].probability);
    /// # Ok(())
    /// # }
    /// ```
    ///
    /// # Errors
    ///
    /// Returns [`MpmcsError::NoCutSet`] when the tree has no cut set at all,
    /// and propagates internal verification errors.
    pub fn solve_top_k(
        &self,
        tree: &FaultTree,
        k: usize,
    ) -> Result<Vec<MpmcsSolution>, MpmcsError> {
        self.enumerate(tree, EnumerationLimit::AtMost(k))
    }

    /// Enumerates minimal cut sets in non-increasing probability order, up to
    /// the given limit.
    ///
    /// With [`EnumerationLimit::All`] this subsumes the classic qualitative
    /// cut-set analysis, ordered by probability:
    ///
    /// ```rust
    /// use fault_tree::examples::fire_protection_system;
    /// use mpmcs::{EnumerationLimit, MpmcsSolver};
    ///
    /// # fn main() -> Result<(), mpmcs::MpmcsError> {
    /// let tree = fire_protection_system();
    /// let all = MpmcsSolver::new().enumerate(&tree, EnumerationLimit::All)?;
    /// assert_eq!(all.len(), 5); // the FPS tree has exactly five minimal cut sets
    /// assert!(all.windows(2).all(|w| w[0].probability >= w[1].probability));
    /// # Ok(())
    /// # }
    /// ```
    ///
    /// # Errors
    ///
    /// Returns [`MpmcsError::NoCutSet`] when the tree has no cut set at all,
    /// and propagates internal verification errors.
    pub fn enumerate(
        &self,
        tree: &FaultTree,
        limit: EnumerationLimit,
    ) -> Result<Vec<MpmcsSolution>, MpmcsError> {
        if !limit.allows(0) {
            // `AtMost(0)`: nothing can be reported — do not even encode the
            // tree, let alone run the solver.
            return Ok(Vec::new());
        }
        if self.uses_incremental_enumeration() {
            self.enumerate_incremental(tree, limit, None)
        } else {
            self.enumerate_from_scratch(tree, limit)
        }
    }

    /// Whether enumeration runs through the persistent incremental session.
    /// Requires [`MpmcsOptions::incremental`](crate::MpmcsOptions) and an
    /// algorithm choice the core-guided session can honour — a pure
    /// linear-SAT–UNSAT request has no incremental counterpart (its unit
    /// bound assertions cannot be relaxed for the next, costlier optimum),
    /// so it keeps the per-cut-set pipeline.
    fn uses_incremental_enumeration(&self) -> bool {
        use crate::solver::AlgorithmChoice;
        self.options().incremental && self.options().algorithm != AlgorithmChoice::LinearSu
    }

    /// The incremental enumeration driver: one encoding, one live solver
    /// session, blocking clauses pushed between optima. `threshold` stops
    /// the loop at the first solution whose probability falls below it
    /// (that solution is not reported).
    fn enumerate_incremental(
        &self,
        tree: &FaultTree,
        limit: EnumerationLimit,
        threshold: Option<f64>,
    ) -> Result<Vec<MpmcsSolution>, MpmcsError> {
        let setup_start = Instant::now();
        // Exactly one tree encoding per enumeration call...
        let encoding = self.encode(tree);
        // ...and exactly one OLL session shared by every cut set.
        let mut session =
            IncrementalMaxSat::with_config(encoding.instance(), self.options().oll_config());
        // The encoding + session construction is charged to the first
        // reported solution, mirroring what the from-scratch pipeline spends
        // inside every per-solution timer.
        let mut setup = setup_start.elapsed();
        let mut solutions: Vec<MpmcsSolution> = Vec::new();
        while limit.allows(solutions.len()) {
            let start = Instant::now();
            let result = session.solve();
            let duration = start.elapsed() + std::mem::take(&mut setup);
            match result.outcome {
                MaxSatOutcome::Unsatisfiable => {
                    // The cut sets are exhausted (or the tree had none).
                    if solutions.is_empty() {
                        return Err(MpmcsError::NoCutSet);
                    }
                    break;
                }
                MaxSatOutcome::Optimum { ref model, .. } => {
                    let raw_cut = encoding.decode(model);
                    let cut = verify::minimise(tree, &raw_cut);
                    let (log_weight, probability) = encoding.cut_probability(&cut);
                    if self.options().verify {
                        verify::check_solution(tree, &cut, probability)?;
                    }
                    if threshold.is_some_and(|t| probability < t) {
                        break;
                    }
                    session.add_hard(encoding.blocking_clause(&cut));
                    solutions.push(MpmcsSolution {
                        cut_set: cut,
                        probability,
                        log_weight,
                        algorithm: result.stats.algorithm.clone(),
                        stats: result.stats,
                        duration,
                    });
                }
            }
        }
        Ok(canonicalize(&encoding, solutions))
    }

    /// The historical per-cut-set pipeline: a fresh encoding copy grows
    /// blocking clauses and every optimum is solved from scratch. Kept as
    /// the measured baseline of the incremental path (E11) and for the
    /// equivalence regression tests.
    fn enumerate_from_scratch(
        &self,
        tree: &FaultTree,
        limit: EnumerationLimit,
    ) -> Result<Vec<MpmcsSolution>, MpmcsError> {
        let mut encoding = self.encode(tree);
        let mut solutions: Vec<MpmcsSolution> = Vec::new();
        while limit.allows(solutions.len()) {
            match self.solve_encoded(tree, &encoding) {
                Ok(solution) => {
                    encoding.block_cut(&solution.cut_set);
                    solutions.push(solution);
                }
                Err(MpmcsError::NoCutSet) => {
                    if solutions.is_empty() {
                        return Err(MpmcsError::NoCutSet);
                    }
                    break;
                }
                Err(other) => return Err(other),
            }
        }
        Ok(canonicalize(&encoding, solutions))
    }
}

impl MpmcsSolver {
    /// Enumerates every minimal cut set whose probability is at least
    /// `threshold`, in non-increasing probability order.
    ///
    /// This is the "risk triage" view of the enumeration API: rather than a
    /// fixed count, the caller states the probability level below which cut
    /// sets are no longer actionable. An empty vector is returned when even
    /// the MPMCS falls below the threshold.
    ///
    /// # Errors
    ///
    /// Returns [`MpmcsError::NoCutSet`] when the tree has no cut set at all,
    /// and propagates internal verification errors.
    pub fn enumerate_above(
        &self,
        tree: &FaultTree,
        threshold: f64,
    ) -> Result<Vec<MpmcsSolution>, MpmcsError> {
        if self.uses_incremental_enumeration() {
            return self.enumerate_incremental(tree, EnumerationLimit::All, Some(threshold));
        }
        let mut encoding = self.encode(tree);
        let mut solutions: Vec<MpmcsSolution> = Vec::new();
        loop {
            match self.solve_encoded(tree, &encoding) {
                Ok(solution) => {
                    if solution.probability < threshold {
                        break;
                    }
                    encoding.block_cut(&solution.cut_set);
                    solutions.push(solution);
                }
                Err(MpmcsError::NoCutSet) => {
                    if solutions.is_empty() {
                        return Err(MpmcsError::NoCutSet);
                    }
                    break;
                }
                Err(other) => return Err(other),
            }
        }
        Ok(canonicalize(&encoding, solutions))
    }

    /// Enumerates every minimal cut set whose probability is within a factor
    /// of the optimum: all cut sets `K` with `P(K) ≥ P(MPMCS) / factor`.
    ///
    /// # Errors
    ///
    /// Returns [`MpmcsError::NoCutSet`] when the tree has no cut set at all,
    /// and propagates internal verification errors.
    ///
    /// # Panics
    ///
    /// Panics if `factor < 1`.
    pub fn enumerate_within_factor(
        &self,
        tree: &FaultTree,
        factor: f64,
    ) -> Result<Vec<MpmcsSolution>, MpmcsError> {
        assert!(factor >= 1.0, "the factor must be at least 1");
        let best = self.solve(tree)?;
        self.enumerate_above(tree, best.probability / factor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::{AlgorithmChoice, MpmcsOptions};
    use fault_tree::examples::{fire_protection_system, pressure_tank_system};
    use fault_tree::CutSet;

    #[test]
    fn top_k_of_the_fire_protection_system_is_ordered_by_probability() {
        let tree = fire_protection_system();
        let solver = MpmcsSolver::new();
        let top3 = solver.solve_top_k(&tree, 3).expect("solvable");
        assert_eq!(top3.len(), 3);
        // Candidate MCSs and probabilities:
        // {x1,x2}=0.02, {x3}=0.001, {x4}=0.002, {x5,x6}=0.005, {x5,x7}=0.0025.
        assert_eq!(top3[0].event_names(&tree), vec!["x1", "x2"]);
        assert!((top3[0].probability - 0.02).abs() < 1e-9);
        assert_eq!(top3[1].event_names(&tree), vec!["x5", "x6"]);
        assert!((top3[1].probability - 0.005).abs() < 1e-9);
        assert_eq!(top3[2].event_names(&tree), vec!["x5", "x7"]);
        assert!((top3[2].probability - 0.0025).abs() < 1e-9);
        // Ordering is non-increasing.
        for pair in top3.windows(2) {
            assert!(pair[0].probability >= pair[1].probability - 1e-15);
        }
    }

    #[test]
    fn enumerating_all_mcs_of_the_fps_finds_exactly_five() {
        let tree = fire_protection_system();
        let solver = MpmcsSolver::new();
        let all = solver
            .enumerate(&tree, EnumerationLimit::All)
            .expect("solvable");
        assert_eq!(all.len(), 5);
        let mut names: Vec<Vec<String>> = all.iter().map(|s| s.event_names(&tree)).collect();
        names.sort();
        assert_eq!(
            names,
            vec![
                vec!["x1".to_string(), "x2".to_string()],
                vec!["x3".to_string()],
                vec!["x4".to_string()],
                vec!["x5".to_string(), "x6".to_string()],
                vec!["x5".to_string(), "x7".to_string()],
            ]
        );
        // Every reported set is a minimal cut set and they are pairwise distinct.
        for solution in &all {
            assert!(tree.is_minimal_cut_set(&solution.cut_set));
        }
        let distinct: std::collections::BTreeSet<CutSet> =
            all.iter().map(|s| s.cut_set.clone()).collect();
        assert_eq!(distinct.len(), all.len());
    }

    #[test]
    fn asking_for_more_than_available_returns_what_exists() {
        let tree = pressure_tank_system();
        let solver = MpmcsSolver::new();
        let many = solver.solve_top_k(&tree, 50).expect("solvable");
        // The pressure tank tree has exactly 3 minimal cut sets.
        assert_eq!(many.len(), 3);
        assert!((many[0].probability - 1e-5).abs() < 1e-15);
        assert!((many[1].probability - 5e-6).abs() < 1e-15);
        assert!((many[2].probability - 1e-6).abs() < 1e-15);
    }

    #[test]
    fn top_one_equals_the_plain_solve() {
        let tree = fire_protection_system();
        let solver = MpmcsSolver::new();
        let single = solver.solve(&tree).expect("solvable");
        let top1 = solver.solve_top_k(&tree, 1).expect("solvable");
        assert_eq!(top1.len(), 1);
        assert_eq!(top1[0].cut_set, single.cut_set);
    }

    /// `solve_top_k(_, 0)` / `AtMost(0)` return an empty vector without
    /// running the solver — even on a tree that has no cut set at all (where
    /// a solver run would report `NoCutSet`).
    #[test]
    fn top_zero_returns_empty_without_solving() {
        let tree = fire_protection_system();
        let solver = MpmcsSolver::new();
        assert_eq!(solver.solve_top_k(&tree, 0).expect("no work"), Vec::new());
        assert_eq!(
            solver
                .enumerate(&tree, EnumerationLimit::AtMost(0))
                .expect("no work"),
            Vec::new()
        );
    }

    /// A tree whose cut sets are exhausted mid-enumeration terminates
    /// cleanly in the incremental path: asking for more than exist returns
    /// what exists, with every solution verified.
    #[test]
    fn exhaustion_mid_enumeration_terminates_cleanly_incrementally() {
        let tree = pressure_tank_system();
        let solver = MpmcsSolver::new();
        assert!(solver.options().incremental);
        // The pressure tank tree has exactly 3 minimal cut sets; ask for 50.
        let many = solver.solve_top_k(&tree, 50).expect("solvable");
        assert_eq!(many.len(), 3);
        for solution in &many {
            assert!(tree.is_minimal_cut_set(&solution.cut_set));
        }
        // Full enumeration agrees.
        let all = solver
            .enumerate(&tree, EnumerationLimit::All)
            .expect("solvable");
        assert_eq!(all.len(), 3);
    }

    /// The acceptance check of the incremental refactor: one enumeration
    /// call reuses a single solver session across all cut sets, which the
    /// new `session_calls` counter proves — it accumulates over the whole
    /// session, so it must grow strictly across solutions and its final
    /// value must equal the sum of the per-stage SAT calls.
    #[test]
    fn incremental_enumeration_reuses_one_session() {
        let tree = fire_protection_system();
        let solver = MpmcsSolver::new();
        let all = solver
            .enumerate(&tree, EnumerationLimit::All)
            .expect("solvable");
        assert_eq!(all.len(), 5);
        // The canonical output order may permute equal-cost tie groups, so
        // compare the per-solution snapshots as a set: one shared session
        // means strictly distinct, growing cumulative counters.
        let mut session_calls: Vec<u64> = all.iter().map(|s| s.stats.session_calls).collect();
        session_calls.sort_unstable();
        for pair in session_calls.windows(2) {
            assert!(
                pair[0] < pair[1],
                "session-cumulative SAT calls must grow across cut sets"
            );
        }
        let per_stage_total: u64 = all.iter().map(|s| s.stats.sat_calls).sum();
        // The last snapshot covers every reported stage (the extra SAT call
        // discovering exhaustion belongs to the session, not to a solution).
        let session_total = *session_calls.last().expect("non-empty");
        assert_eq!(session_total, per_stage_total);

        // The from-scratch baseline, by contrast, restarts the counter for
        // every cut set.
        let scratch_solver = MpmcsSolver::with_options(MpmcsOptions {
            incremental: false,
            ..MpmcsOptions::new()
        });
        let scratch = scratch_solver
            .enumerate(&tree, EnumerationLimit::All)
            .expect("solvable");
        assert_eq!(scratch.len(), 5);
        // Both paths report the same cut sets in the same order.
        for (a, b) in all.iter().zip(&scratch) {
            assert_eq!(a.cut_set, b.cut_set);
            assert!((a.probability - b.probability).abs() < 1e-12);
        }
    }

    /// An explicit linear-SAT–UNSAT request is honoured by enumeration: it
    /// has no incremental counterpart, so it keeps the from-scratch pipeline
    /// and its own algorithm tag instead of being silently rerouted to the
    /// core-guided session.
    #[test]
    fn linear_su_enumeration_keeps_the_linear_algorithm() {
        let tree = fire_protection_system();
        let solver = MpmcsSolver::with_options(MpmcsOptions {
            algorithm: AlgorithmChoice::LinearSu,
            ..MpmcsOptions::new()
        });
        let top2 = solver.solve_top_k(&tree, 2).expect("solvable");
        assert_eq!(top2.len(), 2);
        assert!(
            top2.iter().all(|s| s.algorithm.starts_with("linear-su")),
            "{:?}",
            top2.iter().map(|s| s.algorithm.clone()).collect::<Vec<_>>()
        );
    }

    /// Incremental and from-scratch enumeration agree on every generated
    /// family tree (cut sets, order, probabilities).
    #[test]
    fn incremental_enumeration_matches_from_scratch_on_generated_trees() {
        use ft_generators::Family;
        for (family, seed) in [
            (Family::RandomMixed, 11),
            (Family::OrHeavy, 12),
            (Family::AndHeavy, 13),
        ] {
            let tree = family.generate(60, seed);
            let incremental = MpmcsSolver::new().solve_top_k(&tree, 8).expect("solvable");
            let scratch = MpmcsSolver::with_options(MpmcsOptions {
                incremental: false,
                ..MpmcsOptions::new()
            })
            .solve_top_k(&tree, 8)
            .expect("solvable");
            assert_eq!(incremental.len(), scratch.len(), "{}", family.name());
            for (a, b) in incremental.iter().zip(&scratch) {
                assert_eq!(a.cut_set, b.cut_set, "{}", family.name());
                assert!((a.probability - b.probability).abs() < 1e-12);
            }
        }
    }
}

#[cfg(test)]
mod threshold_tests {
    use super::*;
    use fault_tree::examples::fire_protection_system;

    #[test]
    fn enumerate_above_keeps_only_cut_sets_at_or_over_the_threshold() {
        let tree = fire_protection_system();
        let solver = MpmcsSolver::new();
        // Threshold 0.002 keeps {x1,x2}=0.02, {x5,x6}=0.005, {x5,x7}=0.0025 and
        // {x4}=0.002 but drops {x3}=0.001.
        let kept = solver.enumerate_above(&tree, 0.002).expect("solvable");
        assert_eq!(kept.len(), 4);
        assert!(kept.iter().all(|s| s.probability >= 0.002 - 1e-15));
        // A threshold above the optimum returns an empty list (but no error).
        let none = solver.enumerate_above(&tree, 0.5).expect("solvable");
        assert!(none.is_empty());
        // A zero threshold returns every minimal cut set.
        let all = solver.enumerate_above(&tree, 0.0).expect("solvable");
        assert_eq!(all.len(), 5);
    }

    #[test]
    fn enumerate_within_factor_brackets_the_optimum() {
        let tree = fire_protection_system();
        let solver = MpmcsSolver::new();
        // Factor 5: keep everything with probability >= 0.02/5 = 0.004,
        // i.e. {x1,x2}=0.02 and {x5,x6}=0.005.
        let close = solver
            .enumerate_within_factor(&tree, 5.0)
            .expect("solvable");
        assert_eq!(close.len(), 2);
        assert_eq!(close[0].event_names(&tree), vec!["x1", "x2"]);
        assert_eq!(close[1].event_names(&tree), vec!["x5", "x6"]);
        // Factor 1: only the optimum itself.
        let only = solver
            .enumerate_within_factor(&tree, 1.0)
            .expect("solvable");
        assert_eq!(only.len(), 1);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn enumerate_within_factor_rejects_factors_below_one() {
        let tree = fire_protection_system();
        let _ = MpmcsSolver::new().enumerate_within_factor(&tree, 0.5);
    }
}
