//! Enumeration of minimal cut sets in decreasing probability order.
//!
//! The MPMCS machinery naturally extends to ranking: after reporting the
//! optimum, a *blocking clause* excludes it (and all of its supersets) and
//! the next call returns the second most probable minimal cut set, and so on.
//! Running the loop to exhaustion enumerates **all** minimal cut sets of the
//! tree ordered by probability, which subsumes the classic qualitative
//! cut-set analysis.
//!
//! The loop has one implementation, [`McsStream`](crate::McsStream): the
//! tree is Tseitin-encoded once, blocking clauses are pushed into one live
//! core-guided OLL session, and equal-cost tie groups are released in
//! canonical order. The collected queries below drain that stream, so a
//! top-`k` answer is always the first `k` entries of the full canonical
//! enumeration.

use std::sync::Arc;

use fault_tree::FaultTree;

use crate::error::MpmcsError;
use crate::solver::{MpmcsSolution, MpmcsSolver};
use crate::stream::StreamStep;

/// How many cut sets to enumerate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EnumerationLimit {
    /// Enumerate every minimal cut set.
    All,
    /// Stop after at most this many cut sets.
    AtMost(usize),
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

    /// Enumerates minimal cut sets in canonical order (non-increasing
    /// probability, ties by cut set), up to the given limit, by draining an
    /// [`McsStream`](crate::McsStream). The
    /// [`algorithm`](crate::MpmcsOptions::algorithm) option does not apply:
    /// every enumeration runs the stream's OLL session.
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
        let cap = match limit {
            EnumerationLimit::All => usize::MAX,
            EnumerationLimit::AtMost(k) => k,
        };
        let mut solutions = Vec::new();
        if cap == 0 {
            // Nothing can be reported: do not even encode the tree.
            return Ok(solutions);
        }
        let mut stream = self.stream(Arc::new(tree.clone()));
        while solutions.len() < cap {
            match stream.next_step()? {
                StreamStep::Solution(solution) => solutions.push(solution),
                StreamStep::Exhausted => break,
                StreamStep::Interrupted => unreachable!("no interrupt hook is installed"),
            }
        }
        Ok(solutions)
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
    /// cleanly: asking for more than exist returns what exists, with every
    /// solution verified.
    #[test]
    fn exhaustion_mid_enumeration_terminates_cleanly_incrementally() {
        let tree = pressure_tank_system();
        let solver = MpmcsSolver::new();
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

    /// One enumeration call reuses a single solver session across all cut
    /// sets, which the `session_calls` counter proves: it accumulates over
    /// the whole session, so it must grow strictly across solutions and its
    /// final value must equal the sum of the per-stage SAT calls.
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
    }

    /// The algorithm choice selects the solver of a single MPMCS only: a
    /// linear-SAT–UNSAT request labels `solve`, while its enumerations drain
    /// the OLL stream and equal the default solver's, label included.
    #[test]
    fn linear_su_solves_the_mpmcs_and_enumeration_runs_oll() {
        let tree = fire_protection_system();
        let solver = MpmcsSolver::with_options(MpmcsOptions {
            algorithm: AlgorithmChoice::LinearSu,
            ..MpmcsOptions::new()
        });
        assert!(solver
            .solve(&tree)
            .expect("solvable")
            .algorithm
            .starts_with("linear-su"));
        let top2 = solver.solve_top_k(&tree, 2).expect("solvable");
        let default = MpmcsSolver::new().solve_top_k(&tree, 2).expect("solvable");
        assert_eq!(top2.len(), 2);
        for (linear, oll) in top2.iter().zip(&default) {
            assert_eq!(linear.cut_set, oll.cut_set);
            assert_eq!(linear.algorithm, "oll");
            assert_eq!(linear.algorithm, oll.algorithm);
        }
    }

    /// Every bounded answer is a prefix of every deeper one, tie groups
    /// included, on generated family trees.
    #[test]
    fn top_k_is_a_prefix_of_every_deeper_enumeration_on_generated_trees() {
        use ft_generators::Family;
        for (family, seed) in [
            (Family::RandomMixed, 11),
            (Family::OrHeavy, 12),
            (Family::AndHeavy, 13),
        ] {
            let tree = family.generate(60, seed);
            let solver = MpmcsSolver::new();
            let deep = solver.solve_top_k(&tree, 12).expect("solvable");
            for k in [1, 5, 8] {
                let top = solver.solve_top_k(&tree, k).expect("solvable");
                assert_eq!(top.len(), k.min(deep.len()), "{}", family.name());
                for (a, b) in top.iter().zip(&deep) {
                    assert_eq!(a.cut_set, b.cut_set, "{} top-{k}", family.name());
                    assert_eq!(a.probability.to_bits(), b.probability.to_bits());
                }
            }
        }
    }
}
