//! Core-guided OLL (RC2-style) Weighted Partial MaxSAT.
//!
//! The algorithm repeatedly asks the SAT solver for a model in which every
//! remaining soft constraint holds (passed as assumptions). Each
//! unsatisfiable core raises the lower bound by the smallest weight in the
//! core and is reformulated: a totalizer counts how many core members are
//! violated, and "at most one violated" becomes a new (cheaper) soft
//! constraint. When that constraint lands in a later core, the totalizer
//! grows by one count and "at most two violated" takes over, and so on, so a
//! wide core costs clauses in proportion to the violations the search
//! actually needs. The first satisfiable call yields a provably optimal
//! model.
//!
//! This strategy shines when the optimum violates few soft clauses — which is
//! exactly the minimal-cut-set setting, where solutions contain a handful of
//! basic events out of thousands.
//!
//! The loop itself lives in [`IncrementalMaxSat`](crate::IncrementalMaxSat),
//! whose first call is a one-shot solve; this module holds the soft-clause
//! normalisation it shares with the linear SAT–UNSAT solver.

use std::collections::BTreeMap;

use sat_solver::{Lit, Solver, Var};

use crate::instance::WcnfInstance;

/// Normalises the soft clauses of `instance` into *assumption literals*:
/// assuming the literal means "this soft clause is satisfied". Returns the
/// aggregated weight map and the cost of soft clauses that can never be
/// satisfied (empty clauses).
pub(crate) fn normalize_softs(
    solver: &mut Solver,
    instance: &WcnfInstance,
) -> (BTreeMap<Lit, u64>, u64) {
    let mut weights: BTreeMap<Lit, u64> = BTreeMap::new();
    let mut baseline = 0u64;
    for soft in instance.soft_clauses() {
        match soft.lits.len() {
            0 => baseline += soft.weight,
            1 => *weights.entry(soft.lits[0]).or_insert(0) += soft.weight,
            _ => {
                let relax = Lit::positive(solver.new_var());
                let mut clause = soft.lits.clone();
                clause.push(relax);
                solver.add_clause(clause);
                *weights.entry(!relax).or_insert(0) += soft.weight;
            }
        }
    }
    (weights, baseline)
}

/// Extracts a model vector covering the instance variables.
pub(crate) fn extract_model(model: &sat_solver::Model, num_vars: usize) -> Vec<bool> {
    (0..num_vars)
        .map(|i| {
            if i < model.len() {
                model.value(Var::from_index(i))
            } else {
                false
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests_support::{brute_force_optimum, random_instance, verify_optimum};
    use crate::{BoundedSolve, IncrementalMaxSat, MaxSatOutcome};

    fn pos(i: usize) -> Lit {
        Lit::positive(Var::from_index(i))
    }
    fn neg(i: usize) -> Lit {
        Lit::negative(Var::from_index(i))
    }

    #[test]
    fn picks_the_cheapest_way_to_satisfy_hard_clauses() {
        let mut inst = WcnfInstance::with_vars(2);
        inst.add_hard([pos(0), pos(1)]);
        inst.add_soft([neg(0)], 5);
        inst.add_soft([neg(1)], 3);
        let result = IncrementalMaxSat::new(&inst).solve();
        assert_eq!(result.outcome.cost(), Some(3));
        let model = result.outcome.model().unwrap();
        assert!(!model[0] && model[1]);
    }

    #[test]
    fn reports_unsatisfiable_hard_clauses() {
        let mut inst = WcnfInstance::with_vars(1);
        inst.add_hard([pos(0)]);
        inst.add_hard([neg(0)]);
        inst.add_soft([pos(0)], 1);
        let result = IncrementalMaxSat::new(&inst).solve();
        assert_eq!(result.outcome, MaxSatOutcome::Unsatisfiable);
    }

    #[test]
    fn no_soft_clauses_means_cost_zero() {
        let mut inst = WcnfInstance::with_vars(2);
        inst.add_hard([pos(0), pos(1)]);
        let result = IncrementalMaxSat::new(&inst).solve();
        assert_eq!(result.outcome.cost(), Some(0));
    }

    #[test]
    fn empty_soft_clause_contributes_a_fixed_cost() {
        let mut inst = WcnfInstance::with_vars(1);
        inst.add_hard([pos(0)]);
        inst.add_soft(Vec::<Lit>::new(), 9);
        inst.add_soft([neg(0)], 2);
        let result = IncrementalMaxSat::new(&inst).solve();
        assert_eq!(result.outcome.cost(), Some(11));
    }

    #[test]
    fn weighted_cores_are_split_correctly() {
        // Hard: at least two of x0..x2 must hold. Softs prefer all false with
        // different weights; optimum picks the two cheapest.
        let mut inst = WcnfInstance::with_vars(3);
        inst.add_hard([pos(0), pos(1)]);
        inst.add_hard([pos(0), pos(2)]);
        inst.add_hard([pos(1), pos(2)]);
        inst.add_soft([neg(0)], 10);
        inst.add_soft([neg(1)], 4);
        inst.add_soft([neg(2)], 6);
        let result = IncrementalMaxSat::new(&inst).solve();
        assert_eq!(result.outcome.cost(), Some(10)); // 4 + 6
        let model = result.outcome.model().unwrap();
        assert!(!model[0] && model[1] && model[2]);
    }

    #[test]
    fn non_unit_soft_clauses_are_relaxed() {
        // Soft clause (x0 ∨ x1) with weight 7, hard clause forcing both false.
        let mut inst = WcnfInstance::with_vars(2);
        inst.add_hard([neg(0)]);
        inst.add_hard([neg(1)]);
        inst.add_soft([pos(0), pos(1)], 7);
        let result = IncrementalMaxSat::new(&inst).solve();
        assert_eq!(result.outcome.cost(), Some(7));
    }

    #[test]
    fn duplicate_soft_literals_aggregate_their_weights() {
        let mut inst = WcnfInstance::with_vars(1);
        inst.add_hard([pos(0)]);
        inst.add_soft([neg(0)], 2);
        inst.add_soft([neg(0)], 3);
        let result = IncrementalMaxSat::new(&inst).solve();
        assert_eq!(result.outcome.cost(), Some(5));
    }

    #[test]
    fn matches_brute_force_on_random_instances() {
        for seed in 0..25 {
            let inst = random_instance(seed, 8, 12, 6);
            let expected = brute_force_optimum(&inst);
            let result = IncrementalMaxSat::new(&inst).solve();
            match expected {
                None => assert_eq!(result.outcome, MaxSatOutcome::Unsatisfiable, "seed {seed}"),
                Some(cost) => {
                    assert_eq!(result.outcome.cost(), Some(cost), "seed {seed}");
                    verify_optimum(&inst, &result);
                }
            }
        }
    }

    #[test]
    fn stop_flag_interrupts_the_search() {
        let mut inst = WcnfInstance::with_vars(2);
        inst.add_hard([pos(0), pos(1)]);
        inst.add_soft([neg(0)], 1);
        let mut oll = IncrementalMaxSat::new(&inst);
        oll.set_interrupt(Some(std::sync::Arc::new(|| true)));
        assert_eq!(oll.solve_within(u64::MAX), BoundedSolve::Interrupted);
    }
}
