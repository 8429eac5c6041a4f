//! Linear SAT–UNSAT (model-improving) Weighted Partial MaxSAT.
//!
//! The algorithm first finds any model of the hard clauses, then repeatedly
//! demands a strictly better one by asserting a pseudo-Boolean upper bound on
//! the penalty (encoded with a generalized totalizer) until the SAT solver
//! reports unsatisfiability; the last model found is optimal.
//!
//! The generalized totalizer can grow large for adversarial weight
//! distributions; when the configured size limit is exceeded the solver
//! transparently falls back to the core-guided [`OllSolver`](crate::OllSolver)
//! so that a correct optimum is always produced.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};

use sat_solver::{Lit, SolveResult, Solver, SolverConfig};

use crate::encodings::gte::{GteBuilder, GteError};
use crate::instance::WcnfInstance;
use crate::oll::{extract_model, normalize_softs, OllSolver};
use crate::result::{MaxSatOutcome, MaxSatResult, MaxSatStats};
use crate::MaxSatAlgorithm;

/// Configuration of the [`LinearSuSolver`].
#[derive(Clone, Debug)]
pub struct LinearSuConfig {
    /// Configuration of the underlying SAT solver.
    pub sat_config: SolverConfig,
    /// Maximum number of generalized-totalizer outputs before falling back to
    /// the core-guided algorithm.
    pub max_gte_outputs: usize,
}

impl Default for LinearSuConfig {
    fn default() -> Self {
        LinearSuConfig {
            sat_config: SolverConfig::default(),
            // Weighted instances with many distinct weights blow the encoding
            // up quickly; beyond this size the core-guided fallback is faster
            // than even *building* the GTE, so the default cap is modest.
            max_gte_outputs: 20_000,
        }
    }
}

/// Model-improving linear SAT–UNSAT solver.
#[derive(Clone, Debug, Default)]
pub struct LinearSuSolver {
    config: LinearSuConfig,
}

impl LinearSuSolver {
    /// Creates a solver with the given configuration.
    pub fn new(config: LinearSuConfig) -> Self {
        LinearSuSolver { config }
    }

    /// Creates a solver whose underlying SAT solver uses `sat_config`.
    pub fn with_sat_config(sat_config: SolverConfig) -> Self {
        LinearSuSolver {
            config: LinearSuConfig {
                sat_config,
                ..LinearSuConfig::default()
            },
        }
    }

    /// Penalty of a model measured on the normalised penalty literals.
    fn penalty_of(model: &[bool], weights: &BTreeMap<Lit, u64>) -> u64 {
        weights
            .iter()
            .filter(|(lit, _)| {
                // `lit` is the "satisfied" polarity; penalty is paid when it is false.
                let value = model.get(lit.var().index()).copied().unwrap_or(false);
                value == lit.is_negative()
            })
            .map(|(_, w)| *w)
            .sum()
    }
}

impl MaxSatAlgorithm for LinearSuSolver {
    fn name(&self) -> &'static str {
        "linear-su"
    }

    fn solve_with_stop(&self, instance: &WcnfInstance, stop: &AtomicBool) -> Option<MaxSatResult> {
        let mut stats = MaxSatStats {
            algorithm: self.name().to_string(),
            ..MaxSatStats::default()
        };
        // One persistent solver per instance: the GTE structure below is
        // built once and tightened in place by unit assertions, never
        // re-encoded, and every SAT call starts from the learnt state of the
        // previous one.
        let mut solver = Solver::with_config(self.config.sat_config.clone());
        solver.ensure_vars(instance.num_vars());
        for clause in instance.hard_clauses() {
            solver.add_clause(clause.iter().copied());
        }
        let (weights, baseline) = normalize_softs(&mut solver, instance);

        let finish = |mut stats: MaxSatStats, solver: &Solver, outcome: MaxSatOutcome| {
            stats.absorb_solver(solver.stats());
            stats.session_calls = solver.stats().solve_calls;
            Some(MaxSatResult { outcome, stats })
        };

        if stop.load(Ordering::Relaxed) {
            return None;
        }
        stats.sat_calls += 1;
        let first_model = match solver.solve() {
            SolveResult::Sat(model) => model,
            SolveResult::Unsat => {
                return finish(stats, &solver, MaxSatOutcome::Unsatisfiable);
            }
            SolveResult::Interrupted => return None,
        };
        // Extend the model to cover relaxation variables introduced by
        // `normalize_softs` (they live above `instance.num_vars()`).
        let mut best_full_model: Vec<bool> = (0..solver.num_vars())
            .map(|i| first_model.value(sat_solver::Var::from_index(i)))
            .collect();
        let mut best_penalty = Self::penalty_of(&best_full_model, &weights);
        stats.upper_bound = baseline + best_penalty;

        if weights.is_empty() || best_penalty == 0 {
            let model_vec = extract_model(&first_model, instance.num_vars());
            let cost = instance.cost_of(&model_vec);
            stats.upper_bound = cost;
            return finish(
                stats,
                &solver,
                MaxSatOutcome::Optimum {
                    model: model_vec,
                    cost,
                },
            );
        }

        // Build the pseudo-Boolean structure once; tighten by asserting units.
        let penalty_inputs: Vec<(Lit, u64)> = weights.iter().map(|(&l, &w)| (!l, w)).collect();
        let gte = match GteBuilder::build(&mut solver, &penalty_inputs, self.config.max_gte_outputs)
        {
            Ok(gte) => gte,
            Err(GteError::TooLarge { .. }) | Err(GteError::Empty) => {
                // Fall back to the core-guided algorithm; keep its stats but
                // record that the fallback happened, and fold in the SAT
                // work this solver already performed (the initial solve).
                let mut result = OllSolver::with_sat_config(self.config.sat_config.clone())
                    .solve_with_stop(instance, stop)?;
                result.stats.algorithm = "linear-su(fallback:oll)".to_string();
                result.stats.sat_calls += stats.sat_calls;
                let spent = solver.stats();
                result.stats.conflicts += spent.conflicts;
                result.stats.propagations += spent.propagations;
                result.stats.restarts += spent.restarts;
                result.stats.learnt_reused += spent.learnt_reused;
                result.stats.inprocess_rounds += spent.inprocess_rounds;
                result.stats.inprocess_strengthened += spent.inprocess_strengthened;
                result.stats.inprocess_removed += spent.inprocess_removed;
                result.stats.arena_compactions += spent.arena_compactions;
                return Some(result);
            }
        };

        let mut asserted_above = gte.max_sum();
        loop {
            if stop.load(Ordering::Relaxed) {
                return None;
            }
            if best_penalty == 0 {
                break;
            }
            let bound = best_penalty - 1;
            // Assert every output strictly above the new bound that has not
            // been asserted yet.
            for (&sum, &lit) in gte.outputs().range((bound + 1)..=asserted_above) {
                let _ = sum;
                solver.add_clause([!lit]);
            }
            asserted_above = bound;
            stats.sat_calls += 1;
            match solver.solve() {
                SolveResult::Sat(model) => {
                    stats.improvements += 1;
                    best_full_model = (0..solver.num_vars())
                        .map(|i| model.value(sat_solver::Var::from_index(i)))
                        .collect();
                    let penalty = Self::penalty_of(&best_full_model, &weights);
                    debug_assert!(penalty < best_penalty, "each iteration must improve");
                    best_penalty = penalty;
                    stats.upper_bound = baseline + best_penalty;
                }
                SolveResult::Unsat => break,
                SolveResult::Interrupted => return None,
            }
        }

        let model_vec: Vec<bool> = best_full_model
            .iter()
            .copied()
            .take(instance.num_vars())
            .chain(std::iter::repeat(false))
            .take(instance.num_vars())
            .collect();
        let cost = instance.cost_of(&model_vec);
        stats.lower_bound = cost;
        stats.upper_bound = cost;
        finish(
            stats,
            &solver,
            MaxSatOutcome::Optimum {
                model: model_vec,
                cost,
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests_support::{brute_force_optimum, random_instance, verify_optimum};
    use sat_solver::Var;

    fn pos(i: usize) -> Lit {
        Lit::positive(Var::from_index(i))
    }
    fn neg(i: usize) -> Lit {
        Lit::negative(Var::from_index(i))
    }

    #[test]
    fn finds_the_minimum_weight_model() {
        let mut inst = WcnfInstance::with_vars(3);
        inst.add_hard([pos(0), pos(1), pos(2)]);
        inst.add_soft([neg(0)], 9);
        inst.add_soft([neg(1)], 2);
        inst.add_soft([neg(2)], 5);
        let result = LinearSuSolver::default().solve(&inst);
        assert_eq!(result.outcome.cost(), Some(2));
        let model = result.outcome.model().unwrap();
        assert!(!model[0] && model[1] && !model[2]);
    }

    #[test]
    fn detects_unsatisfiable_hard_clauses() {
        let mut inst = WcnfInstance::with_vars(1);
        inst.add_hard([pos(0)]);
        inst.add_hard([neg(0)]);
        let result = LinearSuSolver::default().solve(&inst);
        assert_eq!(result.outcome, MaxSatOutcome::Unsatisfiable);
    }

    #[test]
    fn zero_penalty_model_is_recognised_immediately() {
        let mut inst = WcnfInstance::with_vars(2);
        inst.add_hard([pos(0), pos(1)]);
        inst.add_soft([pos(0), pos(1)], 3);
        let result = LinearSuSolver::default().solve(&inst);
        assert_eq!(result.outcome.cost(), Some(0));
        assert!(result.stats.sat_calls >= 1);
    }

    #[test]
    fn falls_back_to_oll_when_the_encoding_is_too_large() {
        let config = LinearSuConfig {
            max_gte_outputs: 4,
            ..LinearSuConfig::default()
        };
        let mut inst = WcnfInstance::with_vars(6);
        inst.add_hard((0..6).map(pos).collect::<Vec<_>>());
        for i in 0..6 {
            inst.add_soft([neg(i)], 1 + (1 << i) as u64);
        }
        let result = LinearSuSolver::new(config).solve(&inst);
        assert!(result.stats.algorithm.contains("fallback"));
        // Cheapest way to satisfy the hard clause is x0 (weight 2).
        assert_eq!(result.outcome.cost(), Some(2));
    }

    #[test]
    fn matches_brute_force_on_random_instances() {
        for seed in 100..120 {
            let inst = random_instance(seed, 7, 10, 5);
            let expected = brute_force_optimum(&inst);
            let result = LinearSuSolver::default().solve(&inst);
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
    fn agrees_with_oll_on_random_instances() {
        use crate::OllSolver;
        for seed in 500..515 {
            let inst = random_instance(seed, 10, 18, 8);
            let linear = LinearSuSolver::default().solve(&inst);
            let oll = OllSolver::default().solve(&inst);
            assert_eq!(linear.outcome.cost(), oll.outcome.cost(), "seed {seed}");
        }
    }

    #[test]
    fn stop_flag_interrupts_the_search() {
        let mut inst = WcnfInstance::with_vars(2);
        inst.add_hard([pos(0), pos(1)]);
        inst.add_soft([neg(0)], 1);
        let stop = AtomicBool::new(true);
        assert!(LinearSuSolver::default()
            .solve_with_stop(&inst, &stop)
            .is_none());
    }
}
