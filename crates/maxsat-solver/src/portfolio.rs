//! Parallel MaxSAT portfolio (paper Step 5).
//!
//! Different MaxSAT algorithms — and the same algorithm under different SAT
//! solver configurations — behave very differently on individual instances.
//! The portfolio runs several pre-configured solvers in parallel threads and
//! returns the answer of the first one that finishes, which gives a much more
//! stable runtime profile than any single configuration.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;

use sat_solver::{InterruptHook, SolverConfig};

use crate::incremental::IncrementalMaxSat;
use crate::instance::WcnfInstance;
use crate::linear::LinearSuSolver;
use crate::result::MaxSatResult;

/// The algorithm of one portfolio entry.
#[derive(Clone, Copy, Debug)]
enum Algorithm {
    Oll,
    LinearSu,
}

/// The line-up: OLL under two SAT configurations plus linear SAT–UNSAT,
/// mirroring the heterogeneous solver line-up of the original MPMCS4FTA
/// tool.
fn line_up() -> [(Algorithm, SolverConfig); 3] {
    let base = SolverConfig::default();
    let aggressive = SolverConfig {
        var_decay: 0.85,
        restart_first: 50,
        seed: 1,
        ..base.clone()
    };
    let diverse = SolverConfig {
        random_var_freq: 0.02,
        default_phase: true,
        seed: 7,
        ..base.clone()
    };
    [
        (Algorithm::Oll, base),
        (Algorithm::Oll, aggressive),
        (Algorithm::LinearSu, diverse),
    ]
}

/// Runs one entry to completion; `None` when `interrupt` fired first.
fn run_entry(
    algorithm: Algorithm,
    config: SolverConfig,
    instance: &WcnfInstance,
    interrupt: InterruptHook,
) -> Option<MaxSatResult> {
    match algorithm {
        Algorithm::Oll => {
            let mut session = IncrementalMaxSat::with_config(instance, config);
            session.set_interrupt(Some(interrupt));
            session.solve_unless_interrupted()
        }
        Algorithm::LinearSu => {
            let mut solver = LinearSuSolver::new(config);
            solver.set_interrupt(Some(interrupt));
            solver.solve(instance)
        }
    }
}

/// A parallel first-to-finish portfolio of MaxSAT solvers.
///
/// Which entry wins depends on thread timing, so on instances with several
/// optimal models two runs may report different (equally optimal) models.
/// Callers that need reproducible answers use [`IncrementalMaxSat`]
/// directly.
#[derive(Default)]
pub struct PortfolioSolver {
    interrupt: Option<InterruptHook>,
}

impl std::fmt::Debug for PortfolioSolver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PortfolioSolver")
            .field("interruptible", &self.interrupt.is_some())
            .finish()
    }
}

impl PortfolioSolver {
    /// Creates a portfolio of the paper's line-up, with no interrupt hook.
    pub fn new() -> Self {
        PortfolioSolver::default()
    }

    /// Installs (or clears) a cancellation probe that every entry's SAT
    /// search polls. When it fires, [`solve`](PortfolioSolver::solve)
    /// returns `None`.
    pub fn set_interrupt(&mut self, hook: Option<InterruptHook>) {
        self.interrupt = hook;
    }

    /// Races the entries on scoped threads and returns the first result,
    /// labelled `portfolio[<entry>]`; `None` when the
    /// [interrupt hook](PortfolioSolver::set_interrupt) fired first. Once one
    /// entry finishes, the others are stopped by their own hooks in the
    /// middle of their SAT calls.
    pub fn solve(&self, instance: &WcnfInstance) -> Option<MaxSatResult> {
        // Raised once a winner is in. It publishes nothing else (the result
        // travels through the channel), so relaxed accesses suffice.
        let decided = Arc::new(AtomicBool::new(false));
        let (sender, receiver) = mpsc::channel();
        let winner = thread::scope(|scope| {
            for (algorithm, config) in line_up() {
                let decided = Arc::clone(&decided);
                let caller = self.interrupt.clone();
                let interrupt: InterruptHook = Arc::new(move || {
                    decided.load(Ordering::Relaxed) || caller.as_ref().is_some_and(|hook| hook())
                });
                let sender = sender.clone();
                scope.spawn(move || {
                    // The receiver outlives the scope, so this cannot fail.
                    let _ = sender.send(run_entry(algorithm, config, instance, interrupt));
                });
            }
            drop(sender);
            let winner = receiver.iter().flatten().next();
            decided.store(true, Ordering::Relaxed);
            winner
        });
        let mut winner = winner?;
        winner.stats.algorithm = format!("portfolio[{}]", winner.stats.algorithm);
        Some(winner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests_support::{brute_force_optimum, random_instance};
    use crate::MaxSatOutcome;
    use sat_solver::{Lit, Var};
    use std::sync::atomic::AtomicU64;

    fn pos(i: usize) -> Lit {
        Lit::positive(Var::from_index(i))
    }
    fn neg(i: usize) -> Lit {
        Lit::negative(Var::from_index(i))
    }

    /// Runs one entry on its own, outside the race.
    fn run_alone(entry: &(Algorithm, SolverConfig), instance: &WcnfInstance) -> MaxSatResult {
        run_entry(entry.0, entry.1.clone(), instance, Arc::new(|| false))
            .expect("an entry that is never stopped finishes")
    }

    fn solve(instance: &WcnfInstance) -> MaxSatResult {
        PortfolioSolver::default()
            .solve(instance)
            .expect("no interrupt hook is installed")
    }

    #[test]
    fn parallel_portfolio_finds_the_optimum() {
        let mut inst = WcnfInstance::with_vars(3);
        inst.add_hard([pos(0), pos(1), pos(2)]);
        inst.add_soft([neg(0)], 4);
        inst.add_soft([neg(1)], 8);
        inst.add_soft([neg(2)], 6);
        let result = solve(&inst);
        assert_eq!(result.outcome.cost(), Some(4));
        assert!(result.stats.algorithm.starts_with("portfolio["));
    }

    /// The deterministic route is the portfolio's lead entry run on its
    /// own: default OLL, returning the same answer on every run.
    #[test]
    fn sequential_mode_is_deterministic() {
        let mut inst = WcnfInstance::with_vars(2);
        inst.add_hard([pos(0), pos(1)]);
        inst.add_soft([neg(0)], 2);
        inst.add_soft([neg(1)], 1);
        let lead = run_alone(&line_up()[0], &inst);
        let a = IncrementalMaxSat::new(&inst).solve();
        let b = IncrementalMaxSat::new(&inst).solve();
        assert_eq!(a.outcome, b.outcome);
        assert_eq!(a.outcome, lead.outcome);
        assert_eq!(a.outcome.cost(), Some(1));
    }

    /// Run one at a time, every entry returns the identical optimum AND
    /// model on every run, even when the instance has several optimal
    /// models; only the race's thread timing can pick between them.
    #[test]
    fn sequential_mode_returns_identical_optima_and_model_order() {
        // x0 ∨ x1 with symmetric soft clauses: [true,false] and [false,true]
        // are both optimal at cost 5.
        let mut symmetric = WcnfInstance::with_vars(2);
        symmetric.add_hard([pos(0), pos(1)]);
        symmetric.add_soft([neg(0)], 5);
        symmetric.add_soft([neg(1)], 5);
        // Plus a batch of random instances with ties in their weights.
        let mut instances = vec![symmetric];
        for seed in 700..706 {
            instances.push(random_instance(seed, 7, 10, 5));
        }
        for (index, inst) in instances.iter().enumerate() {
            let mut costs = Vec::new();
            for entry in &line_up() {
                let first = run_alone(entry, inst);
                let second = run_alone(entry, inst);
                assert_eq!(
                    first.outcome, second.outcome,
                    "instance {index}, {entry:?}: optimum or model diverged"
                );
                assert_eq!(first.stats.algorithm, second.stats.algorithm);
                costs.push(first.outcome.cost());
            }
            assert!(
                costs.windows(2).all(|w| w[0] == w[1]),
                "instance {index}: entries disagree on the optimum: {costs:?}"
            );
        }
    }

    /// An incremental session's optima match fresh solves of the growing
    /// instance by each entry run on its own: the session only warm-starts
    /// the search, and every entry is exact.
    #[test]
    fn incremental_mode_matches_sequential_resolves() {
        for seed in 920..926 {
            let inst = random_instance(seed, 8, 12, 6);
            // The session borrows `inst`; the fresh solves use their own
            // growing copy.
            let mut grown = inst.clone();
            let mut session = IncrementalMaxSat::new(&inst);
            for _ in 0..3 {
                let incremental = session.solve();
                for entry in &line_up() {
                    assert_eq!(
                        incremental.outcome.cost(),
                        run_alone(entry, &grown).outcome.cost(),
                        "seed {seed}, {entry:?}"
                    );
                }
                let Some(model) = incremental.outcome.model().map(<[bool]>::to_vec) else {
                    break;
                };
                let block: Vec<Lit> = (0..inst.num_vars())
                    .map(|i| Lit::new(Var::from_index(i), model[i]))
                    .collect();
                session.add_hard(block.clone());
                grown.add_hard(block);
            }
        }
    }

    #[test]
    fn unsatisfiable_instances_are_reported() {
        let mut inst = WcnfInstance::with_vars(1);
        inst.add_hard([pos(0)]);
        inst.add_hard([neg(0)]);
        inst.add_soft([pos(0)], 3);
        let result = solve(&inst);
        assert_eq!(result.outcome, MaxSatOutcome::Unsatisfiable);
    }

    #[test]
    fn portfolio_agrees_with_brute_force_on_random_instances() {
        for seed in 900..910 {
            let inst = random_instance(seed, 8, 14, 6);
            let expected = brute_force_optimum(&inst);
            let result = solve(&inst);
            assert_eq!(result.outcome.cost(), expected, "seed {seed}");
        }
    }

    /// A hook that fires from its `n`-th poll on, and its poll count.
    fn firing_hook(n: u64) -> (InterruptHook, Arc<AtomicU64>) {
        let polls = Arc::new(AtomicU64::new(0));
        let counter = Arc::clone(&polls);
        let hook: InterruptHook =
            Arc::new(move || counter.fetch_add(1, Ordering::Relaxed) + 1 >= n);
        (hook, polls)
    }

    /// Nine pigeons into eight holes, placed only when the guard `x0` holds,
    /// and the soft clause `[x0]`: the optimum drops the guard, but a SAT
    /// call that assumes or asserts the guard first refutes the pigeonhole
    /// principle, which takes tens of thousands of conflicts.
    fn guarded_pigeonhole() -> WcnfInstance {
        let (pigeons, holes) = (9, 8);
        let guard = pos(0);
        let placed = |i: usize, j: usize| pos(1 + i * holes + j);
        let mut inst = WcnfInstance::with_vars(1 + pigeons * holes);
        for i in 0..pigeons {
            inst.add_hard(std::iter::once(!guard).chain((0..holes).map(|j| placed(i, j))));
        }
        for j in 0..holes {
            for i1 in 0..pigeons {
                for i2 in (i1 + 1)..pigeons {
                    inst.add_hard([!placed(i1, j), !placed(i2, j)]);
                }
            }
        }
        inst.add_soft([guard], 1);
        inst
    }

    /// A hook stops every Step 5 solver in the middle of a SAT call. The
    /// CDCL search polls it when a call starts and at every restart, so its
    /// third poll comes after a restart of the call that refutes the
    /// pigeonhole — the first call of OLL, the second of linear SU (whose
    /// first call finds the guard-free model without a conflict). Each
    /// solver then returns no result without polling again.
    #[test]
    fn an_interrupt_hook_stops_every_solver_mid_search() {
        const FIRING_POLL: u64 = 3;
        let pigeonhole = guarded_pigeonhole();
        // Softs weighted 2⁰…2¹⁴ on free variables give 32,768 distinct
        // penalty sums with the guard's, past what linear SU encodes, so it
        // falls back to OLL.
        let mut too_wide = guarded_pigeonhole();
        for i in 0..15 {
            let free = Lit::positive(too_wide.new_var());
            too_wide.add_soft([!free], 1 << i);
        }
        for instance in [&pigeonhole, &too_wide] {
            let (hook, polls) = firing_hook(FIRING_POLL);
            let mut linear = LinearSuSolver::default();
            linear.set_interrupt(Some(hook));
            assert!(linear.solve(instance).is_none());
            assert_eq!(polls.load(Ordering::Relaxed), FIRING_POLL);
        }
        for (algorithm, config) in line_up() {
            let (hook, polls) = firing_hook(FIRING_POLL);
            assert!(run_entry(algorithm, config, &pigeonhole, hook).is_none());
            assert_eq!(polls.load(Ordering::Relaxed), FIRING_POLL, "{algorithm:?}");
        }
        let (hook, _) = firing_hook(FIRING_POLL);
        let mut portfolio = PortfolioSolver::default();
        portfolio.set_interrupt(Some(hook));
        assert!(portfolio.solve(&pigeonhole).is_none());
    }
}
