//! Parallel MaxSAT portfolio (paper Step 5).
//!
//! Different MaxSAT algorithms — and the same algorithm under different SAT
//! solver configurations — behave very differently on individual instances.
//! The portfolio runs several pre-configured solvers in parallel threads and
//! returns the answer of the first one that finishes, which gives a much more
//! stable runtime profile than any single configuration.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread;

use sat_solver::{BranchingChoice, SolverConfig};

use crate::instance::WcnfInstance;
use crate::linear::{LinearSuConfig, LinearSuSolver};
use crate::oll::{OllConfig, OllSolver};
use crate::result::{MaxSatOutcome, MaxSatResult, MaxSatStats};
use crate::MaxSatAlgorithm;

/// One competitor in the portfolio.
#[derive(Clone, Debug)]
pub enum PortfolioEntry {
    /// A core-guided OLL solver.
    Oll(OllConfig),
    /// A linear SAT–UNSAT solver.
    LinearSu(LinearSuConfig),
}

/// Configuration of the [`PortfolioSolver`].
#[derive(Debug)]
pub struct PortfolioConfig {
    /// The competing solver configurations.
    pub entries: Vec<PortfolioEntry>,
}

impl Default for PortfolioConfig {
    fn default() -> Self {
        PortfolioConfig {
            entries: default_entries(),
        }
    }
}

impl PortfolioConfig {
    /// Applies one branching heuristic to every entry's SAT configuration.
    #[must_use]
    pub fn with_branching(mut self, branching: BranchingChoice) -> Self {
        for entry in &mut self.entries {
            match entry {
                PortfolioEntry::Oll(config) => config.sat_config.branching = branching,
                PortfolioEntry::LinearSu(config) => config.sat_config.branching = branching,
            }
        }
        self
    }
}

/// The default portfolio: OLL with two different SAT configurations plus a
/// linear SAT–UNSAT solver, mirroring the heterogeneous solver line-up of the
/// original MPMCS4FTA tool.
pub fn default_entries() -> Vec<PortfolioEntry> {
    let aggressive = SolverConfig {
        var_decay: 0.85,
        restart_first: 50,
        seed: 1,
        ..SolverConfig::default()
    };
    let diverse = SolverConfig {
        random_var_freq: 0.02,
        default_phase: true,
        seed: 7,
        ..SolverConfig::default()
    };
    vec![
        PortfolioEntry::Oll(OllConfig::default()),
        PortfolioEntry::Oll(OllConfig {
            sat_config: aggressive,
        }),
        PortfolioEntry::LinearSu(LinearSuConfig {
            sat_config: diverse,
            ..LinearSuConfig::default()
        }),
    ]
}

/// A parallel first-to-finish portfolio of MaxSAT solvers.
///
/// Which entry wins depends on thread timing, so on instances with several
/// optimal models two runs may report different (equally optimal) models.
/// Callers that need reproducible answers use [`OllSolver`] directly.
#[derive(Debug, Default)]
pub struct PortfolioSolver {
    config: PortfolioConfig,
}

impl PortfolioSolver {
    /// Creates a portfolio with the given configuration.
    pub fn new(config: PortfolioConfig) -> Self {
        PortfolioSolver { config }
    }

    fn run_entry(
        entry: &PortfolioEntry,
        instance: &WcnfInstance,
        stop: &AtomicBool,
    ) -> Option<MaxSatResult> {
        match entry {
            PortfolioEntry::Oll(config) => {
                OllSolver::new(config.clone()).solve_with_stop(instance, stop)
            }
            PortfolioEntry::LinearSu(config) => {
                LinearSuSolver::new(config.clone()).solve_with_stop(instance, stop)
            }
        }
    }
}

impl MaxSatAlgorithm for PortfolioSolver {
    fn name(&self) -> &'static str {
        "portfolio"
    }

    fn solve_with_stop(&self, instance: &WcnfInstance, stop: &AtomicBool) -> Option<MaxSatResult> {
        if self.config.entries.is_empty() {
            return Some(MaxSatResult {
                outcome: MaxSatOutcome::Unsatisfiable,
                stats: MaxSatStats {
                    algorithm: "portfolio(empty)".to_string(),
                    ..MaxSatStats::default()
                },
            });
        }

        let shared_stop = Arc::new(AtomicBool::new(false));
        let instance = Arc::new(instance.clone());
        let (sender, receiver) = mpsc::channel::<Option<MaxSatResult>>();
        let handles: Vec<_> = self
            .config
            .entries
            .iter()
            .map(|entry| {
                // Each thread owns a copy of its entry's configuration.
                let entry = entry.clone();
                let instance = Arc::clone(&instance);
                let shared_stop = Arc::clone(&shared_stop);
                let sender = sender.clone();
                thread::spawn(move || {
                    let result = Self::run_entry(&entry, &instance, &shared_stop);
                    let _ = sender.send(result);
                })
            })
            .collect();
        drop(sender);

        let mut winner: Option<MaxSatResult> = None;
        // Also honour the caller's stop flag while waiting.
        while let Ok(message) = receiver.recv() {
            if stop.load(Ordering::Relaxed) {
                break;
            }
            if let Some(result) = message {
                winner = Some(result);
                break;
            }
        }
        shared_stop.store(true, Ordering::Relaxed);
        for handle in handles {
            let _ = handle.join();
        }
        let mut winner = winner?;
        winner.stats.algorithm = format!("portfolio[{}]", winner.stats.algorithm);
        Some(winner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests_support::{brute_force_optimum, random_instance};
    use crate::IncrementalMaxSat;
    use sat_solver::{Lit, Var};

    fn pos(i: usize) -> Lit {
        Lit::positive(Var::from_index(i))
    }
    fn neg(i: usize) -> Lit {
        Lit::negative(Var::from_index(i))
    }

    /// Runs one entry on its own, outside the race.
    fn run_alone(entry: &PortfolioEntry, instance: &WcnfInstance) -> MaxSatResult {
        PortfolioSolver::run_entry(entry, instance, &AtomicBool::new(false))
            .expect("an entry that is never stopped finishes")
    }

    #[test]
    fn parallel_portfolio_finds_the_optimum() {
        let mut inst = WcnfInstance::with_vars(3);
        inst.add_hard([pos(0), pos(1), pos(2)]);
        inst.add_soft([neg(0)], 4);
        inst.add_soft([neg(1)], 8);
        inst.add_soft([neg(2)], 6);
        let result = PortfolioSolver::default().solve(&inst);
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
        let lead = run_alone(&default_entries()[0], &inst);
        let a = OllSolver::default().solve(&inst);
        let b = OllSolver::default().solve(&inst);
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
            for entry in &default_entries() {
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
                for entry in &default_entries() {
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
        let result = PortfolioSolver::default().solve(&inst);
        assert_eq!(result.outcome, MaxSatOutcome::Unsatisfiable);
    }

    #[test]
    fn portfolio_agrees_with_brute_force_on_random_instances() {
        for seed in 900..910 {
            let inst = random_instance(seed, 8, 14, 6);
            let expected = brute_force_optimum(&inst);
            let result = PortfolioSolver::default().solve(&inst);
            assert_eq!(result.outcome.cost(), expected, "seed {seed}");
        }
    }

    #[test]
    fn empty_portfolio_reports_unsatisfiable() {
        let solver = PortfolioSolver::new(PortfolioConfig {
            entries: Vec::new(),
        });
        let inst = WcnfInstance::with_vars(1);
        let result = solver.solve(&inst);
        assert_eq!(result.outcome, MaxSatOutcome::Unsatisfiable);
    }
}
