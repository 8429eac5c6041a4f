//! A persistent incremental Weighted Partial MaxSAT session.
//!
//! Repeated-query workloads — top-k cut-set enumeration, importance tables,
//! what-if sweeps — solve a *sequence* of MaxSAT problems that differ only by
//! added hard clauses (blocking clauses, scenario constraints). Rebuilding a
//! solver per query throws away every learnt clause, variable activity and
//! saved phase the previous query paid for. [`IncrementalMaxSat`] keeps one
//! [`Solver`] alive instead: hard clauses may be added **between optima**,
//! and each [`IncrementalMaxSat::solve`] call resumes the core-guided OLL
//! search from the accumulated state. A bounded call
//! ([`IncrementalMaxSat::solve_within`]) stops as soon as the lower bound
//! passes a given cost, which proves that no model at that cost remains
//! without paying for the next optimum.
//!
//! The soundness argument, the session-compaction safety valve and a
//! runnable example live on the [`IncrementalMaxSat`] type itself.

use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap};

use sat_solver::{InterruptHook, Lit, SolveResult, Solver, SolverConfig, SolverStats};

use crate::encodings::totalizer::Totalizer;
use crate::instance::WcnfInstance;
use crate::oll::{extract_model, normalize_softs};
use crate::result::{MaxSatOutcome, MaxSatResult, MaxSatStats};

/// When one `solve` call extracts this many unsatisfiable cores, the session
/// assumes its accumulated OLL reformulation state has degenerated (weight
/// fragmentation can make the lower bound climb in unit steps) and compacts:
/// the solver is rebuilt from the original instance plus every added hard
/// clause, exactly as a from-scratch solve would see it. At most one
/// compaction happens per call, and never on a session's first call, so a
/// one-shot solve never compacts.
///
/// The budget is deliberately small: healthy warm-started queries in the
/// enumeration workloads need a handful of cores, while a degenerate one
/// burns thousands, each a SAT call that lifts the bound by a sliver — so
/// detecting early matters more than avoiding a rare false positive (whose
/// cost is just one from-scratch solve, the historical behaviour).
const COMPACTION_CORE_BUDGET: u64 = 64;

/// How one [`IncrementalMaxSat::solve_within`] call ended.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BoundedSolve {
    /// The call completed: an optimum costing at most the bound, or
    /// unsatisfiable hard clauses.
    Solved(MaxSatResult),
    /// The lower bound rose above the bound before any model was found, so
    /// every remaining model costs more. The cores behind the bound stay
    /// folded in and the call's counters carry into the next call, which
    /// resumes the search exactly where this one stopped.
    AboveBound,
    /// The [interrupt hook](IncrementalMaxSat::set_interrupt) fired first;
    /// like [`AboveBound`](BoundedSolve::AboveBound), the next call resumes
    /// the search and reports this call's work.
    Interrupted,
}

/// A persistent incremental MaxSAT handle: one solver session shared by a
/// sequence of optima, with hard clauses accepted between
/// [`solve`](IncrementalMaxSat::solve) calls.
///
/// Created via [`IncrementalMaxSat::new`], [`IncrementalMaxSat::with_config`]
/// or [`IncrementalMaxSat::owned`].
///
/// Soundness rests on three properties of OLL/RC2. First, each core is
/// relaxed with a totalizer that counts only up to "at most one member
/// violated" and grows one count at a time when a later core needs the next
/// one, so the reformulation (lower bound plus residual weights of the
/// violated assumptions) is a *relaxation*: it never exceeds the cost of any
/// model. The lower bound is therefore valid for *every* model, not just
/// the optimal one, and stays valid when added hard clauses remove models.
/// Second, a model that satisfies every assumption costs exactly the lower
/// bound: every count a totalizer has not fully paid for lies above its
/// lowest sum assumption that still carries weight, which such a model
/// satisfies. That is all [`solve_within`](IncrementalMaxSat::solve_within)
/// relies on. Third, added hard clauses only strengthen the formula, so
/// hardened singleton cores (clauses implied by the hard part) remain
/// implied.
///
/// Reuse is a heuristic, not a guarantee: accumulating the reformulation
/// across many optima can fragment the residual weights until a query
/// degenerates (the classic weighted-OLL pathology). A call that blows
/// through an internal core budget therefore *compacts* the session —
/// rebuilds the solver from the original instance plus all added hard
/// clauses — which restores exactly the from-scratch behaviour for that
/// query while keeping every answer and all cumulative statistics intact.
///
/// A call that ends before it completes — interrupted, or a bounded call
/// stopped above its bound — hands its per-call counters (the compaction
/// budget's core count included) to the next call, and so does a
/// [`hard_satisfiable`](IncrementalMaxSat::hard_satisfiable) probe. The result that finally
/// completes the search therefore reports the SAT calls, cores and solver
/// work of the whole search, and splitting a search into bounded steps
/// issues exactly the SAT calls of one unbounded call.
///
/// ```rust
/// use maxsat_solver::{IncrementalMaxSat, MaxSatOutcome, WcnfInstance};
/// use sat_solver::{Lit, Var};
///
/// let a = Lit::positive(Var::from_index(0));
/// let b = Lit::positive(Var::from_index(1));
/// let mut inst = WcnfInstance::with_vars(2);
/// inst.add_hard([a, b]);
/// inst.add_soft([!a], 5);
/// inst.add_soft([!b], 3);
///
/// let mut session = IncrementalMaxSat::new(&inst);
/// let first = session.solve();
/// assert_eq!(first.outcome.cost(), Some(3)); // {b} is cheapest
///
/// // Block the first optimum and ask for the next one.
/// session.add_hard([!b]);
/// let second = session.solve();
/// assert_eq!(second.outcome.cost(), Some(5)); // forced onto {a}
/// assert!(second.stats.session_calls > first.stats.session_calls);
/// ```
pub struct IncrementalMaxSat<'a> {
    solver: Solver,
    /// The original instance — borrowed for one-shot solves (which pay no
    /// clone) or owned for self-contained streaming sessions
    /// ([`IncrementalMaxSat::owned`]). Used for model extraction, exact cost
    /// accounting and session compaction; never mutated, so the `Cow` never
    /// actually copies after construction.
    instance: Cow<'a, WcnfInstance>,
    /// Hard clauses added after construction, replayed on compaction.
    added_hard: Vec<Vec<Lit>>,
    /// Residual soft weights per assumption literal (OLL reformulation
    /// state, shared across calls).
    weights: BTreeMap<Lit, u64>,
    /// One totalizer per relaxed core, each built up to the largest count
    /// the search has needed so far.
    totalizers: Vec<Totalizer>,
    /// Each sum assumption `¬o_b`: its totalizer's index and the count `b`.
    sums: HashMap<Lit, (usize, usize)>,
    /// Lower bound established so far; carried across calls, re-derived
    /// after a compaction.
    lower_bound: u64,
    config: SolverConfig,
    /// Counters of solvers retired by compaction, so cumulative statistics
    /// survive the rebuild.
    retired: SolverStats,
    /// Cumulative counters at the end of the previous call (per-call deltas
    /// are measured against this).
    checkpoint: SolverStats,
    /// A compaction is only worthwhile when the degenerate state came from
    /// *accumulation*: never on a session's first call, and at most once per
    /// call (the flag rearms when a call completes).
    compaction_allowed: bool,
    /// The counters of a call that ended before completing (interrupted, or
    /// stopped above its bound) or solved no optimum (a satisfiability
    /// probe), resumed by the next call.
    suspended: Option<MaxSatStats>,
    calls: u64,
    /// The cancellation probe forwarded into the SAT search loop (and
    /// re-installed after a compaction rebuilds the solver).
    interrupt: Option<InterruptHook>,
}

impl std::fmt::Debug for IncrementalMaxSat<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IncrementalMaxSat")
            .field("solver", &self.solver)
            .field("added_hard", &self.added_hard.len())
            .field("lower_bound", &self.lower_bound)
            .field("calls", &self.calls)
            .field("interruptible", &self.interrupt.is_some())
            .finish()
    }
}

impl<'a> IncrementalMaxSat<'a> {
    /// Creates a session over `instance` with the default (deterministic)
    /// configuration.
    pub fn new(instance: &'a WcnfInstance) -> Self {
        Self::with_config(instance, SolverConfig::default())
    }

    /// Creates a session over `instance` whose SAT solver uses `config`.
    pub fn with_config(instance: &'a WcnfInstance, config: SolverConfig) -> Self {
        Self::from_cow(Cow::Borrowed(instance), config)
    }

    /// Creates a self-contained `'static` session that owns its instance,
    /// with the default configuration — the building block of streaming
    /// enumerations, which must carry their solver state around without
    /// borrowing from an encoding.
    pub fn owned(instance: WcnfInstance) -> IncrementalMaxSat<'static> {
        IncrementalMaxSat::from_cow(Cow::Owned(instance), SolverConfig::default())
    }

    fn from_cow(instance: Cow<'a, WcnfInstance>, config: SolverConfig) -> Self {
        let (solver, weights, baseline) = build_state(&config, &instance, &[]);
        IncrementalMaxSat {
            solver,
            instance,
            added_hard: Vec::new(),
            weights,
            totalizers: Vec::new(),
            sums: HashMap::new(),
            lower_bound: baseline,
            config,
            retired: SolverStats::default(),
            checkpoint: SolverStats::default(),
            compaction_allowed: false,
            suspended: None,
            calls: 0,
            interrupt: None,
        }
    }

    /// Installs (or clears) the cancellation probe polled by the underlying
    /// SAT search loop. When the probe fires, the current
    /// [`solve_within`](IncrementalMaxSat::solve_within) call returns
    /// [`BoundedSolve::Interrupted`]; the session state stays consistent, so
    /// a later call resumes the search and reports the interrupted call's
    /// work.
    pub fn set_interrupt(&mut self, hook: Option<InterruptHook>) {
        self.solver.set_interrupt(hook.clone());
        self.interrupt = hook;
    }

    /// Adds a hard clause between optima (e.g. a blocking clause excluding
    /// the previous solution and its supersets). The session is at decision
    /// level 0 between calls, so the addition takes effect immediately.
    pub fn add_hard<I>(&mut self, lits: I)
    where
        I: IntoIterator<Item = Lit>,
    {
        let clause: Vec<Lit> = lits.into_iter().collect();
        self.solver.add_clause(clause.iter().copied());
        self.added_hard.push(clause);
    }

    /// Number of `solve` calls completed so far.
    pub fn calls(&self) -> u64 {
        self.calls
    }

    /// The lower bound on the current optimum established so far.
    pub fn lower_bound(&self) -> u64 {
        self.lower_bound
    }

    /// Cumulative statistics of the underlying SAT solver, including any
    /// solvers retired by compaction.
    pub fn solver_stats(&self) -> SolverStats {
        self.retired.merged(self.solver.stats())
    }

    /// Solves for the optimum of the hard clauses added so far.
    ///
    /// Subsequent calls (typically after [`IncrementalMaxSat::add_hard`])
    /// resume from the accumulated search state; their cost is non-decreasing
    /// since hard clauses only remove models.
    ///
    /// # Panics
    ///
    /// Panics if an installed [interrupt hook](IncrementalMaxSat::set_interrupt)
    /// fires mid-call; interruptible consumers use
    /// [`IncrementalMaxSat::solve_within`] instead.
    pub fn solve(&mut self) -> MaxSatResult {
        self.solve_unless_interrupted()
            .expect("an installed interrupt hook fired mid-solve")
    }

    /// [`solve`](IncrementalMaxSat::solve) for the crate's one-shot solvers,
    /// which install a hook: `None` when it fired first.
    pub(crate) fn solve_unless_interrupted(&mut self) -> Option<MaxSatResult> {
        match self.solve_within(u64::MAX) {
            BoundedSolve::Solved(result) => Some(result),
            BoundedSolve::Interrupted => None,
            BoundedSolve::AboveBound => unreachable!("no lower bound exceeds u64::MAX"),
        }
    }

    /// Solves for an optimum costing at most `bound`: stops with
    /// [`BoundedSolve::AboveBound`] once the lower bound exceeds it, and with
    /// [`BoundedSolve::Interrupted`] when the
    /// [interrupt hook](IncrementalMaxSat::set_interrupt) fires. A bound of
    /// `u64::MAX` bounds nothing.
    ///
    /// Every model the core-guided search finds costs exactly the current
    /// lower bound, so when that bound already equals `bound` (right after
    /// an optimum of that cost) one SAT call decides: it finds another model
    /// at `bound`, or its core lifts the bound above it. Nothing is lost by
    /// stopping there — the next call resumes with the same SAT call an
    /// unbounded call would have issued next. A call that ends early parks
    /// its counters for the next call.
    pub fn solve_within(&mut self, bound: u64) -> BoundedSolve {
        let mut stats = self.resumed_stats();
        let early_end = loop {
            if self.lower_bound > bound {
                break BoundedSolve::AboveBound;
            }
            let assumptions: Vec<Lit> = self.weights.keys().copied().collect();
            stats.sat_calls += 1;
            match self.solver.solve_with_assumptions(&assumptions) {
                SolveResult::Sat(model) => {
                    let model_vec = extract_model(&model, self.instance.num_vars());
                    let (hard_ok, cost) = self
                        .instance
                        .evaluate(&model_vec)
                        .expect("model covers instance variables");
                    debug_assert!(hard_ok, "SAT model must satisfy all hard clauses");
                    debug_assert_eq!(
                        cost, self.lower_bound,
                        "OLL invariant: model cost equals the established lower bound"
                    );
                    stats.lower_bound = self.lower_bound;
                    stats.upper_bound = cost;
                    return BoundedSolve::Solved(self.finish_call(
                        stats,
                        MaxSatOutcome::Optimum {
                            model: model_vec,
                            cost,
                        },
                    ));
                }
                SolveResult::Interrupted => break BoundedSolve::Interrupted,
                SolveResult::Unsat => {
                    let core: Vec<Lit> = self.solver.unsat_core().to_vec();
                    if core.is_empty() {
                        return BoundedSolve::Solved(
                            self.finish_call(stats, MaxSatOutcome::Unsatisfiable),
                        );
                    }
                    stats.cores += 1;
                    if self.compaction_allowed && stats.cores >= COMPACTION_CORE_BUDGET {
                        self.compact();
                        continue;
                    }
                    let w_min = core
                        .iter()
                        .map(|l| self.weights.get(l).copied().unwrap_or(u64::MAX))
                        .min()
                        .expect("non-empty core");
                    debug_assert!(w_min > 0 && w_min < u64::MAX);
                    self.lower_bound += w_min;
                    stats.lower_bound = self.lower_bound;
                    for lit in &core {
                        if let Some(w) = self.weights.get_mut(lit) {
                            *w -= w_min;
                            if *w == 0 {
                                self.weights.remove(lit);
                            }
                        }
                    }
                    // A sum assumption ¬o_b in the core lets its totalizer
                    // count b, so the next count takes over the w_min just
                    // paid (RC2's rule, also when ¬o_b keeps some weight).
                    for lit in &core {
                        if let Some(&(index, count)) = self.sums.get(lit) {
                            self.charge_sum(index, count + 1, w_min);
                        }
                    }
                    if core.len() == 1 {
                        // A singleton core's literal is implied by the hard
                        // clauses: harden it.
                        self.solver.add_clause([!core[0]]);
                    } else {
                        // Count how many core members are violated; paying
                        // w_min once is already accounted for in the lower
                        // bound, every additional violation costs w_min more.
                        // The totalizer starts at "at most one violated" and
                        // grows inside the live solver when a later core
                        // needs the next count — never re-encoded.
                        let violated: Vec<Lit> = core.iter().map(|&l| !l).collect();
                        self.totalizers
                            .push(Totalizer::build(&mut self.solver, &violated, 2));
                        self.charge_sum(self.totalizers.len() - 1, 2, w_min);
                    }
                }
            }
        };
        self.suspended = Some(stats);
        early_end
    }

    /// Whether the hard clauses — the instance's and every added one — still
    /// have a model: one SAT call without assumptions, `None` when the
    /// [interrupt hook](IncrementalMaxSat::set_interrupt) fired first.
    ///
    /// The session's own clauses decide this as well as the hard ones: a
    /// totalizer or a relaxed soft only adds clauses that setting its new
    /// variables true satisfies, and a hardened core is implied by the hard
    /// clauses. The call solves no optimum, so like a stopped call it hands
    /// its counters to the next call, whose result reports it.
    pub fn hard_satisfiable(&mut self) -> Option<bool> {
        let mut stats = self.resumed_stats();
        stats.sat_calls += 1;
        let satisfiable = match self.solver.solve_with_assumptions(&[]) {
            SolveResult::Sat(_) => Some(true),
            SolveResult::Unsat => Some(false),
            SolveResult::Interrupted => None,
        };
        self.suspended = Some(stats);
        satisfiable
    }

    /// The counters of a suspended call, or fresh ones.
    fn resumed_stats(&mut self) -> MaxSatStats {
        self.suspended.take().unwrap_or_else(|| MaxSatStats {
            algorithm: "oll".to_string(),
            ..MaxSatStats::default()
        })
    }

    /// Adds `weight` to the sum assumption `¬o_bound` ("fewer than `bound`
    /// members violated") of totalizer `index`, growing the totalizer to
    /// `bound` first. A core never has more violated members than it has
    /// members, so a bound above that needs no assumption.
    fn charge_sum(&mut self, index: usize, bound: usize, weight: u64) {
        let totalizer = &mut self.totalizers[index];
        if bound > totalizer.len() {
            return;
        }
        totalizer.increase(&mut self.solver, bound);
        let sum = !totalizer.at_least(bound);
        self.sums.insert(sum, (index, bound));
        *self.weights.entry(sum).or_insert(0) += weight;
    }

    /// Retires the current solver and rebuilds the reformulation state from
    /// the original instance plus every added hard clause — the state a
    /// from-scratch solve would start from. Answers are unaffected; the
    /// retired solver's counters keep contributing to the cumulative
    /// statistics.
    fn compact(&mut self) {
        self.retired = self.solver_stats();
        let (mut solver, weights, baseline) =
            build_state(&self.config, &self.instance, &self.added_hard);
        solver.set_interrupt(self.interrupt.clone());
        self.solver = solver;
        self.weights = weights;
        self.totalizers.clear();
        self.sums.clear();
        self.lower_bound = baseline;
        self.compaction_allowed = false;
    }

    /// Stamps the per-call SAT work and session counters into `stats` and
    /// wraps up the result.
    fn finish_call(&mut self, mut stats: MaxSatStats, outcome: MaxSatOutcome) -> MaxSatResult {
        self.calls += 1;
        self.compaction_allowed = true;
        let cumulative = self.solver_stats();
        stats.absorb_solver(&cumulative.delta_since(&self.checkpoint));
        stats.session_calls = cumulative.solve_calls;
        self.checkpoint = cumulative;
        MaxSatResult { outcome, stats }
    }
}

/// Builds a fresh solver over `instance` plus `added_hard`, with the softs
/// normalised into assumption literals. Shared by construction and
/// compaction.
fn build_state(
    config: &SolverConfig,
    instance: &WcnfInstance,
    added_hard: &[Vec<Lit>],
) -> (Solver, BTreeMap<Lit, u64>, u64) {
    let mut solver = Solver::with_config(config.clone());
    solver.ensure_vars(instance.num_vars());
    for clause in instance
        .hard_clauses()
        .chain(added_hard.iter().map(Vec::as_slice))
    {
        solver.add_clause(clause.iter().copied());
    }
    let (weights, baseline) = normalize_softs(&mut solver, instance);
    (solver, weights, baseline)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests_support::{brute_force_optimum, random_instance};
    use sat_solver::Var;

    fn pos(i: usize) -> Lit {
        Lit::positive(Var::from_index(i))
    }
    fn neg(i: usize) -> Lit {
        Lit::negative(Var::from_index(i))
    }

    #[test]
    fn optima_are_non_decreasing_under_added_hard_clauses() {
        let mut inst = WcnfInstance::with_vars(3);
        inst.add_hard([pos(0), pos(1), pos(2)]);
        inst.add_soft([neg(0)], 9);
        inst.add_soft([neg(1)], 2);
        inst.add_soft([neg(2)], 5);
        let mut session = IncrementalMaxSat::new(&inst);
        let mut costs = Vec::new();
        loop {
            let result = session.solve();
            let Some(model) = result.outcome.model().map(<[bool]>::to_vec) else {
                break;
            };
            costs.push(result.outcome.cost().unwrap());
            // Block exactly this assignment of the instance variables.
            session.add_hard((0..inst.num_vars()).map(|i| Lit::new(Var::from_index(i), model[i])));
        }
        assert_eq!(costs.first(), Some(&2));
        assert!(costs.windows(2).all(|w| w[0] <= w[1]), "{costs:?}");
        assert_eq!(costs.len(), 7, "all satisfying assignments enumerated");
    }

    #[test]
    fn incremental_optima_match_from_scratch_resolves() {
        // After each optimum, block it as a hard clause and compare the next
        // incremental optimum against a from-scratch solve of the grown
        // instance.
        for seed in 300..308 {
            let inst = random_instance(seed, 7, 10, 5);
            // The session borrows `inst`; the from-scratch comparison solves
            // its own growing copy.
            let mut grown = inst.clone();
            let mut session = IncrementalMaxSat::new(&inst);
            for _ in 0..4 {
                let incremental = session.solve();
                let scratch = IncrementalMaxSat::new(&grown).solve();
                assert_eq!(
                    incremental.outcome.cost(),
                    scratch.outcome.cost(),
                    "seed {seed}"
                );
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
    fn unsatisfiable_hard_clauses_stay_unsatisfiable() {
        let mut inst = WcnfInstance::with_vars(1);
        inst.add_hard([pos(0)]);
        inst.add_soft([neg(0)], 2);
        let mut session = IncrementalMaxSat::new(&inst);
        assert_eq!(session.solve().outcome.cost(), Some(2));
        session.add_hard([neg(0)]);
        assert_eq!(session.solve().outcome, MaxSatOutcome::Unsatisfiable);
        // Once unsatisfiable, always unsatisfiable.
        assert_eq!(session.solve().outcome, MaxSatOutcome::Unsatisfiable);
        assert_eq!(session.calls(), 3);
    }

    #[test]
    fn session_counters_grow_across_calls() {
        let inst = random_instance(42, 8, 12, 6);
        let expected = brute_force_optimum(&inst);
        let mut session = IncrementalMaxSat::new(&inst);
        let first = session.solve();
        assert_eq!(first.outcome.cost(), expected);
        let second = session.solve();
        assert_eq!(second.outcome.cost(), expected, "idempotent without edits");
        assert!(second.stats.session_calls > first.stats.session_calls);
        assert_eq!(
            session.solver_stats().solve_calls,
            first.stats.sat_calls + second.stats.sat_calls
        );
    }

    /// Splitting a search into bounded steps changes nothing a caller sees:
    /// after each optimum, a call bounded by its cost finds the tie an
    /// unbounded call would find, or stops above the bound — and then the
    /// next call finishes the search with the very model and per-call
    /// counters of one unbounded call.
    #[test]
    fn bounded_steps_replay_the_unbounded_search() {
        let mut stops = 0;
        for seed in 300..316 {
            let inst = random_instance(seed, 6, 6, 6);
            let block = |model: &[bool]| -> Vec<Lit> {
                (0..inst.num_vars())
                    .map(|i| Lit::new(Var::from_index(i), model[i]))
                    .collect()
            };
            let mut plain = IncrementalMaxSat::new(&inst);
            let mut stepped = IncrementalMaxSat::new(&inst);
            let mut last_cost = None;
            loop {
                let expected = plain.solve();
                let actual = match last_cost {
                    None => stepped.solve(),
                    Some(cost) => match stepped.solve_within(cost) {
                        BoundedSolve::Solved(result) => result,
                        BoundedSolve::AboveBound => {
                            stops += 1;
                            assert!(
                                expected.outcome.cost().is_none_or(|next| next > cost),
                                "seed {seed}: stopped above {cost} below the next optimum"
                            );
                            stepped.solve()
                        }
                        BoundedSolve::Interrupted => unreachable!("no interrupt installed"),
                    },
                };
                assert_eq!(actual, expected, "seed {seed}");
                let Some(model) = expected.outcome.model() else {
                    break;
                };
                last_cost = expected.outcome.cost();
                plain.add_hard(block(model));
                stepped.add_hard(block(model));
            }
            assert_eq!(stepped.calls(), plain.calls(), "seed {seed}");
        }
        assert!(stops > 0, "some bounded call must stop above its bound");
    }

    /// A wide core is relaxed with "at most one violated" only: one hard
    /// clause over 400 events yields one 400-member core, and the solver
    /// ends with fewer than 5 original clauses per member (a full totalizer
    /// over the core holds about 83,000).
    #[test]
    fn a_wide_core_costs_a_linear_relaxation() {
        let n = 400;
        let mut inst = WcnfInstance::with_vars(n);
        inst.add_hard((0..n).map(pos));
        for i in 0..n {
            inst.add_soft([neg(i)], 1000 + i as u64);
        }
        let mut session = IncrementalMaxSat::new(&inst);
        let result = session.solve();
        assert_eq!(result.outcome.cost(), Some(1000));
        assert_eq!(result.stats.cores, 1);
        let clauses = session.solver.clauses().filter(|c| !c.is_learnt()).count();
        assert!(clauses < 5 * n, "{clauses} clauses for a {n}-member core");
    }

    /// "At least `m` of the `n` events" as hard clauses (every `n − m + 1`
    /// events hold one true), with softs ¬xᵢ of random weights: every
    /// optimum violates `m` members of the first core.
    fn at_least_instance(seed: u64, n: usize, m: usize) -> WcnfInstance {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut inst = WcnfInstance::with_vars(n);
        for mask in 0u32..(1 << n) {
            if mask.count_ones() as usize == n - m + 1 {
                inst.add_hard((0..n).filter(|i| mask & (1 << i) != 0).map(pos));
            }
        }
        for i in 0..n {
            inst.add_soft([neg(i)], rng.gen_range(1..=20));
        }
        inst
    }

    /// Optima that violate three or more members of one core grow a sum
    /// past bound 3, and still match the exhaustive optimum — one-shot and
    /// after each blocking clause.
    #[test]
    fn grown_sums_keep_optima_exact() {
        let mut grown_past_three = 0;
        for seed in 0..12 {
            let m = 3 + (seed % 3) as usize;
            let inst = at_least_instance(seed, 7, m);
            let mut grown = inst.clone();
            let mut session = IncrementalMaxSat::new(&inst);
            for _ in 0..4 {
                let result = session.solve();
                assert_eq!(
                    result.outcome.cost(),
                    brute_force_optimum(&grown),
                    "seed {seed} m {m}"
                );
                if session.totalizers.iter().any(|t| t.bound() > 3) {
                    grown_past_three += 1;
                }
                let Some(model) = result.outcome.model().map(<[bool]>::to_vec) else {
                    break;
                };
                let block: Vec<Lit> = (0..inst.num_vars())
                    .map(|i| Lit::new(Var::from_index(i), model[i]))
                    .collect();
                session.add_hard(block.clone());
                grown.add_hard(block);
            }
        }
        assert!(grown_past_three > 0, "no sum grew past bound 3");
    }

    /// The satisfiability probe answers for the hard clauses alone, after
    /// cores and totalizers joined the session, and hands its SAT call to
    /// the next result.
    #[test]
    fn the_satisfiability_probe_is_reported_by_the_next_call() {
        let mut inst = WcnfInstance::with_vars(3);
        inst.add_hard([pos(0), pos(1), pos(2)]);
        inst.add_hard([pos(1), pos(2)]);
        inst.add_soft([neg(0)], 9);
        inst.add_soft([neg(1)], 2);
        inst.add_soft([neg(2)], 5);
        let mut session = IncrementalMaxSat::new(&inst);
        let first = session.solve();
        assert_eq!(first.outcome.cost(), Some(2));
        assert!(first.stats.cores > 0, "the session holds a relaxed core");
        session.add_hard([neg(1)]);
        assert_eq!(session.hard_satisfiable(), Some(true));
        let second = session.solve();
        assert_eq!(second.outcome.cost(), Some(5));
        assert_eq!(
            second.stats.sat_calls,
            second.stats.session_calls - first.stats.session_calls
        );
        session.add_hard([neg(2)]);
        assert_eq!(session.hard_satisfiable(), Some(false));
        assert_eq!(session.solve().outcome, MaxSatOutcome::Unsatisfiable);
    }

    /// Compaction keeps answers and cumulative counters intact: a
    /// manually triggered compaction mid-sequence must be invisible except
    /// for the rebuilt solver.
    #[test]
    fn compaction_preserves_answers_and_counters() {
        let mut inst = WcnfInstance::with_vars(3);
        inst.add_hard([pos(0), pos(1), pos(2)]);
        inst.add_soft([neg(0)], 9);
        inst.add_soft([neg(1)], 2);
        inst.add_soft([neg(2)], 5);
        let mut session = IncrementalMaxSat::new(&inst);
        assert_eq!(session.solve().outcome.cost(), Some(2));
        // Force the most expensive event in, then compact: the rebuilt
        // session must still report the correct next optimum.
        session.add_hard([pos(0)]);
        let before = session.solver_stats().solve_calls;
        session.compact();
        let result = session.solve();
        assert_eq!(result.outcome.cost(), Some(9));
        assert!(
            result.stats.session_calls > before,
            "cumulative counters must survive compaction"
        );
    }
}
