//! The CDCL solver.
//!
//! The implementation follows the classic MiniSat architecture: two-literal
//! watches with blockers, first-UIP conflict analysis with basic clause
//! minimisation, VSIDS branching with phase saving (held by value, see
//! [`crate::branching`]), Luby restarts, and activity/LBD-guided
//! learnt-clause database reduction. Clauses live in a flat arena
//! ([`crate::clause`]) addressed by offset, compacted in place when enough
//! of it is dead. Assumptions are supported and a final conflict (unsat
//! core over the assumptions) is produced when solving under assumptions
//! fails, which the core-guided MaxSAT algorithms rely on. Nothing rewrites
//! clauses between solve calls: learnt-clause reduction deletes learnt
//! clauses, and every other clause stays as it was added.

use std::sync::Arc;

use crate::branching::Vsids;
use crate::clause::{self, ClauseDb, ClauseRef};
use crate::cnf::CnfFormula;
use crate::lit::{LBool, Lit, Var};
use crate::stats::SolverStats;

/// A cancellation probe installed with [`Solver::set_interrupt`]: the search
/// loop polls it at restart boundaries and periodically between conflicts,
/// and abandons the current call with [`SolveResult::Interrupted`] once it
/// returns `true`. The closure form (rather than a bare flag) lets callers
/// fold wall-clock deadlines and shared cancellation tokens into one probe.
pub type InterruptHook = Arc<dyn Fn() -> bool + Send + Sync>;

/// Multiplicative decay applied to learnt-clause activities.
const CLAUSE_DECAY: f64 = 0.999;
/// Initial learnt-clause limit as a fraction of the original clause count.
const LEARNTSIZE_FACTOR: f64 = 1.0 / 3.0;
/// Growth factor applied to the learnt-clause limit after each reduction.
const LEARNTSIZE_INC: f64 = 1.1;

/// Tunable solver parameters.
///
/// The defaults mirror MiniSat's. The parallel MaxSAT portfolio (paper Step 5)
/// instantiates solvers with different configurations so that the racers
/// explore the search space differently.
#[derive(Clone, Debug)]
pub struct SolverConfig {
    /// Multiplicative decay applied to variable activities (0 < decay < 1).
    pub var_decay: f64,
    /// Frequency of random branching decisions in `[0, 1)`.
    pub random_var_freq: f64,
    /// Initial number of conflicts between restarts.
    pub restart_first: u64,
    /// Default polarity assigned to fresh variables (phase saving overrides it).
    pub default_phase: bool,
    /// Seed for the solver-internal RNG (random decisions, tie breaking).
    pub seed: u64,
}

impl Default for SolverConfig {
    fn default() -> Self {
        SolverConfig {
            var_decay: 0.95,
            random_var_freq: 0.0,
            restart_first: 100,
            default_phase: false,
            seed: 42,
        }
    }
}

/// A total satisfying assignment.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Model {
    values: Vec<bool>,
}

impl Model {
    /// Truth value of `var` in the model.
    ///
    /// # Panics
    ///
    /// Panics if the variable was not known to the solver.
    pub fn value(&self, var: Var) -> bool {
        self.values[var.index()]
    }

    /// Truth value of a literal in the model.
    pub fn lit_value(&self, lit: Lit) -> bool {
        self.value(lit.var()) ^ lit.is_negative()
    }

    /// The model as a boolean slice indexed by variable.
    pub fn as_slice(&self) -> &[bool] {
        &self.values
    }

    /// Number of variables covered by the model.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// `true` when the model covers no variables.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

/// Outcome of a `solve` call.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SolveResult {
    /// The formula (under the given assumptions) is satisfiable.
    Sat(Model),
    /// The formula (under the given assumptions) is unsatisfiable.
    Unsat,
    /// The call was abandoned because the installed [`InterruptHook`] fired
    /// before the search decided the formula. The solver state stays
    /// consistent (the trail is fully backtracked, learnt clauses are kept),
    /// so a later call resumes the search seamlessly.
    Interrupted,
}

impl SolveResult {
    /// `true` if the result is [`SolveResult::Sat`].
    pub fn is_sat(&self) -> bool {
        matches!(self, SolveResult::Sat(_))
    }

    /// Returns the model if satisfiable.
    pub fn model(&self) -> Option<&Model> {
        match self {
            SolveResult::Sat(m) => Some(m),
            SolveResult::Unsat | SolveResult::Interrupted => None,
        }
    }
}

#[derive(Clone, Copy, Debug)]
struct Watcher {
    cref: ClauseRef,
    blocker: Lit,
}

/// A CDCL SAT solver.
///
/// See the [crate-level documentation](crate) for an example.
pub struct Solver {
    config: SolverConfig,
    db: ClauseDb,
    watches: Vec<Vec<Watcher>>,
    assigns: Vec<LBool>,
    phase: Vec<bool>,
    reason: Vec<Option<ClauseRef>>,
    level: Vec<u32>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    cla_inc: f64,
    vsids: Vsids,
    seen: Vec<bool>,
    ok: bool,
    stats: SolverStats,
    max_learnt: f64,
    num_original_clauses: usize,
    unsat_core: Vec<Lit>,
    /// The buffer [`Solver::add_clause`] collects and simplifies clauses in.
    clause_buf: Vec<Lit>,
    last_model: Option<Model>,
    interrupt: Option<InterruptHook>,
}

/// Private outcome of one bounded `search` episode.
enum SearchOutcome {
    /// The formula was decided within the conflict budget.
    Decided(bool),
    /// The conflict budget was exhausted; restart and search again.
    Restart,
    /// The interrupt hook fired mid-search.
    Interrupted,
}

impl Default for Solver {
    fn default() -> Self {
        Solver::new()
    }
}

impl std::fmt::Debug for Solver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Solver")
            .field("num_vars", &self.num_vars())
            .field("num_clauses", &self.db.len())
            .field("ok", &self.ok)
            .field("stats", &self.stats)
            .finish()
    }
}

impl Solver {
    /// Creates a solver with the default configuration.
    pub fn new() -> Self {
        Solver::with_config(SolverConfig::default())
    }

    /// Creates a solver with an explicit configuration.
    pub fn with_config(config: SolverConfig) -> Self {
        let vsids = Vsids::new(&config);
        Solver {
            config,
            db: ClauseDb::default(),
            watches: Vec::new(),
            assigns: Vec::new(),
            phase: Vec::new(),
            reason: Vec::new(),
            level: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            cla_inc: 1.0,
            vsids,
            seen: Vec::new(),
            ok: true,
            stats: SolverStats::default(),
            max_learnt: 0.0,
            num_original_clauses: 0,
            unsat_core: Vec::new(),
            clause_buf: Vec::new(),
            last_model: None,
            interrupt: None,
        }
    }

    /// Installs (or clears) the cancellation probe polled by the search loop.
    /// See [`InterruptHook`].
    pub fn set_interrupt(&mut self, hook: Option<InterruptHook>) {
        self.interrupt = hook;
    }

    /// `true` when an installed interrupt hook currently requests
    /// cancellation.
    fn interrupt_requested(&self) -> bool {
        self.interrupt.as_ref().is_some_and(|hook| hook())
    }

    /// Creates a solver preloaded with the clauses of `cnf`.
    pub fn from_cnf(cnf: &CnfFormula) -> Self {
        let mut solver = Solver::new();
        solver.add_cnf(cnf);
        solver
    }

    /// Number of variables known to the solver.
    pub fn num_vars(&self) -> usize {
        self.assigns.len()
    }

    /// Number of clauses (original + learnt, including lazily deleted ones).
    pub fn num_clauses(&self) -> usize {
        self.db.len()
    }

    /// Number of learnt clauses currently alive in the database — the state
    /// an incremental session carries between solve calls.
    pub fn num_learnt(&self) -> usize {
        self.db.num_learnt
    }

    /// Read-only views of every live clause (original and learnt), in
    /// insertion order.
    pub fn clauses(&self) -> impl Iterator<Item = crate::clause::Clause<'_>> {
        self.db
            .refs()
            .filter(|&c| !self.db.is_deleted(c))
            .map(|c| self.db.view(c))
    }

    /// Search statistics accumulated so far.
    pub fn stats(&self) -> &SolverStats {
        &self.stats
    }

    /// `false` once the clause database has been proven unsatisfiable at the
    /// top level (no assumptions involved).
    pub fn is_ok(&self) -> bool {
        self.ok
    }

    /// Allocates a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = Var::from_index(self.assigns.len());
        self.assigns.push(LBool::Undef);
        self.phase.push(self.config.default_phase);
        self.reason.push(None);
        self.level.push(0);
        self.seen.push(false);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.vsids.on_new_var(v);
        v
    }

    /// Ensures variables `0..n` exist.
    pub fn ensure_vars(&mut self, n: usize) {
        while self.num_vars() < n {
            self.new_var();
        }
    }

    /// Adds all clauses of a [`CnfFormula`].
    pub fn add_cnf(&mut self, cnf: &CnfFormula) {
        self.ensure_vars(cnf.num_vars());
        for clause in cnf.clauses() {
            self.add_clause(clause.iter().copied());
        }
    }

    /// Adds a clause. Returns `false` if the clause database became
    /// unsatisfiable at the top level.
    ///
    /// Clauses may only be added between `solve` calls (the solver is always
    /// at decision level 0 at that point).
    pub fn add_clause<I>(&mut self, lits: I) -> bool
    where
        I: IntoIterator<Item = Lit>,
    {
        debug_assert_eq!(self.decision_level(), 0);
        if !self.ok {
            return false;
        }
        let mut clause = std::mem::take(&mut self.clause_buf);
        clause.clear();
        clause.extend(lits);
        let added = self.add_clause_from(&mut clause);
        self.clause_buf = clause;
        added
    }

    /// [`Solver::add_clause`] on a clause in the reused buffer, which it
    /// sorts and simplifies in place.
    fn add_clause_from(&mut self, clause: &mut Vec<Lit>) -> bool {
        for lit in clause.iter() {
            self.ensure_vars(lit.var().index() + 1);
        }
        clause.sort_unstable();
        clause.dedup();
        // Tautology / top-level simplification, keeping the surviving
        // literals at the front.
        let mut kept = 0;
        for i in 0..clause.len() {
            let lit = clause[i];
            if i + 1 < clause.len() && clause[i + 1] == !lit {
                return true; // tautology: p ∨ ¬p
            }
            match self.lit_value(lit) {
                LBool::True => return true, // clause already satisfied at level 0
                LBool::False => {}          // drop falsified literal
                LBool::Undef => {
                    clause[kept] = lit;
                    kept += 1;
                }
            }
        }
        let simplified = &clause[..kept];
        match simplified.len() {
            0 => {
                self.ok = false;
                false
            }
            1 => {
                self.unchecked_enqueue(simplified[0], None);
                if self.propagate().is_some() {
                    self.ok = false;
                }
                self.ok
            }
            _ => {
                let cref = self.db.add(simplified, false);
                self.num_original_clauses += 1;
                self.attach_clause(cref);
                true
            }
        }
    }

    fn attach_clause(&mut self, cref: ClauseRef) {
        let l0 = self.db.lit_at(cref, 0);
        let l1 = self.db.lit_at(cref, 1);
        self.watches[(!l0).code()].push(Watcher { cref, blocker: l1 });
        self.watches[(!l1).code()].push(Watcher { cref, blocker: l0 });
    }

    #[inline(always)]
    fn var_value(&self, var: Var) -> LBool {
        self.assigns[var.index()]
    }

    #[inline(always)]
    fn lit_value(&self, lit: Lit) -> LBool {
        let v = self.assigns[lit.var().index()];
        if lit.is_negative() {
            v.negate()
        } else {
            v
        }
    }

    #[inline(always)]
    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    fn new_decision_level(&mut self) {
        self.trail_lim.push(self.trail.len());
    }

    fn unchecked_enqueue(&mut self, lit: Lit, reason: Option<ClauseRef>) {
        debug_assert!(self.lit_value(lit).is_undef());
        let v = lit.var().index();
        self.assigns[v] = LBool::from_bool(lit.is_positive());
        self.level[v] = self.decision_level();
        self.reason[v] = reason;
        self.trail.push(lit);
    }

    fn cancel_until(&mut self, level: u32) {
        if self.decision_level() <= level {
            return;
        }
        let target = self.trail_lim[level as usize];
        while self.trail.len() > target {
            let lit = self.trail.pop().expect("trail not empty");
            let v = lit.var();
            self.phase[v.index()] = self.var_value(v) == LBool::True;
            self.assigns[v.index()] = LBool::Undef;
            self.reason[v.index()] = None;
            self.vsids.on_unassign(v);
        }
        self.trail_lim.truncate(level as usize);
        self.qhead = self.trail.len();
    }

    fn clause_bump_activity(&mut self, cref: ClauseRef) {
        let activity = self.db.activity(cref) + self.cla_inc;
        self.db.set_activity(cref, activity);
        if activity > 1e20 {
            let refs: Vec<ClauseRef> = self.db.refs().collect();
            for c in refs {
                let scaled = self.db.activity(c) * 1e-20;
                self.db.set_activity(c, scaled);
            }
            self.cla_inc *= 1e-20;
        }
    }

    fn clause_decay_activity(&mut self) {
        self.cla_inc /= CLAUSE_DECAY;
    }

    /// Unit propagation. Returns the conflicting clause, if any.
    ///
    /// The watcher scan is allocation-free: each watch list is taken out,
    /// compacted in place (the blocker fast path just slides the entry
    /// down), and put back.
    fn propagate(&mut self) -> Option<ClauseRef> {
        let mut conflict = None;
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            self.stats.propagations += 1;
            let mut watchers = std::mem::take(&mut self.watches[p.code()]);
            let total = watchers.len();
            let mut i = 0;
            let mut j = 0;
            'watchers: while i < total {
                let w = watchers[i];
                i += 1;
                if self.lit_value(w.blocker) == LBool::True {
                    watchers[j] = w;
                    j += 1;
                    continue;
                }
                if self.db.is_deleted(w.cref) {
                    continue; // lazily drop watchers of deleted clauses
                }
                let false_lit = !p;
                if self.db.lit_at(w.cref, 0) == false_lit {
                    self.db.swap_lits(w.cref, 0, 1);
                }
                let first = self.db.lit_at(w.cref, 0);
                if first != w.blocker && self.lit_value(first) == LBool::True {
                    watchers[j] = Watcher {
                        cref: w.cref,
                        blocker: first,
                    };
                    j += 1;
                    continue;
                }
                // Look for a replacement watch.
                let len = self.db.len_of(w.cref);
                for k in 2..len {
                    let cand = self.db.lit_at(w.cref, k);
                    if self.lit_value(cand) != LBool::False {
                        self.db.swap_lits(w.cref, 1, k);
                        self.watches[(!cand).code()].push(Watcher {
                            cref: w.cref,
                            blocker: first,
                        });
                        continue 'watchers;
                    }
                }
                // Unit or conflicting: keep watching.
                watchers[j] = Watcher {
                    cref: w.cref,
                    blocker: first,
                };
                j += 1;
                if self.lit_value(first) == LBool::False {
                    conflict = Some(w.cref);
                    self.qhead = self.trail.len();
                    // Copy the unexamined tail back in one block move.
                    watchers.copy_within(i..total, j);
                    j += total - i;
                    i = total;
                } else {
                    self.unchecked_enqueue(first, Some(w.cref));
                }
            }
            watchers.truncate(j);
            self.watches[p.code()] = watchers;
            if conflict.is_some() {
                break;
            }
        }
        conflict
    }

    /// First-UIP conflict analysis. Returns the learnt clause (asserting
    /// literal first) and the backtrack level.
    fn analyze(&mut self, mut conflict: ClauseRef) -> (Vec<Lit>, u32) {
        let mut learnt: Vec<Lit> = vec![Lit::positive(Var::from_index(0))];
        let mut path_count = 0u32;
        let mut p: Option<Lit> = None;
        let mut index = self.trail.len();

        loop {
            if self.db.is_learnt(conflict) {
                self.clause_bump_activity(conflict);
            }
            let len = self.db.len_of(conflict);
            let start = usize::from(p.is_some());
            for k in start..len {
                let q = self.db.lit_at(conflict, k);
                let v = q.var();
                if !self.seen[v.index()] && self.level[v.index()] > 0 {
                    self.seen[v.index()] = true;
                    self.vsids.on_conflict_var(v);
                    if self.level[v.index()] >= self.decision_level() {
                        path_count += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // Find the next literal of the current level to resolve on.
            loop {
                index -= 1;
                if self.seen[self.trail[index].var().index()] {
                    break;
                }
            }
            let pl = self.trail[index];
            self.seen[pl.var().index()] = false;
            path_count -= 1;
            if path_count == 0 {
                learnt[0] = !pl;
                break;
            }
            p = Some(pl);
            conflict = self.reason[pl.var().index()]
                .expect("propagated literal at conflict level must have a reason");
        }

        // Basic (non-recursive) clause minimisation: a literal is redundant if
        // its reason clause is fully covered by the remaining learnt literals.
        let mut minimized = Vec::with_capacity(learnt.len());
        minimized.push(learnt[0]);
        for &lit in &learnt[1..] {
            let keep = match self.reason[lit.var().index()] {
                None => true,
                Some(reason) => {
                    let rlen = self.db.len_of(reason);
                    (1..rlen).any(|k| {
                        let r = self.db.lit_at(reason, k);
                        !self.seen[r.var().index()] && self.level[r.var().index()] > 0
                    })
                }
            };
            if keep {
                minimized.push(lit);
            }
        }
        // Clear the seen flags of all literals touched.
        for &lit in &learnt {
            self.seen[lit.var().index()] = false;
        }
        let mut learnt = minimized;

        // Compute the backtrack level and move the corresponding literal to
        // position 1 so that it is watched.
        let backtrack_level = if learnt.len() == 1 {
            0
        } else {
            let mut max_i = 1;
            for i in 2..learnt.len() {
                if self.level[learnt[i].var().index()] > self.level[learnt[max_i].var().index()] {
                    max_i = i;
                }
            }
            learnt.swap(1, max_i);
            self.level[learnt[1].var().index()]
        };
        (learnt, backtrack_level)
    }

    /// Computes the subset of assumptions responsible for falsifying `p`
    /// (the final conflict). `p` is the assumption that was found false.
    fn analyze_final(&mut self, p: Lit) {
        self.unsat_core.clear();
        self.unsat_core.push(p);
        if self.decision_level() == 0 {
            return;
        }
        self.seen[p.var().index()] = true;
        let bottom = self.trail_lim[0];
        for i in (bottom..self.trail.len()).rev() {
            let lit = self.trail[i];
            let v = lit.var();
            if !self.seen[v.index()] {
                continue;
            }
            match self.reason[v.index()] {
                None => {
                    debug_assert!(self.level[v.index()] > 0);
                    // A decision below/at the assumption levels is an assumption;
                    // record its negation (the final conflict is a clause).
                    self.unsat_core.push(!lit);
                }
                Some(reason) => {
                    let rlen = self.db.len_of(reason);
                    for k in 1..rlen {
                        let q = self.db.lit_at(reason, k);
                        if self.level[q.var().index()] > 0 {
                            self.seen[q.var().index()] = true;
                        }
                    }
                }
            }
            self.seen[v.index()] = false;
        }
        self.seen[p.var().index()] = false;
    }

    fn reduce_db(&mut self) {
        let mut learnt_refs: Vec<ClauseRef> = Vec::new();
        for cref in self.db.refs() {
            if self.db.is_learnt(cref) && !self.db.is_deleted(cref) && self.db.len_of(cref) > 2 {
                learnt_refs.push(cref);
            }
        }
        learnt_refs.sort_by(|&a, &b| {
            self.db.lbd(b).cmp(&self.db.lbd(a)).then(
                self.db
                    .activity(a)
                    .partial_cmp(&self.db.activity(b))
                    .unwrap_or(std::cmp::Ordering::Equal),
            )
        });
        let to_remove = learnt_refs.len() / 2;
        let mut removed = 0;
        for cref in learnt_refs {
            if removed >= to_remove {
                break;
            }
            if self.is_locked(cref) || self.db.lbd(cref) <= 2 {
                continue;
            }
            self.db.delete(cref);
            self.stats.deleted_clauses += 1;
            removed += 1;
        }
        self.stats.learnt_clauses = self.db.num_learnt as u64;
        self.maybe_compact();
    }

    /// Compacts the clause arena when at least a quarter of it is dead.
    fn maybe_compact(&mut self) {
        if self.db.arena_len() >= 2048 && self.db.wasted * 4 >= self.db.arena_len() {
            self.compact_clauses();
        }
    }

    /// Rewrites the clause arena in place, dropping deleted clauses, then
    /// remaps every watcher and reason reference to the new offsets. Safe at
    /// any decision level; normally triggered automatically by learnt-DB
    /// reduction, exposed for tests and embedders that want to bound memory
    /// eagerly.
    pub fn compact_clauses(&mut self) {
        let table = self.db.compact();
        for list in &mut self.watches {
            list.retain_mut(|w| match clause::remap(&table, w.cref) {
                Some(new) => {
                    w.cref = new;
                    true
                }
                None => false,
            });
        }
        for slot in &mut self.reason {
            if let Some(cref) = *slot {
                *slot = clause::remap(&table, cref);
            }
        }
        self.stats.arena_compactions += 1;
    }

    fn is_locked(&self, cref: ClauseRef) -> bool {
        let first = self.db.lit_at(cref, 0);
        self.lit_value(first) == LBool::True && self.reason[first.var().index()] == Some(cref)
    }

    fn compute_lbd(&self, lits: &[Lit]) -> u32 {
        let mut levels: Vec<u32> = lits.iter().map(|l| self.level[l.var().index()]).collect();
        levels.sort_unstable();
        levels.dedup();
        levels.len() as u32
    }

    /// How many conflicts may pass between polls of the interrupt hook
    /// within one `search` episode (the hook is also polled at every restart
    /// boundary). Small enough to bound cancellation latency, large enough to
    /// keep the probe off the hot path.
    const INTERRUPT_CHECK_INTERVAL: u64 = 512;

    /// CDCL search with a conflict budget: decided within the budget,
    /// restart-requested when the budget is exhausted, or interrupted when
    /// the installed hook fired.
    fn search(&mut self, conflict_budget: u64, assumptions: &[Lit]) -> SearchOutcome {
        let mut conflicts = 0u64;
        loop {
            if let Some(conflict) = self.propagate() {
                conflicts += 1;
                self.stats.conflicts += 1;
                if conflicts.is_multiple_of(Self::INTERRUPT_CHECK_INTERVAL)
                    && self.interrupt_requested()
                {
                    self.cancel_until(0);
                    return SearchOutcome::Interrupted;
                }
                if self.decision_level() == 0 {
                    self.ok = false;
                    self.unsat_core.clear();
                    return SearchOutcome::Decided(false);
                }
                let (learnt, backtrack_level) = self.analyze(conflict);
                self.cancel_until(backtrack_level);
                if learnt.len() == 1 {
                    self.unchecked_enqueue(learnt[0], None);
                } else {
                    let lbd = self.compute_lbd(&learnt);
                    let asserting = learnt[0];
                    let cref = self.db.add(&learnt, true);
                    self.db.set_lbd(cref, lbd);
                    self.attach_clause(cref);
                    self.clause_bump_activity(cref);
                    self.unchecked_enqueue(asserting, Some(cref));
                }
                self.vsids.on_conflict();
                self.clause_decay_activity();
                self.stats.learnt_clauses = self.db.num_learnt as u64;
            } else {
                if conflicts >= conflict_budget {
                    self.cancel_until(0);
                    return SearchOutcome::Restart;
                }
                if self.db.num_learnt as f64 > self.max_learnt {
                    self.reduce_db();
                    self.max_learnt *= LEARNTSIZE_INC;
                }
                // Apply pending assumptions as decisions.
                let mut next: Option<Lit> = None;
                while (self.decision_level() as usize) < assumptions.len() {
                    let p = assumptions[self.decision_level() as usize];
                    match self.lit_value(p) {
                        LBool::True => self.new_decision_level(),
                        LBool::False => {
                            self.analyze_final(!p);
                            // The core stores assumption literals themselves.
                            let core: Vec<Lit> = self.unsat_core.iter().map(|&l| !l).collect();
                            self.unsat_core = core;
                            return SearchOutcome::Decided(false);
                        }
                        LBool::Undef => {
                            next = Some(p);
                            break;
                        }
                    }
                }
                let next = match next {
                    Some(lit) => lit,
                    None => {
                        self.stats.decisions += 1;
                        match self.vsids.pick(&self.assigns, &self.phase) {
                            Some(lit) => lit,
                            None => return SearchOutcome::Decided(true),
                        }
                    }
                };
                self.new_decision_level();
                self.unchecked_enqueue(next, None);
            }
        }
    }

    fn luby(y: f64, mut x: u64) -> f64 {
        let (mut size, mut seq) = (1u64, 0u32);
        while size < x + 1 {
            seq += 1;
            size = 2 * size + 1;
        }
        while size - 1 != x {
            size = (size - 1) >> 1;
            seq -= 1;
            x %= size;
        }
        y.powi(seq as i32)
    }

    /// Solves the current clause database.
    pub fn solve(&mut self) -> SolveResult {
        self.solve_with_assumptions(&[])
    }

    /// Solves under the given assumptions.
    ///
    /// When the result is [`SolveResult::Unsat`], [`Solver::unsat_core`]
    /// returns a subset of the assumptions that is already unsatisfiable
    /// together with the clause database (the *final conflict*).
    ///
    /// When an [`InterruptHook`] is installed ([`Solver::set_interrupt`]) and
    /// fires mid-search, the call returns [`SolveResult::Interrupted`] with
    /// the trail fully backtracked; learnt clauses, activities and phases are
    /// kept, so a later call resumes the search.
    pub fn solve_with_assumptions(&mut self, assumptions: &[Lit]) -> SolveResult {
        if self.stats.solve_calls > 0 {
            // A warm start: every learnt clause still alive was derived by an
            // earlier call and is reused instead of re-derived.
            self.stats.incremental_calls += 1;
            self.stats.learnt_reused += self.db.num_learnt as u64;
        }
        self.stats.solve_calls += 1;
        self.unsat_core.clear();
        self.last_model = None;
        if !self.ok {
            return SolveResult::Unsat;
        }
        for lit in assumptions {
            self.ensure_vars(lit.var().index() + 1);
        }
        if self.max_learnt <= 0.0 {
            self.max_learnt = (self.num_original_clauses as f64 * LEARNTSIZE_FACTOR).max(1000.0);
        }
        let mut restarts = 0u64;
        let result = loop {
            if self.interrupt_requested() {
                self.cancel_until(0);
                return SolveResult::Interrupted;
            }
            let budget =
                (Self::luby(2.0, restarts) * self.config.restart_first as f64).max(1.0) as u64;
            match self.search(budget, assumptions) {
                SearchOutcome::Decided(answer) => break answer,
                SearchOutcome::Interrupted => return SolveResult::Interrupted,
                SearchOutcome::Restart => {
                    restarts += 1;
                    self.stats.restarts += 1;
                }
            }
        };
        let outcome = if result {
            let values: Vec<bool> = (0..self.num_vars())
                .map(|i| match self.assigns[i] {
                    LBool::True => true,
                    LBool::False => false,
                    LBool::Undef => self.phase[i],
                })
                .collect();
            let model = Model { values };
            self.last_model = Some(model.clone());
            SolveResult::Sat(model)
        } else {
            SolveResult::Unsat
        };
        self.cancel_until(0);
        outcome
    }

    /// The final conflict of the last failed `solve_with_assumptions` call:
    /// a subset of the assumptions that cannot be jointly satisfied.
    pub fn unsat_core(&self) -> &[Lit] {
        &self.unsat_core
    }

    /// The model of the last successful solve call, if any.
    pub fn last_model(&self) -> Option<&Model> {
        self.last_model.as_ref()
    }

    /// Checks the internal watch/reason/arena invariants, panicking on any
    /// violation. Used by the compaction regression tests; O(total
    /// literals), so never called on the hot path.
    #[doc(hidden)]
    pub fn assert_integrity(&self) {
        for cref in self.db.refs() {
            if self.db.is_deleted(cref) {
                continue;
            }
            let lits = self.db.lits(cref);
            assert!(lits.len() >= 2, "attached clauses have at least 2 literals");
            for watched in &lits[..2] {
                assert!(
                    self.watches[(!*watched).code()]
                        .iter()
                        .any(|w| w.cref == cref),
                    "live clause {cref:?} must be watched by its first two literals"
                );
            }
        }
        for list in &self.watches {
            for w in list {
                assert!(
                    w.cref.offset() < self.db.arena_len(),
                    "watcher points into the arena"
                );
            }
        }
        for (v, slot) in self.reason.iter().enumerate() {
            if let Some(cref) = slot {
                assert!(!self.db.is_deleted(*cref), "reason clauses stay live");
                assert_eq!(
                    self.db.lit_at(*cref, 0).var(),
                    Var::from_index(v),
                    "a reason clause's first literal is the implied literal"
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pos(i: usize) -> Lit {
        Lit::positive(Var::from_index(i))
    }
    fn neg(i: usize) -> Lit {
        Lit::negative(Var::from_index(i))
    }

    #[test]
    fn trivially_satisfiable() {
        let mut s = Solver::new();
        let a = s.new_var();
        s.add_clause([Lit::positive(a)]);
        match s.solve() {
            SolveResult::Sat(m) => assert!(m.value(a)),
            other => panic!("expected SAT, got {other:?}"),
        }
    }

    #[test]
    fn trivially_unsatisfiable() {
        let mut s = Solver::new();
        let a = s.new_var();
        s.add_clause([Lit::positive(a)]);
        s.add_clause([Lit::negative(a)]);
        assert_eq!(s.solve(), SolveResult::Unsat);
        assert!(!s.is_ok());
    }

    #[test]
    fn empty_formula_is_sat() {
        let mut s = Solver::new();
        assert!(s.solve().is_sat());
    }

    #[test]
    fn simple_implication_chain() {
        // (¬a ∨ b) ∧ (¬b ∨ c) ∧ a  ⟹  c
        let mut s = Solver::new();
        s.ensure_vars(3);
        s.add_clause([neg(0), pos(1)]);
        s.add_clause([neg(1), pos(2)]);
        s.add_clause([pos(0)]);
        match s.solve() {
            SolveResult::Sat(m) => {
                assert!(m.value(Var::from_index(0)));
                assert!(m.value(Var::from_index(1)));
                assert!(m.value(Var::from_index(2)));
            }
            other => panic!("expected SAT, got {other:?}"),
        }
    }

    #[test]
    fn pigeonhole_3_into_2_is_unsat() {
        // Variables p_{i,j}: pigeon i in hole j, i in 0..3, j in 0..2.
        let mut s = Solver::new();
        let var = |i: usize, j: usize| Var::from_index(i * 2 + j);
        s.ensure_vars(6);
        for i in 0..3 {
            s.add_clause([Lit::positive(var(i, 0)), Lit::positive(var(i, 1))]);
        }
        for j in 0..2 {
            for i1 in 0..3 {
                for i2 in (i1 + 1)..3 {
                    s.add_clause([Lit::negative(var(i1, j)), Lit::negative(var(i2, j))]);
                }
            }
        }
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn assumptions_flip_satisfiability() {
        let mut s = Solver::new();
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause([Lit::positive(a), Lit::positive(b)]);
        // Assuming both false must fail...
        let result = s.solve_with_assumptions(&[Lit::negative(a), Lit::negative(b)]);
        assert_eq!(result, SolveResult::Unsat);
        let core = s.unsat_core().to_vec();
        assert!(!core.is_empty());
        assert!(core
            .iter()
            .all(|l| *l == Lit::negative(a) || *l == Lit::negative(b)));
        // ...but the solver is still usable and SAT without assumptions.
        assert!(s.is_ok());
        assert!(s.solve().is_sat());
        // And SAT with a single assumption.
        match s.solve_with_assumptions(&[Lit::negative(a)]) {
            SolveResult::Sat(m) => assert!(m.value(b)),
            other => panic!("expected SAT, got {other:?}"),
        }
    }

    #[test]
    fn unsat_core_is_a_subset_of_assumptions() {
        let mut s = Solver::new();
        s.ensure_vars(4);
        // x0 and x1 conflict through the clauses; x2, x3 are irrelevant.
        s.add_clause([neg(0), neg(1)]);
        let assumptions = [pos(0), pos(2), pos(1), pos(3)];
        assert_eq!(s.solve_with_assumptions(&assumptions), SolveResult::Unsat);
        let core = s.unsat_core();
        assert!(!core.is_empty());
        for lit in core {
            assert!(
                assumptions.contains(lit),
                "core literal {lit:?} not an assumption"
            );
        }
        // The irrelevant assumptions should not both be required; the core must
        // mention x0 or x1.
        assert!(core.contains(&pos(0)) || core.contains(&pos(1)));
    }

    #[test]
    fn duplicate_and_tautological_clauses_are_handled() {
        let mut s = Solver::new();
        s.ensure_vars(2);
        s.add_clause([pos(0), pos(0), pos(1)]);
        s.add_clause([pos(0), neg(0)]);
        assert!(s.solve().is_sat());
    }

    #[test]
    fn model_satisfies_all_clauses_on_random_3sat() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(7);
        for instance in 0..20 {
            let num_vars = 30;
            let num_clauses = 100;
            let mut cnf = CnfFormula::with_vars(num_vars);
            for _ in 0..num_clauses {
                let mut clause = Vec::new();
                for _ in 0..3 {
                    let v = Var::from_index(rng.gen_range(0..num_vars));
                    clause.push(Lit::new(v, rng.gen_bool(0.5)));
                }
                cnf.add_clause(clause);
            }
            let mut s = Solver::from_cnf(&cnf);
            if let SolveResult::Sat(model) = s.solve() {
                assert_eq!(
                    cnf.evaluate(model.as_slice()),
                    Some(true),
                    "model must satisfy instance {instance}"
                );
            }
        }
    }

    /// Checks every SAT/UNSAT answer against exhaustive evaluation of all
    /// assignments, on random 3-SAT near the satisfiability threshold (clause
    /// ratio 4.26), where both answers occur.
    #[test]
    fn vsids_agrees_with_exhaustive_evaluation_on_random_3sat() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(13);
        let num_vars = 14;
        let num_clauses = 60;
        let (mut sat, mut unsat) = (0, 0);
        for instance in 0..20 {
            let mut cnf = CnfFormula::with_vars(num_vars);
            for _ in 0..num_clauses {
                let mut clause = Vec::new();
                for _ in 0..3 {
                    let v = Var::from_index(rng.gen_range(0..num_vars));
                    clause.push(Lit::new(v, rng.gen_bool(0.5)));
                }
                cnf.add_clause(clause);
            }
            let mut assignment = vec![false; num_vars];
            let satisfiable = (0u32..1 << num_vars).any(|bits| {
                for (i, value) in assignment.iter_mut().enumerate() {
                    *value = bits >> i & 1 == 1;
                }
                cnf.evaluate(&assignment) == Some(true)
            });
            match Solver::from_cnf(&cnf).solve() {
                SolveResult::Sat(model) => {
                    assert!(
                        satisfiable,
                        "instance {instance}: SAT on an unsatisfiable CNF"
                    );
                    assert_eq!(
                        cnf.evaluate(model.as_slice()),
                        Some(true),
                        "model must satisfy instance {instance}"
                    );
                    sat += 1;
                }
                SolveResult::Unsat => {
                    assert!(
                        !satisfiable,
                        "instance {instance}: UNSAT on a satisfiable CNF"
                    );
                    unsat += 1;
                }
                SolveResult::Interrupted => panic!("no interrupt installed"),
            }
        }
        assert!(
            sat > 0 && unsat > 0,
            "both answers occur: {sat} SAT, {unsat} UNSAT"
        );
    }

    #[test]
    fn solver_is_reusable_across_incremental_clause_additions() {
        let mut s = Solver::new();
        s.ensure_vars(3);
        s.add_clause([pos(0), pos(1), pos(2)]);
        assert!(s.solve().is_sat());
        s.add_clause([neg(0)]);
        assert!(s.solve().is_sat());
        s.add_clause([neg(1)]);
        match s.solve() {
            SolveResult::Sat(m) => assert!(m.value(Var::from_index(2))),
            other => panic!("expected SAT, got {other:?}"),
        }
        s.add_clause([neg(2)]);
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn session_retains_state_between_calls() {
        let mut s = Solver::new();
        s.ensure_vars(3);
        s.add_clause([pos(0), pos(1), pos(2)]);
        assert!(s.solve().is_sat());
        s.add_clause([neg(0)]);
        s.add_clause([neg(1)]);
        match s.solve() {
            SolveResult::Sat(m) => assert!(m.value(Var::from_index(2))),
            other => panic!("expected SAT, got {other:?}"),
        }
        assert_eq!(s.stats().solve_calls, 2);
        assert_eq!(s.stats().incremental_calls, 1);
    }

    /// Regression test: assumptions and final unsat cores stay correct after
    /// interleaved incremental clause additions (the access pattern of the
    /// incremental OLL MaxSAT session).
    #[test]
    fn assumptions_and_cores_survive_interleaved_clause_additions() {
        let mut s = Solver::new();
        s.ensure_vars(4);
        s.add_clause([pos(0), pos(1)]);
        // Assuming both disjuncts false is a contradiction...
        let unsat = s.solve_with_assumptions(&[neg(0), neg(1)]);
        assert_eq!(unsat, SolveResult::Unsat);
        let core = s.unsat_core().to_vec();
        assert!(!core.is_empty());
        assert!(core.iter().all(|l| *l == neg(0) || *l == neg(1)));
        // ...but the solver stays usable.
        assert!(s.is_ok());
        assert!(s.solve().is_sat());

        // Interleave: add an implication, then query under assumptions that
        // contradict it.
        s.add_clause([neg(0), pos(2)]);
        let unsat = s.solve_with_assumptions(&[pos(0), neg(2)]);
        assert_eq!(unsat, SolveResult::Unsat);
        let core = s.unsat_core().to_vec();
        assert!(!core.is_empty());
        assert!(core.iter().all(|l| *l == pos(0) || *l == neg(2)));

        // Interleave again: force x1 false so (x0 ∨ x1) now implies x0; the
        // assumption ¬x0 must fail with a core naming exactly that assumption.
        s.add_clause([neg(1)]);
        let unsat = s.solve_with_assumptions(&[neg(0)]);
        assert_eq!(unsat, SolveResult::Unsat);
        assert_eq!(s.unsat_core(), &[neg(0)]);

        // SAT queries still work and respect everything added so far.
        match s.solve() {
            SolveResult::Sat(m) => {
                assert!(m.value(Var::from_index(0)));
                assert!(!m.value(Var::from_index(1)));
                assert!(m.value(Var::from_index(2)));
            }
            other => panic!("expected SAT, got {other:?}"),
        }
        assert!(s.stats().incremental_calls >= 4);
    }

    #[test]
    fn learnt_clauses_are_counted_as_reused_on_warm_starts() {
        // A pigeonhole-style core forces real conflict-driven learning, so
        // the second call starts with a non-empty learnt database.
        let mut s = Solver::new();
        let var = |i: usize, j: usize| Var::from_index(i * 3 + j);
        s.ensure_vars(12);
        for i in 0..4 {
            s.add_clause((0..3).map(|j| Lit::positive(var(i, j))));
        }
        for j in 0..3 {
            for i1 in 0..4 {
                for i2 in (i1 + 1)..4 {
                    s.add_clause([Lit::negative(var(i1, j)), Lit::negative(var(i2, j))]);
                }
            }
        }
        assert_eq!(s.solve(), SolveResult::Unsat);
        assert!(s.num_learnt() > 0);
        let _ = s.solve();
        assert!(s.stats().learnt_reused > 0);
    }

    /// Regression test for the arena refactor: interleaves solve calls,
    /// clause additions and arena compactions, asserting after every step
    /// that watch lists and reason references still point at live clauses
    /// and that the per-call counter deltas stay monotone.
    #[test]
    fn arena_compaction_survives_an_incremental_session() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let mut s = Solver::new();
        let mut rng = StdRng::seed_from_u64(2020);
        let num_vars = 40;
        s.ensure_vars(num_vars);
        let mut checkpoint = SolverStats::default();
        let mut cumulative = SolverStats::default();
        let mut models = 0usize;
        for round in 0..60 {
            // Grow the formula: a few random ternary clauses per round (the
            // blocking-clause enumeration access pattern).
            for _ in 0..4 {
                let mut clause = Vec::new();
                for _ in 0..3 {
                    let v = Var::from_index(rng.gen_range(0..num_vars));
                    clause.push(Lit::new(v, rng.gen_bool(0.5)));
                }
                if !s.add_clause(clause) {
                    break;
                }
            }
            if !s.is_ok() {
                break;
            }
            let assumption = Lit::new(
                Var::from_index(rng.gen_range(0..num_vars)),
                rng.gen_bool(0.5),
            );
            match s.solve_with_assumptions(&[assumption]) {
                SolveResult::Sat(_) => models += 1,
                SolveResult::Unsat => {}
                SolveResult::Interrupted => panic!("no interrupt installed"),
            }
            // Periodically force the compaction the refactor introduced.
            if round % 11 == 5 {
                s.compact_clauses();
            }
            s.assert_integrity();
            // Per-call deltas must be non-negative (delta_since would
            // underflow-panic in debug builds) and sum to the running total.
            let delta = s.stats().delta_since(&checkpoint);
            checkpoint = *s.stats();
            cumulative = cumulative.merged(&delta);
            assert_eq!(cumulative.solve_calls, s.stats().solve_calls);
            assert_eq!(cumulative.conflicts, s.stats().conflicts);
            assert_eq!(cumulative.propagations, s.stats().propagations);
            assert_eq!(cumulative.arena_compactions, s.stats().arena_compactions);
        }
        assert!(models > 0, "the solver must see satisfiable rounds");
        assert!(
            s.stats().arena_compactions > 0,
            "forced compactions must be counted"
        );
    }

    #[test]
    fn stats_are_populated() {
        let mut s = Solver::new();
        s.ensure_vars(6);
        for i in 0..5 {
            s.add_clause([neg(i), pos(i + 1)]);
        }
        s.add_clause([pos(0)]);
        s.solve();
        assert!(s.stats().solve_calls >= 1);
        assert!(s.stats().propagations > 0);
    }

    #[test]
    fn interrupt_hook_abandons_and_later_resumes_the_search() {
        use std::sync::atomic::{AtomicBool, Ordering};

        let mut s = Solver::new();
        s.ensure_vars(2);
        s.add_clause([pos(0), pos(1)]);
        let flag = Arc::new(AtomicBool::new(true));
        let probe = Arc::clone(&flag);
        s.set_interrupt(Some(Arc::new(move || probe.load(Ordering::Relaxed))));
        assert_eq!(s.solve(), SolveResult::Interrupted);
        assert!(s.last_model().is_none());
        assert!(s.is_ok(), "an interrupted call proves nothing");
        // Clearing the request lets the same solver finish the call.
        flag.store(false, Ordering::Relaxed);
        assert!(s.solve().is_sat());
        // Assumption-based calls are interruptible too.
        flag.store(true, Ordering::Relaxed);
        assert_eq!(
            s.solve_with_assumptions(&[neg(0)]),
            SolveResult::Interrupted
        );
        flag.store(false, Ordering::Relaxed);
        assert!(s.solve_with_assumptions(&[neg(0)]).is_sat());
    }

    #[test]
    fn luby_sequence_prefix() {
        let seq: Vec<f64> = (0..9).map(|i| Solver::luby(2.0, i)).collect();
        assert_eq!(seq, vec![1.0, 1.0, 2.0, 1.0, 1.0, 2.0, 4.0, 1.0, 1.0]);
    }

    #[test]
    fn default_phase_false_prefers_negative_models() {
        let mut s = Solver::new();
        s.ensure_vars(4);
        // All clauses satisfied by everything-false except the one forcing x0.
        s.add_clause([pos(0), pos(1), pos(2), pos(3)]);
        match s.solve() {
            SolveResult::Sat(m) => {
                let true_count = m.as_slice().iter().filter(|&&b| b).count();
                assert!(true_count <= 2, "phase saving should keep the model sparse");
            }
            other => panic!("expected SAT, got {other:?}"),
        }
    }

    #[test]
    fn explicit_compaction_preserves_the_search_state() {
        // Pigeonhole forces real learning; compacting mid-session must not
        // change any later answer.
        let mut s = Solver::new();
        let var = |i: usize, j: usize| Var::from_index(i * 3 + j);
        s.ensure_vars(12);
        for i in 0..4 {
            s.add_clause((0..3).map(|j| Lit::positive(var(i, j))));
        }
        for j in 0..3 {
            for i1 in 0..4 {
                for i2 in (i1 + 1)..4 {
                    s.add_clause([Lit::negative(var(i1, j)), Lit::negative(var(i2, j))]);
                }
            }
        }
        // Satisfiable under an assumption set that relaxes one pigeon...
        assert_eq!(s.solve(), SolveResult::Unsat);
        assert!(!s.is_ok());

        // A fresh solver exercising compaction on a satisfiable formula.
        let mut s = Solver::new();
        s.ensure_vars(30);
        for i in 0..29 {
            s.add_clause([neg(i), pos(i + 1)]);
        }
        assert!(s.solve_with_assumptions(&[pos(0)]).is_sat());
        s.assert_integrity();
        s.compact_clauses();
        s.assert_integrity();
        assert_eq!(s.stats().arena_compactions, 1);
        assert!(s.solve_with_assumptions(&[pos(0)]).is_sat());
        assert!(s.solve_with_assumptions(&[neg(29)]).is_sat());
        assert_eq!(
            s.solve_with_assumptions(&[pos(0), neg(29)]),
            SolveResult::Unsat
        );
    }
}
