//! Session-safe inprocessing: bounded simplification between solve calls.
//!
//! A round runs at a level-0 boundary (the start of a
//! [`Solver::solve_with_assumptions`] call) once [`INTERVAL_CONFLICTS`]
//! conflicts have accumulated since the previous round, or on demand
//! through [`Solver::inprocess_now`]. It performs, in order:
//!
//! 1. **Top-level simplification** — clauses satisfied at level 0 are
//!    deleted; literals false at level 0 are removed (a clause shrunk to one
//!    literal is enqueued, to zero makes the database unsat).
//! 2. **Subsumption and self-subsuming resolution** — for every live clause
//!    `C` of at most [`SUBSUMPTION_LIMIT`] literals, any clause `D ⊇ C` is
//!    deleted, and any `D` containing all of `C` except one literal in
//!    negated form is strengthened by removing that literal (the resolvent
//!    of `C` and `D` is a strict subset of `D`). Both steps preserve logical
//!    *equivalence*, so they are unconditionally sound for incremental
//!    solving: clauses and assumptions added later can never be invalidated.
//!
//! Both passes are bounded (clause-size and occurrence-list budgets) so a
//! round costs a small slice of the search time it amortises.
//!
//! [`Solver::solve_with_assumptions`]: crate::Solver::solve_with_assumptions

use crate::clause::ClauseRef;
use crate::lit::{LBool, Lit};
use crate::solver::Solver;

/// Conflicts that must accumulate between scheduled rounds, which keeps
/// inprocessing dormant on easy workloads.
const INTERVAL_CONFLICTS: u64 = 8000;
/// Only clauses with at most this many literals act as subsumers.
const SUBSUMPTION_LIMIT: usize = 30;
/// At most this many occurrence-list candidates are checked per subsumer.
const OCC_BUDGET: usize = 2000;

impl Solver {
    /// Runs a scheduled inprocessing round if one is due.
    pub(crate) fn maybe_inprocess(&mut self) {
        if self.stats.conflicts - self.last_inprocess_conflicts >= INTERVAL_CONFLICTS {
            self.inprocess_now();
        }
    }

    /// Runs one inprocessing round immediately (top-level simplification,
    /// then subsumption / self-subsuming resolution). Must be called at
    /// decision level 0 with a fully propagated trail, i.e. between solve
    /// calls; no-op when the database is already unsat.
    pub fn inprocess_now(&mut self) {
        debug_assert_eq!(self.decision_level(), 0);
        if !self.ok {
            return;
        }
        // Level-0 reasons are never dereferenced by conflict analysis (it
        // stops at level-0 literals), so clearing them is safe and leaves no
        // clause "locked" during this round.
        self.clear_top_level_reasons();
        self.simplify_top_level();
        if self.ok {
            self.subsumption_pass();
        }
        self.stats.inprocess_rounds += 1;
        self.stats.learnt_clauses = self.db.num_learnt as u64;
        self.last_inprocess_conflicts = self.stats.conflicts;
        self.maybe_compact();
    }

    /// Drops the reason references of every (level-0) trail literal. Units
    /// derived *during* a round propagate further literals whose reasons are
    /// ordinary clauses — and a later deletion sweep may remove exactly those
    /// clauses as satisfied — so every propagation inside a round must be
    /// followed by this before any clause can be deleted.
    fn clear_top_level_reasons(&mut self) {
        for &lit in &self.trail {
            self.reason[lit.var().index()] = None;
        }
    }

    /// Deletes clauses satisfied at level 0 and strips falsified literals,
    /// repeating while new top-level units keep appearing.
    fn simplify_top_level(&mut self) {
        loop {
            let crefs: Vec<ClauseRef> = self.db.refs().collect();
            let mut new_units = false;
            for cref in crefs {
                if self.db.is_deleted(cref) {
                    continue;
                }
                let len = self.db.len_of(cref);
                let mut satisfied = false;
                let mut keep: Vec<Lit> = Vec::with_capacity(len);
                for k in 0..len {
                    let lit = self.db.lit_at(cref, k);
                    match self.lit_value(lit) {
                        LBool::True => {
                            satisfied = true;
                            break;
                        }
                        LBool::False => {}
                        LBool::Undef => keep.push(lit),
                    }
                }
                if satisfied {
                    self.db.delete(cref);
                    self.stats.inprocess_removed += 1;
                    continue;
                }
                if keep.len() == len {
                    continue;
                }
                self.stats.inprocess_strengthened += 1;
                if self.rewrite_clause(cref, &keep) {
                    new_units = true;
                }
                if !self.ok {
                    return;
                }
            }
            if !new_units {
                break;
            }
            if self.propagate().is_some() {
                self.ok = false;
                return;
            }
            self.clear_top_level_reasons();
        }
    }

    /// Replaces a live clause's literals in place. Returns `true` when the
    /// rewrite produced a new top-level unit (the caller must re-propagate).
    /// Sets `ok = false` when the clause became empty.
    fn rewrite_clause(&mut self, cref: ClauseRef, new_lits: &[Lit]) -> bool {
        debug_assert!(!self.db.is_deleted(cref));
        self.detach_clause(cref);
        match new_lits.len() {
            0 => {
                self.db.delete(cref);
                self.ok = false;
                false
            }
            1 => {
                self.db.delete(cref);
                match self.lit_value(new_lits[0]) {
                    LBool::True => false,
                    LBool::False => {
                        self.ok = false;
                        false
                    }
                    LBool::Undef => {
                        self.unchecked_enqueue(new_lits[0], None);
                        true
                    }
                }
            }
            _ => {
                self.db.shrink(cref, new_lits);
                self.attach_clause(cref);
                false
            }
        }
    }

    /// Backward subsumption and self-subsuming resolution over all live
    /// clauses, bounded by [`SUBSUMPTION_LIMIT`] and [`OCC_BUDGET`].
    fn subsumption_pass(&mut self) {
        let crefs: Vec<ClauseRef> = self.db.refs().filter(|&c| !self.db.is_deleted(c)).collect();
        // Occurrence lists over every live clause (the subsumee side is
        // unbounded; only subsumers are size-limited).
        let mut occ: Vec<Vec<u32>> = vec![Vec::new(); 2 * self.num_vars()];
        for &cref in &crefs {
            for &lit in self.db.lits(cref) {
                occ[lit.code()].push(cref.0);
            }
        }
        // `stamp[lit] == epoch` marks the literals of the current subsumer.
        let mut stamp: Vec<u64> = vec![0; 2 * self.num_vars()];
        let mut epoch = 0u64;
        let mut units = false;
        for &c in &crefs {
            if self.db.is_deleted(c) {
                continue;
            }
            let clen = self.db.len_of(c);
            if clen > SUBSUMPTION_LIMIT {
                continue;
            }
            epoch += 1;
            let mut best = self.db.lit_at(c, 0);
            for k in 0..clen {
                let lit = self.db.lit_at(c, k);
                stamp[lit.code()] = epoch;
                if occ[lit.code()].len() < occ[best.code()].len() {
                    best = lit;
                }
            }
            // Scan the shortest occurrence list of C's literals for
            // candidate supersets. A subsumed D contains every literal of C,
            // so it sits in `occ[best]`; a strengthening candidate may have
            // `best` flipped, so `occ[!best]` must be scanned too.
            let candidates: Vec<u32> = occ[best.code()]
                .iter()
                .chain(occ[(!best).code()].iter())
                .copied()
                .take(OCC_BUDGET)
                .collect();
            for d_offset in candidates {
                let d = ClauseRef(d_offset);
                if d == c || self.db.is_deleted(d) || self.db.is_deleted(c) {
                    continue;
                }
                let dlen = self.db.len_of(d);
                if dlen < clen {
                    continue;
                }
                // Count C's literals found in D directly (hits) or negated
                // (at most one allowed, for self-subsuming resolution).
                let mut hits = 0usize;
                let mut negated: Option<Lit> = None;
                for k in 0..dlen {
                    let dl = self.db.lit_at(d, k);
                    if stamp[dl.code()] == epoch {
                        hits += 1;
                    } else if stamp[(!dl).code()] == epoch {
                        if negated.is_some() {
                            negated = None;
                            hits = 0;
                            break; // two negated matches: resolvent is a tautology
                        }
                        negated = Some(dl);
                    }
                }
                if hits == clen && negated.is_none() {
                    // C ⊆ D: D is redundant. If a learnt C subsumes an
                    // original D, C must survive learnt-DB reduction.
                    if self.db.is_learnt(c) && !self.db.is_learnt(d) {
                        self.db.promote(c);
                        self.stats.learnt_clauses = self.db.num_learnt as u64;
                    }
                    self.db.delete(d);
                    self.stats.inprocess_removed += 1;
                } else if hits + 1 == clen {
                    if let Some(dl) = negated {
                        // Self-subsuming resolution: resolve C and D on
                        // `dl`'s variable; the resolvent is D \ {dl}.
                        let keep: Vec<Lit> = self
                            .db
                            .lits(d)
                            .iter()
                            .copied()
                            .filter(|&l| l != dl)
                            .collect();
                        self.stats.inprocess_strengthened += 1;
                        if self.rewrite_clause(d, &keep) {
                            units = true;
                        }
                        if !self.ok {
                            return;
                        }
                    }
                }
            }
        }
        if units {
            if self.propagate().is_some() {
                self.ok = false;
                return;
            }
            self.clear_top_level_reasons();
            // Strengthening to units can satisfy or shorten other clauses;
            // one cheap follow-up pass picks those up.
            self.simplify_top_level();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lit::Var;
    use crate::solver::SolveResult;
    use crate::CnfFormula;

    fn pos(i: usize) -> Lit {
        Lit::positive(Var::from_index(i))
    }
    fn neg(i: usize) -> Lit {
        Lit::negative(Var::from_index(i))
    }

    fn live_clauses(solver: &Solver) -> Vec<Vec<Lit>> {
        solver
            .db
            .refs()
            .filter(|&c| !solver.db.is_deleted(c))
            .map(|c| solver.db.lits(c).to_vec())
            .collect()
    }

    #[test]
    fn subsumption_deletes_supersets() {
        let mut s = Solver::new();
        s.ensure_vars(4);
        s.add_clause([pos(0), pos(1)]);
        s.add_clause([pos(0), pos(1), pos(2)]); // subsumed
        s.add_clause([pos(0), pos(1), neg(3)]); // subsumed
        s.add_clause([pos(2), pos(3)]);
        s.inprocess_now();
        assert_eq!(s.stats().inprocess_rounds, 1);
        assert_eq!(s.stats().inprocess_removed, 2);
        assert_eq!(live_clauses(&s).len(), 2);
        assert!(s.solve().is_sat());
        s.assert_integrity();
    }

    #[test]
    fn self_subsuming_resolution_strengthens() {
        let mut s = Solver::new();
        s.ensure_vars(3);
        s.add_clause([pos(0), pos(1)]);
        s.add_clause([neg(0), pos(1), pos(2)]); // SSR on x0 → (x1 ∨ x2)
        s.inprocess_now();
        assert!(s.stats().inprocess_strengthened >= 1);
        let clauses = live_clauses(&s);
        assert!(
            clauses.iter().any(|c| {
                let mut c = c.clone();
                c.sort_unstable();
                c == vec![pos(1), pos(2)]
            }),
            "expected the strengthened clause, got {clauses:?}"
        );
        assert!(s.solve().is_sat());
        s.assert_integrity();
    }

    #[test]
    fn ssr_derived_units_leave_propagation_reasons_live() {
        // Regression: self-subsuming resolution on x0 turns (x0 ∨ x1) into
        // the unit x1, whose top-level propagation forces x2 with
        // (¬x1 ∨ x2) as its reason clause. Strengthening/garbage collection
        // in the same inprocessing pass must not delete or move that reason
        // out from under the trail — the integrity check walks every
        // assigned literal's reason.
        let mut s = Solver::new();
        s.ensure_vars(3);
        s.add_clause([pos(0), pos(1)]);
        s.add_clause([neg(0), pos(1)]); // SSR on x0 → unit x1
        s.add_clause([neg(1), pos(2)]); // propagates x2; reason clause
        s.inprocess_now();
        assert!(s.is_ok());
        s.assert_integrity();
        // The pass actually did the rewrite it is meant to guard.
        assert_eq!(s.stats().inprocess_rounds, 1);
        assert!(s.stats().inprocess_strengthened >= 1, "SSR must fire");
        // Both propagations are fixed at the top level after the pass.
        assert_eq!(s.lit_value(pos(1)), LBool::True);
        assert_eq!(s.lit_value(pos(2)), LBool::True);
        // And the solver still answers with a model honouring them.
        match s.solve() {
            SolveResult::Sat(m) => {
                assert!(m.value(Var::from_index(1)));
                assert!(m.value(Var::from_index(2)));
            }
            other => panic!("expected SAT, got {other:?}"),
        }
        s.assert_integrity();
    }

    #[test]
    fn top_level_simplification_removes_satisfied_and_false_literals() {
        let mut s = Solver::new();
        s.ensure_vars(4);
        s.add_clause([pos(0)]);
        s.add_clause([pos(1), pos(2), pos(3)]);
        // Added before x0 was known true, so it survives as a full clause...
        // actually add_clause simplifies at level 0 already; force the
        // situation by adding the unit last via inprocessing instead:
        let mut s2 = Solver::new();
        s2.ensure_vars(4);
        s2.add_clause([pos(1), pos(2)]);
        s2.add_clause([neg(0), pos(3)]);
        s2.add_clause([pos(0)]);
        // After the unit x0, (¬x0 ∨ x3) should shrink to the unit x3.
        s2.inprocess_now();
        assert!(s2.is_ok());
        assert_eq!(s2.lit_value(pos(3)), LBool::True);
        assert!(s2.solve().is_sat());
        s2.assert_integrity();
        drop(s);
    }

    #[test]
    fn inprocessing_preserves_answers_on_random_3sat() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(77);
        for instance in 0..15 {
            let num_vars = 25;
            let mut cnf = CnfFormula::with_vars(num_vars);
            for _ in 0..100 {
                let mut clause = Vec::new();
                for _ in 0..3 {
                    let v = Var::from_index(rng.gen_range(0..num_vars));
                    clause.push(Lit::new(v, rng.gen_bool(0.5)));
                }
                cnf.add_clause(clause);
            }
            let mut plain = Solver::from_cnf(&cnf);
            let expected = plain.solve().is_sat();
            let mut inproc = Solver::from_cnf(&cnf);
            inproc.inprocess_now();
            let got = inproc.solve();
            assert_eq!(got.is_sat(), expected, "instance {instance} must agree");
            if let SolveResult::Sat(model) = got {
                assert_eq!(
                    cnf.evaluate(model.as_slice()),
                    Some(true),
                    "instance {instance}: the model must satisfy the formula"
                );
            }
            inproc.assert_integrity();
        }
    }

    /// Nothing forces this round: the schedule alone runs one at the start
    /// of the call after a first call spent more than `INTERVAL_CONFLICTS`
    /// conflicts refuting a pigeonhole core (9 into 8: about 27,000). The
    /// core is guarded by an assumption, so the database itself stays
    /// satisfiable and every call keeps answering.
    #[test]
    fn a_scheduled_round_fires_once_the_conflict_interval_has_passed() {
        let (pigeons, holes) = (9, 8);
        let guard = Var::from_index(0);
        let var = |i: usize, j: usize| Var::from_index(1 + i * holes + j);
        let mut s = Solver::new();
        s.ensure_vars(1 + pigeons * holes);
        for i in 0..pigeons {
            let placed = (0..holes).map(|j| Lit::positive(var(i, j)));
            s.add_clause(std::iter::once(Lit::negative(guard)).chain(placed));
        }
        for j in 0..holes {
            for i1 in 0..pigeons {
                for i2 in (i1 + 1)..pigeons {
                    s.add_clause([Lit::negative(var(i1, j)), Lit::negative(var(i2, j))]);
                }
            }
        }
        let guarded = [Lit::positive(guard)];
        assert_eq!(s.solve_with_assumptions(&guarded), SolveResult::Unsat);
        assert_eq!(s.unsat_core(), &guarded);
        assert!(s.stats().conflicts > INTERVAL_CONFLICTS);
        assert_eq!(
            s.stats().inprocess_rounds,
            0,
            "no round before the interval"
        );

        assert_eq!(s.solve_with_assumptions(&guarded), SolveResult::Unsat);
        assert_eq!(s.unsat_core(), &guarded);
        assert_eq!(s.stats().inprocess_rounds, 1, "the schedule ran one round");
        s.assert_integrity();
        match s.solve() {
            SolveResult::Sat(model) => assert!(!model.value(guard)),
            other => panic!("expected SAT, got {other:?}"),
        }
        assert_eq!(
            s.stats().inprocess_rounds,
            1,
            "the round restarted the interval"
        );
        s.assert_integrity();
    }

    #[test]
    fn learnt_subsumer_is_promoted_to_irredundant() {
        let mut s = Solver::new();
        s.ensure_vars(3);
        s.add_clause([pos(0), pos(1), pos(2)]);
        // Hand-craft a learnt clause that subsumes the original.
        let cref = s.db.add(&[pos(0), pos(1)], true);
        s.attach_clause(cref);
        assert_eq!(s.db.num_learnt, 1);
        s.inprocess_now();
        assert_eq!(s.db.num_learnt, 0, "subsumer became irredundant");
        assert_eq!(s.stats().inprocess_removed, 1);
        assert!(s.solve().is_sat());
    }
}
