//! A plain CNF formula container, independent of any solver state.
//!
//! [`CnfFormula`] is the exchange format between the Tseitin encoder, the
//! MaxSAT layer and the SAT solver itself.

use crate::lit::{Lit, Var};

/// A formula in conjunctive normal form.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CnfFormula {
    num_vars: usize,
    clauses: Vec<Vec<Lit>>,
}

impl CnfFormula {
    /// Creates an empty formula with no variables and no clauses.
    pub fn new() -> Self {
        CnfFormula::default()
    }

    /// Creates an empty formula that already declares `num_vars` variables.
    pub fn with_vars(num_vars: usize) -> Self {
        CnfFormula {
            num_vars,
            clauses: Vec::new(),
        }
    }

    /// Number of declared variables.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Number of clauses.
    pub fn num_clauses(&self) -> usize {
        self.clauses.len()
    }

    /// Returns `true` when the formula has no clauses.
    pub fn is_empty(&self) -> bool {
        self.clauses.is_empty()
    }

    /// Allocates a fresh variable and returns it.
    pub fn new_var(&mut self) -> Var {
        let v = Var::from_index(self.num_vars);
        self.num_vars += 1;
        v
    }

    /// Declares that variables `0..n` exist (no-op if already larger).
    pub fn ensure_vars(&mut self, n: usize) {
        if n > self.num_vars {
            self.num_vars = n;
        }
    }

    /// Adds a clause given as anything iterable over literals.
    ///
    /// Variables mentioned in the clause are declared automatically.
    pub fn add_clause<I>(&mut self, lits: I)
    where
        I: IntoIterator<Item = Lit>,
    {
        let clause: Vec<Lit> = lits.into_iter().collect();
        for lit in &clause {
            self.ensure_vars(lit.var().index() + 1);
        }
        self.clauses.push(clause);
    }

    /// Iterates over the clauses.
    pub fn clauses(&self) -> impl Iterator<Item = &[Lit]> {
        self.clauses.iter().map(|c| c.as_slice())
    }

    /// Consumes the formula and returns the raw clause list.
    pub fn into_clauses(self) -> Vec<Vec<Lit>> {
        self.clauses
    }

    /// Evaluates the formula under a total assignment given as a slice of
    /// booleans indexed by variable.
    ///
    /// Returns `None` if the assignment does not cover all variables used in
    /// the formula.
    pub fn evaluate(&self, assignment: &[bool]) -> Option<bool> {
        for clause in &self.clauses {
            let mut satisfied = false;
            for lit in clause {
                let value = *assignment.get(lit.var().index())?;
                if value != lit.is_negative() {
                    satisfied = true;
                    break;
                }
            }
            if !satisfied {
                return Some(false);
            }
        }
        Some(true)
    }

    /// Appends all clauses of `other`, remapping nothing (variables are shared).
    pub fn extend_from(&mut self, other: &CnfFormula) {
        self.ensure_vars(other.num_vars);
        for clause in other.clauses() {
            self.clauses.push(clause.to_vec());
        }
    }
}

impl Extend<Vec<Lit>> for CnfFormula {
    fn extend<T: IntoIterator<Item = Vec<Lit>>>(&mut self, iter: T) {
        for clause in iter {
            self.add_clause(clause);
        }
    }
}

impl FromIterator<Vec<Lit>> for CnfFormula {
    fn from_iter<T: IntoIterator<Item = Vec<Lit>>>(iter: T) -> Self {
        let mut cnf = CnfFormula::new();
        cnf.extend(iter);
        cnf
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
    fn building_a_formula_tracks_vars_and_clauses() {
        let mut cnf = CnfFormula::new();
        cnf.add_clause([pos(0), neg(2)]);
        cnf.add_clause([pos(1)]);
        assert_eq!(cnf.num_vars(), 3);
        assert_eq!(cnf.num_clauses(), 2);
        assert!(!cnf.is_empty());
    }

    #[test]
    fn new_var_allocates_fresh_indices() {
        let mut cnf = CnfFormula::with_vars(2);
        let v = cnf.new_var();
        assert_eq!(v.index(), 2);
        assert_eq!(cnf.num_vars(), 3);
    }

    #[test]
    fn evaluate_checks_every_clause() {
        let mut cnf = CnfFormula::new();
        cnf.add_clause([pos(0), pos(1)]);
        cnf.add_clause([neg(0), pos(2)]);
        assert_eq!(cnf.evaluate(&[true, false, true]), Some(true));
        assert_eq!(cnf.evaluate(&[true, false, false]), Some(false));
        assert_eq!(cnf.evaluate(&[false, false, true]), Some(false));
        // Missing variable 2 in the assignment.
        assert_eq!(cnf.evaluate(&[true, true]), None);
    }

    #[test]
    fn extend_from_shares_variables() {
        let mut a = CnfFormula::new();
        a.add_clause([pos(0)]);
        let mut b = CnfFormula::new();
        b.add_clause([pos(3)]);
        a.extend_from(&b);
        assert_eq!(a.num_vars(), 4);
        assert_eq!(a.num_clauses(), 2);
    }

    #[test]
    fn from_iterator_collects_clauses() {
        let cnf: CnfFormula = vec![vec![pos(0), pos(1)], vec![neg(1)]]
            .into_iter()
            .collect();
        assert_eq!(cnf.num_clauses(), 2);
        assert_eq!(cnf.num_vars(), 2);
    }
}
