//! Weighted Partial MaxSAT instances.

use sat_solver::{CnfFormula, Lit, Var};

/// A soft clause: a disjunction of literals with a positive weight, paid when
/// the clause is falsified.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SoftClause {
    /// The literals of the clause.
    pub lits: Vec<Lit>,
    /// The penalty incurred when the clause is falsified.
    pub weight: u64,
}

/// A Weighted Partial MaxSAT instance: hard clauses plus weighted soft clauses.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct WcnfInstance {
    num_vars: usize,
    hard: Vec<Vec<Lit>>,
    soft: Vec<SoftClause>,
}

impl WcnfInstance {
    /// Creates an empty instance.
    pub fn new() -> Self {
        WcnfInstance::default()
    }

    /// Creates an empty instance that declares `num_vars` variables.
    pub fn with_vars(num_vars: usize) -> Self {
        WcnfInstance {
            num_vars,
            hard: Vec::new(),
            soft: Vec::new(),
        }
    }

    /// Number of declared variables.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Number of hard clauses.
    pub fn num_hard(&self) -> usize {
        self.hard.len()
    }

    /// Number of soft clauses.
    pub fn num_soft(&self) -> usize {
        self.soft.len()
    }

    /// Allocates a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = Var::from_index(self.num_vars);
        self.num_vars += 1;
        v
    }

    /// Declares that variables `0..n` exist.
    pub fn ensure_vars(&mut self, n: usize) {
        if n > self.num_vars {
            self.num_vars = n;
        }
    }

    /// Adds a hard clause.
    pub fn add_hard<I>(&mut self, lits: I)
    where
        I: IntoIterator<Item = Lit>,
    {
        let clause: Vec<Lit> = lits.into_iter().collect();
        for lit in &clause {
            self.ensure_vars(lit.var().index() + 1);
        }
        self.hard.push(clause);
    }

    /// Adds all clauses of a CNF formula as hard clauses, moving them in.
    pub fn add_hard_cnf(&mut self, cnf: CnfFormula) {
        self.ensure_vars(cnf.num_vars());
        self.hard.extend(cnf.into_clauses());
    }

    /// Adds a soft clause with the given weight.
    ///
    /// # Panics
    ///
    /// Panics if `weight == 0`; zero-weight clauses carry no information.
    pub fn add_soft<I>(&mut self, lits: I, weight: u64)
    where
        I: IntoIterator<Item = Lit>,
    {
        assert!(weight > 0, "soft clauses must have a positive weight");
        let clause: Vec<Lit> = lits.into_iter().collect();
        for lit in &clause {
            self.ensure_vars(lit.var().index() + 1);
        }
        self.soft.push(SoftClause {
            lits: clause,
            weight,
        });
    }

    /// The hard clauses.
    pub fn hard_clauses(&self) -> impl Iterator<Item = &[Lit]> {
        self.hard.iter().map(|c| c.as_slice())
    }

    /// The soft clauses.
    pub fn soft_clauses(&self) -> &[SoftClause] {
        &self.soft
    }

    /// The sum of all soft weights (an upper bound on any optimum, and the
    /// conventional `top` weight used by the WCNF format).
    pub fn total_soft_weight(&self) -> u64 {
        self.soft.iter().map(|s| s.weight).sum()
    }

    /// Evaluates a model: returns `(hard_ok, cost)` where `hard_ok` tells
    /// whether all hard clauses are satisfied and `cost` is the total weight
    /// of falsified soft clauses. Returns `None` if the model does not cover
    /// every declared variable.
    pub fn evaluate(&self, model: &[bool]) -> Option<(bool, u64)> {
        if model.len() < self.num_vars {
            return None;
        }
        let lit_true = |lit: &Lit| model[lit.var().index()] ^ lit.is_negative();
        let hard_ok = self.hard.iter().all(|c| c.iter().any(lit_true));
        let cost = self
            .soft
            .iter()
            .filter(|s| !s.lits.iter().any(lit_true))
            .map(|s| s.weight)
            .sum();
        Some((hard_ok, cost))
    }

    /// Returns the cost of a model, assuming it satisfies the hard clauses.
    ///
    /// # Panics
    ///
    /// Panics if the model does not cover every declared variable.
    pub fn cost_of(&self, model: &[bool]) -> u64 {
        self.evaluate(model)
            .expect("model must cover all instance variables")
            .1
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
    fn building_an_instance_tracks_counts_and_weights() {
        let mut inst = WcnfInstance::new();
        inst.add_hard([pos(0), pos(1)]);
        inst.add_soft([neg(0)], 4);
        inst.add_soft([neg(1)], 6);
        assert_eq!(inst.num_vars(), 2);
        assert_eq!(inst.num_hard(), 1);
        assert_eq!(inst.num_soft(), 2);
        assert_eq!(inst.total_soft_weight(), 10);
    }

    #[test]
    #[should_panic]
    fn zero_weight_soft_clause_is_rejected() {
        let mut inst = WcnfInstance::new();
        inst.add_soft([pos(0)], 0);
    }

    #[test]
    fn evaluate_reports_hard_violations_and_cost() {
        let mut inst = WcnfInstance::new();
        inst.add_hard([pos(0), pos(1)]);
        inst.add_soft([neg(0)], 4);
        inst.add_soft([neg(1)], 6);
        assert_eq!(inst.evaluate(&[true, false]), Some((true, 4)));
        assert_eq!(inst.evaluate(&[false, true]), Some((true, 6)));
        assert_eq!(inst.evaluate(&[true, true]), Some((true, 10)));
        assert_eq!(inst.evaluate(&[false, false]), Some((false, 0)));
        assert_eq!(inst.evaluate(&[true]), None);
    }

    #[test]
    fn add_hard_cnf_imports_all_clauses() {
        let mut cnf = CnfFormula::new();
        cnf.add_clause([pos(2), neg(0)]);
        cnf.add_clause([pos(1)]);
        let mut inst = WcnfInstance::new();
        inst.add_hard_cnf(cnf);
        assert_eq!(inst.num_hard(), 2);
        assert_eq!(inst.num_vars(), 3);
    }

    #[test]
    fn new_var_allocates_above_existing_vars() {
        let mut inst = WcnfInstance::with_vars(3);
        assert_eq!(inst.new_var().index(), 3);
        assert_eq!(inst.num_vars(), 4);
    }
}
