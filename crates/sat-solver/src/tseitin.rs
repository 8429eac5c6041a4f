//! Tseitin transformation: polynomial-time, equisatisfiable CNF conversion
//! (paper Step 2).
//!
//! Every internal node of a [`BoolExpr`] is given a fresh definition variable
//! that is constrained to be *equivalent* to the node, so the encoding is
//! correct regardless of the polarity under which the node is used. Shared
//! sub-expressions (same `Arc`) are encoded only once, which keeps fault-tree
//! DAGs with repeated events polynomial in size.
//!
//! Voting (`at least k of n`) nodes are expanded with a shared recursive
//! decomposition `atleast(k, [x1..xn]) = atleast(k, rest) ∨ (x1 ∧ atleast(k-1, rest))`
//! memoised on `(offset, k)`, which yields `O(n·k)` auxiliary nodes.
//!
//! A caller that walks its own structure — the MPMCS encoder walks the
//! fault tree's gates — calls [`TseitinEncoder::define_and`],
//! [`TseitinEncoder::define_or`] and [`TseitinEncoder::define_at_least`]
//! directly on literals, in the order [`TseitinEncoder::encode`] would, and
//! builds no [`BoolExpr`] at all.

use std::collections::HashMap;
use std::sync::Arc;

use crate::cnf::CnfFormula;
use crate::expr::BoolExpr;
use crate::lit::Lit;

/// Incremental Tseitin encoder.
///
/// # Example
///
/// ```rust
/// use sat_solver::{tseitin::TseitinEncoder, BoolExpr, Solver, Var};
///
/// let x0 = BoolExpr::var(Var::from_index(0));
/// let x1 = BoolExpr::var(Var::from_index(1));
/// let formula = BoolExpr::and(vec![x0, x1]);
///
/// let mut encoder = TseitinEncoder::with_reserved_vars(2);
/// encoder.assert_true(&formula);
///
/// let mut solver = Solver::from_cnf(encoder.cnf());
/// let result = solver.solve();
/// let model = result.model().expect("x0 ∧ x1 is satisfiable");
/// assert!(model.value(Var::from_index(0)) && model.value(Var::from_index(1)));
/// ```
#[derive(Debug, Default)]
pub struct TseitinEncoder {
    cnf: CnfFormula,
    cache: HashMap<*const BoolExpr, Lit>,
    /// Keeps encoded expressions alive so cache keys (their addresses) stay valid.
    retained: Vec<Arc<BoolExpr>>,
    const_true: Option<Lit>,
    reserved_vars: usize,
}

impl TseitinEncoder {
    /// Creates an empty encoder.
    pub fn new() -> Self {
        TseitinEncoder::default()
    }

    /// Creates an encoder whose CNF already declares variables `0..n`.
    ///
    /// Input variables of the expression (e.g. fault-tree basic events) keep
    /// their indices; auxiliary definition variables are allocated above `n`.
    pub fn with_reserved_vars(n: usize) -> Self {
        TseitinEncoder {
            cnf: CnfFormula::with_vars(n),
            cache: HashMap::new(),
            retained: Vec::new(),
            const_true: None,
            reserved_vars: n,
        }
    }

    /// The CNF accumulated so far.
    pub fn cnf(&self) -> &CnfFormula {
        &self.cnf
    }

    /// Consumes the encoder and returns the CNF.
    pub fn into_cnf(self) -> CnfFormula {
        self.cnf
    }

    /// Number of auxiliary (definition) variables introduced so far.
    pub fn num_aux_vars(&self) -> usize {
        self.cnf.num_vars().saturating_sub(self.reserved_vars)
    }

    fn true_lit(&mut self) -> Lit {
        if let Some(lit) = self.const_true {
            return lit;
        }
        let v = self.cnf.new_var();
        let lit = Lit::positive(v);
        self.cnf.add_clause([lit]);
        self.const_true = Some(lit);
        lit
    }

    /// Encodes `expr` and returns a literal equivalent to it.
    pub fn encode(&mut self, expr: &Arc<BoolExpr>) -> Lit {
        let key = Arc::as_ptr(expr);
        if let Some(&lit) = self.cache.get(&key) {
            return lit;
        }
        let lit = match &**expr {
            BoolExpr::True => self.true_lit(),
            BoolExpr::False => !self.true_lit(),
            BoolExpr::Var(v) => {
                self.cnf.ensure_vars(v.index() + 1);
                Lit::positive(*v)
            }
            BoolExpr::Not(inner) => !self.encode(inner),
            BoolExpr::And(children) => {
                let child_lits: Vec<Lit> = children.iter().map(|c| self.encode(c)).collect();
                self.define_and(&child_lits)
            }
            BoolExpr::Or(children) => {
                let child_lits: Vec<Lit> = children.iter().map(|c| self.encode(c)).collect();
                self.define_or(&child_lits)
            }
            BoolExpr::AtLeast(k, children) => {
                let child_lits: Vec<Lit> = children.iter().map(|c| self.encode(c)).collect();
                self.define_at_least(*k, &child_lits)
            }
        };
        self.cache.insert(key, lit);
        self.retained.push(expr.clone());
        lit
    }

    /// Encodes `expr` and adds a unit clause asserting it, making the CNF
    /// equisatisfiable with `expr` (over the original variables).
    pub fn assert_true(&mut self, expr: &Arc<BoolExpr>) -> Lit {
        let lit = self.encode(expr);
        self.cnf.add_clause([lit]);
        lit
    }

    /// Introduces `g ↔ (l1 ∧ … ∧ ln)` and returns `g`: a fresh variable and
    /// `n + 1` clauses for two or more literals, the literal itself for one,
    /// the constant `true` for none.
    pub fn define_and(&mut self, lits: &[Lit]) -> Lit {
        match lits.len() {
            0 => self.true_lit(),
            1 => lits[0],
            _ => {
                let g = Lit::positive(self.cnf.new_var());
                for &l in lits {
                    self.cnf.add_clause([!g, l]);
                }
                let mut long: Vec<Lit> = lits.iter().map(|&l| !l).collect();
                long.push(g);
                self.cnf.add_clause(long);
                g
            }
        }
    }

    /// Introduces `g ↔ (l1 ∨ … ∨ ln)` and returns `g` (the literal itself
    /// for one literal, the constant `false` for none).
    pub fn define_or(&mut self, lits: &[Lit]) -> Lit {
        match lits.len() {
            0 => !self.true_lit(),
            1 => lits[0],
            _ => {
                let g = Lit::positive(self.cnf.new_var());
                for &l in lits {
                    self.cnf.add_clause([g, !l]);
                }
                let mut long: Vec<Lit> = lits.to_vec();
                long.push(!g);
                self.cnf.add_clause(long);
                g
            }
        }
    }

    /// Encodes `at least k of lits` via a memoised recursive decomposition and
    /// returns the defining literal (`define_or` for `k == 1`, `define_and`
    /// for `k == n`).
    pub fn define_at_least(&mut self, k: usize, lits: &[Lit]) -> Lit {
        let mut memo: HashMap<(usize, usize), Lit> = HashMap::new();
        self.at_least_from(k, 0, lits, &mut memo)
    }

    fn at_least_from(
        &mut self,
        k: usize,
        offset: usize,
        lits: &[Lit],
        memo: &mut HashMap<(usize, usize), Lit>,
    ) -> Lit {
        if k == 0 {
            return self.true_lit();
        }
        let remaining = lits.len() - offset;
        if k > remaining {
            return !self.true_lit();
        }
        if k == remaining {
            return self.define_and(&lits[offset..]);
        }
        if k == 1 {
            return self.define_or(&lits[offset..]);
        }
        if let Some(&lit) = memo.get(&(offset, k)) {
            return lit;
        }
        // atleast(k, lits[offset..]) =
        //   (lits[offset] ∧ atleast(k-1, lits[offset+1..])) ∨ atleast(k, lits[offset+1..])
        let take = {
            let rest = self.at_least_from(k - 1, offset + 1, lits, memo);
            self.define_and(&[lits[offset], rest])
        };
        let skip = self.at_least_from(k, offset + 1, lits, memo);
        let result = self.define_or(&[take, skip]);
        memo.insert((offset, k), result);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lit::Var;
    use crate::solver::{SolveResult, Solver};

    fn v(i: usize) -> Arc<BoolExpr> {
        BoolExpr::var(Var::from_index(i))
    }

    /// Exhaustively checks equisatisfiability restricted to the original
    /// variables: for every assignment of the inputs, the expression is true
    /// iff the CNF (with the root asserted) is satisfiable under that
    /// assignment of the inputs.
    fn check_equisat(expr: &Arc<BoolExpr>, num_inputs: usize) {
        let mut encoder = TseitinEncoder::with_reserved_vars(num_inputs);
        encoder.assert_true(expr);
        let cnf = encoder.into_cnf();
        for mask in 0..(1u32 << num_inputs) {
            let assignment: Vec<bool> = (0..num_inputs).map(|i| mask & (1 << i) != 0).collect();
            let expected = expr.evaluate(&assignment).expect("total assignment");
            let mut solver = Solver::from_cnf(&cnf);
            let assumptions: Vec<Lit> = (0..num_inputs)
                .map(|i| Lit::new(Var::from_index(i), !assignment[i]))
                .collect();
            let got = solver.solve_with_assumptions(&assumptions).is_sat();
            assert_eq!(
                got, expected,
                "assignment {assignment:?} disagrees for {expr:?}"
            );
        }
    }

    #[test]
    fn and_gate_is_encoded_correctly() {
        check_equisat(&BoolExpr::and(vec![v(0), v(1), v(2)]), 3);
    }

    #[test]
    fn or_gate_is_encoded_correctly() {
        check_equisat(&BoolExpr::or(vec![v(0), v(1), v(2)]), 3);
    }

    #[test]
    fn nested_formula_is_encoded_correctly() {
        // The fire-protection example structure from the paper (Fig. 1).
        let expr = BoolExpr::or(vec![
            BoolExpr::and(vec![v(0), v(1)]),
            BoolExpr::or(vec![
                v(2),
                v(3),
                BoolExpr::and(vec![v(4), BoolExpr::or(vec![v(5), v(6)])]),
            ]),
        ]);
        check_equisat(&expr, 7);
    }

    #[test]
    fn negations_are_encoded_correctly() {
        // Success-tree style formula: ¬((x0 ∧ x1) ∨ x2)
        let expr = BoolExpr::not(BoolExpr::or(vec![BoolExpr::and(vec![v(0), v(1)]), v(2)]));
        check_equisat(&expr, 3);
    }

    #[test]
    fn at_least_k_is_encoded_correctly() {
        for k in 0..=4 {
            let expr = BoolExpr::at_least(k, vec![v(0), v(1), v(2), v(3)]);
            check_equisat(&expr, 4);
        }
    }

    #[test]
    fn at_least_two_of_five_is_encoded_correctly() {
        let expr = BoolExpr::at_least(2, vec![v(0), v(1), v(2), v(3), v(4)]);
        check_equisat(&expr, 5);
    }

    #[test]
    fn constants_are_handled() {
        let t: Arc<BoolExpr> = Arc::new(BoolExpr::True);
        let mut encoder = TseitinEncoder::new();
        encoder.assert_true(&t);
        let mut solver = Solver::from_cnf(encoder.cnf());
        assert!(solver.solve().is_sat());

        let f: Arc<BoolExpr> = Arc::new(BoolExpr::False);
        let mut encoder = TseitinEncoder::new();
        encoder.assert_true(&f);
        let mut solver = Solver::from_cnf(encoder.cnf());
        assert_eq!(solver.solve(), SolveResult::Unsat);
    }

    #[test]
    fn shared_subexpressions_are_encoded_once() {
        let shared = BoolExpr::and(vec![v(0), v(1)]);
        let expr = BoolExpr::or(vec![shared.clone(), BoolExpr::and(vec![shared, v(2)])]);
        let mut encoder = TseitinEncoder::with_reserved_vars(3);
        encoder.assert_true(&expr);
        // One aux var for the shared AND, one for the other AND, one for the OR.
        assert_eq!(encoder.num_aux_vars(), 3);
    }

    #[test]
    fn encoding_is_polynomial_for_wide_voting_gates() {
        let children: Vec<Arc<BoolExpr>> = (0..40).map(v).collect();
        let expr = BoolExpr::at_least(20, children);
        let mut encoder = TseitinEncoder::with_reserved_vars(40);
        encoder.assert_true(&expr);
        // A naive expansion would be C(40, 20) ≈ 1.4e11 clauses; the memoised
        // decomposition stays small.
        assert!(encoder.cnf().num_clauses() < 20_000);
    }
}
