//! Generalized Totalizer Encoding (GTE) for pseudo-Boolean upper bounds.
//!
//! The GTE generalises the totalizer to weighted inputs: every node exposes
//! one output literal per *distinct achievable weight sum* of its subtree,
//! with sum-side clauses `(left ≥ a) ∧ (right ≥ b) ⇒ (node ≥ a+b)`. An upper
//! bound `Σ wᵢ·xᵢ ≤ k` is then enforced by asserting the negation of every
//! root output whose sum exceeds `k` — which is how the linear SAT–UNSAT
//! MaxSAT algorithm tightens the objective.
//!
//! The number of distinct sums can grow combinatorially for adversarial weight
//! distributions, so the builder takes a hard size limit and fails gracefully
//! with [`GteError::TooLarge`], on which the linear SAT–UNSAT solver falls
//! back to the core-guided algorithm.

use std::collections::BTreeMap;
use std::fmt;

use sat_solver::Lit;

use super::ClauseSink;

/// Errors produced while building a GTE.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GteError {
    /// The encoding exceeded the configured maximum number of output literals.
    TooLarge {
        /// The configured limit that was exceeded.
        limit: usize,
    },
    /// No weighted inputs were provided.
    Empty,
}

impl fmt::Display for GteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GteError::TooLarge { limit } => {
                write!(
                    f,
                    "generalized totalizer exceeded the size limit of {limit} outputs"
                )
            }
            GteError::Empty => write!(f, "generalized totalizer needs at least one input"),
        }
    }
}

impl std::error::Error for GteError {}

/// A built generalized totalizer.
#[derive(Clone, Debug)]
pub struct GteBuilder {
    /// Root outputs: distinct achievable sums mapped to their output literal.
    outputs: BTreeMap<u64, Lit>,
}

impl GteBuilder {
    /// Builds a GTE over `(literal, weight)` inputs, emitting clauses into
    /// `sink`. `max_outputs` bounds the total number of output literals
    /// created across all nodes.
    ///
    /// # Errors
    ///
    /// Returns [`GteError::Empty`] for an empty input list and
    /// [`GteError::TooLarge`] when the size limit is exceeded.
    pub fn build<S: ClauseSink>(
        sink: &mut S,
        inputs: &[(Lit, u64)],
        max_outputs: usize,
    ) -> Result<Self, GteError> {
        if inputs.is_empty() {
            return Err(GteError::Empty);
        }
        let mut budget = max_outputs;
        let outputs = Self::build_node(sink, inputs, &mut budget).map_err(|e| match e {
            GteError::TooLarge { .. } => GteError::TooLarge { limit: max_outputs },
            other => other,
        })?;
        Ok(GteBuilder { outputs })
    }

    fn build_node<S: ClauseSink>(
        sink: &mut S,
        inputs: &[(Lit, u64)],
        budget: &mut usize,
    ) -> Result<BTreeMap<u64, Lit>, GteError> {
        if inputs.len() == 1 {
            let mut map = BTreeMap::new();
            map.insert(inputs[0].1, inputs[0].0);
            return Ok(map);
        }
        let mid = inputs.len() / 2;
        let left = Self::build_node(sink, &inputs[..mid], budget)?;
        let right = Self::build_node(sink, &inputs[mid..], budget)?;

        // Bail out before doing quadratic work: the pairwise combination below
        // touches |left|·|right| sums and emits as many clauses, so the
        // product itself must stay within the budget (this is a conservative
        // over-approximation of the deduplicated sum count).
        let pair_count = left
            .len()
            .saturating_mul(right.len())
            .saturating_add(left.len() + right.len());
        if pair_count > *budget {
            // The limit is rewritten to the user-facing value in `build`.
            return Err(GteError::TooLarge { limit: 0 });
        }

        // Collect the distinct sums achievable by the combined node.
        let mut sums: Vec<u64> = Vec::new();
        for &a in left.keys() {
            sums.push(a);
        }
        for &b in right.keys() {
            sums.push(b);
        }
        for &a in left.keys() {
            for &b in right.keys() {
                sums.push(a + b);
            }
        }
        sums.sort_unstable();
        sums.dedup();
        if sums.len() > *budget {
            return Err(GteError::TooLarge { limit: 0 });
        }
        *budget -= sums.len();

        let mut outputs: BTreeMap<u64, Lit> = BTreeMap::new();
        for &s in &sums {
            outputs.insert(s, Lit::positive(sink.add_var()));
        }
        // Sum-side clauses.
        for (&a, &la) in &left {
            sink.add_sink_clause(&[!la, outputs[&a]]);
        }
        for (&b, &lb) in &right {
            sink.add_sink_clause(&[!lb, outputs[&b]]);
        }
        for (&a, &la) in &left {
            for (&b, &lb) in &right {
                sink.add_sink_clause(&[!la, !lb, outputs[&(a + b)]]);
            }
        }
        Ok(outputs)
    }

    /// The root outputs: each distinct achievable sum and the literal implied
    /// when the weighted sum of true inputs reaches it.
    pub fn outputs(&self) -> &BTreeMap<u64, Lit> {
        &self.outputs
    }

    /// Returns the literals that must be *false* to enforce `Σ wᵢ·xᵢ ≤ bound`.
    pub fn literals_above(&self, bound: u64) -> Vec<Lit> {
        self.outputs
            .range((bound + 1)..)
            .map(|(_, &lit)| lit)
            .collect()
    }

    /// The largest achievable sum (sum of all input weights).
    pub fn max_sum(&self) -> u64 {
        self.outputs.keys().next_back().copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sat_solver::{Lit, Solver, Var};

    fn weighted_inputs(weights: &[u64]) -> Vec<(Lit, u64)> {
        weights
            .iter()
            .enumerate()
            .map(|(i, &w)| (Lit::positive(Var::from_index(i)), w))
            .collect()
    }

    /// Exhaustive check: enforcing a bound via `literals_above` accepts exactly
    /// the assignments whose weighted sum is within the bound.
    #[test]
    fn weighted_upper_bound_is_exact() {
        let weights = [3u64, 5, 7, 2];
        let n = weights.len();
        let total: u64 = weights.iter().sum();
        for bound in [0u64, 2, 4, 7, 9, 12, total] {
            let mut solver = Solver::new();
            solver.ensure_vars(n);
            let gte =
                GteBuilder::build(&mut solver, &weighted_inputs(&weights), 10_000).expect("fits");
            for lit in gte.literals_above(bound) {
                solver.add_clause([!lit]);
            }
            for mask in 0..(1u32 << n) {
                let sum: u64 = (0..n)
                    .filter(|i| mask & (1 << i) != 0)
                    .map(|i| weights[i])
                    .sum();
                let assumptions: Vec<Lit> = (0..n)
                    .map(|i| Lit::new(Var::from_index(i), mask & (1 << i) == 0))
                    .collect();
                let sat = solver.solve_with_assumptions(&assumptions).is_sat();
                assert_eq!(sat, sum <= bound, "bound={bound} mask={mask:b} sum={sum}");
            }
        }
    }

    #[test]
    fn max_sum_and_outputs_reflect_the_weights() {
        let mut solver = Solver::new();
        solver.ensure_vars(3);
        let gte =
            GteBuilder::build(&mut solver, &weighted_inputs(&[1, 2, 4]), 1_000).expect("fits");
        assert_eq!(gte.max_sum(), 7);
        // All subset sums of {1,2,4} are distinct: 1..=7.
        assert_eq!(gte.outputs().len(), 7);
        assert!(gte.literals_above(7).is_empty());
        assert_eq!(gte.literals_above(0).len(), 7);
    }

    #[test]
    fn size_limit_is_enforced() {
        let mut solver = Solver::new();
        solver.ensure_vars(16);
        // Powers of two maximise the number of distinct sums (2^16 at the root).
        let weights: Vec<u64> = (0..16).map(|i| 1u64 << i).collect();
        let result = GteBuilder::build(&mut solver, &weighted_inputs(&weights), 100);
        assert!(matches!(result, Err(GteError::TooLarge { .. })));
    }

    #[test]
    fn empty_inputs_are_rejected() {
        let mut solver = Solver::new();
        assert_eq!(
            GteBuilder::build(&mut solver, &[], 100).unwrap_err(),
            GteError::Empty
        );
    }

    #[test]
    fn equal_weights_degenerate_to_cardinality() {
        let mut solver = Solver::new();
        solver.ensure_vars(5);
        let gte = GteBuilder::build(&mut solver, &weighted_inputs(&[2, 2, 2, 2, 2]), 1_000)
            .expect("fits");
        // Sums are 2, 4, 6, 8, 10 — one per count.
        assert_eq!(gte.outputs().len(), 5);
    }
}
