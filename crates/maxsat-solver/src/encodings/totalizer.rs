//! Iterative totalizer cardinality encoding (Bailleux–Boufkhad, grown on
//! demand as in Martins et al., CP 2014, and RC2).
//!
//! Given input literals `x_1 … x_n`, the totalizer introduces output literals
//! `o_1 … o_k` up to a *bound* `k ≤ n`, together with clauses enforcing the
//! *sum side* implication `(at least j inputs are true) ⇒ o_j` for every
//! `j ≤ k`. This single direction is exactly what the core-guided OLL
//! algorithm needs: assuming `¬o_j` then forbids models with `j` or more
//! violated members of a core.
//!
//! The tree of a full totalizer holds O(n²) clauses; up to bound `k`, each of
//! its `n − 1` internal nodes holds at most `k(k+3)/2`.
//! [`Totalizer::increase`] raises the bound later, adding only the outputs and
//! clauses of the new counts, so OLL pays for a count only once a core shows
//! that the search needs it.

use sat_solver::Lit;

use super::ClauseSink;

/// A totalizer over a fixed set of input literals, built up to a bound that
/// can grow.
#[derive(Clone, Debug)]
pub struct Totalizer {
    /// The counting tree in post-order: children precede their parent, and
    /// the root comes last.
    nodes: Vec<Node>,
}

#[derive(Clone, Debug)]
struct Node {
    /// `outputs[j]` is implied when at least `j + 1` inputs under the node
    /// are true; a leaf's only output is its input.
    outputs: Vec<Lit>,
    /// Number of inputs under the node.
    size: usize,
    /// Positions of the two children in `nodes`; `None` for a leaf.
    children: Option<(usize, usize)>,
}

impl Totalizer {
    /// Builds a totalizer over `inputs` up to `bound` (capped at the number
    /// of inputs), emitting clauses into `sink`.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` is empty.
    pub fn build<S: ClauseSink>(sink: &mut S, inputs: &[Lit], bound: usize) -> Self {
        assert!(!inputs.is_empty(), "totalizer needs at least one input");
        let mut totalizer = Totalizer {
            nodes: Vec::with_capacity(2 * inputs.len() - 1),
        };
        totalizer.add_subtree(inputs);
        totalizer.increase(sink, bound);
        totalizer
    }

    fn add_subtree(&mut self, inputs: &[Lit]) -> usize {
        let node = if let [input] = inputs {
            Node {
                outputs: vec![*input],
                size: 1,
                children: None,
            }
        } else {
            let mid = inputs.len() / 2;
            let left = self.add_subtree(&inputs[..mid]);
            let right = self.add_subtree(&inputs[mid..]);
            Node {
                outputs: Vec::new(),
                size: inputs.len(),
                children: Some((left, right)),
            }
        };
        self.nodes.push(node);
        self.nodes.len() - 1
    }

    /// Raises the bound to `bound` (capped at the number of inputs), adding
    /// only the outputs and clauses of the counts above the current bound.
    /// A bound at or below the current one changes nothing.
    pub fn increase<S: ClauseSink>(&mut self, sink: &mut S, bound: usize) {
        let bound = bound.min(self.len());
        if bound <= self.bound() {
            return;
        }
        // Post-order: both children of a node are grown before the node.
        for index in 0..self.nodes.len() {
            let (grown, rest) = self.nodes.split_at_mut(index);
            let node = &mut rest[0];
            let Some((left, right)) = node.children else {
                continue;
            };
            let (left, right) = (&grown[left].outputs, &grown[right].outputs);
            let old = node.outputs.len();
            let new = bound.min(node.size);
            node.outputs
                .extend((old..new).map(|_| Lit::positive(sink.add_var())));
            // Sum-side clauses for the new counts:
            // (≥i from left) ∧ (≥j from right) ⇒ (≥ i+j overall), old < i+j ≤ new.
            for i in 0..=left.len().min(new) {
                for j in (old + 1).saturating_sub(i)..=right.len().min(new - i) {
                    let mut clause = Vec::with_capacity(3);
                    if i > 0 {
                        clause.push(!left[i - 1]);
                    }
                    if j > 0 {
                        clause.push(!right[j - 1]);
                    }
                    clause.push(node.outputs[i + j - 1]);
                    sink.add_sink_clause(&clause);
                }
            }
        }
    }

    /// The largest count with an output literal.
    pub fn bound(&self) -> usize {
        self.root().outputs.len()
    }

    /// The output literal meaning "at least `count` inputs are true".
    ///
    /// # Panics
    ///
    /// Panics if `count` is zero or exceeds the [bound](Totalizer::bound).
    pub fn at_least(&self, count: usize) -> Lit {
        assert!(count >= 1 && count <= self.bound());
        self.root().outputs[count - 1]
    }

    /// Number of inputs.
    pub fn len(&self) -> usize {
        self.root().size
    }

    /// `true` if the totalizer has no inputs (never constructed this way).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    fn root(&self) -> &Node {
        self.nodes
            .last()
            .expect("a totalizer has at least one input")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::WcnfInstance;
    use sat_solver::{Lit, SolveResult, Solver, Var};

    fn inputs(n: usize) -> Vec<Lit> {
        (0..n).map(|i| Lit::positive(Var::from_index(i))).collect()
    }

    /// Assumes the inputs set in `mask` true and the others false.
    fn assignment(n: usize, mask: u32) -> Vec<Lit> {
        (0..n)
            .map(|i| Lit::new(Var::from_index(i), mask & (1 << i) == 0))
            .collect()
    }

    /// Exhaustively verifies the sum-side semantics: for every assignment of
    /// the inputs, forcing `¬o_{k+1}` is consistent iff at most `k` inputs are
    /// true.
    #[test]
    fn at_most_k_via_negated_outputs_is_exact() {
        let n = 5;
        for k in 0..n {
            let mut inst = WcnfInstance::with_vars(n);
            let tot = Totalizer::build(&mut inst, &inputs(n), k + 1);
            inst.add_hard([!tot.at_least(k + 1)]);
            for mask in 0..(1u32 << n) {
                let mut solver = Solver::new();
                solver.ensure_vars(inst.num_vars());
                for clause in inst.hard_clauses() {
                    solver.add_clause(clause.iter().copied());
                }
                let true_count = mask.count_ones() as usize;
                let result = solver.solve_with_assumptions(&assignment(n, mask));
                assert_eq!(
                    result.is_sat(),
                    true_count <= k,
                    "n={n} k={k} mask={mask:b}"
                );
            }
        }
    }

    /// Every bound a totalizer reaches by growing one step at a time is
    /// exact: after each step, for every built count `k` and every input
    /// assignment, assuming `¬o_k` is consistent iff fewer than `k` inputs
    /// are true.
    #[test]
    fn every_grown_bound_counts_exactly() {
        for n in 1..=6 {
            for start in [1, 2] {
                let mut solver = Solver::new();
                solver.ensure_vars(n);
                let mut tot = Totalizer::build(&mut solver, &inputs(n), start);
                for bound in start..=n {
                    tot.increase(&mut solver, bound);
                    assert_eq!(tot.bound(), bound.min(n), "n={n}");
                    for k in 1..=tot.bound() {
                        for mask in 0..(1u32 << n) {
                            let mut assumptions = assignment(n, mask);
                            assumptions.push(!tot.at_least(k));
                            let sat = solver.solve_with_assumptions(&assumptions).is_sat();
                            assert_eq!(
                                sat,
                                (mask.count_ones() as usize) < k,
                                "n={n} start={start} bound={bound} k={k} mask={mask:b}"
                            );
                        }
                    }
                }
            }
        }
    }

    /// A wide core costs a linear encoding at bound 2: at most 5 clauses per
    /// input, where the full 512-input totalizer holds 135,424.
    #[test]
    fn a_wide_totalizer_at_bound_two_stays_linear() {
        let n = 512;
        let mut inst = WcnfInstance::with_vars(n);
        let tot = Totalizer::build(&mut inst, &inputs(n), 2);
        assert_eq!(tot.bound(), 2);
        assert!(inst.num_hard() <= 5 * n, "{} clauses", inst.num_hard());
    }

    #[test]
    fn single_input_totalizer_is_the_input_itself() {
        let mut inst = WcnfInstance::with_vars(1);
        let x = Lit::positive(Var::from_index(0));
        let tot = Totalizer::build(&mut inst, &[x], 2);
        assert_eq!(tot.at_least(1), x);
        assert_eq!(tot.len(), 1);
        assert_eq!(tot.bound(), 1);
        assert!(!tot.is_empty());
        assert_eq!(inst.num_hard(), 0);
    }

    #[test]
    fn outputs_accumulate_with_forced_inputs() {
        // Force three of four inputs true; o_3 must be implied, and assuming
        // ¬o_3 must be unsatisfiable while ¬o_4 stays satisfiable.
        let n = 4;
        let mut solver = Solver::new();
        solver.ensure_vars(n);
        let inputs = inputs(n);
        let mut tot = Totalizer::build(&mut solver, &inputs, 2);
        for lit in inputs.iter().take(3) {
            solver.add_clause([*lit]);
        }
        tot.increase(&mut solver, n);
        assert_eq!(
            solver.solve_with_assumptions(&[!tot.at_least(3)]),
            SolveResult::Unsat
        );
        assert!(solver.solve_with_assumptions(&[!tot.at_least(4)]).is_sat());
    }

    #[test]
    #[should_panic]
    fn empty_input_list_is_rejected() {
        let mut inst = WcnfInstance::new();
        let _ = Totalizer::build(&mut inst, &[], 2);
    }
}
