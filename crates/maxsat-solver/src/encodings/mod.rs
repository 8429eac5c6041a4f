//! Cardinality and pseudo-Boolean encodings used by the MaxSAT algorithms.

pub mod gte;
pub mod totalizer;

use sat_solver::{Lit, Solver, Var};

use crate::instance::WcnfInstance;

/// Something that can receive fresh variables and clauses.
///
/// The encodings are written against this trait so they can emit clauses
/// directly into a running [`Solver`] (incremental use by the MaxSAT
/// algorithms) or into a [`WcnfInstance`] (offline encoding, testing).
pub trait ClauseSink {
    /// Allocates a fresh variable.
    fn add_var(&mut self) -> Var;
    /// Adds a clause.
    fn add_sink_clause(&mut self, lits: &[Lit]);
}

impl ClauseSink for Solver {
    fn add_var(&mut self) -> Var {
        self.new_var()
    }

    fn add_sink_clause(&mut self, lits: &[Lit]) {
        self.add_clause(lits.iter().copied());
    }
}

impl ClauseSink for WcnfInstance {
    fn add_var(&mut self) -> Var {
        self.new_var()
    }

    fn add_sink_clause(&mut self, lits: &[Lit]) {
        self.add_hard(lits.iter().copied());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solver_and_instance_both_act_as_sinks() {
        let mut solver = Solver::new();
        let v = ClauseSink::add_var(&mut solver);
        ClauseSink::add_sink_clause(&mut solver, &[Lit::positive(v)]);
        assert_eq!(solver.num_vars(), 1);

        let mut inst = WcnfInstance::new();
        let v = ClauseSink::add_var(&mut inst);
        ClauseSink::add_sink_clause(&mut inst, &[Lit::positive(v)]);
        assert_eq!(inst.num_hard(), 1);
    }
}
