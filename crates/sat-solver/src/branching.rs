//! The decision heuristic: VSIDS with phase saving.
//!
//! The solver feeds [`Vsids`] the events it learns from: new variables,
//! variables seen during conflict analysis, the end of each conflict, and
//! unassignments on backtracking. Random decisions are mixed in at
//! [`SolverConfig::random_var_freq`] for portfolio diversification.
//!
//! [`SolverConfig::random_var_freq`]: crate::SolverConfig#structfield.random_var_freq

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::heap::VarHeap;
use crate::lit::{LBool, Lit, Var};
use crate::solver::SolverConfig;

/// Classic VSIDS: per-variable activities bumped on conflicts, decayed
/// geometrically, with the maximum kept in an indexed heap.
pub(crate) struct Vsids {
    activity: Vec<f64>,
    var_inc: f64,
    var_decay: f64,
    random_var_freq: f64,
    order: VarHeap,
    rng: StdRng,
}

impl Vsids {
    /// Builds the heuristic from the solver configuration (decay, random
    /// decision frequency, RNG seed).
    pub(crate) fn new(config: &SolverConfig) -> Self {
        Vsids {
            activity: Vec::new(),
            var_inc: 1.0,
            var_decay: config.var_decay,
            random_var_freq: config.random_var_freq,
            order: VarHeap::new(),
            rng: StdRng::seed_from_u64(config.seed),
        }
    }

    /// A fresh variable was allocated.
    pub(crate) fn on_new_var(&mut self, var: Var) {
        debug_assert_eq!(var.index(), self.activity.len());
        self.activity.push(0.0);
        self.order.insert(var, &self.activity);
    }

    /// `var` was involved in a conflict: bump its activity.
    pub(crate) fn on_conflict_var(&mut self, var: Var) {
        let idx = var.index();
        self.activity[idx] += self.var_inc;
        if self.activity[idx] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
        self.order.update(var, &self.activity);
    }

    /// A conflict finished analysing: decay every activity (by growing the
    /// bump increment).
    pub(crate) fn on_conflict(&mut self) {
        self.var_inc /= self.var_decay;
    }

    /// `var` was unassigned by backtracking and is a decision candidate
    /// again.
    pub(crate) fn on_unassign(&mut self, var: Var) {
        if !self.order.contains(var) {
            self.order.insert(var, &self.activity);
        }
    }

    /// Picks the next decision literal: an unassigned variable together with
    /// the polarity to try first, from the saved-phase table `phase`
    /// (`true` = the variable was last assigned true). `None` once every
    /// variable is assigned.
    pub(crate) fn pick(&mut self, assigns: &[LBool], phase: &[bool]) -> Option<Lit> {
        // Optional random decisions for portfolio diversification.
        if self.random_var_freq > 0.0
            && self.rng.gen::<f64>() < self.random_var_freq
            && !assigns.is_empty()
        {
            let idx = self.rng.gen_range(0..assigns.len());
            if assigns[idx].is_undef() {
                return Some(Lit::new(Var::from_index(idx), !phase[idx]));
            }
        }
        loop {
            let v = self.order.pop_max(&self.activity)?;
            if assigns[v.index()].is_undef() {
                return Some(Lit::new(v, !phase[v.index()]));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vsids_pops_the_most_active_unassigned_variable() {
        let config = SolverConfig::default();
        let mut vsids = Vsids::new(&config);
        for i in 0..4 {
            vsids.on_new_var(Var::from_index(i));
        }
        vsids.on_conflict_var(Var::from_index(2));
        vsids.on_conflict_var(Var::from_index(2));
        vsids.on_conflict_var(Var::from_index(1));
        let assigns = vec![LBool::Undef; 4];
        let phase = vec![false; 4];
        let lit = vsids.pick(&assigns, &phase).expect("candidates exist");
        assert_eq!(lit.var(), Var::from_index(2));
        assert!(lit.is_negative(), "phase false means try false first");
    }

    #[test]
    fn vsids_skips_assigned_variables_and_reinserts_on_unassign() {
        let config = SolverConfig::default();
        let mut vsids = Vsids::new(&config);
        for i in 0..3 {
            vsids.on_new_var(Var::from_index(i));
        }
        vsids.on_conflict_var(Var::from_index(0));
        let mut assigns = vec![LBool::Undef; 3];
        assigns[0] = LBool::True;
        let phase = vec![false; 3];
        let lit = vsids.pick(&assigns, &phase).expect("candidates exist");
        assert_ne!(lit.var(), Var::from_index(0));
        // After unassignment the variable becomes the top candidate again.
        assigns[0] = LBool::Undef;
        vsids.on_unassign(Var::from_index(0));
        let lit = vsids.pick(&assigns, &phase).expect("candidates exist");
        assert_eq!(lit.var(), Var::from_index(0));
    }
}
