//! Weighted Partial MaxSAT solvers.
//!
//! This crate is the optimisation substrate of the MPMCS4FTA-rs workspace
//! (paper Steps 4 and 5). A [`WcnfInstance`] holds *hard* clauses that every
//! solution must satisfy and *soft* clauses with positive integer weights; the
//! solvers find a model of the hard clauses that minimises the total weight of
//! falsified soft clauses.
//!
//! Three solvers are provided. Each stops one way: through an installed
//! [`InterruptHook`](sat_solver::InterruptHook), which the CDCL search polls
//! at every restart and every 512 conflicts.
//!
//! * [`IncrementalMaxSat`] — core-guided OLL/RC2-style search. Repeatedly
//!   solves under the assumption that every remaining soft clause holds;
//!   each unsatisfiable core raises the lower bound and is reformulated with
//!   a totalizer counting how many of its members are violated, grown one
//!   count at a time as later cores need it. Very effective when the optimum
//!   violates only a few soft clauses — exactly the situation of minimal cut
//!   sets, which are small. One session serves a whole *sequence* of
//!   closely related optima (top-k enumeration, what-if sweeps): hard
//!   clauses may be added between optima, and every call resumes from the
//!   learnt clauses, activities and phases the previous calls paid for. A
//!   one-shot solve is the first call of a fresh session.
//! * [`LinearSuSolver`] — model-improving linear SAT–UNSAT search. Finds any
//!   model, then adds a pseudo-Boolean bound `Σ w·(violated) ≤ cost − 1`
//!   (generalized totalizer encoding) and repeats until unsatisfiable.
//! * [`PortfolioSolver`] — the paper's Step 5: differently configured OLL
//!   and linear SAT–UNSAT solvers race in parallel threads and the first to
//!   finish wins.
//!
//! # Example
//!
//! ```rust
//! use maxsat_solver::{IncrementalMaxSat, MaxSatOutcome, WcnfInstance};
//! use sat_solver::{Lit, Var};
//!
//! let mut inst = WcnfInstance::with_vars(2);
//! let a = Lit::positive(Var::from_index(0));
//! let b = Lit::positive(Var::from_index(1));
//! // Hard: a ∨ b. Soft: prefer ¬a (weight 5) and ¬b (weight 3).
//! inst.add_hard([a, b]);
//! inst.add_soft([!a], 5);
//! inst.add_soft([!b], 3);
//! let result = IncrementalMaxSat::new(&inst).solve();
//! match result.outcome {
//!     MaxSatOutcome::Optimum { cost, ref model } => {
//!         assert_eq!(cost, 3); // violate the cheaper soft clause
//!         assert!(!model[0] && model[1]);
//!     }
//!     MaxSatOutcome::Unsatisfiable => unreachable!(),
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod encodings;
mod incremental;
mod instance;
mod linear;
mod oll;
mod portfolio;
mod result;
#[cfg(test)]
mod tests_support;

pub use encodings::gte::{GteBuilder, GteError};
pub use encodings::totalizer::Totalizer;
pub use incremental::{BoundedSolve, IncrementalMaxSat};
pub use instance::{SoftClause, WcnfInstance};
pub use linear::LinearSuSolver;
pub use portfolio::PortfolioSolver;
pub use result::{MaxSatOutcome, MaxSatResult, MaxSatStats};
