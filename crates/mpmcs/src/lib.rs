//! Maximum Probability Minimal Cut Sets (MPMCS) via Weighted Partial MaxSAT.
//!
//! This crate implements the primary contribution of
//! *"Fault Tree Analysis: Identifying Maximum Probability Minimal Cut Sets
//! with MaxSAT"* (Barrère & Hankin, DSN 2020): given a fault tree with
//! probabilities attached to its basic events, find the **minimal cut set
//! whose joint probability is maximal** among all minimal cut sets.
//!
//! The resolution pipeline follows the six steps of the paper:
//!
//! 1. **Logical transformation** — the fault-tree structure function `f(t)`
//!    is complemented into the success tree `X(t)`; the crate supports both
//!    the paper's success-tree encoding and the equivalent direct encoding
//!    (see [`EncodingStyle`]).
//! 2. **CNF conversion** — Tseitin transformation
//!    ([`sat_solver::tseitin::TseitinEncoder`]).
//!
//!    Steps 1 and 2 are one walk over the tree's gates
//!    ([`MpmcsEncoding::with_style`]): each gate, or its dual for the
//!    success tree, is defined once on literals, and no formula is built.
//!    The walk emits exactly the CNF of Tseitin-encoding the
//!    [`fault_tree::StructureFormula`], which stays the semantic reference.
//! 3. **Probabilities → log-space** — `wᵢ = −ln p(xᵢ)`
//!    ([`fault_tree::Probability::log_weight`]), scaled to integer MaxSAT
//!    weights.
//! 4. **Weighted Partial MaxSAT instance** — hard clauses from step 2, one
//!    soft clause per basic event ([`MpmcsEncoding`]).
//! 5. **Parallel MaxSAT resolution** — [`AlgorithmChoice`] picks one of
//!    three solvers: the [`maxsat_solver::PortfolioSolver`] race of OLL and
//!    linear SAT–UNSAT entries (the paper's design), core-guided OLL alone
//!    ([`maxsat_solver::IncrementalMaxSat`], the deterministic default) or
//!    [`maxsat_solver::LinearSuSolver`]. Enumerations drain one OLL session
//!    ([`McsStream`]).
//! 6. **Reverse log-space transformation** — `P = exp(−Σ wᵢ)` plus a
//!    minimality-repair and verification pass ([`verify`]).
//!
//! # Quick start
//!
//! ```rust
//! use fault_tree::examples::fire_protection_system;
//! use mpmcs::MpmcsSolver;
//!
//! # fn main() -> Result<(), mpmcs::MpmcsError> {
//! let tree = fire_protection_system();
//! let solution = MpmcsSolver::new().solve(&tree)?;
//! // The paper's result: MPMCS = {x1, x2} with probability 0.02.
//! assert_eq!(solution.event_names(&tree), vec!["x1", "x2"]);
//! assert!((solution.probability - 0.02).abs() < 1e-9);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod encode;
mod enumerate;
mod error;
#[cfg(test)]
mod pathset;
mod report;
mod solver;
mod stream;
pub mod verify;

pub use encode::{EncodingStyle, MpmcsEncoding, WeightScale};
pub use enumerate::EnumerationLimit;
pub use error::MpmcsError;
pub use report::{MpmcsReport, ReportEvent, SolverStatsReport};
pub use solver::{AlgorithmChoice, MpmcsOptions, MpmcsSolution, MpmcsSolver};
pub use stream::{McsStream, StreamStep};
