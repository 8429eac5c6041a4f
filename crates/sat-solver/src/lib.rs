//! A from-scratch CDCL (conflict-driven clause learning) SAT solver.
//!
//! This crate is the SAT substrate of the MPMCS4FTA-rs workspace. It provides
//! everything the MaxSAT layer and the MPMCS pipeline need:
//!
//! * [`Lit`] / [`Var`] — compact literal and variable types.
//! * [`CnfFormula`] — a clause database that can be built incrementally,
//!   read from and written to DIMACS (see [`dimacs`]).
//! * [`BoolExpr`] and [`tseitin::TseitinEncoder`] — an arbitrary Boolean
//!   expression tree (with AND/OR/NOT and `at-least-k` voting operators) and
//!   its polynomial-size, equisatisfiable CNF conversion (paper Step 2).
//! * [`Solver`] — a CDCL solver with a flat clause arena (offset-based
//!   [`ClauseRef`]s, in-place compaction), two-literal watches, first-UIP
//!   clause learning, pluggable branching ([`BranchingStrategy`]; VSIDS with
//!   phase saving by default), Luby restarts, learnt-clause database
//!   reduction, session-safe inprocessing (bounded subsumption /
//!   self-subsuming resolution, optional constrained variable elimination —
//!   see [`InprocessConfig`]), and **solving under assumptions** with
//!   final-core extraction (needed by the core-guided MaxSAT algorithms).
//! * [`Session`] — a persistent incremental solving session: new clauses and
//!   fresh variables between solve calls, learnt clauses / activities /
//!   phases retained, per-call statistics deltas. The MaxSAT layer and the
//!   cut-set enumeration loop are built on it.
//!
//! # Example
//!
//! ```rust
//! use sat_solver::{Solver, Lit, SolveResult};
//!
//! let mut solver = Solver::new();
//! let a = solver.new_var();
//! let b = solver.new_var();
//! solver.add_clause([Lit::positive(a), Lit::positive(b)]);
//! solver.add_clause([Lit::negative(a)]);
//! match solver.solve() {
//!     SolveResult::Sat(model) => assert!(model.value(b)),
//!     other => unreachable!("formula is satisfiable, got {other:?}"),
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod branching;
mod clause;
mod cnf;
pub mod dimacs;
mod expr;
mod heap;
mod inprocess;
mod lit;
mod session;
mod solver;
mod stats;
pub mod tseitin;

pub use branching::{BranchingChoice, BranchingStrategy, RandomBranching, VsidsBranching};
pub use clause::{Clause, ClauseRef};
pub use cnf::CnfFormula;
pub use expr::BoolExpr;
pub use inprocess::InprocessConfig;
pub use lit::{LBool, Lit, Var};
pub use session::Session;
pub use solver::{InterruptHook, Model, SolveResult, Solver, SolverConfig};
pub use stats::SolverStats;
