//! A from-scratch CDCL (conflict-driven clause learning) SAT solver.
//!
//! This crate is the SAT substrate of the MPMCS4FTA-rs workspace. It provides
//! everything the MaxSAT layer and the MPMCS pipeline need:
//!
//! * [`Lit`] / [`Var`] — compact literal and variable types.
//! * [`CnfFormula`] — a clause database that can be built incrementally.
//! * [`BoolExpr`] and [`tseitin::TseitinEncoder`] — an arbitrary Boolean
//!   expression tree (with AND/OR/NOT and `at-least-k` voting operators) and
//!   its polynomial-size, equisatisfiable CNF conversion (paper Step 2).
//! * [`Solver`] — an incremental CDCL solver with a flat clause arena
//!   (offset-based [`ClauseRef`]s, in-place compaction), two-literal
//!   watches, first-UIP clause learning, VSIDS branching with phase saving,
//!   Luby restarts, learnt-clause database reduction, and **solving under
//!   assumptions** with final-core extraction (needed by the core-guided
//!   MaxSAT algorithms). One solver serves a whole sequence of calls: fresh
//!   variables and clauses may be added between them, and learnt clauses,
//!   activities and phases carry over; nothing rewrites clauses between
//!   calls. The [`SolverConfig`] fields (decay, random-decision frequency,
//!   restart interval, default phase, seed) are what the MaxSAT portfolio
//!   varies between its entries. An installed
//!   [`InterruptHook`] is polled at every restart and every 512 conflicts,
//!   so a caller can stop a call mid-search. The MaxSAT layer and the
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
//! // The same solver answers later calls: under assumptions, with a core...
//! assert_eq!(solver.solve_with_assumptions(&[Lit::negative(b)]), SolveResult::Unsat);
//! assert_eq!(solver.unsat_core(), &[Lit::negative(b)]);
//! // ...and after clauses added between calls.
//! solver.add_clause([Lit::negative(b)]);
//! assert_eq!(solver.solve(), SolveResult::Unsat);
//! assert_eq!(solver.stats().solve_calls, 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod branching;
mod clause;
mod cnf;
mod expr;
mod heap;
mod lit;
mod solver;
mod stats;
pub mod tseitin;

pub use clause::{Clause, ClauseRef};
pub use cnf::CnfFormula;
pub use expr::BoolExpr;
pub use lit::{LBool, Lit, Var};
pub use solver::{InterruptHook, Model, SolveResult, Solver, SolverConfig};
pub use stats::SolverStats;
