//! Reduced Ordered Binary Decision Diagrams (ROBDDs) for fault tree analysis.
//!
//! BDDs are the classical exact representation used by state-of-the-art FTA
//! tools; the paper lists a BDD-based treatment of the MPMCS problem as
//! future work and as the natural comparison baseline. This crate provides:
//!
//! * a from-scratch ROBDD package ([`Bdd`]) with hash-consed nodes, memoised
//!   `AND`/`OR`/`NOT`/`ITE`, and `at-least-k` construction;
//! * compilation of a [`fault_tree::FaultTree`] into a BDD
//!   ([`compile_fault_tree`]) under configurable variable orderings;
//! * exact top-event probability by Shannon decomposition
//!   ([`Bdd::probability`]), and cheap requantification of one compiled
//!   diagram under new event probabilities ([`CompiledTree::requantifier`]);
//! * bottom-up compilation of the minimal cut sets into a zero-suppressed
//!   BDD (ZBDD), with counting, enumeration and a linear-time MPMCS
//!   extraction ([`ZbddAnalysis`]).
//!
//! # Example
//!
//! ```rust
//! use bdd_engine::{compile_fault_tree, VariableOrdering};
//! use fault_tree::examples::fire_protection_system;
//!
//! let tree = fire_protection_system();
//! let compiled = compile_fault_tree(&tree, VariableOrdering::DepthFirst);
//! // Exact top-event probability of the FPS example.
//! let p = compiled.top_event_probability(&tree);
//! assert!(p > 0.02 && p < 0.1);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod analysis;
mod bdd;
mod compile;
mod zbdd;

pub use analysis::ZbddAnalysis;
pub use bdd::{Bdd, BddRef, ProbabilityScratch};
pub use compile::{compile_fault_tree, CompiledTree, Requantifier, VariableOrdering};
