//! Fault tree modelling and structural analysis.
//!
//! This crate provides the fault-tree substrate of the MPMCS4FTA-rs
//! workspace: the static fault-tree model used throughout the paper
//! *"Fault Tree Analysis: Identifying Maximum Probability Minimal Cut Sets
//! with MaxSAT"* (Barrère & Hankin, DSN 2020).
//!
//! A [`FaultTree`] is a DAG of [`Gate`]s (AND, OR, and `k`-out-of-`n` voting
//! gates) over [`BasicEvent`]s, each carrying a [`Probability`] of occurrence.
//! The crate offers:
//!
//! * a validating [`FaultTreeBuilder`],
//! * conversion to a Boolean [`StructureFormula`] (via [`StructureFormula::of`])
//!   and to the complemented *success tree* (paper Step 1) — the semantic
//!   reference of the `mpmcs` encoder, which walks the gates straight to
//!   clauses,
//! * [`CutSet`] types with joint-probability computation and minimality
//!   checks,
//! * structural analysis (single points of failure, depth, statistics),
//! * parsers and writers for the Galileo textual format and a JSON format
//!   mirroring the original MPMCS4FTA tool (both resolve names borrowed from
//!   their input through one map; a tree builds its own name index only on
//!   the first [`FaultTree::event_by_name`] or [`FaultTree::gate_by_name`]),
//! * the worked examples of the paper (the cyber-physical fire protection
//!   system of Fig. 1) under [`examples`].
//!
//! # Example
//!
//! ```rust
//! use fault_tree::{FaultTreeBuilder, GateKind, CutSet};
//!
//! # fn main() -> Result<(), fault_tree::FaultTreeError> {
//! let mut builder = FaultTreeBuilder::new("pump system");
//! let valve = builder.basic_event("valve stuck", 0.01)?;
//! let pump_a = builder.basic_event("pump A fails", 0.1)?;
//! let pump_b = builder.basic_event("pump B fails", 0.2)?;
//! let pumps = builder.gate("both pumps fail", GateKind::And, [pump_a.into(), pump_b.into()])?;
//! let top = builder.gate("no water flow", GateKind::Or, [valve.into(), pumps.into()])?;
//! let tree = builder.build(top.into())?;
//!
//! assert_eq!(tree.num_events(), 3);
//! let cut = CutSet::from_iter([pump_a, pump_b]);
//! assert!(tree.is_cut_set(&cut));
//! assert!(tree.is_minimal_cut_set(&cut));
//! assert!((cut.probability(&tree) - 0.02).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod analysis;
mod cutset;
mod error;
mod event;
pub mod examples;
pub mod export;
mod formula;
mod gate;
pub mod hash;
pub mod parser;
mod probability;
pub mod transform;
mod tree;

pub use analysis::{StructuralAnalysis, TreeStats};
pub use cutset::CutSet;
pub use error::FaultTreeError;
pub use event::{BasicEvent, EventId, FailureModel, DEFAULT_MISSION_TIME};
pub use formula::StructureFormula;
pub use gate::{Gate, GateId, GateKind};
pub use hash::{canonical_form, tree_hash, CanonicalForm, TreeHash};
pub use probability::{LogWeight, Probability};
pub use tree::{FaultTree, FaultTreeBuilder, NodeId};
