//! Parallel batch analysis: the full MPMCS pipeline over *fleets* of fault
//! trees.
//!
//! The rest of the workspace analyses one fault tree per call. Operational
//! use — sweeping a directory of models after a design change, regenerating a
//! risk dashboard, benchmarking a solver build — analyses hundreds. This
//! crate closes that gap with a dependency-free batch engine:
//!
//! * a [`BatchManifest`] describes *what* to analyse: every model file under
//!   a directory ([`BatchManifest::from_dir`]), an explicit JSON manifest
//!   listing files and generated workloads
//!   ([`BatchManifest::from_manifest_file`]), or purely synthetic families
//!   from [`ft_generators`] ([`BatchManifest::generated`]);
//! * [`run_batch`] fans the jobs out over a sharded [`std::thread`] worker
//!   pool and runs the paper's six-step pipeline (plus optional top-`k`
//!   enumeration and importance measures) on each tree;
//! * the aggregated [`BatchReport`] is **deterministic**: per-tree results
//!   appear in manifest order regardless of worker completion order, and with
//!   the default (deterministic OLL) algorithm the same batch produces the
//!   same report for any worker count — timing fields excepted, which
//!   [`redact_timings`] normalises away for byte-level comparisons.
//!
//! # Example
//!
//! ```rust
//! use ft_batch::{run_batch, BatchConfig, BatchManifest};
//! use ft_generators::Family;
//!
//! // Three seeded ~60-node random trees, analysed by two worker threads.
//! let manifest = BatchManifest::generated(Family::RandomMixed, 60, 3, 7);
//! let config = BatchConfig {
//!     jobs: 2,
//!     top_k: 2,
//!     ..BatchConfig::default()
//! };
//! let report = run_batch(&manifest, &config);
//! assert_eq!(report.summary.trees, 3);
//! assert_eq!(report.summary.failed, 0);
//! // Results follow manifest order, not completion order.
//! assert!(report.results[0].name.contains("seed7"));
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod engine;
mod manifest;
mod report;

pub use engine::{run_batch, BatchConfig};
pub use manifest::{BatchError, BatchJob, BatchManifest, TreeFormat, TreeSource};
pub use report::{
    redact_search_counters, redact_solver_stats, redact_timings, BatchReport, BatchSummary,
    CacheSummary, ImportanceRow, SweepCurve, TreeReport,
};
