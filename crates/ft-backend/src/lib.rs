//! The unified analysis-backend layer.
//!
//! The paper's central claim (Barrère & Hankin, DSN 2020) is that the
//! MaxSAT formulation of the MPMCS problem outperforms the classical
//! BDD/MOCUS pipelines. Demonstrating that head-to-head requires all three
//! engines to answer the *same* queries through the *same* interface — which
//! is what this crate provides:
//!
//! * [`AnalysisBackend`] — one trait for the core fault-tree queries: the
//!   MPMCS, one budgeted enumeration entry (top-k and all-MCS are wrappers
//!   over it), the exact top-event probability and its mission-time sweep;
//! * [`MaxSatBackend`] — the paper's pipeline, wrapping the incremental
//!   [`mpmcs::MpmcsSolver`];
//! * [`BddBackend`] — the classical exact engine: minimal cut sets from a
//!   ZBDD ([`bdd_engine::ZbddAnalysis`]), probabilities by Shannon
//!   decomposition of an ROBDD;
//! * [`MocusBackend`] — the classic top-down cut-set generator, wrapping
//!   [`ft_analysis::mocus::Mocus`] plus an exact pivotal-decomposition
//!   quantification over the enumerated cut sets;
//! * [`PreprocessedBackend`] — a modular divide-and-conquer pass manager
//!   that simplifies the tree, splits it at independent modules
//!   ([`ft_analysis::modules`]), solves every module separately through the
//!   *same* backend, and composes the results — shrinking SAT encodings,
//!   BDD sizes and MOCUS expansions alike;
//! * [`choose_backend`] — the `auto` selection heuristic, picking an engine
//!   from cheap structural features ([`StructuralFeatures`]).
//!
//! Every backend canonicalises its output with the same ordering key the
//! MaxSAT enumeration uses (exact integer scaled cost, then cut set), so two
//! backends — or the same backend with preprocessing on and off — produce
//! byte-identical reports modulo timings and solver statistics. The
//! cross-backend equivalence is enforced by `tests/backend_equivalence.rs`
//! at the workspace root and by the CLI's `--cross-check` mode.
//!
//! # Quick start
//!
//! ```rust
//! use fault_tree::examples::fire_protection_system;
//! use ft_backend::{backend_for, BackendConfig, BackendKind};
//!
//! let tree = fire_protection_system();
//! let config = BackendConfig::default();
//! let (kind, backend) = backend_for(BackendKind::Bdd, &tree, &config);
//! assert_eq!(kind, BackendKind::Bdd);
//! let best = backend.mpmcs(&tree).unwrap();
//! assert_eq!(best.event_names(&tree), vec!["x1", "x2"]);
//! assert!((best.probability - 0.02).abs() < 1e-9);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod auto;
mod bdd;
mod cache;
mod control;
mod maxsat;
mod mocus;
mod preprocess;
mod solution;

use std::fmt;
use std::sync::Arc;

use bdd_engine::VariableOrdering;
use fault_tree::FaultTree;
use mpmcs::{AlgorithmChoice, MpmcsOptions};

pub use auto::{choose_backend, StructuralFeatures};
pub use bdd::BddBackend;
pub use cache::{
    config_fingerprint, sweep_fingerprint, AnalysisCache, CacheHandle, CacheStats, Cached,
    CachedBackend, QueryKind, DEFAULT_CACHE_BYTES,
};
pub use control::{Budget, CancelToken, QueryControl, StopCause};
pub use maxsat::{pull_solutions, MaxSatBackend};
pub use mocus::{exact_union_probability, reprice_sweep, MocusBackend};
pub use preprocess::{decompose, ModularDecomposition, ModulePiece, PreprocessedBackend};
pub use solution::{canonical_sort, scaled_cut_cost, BackendSolution};

/// Which analysis engine answers the queries.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum BackendKind {
    /// The paper's Weighted Partial MaxSAT pipeline (default).
    #[default]
    MaxSat,
    /// The classical exact BDD engine.
    Bdd,
    /// The classic MOCUS top-down cut-set algorithm.
    Mocus,
    /// Pick an engine from cheap structural features ([`choose_backend`]).
    Auto,
}

impl BackendKind {
    /// The stable command-line name of the backend, as accepted by
    /// [`BackendKind::parse`].
    pub fn name(&self) -> &'static str {
        match self {
            BackendKind::MaxSat => "maxsat",
            BackendKind::Bdd => "bdd",
            BackendKind::Mocus => "mocus",
            BackendKind::Auto => "auto",
        }
    }

    /// Parses a command-line backend name.
    pub fn parse(name: &str) -> Option<BackendKind> {
        match name {
            "maxsat" | "sat" => Some(BackendKind::MaxSat),
            "bdd" => Some(BackendKind::Bdd),
            "mocus" => Some(BackendKind::Mocus),
            "auto" => Some(BackendKind::Auto),
            _ => None,
        }
    }
}

impl fmt::Display for BackendKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Configuration shared by every backend construction site (CLI, batch,
/// bench harness).
#[derive(Clone, Copy, Debug)]
pub struct BackendConfig {
    /// The MaxSAT solver of [`MaxSatBackend`]'s single-MPMCS query (its
    /// enumerations always drain the OLL session of an [`mpmcs::McsStream`]).
    pub algorithm: AlgorithmChoice,
    /// The ROBDD variable ordering [`BddBackend`] quantifies under (its
    /// ZBDD cut-set route always orders events depth-first).
    pub bdd_ordering: VariableOrdering,
    /// Budget on intermediate MOCUS sets ([`MocusBackend`]).
    pub mocus_budget: usize,
    /// Budget on the minimal cut sets a [`BddBackend`] cut-set query may
    /// enumerate; the ZBDD counts the family first, so a query over budget
    /// fails before enumerating anything. (The name predates the ZBDD route,
    /// when the budget capped ROBDD paths.)
    pub bdd_path_budget: usize,
    /// Budget on the pivotal-decomposition recursion nodes the MCS-based
    /// backends (MOCUS, MaxSAT) may spend computing the exact
    /// `top_event_probability` from their cut sets; beyond it they report
    /// [`BackendError::ProbabilityUnsupported`]. (The BDD backend quantifies
    /// by Shannon decomposition of the diagram and needs no budget.)
    pub probability_budget: usize,
    /// Run the modular divide-and-conquer preprocessing pass manager
    /// ([`PreprocessedBackend`]) in front of the backend.
    pub preprocess: bool,
}

impl Default for BackendConfig {
    fn default() -> Self {
        BackendConfig {
            algorithm: AlgorithmChoice::Oll,
            bdd_ordering: VariableOrdering::DepthFirst,
            mocus_budget: 1_000_000,
            bdd_path_budget: 1_000_000,
            probability_budget: 50_000,
            preprocess: false,
        }
    }
}

/// Errors surfaced by the analysis backends.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BackendError {
    /// The tree has no cut set at all (the top event cannot occur).
    NoCutSet,
    /// A classical engine exceeded its enumeration budget.
    Budget {
        /// The backend that gave up.
        backend: &'static str,
        /// Human-readable description of the exceeded budget.
        detail: String,
    },
    /// The exact top-event probability cannot be computed by this backend
    /// within its budget (the cut-set family's pivotal decomposition outgrew
    /// the recursion budget).
    ProbabilityUnsupported {
        /// The backend that gave up.
        backend: &'static str,
        /// Number of minimal cut sets of the tree.
        cut_sets: usize,
    },
    /// An internal invariant was violated (indicates a bug).
    Internal(String),
}

impl fmt::Display for BackendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BackendError::NoCutSet => write!(f, "the fault tree has no cut set"),
            BackendError::Budget { backend, detail } => {
                write!(f, "{backend} backend exceeded its budget: {detail}")
            }
            BackendError::ProbabilityUnsupported { backend, cut_sets } => write!(
                f,
                "{backend} backend cannot compute the exact top-event probability: \
                 the pivotal decomposition of {cut_sets} minimal cut sets exceeds \
                 the quantification budget"
            ),
            BackendError::Internal(message) => write!(f, "internal backend error: {message}"),
        }
    }
}

impl std::error::Error for BackendError {}

/// An enumeration outcome under a [`QueryControl`]: the solutions reported
/// before the query completed or was stopped, plus the stop cause (if any).
///
/// Only the MaxSAT engine is *anytime* — a stopped query still reports the
/// canonical prefix it had proven. The classical engines (ZBDD compilation,
/// MOCUS expansion) and the modular composition compute the full family of
/// every piece before any solution is known, so a stopped query reports an
/// empty prefix; either way the partial result is well-labelled rather than
/// silently wrong.
#[derive(Clone, Debug)]
pub struct Enumerated {
    /// The reported solutions, in the canonical cross-backend order. A
    /// complete query reports the whole requested prefix (the full family
    /// when unlimited); a stopped MaxSAT query reports the proven prefix.
    pub solutions: Vec<BackendSolution>,
    /// `None` when the query ran to completion; otherwise why it stopped.
    pub stopped: Option<StopCause>,
}

impl Enumerated {
    /// A query that ran to completion.
    pub(crate) fn complete(solutions: Vec<BackendSolution>) -> Self {
        Enumerated {
            solutions,
            stopped: None,
        }
    }

    /// A query `cause` stopped before any solution was known.
    pub(crate) fn interrupted(cause: StopCause) -> Self {
        Enumerated {
            solutions: Vec::new(),
            stopped: Some(cause),
        }
    }

    /// `true` when the query ran to completion (the solutions are the whole
    /// requested prefix of the minimal-cut-set family).
    pub fn is_complete(&self) -> bool {
        self.stopped.is_none()
    }
}

/// One interface for the core fault-tree analysis queries, implemented by
/// all three engines and by the preprocessing and caching wrappers.
///
/// Enumeration has one required entry, [`enumerate`](AnalysisBackend::enumerate),
/// which takes a prefix length and a [`QueryControl`]; [`top_k`] and
/// [`all_mcs`] are provided wrappers running it unbounded. Implementations
/// return cut sets over the event identifiers of the tree passed to the
/// query, in the canonical order of [`canonical_sort`] (non-increasing
/// probability, refined by exact scaled cost, ties broken by cut set), and a
/// limited query answers the first entries of that order — so any two
/// backends are directly comparable at every rank. Backends are
/// `Send + Sync`: they hold configuration, not per-query state, so one
/// instance may serve concurrent queries from many threads.
///
/// [`top_k`]: AnalysisBackend::top_k
/// [`all_mcs`]: AnalysisBackend::all_mcs
pub trait AnalysisBackend: Send + Sync {
    /// The stable engine name (`"maxsat"`, `"bdd"`, `"mocus"`).
    fn name(&self) -> &'static str;

    /// The Maximum Probability Minimal Cut Set of `tree`.
    ///
    /// # Errors
    ///
    /// [`BackendError::NoCutSet`] when the top event cannot occur, or a
    /// budget error from the classical engines.
    fn mpmcs(&self, tree: &FaultTree) -> Result<BackendSolution, BackendError>;

    /// The first `limit` minimal cut sets in canonical order (every one when
    /// `limit` is `None`), under a deadline / cancellation `control` — the
    /// one enumeration entry, which the session facade's budgets flow
    /// through. Fewer are returned when the tree has fewer minimal cut sets.
    ///
    /// The MaxSAT engine pulls from a live [`mpmcs::McsStream`] with the
    /// control's probe threaded into the CDCL search and reports the proven
    /// prefix when stopped; MOCUS polls the control inside its expansion; the
    /// ZBDD checks it before compiling; the preprocessing pass hands it to
    /// every module and quotient solve.
    ///
    /// # Errors
    ///
    /// [`BackendError::NoCutSet`] when the tree has no cut set at all, or a
    /// budget error from the classical engines. A *stopped* query is not an
    /// error — it reports [`Enumerated::stopped`].
    fn enumerate(
        &self,
        tree: &FaultTree,
        limit: Option<usize>,
        control: &QueryControl,
    ) -> Result<Enumerated, BackendError>;

    /// The `k` most probable minimal cut sets, most probable first:
    /// [`enumerate`](AnalysisBackend::enumerate) with limit `k`, unbounded.
    ///
    /// # Errors
    ///
    /// The same errors as [`enumerate`](AnalysisBackend::enumerate).
    fn top_k(&self, tree: &FaultTree, k: usize) -> Result<Vec<BackendSolution>, BackendError> {
        Ok(self
            .enumerate(tree, Some(k), &QueryControl::unbounded())?
            .solutions)
    }

    /// Every minimal cut set, most probable first:
    /// [`enumerate`](AnalysisBackend::enumerate) without a limit, unbounded.
    ///
    /// # Errors
    ///
    /// The same errors as [`enumerate`](AnalysisBackend::enumerate).
    fn all_mcs(&self, tree: &FaultTree) -> Result<Vec<BackendSolution>, BackendError> {
        Ok(self
            .enumerate(tree, None, &QueryControl::unbounded())?
            .solutions)
    }

    /// The exact probability of the top event.
    ///
    /// # Errors
    ///
    /// [`BackendError::ProbabilityUnsupported`] when the engine cannot answer
    /// exactly within its budget (MCS-based engines on trees with many cut
    /// sets), or a budget error.
    fn top_event_probability(&self, tree: &FaultTree) -> Result<f64, BackendError>;

    /// The exact top-event probability at every mission time in `grid` — a
    /// *mission-time sweep*. Point `i` of the result equals
    /// [`top_event_probability`](AnalysisBackend::top_event_probability) on
    /// [`FaultTree::at_time`]`(grid[i])`, bit for bit.
    ///
    /// The default implementation is exactly that naive per-point loop.
    /// Every engine overrides it with an incremental path that solves the
    /// structure **once** and re-quantifies each timepoint in time linear in
    /// the solved representation (BDD nodes, cut-set family, or module
    /// decomposition) — mission times move only the leaf probabilities, never
    /// the structure.
    ///
    /// # Errors
    ///
    /// The same errors as
    /// [`top_event_probability`](AnalysisBackend::top_event_probability).
    ///
    /// # Panics
    ///
    /// Panics when `grid` contains a negative or non-finite mission time and
    /// the tree has time-dependent events (see
    /// [`fault_tree::FailureModel::probability_at`]).
    fn probability_sweep(&self, tree: &FaultTree, grid: &[f64]) -> Result<Vec<f64>, BackendError> {
        grid.iter()
            .map(|&t| self.top_event_probability(&tree.at_time(t)))
            .collect()
    }
}

/// Resolves [`BackendKind::Auto`] against a concrete tree; other kinds pass
/// through unchanged.
pub fn resolve_backend(kind: BackendKind, tree: &FaultTree) -> BackendKind {
    match kind {
        BackendKind::Auto => choose_backend(tree),
        concrete => concrete,
    }
}

/// Builds the backend for `kind` (resolving [`BackendKind::Auto`] against
/// `tree`), wrapping it in the modular preprocessing pass manager when
/// [`BackendConfig::preprocess`] is set. Returns the resolved kind alongside
/// the engine.
pub fn backend_for(
    kind: BackendKind,
    tree: &FaultTree,
    config: &BackendConfig,
) -> (BackendKind, Box<dyn AnalysisBackend>) {
    backend_for_cached(kind, tree, config, None)
}

/// [`backend_for`], optionally sharing a content-addressed
/// [`AnalysisCache`]: whole-tree queries go through a [`CachedBackend`]
/// wrapper, and (when preprocessing is on) the [`PreprocessedBackend`] pass
/// manager additionally consults the same cache for every module solve, so
/// repeated isomorphic modules — within one tree or across the trees of a
/// batch — are solved once.
pub fn backend_for_cached(
    kind: BackendKind,
    tree: &FaultTree,
    config: &BackendConfig,
    cache: Option<Arc<AnalysisCache>>,
) -> (BackendKind, Box<dyn AnalysisBackend>) {
    let resolved = resolve_backend(kind, tree);
    let raw: Box<dyn AnalysisBackend> = match resolved {
        BackendKind::MaxSat => Box::new(MaxSatBackend::with_options(
            MpmcsOptions {
                algorithm: config.algorithm,
                ..MpmcsOptions::new()
            },
            config.probability_budget,
        )),
        BackendKind::Bdd => Box::new(BddBackend::new(config.bdd_ordering, config.bdd_path_budget)),
        BackendKind::Mocus => Box::new(MocusBackend::new(
            config.mocus_budget,
            config.probability_budget,
        )),
        BackendKind::Auto => unreachable!("resolve_backend never returns Auto"),
    };
    let fingerprint = cache.as_ref().map(|_| config_fingerprint(resolved, config));
    let backend: Box<dyn AnalysisBackend> = if config.preprocess {
        let pass_manager = match (&cache, fingerprint) {
            (Some(cache), Some(fingerprint)) => {
                PreprocessedBackend::with_cache(raw, cache.clone(), fingerprint)
            }
            _ => PreprocessedBackend::new(raw),
        };
        Box::new(pass_manager)
    } else {
        raw
    };
    let backend = match (cache, fingerprint) {
        (Some(cache), Some(fingerprint)) => {
            Box::new(CachedBackend::new(backend, cache, fingerprint))
        }
        _ => backend,
    };
    (resolved, backend)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fault_tree::examples::fire_protection_system;

    #[test]
    fn kinds_round_trip_through_their_names() {
        for kind in [
            BackendKind::MaxSat,
            BackendKind::Bdd,
            BackendKind::Mocus,
            BackendKind::Auto,
        ] {
            assert_eq!(BackendKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(BackendKind::parse("zbdd"), None);
    }

    #[test]
    fn factory_resolves_auto_to_a_concrete_backend() {
        let tree = fire_protection_system();
        let (resolved, backend) = backend_for(BackendKind::Auto, &tree, &BackendConfig::default());
        assert_ne!(resolved, BackendKind::Auto);
        assert_eq!(backend.name(), resolved.name());
    }

    #[test]
    fn all_three_backends_agree_on_the_paper_example() {
        let tree = fire_protection_system();
        let config = BackendConfig::default();
        let mut answers = Vec::new();
        for kind in [BackendKind::MaxSat, BackendKind::Bdd, BackendKind::Mocus] {
            let (_, backend) = backend_for(kind, &tree, &config);
            let all = backend.all_mcs(&tree).expect("small tree");
            assert_eq!(all.len(), 5, "{kind}");
            let best = backend.mpmcs(&tree).expect("small tree");
            assert_eq!(best.event_names(&tree), vec!["x1", "x2"], "{kind}");
            assert!((best.probability - 0.02).abs() < 1e-9, "{kind}");
            let p = backend.top_event_probability(&tree).expect("small tree");
            answers.push((all.iter().map(|s| s.cut_set.clone()).collect::<Vec<_>>(), p));
        }
        // The three engines return the same ordered cut-set lists and agree
        // on the exact top-event probability.
        assert_eq!(answers[0].0, answers[1].0);
        assert_eq!(answers[0].0, answers[2].0);
        assert!((answers[0].1 - answers[1].1).abs() < 1e-12);
        assert!((answers[0].1 - answers[2].1).abs() < 1e-12);
    }
}
