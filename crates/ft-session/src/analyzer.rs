//! The session-oriented [`Analyzer`] facade.

use std::sync::Arc;

use bdd_engine::VariableOrdering;
use fault_tree::{CutSet, FaultTree};
use ft_backend::{
    backend_for_cached, config_fingerprint, exact_union_probability, pull_solutions,
    AnalysisBackend, AnalysisCache, BackendConfig, BackendKind, BackendSolution, Budget,
    CacheHandle, Cached, CancelToken, QueryControl, QueryKind,
};
use mpmcs::{AlgorithmChoice, BranchingChoice, McsStream, MpmcsOptions};

use crate::results::{
    ImportanceReport, ImportanceRow, SessionError, SolutionSet, SweepReport, Termination,
};
use crate::stream::{capped_termination, SolutionStream};

/// The warm per-analyzer solver state of the incremental MaxSAT engine: one
/// live enumeration session plus the canonical solution prefix it has proven
/// so far. Queries extend the prefix lazily — `top_k(5)` after `top_k(3)`
/// solves two more optima, not eight.
#[derive(Debug, Default)]
pub(crate) struct WarmState {
    stream: Option<McsStream>,
    cache: Vec<BackendSolution>,
    exhausted: bool,
    no_cut_set: bool,
}

/// The session-oriented entry point for fault-tree analysis.
///
/// An `Analyzer` owns the parsed tree and the warm incremental solver state,
/// and answers the core queries through one typed, budget-aware interface —
/// replacing the assemble-it-yourself `FaultTree` → [`BackendConfig`] →
/// [`ft_backend::backend_for`] → per-query wiring:
///
/// ```rust
/// use fault_tree::examples::fire_protection_system;
/// use ft_session::{Analyzer, BackendKind, Budget};
///
/// let mut analyzer = Analyzer::for_tree(fire_protection_system())
///     .backend(BackendKind::MaxSat)
///     .budget(Budget::wall_ms(5_000).max_solutions(64));
/// let best = analyzer.mpmcs().unwrap();
/// assert!((best.probability - 0.02).abs() < 1e-9); // the paper's answer
/// let top = analyzer.top_k(3).unwrap(); // reuses the warm session
/// assert_eq!(top.solutions.len(), 3);
/// assert!(!top.is_truncated());
/// ```
///
/// # Query semantics
///
/// All enumeration queries answer in the **canonical enumeration order**
/// (exact integer scaled cost, then cut set): `top_k(k)` is always the first
/// `k` entries of the full `all_mcs()` sequence, and a streamed prefix of
/// length `n` equals the first `n` entries of the collected answer. Budgets
/// ([`Budget`]) and cancellation ([`CancelToken`]) stop queries cleanly with
/// partial, well-labelled results ([`SolutionSet::termination`]) — the
/// already-delivered prefix is always exactly what an unbudgeted run would
/// have delivered first.
///
/// # Engine modes
///
/// With the (default) MaxSAT backend and no modular preprocessing, queries
/// run through a **warm incremental session**: the tree is encoded once, the
/// CDCL state persists across queries, and every query extends the proven
/// prefix instead of starting over. Classical backends (BDD, MOCUS) and the
/// modular preprocessing pass delegate to the corresponding
/// [`AnalysisBackend`] per query: one [`AnalysisBackend::enumerate`] call per
/// enumeration query, bounded by the requested prefix and the query's
/// budget. Every MaxSAT enumeration — warm or delegated — drains an
/// [`McsStream`], so the algorithm choice only selects the solver of a
/// single-MPMCS query: an explicit [`AlgorithmChoice::LinearSu`] request
/// sends [`mpmcs`](Analyzer::mpmcs) to the engine, while its enumerations,
/// streams and quantifications stay on the warm session.
pub struct Analyzer {
    tree: Arc<FaultTree>,
    requested: BackendKind,
    config: BackendConfig,
    budget: Budget,
    cancel: CancelToken,
    /// The shared content-addressed analysis cache, when attached.
    cache: Option<Arc<AnalysisCache>>,
    /// The resolved kind and engine, built lazily on the first query so a
    /// chain of builder setters never constructs throw-away backends.
    engine: Option<(BackendKind, Box<dyn AnalysisBackend>)>,
    warm: WarmState,
}

impl std::fmt::Debug for Analyzer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Analyzer")
            .field("tree", &self.tree.name())
            .field("backend", &self.resolved_backend())
            .field("preprocess", &self.config.preprocess)
            .field("budget", &self.budget)
            .field("warm_prefix", &self.warm.cache.len())
            .finish()
    }
}

impl Analyzer {
    /// Creates an analyzer owning `tree`, with the default configuration
    /// (MaxSAT backend, no preprocessing, unlimited budget).
    pub fn for_tree(tree: FaultTree) -> Analyzer {
        Analyzer::for_shared(Arc::new(tree))
    }

    /// Creates an analyzer over a shared tree handle — the form the
    /// [`AnalysisService`](crate::AnalysisService) uses to share one parsed
    /// tree across many per-thread analyzers.
    pub fn for_shared(tree: Arc<FaultTree>) -> Analyzer {
        Analyzer {
            tree,
            requested: BackendKind::default(),
            config: BackendConfig::default(),
            budget: Budget::unlimited(),
            cancel: CancelToken::new(),
            cache: None,
            engine: None,
            warm: WarmState::default(),
        }
    }

    /// Selects the analysis engine ([`BackendKind::Auto`] resolves against
    /// the tree's structural features on the first query). Resets the warm
    /// state.
    pub fn backend(mut self, kind: BackendKind) -> Self {
        self.requested = kind;
        self.reset();
        self
    }

    /// Enables (or disables) the modular divide-and-conquer preprocessing
    /// pass in front of the engine. Resets the warm state.
    pub fn preprocess(mut self, enabled: bool) -> Self {
        self.config.preprocess = enabled;
        self.reset();
        self
    }

    /// Selects the MaxSAT solver of single-MPMCS queries: an explicit
    /// [`AlgorithmChoice::LinearSu`] request runs [`mpmcs`](Analyzer::mpmcs)
    /// through the linear solver, and the other choices answer it from the
    /// warm session (or the delegated engine). Every enumeration drains the
    /// deterministic core-guided session whatever the choice. Resets the
    /// warm state.
    pub fn algorithm(mut self, algorithm: AlgorithmChoice) -> Self {
        self.config.algorithm = algorithm;
        self.reset();
        self
    }

    /// Selects the SAT decision heuristic used by the MaxSAT backend's
    /// solvers (default [`BranchingChoice::Vsids`]). Resets the warm state.
    pub fn branching(mut self, branching: BranchingChoice) -> Self {
        self.config.branching = branching;
        self.reset();
        self
    }

    /// Selects the ROBDD variable ordering (the BDD backend's exact
    /// probabilities and the importance table's). Resets the warm state.
    pub fn bdd_ordering(mut self, ordering: VariableOrdering) -> Self {
        self.config.bdd_ordering = ordering;
        self.reset();
        self
    }

    /// Sets the per-query [`Budget`]. The wall clock is armed at every query
    /// start; the solution cap applies to each enumeration query's answer.
    pub fn budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }

    /// Attaches a [`CancelToken`]: cancelling it (from any thread) stops the
    /// analyzer's in-flight and future queries cleanly.
    pub fn cancel_token(mut self, token: CancelToken) -> Self {
        self.cancel = token;
        self
    }

    /// Attaches a shared content-addressed [`AnalysisCache`]: complete query
    /// answers are deposited under the tree's canonical weighted hash and
    /// replayed — bit-identically — for any isomorphic tree queried under
    /// the same configuration, by this analyzer or any other holding the
    /// same cache. Budget-truncated answers are never cached. Resets the
    /// warm state.
    pub fn cache(mut self, cache: Arc<AnalysisCache>) -> Self {
        self.cache = Some(cache);
        self.reset();
        self
    }

    /// The shared analysis cache, when one is attached.
    pub fn shared_cache(&self) -> Option<&Arc<AnalysisCache>> {
        self.cache.as_ref()
    }

    fn reset(&mut self) {
        self.engine = None;
        self.warm = WarmState::default();
    }

    /// Builds (or reuses) the resolved engine. Queries go through this so
    /// builder chains pay for exactly one backend construction.
    fn ensure_engine(&mut self) -> &dyn AnalysisBackend {
        if self.engine.is_none() {
            self.engine = Some(backend_for_cached(
                self.requested,
                &self.tree,
                &self.config,
                self.cache.clone(),
            ));
        }
        &*self.engine.as_ref().expect("just ensured").1
    }

    /// The analysed tree.
    pub fn tree(&self) -> &FaultTree {
        &self.tree
    }

    /// The shared handle to the analysed tree.
    pub fn shared_tree(&self) -> Arc<FaultTree> {
        Arc::clone(&self.tree)
    }

    /// The resolved engine answering this analyzer's queries
    /// ([`BackendKind::Auto`] resolves against the tree's structural
    /// features).
    pub fn resolved_backend(&self) -> BackendKind {
        match &self.engine {
            Some((resolved, _)) => *resolved,
            None => ft_backend::resolve_backend(self.requested, &self.tree),
        }
    }

    /// The per-query budget in effect.
    pub fn query_budget(&self) -> Budget {
        self.budget
    }

    /// `true` when queries run through the warm incremental MaxSAT session
    /// (see the type-level docs for the exact conditions).
    pub fn uses_warm_session(&self) -> bool {
        self.resolved_backend() == BackendKind::MaxSat && !self.config.preprocess
    }

    /// The canonical solution prefix proven by the warm session so far
    /// (empty for delegated engines) — exposed for warm-reuse assertions.
    pub fn warm_prefix_len(&self) -> usize {
        self.warm.cache.len()
    }

    pub(crate) fn mpmcs_options(&self) -> MpmcsOptions {
        MpmcsOptions {
            algorithm: self.config.algorithm,
            branching: self.config.branching,
            ..MpmcsOptions::new()
        }
    }

    /// A transient engine for consumers that only hold `&self` (the lazy
    /// stream); queries on `&mut self` use the cached [`ensure_engine`]
    /// instead.
    ///
    /// [`ensure_engine`]: Analyzer::ensure_engine
    pub(crate) fn build_backend(&self) -> Box<dyn AnalysisBackend> {
        backend_for_cached(self.requested, &self.tree, &self.config, self.cache.clone()).1
    }

    /// The cache handle the warm MaxSAT session consults (the delegated
    /// engines consult the cache inside [`backend_for_cached`] instead).
    fn warm_cache_handle(&self) -> Option<CacheHandle> {
        let cache = self.cache.as_ref()?;
        Some(CacheHandle::new(
            Arc::clone(cache),
            config_fingerprint(BackendKind::MaxSat, &self.config),
        ))
    }

    pub(crate) fn control(&self) -> QueryControl {
        QueryControl::begin(&self.budget, &self.cancel)
    }

    /// Extends the warm canonical prefix to `target` solutions (or to
    /// exhaustion when `None`), stopping early when `control` fires. Returns
    /// the stop cause that ended the extension, if any.
    fn extend_prefix(
        &mut self,
        target: Option<usize>,
        control: &QueryControl,
    ) -> Result<Option<Termination>, SessionError> {
        debug_assert!(self.uses_warm_session());
        if self.warm.no_cut_set {
            return Err(SessionError::NoCutSet);
        }
        // Already satisfied: never open (or touch) the live session.
        if self.warm.exhausted || target.is_some_and(|t| self.warm.cache.len() >= t) {
            return Ok(None);
        }
        let handle = self.warm_cache_handle();
        // A shared-cache hit replaces the whole live enumeration: the cached
        // family is complete, so the warm state jumps straight to exhausted.
        if let Some(handle) = &handle {
            if self.warm.stream.is_none() && self.warm.cache.is_empty() {
                match handle.lookup_solutions(&self.tree, QueryKind::AllMcs) {
                    Cached::Hit(solutions) => {
                        self.warm.cache = solutions;
                        self.warm.exhausted = true;
                        return Ok(None);
                    }
                    Cached::NoCutSet => {
                        self.warm.no_cut_set = true;
                        self.warm.exhausted = true;
                        return Err(SessionError::NoCutSet);
                    }
                    Cached::Miss => {}
                }
            }
        }
        let options = self.mpmcs_options();
        let stream = self
            .warm
            .stream
            .get_or_insert_with(|| McsStream::open(Arc::clone(&self.tree), options));
        let stopped = match pull_solutions(stream, &mut self.warm.cache, target, control) {
            Ok(stopped) => stopped.map(Termination::from),
            Err(mpmcs::MpmcsError::NoCutSet) => {
                self.warm.no_cut_set = true;
                self.warm.exhausted = true;
                if let Some(handle) = &handle {
                    handle.store_no_cut_set(&self.tree, QueryKind::AllMcs);
                }
                return Err(SessionError::NoCutSet);
            }
            Err(other) => return Err(other.into()),
        };
        // The stream is exhausted when the pull drained it, or when the call
        // that closed the last delivered group found the hard clauses
        // unsatisfiable. A group closed by a core proves nothing either way;
        // `warm_continuation` settles that case where an answer depends on
        // it.
        if stream.is_exhausted() {
            self.warm.exhausted = true;
            // Deposit the family once the enumeration is exhausted — and
            // only then: a budget-truncated prefix must never poison the
            // cache.
            if stopped.is_none() {
                self.deposit_family();
            }
        }
        Ok(stopped)
    }

    /// Deposits the exhausted warm family in the shared cache, if any.
    fn deposit_family(&self) {
        if let Some(handle) = self.warm_cache_handle() {
            handle.store_solutions(&self.tree, QueryKind::AllMcs, &self.warm.cache);
        }
    }

    /// Whether the warm family continues past the delivered prefix, as the
    /// label a binding cap gives the answer: `SolutionCap` when another
    /// minimal cut set exists, `Complete` when the prefix is the whole
    /// family, the stop cause when `control` fires first. The warm stream
    /// decides with at most one more optimum; a proven exhaustion is
    /// recorded, and the family deposited, as after an exhausting pull.
    fn warm_continuation(&mut self, control: &QueryControl) -> Result<Termination, SessionError> {
        let Some(stream) = self.warm.stream.as_mut() else {
            // Nothing was pulled (a zero target): the family continues.
            return Ok(Termination::SolutionCap);
        };
        let termination = capped_termination(stream, control)?;
        if stream.is_exhausted() {
            self.warm.exhausted = true;
            self.deposit_family();
        }
        Ok(termination)
    }

    /// The Maximum Probability Minimal Cut Set — deterministically the
    /// *canonical* optimum (smallest cut set among equal-probability ties)
    /// on the warm session; an explicit [`AlgorithmChoice::LinearSu`]
    /// request and the delegated engines may return any tied optimum.
    ///
    /// # Errors
    ///
    /// [`SessionError::NoCutSet`] when the top event cannot occur;
    /// [`SessionError::Stopped`] when the budget or cancellation fired
    /// before the optimum was proven; engine errors otherwise.
    pub fn mpmcs(&mut self) -> Result<BackendSolution, SessionError> {
        let control = self.control();
        if self.uses_warm_session() && self.config.algorithm != AlgorithmChoice::LinearSu {
            // A fresh analyzer consults the shared cache before paying for
            // the encoding; a proven optimum is a complete, cacheable answer.
            if self.warm.cache.is_empty() && !self.warm.no_cut_set {
                if let Some(handle) = self.warm_cache_handle() {
                    match handle.lookup_best(&self.tree) {
                        Cached::Hit(best) => return Ok(best),
                        Cached::NoCutSet => return Err(SessionError::NoCutSet),
                        Cached::Miss => {}
                    }
                }
            }
            let stopped = self.extend_prefix(Some(1), &control)?;
            match self.warm.cache.first() {
                Some(best) => {
                    if let Some(handle) = self.warm_cache_handle() {
                        handle.store_best(&self.tree, best);
                    }
                    Ok(best.clone())
                }
                None => Err(stopped_error(stopped, &control)),
            }
        } else {
            if let Some(cause) = control.stop_cause() {
                return Err(SessionError::Stopped(cause.into()));
            }
            let tree = Arc::clone(&self.tree);
            Ok(self.ensure_engine().mpmcs(&tree)?)
        }
    }

    /// The `k` most probable minimal cut sets — always the first `k` entries
    /// of the canonical full enumeration.
    ///
    /// # Errors
    ///
    /// [`SessionError::NoCutSet`] when the tree has no cut set at all;
    /// engine errors otherwise. A budget-stopped query is **not** an error:
    /// it reports its partial prefix with a truncated
    /// [`termination`](SolutionSet::termination).
    pub fn top_k(&mut self, k: usize) -> Result<SolutionSet, SessionError> {
        self.enumerate(Some(k))
    }

    /// Every minimal cut set, most probable first (canonical order).
    ///
    /// # Errors
    ///
    /// Same contract as [`Analyzer::top_k`].
    pub fn all_mcs(&mut self) -> Result<SolutionSet, SessionError> {
        self.enumerate(None)
    }

    fn enumerate(&mut self, k: Option<usize>) -> Result<SolutionSet, SessionError> {
        let control = self.control();
        let cap = self.budget.max_solutions_limit();
        // Whether the solution cap — rather than the request itself — is the
        // binding bound on the answer; only then can `SolutionCap` apply.
        let cap_constrains = match (k, cap) {
            (Some(k), Some(cap)) => cap < k,
            (None, Some(_)) => true,
            _ => false,
        };
        let target = match (k, cap) {
            (Some(k), Some(cap)) => Some(k.min(cap)),
            (Some(k), None) => Some(k),
            (None, cap) => cap,
        };
        if self.uses_warm_session() {
            // A fresh session consults the shared cache for a complete
            // top-`target` prefix before paying for the encoding. The hit
            // bypasses the warm state entirely (restoring a prefix without
            // its live solver session could not be extended later), so a
            // subsequent larger query enumerates normally from scratch.
            if self.warm.stream.is_none()
                && self.warm.cache.is_empty()
                && !self.warm.no_cut_set
                && !self.warm.exhausted
            {
                if let (Some(t), Some(handle)) = (target, self.warm_cache_handle()) {
                    match handle.lookup_solutions(&self.tree, QueryKind::TopK(t)) {
                        Cached::Hit(solutions) => {
                            // Deposits under `TopK` only happen while the
                            // enumeration was provably not exhausted, so the
                            // cache-off labels are reproduced exactly.
                            let termination = if cap_constrains {
                                Termination::SolutionCap
                            } else {
                                Termination::Complete
                            };
                            return Ok(SolutionSet {
                                solutions,
                                termination,
                            });
                        }
                        Cached::NoCutSet => {
                            self.warm.no_cut_set = true;
                            self.warm.exhausted = true;
                            return Err(SessionError::NoCutSet);
                        }
                        Cached::Miss => {}
                    }
                }
            }
            let stopped = self.extend_prefix(target, &control)?;
            let len = self.warm.cache.len();
            let delivered = target.map_or(len, |t| t.min(len));
            let solutions = self.warm.cache[..delivered].to_vec();
            if let Some(termination) = stopped {
                return Ok(SolutionSet {
                    solutions,
                    termination,
                });
            }
            // Whether the family continues past the answer (`SolutionCap`)
            // or ends with it (`Complete`), settled only where it matters: a
            // binding cap labels the answer by it, and a shared cache takes
            // a top-`target` prefix only from a continuing family, because a
            // capped hit replays the entry as `SolutionCap`. (A cache-restored
            // or previously exhausted family can outgrow a binding cap.)
            let beyond = if len > delivered {
                Termination::SolutionCap
            } else if self.warm.exhausted {
                Termination::Complete
            } else if cap_constrains || self.cache.is_some() {
                self.warm_continuation(&control)?
            } else {
                Termination::Complete
            };
            // The prefix is the complete answer to that top-`target` query,
            // cacheable although the family enumeration is still open.
            // (Exhausted families are deposited under `AllMcs` instead.)
            if beyond == Termination::SolutionCap && !self.warm.exhausted {
                if let (Some(t), Some(handle)) = (target, self.warm_cache_handle()) {
                    handle.store_solutions(&self.tree, QueryKind::TopK(t), &self.warm.cache[..t]);
                }
            }
            // A satisfied `top_k(k)` request is complete by definition.
            let termination = if cap_constrains {
                beyond
            } else {
                Termination::Complete
            };
            Ok(SolutionSet {
                solutions,
                termination,
            })
        } else {
            // One engine call: when the cap binds, probe one solution deeper
            // so a cap that exactly matches the family size is labelled
            // `Complete`, not conservatively truncated.
            let request = target.map(|t| {
                if cap_constrains {
                    t.saturating_add(1)
                } else {
                    t
                }
            });
            let tree = Arc::clone(&self.tree);
            let enumerated = self.ensure_engine().enumerate(&tree, request, &control)?;
            let mut solutions = enumerated.solutions;
            let capped = cap_constrains && target.is_some_and(|t| solutions.len() > t);
            if let Some(t) = target {
                solutions.truncate(t);
            }
            let termination = match enumerated.stopped {
                Some(cause) => Termination::from(cause),
                None if capped => Termination::SolutionCap,
                None => Termination::Complete,
            };
            Ok(SolutionSet {
                solutions,
                termination,
            })
        }
    }

    /// The exact probability of the top event.
    ///
    /// With the warm MaxSAT session this quantifies the *cached* cut-set
    /// family (extending it to exhaustion first), so repeated probability
    /// queries — or a probability query after `all_mcs()` — never re-run the
    /// enumeration.
    ///
    /// # Errors
    ///
    /// [`SessionError::Stopped`] when the budget fired before the family was
    /// fully enumerated, and the engines' budget errors.
    pub fn probability(&mut self) -> Result<f64, SessionError> {
        let control = self.control();
        if self.uses_warm_session() {
            let handle = self.warm_cache_handle();
            if let Some(handle) = &handle {
                match handle.lookup_probability(&self.tree) {
                    Cached::Hit(probability) => return Ok(probability),
                    Cached::NoCutSet => return Ok(0.0),
                    Cached::Miss => {}
                }
            }
            match self.extend_prefix(None, &control) {
                Ok(None) => {}
                Ok(Some(termination)) => {
                    return Err(stopped_error(Some(termination), &control));
                }
                // The MaxSAT engine's convention: no cut set means the top
                // event cannot occur, so its probability is exactly zero.
                Err(SessionError::NoCutSet) => {
                    if let Some(handle) = &handle {
                        handle.store_probability(&self.tree, 0.0);
                    }
                    return Ok(0.0);
                }
                Err(other) => return Err(other),
            }
            let cut_sets: Vec<CutSet> = self.warm.cache.iter().map(|s| s.cut_set.clone()).collect();
            let probability = exact_union_probability(
                &self.tree,
                &cut_sets,
                self.config.probability_budget,
                "maxsat",
            )?;
            if let Some(handle) = &handle {
                handle.store_probability(&self.tree, probability);
            }
            Ok(probability)
        } else {
            if let Some(cause) = control.stop_cause() {
                return Err(SessionError::Stopped(cause.into()));
            }
            let tree = Arc::clone(&self.tree);
            Ok(self.ensure_engine().top_event_probability(&tree)?)
        }
    }

    /// The exact top-event probability curve over a mission-time grid — the
    /// incremental sweep query.
    ///
    /// The structural solve runs **once** for the whole grid: the warm MaxSAT
    /// session enumerates the minimal-cut-set family a single time and every
    /// timepoint re-prices it under the probabilities at `t` (the family
    /// depends on the structure alone); the delegated engines go through
    /// their own [`AnalysisBackend::probability_sweep`] overrides (the BDD
    /// backend re-quantifies its compiled diagram, the preprocessing pass
    /// recomposes per-module curves). Each point is bit-identical to the
    /// corresponding point [`Analyzer::probability`] query against
    /// [`FaultTree::at_time`]`(t)`.
    ///
    /// With a shared [`AnalysisCache`] attached, complete curves are
    /// deposited under the tree's *structure* hash plus a grid/time-law
    /// fingerprint and replayed bit-identically for isomorphic trees.
    ///
    /// # Errors
    ///
    /// [`SessionError::Stopped`] when the budget or cancellation fired
    /// before the structural solve finished, and the engines' budget errors.
    /// A tree with no cut set yields the all-zero curve, mirroring
    /// [`Analyzer::probability`].
    pub fn sweep(&mut self, grid: &[f64]) -> Result<SweepReport, SessionError> {
        let control = self.control();
        let report = |probabilities: Vec<f64>| SweepReport {
            grid: grid.to_vec(),
            probabilities,
        };
        if self.uses_warm_session() {
            let handle = self.warm_cache_handle();
            if let Some(handle) = &handle {
                match handle.lookup_curve(&self.tree, grid) {
                    Cached::Hit(probabilities) => return Ok(report(probabilities)),
                    Cached::NoCutSet => return Ok(report(vec![0.0; grid.len()])),
                    Cached::Miss => {}
                }
            }
            match self.extend_prefix(None, &control) {
                Ok(None) => {}
                Ok(Some(termination)) => {
                    return Err(stopped_error(Some(termination), &control));
                }
                // No cut set: the top event cannot occur at any time.
                Err(SessionError::NoCutSet) => {
                    let probabilities = vec![0.0; grid.len()];
                    if let Some(handle) = &handle {
                        handle.store_curve(&self.tree, grid, &probabilities);
                    }
                    return Ok(report(probabilities));
                }
                Err(other) => return Err(other),
            }
            let family: Vec<CutSet> = self.warm.cache.iter().map(|s| s.cut_set.clone()).collect();
            let probabilities = ft_backend::reprice_sweep(
                &self.tree,
                &family,
                grid,
                self.config.probability_budget,
                "maxsat",
                true,
            )?;
            if let Some(handle) = &handle {
                handle.store_curve(&self.tree, grid, &probabilities);
            }
            Ok(report(probabilities))
        } else {
            if let Some(cause) = control.stop_cause() {
                return Err(SessionError::Stopped(cause.into()));
            }
            let tree = Arc::clone(&self.tree);
            Ok(report(self.ensure_engine().probability_sweep(&tree, grid)?))
        }
    }

    /// The per-event importance table (Birnbaum, Fussell-Vesely, RAW, RRW,
    /// criticality, structural), computed from the full minimal-cut-set
    /// family and the exact BDD probability.
    ///
    /// The ROBDD is compiled once, under the configured variable ordering,
    /// and [`ImportanceTable::repriced`] requantifies that one diagram
    /// `4n + 1` times under per-event prices; no conditioned tree is built.
    /// This is bit-identical to [`ImportanceTable::compute`], the reference
    /// that compiles each conditioned tree afresh (both orderings depend on
    /// the structure alone).
    ///
    /// [`ImportanceTable::repriced`]: ft_analysis::importance::ImportanceTable::repriced
    /// [`ImportanceTable::compute`]: ft_analysis::importance::ImportanceTable::compute
    ///
    /// # Errors
    ///
    /// Same contract as [`Analyzer::all_mcs`] for the enumeration part;
    /// budget-stopped enumerations surface as [`SessionError::Stopped`]
    /// (an importance table over a partial family would be silently wrong).
    pub fn importance(&mut self) -> Result<ImportanceReport, SessionError> {
        let family = self.all_mcs()?;
        if family.is_truncated() {
            return Err(SessionError::Stopped(family.termination));
        }
        let cut_sets: Vec<CutSet> = family
            .solutions
            .into_iter()
            .map(|solution| solution.cut_set)
            .collect();
        let compiled = bdd_engine::compile_fault_tree(&self.tree, self.config.bdd_ordering);
        let mut requantifier = compiled.requantifier();
        let table =
            ft_analysis::importance::ImportanceTable::repriced(&self.tree, &cut_sets, |prices| {
                requantifier.probability_with(|event| prices[event.index()])
            });
        Ok(importance_report(&self.tree, &table))
    }

    /// Opens a lazy [`SolutionStream`]: minimal cut sets are pulled one at a
    /// time from a live CDCL session (bounded memory, early exit), in the
    /// same canonical order the collected queries answer in. The analyzer's
    /// budget and cancel token govern the stream; the analyzer's own warm
    /// state is untouched, so streams and collected queries compose freely.
    pub fn stream(&self) -> SolutionStream {
        SolutionStream::open(self)
    }
}

/// Materialises a computed importance table into the facade's typed report
/// (one row per basic event, in event-identifier order).
fn importance_report(
    tree: &FaultTree,
    table: &ft_analysis::importance::ImportanceTable,
) -> ImportanceReport {
    let rows = tree
        .event_ids()
        .map(|event| {
            let i = event.index();
            ImportanceRow {
                event: tree.event(event).name().to_string(),
                birnbaum: table.birnbaum[i],
                fussell_vesely: table.fussell_vesely[i],
                raw: table.raw[i],
                rrw: table.rrw[i],
                criticality: table.criticality[i],
                structural: table.structural[i],
            }
        })
        .collect();
    ImportanceReport { rows }
}

/// Maps a stopped-before-first-answer extension into the facade error.
fn stopped_error(stopped: Option<Termination>, control: &QueryControl) -> SessionError {
    SessionError::Stopped(stopped.unwrap_or_else(|| {
        control
            .stop_cause()
            .map_or(Termination::Cancelled, Termination::from)
    }))
}
