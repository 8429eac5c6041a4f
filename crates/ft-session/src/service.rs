//! The thread-safe [`AnalysisService`] for concurrent query serving.

use std::collections::HashMap;
use std::sync::{Arc, RwLock};

use bdd_engine::VariableOrdering;
use fault_tree::FaultTree;
use ft_backend::{AnalysisCache, BackendKind, Budget, CacheStats};

use crate::analyzer::Analyzer;
use crate::results::{SessionError, SolutionSet};

/// The analyzer template an [`AnalysisService`] stamps out per query thread.
#[derive(Clone, Copy, Debug)]
pub struct ServiceConfig {
    /// The analysis engine (resolved per tree for [`BackendKind::Auto`]).
    pub backend: BackendKind,
    /// Run the modular divide-and-conquer preprocessing pass.
    pub preprocess: bool,
    /// The BDD variable ordering.
    pub bdd_ordering: VariableOrdering,
    /// The per-query budget every stamped analyzer starts with.
    pub budget: Budget,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            backend: BackendKind::MaxSat,
            preprocess: false,
            bdd_ordering: VariableOrdering::DepthFirst,
            budget: Budget::unlimited(),
        }
    }
}

/// A `Send + Sync` registry of parsed fault trees serving concurrent
/// analysis queries.
///
/// The service shares each **immutable parsed tree** across threads behind
/// an `Arc`, and stamps out a fresh per-thread [`Analyzer`] (with its own
/// warm incremental solver session) for each worker — solver state is never
/// shared, so queries neither lock each other out nor interleave
/// nondeterministically. With the default deterministic configuration, `N`
/// threads asking the same question get `N` byte-identical answers.
///
/// ```rust
/// use fault_tree::examples::fire_protection_system;
/// use ft_session::AnalysisService;
///
/// let service = AnalysisService::new();
/// service.register("fps", fire_protection_system());
/// let answers: Vec<_> = std::thread::scope(|scope| {
///     (0..4)
///         .map(|_| scope.spawn(|| service.top_k("fps", 3).unwrap()))
///         .map(|handle| handle.join().unwrap())
///         .collect()
/// });
/// for answer in &answers {
///     assert_eq!(answer.solutions.len(), 3);
///     assert_eq!(answer.solutions[0].cut_set, answers[0].solutions[0].cut_set);
/// }
/// ```
#[derive(Debug, Default)]
pub struct AnalysisService {
    trees: RwLock<HashMap<String, Arc<FaultTree>>>,
    config: ServiceConfig,
    /// One shared content-addressed cache across every stamped analyzer:
    /// any thread's complete answer is every other thread's warm start.
    cache: Option<Arc<AnalysisCache>>,
}

impl AnalysisService {
    /// Creates an empty service with the default (deterministic)
    /// configuration.
    pub fn new() -> Self {
        AnalysisService::default()
    }

    /// Creates an empty service with an explicit analyzer template.
    pub fn with_config(config: ServiceConfig) -> Self {
        AnalysisService {
            trees: RwLock::new(HashMap::new()),
            config,
            cache: None,
        }
    }

    /// Attaches a shared content-addressed [`AnalysisCache`]: every stamped
    /// analyzer (and one-shot convenience query) consults and feeds the same
    /// table, so isomorphic queries across threads and registered trees are
    /// answered once. Builder-style, for use at construction time.
    pub fn with_cache(mut self, cache: Arc<AnalysisCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// The shared analysis cache, when one is attached.
    pub fn shared_cache(&self) -> Option<&Arc<AnalysisCache>> {
        self.cache.as_ref()
    }

    /// Counter snapshot of the shared cache, when one is attached.
    pub fn cache_stats(&self) -> Option<CacheStats> {
        self.cache.as_ref().map(|cache| cache.stats())
    }

    /// The analyzer template in effect.
    pub fn config(&self) -> ServiceConfig {
        self.config
    }

    /// Registers `tree` under `name`, replacing any previous registration.
    /// Returns the shared handle.
    pub fn register(&self, name: impl Into<String>, tree: FaultTree) -> Arc<FaultTree> {
        self.register_shared(name, Arc::new(tree))
    }

    /// Registers an already-shared tree handle under `name`.
    pub fn register_shared(&self, name: impl Into<String>, tree: Arc<FaultTree>) -> Arc<FaultTree> {
        let handle = Arc::clone(&tree);
        self.trees
            .write()
            .expect("tree registry lock poisoned")
            .insert(name.into(), tree);
        handle
    }

    /// Registers `tree` under its canonical content address — the
    /// 32-hex-character weighted [`fault_tree::TreeHash`] digest — and
    /// returns `(address, handle, created)`.
    ///
    /// Registration is **idempotent**: re-registering an isomorphic tree
    /// (equal up to renaming and symmetric-input reordering, with the same
    /// probabilities) resolves to the same address and keeps the first
    /// registration's handle, reporting `created == false`. This is the
    /// addressing scheme the HTTP front end's `/trees` routes use, so
    /// in-process consumers and wire consumers share one namespace.
    pub fn register_by_hash(&self, tree: FaultTree) -> (String, Arc<FaultTree>, bool) {
        self.register_shared_by_hash(Arc::new(tree))
    }

    /// [`register_by_hash`](AnalysisService::register_by_hash) over an
    /// already-shared handle.
    pub fn register_shared_by_hash(&self, tree: Arc<FaultTree>) -> (String, Arc<FaultTree>, bool) {
        // The form is kept on the tree, so the hash paid here is the only
        // one any later read of this tree pays, hit or miss.
        let address = tree.canonical().hash.weighted_hex();
        let mut trees = self.trees.write().expect("tree registry lock poisoned");
        match trees.get(&address) {
            Some(existing) => (address, Arc::clone(existing), false),
            None => {
                trees.insert(address.clone(), Arc::clone(&tree));
                (address, tree, true)
            }
        }
    }

    /// Removes the registration under `name`; `true` when something was
    /// removed.
    pub fn remove(&self, name: &str) -> bool {
        self.unregister(name).is_some()
    }

    /// Removes the registration under `name`, returning the evicted handle
    /// (the parsed tree stays alive for analyzers still holding it).
    pub fn unregister(&self, name: &str) -> Option<Arc<FaultTree>> {
        self.trees
            .write()
            .expect("tree registry lock poisoned")
            .remove(name)
    }

    /// Every registration as `(name, handle)` rows, sorted by name — the
    /// introspection the `GET /trees` route serves.
    pub fn list_trees(&self) -> Vec<(String, Arc<FaultTree>)> {
        let mut rows: Vec<(String, Arc<FaultTree>)> = self
            .trees
            .read()
            .expect("tree registry lock poisoned")
            .iter()
            .map(|(name, tree)| (name.clone(), Arc::clone(tree)))
            .collect();
        rows.sort_by(|a, b| a.0.cmp(&b.0));
        rows
    }

    /// The registered names, sorted.
    pub fn names(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .trees
            .read()
            .expect("tree registry lock poisoned")
            .keys()
            .cloned()
            .collect();
        names.sort();
        names
    }

    /// Number of registered trees.
    pub fn len(&self) -> usize {
        self.trees
            .read()
            .expect("tree registry lock poisoned")
            .len()
    }

    /// `true` when no tree is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The shared handle of the tree registered under `name`.
    pub fn tree(&self, name: &str) -> Option<Arc<FaultTree>> {
        self.trees
            .read()
            .expect("tree registry lock poisoned")
            .get(name)
            .cloned()
    }

    /// Stamps out a fresh analyzer over the tree registered under `name` —
    /// the per-thread handle for a worker that will issue several queries
    /// and wants to keep the warm session between them. The registry lock is
    /// held only while the handle is cloned; queries never hold it.
    pub fn analyzer(&self, name: &str) -> Result<Analyzer, SessionError> {
        let tree = self
            .tree(name)
            .ok_or_else(|| SessionError::UnknownTree(name.to_string()))?;
        let mut analyzer = Analyzer::for_shared(tree)
            .backend(self.config.backend)
            .preprocess(self.config.preprocess)
            .bdd_ordering(self.config.bdd_ordering)
            .budget(self.config.budget);
        if let Some(cache) = &self.cache {
            analyzer = analyzer.cache(Arc::clone(cache));
        }
        Ok(analyzer)
    }

    /// One-shot convenience: the MPMCS of the tree registered under `name`.
    ///
    /// # Errors
    ///
    /// [`SessionError::UnknownTree`] for unregistered names, plus the
    /// [`Analyzer::mpmcs`] contract.
    pub fn mpmcs(&self, name: &str) -> Result<ft_backend::BackendSolution, SessionError> {
        self.analyzer(name)?.mpmcs()
    }

    /// One-shot convenience: the `k` most probable minimal cut sets of the
    /// tree registered under `name`.
    ///
    /// # Errors
    ///
    /// [`SessionError::UnknownTree`] for unregistered names, plus the
    /// [`Analyzer::top_k`] contract.
    pub fn top_k(&self, name: &str, k: usize) -> Result<SolutionSet, SessionError> {
        self.analyzer(name)?.top_k(k)
    }

    /// One-shot convenience: the exact top-event probability of the tree
    /// registered under `name`.
    ///
    /// # Errors
    ///
    /// [`SessionError::UnknownTree`] for unregistered names, plus the
    /// [`Analyzer::probability`] contract.
    pub fn probability(&self, name: &str) -> Result<f64, SessionError> {
        self.analyzer(name)?.probability()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fault_tree::examples::{fire_protection_system, pressure_tank_system};

    fn assert_send_sync<T: Send + Sync>() {}

    #[test]
    fn the_service_is_send_and_sync() {
        assert_send_sync::<AnalysisService>();
        assert_send_sync::<Arc<AnalysisService>>();
    }

    #[test]
    fn registration_lifecycle_round_trips() {
        let service = AnalysisService::new();
        assert!(service.is_empty());
        service.register("fps", fire_protection_system());
        service.register("tank", pressure_tank_system());
        assert_eq!(service.len(), 2);
        assert_eq!(service.names(), vec!["fps".to_string(), "tank".to_string()]);
        assert!(service.tree("fps").is_some());
        assert!(service.remove("tank"));
        assert!(!service.remove("tank"));
        assert_eq!(service.len(), 1);
        assert!(matches!(
            service.mpmcs("tank"),
            Err(SessionError::UnknownTree(_))
        ));
    }

    #[test]
    fn concurrent_queries_agree_across_threads() {
        let service = AnalysisService::new();
        service.register("fps", fire_protection_system());
        let answers: Vec<SolutionSet> = std::thread::scope(|scope| {
            (0..4)
                .map(|_| scope.spawn(|| service.top_k("fps", 5).expect("solvable")))
                .map(|handle| handle.join().expect("no panic"))
                .collect()
        });
        for answer in &answers {
            assert_eq!(answer.solutions.len(), 5);
            assert!(!answer.is_truncated());
            for (a, b) in answer.solutions.iter().zip(&answers[0].solutions) {
                assert_eq!(a.cut_set, b.cut_set);
                assert_eq!(a.probability.to_bits(), b.probability.to_bits());
            }
        }
    }

    #[test]
    fn hash_registration_is_idempotent_and_content_addressed() {
        let service = AnalysisService::new();
        let (address, handle, created) = service.register_by_hash(fire_protection_system());
        assert_eq!(address.len(), 32, "32-hex-character weighted digest");
        assert!(created);
        // Re-uploading the same tree resolves to the same address and the
        // original handle.
        let (again, second, created_again) = service.register_by_hash(fire_protection_system());
        assert_eq!(again, address);
        assert!(!created_again);
        assert!(Arc::ptr_eq(&handle, &second));
        assert_eq!(service.len(), 1);
        // A different tree gets a different address.
        let (other, _, _) = service.register_by_hash(pressure_tank_system());
        assert_ne!(other, address);
        // The address is the query name.
        assert!(service.mpmcs(&address).is_ok());
    }

    #[test]
    fn list_and_unregister_round_trip() {
        let service = AnalysisService::new();
        service.register("b-tank", pressure_tank_system());
        let registered = service.register("a-fps", fire_protection_system());
        let rows = service.list_trees();
        assert_eq!(
            rows.iter()
                .map(|(name, _)| name.as_str())
                .collect::<Vec<_>>(),
            vec!["a-fps", "b-tank"],
            "rows are sorted by name"
        );
        assert!(Arc::ptr_eq(&rows[0].1, &registered));
        let evicted = service.unregister("a-fps").expect("registered");
        assert!(Arc::ptr_eq(&evicted, &registered));
        assert!(service.unregister("a-fps").is_none());
        assert_eq!(service.len(), 1);
    }

    #[test]
    fn per_thread_analyzers_share_the_parsed_tree() {
        let service = AnalysisService::new();
        let registered = service.register("fps", fire_protection_system());
        let analyzer = service.analyzer("fps").expect("registered");
        assert!(Arc::ptr_eq(&registered, &analyzer.shared_tree()));
    }
}
