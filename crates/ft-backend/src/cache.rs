//! The content-addressed analysis cache.
//!
//! Rauzy-style BDD engines owe much of their speed to caching results on
//! canonical subproblems. The engine-agnostic equivalent built here keys
//! complete query answers on the *canonical weighted hash* of the queried
//! tree — so two isomorphic trees (or modules, or the same tree queried
//! twice) share one cache line — plus the query kind and the full backend
//! configuration, so engines with different output conventions never alias.
//!
//! The hash comes from [`FaultTree::canonical`], which computes the tree's
//! canonical form once and keeps it on the tree: every lookup and store
//! after the first on the same tree (or a clone of it) reuses that form
//! instead of hashing the model again, so a hit costs a table probe plus
//! the decoding of the answer.
//!
//! Three invariants keep cached answers byte-identical to fresh solves:
//!
//! * **Only complete answers are cached.** Budget-truncated enumerations
//!   ([`Enumerated::stopped`](crate::Enumerated)), cancelled queries and
//!   budget errors are never inserted, so a warm query after a truncated one
//!   still computes (and then caches) the complete answer.
//! * **Cut sets are stored in canonical index space** (the event numbering
//!   of [`CanonicalForm`]), remapped onto the hitting tree's identifiers and
//!   re-sorted into the canonical cross-backend order on every hit.
//!   Probabilities are *recomputed* from the hitting tree's exact event
//!   probabilities via [`BackendSolution::from_cut`], not replayed — equal
//!   weighted hashes guarantee bit-identical inputs to that computation.
//! * **Per-solution solver statistics and timings are dropped** on the
//!   store; deterministic report comparison already redacts both (a hit
//!   pattern depends on scheduling, so they could never be stable anyway).
//!
//! One documented corner: partial entries ([`QueryKind::Mpmcs`],
//! [`QueryKind::TopK`]) cut the canonical order at a boundary that may fall
//! *inside* a group of equal-cost solutions, and the within-group order
//! follows the querying tree's own event numbering — which a *differently
//! numbered* isomorphic tree cannot reproduce. Replaying such an entry on a
//! permuted twin may therefore pick a different (equally optimal, equally
//! valid) tie representative than that twin's own enumeration would.
//! Same-tree replays — the overwhelmingly common case — are always
//! byte-identical, as are full families and probabilities on any twin.
//!
//! The table is sharded (independent mutexes, selected by key hash) and
//! memory-bounded: each shard evicts its least-recently-used entries once
//! its slice of the byte budget is exceeded. Hit/miss/insert/eviction and
//! byte counters are global atomics, cheap enough to expose everywhere.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use fault_tree::{CanonicalForm, CutSet, FailureModel, FaultTree};

use crate::solution::{canonical_sort, BackendSolution};
use crate::{AnalysisBackend, BackendConfig, BackendError, BackendKind, Enumerated, QueryControl};

/// Number of independent shards (power of two; selected by key hash).
const SHARDS: usize = 16;

/// Default byte budget: 64 MiB, comfortably thousands of module families.
pub const DEFAULT_CACHE_BYTES: usize = 64 << 20;

/// The query a cached answer belongs to. Part of the cache key: answers to
/// different queries never alias, and `top_k` answers are per-`k` (a longer
/// prefix is a different, larger computation).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum QueryKind {
    /// [`AnalysisBackend::mpmcs`](crate::AnalysisBackend::mpmcs).
    Mpmcs,
    /// [`AnalysisBackend::enumerate`] limited to this many solutions.
    TopK(usize),
    /// [`AnalysisBackend::enumerate`] without a limit.
    AllMcs,
    /// [`AnalysisBackend::top_event_probability`](crate::AnalysisBackend::top_event_probability).
    TopProbability,
    /// [`AnalysisBackend::probability_sweep`](crate::AnalysisBackend::probability_sweep)
    /// with this [`sweep_fingerprint`] (grid bits plus every event's time
    /// law). Sweep entries are keyed on the **structure** hash rather than
    /// the weighted hash: the fingerprint already pins the complete
    /// time-dependent weighting, so isomorphic structures sharing the same
    /// laws reuse one curve.
    Sweep(u64),
}

/// One full cache key.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
struct CacheKey {
    /// The canonical weighted hash of the queried tree.
    weighted: u128,
    /// The query the answer belongs to.
    query: QueryKind,
    /// Fingerprint of the resolved backend kind and its full configuration
    /// ([`config_fingerprint`]).
    config: u64,
}

/// A cached complete answer, in canonical index space.
#[derive(Clone, Debug)]
enum CachedAnswer {
    /// A complete solution family (enumeration queries). Each cut set is a
    /// sorted list of canonical event indices, paired with the algorithm
    /// label of the engine that produced it.
    Family(Vec<(Vec<u32>, String)>),
    /// The single MPMCS answer.
    Best(Vec<u32>, String),
    /// An exact top-event probability (stored as raw bits).
    Probability(u64),
    /// A mission-time sweep curve, one raw-bits probability per grid point.
    Curve(Vec<u64>),
    /// The tree has no cut set at all — a deterministic structural fact
    /// worth caching (the engines prove it the expensive way).
    NoCutSet,
}

impl CachedAnswer {
    /// Approximate heap footprint, for the byte budget.
    fn bytes(&self) -> usize {
        let base = std::mem::size_of::<CacheKey>() + std::mem::size_of::<CachedAnswer>() + 48;
        match self {
            CachedAnswer::Family(cuts) => {
                base + cuts
                    .iter()
                    .map(|(cut, algorithm)| 48 + cut.len() * 4 + algorithm.len())
                    .sum::<usize>()
            }
            CachedAnswer::Best(cut, algorithm) => base + cut.len() * 4 + algorithm.len(),
            CachedAnswer::Curve(points) => base + points.len() * 8,
            CachedAnswer::Probability(_) | CachedAnswer::NoCutSet => base,
        }
    }
}

struct Entry {
    answer: CachedAnswer,
    bytes: usize,
    last_used: u64,
}

#[derive(Default)]
struct Shard {
    entries: HashMap<CacheKey, Entry>,
    bytes: usize,
    tick: u64,
}

/// A point-in-time snapshot of the cache counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the table.
    pub hits: u64,
    /// Lookups that fell through to a fresh solve.
    pub misses: u64,
    /// Complete answers inserted.
    pub insertions: u64,
    /// Entries evicted under the byte budget.
    pub evictions: u64,
    /// Entries currently resident.
    pub entries: u64,
    /// Approximate resident bytes.
    pub bytes: u64,
    /// The configured byte budget.
    pub capacity: u64,
}

impl CacheStats {
    /// Hit rate over all lookups (0 when none happened).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// The sharded, memory-bounded, content-addressed analysis cache.
///
/// One instance is meant to be shared — wrapped in an [`Arc`] — across every
/// analyzer of an [`AnalysisService`](../ft_session) and every worker of a
/// batch run: the more consumers, the more cross-tree reuse.
pub struct AnalysisCache {
    shards: Vec<Mutex<Shard>>,
    shard_budget: usize,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    insertions: AtomicU64,
    evictions: AtomicU64,
}

impl std::fmt::Debug for AnalysisCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AnalysisCache")
            .field("capacity", &self.capacity)
            .field("stats", &self.stats())
            .finish()
    }
}

impl AnalysisCache {
    /// Creates a cache bounded by `byte_budget` approximate resident bytes.
    pub fn new(byte_budget: usize) -> Self {
        let shard_budget = (byte_budget / SHARDS).max(1);
        AnalysisCache {
            shards: (0..SHARDS).map(|_| Mutex::new(Shard::default())).collect(),
            shard_budget,
            capacity: byte_budget,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            insertions: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Creates a cache with the default byte budget, ready for sharing.
    pub fn shared() -> Arc<Self> {
        Arc::new(AnalysisCache::new(DEFAULT_CACHE_BYTES))
    }

    /// Snapshot of the counters.
    pub fn stats(&self) -> CacheStats {
        let mut entries = 0u64;
        let mut bytes = 0u64;
        for shard in &self.shards {
            let shard = shard.lock().expect("cache shard poisoned");
            entries += shard.entries.len() as u64;
            bytes += shard.bytes as u64;
        }
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            insertions: self.insertions.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries,
            bytes,
            capacity: self.capacity as u64,
        }
    }

    fn shard(&self, key: &CacheKey) -> &Mutex<Shard> {
        let mut hasher = DefaultHasher::new();
        key.hash(&mut hasher);
        &self.shards[(hasher.finish() as usize) % SHARDS]
    }

    fn lookup(&self, key: &CacheKey) -> Option<CachedAnswer> {
        let mut shard = self.shard(key).lock().expect("cache shard poisoned");
        shard.tick += 1;
        let tick = shard.tick;
        match shard.entries.get_mut(key) {
            Some(entry) => {
                entry.last_used = tick;
                let answer = entry.answer.clone();
                drop(shard);
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(answer)
            }
            None => {
                drop(shard);
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    fn insert(&self, key: CacheKey, answer: CachedAnswer) {
        let bytes = answer.bytes();
        if bytes > self.shard_budget {
            // An answer larger than a whole shard would immediately evict
            // everything; skip it.
            return;
        }
        let mut shard = self.shard(&key).lock().expect("cache shard poisoned");
        shard.tick += 1;
        let tick = shard.tick;
        if let Some(previous) = shard.entries.remove(&key) {
            shard.bytes -= previous.bytes;
        }
        shard.bytes += bytes;
        shard.entries.insert(
            key,
            Entry {
                answer,
                bytes,
                last_used: tick,
            },
        );
        let mut evicted = 0u64;
        while shard.bytes > self.shard_budget {
            let victim = shard
                .entries
                .iter()
                .min_by_key(|(_, entry)| entry.last_used)
                .map(|(key, _)| key.clone())
                .expect("non-empty over-budget shard");
            let entry = shard.entries.remove(&victim).expect("victim present");
            shard.bytes -= entry.bytes;
            evicted += 1;
        }
        drop(shard);
        self.insertions.fetch_add(1, Ordering::Relaxed);
        if evicted > 0 {
            self.evictions.fetch_add(evicted, Ordering::Relaxed);
        }
    }
}

/// Fingerprint of the resolved backend kind plus every [`BackendConfig`]
/// field — cache entries never cross a configuration boundary (different
/// engines, orderings or budgets may differ in algorithm labels or
/// feasibility even where they agree on the answer).
pub fn config_fingerprint(kind: BackendKind, config: &BackendConfig) -> u64 {
    let mut hasher = DefaultHasher::new();
    kind.name().hash(&mut hasher);
    format!("{:?}", config.algorithm).hash(&mut hasher);
    format!("{:?}", config.bdd_ordering).hash(&mut hasher);
    config.mocus_budget.hash(&mut hasher);
    config.bdd_path_budget.hash(&mut hasher);
    config.probability_budget.hash(&mut hasher);
    config.preprocess.hash(&mut hasher);
    hasher.finish()
}

/// Fingerprint of everything a sweep curve depends on beyond the tree
/// structure: the grid (exact `f64` bits) and every reachable event's time
/// law — failure model or fixed probability — in canonical event order.
/// Together with [`TreeHash::structure`](fault_tree::TreeHash) this pins the
/// curve completely: mission times only ever move the leaf probabilities
/// through these laws.
pub fn sweep_fingerprint(tree: &FaultTree, form: &CanonicalForm, grid: &[f64]) -> u64 {
    let mut hasher = DefaultHasher::new();
    grid.len().hash(&mut hasher);
    for &t in grid {
        t.to_bits().hash(&mut hasher);
    }
    for &id in &form.event_order {
        let event = tree.event(id);
        match event.model() {
            None => {
                0u8.hash(&mut hasher);
                event.probability().value().to_bits().hash(&mut hasher);
            }
            Some(FailureModel::Fixed(p)) => {
                1u8.hash(&mut hasher);
                p.value().to_bits().hash(&mut hasher);
            }
            Some(FailureModel::Exponential { lambda }) => {
                2u8.hash(&mut hasher);
                lambda.to_bits().hash(&mut hasher);
            }
            Some(FailureModel::Repairable { lambda, mu }) => {
                3u8.hash(&mut hasher);
                lambda.to_bits().hash(&mut hasher);
                mu.to_bits().hash(&mut hasher);
            }
        }
    }
    hasher.finish()
}

/// The result of a cache lookup: a miss, a cached complete answer, or a
/// cached proof that the tree has no cut set.
#[derive(Clone, Debug)]
pub enum Cached<T> {
    /// Nothing cached under this key.
    Miss,
    /// The cached complete answer, rebuilt against the queried tree.
    Hit(T),
    /// The cached proof that the top event cannot occur.
    NoCutSet,
}

/// A shared cache plus the configuration fingerprint its consumer queries
/// under — everything needed to consult the table for one tree.
///
/// Beyond the internal backend wrappers, the session facade's warm
/// incremental MaxSAT path uses the explicit lookup/store pairs: it extends
/// a proven prefix query by query and can only deposit the family once the
/// enumeration is exhausted, which does not fit a closure-shaped API.
#[derive(Clone, Debug)]
pub struct CacheHandle {
    pub(crate) cache: Arc<AnalysisCache>,
    pub(crate) fingerprint: u64,
}

impl CacheHandle {
    /// Binds `cache` to the configuration fingerprint its consumer queries
    /// under (see [`config_fingerprint`]).
    pub fn new(cache: Arc<AnalysisCache>, fingerprint: u64) -> Self {
        CacheHandle { cache, fingerprint }
    }

    /// The shared cache this handle consults.
    pub fn cache(&self) -> &Arc<AnalysisCache> {
        &self.cache
    }

    fn key(&self, tree: &FaultTree, query: QueryKind) -> CacheKey {
        CacheKey {
            weighted: tree.canonical().hash.weighted,
            query,
            config: self.fingerprint,
        }
    }

    /// The cache key of a sweep over `grid`: the structure hash (standing in
    /// for the weighted hash — the fingerprint pins the weights' time laws)
    /// plus the grid/law fingerprint.
    fn sweep_key(&self, tree: &FaultTree, grid: &[f64]) -> CacheKey {
        let form = tree.canonical();
        CacheKey {
            weighted: form.hash.structure,
            query: QueryKind::Sweep(sweep_fingerprint(tree, form, grid)),
            config: self.fingerprint,
        }
    }

    /// Looks `key` up and rebuilds a hit with `decode`, which reads an
    /// entry of any other kind as a miss.
    fn lookup<T>(
        &self,
        key: &CacheKey,
        decode: impl FnOnce(CachedAnswer) -> Option<T>,
    ) -> Cached<T> {
        match self.cache.lookup(key) {
            Some(CachedAnswer::NoCutSet) => Cached::NoCutSet,
            found => found.and_then(decode).map_or(Cached::Miss, Cached::Hit),
        }
    }

    /// The one miss → solve → store path of every closure-shaped query: a
    /// hit is rebuilt with `decode`; a miss runs `solve` and stores what
    /// `encode` makes of its answer (`None` keeps an incomplete answer out
    /// of the table), or the proof that the tree has no cut set.
    fn answer<T>(
        &self,
        key: CacheKey,
        decode: impl FnOnce(CachedAnswer) -> Option<T>,
        solve: impl FnOnce() -> Result<T, BackendError>,
        encode: impl FnOnce(&T) -> Option<CachedAnswer>,
    ) -> Result<T, BackendError> {
        match self.lookup(&key, decode) {
            Cached::Hit(answer) => Ok(answer),
            Cached::NoCutSet => Err(BackendError::NoCutSet),
            Cached::Miss => match solve() {
                Ok(answer) => {
                    if let Some(stored) = encode(&answer) {
                        self.cache.insert(key, stored);
                    }
                    Ok(answer)
                }
                Err(BackendError::NoCutSet) => {
                    self.cache.insert(key, CachedAnswer::NoCutSet);
                    Err(BackendError::NoCutSet)
                }
                Err(other) => Err(other),
            },
        }
    }

    /// Looks up a complete solution family for `query`.
    pub fn lookup_solutions(
        &self,
        tree: &FaultTree,
        query: QueryKind,
    ) -> Cached<Vec<BackendSolution>> {
        self.lookup(&self.key(tree, query), |hit| hit.into_family(tree))
    }

    /// Stores a **complete** solution family for `query`. The caller is
    /// responsible for the completeness invariant — never pass a
    /// budget-truncated prefix.
    pub fn store_solutions(
        &self,
        tree: &FaultTree,
        query: QueryKind,
        solutions: &[BackendSolution],
    ) {
        self.cache
            .insert(self.key(tree, query), encode_family(tree, solutions));
    }

    /// Looks up the MPMCS answer.
    pub fn lookup_best(&self, tree: &FaultTree) -> Cached<BackendSolution> {
        self.lookup(&self.key(tree, QueryKind::Mpmcs), |hit| hit.into_best(tree))
    }

    /// Stores a proven MPMCS answer.
    pub fn store_best(&self, tree: &FaultTree, solution: &BackendSolution) {
        self.cache.insert(
            self.key(tree, QueryKind::Mpmcs),
            encode_best(tree, solution),
        );
    }

    /// Looks up an exact top-event probability.
    pub fn lookup_probability(&self, tree: &FaultTree) -> Cached<f64> {
        self.lookup(
            &self.key(tree, QueryKind::TopProbability),
            CachedAnswer::into_probability,
        )
    }

    /// Stores an exact top-event probability.
    pub fn store_probability(&self, tree: &FaultTree, probability: f64) {
        self.cache.insert(
            self.key(tree, QueryKind::TopProbability),
            CachedAnswer::Probability(probability.to_bits()),
        );
    }

    /// Looks up a mission-time sweep curve for exactly this grid.
    pub fn lookup_curve(&self, tree: &FaultTree, grid: &[f64]) -> Cached<Vec<f64>> {
        self.lookup(&self.sweep_key(tree, grid), CachedAnswer::into_curve)
    }

    /// Stores a complete mission-time sweep curve for `grid`.
    pub fn store_curve(&self, tree: &FaultTree, grid: &[f64], curve: &[f64]) {
        self.cache
            .insert(self.sweep_key(tree, grid), encode_curve(curve));
    }

    /// Stores the proof that the tree has no cut set, under `query`.
    pub fn store_no_cut_set(&self, tree: &FaultTree, query: QueryKind) {
        self.cache
            .insert(self.key(tree, query), CachedAnswer::NoCutSet);
    }

    /// Consults the cache for an enumeration query — the first `limit`
    /// solutions, or the whole family when `None` — and on a miss runs
    /// `solve`, storing its answer when (and only when) it is complete or a
    /// [`BackendError::NoCutSet`] proof. A cached answer is complete, so it
    /// answers even an expiring control.
    pub(crate) fn enumeration(
        &self,
        tree: &FaultTree,
        limit: Option<usize>,
        solve: impl FnOnce() -> Result<Enumerated, BackendError>,
    ) -> Result<Enumerated, BackendError> {
        let query = limit.map_or(QueryKind::AllMcs, QueryKind::TopK);
        self.answer(
            self.key(tree, query),
            |hit| hit.into_family(tree).map(Enumerated::complete),
            solve,
            // Truncated prefixes must never poison the table.
            |enumerated| {
                enumerated
                    .is_complete()
                    .then(|| encode_family(tree, &enumerated.solutions))
            },
        )
    }

    /// Consults the cache for the MPMCS query; on a miss runs `solve` and
    /// stores its answer, or the proof that the tree has no cut set.
    pub(crate) fn best(
        &self,
        tree: &FaultTree,
        solve: impl FnOnce() -> Result<BackendSolution, BackendError>,
    ) -> Result<BackendSolution, BackendError> {
        self.answer(
            self.key(tree, QueryKind::Mpmcs),
            |hit| hit.into_best(tree),
            solve,
            |solution| Some(encode_best(tree, solution)),
        )
    }

    /// Consults the cache for the exact top-event probability.
    pub(crate) fn probability(
        &self,
        tree: &FaultTree,
        solve: impl FnOnce() -> Result<f64, BackendError>,
    ) -> Result<f64, BackendError> {
        self.answer(
            self.key(tree, QueryKind::TopProbability),
            CachedAnswer::into_probability,
            solve,
            |probability| Some(CachedAnswer::Probability(probability.to_bits())),
        )
    }

    /// Consults the cache for a mission-time sweep; mirrors
    /// [`CacheHandle::probability`].
    pub(crate) fn curve(
        &self,
        tree: &FaultTree,
        grid: &[f64],
        solve: impl FnOnce() -> Result<Vec<f64>, BackendError>,
    ) -> Result<Vec<f64>, BackendError> {
        self.answer(
            self.sweep_key(tree, grid),
            CachedAnswer::into_curve,
            solve,
            |curve| Some(encode_curve(curve)),
        )
    }
}

fn encode_cut(form: &CanonicalForm, cut: &CutSet) -> Vec<u32> {
    let mut ranks: Vec<u32> = cut.iter().map(|event| form.rank(event)).collect();
    ranks.sort_unstable();
    ranks
}

fn encode_best(tree: &FaultTree, solution: &BackendSolution) -> CachedAnswer {
    CachedAnswer::Best(
        encode_cut(tree.canonical(), &solution.cut_set),
        solution.algorithm.clone(),
    )
}

fn encode_family(tree: &FaultTree, solutions: &[BackendSolution]) -> CachedAnswer {
    let form = tree.canonical();
    CachedAnswer::Family(
        solutions
            .iter()
            .map(|solution| {
                (
                    encode_cut(form, &solution.cut_set),
                    solution.algorithm.clone(),
                )
            })
            .collect(),
    )
}

fn encode_curve(curve: &[f64]) -> CachedAnswer {
    CachedAnswer::Curve(curve.iter().map(|p| p.to_bits()).collect())
}

fn decode_solution(tree: &FaultTree, ranks: &[u32], algorithm: &str) -> BackendSolution {
    let form = tree.canonical();
    let cut: CutSet = ranks.iter().map(|&rank| form.event(rank)).collect();
    BackendSolution::from_cut(tree, cut, algorithm)
}

// Hit decoders: each rebuilds one kind of answer against the hitting tree
// and reads any other kind as a miss.
impl CachedAnswer {
    fn into_family(self, tree: &FaultTree) -> Option<Vec<BackendSolution>> {
        let CachedAnswer::Family(cuts) = self else {
            return None;
        };
        let mut solutions: Vec<BackendSolution> = cuts
            .iter()
            .map(|(ranks, algorithm)| decode_solution(tree, ranks, algorithm))
            .collect();
        canonical_sort(tree, &mut solutions);
        Some(solutions)
    }

    fn into_best(self, tree: &FaultTree) -> Option<BackendSolution> {
        match self {
            CachedAnswer::Best(cut, algorithm) => Some(decode_solution(tree, &cut, &algorithm)),
            _ => None,
        }
    }

    fn into_probability(self) -> Option<f64> {
        match self {
            CachedAnswer::Probability(bits) => Some(f64::from_bits(bits)),
            _ => None,
        }
    }

    fn into_curve(self) -> Option<Vec<f64>> {
        match self {
            CachedAnswer::Curve(points) => Some(points.into_iter().map(f64::from_bits).collect()),
            _ => None,
        }
    }
}

/// A caching wrapper around any backend: every whole-tree query consults the
/// shared [`AnalysisCache`] first, so repeated (or isomorphic) trees across
/// a session or batch are answered without touching the engine. Complete
/// answers only — see the module docs for the invariants.
pub struct CachedBackend {
    inner: Box<dyn AnalysisBackend>,
    handle: CacheHandle,
}

impl CachedBackend {
    /// Wraps `inner`, consulting `cache` under the given configuration
    /// fingerprint (see [`config_fingerprint`]).
    pub fn new(
        inner: Box<dyn AnalysisBackend>,
        cache: Arc<AnalysisCache>,
        fingerprint: u64,
    ) -> Self {
        CachedBackend {
            inner,
            handle: CacheHandle { cache, fingerprint },
        }
    }
}

impl AnalysisBackend for CachedBackend {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn mpmcs(&self, tree: &FaultTree) -> Result<BackendSolution, BackendError> {
        self.handle.best(tree, || self.inner.mpmcs(tree))
    }

    fn enumerate(
        &self,
        tree: &FaultTree,
        limit: Option<usize>,
        control: &QueryControl,
    ) -> Result<Enumerated, BackendError> {
        self.handle
            .enumeration(tree, limit, || self.inner.enumerate(tree, limit, control))
    }

    fn top_event_probability(&self, tree: &FaultTree) -> Result<f64, BackendError> {
        self.handle
            .probability(tree, || self.inner.top_event_probability(tree))
    }

    fn probability_sweep(&self, tree: &FaultTree, grid: &[f64]) -> Result<Vec<f64>, BackendError> {
        self.handle
            .curve(tree, grid, || self.inner.probability_sweep(tree, grid))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{backend_for_cached, BackendConfig, BackendKind};
    use fault_tree::canonical_form;
    use fault_tree::examples::fire_protection_system;

    fn cached(
        kind: BackendKind,
        tree: &FaultTree,
        cache: &Arc<AnalysisCache>,
    ) -> Box<dyn AnalysisBackend> {
        backend_for_cached(kind, tree, &BackendConfig::default(), Some(cache.clone())).1
    }

    #[test]
    fn hits_reproduce_fresh_answers_bit_for_bit() {
        let tree = fire_protection_system();
        let cache = AnalysisCache::shared();
        for kind in [BackendKind::MaxSat, BackendKind::Bdd, BackendKind::Mocus] {
            let backend = cached(kind, &tree, &cache);
            let cold = backend.all_mcs(&tree).expect("solvable");
            let warm = backend.all_mcs(&tree).expect("solvable");
            assert_eq!(cold.len(), warm.len());
            for (a, b) in cold.iter().zip(&warm) {
                assert_eq!(a.cut_set, b.cut_set, "{kind}");
                assert_eq!(a.probability.to_bits(), b.probability.to_bits(), "{kind}");
                assert_eq!(a.algorithm, b.algorithm, "{kind}");
            }
            let best_cold = backend.mpmcs(&tree).expect("solvable");
            let best_warm = backend.mpmcs(&tree).expect("solvable");
            assert_eq!(best_cold.cut_set, best_warm.cut_set);
            let p_cold = backend.top_event_probability(&tree).expect("in budget");
            let p_warm = backend.top_event_probability(&tree).expect("in budget");
            assert_eq!(p_cold.to_bits(), p_warm.to_bits());
        }
        let stats = cache.stats();
        assert!(stats.hits >= 9, "one warm hit per query per backend");
        assert!(stats.insertions >= 9);
        assert!(stats.bytes > 0);
    }

    #[test]
    fn cached_sweeps_reproduce_fresh_curves_bit_for_bit() {
        let mut builder = fault_tree::FaultTreeBuilder::new("sweep cache");
        let pump = builder
            .modelled_event("pump", fault_tree::FailureModel::exponential(0.4).unwrap())
            .unwrap();
        let valve = builder.basic_event("valve", 0.05).unwrap();
        let standby = builder
            .modelled_event(
                "standby",
                fault_tree::FailureModel::repairable(0.2, 0.8).unwrap(),
            )
            .unwrap();
        let pumps = builder
            .gate(
                "pumps",
                fault_tree::GateKind::And,
                [pump.into(), standby.into()],
            )
            .unwrap();
        let top = builder
            .gate(
                "top",
                fault_tree::GateKind::Or,
                [valve.into(), pumps.into()],
            )
            .unwrap();
        let tree = builder.build(top.into()).unwrap();
        let grid: Vec<f64> = (0..40).map(|i| i as f64 * 0.25).collect();
        for kind in [BackendKind::MaxSat, BackendKind::Bdd, BackendKind::Mocus] {
            for preprocess in [false, true] {
                let config = BackendConfig {
                    preprocess,
                    ..BackendConfig::default()
                };
                let plain = crate::backend_for(kind, &tree, &config).1;
                let fresh = plain.probability_sweep(&tree, &grid).expect("solvable");
                let cache = AnalysisCache::shared();
                let cached = backend_for_cached(kind, &tree, &config, Some(cache.clone())).1;
                let cold = cached.probability_sweep(&tree, &grid).expect("solvable");
                let warm = cached.probability_sweep(&tree, &grid).expect("solvable");
                for (point, (&f, (&c, &w))) in fresh.iter().zip(cold.iter().zip(&warm)).enumerate()
                {
                    assert_eq!(
                        f.to_bits(),
                        c.to_bits(),
                        "{kind} preprocess={preprocess} point {point} cold"
                    );
                    assert_eq!(
                        f.to_bits(),
                        w.to_bits(),
                        "{kind} preprocess={preprocess} point {point} warm"
                    );
                }
                assert!(cache.stats().hits > 0, "warm sweep must hit: {kind}");
            }
        }
    }

    #[test]
    fn sweep_entries_key_on_the_grid_and_the_time_laws() {
        let tree = fire_protection_system();
        let form = canonical_form(&tree);
        let grid_a = [0.0, 0.5, 1.0];
        let grid_b = [0.0, 0.5, 2.0];
        assert_ne!(
            sweep_fingerprint(&tree, &form, &grid_a),
            sweep_fingerprint(&tree, &form, &grid_b),
            "different grids must not alias"
        );
        let mut events = tree.events().to_vec();
        events[0].set_model(Some(FailureModel::exponential(0.3).unwrap()));
        let modelled =
            FaultTree::from_parts(tree.name(), events, tree.gates().to_vec(), tree.top()).unwrap();
        let modelled_form = canonical_form(&modelled);
        assert_eq!(
            modelled_form.hash.structure, form.hash.structure,
            "attaching a model never changes the structure hash"
        );
        assert_ne!(
            sweep_fingerprint(&tree, &form, &grid_a),
            sweep_fingerprint(&modelled, &modelled_form, &grid_a),
            "different time laws must not alias"
        );
    }

    #[test]
    fn different_backends_never_alias() {
        let tree = fire_protection_system();
        let config = BackendConfig::default();
        assert_ne!(
            config_fingerprint(BackendKind::MaxSat, &config),
            config_fingerprint(BackendKind::Bdd, &config)
        );
        assert_ne!(
            config_fingerprint(BackendKind::MaxSat, &config),
            config_fingerprint(
                BackendKind::MaxSat,
                &BackendConfig {
                    preprocess: true,
                    ..config
                }
            )
        );
        let cache = AnalysisCache::shared();
        let maxsat = cached(BackendKind::MaxSat, &tree, &cache);
        let bdd = cached(BackendKind::Bdd, &tree, &cache);
        maxsat.all_mcs(&tree).expect("solvable");
        bdd.all_mcs(&tree).expect("solvable");
        // Second backend missed despite the identical tree: distinct keys.
        assert_eq!(cache.stats().hits, 0);
        assert_eq!(cache.stats().insertions, 2);
    }

    #[test]
    fn the_byte_budget_evicts_least_recently_used_entries() {
        let tree = fire_protection_system();
        // A budget so small every shard holds at most one top-4 family.
        let cache = Arc::new(AnalysisCache::new(SHARDS * 400));
        // One more equal-sized answer than there are shards (distinct
        // configuration fingerprints key them apart), so whatever the hash
        // placement, two of them share a shard and the older is evicted.
        for fingerprint in 0..=SHARDS as u64 {
            let inner = Box::new(crate::BddBackend::new(
                bdd_engine::VariableOrdering::DepthFirst,
                1_000_000,
            ));
            CachedBackend::new(inner, Arc::clone(&cache), fingerprint)
                .top_k(&tree, 4)
                .expect("solvable");
        }
        let stats = cache.stats();
        assert_eq!(stats.insertions, SHARDS as u64 + 1, "{stats:?}");
        assert!(stats.evictions > 0, "tiny budget must evict: {stats:?}");
        assert!(stats.bytes <= stats.capacity);
    }

    #[test]
    fn truncated_enumerations_are_never_cached() {
        let tree = fire_protection_system();
        let cache = AnalysisCache::shared();
        let backend = cached(BackendKind::MaxSat, &tree, &cache);
        let cancelled = crate::CancelToken::new();
        cancelled.cancel();
        let control = QueryControl::begin(&crate::Budget::unlimited(), &cancelled);
        let truncated = backend
            .enumerate(&tree, None, &control)
            .expect("stopped, not failed");
        assert!(truncated.stopped.is_some());
        assert_eq!(cache.stats().insertions, 0, "no poison");
        // The warm query still computes — and then caches — the full family.
        let relaxed = QueryControl::begin(&crate::Budget::unlimited(), &crate::CancelToken::new());
        let complete = backend.enumerate(&tree, None, &relaxed).expect("solvable");
        assert!(complete.is_complete());
        assert_eq!(complete.solutions.len(), 5);
        assert_eq!(cache.stats().insertions, 1);
    }

    #[test]
    fn scaled_weight_matches_the_maxsat_weight_scale() {
        // `fault_tree::hash::scaled_weight` must stay in lock-step with the
        // MaxSAT default weight scale the canonical solution order keys on.
        let scale = mpmcs::WeightScale::default();
        for p in [0.0, 1e-12, 0.001, 0.1, 0.25, 0.5, 0.999, 1.0] {
            let probability = fault_tree::Probability::new(p).unwrap();
            assert_eq!(
                fault_tree::hash::scaled_weight(probability),
                scale.scale(probability.log_weight().value()),
                "p = {p}"
            );
        }
    }
}
