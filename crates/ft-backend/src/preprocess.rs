//! The modular divide-and-conquer preprocessing pass manager.
//!
//! Classical FTA tooling scales through *modules*: gates whose subtree
//! interacts with the rest of the tree only through the gate's output
//! ([`ft_analysis::modules`]). Because a module's events are private, every
//! analysis of the whole tree factorises exactly:
//!
//! * replace each maximal proper module by a *pseudo-event* → the **quotient
//!   tree**;
//! * analyse each module subtree independently (recursively re-decomposing
//!   it);
//! * analyse the quotient, then substitute module answers back in — the
//!   minimal cut sets of the whole tree are exactly the quotient cut sets
//!   with every pseudo-event expanded by one minimal cut set of its module,
//!   and the exact top-event probability is the quotient probability with
//!   each pseudo-event carrying its module's exact probability.
//!
//! Each piece is strictly smaller than the whole, so SAT encodings, BDD
//! sizes and MOCUS expansions all shrink — the same pass manager benefits
//! every backend. A constant-folding / gate-coalescing pass
//! ([`fault_tree::transform::simplify`]) runs first; it preserves event
//! identifiers, so cut sets remain directly comparable.

use std::collections::HashSet;
use std::sync::Arc;
use std::time::Instant;

use fault_tree::transform::simplify;
use fault_tree::{BasicEvent, CutSet, EventId, FaultTree, Gate, GateId, NodeId, Probability};
use ft_analysis::modules::{gate_event_support, modules};
use maxsat_solver::MaxSatStats;

use crate::cache::{AnalysisCache, CacheHandle};
use crate::control::QueryControl;
use crate::solution::{ranked, scaled_cut_cost, BackendSolution};
use crate::{AnalysisBackend, BackendError, Enumerated};

/// Modules smaller than this many basic events are not worth splitting off.
const MIN_MODULE_EVENTS: usize = 2;

/// Composed top-k candidate sets beyond this budget abandon the
/// decomposition for that query and solve the whole tree directly (the
/// cross-product of per-module top-k lists can outgrow the requested `k`).
const TOP_K_COMPOSITION_BUDGET: usize = 65_536;

/// One independent module split off the tree: its subtree as a standalone
/// fault tree plus the mapping back to the original event identifiers.
#[derive(Clone, Debug)]
pub struct ModulePiece {
    /// The module subtree, over local (densely re-numbered) identifiers.
    pub tree: FaultTree,
    /// Local event index → original [`EventId`].
    pub event_map: Vec<EventId>,
}

impl ModulePiece {
    /// Maps a cut set over the module's local identifiers back to the
    /// original tree's identifiers.
    pub fn to_original(&self, local: &CutSet) -> CutSet {
        local.iter().map(|e| self.event_map[e.index()]).collect()
    }
}

/// A quotient event is either a surviving original event or the
/// pseudo-event standing in for a split-off module.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum QuotientSlot {
    /// The original event with this identifier.
    Real(EventId),
    /// The pseudo-event of the module with this index.
    Module(usize),
}

/// The result of splitting a tree at its maximal proper modules.
#[derive(Clone, Debug)]
pub struct ModularDecomposition {
    name: String,
    slots: Vec<QuotientSlot>,
    events: Vec<BasicEvent>,
    gates: Vec<Gate>,
    top: NodeId,
    /// The split-off module subtrees, one per pseudo-event.
    pub modules: Vec<ModulePiece>,
}

impl ModularDecomposition {
    /// Materialises the quotient tree with the given probability per module
    /// pseudo-event (one value per entry of
    /// [`modules`](ModularDecomposition::modules); which value is correct
    /// depends on the query — the module's exact top probability for
    /// quantification, its best cut-set probability for optimisation).
    pub fn quotient_tree(&self, module_probabilities: &[f64]) -> FaultTree {
        assert_eq!(module_probabilities.len(), self.modules.len());
        let events: Vec<BasicEvent> = self
            .slots
            .iter()
            .zip(&self.events)
            .map(|(slot, template)| match slot {
                QuotientSlot::Real(_) => template.clone(),
                QuotientSlot::Module(index) => {
                    let p = module_probabilities[*index].clamp(0.0, 1.0);
                    BasicEvent::new(
                        template.name().to_string(),
                        Probability::new(p).expect("clamped to [0, 1]"),
                    )
                }
            })
            .collect();
        FaultTree::from_parts(self.name.clone(), events, self.gates.clone(), self.top)
            .expect("the quotient of a valid tree is valid")
    }

    /// Expands a cut set of the quotient tree into all cut sets of the
    /// original tree it stands for, choosing for every pseudo-event one of
    /// the provided per-module cut sets (already over original identifiers).
    /// The surviving original events pass through unchanged. Returns `None`
    /// as soon as the cross-product would exceed `budget` sets — *before*
    /// materialising them, so a huge expansion costs no memory.
    fn expand(
        &self,
        quotient_cut: &CutSet,
        module_choices: &[Vec<CutSet>],
        budget: usize,
    ) -> Option<Vec<CutSet>> {
        let mut base = CutSet::new();
        let mut involved: Vec<usize> = Vec::new();
        for event in quotient_cut.iter() {
            match self.slots[event.index()] {
                QuotientSlot::Real(original) => {
                    base.insert(original);
                }
                QuotientSlot::Module(index) => involved.push(index),
            }
        }
        // The final size is the product of the choice-list lengths; check it
        // up front so the budget bounds allocation, not just the result.
        let mut total = 1usize;
        for &module in &involved {
            total = total.saturating_mul(module_choices[module].len());
            if total > budget {
                return None;
            }
        }
        let mut composed = vec![base];
        for module in involved {
            let choices = &module_choices[module];
            composed = composed
                .into_iter()
                .flat_map(|partial| {
                    choices.iter().map(move |choice| {
                        let mut cut = partial.clone();
                        cut.extend(choice.iter());
                        cut
                    })
                })
                .collect();
        }
        Some(composed)
    }
}

/// Splits `tree` at its maximal proper modules (modules with at least two
/// basic events that are not nested inside another selected module). Returns
/// `None` when there is nothing to split: the top is a bare event, or no
/// gate below the top is a sufficiently large module.
pub fn decompose(tree: &FaultTree) -> Option<ModularDecomposition> {
    let NodeId::Gate(top_gate) = tree.top() else {
        return None;
    };
    let module_gates: HashSet<GateId> = modules(tree).into_iter().collect();
    let supports = gate_event_support(tree);

    // Walk down from the top, stopping at the first (= maximal) module on
    // every path; everything visited stays in the quotient.
    let mut quotient_gates: Vec<GateId> = Vec::new();
    let mut seen_gates: HashSet<GateId> = HashSet::new();
    let mut selected: Vec<GateId> = Vec::new();
    let mut selected_set: HashSet<GateId> = HashSet::new();
    let mut stack = vec![top_gate];
    seen_gates.insert(top_gate);
    while let Some(gate) = stack.pop() {
        quotient_gates.push(gate);
        for &input in tree.gate(gate).inputs() {
            let NodeId::Gate(child) = input else { continue };
            let is_module = child != top_gate
                && module_gates.contains(&child)
                && supports[child.index()].len() >= MIN_MODULE_EVENTS;
            if is_module {
                if selected_set.insert(child) {
                    selected.push(child);
                }
            } else if seen_gates.insert(child) {
                stack.push(child);
            }
        }
    }
    if selected.is_empty() {
        return None;
    }
    // Deterministic module order regardless of traversal order.
    selected.sort_by_key(|g| g.index());
    quotient_gates.sort_by_key(|g| g.index());

    // Build each module piece over dense local identifiers.
    let pieces: Vec<ModulePiece> = selected
        .iter()
        .map(|&root| module_piece(tree, root))
        .collect();

    // Quotient events: the original events reachable without entering a
    // selected module, followed by one pseudo-event per module.
    let mut real_events: Vec<EventId> = quotient_gates
        .iter()
        .flat_map(|&g| tree.gate(g).inputs())
        .filter_map(|&input| match input {
            NodeId::Event(e) => Some(e),
            NodeId::Gate(_) => None,
        })
        .collect::<HashSet<_>>()
        .into_iter()
        .collect();
    real_events.sort_by_key(|e| e.index());

    let mut slots: Vec<QuotientSlot> = Vec::new();
    let mut events: Vec<BasicEvent> = Vec::new();
    let mut event_slot = vec![usize::MAX; tree.num_events()];
    for &original in &real_events {
        event_slot[original.index()] = slots.len();
        slots.push(QuotientSlot::Real(original));
        events.push(tree.event(original).clone());
    }
    let mut module_slot = vec![usize::MAX; tree.num_gates()];
    for (index, &root) in selected.iter().enumerate() {
        module_slot[root.index()] = slots.len();
        slots.push(QuotientSlot::Module(index));
        // Placeholder probability; `quotient_tree` substitutes the real one.
        events.push(BasicEvent::new(
            format!("module:{}", tree.gate(root).name()),
            Probability::new(0.5).expect("valid placeholder"),
        ));
    }

    // Quotient gates with remapped inputs.
    let mut gate_slot = vec![usize::MAX; tree.num_gates()];
    for (index, &g) in quotient_gates.iter().enumerate() {
        gate_slot[g.index()] = index;
    }
    let gates: Vec<Gate> = quotient_gates
        .iter()
        .map(|&g| {
            let gate = tree.gate(g);
            let inputs: Vec<NodeId> = gate
                .inputs()
                .iter()
                .map(|&input| match input {
                    NodeId::Event(e) => NodeId::Event(EventId::from_index(event_slot[e.index()])),
                    NodeId::Gate(child) if module_slot[child.index()] != usize::MAX => {
                        NodeId::Event(EventId::from_index(module_slot[child.index()]))
                    }
                    NodeId::Gate(child) => {
                        NodeId::Gate(GateId::from_index(gate_slot[child.index()]))
                    }
                })
                .collect();
            Gate::new(gate.name(), gate.kind(), inputs)
        })
        .collect();

    Some(ModularDecomposition {
        name: format!("quotient({})", tree.name()),
        slots,
        events,
        gates,
        top: NodeId::Gate(GateId::from_index(gate_slot[top_gate.index()])),
        modules: pieces,
    })
}

/// Extracts the subtree rooted at `root` as a standalone fault tree over
/// dense local identifiers.
fn module_piece(tree: &FaultTree, root: GateId) -> ModulePiece {
    let mut sub_gates: Vec<GateId> = Vec::new();
    let mut seen: HashSet<GateId> = HashSet::new();
    let mut stack = vec![root];
    seen.insert(root);
    while let Some(g) = stack.pop() {
        sub_gates.push(g);
        for &input in tree.gate(g).inputs() {
            if let NodeId::Gate(child) = input {
                if seen.insert(child) {
                    stack.push(child);
                }
            }
        }
    }
    sub_gates.sort_by_key(|g| g.index());
    let mut event_map: Vec<EventId> = sub_gates
        .iter()
        .flat_map(|&g| tree.gate(g).inputs())
        .filter_map(|&input| match input {
            NodeId::Event(e) => Some(e),
            NodeId::Gate(_) => None,
        })
        .collect::<HashSet<_>>()
        .into_iter()
        .collect();
    event_map.sort_by_key(|e| e.index());

    let mut local_event = vec![usize::MAX; tree.num_events()];
    for (local, &original) in event_map.iter().enumerate() {
        local_event[original.index()] = local;
    }
    let mut local_gate = vec![usize::MAX; tree.num_gates()];
    for (local, &original) in sub_gates.iter().enumerate() {
        local_gate[original.index()] = local;
    }
    let events: Vec<BasicEvent> = event_map.iter().map(|&e| tree.event(e).clone()).collect();
    let gates: Vec<Gate> = sub_gates
        .iter()
        .map(|&g| {
            let gate = tree.gate(g);
            let inputs: Vec<NodeId> = gate
                .inputs()
                .iter()
                .map(|&input| match input {
                    NodeId::Event(e) => NodeId::Event(EventId::from_index(local_event[e.index()])),
                    NodeId::Gate(child) => {
                        NodeId::Gate(GateId::from_index(local_gate[child.index()]))
                    }
                })
                .collect();
            Gate::new(gate.name(), gate.kind(), inputs)
        })
        .collect();
    let tree = FaultTree::from_parts(
        tree.gate(root).name().to_string(),
        events,
        gates,
        NodeId::Gate(GateId::from_index(local_gate[root.index()])),
    )
    .expect("a module subtree of a valid tree is valid");
    ModulePiece { tree, event_map }
}

/// The preprocessing pass manager as a backend wrapper: simplify, split at
/// modules, solve every piece through the wrapped engine, compose.
///
/// Composition preserves the canonical output order and the bit-exact
/// probability convention of [`BackendSolution::from_cut`], so a backend
/// with preprocessing on and off produces identical cut sets, orders and
/// probabilities — only timings and per-cut-set solver statistics differ
/// (per-cut-set statistics are not attributable across shared module solves
/// and are dropped for decomposed enumerations; the single-answer MPMCS
/// query reports the merged statistics of every piece instead).
pub struct PreprocessedBackend {
    inner: Box<dyn AnalysisBackend>,
    /// When set, every module solve consults the shared content-addressed
    /// cache first — this is where repeated isomorphic modules pay off
    /// within a single tree (and across trees sharing the cache).
    cache: Option<CacheHandle>,
}

impl PreprocessedBackend {
    /// Wraps an engine in the pass manager.
    pub fn new(inner: Box<dyn AnalysisBackend>) -> Self {
        PreprocessedBackend { inner, cache: None }
    }

    /// Wraps an engine in the pass manager with module-level memoization
    /// through the shared `cache`, keyed under `fingerprint` (see
    /// [`config_fingerprint`](crate::config_fingerprint)).
    pub fn with_cache(
        inner: Box<dyn AnalysisBackend>,
        cache: Arc<AnalysisCache>,
        fingerprint: u64,
    ) -> Self {
        PreprocessedBackend {
            inner,
            cache: Some(CacheHandle { cache, fingerprint }),
        }
    }

    /// A module enumeration, through the cache when one is attached.
    fn module_solutions(
        &self,
        piece: &ModulePiece,
        limit: Option<usize>,
        control: &QueryControl,
    ) -> Result<Enumerated, BackendError> {
        let solve = || self.enumerate(&piece.tree, limit, control);
        match &self.cache {
            Some(handle) => handle.enumeration(&piece.tree, limit, solve),
            None => solve(),
        }
    }

    /// A module MPMCS, through the cache when one is attached.
    fn module_best(&self, piece: &ModulePiece) -> Result<BackendSolution, BackendError> {
        match &self.cache {
            Some(handle) => handle.best(&piece.tree, || self.mpmcs(&piece.tree)),
            None => self.mpmcs(&piece.tree),
        }
    }

    /// A module top-event probability, through the cache when one is attached.
    fn module_probability(&self, piece: &ModulePiece) -> Result<f64, BackendError> {
        match &self.cache {
            Some(handle) => {
                handle.probability(&piece.tree, || self.top_event_probability(&piece.tree))
            }
            None => self.top_event_probability(&piece.tree),
        }
    }

    /// A module mission-time sweep, through the cache when one is attached.
    fn module_sweep(&self, piece: &ModulePiece, grid: &[f64]) -> Result<Vec<f64>, BackendError> {
        match &self.cache {
            Some(handle) => handle.curve(&piece.tree, grid, || {
                self.probability_sweep(&piece.tree, grid)
            }),
            None => self.probability_sweep(&piece.tree, grid),
        }
    }

    /// Merges the optional MaxSAT statistics of composed pieces (classical
    /// engines contribute nothing).
    fn merge_stats(pieces: &[Option<MaxSatStats>]) -> Option<MaxSatStats> {
        pieces.iter().flatten().cloned().reduce(|a, b| a.merged(&b))
    }

    /// Solves the per-module enumeration lists (over original identifiers)
    /// plus the quotient list for an enumeration query; `limit` bounds the
    /// per-module and quotient lists (top-k) or is `None` for all-MCS. A
    /// piece the control stops stops the whole query with an empty,
    /// labelled prefix; `None` sends the query to the whole tree instead:
    /// the top-k cross-product outgrew its budget, or the quotient's `k`-th
    /// and next solutions are too close in cost to tell which of them the
    /// tree's canonical top-k draws from.
    fn compose_enumeration(
        &self,
        tree: &FaultTree,
        decomposition: &ModularDecomposition,
        limit: Option<usize>,
        control: &QueryControl,
    ) -> Result<Option<Enumerated>, BackendError> {
        let start = Instant::now();
        let mut module_choices: Vec<Vec<CutSet>> = Vec::new();
        let mut module_best: Vec<f64> = Vec::new();
        let mut module_best_cost: Vec<u64> = Vec::new();
        for piece in &decomposition.modules {
            let module = self.module_solutions(piece, limit, control)?;
            if let Some(cause) = module.stopped {
                return Ok(Some(Enumerated::interrupted(cause)));
            }
            let best = &module.solutions[0];
            module_best.push(best.probability);
            module_best_cost.push(scaled_cut_cost(&piece.tree, &best.cut_set));
            module_choices.push(
                module
                    .solutions
                    .iter()
                    .map(|s| piece.to_original(&s.cut_set))
                    .collect(),
            );
        }
        let quotient = decomposition.quotient_tree(&module_best);
        // One quotient solution past `k` tells whether the `k`-th closes the
        // prefix the whole tree needs.
        let request = limit.map(|k| k.saturating_add(1));
        let mut quotient_answer = self.inner.enumerate(&quotient, request, control)?;
        if let Some(cause) = quotient_answer.stopped {
            return Ok(Some(Enumerated::interrupted(cause)));
        }
        if let Some(k) = limit.filter(|&k| quotient_answer.solutions.len() > k) {
            // Each pseudo-event (the quotient's last events) prices its
            // module's best cut set as one rounded scaled weight, while the
            // tree sums the rounded weights of that set's events, so a
            // quotient cost sits at most `slack` from the exact cost of its
            // best expansion. Unless the next quotient solution costs over
            // `2 * slack` more than the `k`-th, one of its expansions can tie
            // with (or undercut) the top-k, and the quotient breaks ties by
            // its own identifiers, not the tree's.
            let first_pseudo = quotient.num_events() - module_best_cost.len();
            let slack: u64 = module_best_cost
                .iter()
                .enumerate()
                .map(|(index, &exact)| {
                    let pseudo = std::iter::once(EventId::from_index(first_pseudo + index));
                    scaled_cut_cost(&quotient, &pseudo.collect()).abs_diff(exact)
                })
                .sum();
            let cost =
                |rank: usize| scaled_cut_cost(&quotient, &quotient_answer.solutions[rank].cut_set);
            if cost(k).saturating_sub(cost(k - 1)) <= slack.saturating_mul(2) {
                return Ok(None);
            }
            quotient_answer.solutions.truncate(k);
        }
        let mut composed: Vec<CutSet> = Vec::new();
        for quotient_solution in &quotient_answer.solutions {
            // Top-k composition is budgeted (the cross-product can outgrow
            // the requested work, in which case the caller solves the whole
            // tree instead); all-MCS expansion is the true answer size.
            let budget = match limit {
                Some(_) => TOP_K_COMPOSITION_BUDGET.saturating_sub(composed.len()),
                None => usize::MAX,
            };
            let Some(expanded) =
                decomposition.expand(&quotient_solution.cut_set, &module_choices, budget)
            else {
                return Ok(None);
            };
            composed.extend(expanded);
        }
        Ok(Some(Enumerated::complete(ranked(
            tree,
            composed,
            self.inner.name(),
            limit,
            start,
        ))))
    }
}

impl AnalysisBackend for PreprocessedBackend {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn mpmcs(&self, tree: &FaultTree) -> Result<BackendSolution, BackendError> {
        let start = Instant::now();
        let simplified = simplify(tree);
        let Some(decomposition) = decompose(&simplified) else {
            return self.inner.mpmcs(&simplified);
        };
        // Per-module optima; the quotient pseudo-event carries the module's
        // best cut-set probability, so maximising over the quotient
        // maximises over the whole tree.
        let mut module_best: Vec<BackendSolution> = Vec::new();
        for piece in &decomposition.modules {
            let mut best = self.module_best(piece)?;
            best.cut_set = piece.to_original(&best.cut_set);
            module_best.push(best);
        }
        let probabilities: Vec<f64> = module_best.iter().map(|s| s.probability).collect();
        let quotient = decomposition.quotient_tree(&probabilities);
        let quotient_solution = self.inner.mpmcs(&quotient)?;

        let mut stats: Vec<Option<MaxSatStats>> = vec![quotient_solution.stats.clone()];
        let mut cut = CutSet::new();
        for event in quotient_solution.cut_set.iter() {
            match decomposition.slots[event.index()] {
                QuotientSlot::Real(original) => {
                    cut.insert(original);
                }
                QuotientSlot::Module(index) => {
                    cut.extend(module_best[index].cut_set.iter());
                    stats.push(module_best[index].stats.clone());
                }
            }
        }
        let mut solution = BackendSolution::from_cut(tree, cut, quotient_solution.algorithm);
        solution.stats = Self::merge_stats(&stats);
        solution.duration = start.elapsed();
        Ok(solution)
    }

    fn enumerate(
        &self,
        tree: &FaultTree,
        limit: Option<usize>,
        control: &QueryControl,
    ) -> Result<Enumerated, BackendError> {
        if limit == Some(0) {
            return Ok(Enumerated::complete(Vec::new()));
        }
        let simplified = simplify(tree);
        let Some(decomposition) = decompose(&simplified) else {
            return self.inner.enumerate(&simplified, limit, control);
        };
        match self.compose_enumeration(tree, &decomposition, limit, control)? {
            Some(enumerated) => Ok(enumerated),
            None => self.inner.enumerate(&simplified, limit, control),
        }
    }

    fn top_event_probability(&self, tree: &FaultTree) -> Result<f64, BackendError> {
        let simplified = simplify(tree);
        let Some(decomposition) = decompose(&simplified) else {
            return self.inner.top_event_probability(&simplified);
        };
        // Exact composition: pseudo-events carry the exact module
        // probabilities, and modules are independent by construction.
        let mut probabilities: Vec<f64> = Vec::new();
        for piece in &decomposition.modules {
            probabilities.push(self.module_probability(piece)?);
        }
        let quotient = decomposition.quotient_tree(&probabilities);
        self.inner.top_event_probability(&quotient)
    }

    /// Simplification and modular decomposition are purely structural, so
    /// they run once for the whole grid; each module is then swept once
    /// through this pass manager's own incremental path (recursively
    /// re-decomposing it), and every timepoint only re-quantifies the small
    /// quotient tree — the exact composition the point query performs at
    /// that time.
    fn probability_sweep(&self, tree: &FaultTree, grid: &[f64]) -> Result<Vec<f64>, BackendError> {
        let simplified = simplify(tree);
        let Some(decomposition) = decompose(&simplified) else {
            return self.inner.probability_sweep(&simplified, grid);
        };
        let mut module_curves: Vec<Vec<f64>> = Vec::new();
        for piece in &decomposition.modules {
            module_curves.push(self.module_sweep(piece, grid)?);
        }
        let mut curve = Vec::with_capacity(grid.len());
        for (index, &t) in grid.iter().enumerate() {
            let probabilities: Vec<f64> = module_curves.iter().map(|curve| curve[index]).collect();
            let quotient = decomposition.quotient_tree(&probabilities).at_time(t);
            curve.push(self.inner.top_event_probability(&quotient)?);
        }
        Ok(curve)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{backend_for, BackendConfig, BackendKind};
    use fault_tree::examples::{
        aircraft_hydraulic_system, fire_protection_system, railway_level_crossing,
    };

    fn preprocessed(kind: BackendKind, tree: &FaultTree) -> Box<dyn AnalysisBackend> {
        backend_for(
            kind,
            tree,
            &BackendConfig {
                preprocess: true,
                ..BackendConfig::default()
            },
        )
        .1
    }

    #[test]
    fn the_fps_tree_decomposes_into_proper_modules() {
        let tree = fire_protection_system();
        let decomposition = decompose(&tree).expect("the FPS tree has proper modules");
        assert!(!decomposition.modules.is_empty());
        for piece in &decomposition.modules {
            assert!(piece.tree.validate().is_ok());
            assert!(piece.tree.num_events() >= MIN_MODULE_EVENTS);
            assert_eq!(piece.tree.num_events(), piece.event_map.len());
        }
        // The quotient with any probabilities is a valid tree.
        let quotient = decomposition.quotient_tree(&vec![0.25; decomposition.modules.len()]);
        assert!(quotient.validate().is_ok());
        assert!(quotient.num_events() < tree.num_events() + decomposition.modules.len());
    }

    #[test]
    fn shared_structures_do_not_decompose_across_the_sharing() {
        // The railway crossing shares a gate between two branches; the
        // shared gate is still a module and must end up split off, with the
        // sharing parents left in the quotient.
        let tree = railway_level_crossing();
        if let Some(decomposition) = decompose(&tree) {
            let quotient = decomposition.quotient_tree(&vec![0.5; decomposition.modules.len()]);
            assert!(quotient.validate().is_ok());
        }
    }

    #[test]
    fn preprocessing_preserves_every_query_on_the_examples() {
        for tree in [
            fire_protection_system(),
            railway_level_crossing(),
            aircraft_hydraulic_system(),
        ] {
            for kind in [BackendKind::MaxSat, BackendKind::Bdd, BackendKind::Mocus] {
                let raw = backend_for(kind, &tree, &BackendConfig::default()).1;
                let pre = preprocessed(kind, &tree);
                let raw_all = raw.all_mcs(&tree).expect("solvable");
                let pre_all = pre.all_mcs(&tree).expect("solvable");
                assert_eq!(raw_all.len(), pre_all.len(), "{kind} {}", tree.name());
                for (a, b) in raw_all.iter().zip(&pre_all) {
                    assert_eq!(a.cut_set, b.cut_set, "{kind} {}", tree.name());
                    assert_eq!(
                        a.probability.to_bits(),
                        b.probability.to_bits(),
                        "bit-exact probabilities: {kind} {}",
                        tree.name()
                    );
                }
                let raw_best = raw.mpmcs(&tree).expect("solvable");
                let pre_best = pre.mpmcs(&tree).expect("solvable");
                assert!((raw_best.probability - pre_best.probability).abs() < 1e-12);
                let raw_top2 = raw.top_k(&tree, 2).expect("solvable");
                let pre_top2 = pre.top_k(&tree, 2).expect("solvable");
                assert_eq!(
                    raw_top2
                        .iter()
                        .map(|s| s.cut_set.clone())
                        .collect::<Vec<_>>(),
                    pre_top2
                        .iter()
                        .map(|s| s.cut_set.clone())
                        .collect::<Vec<_>>(),
                );
                // Exact probability composes across modules (BDD is always
                // exact; MCS-based engines agree where in budget).
                if let (Ok(p_raw), Ok(p_pre)) = (
                    raw.top_event_probability(&tree),
                    pre.top_event_probability(&tree),
                ) {
                    assert!((p_raw - p_pre).abs() < 1e-12, "{kind} {}", tree.name());
                }
            }
        }
    }

    #[test]
    fn mpmcs_composition_merges_maxsat_statistics() {
        let tree = fire_protection_system();
        let pre = preprocessed(BackendKind::MaxSat, &tree);
        let best = pre.mpmcs(&tree).expect("solvable");
        let stats = best.stats.as_ref().expect("MaxSAT pieces carry statistics");
        assert!(stats.sat_calls > 0);
        assert_eq!(best.event_names(&tree), vec!["x1", "x2"]);
    }
}
