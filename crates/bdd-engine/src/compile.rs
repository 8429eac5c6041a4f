//! Compiling fault trees into BDDs.

use std::collections::HashMap;

use fault_tree::{EventId, FaultTree, GateId, GateKind, NodeId};

use crate::bdd::{Bdd, BddRef, ProbabilityScratch};

/// The variable ordering used when compiling a fault tree.
///
/// BDD sizes are extremely sensitive to the ordering; the depth-first
/// ordering (events ordered by their first occurrence in a depth-first
/// traversal from the top) is the classic structural heuristic for fault
/// trees and is the default used by [`compile_fault_tree`] callers.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum VariableOrdering {
    /// Events keep their declaration order (`EventId` order).
    Natural,
    /// Events are ordered by first occurrence in a depth-first traversal of
    /// the tree from the top node.
    #[default]
    DepthFirst,
}

impl VariableOrdering {
    /// The stable command-line name of the ordering (`"natural"` /
    /// `"depth-first"`), as accepted by [`VariableOrdering::parse`].
    pub fn name(&self) -> &'static str {
        match self {
            VariableOrdering::Natural => "natural",
            VariableOrdering::DepthFirst => "depth-first",
        }
    }

    /// Parses a command-line ordering name. Accepts the canonical names from
    /// [`VariableOrdering::name`] plus common aliases (`"dfs"`,
    /// `"declaration"`).
    pub fn parse(name: &str) -> Option<VariableOrdering> {
        match name {
            "natural" | "declaration" => Some(VariableOrdering::Natural),
            "depth-first" | "dfs" => Some(VariableOrdering::DepthFirst),
            _ => None,
        }
    }
}

/// A fault tree compiled to a BDD.
#[derive(Clone, Debug)]
pub struct CompiledTree {
    bdd: Bdd,
    root: BddRef,
    /// `level_of_event[event] = level`.
    level_of_event: Vec<usize>,
    /// `event_of_level[level] = event`.
    event_of_level: Vec<EventId>,
}

/// Compiles `tree` into a BDD under the given variable ordering.
pub fn compile_fault_tree(tree: &FaultTree, ordering: VariableOrdering) -> CompiledTree {
    let order = event_order(tree, ordering);
    let mut level_of_event = vec![0usize; tree.num_events()];
    for (level, &event) in order.iter().enumerate() {
        level_of_event[event.index()] = level;
    }
    let mut bdd = Bdd::new(tree.num_events());
    let mut cache: HashMap<GateId, BddRef> = HashMap::new();
    let root = compile_node(tree, tree.top(), &level_of_event, &mut bdd, &mut cache);
    CompiledTree {
        bdd,
        root,
        level_of_event,
        event_of_level: order,
    }
}

/// The events of `tree` in level order under `ordering` (shared with the
/// ZBDD compiler).
pub(crate) fn event_order(tree: &FaultTree, ordering: VariableOrdering) -> Vec<EventId> {
    match ordering {
        VariableOrdering::Natural => tree.event_ids().collect(),
        VariableOrdering::DepthFirst => {
            let mut seen = vec![false; tree.num_events()];
            let mut seen_gates = vec![false; tree.num_gates()];
            let mut order = Vec::with_capacity(tree.num_events());
            fn visit(
                tree: &FaultTree,
                node: NodeId,
                seen: &mut [bool],
                seen_gates: &mut [bool],
                order: &mut Vec<EventId>,
            ) {
                match node {
                    NodeId::Event(e) => {
                        if !seen[e.index()] {
                            seen[e.index()] = true;
                            order.push(e);
                        }
                    }
                    NodeId::Gate(g) => {
                        if seen_gates[g.index()] {
                            return;
                        }
                        seen_gates[g.index()] = true;
                        for &input in tree.gate(g).inputs() {
                            visit(tree, input, seen, seen_gates, order);
                        }
                    }
                }
            }
            visit(tree, tree.top(), &mut seen, &mut seen_gates, &mut order);
            // Events unreachable from the top still need a level.
            for e in tree.event_ids() {
                if !seen[e.index()] {
                    order.push(e);
                }
            }
            order
        }
    }
}

fn compile_node(
    tree: &FaultTree,
    node: NodeId,
    level_of_event: &[usize],
    bdd: &mut Bdd,
    cache: &mut HashMap<GateId, BddRef>,
) -> BddRef {
    match node {
        NodeId::Event(e) => bdd.var(level_of_event[e.index()]),
        NodeId::Gate(g) => {
            if let Some(&cached) = cache.get(&g) {
                return cached;
            }
            let gate = tree.gate(g);
            let children: Vec<BddRef> = gate
                .inputs()
                .iter()
                .map(|&input| compile_node(tree, input, level_of_event, bdd, cache))
                .collect();
            let result = match gate.kind() {
                GateKind::And => children
                    .iter()
                    .copied()
                    .fold(Bdd::constant(true), |acc, child| bdd.and(acc, child)),
                GateKind::Or => children
                    .iter()
                    .copied()
                    .fold(Bdd::constant(false), |acc, child| bdd.or(acc, child)),
                GateKind::Vot { k } => bdd.at_least(k, &children),
            };
            cache.insert(g, result);
            result
        }
    }
}

impl CompiledTree {
    /// The underlying BDD manager.
    pub fn bdd(&self) -> &Bdd {
        &self.bdd
    }

    /// The root of the compiled structure function.
    pub fn root(&self) -> BddRef {
        self.root
    }

    /// The BDD level assigned to an event.
    pub fn level_of(&self, event: EventId) -> usize {
        self.level_of_event[event.index()]
    }

    /// The event assigned to a BDD level.
    pub fn event_at(&self, level: usize) -> EventId {
        self.event_of_level[level]
    }

    /// Number of internal BDD nodes of the compiled function.
    pub fn size(&self) -> usize {
        self.bdd.size(self.root)
    }

    /// Evaluates the structure function on an occurrence vector indexed by
    /// [`EventId`].
    pub fn evaluate(&self, occurred: &[bool]) -> bool {
        let by_level: Vec<bool> = self
            .event_of_level
            .iter()
            .map(|e| occurred[e.index()])
            .collect();
        self.bdd.evaluate(self.root, &by_level)
    }

    /// Exact top-event probability under the event probabilities of `tree`
    /// (Shannon decomposition; no rare-event approximation involved).
    pub fn top_event_probability(&self, tree: &FaultTree) -> f64 {
        let by_level: Vec<f64> = self
            .event_of_level
            .iter()
            .map(|e| tree.event(*e).probability().value())
            .collect();
        self.bdd.probability(self.root, &by_level)
    }

    /// Creates a reusable requantifier over this compiled diagram.
    ///
    /// A sweep compiles the structure once and then calls
    /// [`Requantifier::probability_with`] per timepoint, which touches no
    /// BDD construction code and allocates nothing after the first call.
    pub fn requantifier(&self) -> Requantifier<'_> {
        Requantifier {
            compiled: self,
            scratch: ProbabilityScratch::new(),
            by_level: vec![0.0; self.event_of_level.len()],
        }
    }
}

/// Incremental requantification state for one [`CompiledTree`]: the shared
/// diagram plus a preallocated probability memo and per-level buffer.
///
/// Because both [`VariableOrdering`]s are purely structural, the same
/// compiled diagram serves every timepoint of a mission-time sweep; each
/// point only rewrites the leaf probabilities. Results are bit-identical to
/// [`CompiledTree::top_event_probability`] on a tree carrying the same
/// per-event probabilities.
#[derive(Clone, Debug)]
pub struct Requantifier<'a> {
    compiled: &'a CompiledTree,
    scratch: ProbabilityScratch,
    by_level: Vec<f64>,
}

impl Requantifier<'_> {
    /// Re-evaluates the top-event probability with `probability_of`
    /// supplying each event's probability for this quantification.
    pub fn probability_with(&mut self, mut probability_of: impl FnMut(EventId) -> f64) -> f64 {
        for (level, &event) in self.compiled.event_of_level.iter().enumerate() {
            self.by_level[level] = probability_of(event);
        }
        self.compiled
            .bdd
            .probability_with(self.compiled.root, &self.by_level, &mut self.scratch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fault_tree::examples::{
        fire_protection_system, pressure_tank_system, redundant_sensor_network,
    };

    fn assert_bdd_matches_tree(tree: &FaultTree, ordering: VariableOrdering) {
        let compiled = compile_fault_tree(tree, ordering);
        let n = tree.num_events();
        assert!(n <= 16);
        for mask in 0..(1u32 << n) {
            let occurred: Vec<bool> = (0..n).map(|i| mask & (1 << i) != 0).collect();
            assert_eq!(
                compiled.evaluate(&occurred),
                tree.evaluate(&occurred),
                "{} mask {mask:b} ({ordering:?})",
                tree.name()
            );
        }
    }

    #[test]
    fn compiled_bdd_agrees_with_the_structure_function() {
        for tree in [
            fire_protection_system(),
            pressure_tank_system(),
            redundant_sensor_network(),
        ] {
            assert_bdd_matches_tree(&tree, VariableOrdering::Natural);
            assert_bdd_matches_tree(&tree, VariableOrdering::DepthFirst);
        }
    }

    #[test]
    fn exact_probability_of_the_fire_protection_system() {
        let tree = fire_protection_system();
        let compiled = compile_fault_tree(&tree, VariableOrdering::DepthFirst);
        // Exact value: P = 1 - (1 - 0.02)(1 - P_suppression),
        // P_trigger = 0.05 * (1 - 0.9*0.95) = 0.05 * 0.145 = 0.00725
        // P_suppression = 1 - (1-0.001)(1-0.002)(1-0.00725) = 0.010205...
        let p_trigger = 0.05 * (1.0 - 0.9 * 0.95);
        let p_suppr = 1.0 - (1.0 - 0.001) * (1.0 - 0.002) * (1.0 - p_trigger);
        let expected = 1.0 - (1.0 - 0.02) * (1.0 - p_suppr);
        let got = compiled.top_event_probability(&tree);
        assert!(
            (got - expected).abs() < 1e-12,
            "got {got}, expected {expected}"
        );
    }

    #[test]
    fn orderings_give_equivalent_functions_with_possibly_different_sizes() {
        let tree = pressure_tank_system();
        let natural = compile_fault_tree(&tree, VariableOrdering::Natural);
        let dfs = compile_fault_tree(&tree, VariableOrdering::DepthFirst);
        assert!(natural.size() >= 1);
        assert!(dfs.size() >= 1);
        assert!(
            (natural.top_event_probability(&tree) - dfs.top_event_probability(&tree)).abs() < 1e-15
        );
    }

    #[test]
    fn requantification_is_bit_identical_to_fresh_quantification() {
        for ordering in [VariableOrdering::Natural, VariableOrdering::DepthFirst] {
            let tree = pressure_tank_system();
            let compiled = compile_fault_tree(&tree, ordering);
            let mut requantifier = compiled.requantifier();
            // Sweep a family of probability assignments through one shared
            // scratch and compare each against a fresh point quantification.
            for step in 0..50 {
                let t = step as f64 / 10.0;
                let scale = 1.0 - (-t).exp();
                let fresh = {
                    let by_level: Vec<f64> = (0..tree.num_events())
                        .map(|level| {
                            let e = compiled.event_at(level);
                            tree.event(e).probability().value() * scale
                        })
                        .collect();
                    compiled.bdd().probability(compiled.root(), &by_level)
                };
                let swept =
                    requantifier.probability_with(|e| tree.event(e).probability().value() * scale);
                assert_eq!(
                    swept.to_bits(),
                    fresh.to_bits(),
                    "step {step} ({ordering:?})"
                );
            }
        }
    }

    #[test]
    fn level_and_event_mappings_are_inverse() {
        let tree = fire_protection_system();
        let compiled = compile_fault_tree(&tree, VariableOrdering::DepthFirst);
        for event in tree.event_ids() {
            assert_eq!(compiled.event_at(compiled.level_of(event)), event);
        }
    }
}
