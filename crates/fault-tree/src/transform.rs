//! Structure-preserving fault-tree transformations.
//!
//! Two transformations used throughout classical FTA tooling and by the
//! paper's Step 1:
//!
//! * [`simplify`] — normalises a tree without changing its structure
//!   function: nested gates of the same kind are flattened, duplicate inputs
//!   are removed, and single-input gates are collapsed. Parsers and random
//!   generators can produce redundant structure; simplification reduces the
//!   encoding size downstream.
//! * [`success_tree`] — materialises the paper's *success tree*: the dual
//!   tree in which every gate is replaced by its dual (AND ↔ OR, `k/n` ↔
//!   `(n−k+1)/n`) and every basic event is reinterpreted as its complement
//!   ("component works" instead of "component fails"), with probability
//!   `1 − p`. Its structure function over the complemented events equals the
//!   negation of the original structure function.

use std::collections::HashMap;

use crate::event::BasicEvent;
use crate::gate::{Gate, GateId, GateKind};
use crate::tree::{FaultTree, NodeId};

/// Returns a semantically equivalent tree with flattened gates, deduplicated
/// inputs and no single-input gates (unless the top itself reduces to a
/// single node).
///
/// The set of basic events and their identifiers are preserved, so cut sets
/// are directly comparable between the original and the simplified tree.
pub fn simplify(tree: &FaultTree) -> FaultTree {
    // Resolve each gate to a simplified node expressed over the original
    // events and freshly rebuilt gates.
    let mut gates: Vec<Gate> = Vec::new();
    let mut memo: HashMap<GateId, NodeId> = HashMap::new();

    fn resolve(
        tree: &FaultTree,
        node: NodeId,
        gates: &mut Vec<Gate>,
        memo: &mut HashMap<GateId, NodeId>,
    ) -> NodeId {
        match node {
            NodeId::Event(e) => NodeId::Event(e),
            NodeId::Gate(g) => {
                if let Some(&resolved) = memo.get(&g) {
                    return resolved;
                }
                let gate = tree.gate(g);
                let kind = gate.kind();
                let mut inputs: Vec<NodeId> = Vec::new();
                for &input in gate.inputs() {
                    let resolved = resolve(tree, input, gates, memo);
                    // Flatten same-kind AND/OR children (not voting gates:
                    // their semantics are not associative).
                    let flattened = match (kind, resolved) {
                        (GateKind::And, NodeId::Gate(child))
                        | (GateKind::Or, NodeId::Gate(child))
                            if gates[child.index()].kind() == kind =>
                        {
                            gates[child.index()].inputs().to_vec()
                        }
                        _ => vec![resolved],
                    };
                    for candidate in flattened {
                        if !inputs.contains(&candidate) {
                            inputs.push(candidate);
                        }
                    }
                }
                let resolved = if inputs.len() == 1 && matches!(kind, GateKind::And | GateKind::Or)
                {
                    inputs[0]
                } else {
                    let id = GateId::from_index(gates.len());
                    gates.push(Gate::new(gate.name(), kind, inputs));
                    NodeId::Gate(id)
                };
                memo.insert(g, resolved);
                resolved
            }
        }
    }

    let top = resolve(tree, tree.top(), &mut gates, &mut memo);

    // Garbage-collect gates that flattening made unreachable from the top,
    // remapping the surviving gate identifiers to a dense range.
    let mut reachable = vec![false; gates.len()];
    let mut stack = vec![top];
    while let Some(node) = stack.pop() {
        if let NodeId::Gate(g) = node {
            if !reachable[g.index()] {
                reachable[g.index()] = true;
                stack.extend(gates[g.index()].inputs().iter().copied());
            }
        }
    }
    let mut remap: HashMap<GateId, GateId> = HashMap::new();
    let mut kept: Vec<Gate> = Vec::new();
    for (index, gate) in gates.iter().enumerate() {
        if reachable[index] {
            remap.insert(GateId::from_index(index), GateId::from_index(kept.len()));
            kept.push(gate.clone());
        }
    }
    let remap_node = |node: NodeId| match node {
        NodeId::Gate(g) => NodeId::Gate(remap[&g]),
        event => event,
    };
    let kept: Vec<Gate> = kept
        .into_iter()
        .map(|gate| {
            Gate::new(
                gate.name(),
                gate.kind(),
                gate.inputs()
                    .iter()
                    .map(|&input| remap_node(input))
                    .collect(),
            )
        })
        .collect();
    let top = remap_node(top);
    FaultTree::from_parts(tree.name(), tree.events().to_vec(), kept, top)
        .expect("simplification preserves validity")
}

/// Materialises the success tree (paper Step 1): the dual of the fault tree.
///
/// Every gate is replaced by its dual and every basic event `x` ("component
/// fails", probability `p`) becomes the complemented event "`x` does not
/// occur" with probability `1 − p`. Evaluating the success tree on the
/// complemented occurrence vector gives the negation of the original
/// structure function — the property the MaxSAT encoding relies on.
pub fn success_tree(tree: &FaultTree) -> FaultTree {
    let events: Vec<BasicEvent> = tree
        .events()
        .iter()
        .map(|event| {
            BasicEvent::new(
                format!("not({})", event.name()),
                event.probability().complement(),
            )
        })
        .collect();
    let gates: Vec<Gate> = tree
        .gates()
        .iter()
        .map(|gate| {
            Gate::new(
                format!("dual({})", gate.name()),
                gate.kind().dual(gate.inputs().len()),
                gate.inputs().to_vec(),
            )
        })
        .collect();
    FaultTree::from_parts(
        format!("success({})", tree.name()),
        events,
        gates,
        tree.top(),
    )
    .expect("the dual of a valid tree is valid")
}

/// Materialises the *dual structure* of the fault tree: every gate is
/// replaced by its dual (AND ↔ OR, `k/n` ↔ `(n−k+1)/n`) while the basic
/// events are kept **unchanged** (same names, same probabilities).
///
/// The minimal cut sets of the dual structure are exactly the minimal *path
/// sets* of the original tree: inclusion-minimal sets of events whose joint
/// non-occurrence guarantees that the top event cannot occur. This is the
/// transformation used by `ft-analysis`' path-set module; the MaxSAT
/// path-set queries run on the [`success_tree`] instead, whose event
/// probabilities are the reliabilities.
///
/// Unlike [`success_tree`], which reinterprets events as their complements
/// (probability `1 − p`), the dual structure is still a formula over the
/// original failure events; only the gates change.
pub fn dual_structure(tree: &FaultTree) -> FaultTree {
    let gates: Vec<Gate> = tree
        .gates()
        .iter()
        .map(|gate| {
            Gate::new(
                format!("dual({})", gate.name()),
                gate.kind().dual(gate.inputs().len()),
                gate.inputs().to_vec(),
            )
        })
        .collect();
    FaultTree::from_parts(
        format!("dual({})", tree.name()),
        tree.events().to_vec(),
        gates,
        tree.top(),
    )
    .expect("the dual of a valid tree is valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::examples::{fire_protection_system, redundant_sensor_network};
    use crate::tree::FaultTreeBuilder;

    fn assert_equivalent(a: &FaultTree, b: &FaultTree) {
        assert_eq!(a.num_events(), b.num_events());
        let n = a.num_events();
        assert!(n <= 16);
        for mask in 0..(1u32 << n) {
            let occurred: Vec<bool> = (0..n).map(|i| mask & (1 << i) != 0).collect();
            assert_eq!(
                a.evaluate(&occurred),
                b.evaluate(&occurred),
                "mask {mask:b}"
            );
        }
    }

    #[test]
    fn simplify_preserves_the_structure_function() {
        for tree in [fire_protection_system(), redundant_sensor_network()] {
            let simplified = simplify(&tree);
            assert!(simplified.validate().is_ok());
            assert_equivalent(&tree, &simplified);
        }
    }

    #[test]
    fn simplify_flattens_nested_or_gates_and_removes_duplicates() {
        let mut b = FaultTreeBuilder::new("nested");
        let x = b.basic_event("x", 0.1).unwrap();
        let y = b.basic_event("y", 0.2).unwrap();
        let z = b.basic_event("z", 0.3).unwrap();
        let inner = b.or_gate("inner", [x.into(), y.into()]).unwrap();
        let middle = b.or_gate("middle", [inner.into(), y.into()]).unwrap();
        let single = b.or_gate("single", [z.into()]).unwrap();
        let top = b
            .or_gate("top", [middle.into(), single.into(), z.into()])
            .unwrap();
        let tree = b.build(top.into()).unwrap();
        let simplified = simplify(&tree);
        assert_equivalent(&tree, &simplified);
        // Everything collapses into a single OR over {x, y, z}.
        assert_eq!(simplified.num_gates(), 1);
        assert_eq!(simplified.gates()[0].inputs().len(), 3);
    }

    #[test]
    fn simplify_collapses_single_input_chains_to_an_event_top() {
        let mut b = FaultTreeBuilder::new("chain");
        let x = b.basic_event("x", 0.5).unwrap();
        let g1 = b.or_gate("g1", [x.into()]).unwrap();
        let g2 = b.and_gate("g2", [g1.into()]).unwrap();
        let tree = b.build(g2.into()).unwrap();
        let simplified = simplify(&tree);
        assert_eq!(simplified.num_gates(), 0);
        assert!(matches!(simplified.top(), NodeId::Event(_)));
        assert_equivalent(&tree, &simplified);
    }

    #[test]
    fn simplify_does_not_flatten_voting_gates() {
        let mut b = FaultTreeBuilder::new("vote");
        let events: Vec<_> = (0..4)
            .map(|i| b.basic_event(format!("e{i}"), 0.1).unwrap())
            .collect();
        let inner = b
            .voting_gate("inner", 2, events[..3].iter().map(|&e| e.into()))
            .unwrap();
        let top = b
            .voting_gate("top", 2, [inner.into(), events[3].into(), events[0].into()])
            .unwrap();
        let tree = b.build(top.into()).unwrap();
        let simplified = simplify(&tree);
        assert_eq!(simplified.num_gates(), 2);
        assert_equivalent(&tree, &simplified);
    }

    #[test]
    fn success_tree_is_the_complement_of_the_fault_tree() {
        for tree in [fire_protection_system(), redundant_sensor_network()] {
            let dual = success_tree(&tree);
            assert!(dual.validate().is_ok());
            assert_eq!(dual.num_events(), tree.num_events());
            let n = tree.num_events();
            for mask in 0..(1u32 << n) {
                let occurred: Vec<bool> = (0..n).map(|i| mask & (1 << i) != 0).collect();
                let complemented: Vec<bool> = occurred.iter().map(|b| !b).collect();
                assert_eq!(
                    dual.evaluate(&complemented),
                    !tree.evaluate(&occurred),
                    "{} mask {mask:b}",
                    tree.name()
                );
            }
        }
    }

    #[test]
    fn dual_structure_evaluates_to_the_dual_boolean_function() {
        // f*(x) = ¬f(¬x): the dual structure on an assignment equals the
        // negation of the original on the complemented assignment.
        for tree in [fire_protection_system(), redundant_sensor_network()] {
            let dual = dual_structure(&tree);
            assert!(dual.validate().is_ok());
            assert_eq!(dual.num_events(), tree.num_events());
            let x1 = tree.events()[0].clone();
            assert_eq!(dual.events()[0].name(), x1.name());
            assert_eq!(
                dual.events()[0].probability().value(),
                x1.probability().value()
            );
            let n = tree.num_events();
            for mask in 0..(1u32 << n) {
                let occurred: Vec<bool> = (0..n).map(|i| mask & (1 << i) != 0).collect();
                let complemented: Vec<bool> = occurred.iter().map(|b| !b).collect();
                assert_eq!(
                    dual.evaluate(&occurred),
                    !tree.evaluate(&complemented),
                    "{} mask {mask:b}",
                    tree.name()
                );
            }
        }
    }

    #[test]
    fn dual_of_the_dual_is_the_original_function() {
        let tree = redundant_sensor_network();
        let twice = dual_structure(&dual_structure(&tree));
        let n = tree.num_events();
        for mask in 0..(1u32 << n) {
            let occurred: Vec<bool> = (0..n).map(|i| mask & (1 << i) != 0).collect();
            assert_eq!(twice.evaluate(&occurred), tree.evaluate(&occurred));
        }
    }

    #[test]
    fn success_tree_complements_names_and_probabilities() {
        let tree = fire_protection_system();
        let dual = success_tree(&tree);
        let x1 = tree.event_by_name("x1").unwrap();
        assert_eq!(dual.event(x1).name(), "not(x1)");
        assert!((dual.event(x1).probability().value() - 0.8).abs() < 1e-12);
        assert!(dual.name().contains("success"));
    }
}
