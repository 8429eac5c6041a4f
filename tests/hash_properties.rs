//! Property tests for the canonical tree hash (`fault_tree::tree_hash`)
//! over the full generated corpus: the digests the analysis cache keys on
//! must be invariant under the renamings and commutative reorderings that
//! leave the analysis answers unchanged, must react to any probability
//! change, and must not collide across distinct generated workloads. The
//! form a tree keeps (`FaultTree::canonical`, what the cache reads) must be
//! exactly the one computed from scratch.

use fault_tree::{
    canonical_form, tree_hash, BasicEvent, EventId, FaultTree, Gate, NodeId, Probability, TreeHash,
};
use ft_generators::{benchmark_suite, shared_module_tree, Family, RandomTreeConfig};

/// A modest cross-section of every generator in the crate: all structural
/// families at several sizes and seeds, plus the named benchmark workloads.
fn corpus() -> Vec<(String, FaultTree)> {
    let mut trees: Vec<(String, FaultTree)> = Vec::new();
    for family in Family::all() {
        for size in [60usize, 140] {
            for seed in [1u64, 2, 3] {
                trees.push((
                    format!("{}-{size}-{seed}", family.name()),
                    family.generate(size, seed),
                ));
            }
        }
    }
    for (name, tree) in benchmark_suite(5) {
        trees.push((name, tree));
    }
    trees.push((
        "shared-modules-4x3x6".to_string(),
        shared_module_tree(4, 3, 6, 9),
    ));
    trees
}

/// An isomorphic twin: every event and gate renamed, the event table
/// reversed (so every `EventId` changes), and every gate's child list
/// reversed (gates are commutative: AND, OR and k-of-n voting are all
/// order-insensitive).
fn isomorphic_twin(tree: &FaultTree) -> FaultTree {
    let num_events = tree.num_events();
    let remap = |node: NodeId| match node {
        NodeId::Event(e) => NodeId::Event(EventId::from_index(num_events - 1 - e.index())),
        gate => gate,
    };
    let events: Vec<BasicEvent> = tree
        .event_ids()
        .collect::<Vec<_>>()
        .into_iter()
        .rev()
        .enumerate()
        .map(|(i, e)| BasicEvent::new(format!("twin_e{i}"), tree.event(e).probability()))
        .collect();
    let gates: Vec<Gate> = tree
        .gate_ids()
        .map(|g| {
            let gate = tree.gate(g);
            let inputs: Vec<NodeId> = gate.inputs().iter().rev().map(|&n| remap(n)).collect();
            Gate::new(format!("twin_g{}", g.index()), gate.kind(), inputs)
        })
        .collect();
    FaultTree::from_parts(
        format!("twin:{}", tree.name()),
        events,
        gates,
        remap(tree.top()),
    )
    .expect("isomorphic twins are valid")
}

/// Renaming everything, renumbering every event and reversing every
/// commutative child list preserves both digests on the whole corpus.
#[test]
fn isomorphic_twins_hash_identically_across_the_corpus() {
    for (name, tree) in corpus() {
        let twin = isomorphic_twin(&tree);
        assert_eq!(
            tree_hash(&tree),
            tree_hash(&twin),
            "{name}: an isomorphic twin must hash identically"
        );
    }
}

/// The canonical form each tree keeps equals a from-scratch
/// `canonical_form` — digests, event order and event ranks — on every corpus
/// tree and on its isomorphic twin.
#[test]
fn the_kept_canonical_form_equals_a_fresh_one_across_the_corpus() {
    for (name, tree) in corpus() {
        let twin = isomorphic_twin(&tree);
        for (label, tree) in [("tree", &tree), ("twin", &twin)] {
            let kept = tree.canonical();
            let fresh = canonical_form(tree);
            assert_eq!(kept.hash, fresh.hash, "{name}/{label}: hash");
            assert_eq!(
                kept.event_order, fresh.event_order,
                "{name}/{label}: event order"
            );
            assert_eq!(
                kept.event_rank, fresh.event_rank,
                "{name}/{label}: event rank"
            );
        }
    }
}

/// Nudging any single event probability changes the weighted digest and
/// leaves the structure digest alone — on every corpus tree, for the first,
/// middle and last event.
#[test]
fn probability_changes_alter_exactly_the_weighted_digest() {
    for (name, tree) in corpus() {
        let base = tree_hash(&tree);
        let ids: Vec<EventId> = tree.event_ids().collect();
        for &victim in [ids[0], ids[ids.len() / 2], ids[ids.len() - 1]].iter() {
            let events: Vec<BasicEvent> = tree
                .event_ids()
                .map(|e| {
                    let p = tree.event(e).probability().value();
                    let p = if e == victim { (p * 1.5).min(0.999) } else { p };
                    BasicEvent::new(
                        tree.event(e).name().to_string(),
                        Probability::new(p).expect("perturbed probability stays valid"),
                    )
                })
                .collect();
            let gates: Vec<Gate> = tree
                .gate_ids()
                .map(|g| {
                    let gate = tree.gate(g);
                    Gate::new(gate.name().to_string(), gate.kind(), gate.inputs().to_vec())
                })
                .collect();
            let nudged = FaultTree::from_parts(tree.name(), events, gates, tree.top())
                .expect("perturbed tree is valid");
            let hash = tree_hash(&nudged);
            assert_eq!(
                base.structure, hash.structure,
                "{name}: probabilities must not touch the structure digest"
            );
            assert_ne!(
                base.weighted, hash.weighted,
                "{name}: event {victim:?} changed but the weighted digest did not"
            );
        }
    }
}

/// Zero collisions across the full corpus: distinct generated workloads get
/// distinct `(structure, weighted)` digests.
#[test]
fn the_generated_corpus_has_no_hash_collisions() {
    let corpus = corpus();
    let hashes: Vec<(String, TreeHash)> = corpus
        .iter()
        .map(|(name, tree)| (name.clone(), tree_hash(tree)))
        .collect();
    for (i, (name_a, hash_a)) in hashes.iter().enumerate() {
        for (name_b, hash_b) in &hashes[i + 1..] {
            assert_ne!(
                hash_a, hash_b,
                "corpus collision between {name_a} and {name_b}"
            );
        }
    }
    assert!(
        hashes.len() > 40,
        "the corpus must stay a real cross-section (got {})",
        hashes.len()
    );
}

/// Sharing-awareness on a generated DAG: replacing one genuinely shared
/// event with a fresh copy of identical probability keeps the local shapes
/// but must change both digests (the cut-set semantics differ).
#[test]
fn unsharing_an_event_changes_the_digests() {
    let config = RandomTreeConfig {
        shared_event_ratio: 0.5,
        ..RandomTreeConfig::default()
    };
    let tree = ft_generators::random_tree(&config, 13);
    // Find an event feeding two different gates.
    let shared = tree
        .event_ids()
        .find(|&e| {
            tree.gate_ids()
                .filter(|&g| tree.gate(g).inputs().contains(&NodeId::Event(e)))
                .count()
                >= 2
        })
        .expect("a 50% sharing ratio produces shared events");
    let host = tree
        .gate_ids()
        .find(|&g| tree.gate(g).inputs().contains(&NodeId::Event(shared)))
        .expect("the shared event has a host gate");
    let fresh = EventId::from_index(tree.num_events());
    let mut events: Vec<BasicEvent> = tree
        .event_ids()
        .map(|e| {
            BasicEvent::new(
                tree.event(e).name().to_string(),
                tree.event(e).probability(),
            )
        })
        .collect();
    events.push(BasicEvent::new(
        "unshared_copy",
        tree.event(shared).probability(),
    ));
    let gates: Vec<Gate> = tree
        .gate_ids()
        .map(|g| {
            let gate = tree.gate(g);
            let inputs: Vec<NodeId> = gate
                .inputs()
                .iter()
                .map(|&n| {
                    if g == host && n == NodeId::Event(shared) {
                        NodeId::Event(fresh)
                    } else {
                        n
                    }
                })
                .collect();
            Gate::new(gate.name().to_string(), gate.kind(), inputs)
        })
        .collect();
    let unshared = FaultTree::from_parts("unshared", events, gates, tree.top())
        .expect("the unshared variant is valid");
    let a = tree_hash(&tree);
    let b = tree_hash(&unshared);
    assert_ne!(a.structure, b.structure, "sharing must be structural");
    assert_ne!(a.weighted, b.weighted);
}
