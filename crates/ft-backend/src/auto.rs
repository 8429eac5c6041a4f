//! The `auto` backend-selection heuristic.
//!
//! The choice is driven by cheap structural features only — no compilation,
//! no solving — so selection cost is negligible against any actual query.
//! The rules encode the paper's empirical picture: the classical engines win
//! on trees whose cut-set family (MOCUS) or diagram (BDD) stays small, while
//! the MaxSAT pipeline is the only one whose cost does not grow with the
//! number of cut sets.

use std::collections::HashMap;

use fault_tree::{FaultTree, GateKind, NodeId};
use ft_analysis::modules::modules;

use crate::BackendKind;

/// Above this structural cut-set estimate, MOCUS expansion is not attempted.
const MOCUS_MAX_MCS_ESTIMATE: u64 = 4_096;
/// MOCUS is only auto-picked for trees up to this many basic events.
const MOCUS_MAX_EVENTS: usize = 200;
/// The BDD engine is auto-picked up to this estimated diagram width.
const BDD_MAX_WIDTH_ESTIMATE: u64 = 1 << 22;

/// Cheap structural features of a fault tree, used by [`choose_backend`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StructuralFeatures {
    /// Number of basic events.
    pub num_events: usize,
    /// Number of gates.
    pub num_gates: usize,
    /// Longest event-to-top path length.
    pub depth: usize,
    /// Number of gates that are independent modules.
    pub num_modules: usize,
    /// Basic events referenced by more than one gate — the sharing that
    /// breaks tree-ness and drives BDD growth.
    pub shared_events: usize,
    /// Structural estimate of the number of minimal cut sets (exact for
    /// proper trees without shared events; an over-count under sharing;
    /// saturating).
    pub mcs_estimate: u64,
}

impl StructuralFeatures {
    /// Computes the features of `tree` in one bottom-up pass.
    pub fn of(tree: &FaultTree) -> Self {
        let mut parent_count = vec![0usize; tree.num_events()];
        for id in tree.gate_ids() {
            for &input in tree.gate(id).inputs() {
                if let NodeId::Event(e) = input {
                    parent_count[e.index()] += 1;
                }
            }
        }
        StructuralFeatures {
            num_events: tree.num_events(),
            num_gates: tree.num_gates(),
            depth: tree.depth(),
            num_modules: modules(tree).len(),
            shared_events: parent_count.iter().filter(|&&c| c > 1).count(),
            mcs_estimate: mcs_estimate(tree),
        }
    }

    /// A coarse upper-bound proxy for the width of the compiled BDD: the
    /// event count inflated exponentially by the shared events that a
    /// variable ordering cannot untangle (capped to avoid overflow).
    pub fn bdd_width_estimate(&self) -> u64 {
        let exponent = self.shared_events.min(32) as u32;
        (self.num_events.max(1) as u64).saturating_mul(1u64 << exponent)
    }
}

/// Bottom-up structural estimate of the number of minimal cut sets: events
/// count 1, AND multiplies, OR adds, and a `k/n` gate contributes the
/// degree-`k` elementary symmetric polynomial of its inputs' counts. Exact
/// on proper trees; an over-count when events are shared (absorption is
/// ignored), which is the safe direction for budget decisions.
fn mcs_estimate(tree: &FaultTree) -> u64 {
    fn count(tree: &FaultTree, node: NodeId, memo: &mut HashMap<NodeId, u64>) -> u64 {
        if let Some(&c) = memo.get(&node) {
            return c;
        }
        let result = match node {
            NodeId::Event(_) => 1,
            NodeId::Gate(g) => {
                let gate = tree.gate(g);
                let children: Vec<u64> = gate
                    .inputs()
                    .iter()
                    .map(|&input| count(tree, input, memo))
                    .collect();
                match gate.kind() {
                    GateKind::And => children.iter().fold(1u64, |acc, &c| acc.saturating_mul(c)),
                    GateKind::Or => children.iter().fold(0u64, |acc, &c| acc.saturating_add(c)),
                    GateKind::Vot { k } => elementary_symmetric(&children, k),
                }
            }
        };
        memo.insert(node, result);
        result
    }
    count(tree, tree.top(), &mut HashMap::new())
}

/// The degree-`k` elementary symmetric polynomial `e_k` of `values`
/// (saturating): the number of ways to pick a `k`-subset of inputs and one
/// cut set from each.
fn elementary_symmetric(values: &[u64], k: usize) -> u64 {
    if k > values.len() {
        return 0;
    }
    let mut dp = vec![0u64; k + 1];
    dp[0] = 1;
    for &value in values {
        for j in (1..=k).rev() {
            dp[j] = dp[j].saturating_add(dp[j - 1].saturating_mul(value));
        }
    }
    dp[k]
}

/// The BDD engine is only auto-picked while the structural cut-set estimate
/// stays enumerable: its cut-set queries enumerate the whole minimal-cut-set
/// family out of the ZBDD, so their cost tracks the family, not the diagram
/// width.
const BDD_MAX_MCS_ESTIMATE: u64 = 100_000;

/// Picks a concrete backend for `tree` from its structural features.
///
/// * few expected cut sets on a small tree → [`BackendKind::Mocus`] (direct
///   expansion is cheapest and needs no encoding at all);
/// * moderate size, little event sharing and an enumerable cut-set estimate
///   → [`BackendKind::Bdd`] (exact probabilities for free, enumeration
///   linear in cut sets);
/// * everything else → [`BackendKind::MaxSat`] (the only engine whose cost
///   does not scale with the number of cut sets — the paper's thesis).
pub fn choose_backend(tree: &FaultTree) -> BackendKind {
    let features = StructuralFeatures::of(tree);
    if features.mcs_estimate <= MOCUS_MAX_MCS_ESTIMATE && features.num_events <= MOCUS_MAX_EVENTS {
        BackendKind::Mocus
    } else if features.bdd_width_estimate() <= BDD_MAX_WIDTH_ESTIMATE
        && features.mcs_estimate <= BDD_MAX_MCS_ESTIMATE
    {
        BackendKind::Bdd
    } else {
        BackendKind::MaxSat
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fault_tree::examples::{fire_protection_system, railway_level_crossing};
    use ft_generators::{wide_or, Family};

    #[test]
    fn features_of_the_paper_example() {
        let tree = fire_protection_system();
        let features = StructuralFeatures::of(&tree);
        assert_eq!(features.num_events, 7);
        assert_eq!(features.num_gates, 5);
        assert_eq!(features.shared_events, 0, "the FPS is a proper tree");
        // Structural estimate: {x1,x2}, {x3}, {x4}, {x5,x6}, {x5,x7} = 5
        // (exact on proper trees).
        assert_eq!(features.mcs_estimate, 5);
        assert_eq!(features.num_modules, tree.num_gates());
    }

    #[test]
    fn elementary_symmetric_counts_voting_combinations() {
        assert_eq!(elementary_symmetric(&[1, 1, 1], 2), 3);
        assert_eq!(elementary_symmetric(&[2, 3, 4], 1), 9);
        assert_eq!(elementary_symmetric(&[2, 3, 4], 3), 24);
        assert_eq!(elementary_symmetric(&[2, 3], 3), 0);
    }

    #[test]
    fn small_trees_choose_classical_engines() {
        assert_eq!(
            choose_backend(&fire_protection_system()),
            BackendKind::Mocus
        );
        assert_eq!(
            choose_backend(&railway_level_crossing()),
            BackendKind::Mocus
        );
    }

    #[test]
    fn wide_or_trees_outgrow_mocus_but_not_the_bdd() {
        // 5000 events: far past the MOCUS event cap, but a pure OR has no
        // shared events, so the BDD stays linear.
        let tree = wide_or(5000, 7);
        assert_eq!(choose_backend(&tree), BackendKind::Bdd);
    }

    #[test]
    fn exploding_cut_set_families_fall_back_to_maxsat() {
        // A ~200-node random tree: few shared events (the width proxy would
        // admit a BDD), but the structural cut-set estimate is far past
        // anything cut-set enumeration can walk — only MaxSAT scales there.
        let tree =
            ft_generators::random_tree(&ft_generators::RandomTreeConfig::with_total_nodes(200), 9);
        let features = StructuralFeatures::of(&tree);
        assert!(features.mcs_estimate > super::BDD_MAX_MCS_ESTIMATE);
        assert_eq!(choose_backend(&tree), BackendKind::MaxSat);
    }

    #[test]
    fn heavily_shared_dags_fall_back_to_maxsat() {
        let tree = Family::SharedDag.generate(600, 11);
        let features = StructuralFeatures::of(&tree);
        assert!(features.shared_events > 0);
        if features.bdd_width_estimate() > super::BDD_MAX_WIDTH_ESTIMATE {
            assert_eq!(choose_backend(&tree), BackendKind::MaxSat);
        }
    }
}
