//! Minimal cut set analysis of a fault tree over the ZBDD package.
//!
//! [`ZbddAnalysis`] compiles a fault tree bottom-up into the ZBDD of its
//! **minimal cut sets** (Rauzy) — `union` for OR gates, `product` for AND
//! gates, the same O(n·k) table as [`Bdd::at_least`](crate::Bdd::at_least)
//! for `k`-out-of-`n` voting gates, each followed by the subsumption operator
//! `minimal` — and then counts the family without enumerating it, enumerates
//! it, or extracts the maximum-probability minimal cut set in time linear in
//! the ZBDD size. It is the cut-set route of the BDD analysis backend.

use std::collections::HashMap;

use fault_tree::{CutSet, EventId, FaultTree, GateKind, NodeId};

use crate::compile::{event_order, VariableOrdering};
use crate::zbdd::{Zbdd, ZbddRef};

/// Minimal cut sets of a fault tree, compiled bottom-up into a ZBDD.
#[derive(Clone, Debug)]
pub struct ZbddAnalysis {
    zbdd: Zbdd,
    root: ZbddRef,
    event_of_level: Vec<EventId>,
}

impl ZbddAnalysis {
    /// Compiles the minimal cut sets of `tree`.
    ///
    /// Events are ordered by first occurrence in a depth-first traversal from
    /// the top ([`VariableOrdering::DepthFirst`], the structural heuristic the
    /// BDD compiler defaults to).
    pub fn new(tree: &FaultTree) -> Self {
        let order = event_order(tree, VariableOrdering::DepthFirst);
        let mut level_of_event = vec![0usize; tree.num_events()];
        for (level, &event) in order.iter().enumerate() {
            level_of_event[event.index()] = level;
        }
        let mut zbdd = Zbdd::new(tree.num_events());
        let mut cache: HashMap<NodeId, ZbddRef> = HashMap::new();
        let root = compile(tree, tree.top(), &level_of_event, &mut zbdd, &mut cache);
        let root = zbdd.minimal(root);
        ZbddAnalysis {
            zbdd,
            root,
            event_of_level: order,
        }
    }

    /// Number of minimal cut sets (without enumerating them).
    pub fn count(&self) -> u128 {
        self.zbdd.count_sets(self.root)
    }

    /// Enumerates at most `max_sets` minimal cut sets.
    pub fn minimal_cut_sets(&self, max_sets: usize) -> Vec<CutSet> {
        self.zbdd
            .sets(self.root, max_sets)
            .into_iter()
            .map(|levels| levels.into_iter().map(|l| self.event_of_level[l]).collect())
            .collect()
    }

    /// The maximum-probability minimal cut set and its probability, extracted
    /// in time linear in the ZBDD size.
    pub fn maximum_probability_mcs(&self, tree: &FaultTree) -> Option<(CutSet, f64)> {
        let weights: Vec<f64> = self
            .event_of_level
            .iter()
            .map(|&event| tree.event(event).probability().value())
            .collect();
        self.zbdd
            .best_weighted_set(self.root, &weights)
            .map(|(levels, probability)| {
                let cut: CutSet = levels.into_iter().map(|l| self.event_of_level[l]).collect();
                (cut, probability)
            })
    }
}

fn compile(
    tree: &FaultTree,
    node: NodeId,
    level_of_event: &[usize],
    zbdd: &mut Zbdd,
    cache: &mut HashMap<NodeId, ZbddRef>,
) -> ZbddRef {
    if let Some(&cached) = cache.get(&node) {
        return cached;
    }
    let result = match node {
        NodeId::Event(e) => zbdd.singleton(level_of_event[e.index()]),
        NodeId::Gate(g) => {
            let gate = tree.gate(g);
            let children: Vec<ZbddRef> = gate
                .inputs()
                .iter()
                .map(|&input| compile(tree, input, level_of_event, zbdd, cache))
                .collect();
            let combined = match gate.kind() {
                GateKind::Or => {
                    let mut acc = Zbdd::empty();
                    for child in children {
                        acc = zbdd.union(acc, child);
                    }
                    acc
                }
                GateKind::And => {
                    let mut acc = Zbdd::base();
                    for child in children {
                        acc = zbdd.product(acc, child);
                    }
                    acc
                }
                GateKind::Vot { k } => at_least(zbdd, k, &children),
            };
            zbdd.minimal(combined)
        }
    };
    cache.insert(node, result);
    result
}

/// Cut sets of "at least `k` of the children fire", built with the O(n·k)
/// table of [`Bdd::at_least`](crate::Bdd::at_least): `table[j]` holds the
/// cut sets of "at least `j` of the children seen so far". The result may
/// hold non-minimal sets; the caller minimises it.
fn at_least(zbdd: &mut Zbdd, k: usize, children: &[ZbddRef]) -> ZbddRef {
    let mut table = vec![Zbdd::empty(); k + 1];
    table[0] = Zbdd::base();
    for &child in children {
        // Decreasing j, so each child is counted once.
        for j in (1..=k).rev() {
            let with = zbdd.product(child, table[j - 1]);
            table[j] = zbdd.union(table[j], with);
        }
    }
    table[k]
}

#[cfg(test)]
mod tests {
    use super::*;
    use fault_tree::examples::{
        fire_protection_system, pressure_tank_system, redundant_sensor_network,
    };

    #[test]
    fn fps_minimal_cut_sets_match_the_paper() {
        let tree = fire_protection_system();
        let analysis = ZbddAnalysis::new(&tree);
        let mut cut_sets: Vec<String> = analysis
            .minimal_cut_sets(usize::MAX)
            .iter()
            .map(|c| c.display_names(&tree))
            .collect();
        cut_sets.sort();
        assert_eq!(
            cut_sets,
            vec!["{x1, x2}", "{x3}", "{x4}", "{x5, x6}", "{x5, x7}"]
        );
        // Every reported set is a verified minimal cut set.
        for cut in analysis.minimal_cut_sets(usize::MAX) {
            assert!(tree.is_minimal_cut_set(&cut));
        }
    }

    #[test]
    fn fps_mpmcs_is_x1_x2() {
        let tree = fire_protection_system();
        let (cut, probability) = ZbddAnalysis::new(&tree)
            .maximum_probability_mcs(&tree)
            .expect("has cuts");
        assert_eq!(cut.display_names(&tree), "{x1, x2}");
        assert!((probability - 0.02).abs() < 1e-12);
    }

    #[test]
    fn pressure_tank_has_three_minimal_cut_sets() {
        let tree = pressure_tank_system();
        let analysis = ZbddAnalysis::new(&tree);
        assert_eq!(analysis.count(), 3);
        assert_eq!(analysis.minimal_cut_sets(usize::MAX).len(), 3);
        let (cut, probability) = analysis.maximum_probability_mcs(&tree).expect("has cuts");
        assert_eq!(cut.display_names(&tree), "{tank rupture (mechanical)}");
        assert!((probability - 1e-5).abs() < 1e-15);
    }

    #[test]
    fn voting_gate_cut_sets_are_the_pairs() {
        let tree = redundant_sensor_network();
        let cut_sets = ZbddAnalysis::new(&tree).minimal_cut_sets(usize::MAX);
        // 3 sensor pairs + bus + power = 5 minimal cut sets.
        assert_eq!(cut_sets.len(), 5);
        let s1 = tree.event_by_name("sensor 1 fails").unwrap();
        assert_eq!(cut_sets.iter().filter(|c| c.contains(s1)).count(), 2);
    }

    #[test]
    fn wide_voting_gates_expand_in_polynomial_time() {
        // 20-of-40: C(40, 20) minimal cut sets, counted without enumeration.
        // The expansion must stay polynomial in n and k to finish at all.
        let tree = ft_generators::wide_voting(20, 40, 1);
        assert_eq!(ZbddAnalysis::new(&tree).count(), 137_846_528_820);
    }

    #[test]
    fn path_budget_is_enforced() {
        // Enumeration stops at the budget; the count still sees every set.
        let tree = fire_protection_system();
        let analysis = ZbddAnalysis::new(&tree);
        let within = analysis.minimal_cut_sets(1);
        assert_eq!(within.len(), 1);
        assert!(tree.is_minimal_cut_set(&within[0]));
        assert!(analysis.minimal_cut_sets(0).is_empty());
        assert_eq!(analysis.count(), 5);
    }
}
