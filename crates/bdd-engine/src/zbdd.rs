//! Zero-suppressed binary decision diagrams (ZBDDs) for cut-set families.
//!
//! ZBDDs (Minato) represent families of sets compactly and are the data
//! structure classical FTA tools use to store minimal cut sets (Rauzy): each
//! path to the `base` terminal is one set, and the zero-suppression rule
//! makes sparse families (cut sets are tiny compared to the number of events)
//! particularly cheap. This hash-consed package offers exactly what the
//! cut-set compiler ([`ZbddAnalysis`](crate::ZbddAnalysis)) uses: `union`,
//! `product`, the subsumption operator `minimal`, counting, enumeration and
//! the maximum-weight set.

use std::collections::HashMap;

/// A reference to a ZBDD node (terminals included).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub(crate) struct ZbddRef(u32);

const EMPTY: ZbddRef = ZbddRef(0);
const BASE: ZbddRef = ZbddRef(1);

impl ZbddRef {
    /// Is this one of the two terminal nodes?
    fn is_terminal(self) -> bool {
        self.0 < 2
    }
}

#[derive(Clone, Copy, Debug)]
struct Node {
    level: usize,
    lo: ZbddRef,
    hi: ZbddRef,
}

/// A hash-consed zero-suppressed BDD manager.
///
/// Levels are `0 .. num_vars`; smaller levels appear closer to the root.
#[derive(Clone, Debug)]
pub(crate) struct Zbdd {
    num_vars: usize,
    nodes: Vec<Node>,
    unique: HashMap<(usize, ZbddRef, ZbddRef), ZbddRef>,
    union_cache: HashMap<(ZbddRef, ZbddRef), ZbddRef>,
    product_cache: HashMap<(ZbddRef, ZbddRef), ZbddRef>,
    without_cache: HashMap<(ZbddRef, ZbddRef), ZbddRef>,
    minimal_cache: HashMap<ZbddRef, ZbddRef>,
}

impl Zbdd {
    /// Creates a manager for set families over `num_vars` variables.
    pub(crate) fn new(num_vars: usize) -> Self {
        Zbdd {
            num_vars,
            // Slots 0 and 1 are placeholders for the terminals; their level is
            // a sentinel larger than any variable level.
            nodes: vec![
                Node {
                    level: usize::MAX,
                    lo: EMPTY,
                    hi: EMPTY,
                },
                Node {
                    level: usize::MAX,
                    lo: BASE,
                    hi: BASE,
                },
            ],
            unique: HashMap::new(),
            union_cache: HashMap::new(),
            product_cache: HashMap::new(),
            without_cache: HashMap::new(),
            minimal_cache: HashMap::new(),
        }
    }

    /// The empty family `∅` (no sets at all).
    pub(crate) fn empty() -> ZbddRef {
        EMPTY
    }

    /// The unit family `{∅}` (one set: the empty set).
    pub(crate) fn base() -> ZbddRef {
        BASE
    }

    fn level(&self, node: ZbddRef) -> usize {
        self.nodes[node.0 as usize].level
    }

    fn lo(&self, node: ZbddRef) -> ZbddRef {
        self.nodes[node.0 as usize].lo
    }

    fn hi(&self, node: ZbddRef) -> ZbddRef {
        self.nodes[node.0 as usize].hi
    }

    /// The canonical node `(level, lo, hi)`, applying the zero-suppression
    /// rule (`hi = ∅` collapses to `lo`).
    fn make(&mut self, level: usize, lo: ZbddRef, hi: ZbddRef) -> ZbddRef {
        debug_assert!(level < self.num_vars);
        if hi == EMPTY {
            return lo;
        }
        if let Some(&existing) = self.unique.get(&(level, lo, hi)) {
            return existing;
        }
        let reference = ZbddRef(self.nodes.len() as u32);
        self.nodes.push(Node { level, lo, hi });
        self.unique.insert((level, lo, hi), reference);
        reference
    }

    /// The family containing exactly one set `{level}`.
    ///
    /// # Panics
    ///
    /// Panics if `level` is out of range.
    pub(crate) fn singleton(&mut self, level: usize) -> ZbddRef {
        assert!(level < self.num_vars, "variable level out of range");
        self.make(level, EMPTY, BASE)
    }

    /// Union of two families.
    pub(crate) fn union(&mut self, f: ZbddRef, g: ZbddRef) -> ZbddRef {
        if f == g || g == EMPTY {
            return f;
        }
        if f == EMPTY {
            return g;
        }
        let key = if f <= g { (f, g) } else { (g, f) };
        if let Some(&cached) = self.union_cache.get(&key) {
            return cached;
        }
        let (vf, vg) = (self.level(f), self.level(g));
        let result = if vf < vg {
            let lo = self.union(self.lo(f), g);
            self.make(vf, lo, self.hi(f))
        } else if vg < vf {
            let lo = self.union(f, self.lo(g));
            self.make(vg, lo, self.hi(g))
        } else {
            let lo = self.union(self.lo(f), self.lo(g));
            let hi = self.union(self.hi(f), self.hi(g));
            self.make(vf, lo, hi)
        };
        self.union_cache.insert(key, result);
        result
    }

    /// Pairwise-union product: `{A ∪ B : A ∈ f, B ∈ g}`.
    pub(crate) fn product(&mut self, f: ZbddRef, g: ZbddRef) -> ZbddRef {
        if f == EMPTY || g == EMPTY {
            return EMPTY;
        }
        if f == BASE {
            return g;
        }
        if g == BASE {
            return f;
        }
        let key = if f <= g { (f, g) } else { (g, f) };
        if let Some(&cached) = self.product_cache.get(&key) {
            return cached;
        }
        let (vf, vg) = (self.level(f), self.level(g));
        let result = if vf < vg {
            let lo = self.product(self.lo(f), g);
            let hi = self.product(self.hi(f), g);
            self.make(vf, lo, hi)
        } else if vg < vf {
            let lo = self.product(f, self.lo(g));
            let hi = self.product(f, self.hi(g));
            self.make(vg, lo, hi)
        } else {
            // Sets that take v from either side all contain v.
            let lo = self.product(self.lo(f), self.lo(g));
            let hi_ff = self.product(self.hi(f), self.hi(g));
            let hi_fg = self.product(self.hi(f), self.lo(g));
            let hi_gf = self.product(self.lo(f), self.hi(g));
            let hi = self.union(hi_ff, hi_fg);
            let hi = self.union(hi, hi_gf);
            self.make(vf, lo, hi)
        };
        self.product_cache.insert(key, result);
        result
    }

    /// The sets of `f` that are **not** supersets of any set in `g`.
    fn without_supersets(&mut self, f: ZbddRef, g: ZbddRef) -> ZbddRef {
        if f == EMPTY || g == EMPTY {
            return f;
        }
        if self.contains_empty_set(g) {
            // Every set is a superset of ∅.
            return EMPTY;
        }
        if f == BASE {
            // ∅ is only a superset of ∅, which g does not contain.
            return BASE;
        }
        if let Some(&cached) = self.without_cache.get(&(f, g)) {
            return cached;
        }
        let (vf, vg) = (self.level(f), self.level(g));
        let result = if vf < vg {
            let lo = self.without_supersets(self.lo(f), g);
            let hi = self.without_supersets(self.hi(f), g);
            self.make(vf, lo, hi)
        } else if vg < vf {
            // No set of f contains vg, so the g-sets containing vg can never
            // be subsets of an f-set.
            self.without_supersets(f, self.lo(g))
        } else {
            let lo = self.without_supersets(self.lo(f), self.lo(g));
            let hi = self.without_supersets(self.hi(f), self.hi(g));
            let hi = self.without_supersets(hi, self.lo(g));
            self.make(vf, lo, hi)
        };
        self.without_cache.insert((f, g), result);
        result
    }

    /// Keeps only the inclusion-minimal sets of `f`.
    pub(crate) fn minimal(&mut self, f: ZbddRef) -> ZbddRef {
        if f.is_terminal() {
            return f;
        }
        if let Some(&cached) = self.minimal_cache.get(&f) {
            return cached;
        }
        let level = self.level(f);
        let lo = self.minimal(self.lo(f));
        let hi = self.minimal(self.hi(f));
        let hi = self.without_supersets(hi, lo);
        let result = self.make(level, lo, hi);
        self.minimal_cache.insert(f, result);
        result
    }

    /// Whether the family contains the empty set.
    fn contains_empty_set(&self, f: ZbddRef) -> bool {
        let mut node = f;
        loop {
            if node == BASE {
                return true;
            }
            if node == EMPTY {
                return false;
            }
            node = self.lo(node);
        }
    }

    /// Number of sets in the family.
    pub(crate) fn count_sets(&self, f: ZbddRef) -> u128 {
        let mut cache: HashMap<ZbddRef, u128> = HashMap::new();
        self.count_rec(f, &mut cache)
    }

    fn count_rec(&self, f: ZbddRef, cache: &mut HashMap<ZbddRef, u128>) -> u128 {
        if f == EMPTY {
            return 0;
        }
        if f == BASE {
            return 1;
        }
        if let Some(&cached) = cache.get(&f) {
            return cached;
        }
        let count = self.count_rec(self.lo(f), cache) + self.count_rec(self.hi(f), cache);
        cache.insert(f, count);
        count
    }

    /// Enumerates at most `max_sets` sets (as sorted level lists).
    pub(crate) fn sets(&self, f: ZbddRef, max_sets: usize) -> Vec<Vec<usize>> {
        let mut out = Vec::new();
        let mut prefix = Vec::new();
        self.sets_rec(f, &mut prefix, &mut out, max_sets);
        out
    }

    fn sets_rec(
        &self,
        f: ZbddRef,
        prefix: &mut Vec<usize>,
        out: &mut Vec<Vec<usize>>,
        max_sets: usize,
    ) {
        if out.len() >= max_sets || f == EMPTY {
            return;
        }
        if f == BASE {
            out.push(prefix.clone());
            return;
        }
        let level = self.level(f);
        prefix.push(level);
        self.sets_rec(self.hi(f), prefix, out, max_sets);
        prefix.pop();
        self.sets_rec(self.lo(f), prefix, out, max_sets);
    }

    /// The set with the maximum product of per-level weights, together with
    /// that product. Weights are indexed by level and must lie in `[0, 1]`.
    ///
    /// Runs in time linear in the number of ZBDD nodes — this is what makes
    /// the ZBDD an attractive MPMCS baseline once the minimal cut sets are
    /// compiled.
    pub(crate) fn best_weighted_set(
        &self,
        f: ZbddRef,
        weights: &[f64],
    ) -> Option<(Vec<usize>, f64)> {
        let mut cache: HashMap<ZbddRef, Option<(Vec<usize>, f64)>> = HashMap::new();
        self.best_rec(f, weights, &mut cache)
    }

    fn best_rec(
        &self,
        f: ZbddRef,
        weights: &[f64],
        cache: &mut HashMap<ZbddRef, Option<(Vec<usize>, f64)>>,
    ) -> Option<(Vec<usize>, f64)> {
        if f == EMPTY {
            return None;
        }
        if f == BASE {
            return Some((Vec::new(), 1.0));
        }
        if let Some(cached) = cache.get(&f) {
            return cached.clone();
        }
        let level = self.level(f);
        let lo_best = self.best_rec(self.lo(f), weights, cache);
        let hi_best = self
            .best_rec(self.hi(f), weights, cache)
            .map(|(mut set, p)| {
                set.push(level);
                (set, p * weights[level])
            });
        let best = match (lo_best, hi_best) {
            (None, best) | (best, None) => best,
            (Some(lo), Some(hi)) => Some(if hi.1 > lo.1 { hi } else { lo }),
        };
        cache.insert(f, best.clone());
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ZbddAnalysis;
    use fault_tree::examples::{fire_protection_system, redundant_sensor_network};
    use fault_tree::{CutSet, FaultTree};
    use std::collections::BTreeSet;

    fn names(tree: &FaultTree, cuts: &[CutSet]) -> BTreeSet<String> {
        cuts.iter().map(|c| c.display_names(tree)).collect()
    }

    #[test]
    fn family_operations_behave_like_set_algebra() {
        let mut z = Zbdd::new(3);
        let a = z.singleton(0);
        let b = z.singleton(1);
        let c = z.singleton(2);
        let ab = z.product(a, b);
        let family = z.union(ab, c); // {{0,1},{2}}
        assert_eq!(z.count_sets(family), 2);
        let with_a = z.product(family, a); // {{0,1},{0,2}}
        assert_eq!(z.count_sets(with_a), 2);
        let mut enumerated = z.sets(with_a, 10);
        enumerated.sort();
        assert_eq!(enumerated, vec![vec![0, 1], vec![0, 2]]);
        // Union is idempotent and keeps one copy of the shared set {0,1}.
        let both = z.union(family, with_a);
        assert_eq!(z.count_sets(both), 3);
        assert_eq!(z.union(both, family), both);
        // Subsumption: {{0},{0,1},{2}} minimised = {{0},{2}}.
        let redundant = z.union(family, a);
        let minimal = z.minimal(redundant);
        assert_eq!(z.count_sets(minimal), 2);
        let enumerated = z.sets(minimal, 10);
        assert!(enumerated.contains(&vec![0]));
        assert!(enumerated.contains(&vec![2]));
    }

    #[test]
    fn fps_minimal_cut_sets_match_the_paper() {
        let tree = fire_protection_system();
        let analysis = ZbddAnalysis::new(&tree);
        assert_eq!(analysis.count(), 5);
        let cuts = analysis.minimal_cut_sets(100);
        assert_eq!(cuts.len(), 5);
        for cut in &cuts {
            assert!(tree.is_minimal_cut_set(cut));
        }
        let (best, probability) = analysis.maximum_probability_mcs(&tree).expect("has cuts");
        assert_eq!(best.display_names(&tree), "{x1, x2}");
        assert!((probability - 0.02).abs() < 1e-12);
    }

    #[test]
    fn voting_gates_expand_to_the_right_cut_sets() {
        let tree = redundant_sensor_network();
        let analysis = ZbddAnalysis::new(&tree);
        let cuts = analysis.minimal_cut_sets(100);
        // 3 sensor pairs + bus + power = 5 minimal cut sets.
        assert_eq!(cuts.len(), 5);
        assert_eq!(cuts.iter().filter(|c| c.len() == 2).count(), 3);
        assert_eq!(cuts.iter().filter(|c| c.len() == 1).count(), 2);
    }

    #[test]
    fn shared_events_are_deduplicated_inside_products() {
        // top = AND(OR(a, b), OR(a, c)): minimal cut sets {a}, {b,c}.
        use fault_tree::FaultTreeBuilder;
        let mut builder = FaultTreeBuilder::new("shared");
        let a = builder.basic_event("a", 0.1).unwrap();
        let b = builder.basic_event("b", 0.2).unwrap();
        let c = builder.basic_event("c", 0.3).unwrap();
        let left = builder.or_gate("left", [a.into(), b.into()]).unwrap();
        let right = builder.or_gate("right", [a.into(), c.into()]).unwrap();
        let top = builder
            .and_gate("top", [left.into(), right.into()])
            .unwrap();
        let tree = builder.build(top.into()).unwrap();
        let analysis = ZbddAnalysis::new(&tree);
        let cuts = names(&tree, &analysis.minimal_cut_sets(10));
        let expected: BTreeSet<String> = ["{a}", "{b, c}"].into_iter().map(String::from).collect();
        assert_eq!(cuts, expected);
        let (best, probability) = analysis.maximum_probability_mcs(&tree).unwrap();
        assert_eq!(best.display_names(&tree), "{a}");
        assert!((probability - 0.1).abs() < 1e-12);
    }

    #[test]
    fn counting_does_not_require_enumeration() {
        // A tree whose cut-set count is the product of branch widths: AND of
        // two ORs over disjoint events -> 4 * 5 = 20 cut sets.
        use fault_tree::FaultTreeBuilder;
        let mut builder = FaultTreeBuilder::new("grid");
        let mut left_inputs = Vec::new();
        for i in 0..4 {
            left_inputs.push(builder.basic_event(format!("l{i}"), 0.1).unwrap().into());
        }
        let mut right_inputs = Vec::new();
        for i in 0..5 {
            right_inputs.push(builder.basic_event(format!("r{i}"), 0.1).unwrap().into());
        }
        let left = builder.or_gate("left", left_inputs).unwrap();
        let right = builder.or_gate("right", right_inputs).unwrap();
        let top = builder
            .and_gate("top", [left.into(), right.into()])
            .unwrap();
        let tree = builder.build(top.into()).unwrap();
        let analysis = ZbddAnalysis::new(&tree);
        assert_eq!(analysis.count(), 20);
        assert_eq!(analysis.minimal_cut_sets(7).len(), 7);
    }
}
