//! The core ROBDD package: hash-consed nodes and memoised Boolean operations.

use std::collections::HashMap;

/// A handle to a BDD node (index into the node table).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct BddRef(u32);

impl BddRef {
    /// The constant `false` node.
    pub const FALSE: BddRef = BddRef(0);
    /// The constant `true` node.
    pub const TRUE: BddRef = BddRef(1);

    fn index(self) -> usize {
        self.0 as usize
    }

    /// `true` if this handle refers to a terminal (constant) node.
    pub fn is_terminal(self) -> bool {
        self.0 <= 1
    }
}

#[derive(Clone, Copy, Debug)]
struct Node {
    /// Variable level (lower level = closer to the root in the ordering).
    var: u32,
    low: BddRef,
    high: BddRef,
}

/// Preallocated memoisation state for [`Bdd::probability_with`].
///
/// One scratch serves any number of quantifications of diagrams from one
/// manager; entries from earlier calls are invalidated by bumping an epoch
/// counter rather than by clearing the buffers.
#[derive(Clone, Debug, Default)]
pub struct ProbabilityScratch {
    value: Vec<f64>,
    epoch: Vec<u64>,
    current: u64,
}

impl ProbabilityScratch {
    /// Creates an empty scratch; the buffers grow on first use.
    pub fn new() -> Self {
        ProbabilityScratch::default()
    }

    fn begin(&mut self, num_nodes: usize) {
        if self.value.len() < num_nodes {
            self.value.resize(num_nodes, 0.0);
            self.epoch.resize(num_nodes, 0);
        }
        self.current += 1;
    }
}

/// A reduced ordered binary decision diagram manager.
///
/// Variables are identified by their *level* `0..num_vars`, with level 0
/// tested first. All diagrams created by one manager share its node table.
#[derive(Clone, Debug)]
pub struct Bdd {
    nodes: Vec<Node>,
    unique: HashMap<(u32, BddRef, BddRef), BddRef>,
    ite_cache: HashMap<(BddRef, BddRef, BddRef), BddRef>,
    num_vars: usize,
}

impl Bdd {
    /// Creates a manager for `num_vars` variables.
    pub fn new(num_vars: usize) -> Self {
        let terminal = Node {
            var: u32::MAX,
            low: BddRef::FALSE,
            high: BddRef::TRUE,
        };
        Bdd {
            nodes: vec![terminal, terminal],
            unique: HashMap::new(),
            ite_cache: HashMap::new(),
            num_vars,
        }
    }

    /// Number of variables managed.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Total number of live nodes in the manager (including both terminals).
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// The constant diagram for `value`.
    pub fn constant(value: bool) -> BddRef {
        if value {
            BddRef::TRUE
        } else {
            BddRef::FALSE
        }
    }

    /// The diagram testing variable `level`.
    ///
    /// # Panics
    ///
    /// Panics if `level >= num_vars`.
    pub fn var(&mut self, level: usize) -> BddRef {
        assert!(level < self.num_vars, "variable level out of range");
        self.make_node(level as u32, BddRef::FALSE, BddRef::TRUE)
    }

    fn make_node(&mut self, var: u32, low: BddRef, high: BddRef) -> BddRef {
        if low == high {
            return low;
        }
        if let Some(&existing) = self.unique.get(&(var, low, high)) {
            return existing;
        }
        let index = self.nodes.len() as u32;
        self.nodes.push(Node { var, low, high });
        let reference = BddRef(index);
        self.unique.insert((var, low, high), reference);
        reference
    }

    fn level(&self, node: BddRef) -> u32 {
        self.nodes[node.index()].var
    }

    fn cofactors(&self, node: BddRef, level: u32) -> (BddRef, BddRef) {
        let n = self.nodes[node.index()];
        if node.is_terminal() || n.var > level {
            (node, node)
        } else {
            (n.low, n.high)
        }
    }

    /// If-then-else: `ite(f, g, h) = (f ∧ g) ∨ (¬f ∧ h)`. All Boolean
    /// operations are expressed through this single memoised operation.
    pub fn ite(&mut self, f: BddRef, g: BddRef, h: BddRef) -> BddRef {
        // Terminal cases.
        if f == BddRef::TRUE {
            return g;
        }
        if f == BddRef::FALSE {
            return h;
        }
        if g == h {
            return g;
        }
        if g == BddRef::TRUE && h == BddRef::FALSE {
            return f;
        }
        if let Some(&cached) = self.ite_cache.get(&(f, g, h)) {
            return cached;
        }
        let level = [f, g, h]
            .iter()
            .filter(|r| !r.is_terminal())
            .map(|r| self.level(*r))
            .min()
            .expect("at least one non-terminal operand");
        let (f0, f1) = self.cofactors(f, level);
        let (g0, g1) = self.cofactors(g, level);
        let (h0, h1) = self.cofactors(h, level);
        let low = self.ite(f0, g0, h0);
        let high = self.ite(f1, g1, h1);
        let result = self.make_node(level, low, high);
        self.ite_cache.insert((f, g, h), result);
        result
    }

    /// Conjunction.
    pub fn and(&mut self, a: BddRef, b: BddRef) -> BddRef {
        self.ite(a, b, BddRef::FALSE)
    }

    /// Disjunction.
    pub fn or(&mut self, a: BddRef, b: BddRef) -> BddRef {
        self.ite(a, BddRef::TRUE, b)
    }

    /// Negation.
    pub fn not(&mut self, a: BddRef) -> BddRef {
        self.ite(a, BddRef::FALSE, BddRef::TRUE)
    }

    /// `at least k` of the given diagrams are true.
    ///
    /// Built with the standard dynamic-programming recurrence over the
    /// operand list, which keeps the construction polynomial.
    pub fn at_least(&mut self, k: usize, operands: &[BddRef]) -> BddRef {
        let n = operands.len();
        if k == 0 {
            return BddRef::TRUE;
        }
        if k > n {
            return BddRef::FALSE;
        }
        // table[j] = "at least j of the operands processed so far".
        let mut table = vec![BddRef::FALSE; k + 1];
        table[0] = BddRef::TRUE;
        for &operand in operands {
            // Process in decreasing j so each operand is counted once.
            for j in (1..=k).rev() {
                let with = self.and(operand, table[j - 1]);
                table[j] = self.or(table[j], with);
            }
        }
        table[k]
    }

    /// Evaluates the diagram under a total assignment indexed by level.
    pub fn evaluate(&self, node: BddRef, assignment: &[bool]) -> bool {
        let mut current = node;
        while !current.is_terminal() {
            let n = self.nodes[current.index()];
            current = if assignment[n.var as usize] {
                n.high
            } else {
                n.low
            };
        }
        current == BddRef::TRUE
    }

    /// Exact probability that the function is true when variable `i` is true
    /// independently with probability `probabilities[i]` (Shannon
    /// decomposition over the diagram).
    pub fn probability(&self, node: BddRef, probabilities: &[f64]) -> f64 {
        self.probability_with(node, probabilities, &mut ProbabilityScratch::new())
    }

    /// Same as [`Bdd::probability`], but memoising into a caller-provided
    /// scratch. Repeated quantifications of one diagram (e.g. mission-time
    /// sweeps) then allocate nothing per call: the scratch buffers grow to
    /// the node-table size once and are invalidated in O(1) afterwards.
    ///
    /// The traversal and memoisation points are identical to
    /// [`Bdd::probability`], so both entry points return bit-identical
    /// results for the same inputs.
    pub fn probability_with(
        &self,
        node: BddRef,
        probabilities: &[f64],
        scratch: &mut ProbabilityScratch,
    ) -> f64 {
        fn walk(
            bdd: &Bdd,
            node: BddRef,
            probabilities: &[f64],
            scratch: &mut ProbabilityScratch,
        ) -> f64 {
            if node == BddRef::TRUE {
                return 1.0;
            }
            if node == BddRef::FALSE {
                return 0.0;
            }
            let index = node.index();
            if scratch.epoch[index] == scratch.current {
                return scratch.value[index];
            }
            let n = bdd.nodes[index];
            let p_var = probabilities[n.var as usize];
            let p = p_var * walk(bdd, n.high, probabilities, scratch)
                + (1.0 - p_var) * walk(bdd, n.low, probabilities, scratch);
            scratch.epoch[index] = scratch.current;
            scratch.value[index] = p;
            p
        }
        scratch.begin(self.nodes.len());
        walk(self, node, probabilities, scratch)
    }

    /// Number of distinct nodes reachable from `node` (excluding terminals).
    pub fn size(&self, node: BddRef) -> usize {
        let mut seen = std::collections::HashSet::new();
        let mut stack = vec![node];
        while let Some(current) = stack.pop() {
            if current.is_terminal() || !seen.insert(current) {
                continue;
            }
            let n = self.nodes[current.index()];
            stack.push(n.low);
            stack.push(n.high);
        }
        seen.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_and_variables() {
        let mut bdd = Bdd::new(2);
        assert_eq!(Bdd::constant(true), BddRef::TRUE);
        assert_eq!(Bdd::constant(false), BddRef::FALSE);
        let x = bdd.var(0);
        assert!(bdd.evaluate(x, &[true, false]));
        assert!(!bdd.evaluate(x, &[false, true]));
    }

    #[test]
    fn boolean_operations_match_truth_tables() {
        let mut bdd = Bdd::new(2);
        let x = bdd.var(0);
        let y = bdd.var(1);
        let and = bdd.and(x, y);
        let or = bdd.or(x, y);
        let not_x = bdd.not(x);
        for (a, b) in [(false, false), (false, true), (true, false), (true, true)] {
            let assignment = [a, b];
            assert_eq!(bdd.evaluate(and, &assignment), a && b);
            assert_eq!(bdd.evaluate(or, &assignment), a || b);
            assert_eq!(bdd.evaluate(not_x, &assignment), !a);
        }
    }

    #[test]
    fn reduction_produces_canonical_diagrams() {
        let mut bdd = Bdd::new(2);
        let x = bdd.var(0);
        let y = bdd.var(1);
        // x ∧ y built twice gives the same node.
        let a = bdd.and(x, y);
        let b = bdd.and(y, x);
        assert_eq!(a, b);
        // x ∨ ¬x collapses to TRUE.
        let not_x = bdd.not(x);
        assert_eq!(bdd.or(x, not_x), BddRef::TRUE);
        // x ∧ ¬x collapses to FALSE.
        assert_eq!(bdd.and(x, not_x), BddRef::FALSE);
    }

    #[test]
    fn at_least_matches_counting_semantics() {
        let mut bdd = Bdd::new(4);
        let vars: Vec<BddRef> = (0..4).map(|i| bdd.var(i)).collect();
        for k in 0..=5 {
            let at_least = bdd.at_least(k, &vars);
            for mask in 0..16u32 {
                let assignment: Vec<bool> = (0..4).map(|i| mask & (1 << i) != 0).collect();
                let count = assignment.iter().filter(|&&b| b).count();
                assert_eq!(
                    bdd.evaluate(at_least, &assignment),
                    count >= k,
                    "k={k} mask={mask:b}"
                );
            }
        }
    }

    #[test]
    fn probability_uses_shannon_decomposition() {
        let mut bdd = Bdd::new(2);
        let x = bdd.var(0);
        let y = bdd.var(1);
        let and = bdd.and(x, y);
        let or = bdd.or(x, y);
        let probabilities = [0.2, 0.1];
        assert!((bdd.probability(and, &probabilities) - 0.02).abs() < 1e-12);
        // P(x ∨ y) = 0.2 + 0.1 - 0.02 = 0.28.
        assert!((bdd.probability(or, &probabilities) - 0.28).abs() < 1e-12);
        assert_eq!(bdd.probability(BddRef::TRUE, &probabilities), 1.0);
        assert_eq!(bdd.probability(BddRef::FALSE, &probabilities), 0.0);
    }

    #[test]
    fn size_counts_reachable_internal_nodes() {
        let mut bdd = Bdd::new(3);
        let x = bdd.var(0);
        let y = bdd.var(1);
        let z = bdd.var(2);
        let xy = bdd.and(x, y);
        let f = bdd.or(xy, z);
        assert_eq!(bdd.size(BddRef::TRUE), 0);
        assert_eq!(bdd.size(x), 1);
        assert_eq!(bdd.size(f), 3);
    }

    #[test]
    #[should_panic]
    fn out_of_range_variables_are_rejected() {
        let mut bdd = Bdd::new(2);
        let _ = bdd.var(2);
    }
}
