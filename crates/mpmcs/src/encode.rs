//! Steps 1–4 of the paper: from a fault tree to a Weighted Partial MaxSAT
//! instance.

use fault_tree::{CutSet, EventId, FaultTree, GateId, GateKind, NodeId};
use maxsat_solver::WcnfInstance;
use sat_solver::tseitin::TseitinEncoder;
use sat_solver::{Lit, Var};

/// How the hard clauses are derived from the fault tree (paper Step 1).
///
/// Both styles produce the same optimum; they are kept side by side to
/// demonstrate (and test) the equivalence argued in Section III of the paper.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum EncodingStyle {
    /// Assert the failure formula `f(t)` directly over the event variables
    /// `xᵢ` and attach a soft clause `(¬xᵢ)` per event: falsifying `¬xᵢ`
    /// (i.e. including the event in the cut) costs `wᵢ`.
    #[default]
    Direct,
    /// The paper's formulation: build the dual formula `Y(t)` (gates swapped,
    /// events positive, read as `yᵢ = ¬xᵢ`), assert `¬Y(t)`, and attach a
    /// soft clause `(yᵢ)` per event: falsifying `yᵢ` means the event occurs.
    SuccessTree,
}

/// The scaling of real-valued `−ln p` weights to the integer weights required
/// by Weighted Partial MaxSAT (paper Step 3).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WeightScale {
    /// Integer weight units per unit of `−ln p`. The default of `10⁹` keeps
    /// the quantisation error far below any realistic probability resolution.
    pub quantum: f64,
    /// Surrogate `−ln p` value used for probability-zero events (whose true
    /// weight is infinite). The default of `64` corresponds to treating
    /// `p = 0` as `p ≈ 1.6·10⁻²⁸`.
    pub zero_probability_weight: f64,
}

impl Default for WeightScale {
    fn default() -> Self {
        WeightScale {
            quantum: 1e9,
            zero_probability_weight: 64.0,
        }
    }
}

impl WeightScale {
    /// Scales one `−ln p` value to an integer MaxSAT weight.
    ///
    /// Probability-one events map to weight 0 (they are "free"); every other
    /// probability maps to a weight of at least 1 so that the solver still
    /// prefers to leave the event out when possible.
    pub fn scale(&self, log_weight: f64) -> u64 {
        if log_weight <= 0.0 {
            return 0;
        }
        let effective = if log_weight.is_finite() {
            log_weight
        } else {
            self.zero_probability_weight
        };
        let scaled = (effective * self.quantum).round();
        (scaled as u64).max(1)
    }
}

/// The Tseitin walk of [`MpmcsEncoding::with_style`] over a tree's gates.
struct GateWalk<'t> {
    tree: &'t FaultTree,
    /// Whether gates are defined under their dual kind (`Y(t)`).
    dual: bool,
    encoder: TseitinEncoder,
    /// The literal defined for each gate so far.
    defined: Vec<Option<Lit>>,
    /// A stack of input literals: a gate's inputs sit on top of it while
    /// the gate is defined.
    inputs: Vec<Lit>,
}

impl GateWalk<'_> {
    /// The literal equivalent to `node`: event `i` is variable `i`, a gate
    /// is defined on its first visit.
    fn node_lit(&mut self, node: NodeId) -> Lit {
        match node {
            NodeId::Event(event) => Lit::positive(Var::from_index(event.index())),
            NodeId::Gate(gate) => self.gate_lit(gate),
        }
    }

    fn gate_lit(&mut self, id: GateId) -> Lit {
        if let Some(lit) = self.defined[id.index()] {
            return lit;
        }
        let tree = self.tree;
        let gate = tree.gate(id);
        let start = self.inputs.len();
        for &input in gate.inputs() {
            let lit = self.node_lit(input);
            self.inputs.push(lit);
        }
        let kind = if self.dual {
            gate.kind().dual(gate.inputs().len())
        } else {
            gate.kind()
        };
        let inputs = &self.inputs[start..];
        let lit = match kind {
            GateKind::And => self.encoder.define_and(inputs),
            GateKind::Or => self.encoder.define_or(inputs),
            GateKind::Vot { k } => self.encoder.define_at_least(k, inputs),
        };
        self.inputs.truncate(start);
        self.defined[id.index()] = Some(lit);
        lit
    }
}

/// A fault tree encoded as a Weighted Partial MaxSAT instance (paper Steps
/// 1–4), together with everything needed to decode models back into cut sets.
#[derive(Clone, Debug)]
pub struct MpmcsEncoding {
    instance: WcnfInstance,
    style: EncodingStyle,
    num_events: usize,
    /// Scaled integer weight per event (0 for probability-one events).
    scaled_weights: Vec<u64>,
    /// Exact `−ln p` per event.
    log_weights: Vec<f64>,
    scale: WeightScale,
}

impl MpmcsEncoding {
    /// Encodes `tree` using the default (direct) style and weight scale.
    pub fn new(tree: &FaultTree) -> Self {
        Self::with_style(tree, EncodingStyle::default(), WeightScale::default())
    }

    /// Encodes `tree` with an explicit style and weight scale.
    ///
    /// Steps 1–2 are one walk over the gate DAG: each gate is defined once,
    /// after its inputs, by [`TseitinEncoder`] (under its
    /// [dual](fault_tree::GateKind::dual) kind for
    /// [`EncodingStyle::SuccessTree`]), and the top is asserted — `f(t)`, or
    /// `¬Y(t)`. This emits clause for clause what Tseitin-encoding the
    /// [`StructureFormula`](fault_tree::StructureFormula) of the tree emits,
    /// which stays the semantic reference.
    pub fn with_style(tree: &FaultTree, style: EncodingStyle, scale: WeightScale) -> Self {
        let num_events = tree.num_events();
        let mut walk = GateWalk {
            tree,
            dual: style == EncodingStyle::SuccessTree,
            encoder: TseitinEncoder::with_reserved_vars(num_events),
            defined: vec![None; tree.num_gates()],
            inputs: Vec::new(),
        };
        let top = walk.node_lit(tree.top());
        let mut cnf = walk.encoder.into_cnf();
        cnf.add_clause([match style {
            EncodingStyle::Direct => top,
            // ¬Y(t) over the y variables (paper Step 1).
            EncodingStyle::SuccessTree => !top,
        }]);
        let mut instance = WcnfInstance::with_vars(cnf.num_vars());
        instance.add_hard_cnf(cnf);

        let mut scaled_weights = Vec::with_capacity(num_events);
        let mut log_weights = Vec::with_capacity(num_events);
        for event in tree.events() {
            let log_weight = event.probability().log_weight().value();
            let weight = scale.scale(log_weight);
            log_weights.push(log_weight);
            scaled_weights.push(weight);
            if weight > 0 {
                let var = Var::from_index(log_weights.len() - 1);
                let soft_lit = match style {
                    // Prefer the event not to occur.
                    EncodingStyle::Direct => Lit::negative(var),
                    // Prefer yᵢ (= ¬xᵢ) to hold.
                    EncodingStyle::SuccessTree => Lit::positive(var),
                };
                instance.add_soft([soft_lit], weight);
            }
        }
        MpmcsEncoding {
            instance,
            style,
            num_events,
            scaled_weights,
            log_weights,
            scale,
        }
    }

    /// The Weighted Partial MaxSAT instance (paper Step 4).
    pub fn instance(&self) -> &WcnfInstance {
        &self.instance
    }

    /// Moves the instance out, leaving an empty one behind, for a session
    /// that owns it while the encoding keeps decoding models, pricing cut
    /// sets and building blocking clauses.
    pub(crate) fn take_instance(&mut self) -> WcnfInstance {
        std::mem::take(&mut self.instance)
    }

    /// The encoding style used.
    pub fn style(&self) -> EncodingStyle {
        self.style
    }

    /// The weight scale used.
    pub fn scale(&self) -> WeightScale {
        self.scale
    }

    /// Number of basic events (the first `num_events` MaxSAT variables).
    pub fn num_events(&self) -> usize {
        self.num_events
    }

    /// Scaled integer weight of each event (0 for probability-one events).
    pub fn scaled_weights(&self) -> &[u64] {
        &self.scaled_weights
    }

    /// Exact `−ln p` weight of each event (paper Table I).
    pub fn log_weights(&self) -> &[f64] {
        &self.log_weights
    }

    /// Decodes a MaxSAT model into the set of occurring events.
    pub fn decode(&self, model: &[bool]) -> CutSet {
        (0..self.num_events)
            .filter(|&i| {
                let value = model.get(i).copied().unwrap_or(false);
                match self.style {
                    EncodingStyle::Direct => value,
                    // yᵢ false ⇔ the event occurs.
                    EncodingStyle::SuccessTree => !value,
                }
            })
            .map(EventId::from_index)
            .collect()
    }

    /// The exact total log weight of a cut set, and the corresponding joint
    /// probability via the reverse transformation (paper Step 6).
    pub fn cut_probability(&self, cut: &CutSet) -> (f64, f64) {
        let log_weight: f64 = cut.iter().map(|e| self.log_weights[e.index()]).sum();
        (log_weight, (-log_weight).exp())
    }

    /// The hard *blocking clause* excluding every model that contains all
    /// events of `cut` (the clause demands at least one event to be absent).
    /// An [`McsStream`](crate::McsStream) pushes this clause into its live
    /// solver session after each reported cut set.
    pub fn blocking_clause(&self, cut: &CutSet) -> Vec<Lit> {
        cut.iter()
            .map(|e| {
                let var = Var::from_index(e.index());
                match self.style {
                    EncodingStyle::Direct => Lit::negative(var),
                    EncodingStyle::SuccessTree => Lit::positive(var),
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fault_tree::examples::{fire_protection_system, redundant_sensor_network};
    use maxsat_solver::IncrementalMaxSat;

    #[test]
    fn weight_scale_handles_boundary_probabilities() {
        let scale = WeightScale::default();
        // p = 1 → free.
        assert_eq!(scale.scale(0.0), 0);
        // p = 0 → finite surrogate.
        let zero = scale.scale(f64::INFINITY);
        assert!(zero > 0);
        assert_eq!(zero, (64.0 * 1e9) as u64);
        // Probabilities extremely close to 1 still cost at least 1.
        assert_eq!(scale.scale(1e-15), 1);
        // Ordinary values scale proportionally.
        assert_eq!(scale.scale(2.0), 2_000_000_000);
    }

    // The expected weights are the paper's printed 5-decimal values; 2.30259
    // happens to round ln(10), which clippy's approx_constant flags.
    #[allow(clippy::approx_constant)]
    #[test]
    fn encoding_matches_table_1_of_the_paper() {
        let tree = fire_protection_system();
        let encoding = MpmcsEncoding::new(&tree);
        assert_eq!(encoding.num_events(), 7);
        let expected = [
            1.60944, 2.30259, 6.90776, 6.21461, 2.99573, 2.30259, 2.99573,
        ];
        for (i, &w) in expected.iter().enumerate() {
            assert!(
                (encoding.log_weights()[i] - w).abs() < 1e-4,
                "event x{} weight {} expected {w}",
                i + 1,
                encoding.log_weights()[i]
            );
        }
        // One soft clause per event (no probability-one events here).
        assert_eq!(encoding.instance().num_soft(), 7);
        assert!(encoding.instance().num_hard() > 0);
    }

    #[test]
    fn both_encoding_styles_yield_the_same_optimal_cut() {
        for tree in [fire_protection_system(), redundant_sensor_network()] {
            let direct =
                MpmcsEncoding::with_style(&tree, EncodingStyle::Direct, WeightScale::default());
            let success = MpmcsEncoding::with_style(
                &tree,
                EncodingStyle::SuccessTree,
                WeightScale::default(),
            );
            let a = IncrementalMaxSat::new(direct.instance()).solve();
            let b = IncrementalMaxSat::new(success.instance()).solve();
            let cut_a = direct.decode(a.outcome.model().expect("optimum"));
            let cut_b = success.decode(b.outcome.model().expect("optimum"));
            assert_eq!(a.outcome.cost(), b.outcome.cost(), "{}", tree.name());
            assert!(tree.is_cut_set(&cut_a));
            assert!(tree.is_cut_set(&cut_b));
            assert!(
                (cut_a.probability(&tree) - cut_b.probability(&tree)).abs() < 1e-12,
                "{}",
                tree.name()
            );
        }
    }

    // 2.30259 is the paper's printed weight for p = 0.1 (it also rounds
    // ln(10), which clippy's approx_constant flags).
    #[allow(clippy::approx_constant)]
    #[test]
    fn decode_maps_model_bits_to_events() {
        let tree = fire_protection_system();
        let encoding = MpmcsEncoding::new(&tree);
        let mut model = vec![false; encoding.instance().num_vars()];
        model[0] = true;
        model[1] = true;
        let cut = encoding.decode(&model);
        assert_eq!(cut.len(), 2);
        assert_eq!(cut.display_names(&tree), "{x1, x2}");
        let (log_weight, probability) = encoding.cut_probability(&cut);
        assert!((probability - 0.02).abs() < 1e-9);
        assert!((log_weight - (1.60944 + 2.30259)).abs() < 1e-4);
    }

    /// The gate walk emits, clause for clause and over as many variables,
    /// what Tseitin-encoding the tree's `StructureFormula` emits: `f(t)`
    /// asserted for the direct style, `¬Y(t)` for the success tree.
    #[test]
    fn the_gate_walk_emits_the_structure_formula_cnf() {
        use fault_tree::examples::all_examples;
        use fault_tree::StructureFormula;
        use ft_generators::Family;
        use sat_solver::BoolExpr;

        let mut trees: Vec<FaultTree> = all_examples().into_iter().map(|(_, t)| t).collect();
        for family in Family::all() {
            for size in [25, 200, 1000] {
                trees.push(family.generate(size, 7));
            }
        }
        for tree in &trees {
            let formula = StructureFormula::of(tree);
            for style in [EncodingStyle::Direct, EncodingStyle::SuccessTree] {
                let mut encoder = TseitinEncoder::with_reserved_vars(tree.num_events());
                encoder.assert_true(&match style {
                    EncodingStyle::Direct => formula.failure_expr().clone(),
                    EncodingStyle::SuccessTree => BoolExpr::not(formula.dual_expr().clone()),
                });
                let reference = encoder.into_cnf();
                let encoding = MpmcsEncoding::with_style(tree, style, WeightScale::default());
                let context = format!("{} ({} nodes), {style:?}", tree.name(), tree.node_count());
                assert_eq!(
                    encoding.instance().num_vars(),
                    reference.num_vars(),
                    "{context}"
                );
                assert_eq!(
                    encoding.instance().num_hard(),
                    reference.num_clauses(),
                    "{context}"
                );
                for (index, (walked, expected)) in encoding
                    .instance()
                    .hard_clauses()
                    .zip(reference.clauses())
                    .enumerate()
                {
                    assert_eq!(walked, expected, "{context}: clause {index}");
                }
            }
        }
    }

    #[test]
    fn probability_one_events_get_no_soft_clause() {
        use fault_tree::FaultTreeBuilder;
        let mut b = FaultTreeBuilder::new("certain");
        let certain = b.basic_event("certain", 1.0).unwrap();
        let rare = b.basic_event("rare", 0.01).unwrap();
        let top = b.and_gate("top", [certain.into(), rare.into()]).unwrap();
        let tree = b.build(top.into()).unwrap();
        let encoding = MpmcsEncoding::new(&tree);
        assert_eq!(encoding.instance().num_soft(), 1);
        assert_eq!(encoding.scaled_weights()[0], 0);
        assert!(encoding.scaled_weights()[1] > 0);
    }
}
