//! Steps 1–4 of the paper: from a fault tree to a Weighted Partial MaxSAT
//! instance.

use fault_tree::{CutSet, EventId, FaultTree, StructureFormula};
use maxsat_solver::WcnfInstance;
use sat_solver::tseitin::TseitinEncoder;
use sat_solver::{BoolExpr, Lit, Var};

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
    pub fn with_style(tree: &FaultTree, style: EncodingStyle, scale: WeightScale) -> Self {
        let formula = StructureFormula::of(tree);
        let num_events = tree.num_events();
        let mut encoder = TseitinEncoder::with_reserved_vars(num_events);
        match style {
            EncodingStyle::Direct => {
                encoder.assert_true(formula.failure_expr());
            }
            EncodingStyle::SuccessTree => {
                // ¬Y(t) over the y variables (paper Step 1).
                let negated = BoolExpr::not(formula.dual_expr().clone());
                encoder.assert_true(&negated);
            }
        }
        let cnf = encoder.into_cnf();
        let mut instance = WcnfInstance::with_vars(cnf.num_vars());
        instance.add_hard_cnf(&cnf);

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
    use maxsat_solver::{MaxSatAlgorithm, OllSolver};

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
            let solver = OllSolver::default();
            let a = solver.solve(direct.instance());
            let b = solver.solve(success.instance());
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
