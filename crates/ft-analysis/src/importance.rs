//! Importance measures: ranking basic events by their contribution to the
//! top event.
//!
//! The MPMCS of the paper is itself a prioritisation aid; classical FTA
//! complements it with per-event importance measures. [`ImportanceTable`]
//! holds six per event: Birnbaum `I_B(e) = ∂P(top)/∂p(e)`, Fussell–Vesely
//! (the share of the top-event probability attributable to cut sets
//! containing `e`, with the min-cut upper bound, the standard practice),
//! RAW, RRW, criticality and structural importance.
//!
//! All but Fussell–Vesely come from `4n + 1` exact top-event probabilities
//! of one structure under re-priced events. [`ImportanceTable::repriced`]
//! asks them of an oracle over per-event prices, so one compiled ROBDD
//! answers all of them by requantification (the facade's `importance()`);
//! [`ImportanceTable::compute`] is the tree-valued reference, which asks
//! each of one re-priced `FaultTree` copy.

use fault_tree::{CutSet, EventId, FaultTree, Probability};

/// Fussell–Vesely importance of every event, computed from the minimal cut
/// sets with the min-cut upper bound.
///
/// `I_FV(e) ≈ P(∪ {K : e ∈ K}) / P(∪ K)`; events appearing in no cut set get
/// importance 0. When the tree has no cut sets at all, every importance is 0.
/// One pass prices each cut set once and multiplies `1 − P(K)` into each
/// member's accumulator in family order: the factors and order of
/// [`crate::quant::min_cut_upper_bound`], so the bits are the same.
pub fn fussell_vesely(tree: &FaultTree, cut_sets: &[CutSet]) -> Vec<f64> {
    let mut none_occur = 1.0;
    let mut none_containing_occur = vec![1.0; tree.num_events()];
    for cut in cut_sets {
        let miss = 1.0 - cut.probability(tree);
        none_occur *= miss;
        for event in cut.iter() {
            none_containing_occur[event.index()] *= miss;
        }
    }
    let total = 1.0 - none_occur;
    none_containing_occur
        .into_iter()
        .map(|none| {
            if total <= 0.0 {
                0.0
            } else {
                (1.0 - none) / total
            }
        })
        .collect()
}

/// All importance measures for every event, in one table: `4n + 1` oracle
/// answers under re-priced events ([`ImportanceTable::repriced`]; one
/// compiled ROBDD re-priced in the facade) plus one Fussell–Vesely pass.
/// [`ImportanceTable::compute`] is the tree-valued reference.
#[derive(Clone, Debug)]
pub struct ImportanceTable {
    /// Birnbaum importance per event (index = `EventId::index`).
    pub birnbaum: Vec<f64>,
    /// Fussell–Vesely importance per event.
    pub fussell_vesely: Vec<f64>,
    /// Risk Achievement Worth per event.
    pub raw: Vec<f64>,
    /// Risk Reduction Worth per event.
    pub rrw: Vec<f64>,
    /// Criticality importance per event.
    pub criticality: Vec<f64>,
    /// Structural importance per event: Birnbaum importance with every
    /// price at `1/2`, which depends on the structure alone.
    pub structural: Vec<f64>,
}

impl ImportanceTable {
    /// Computes every measure from an exact top-probability oracle over
    /// per-event prices (index = `EventId::index`) and the minimal cut sets.
    ///
    /// The oracle runs `4n + 1` times for `n` events, on one price vector
    /// whose flipped entry is restored after each pair of calls: the tree's
    /// own prices; each event at 1 and then at 0; the all-`1/2` prices with
    /// each event at 1 and then at 0 (structural importance). The
    /// probabilistic measures derive from the first `2n + 1` answers:
    ///
    /// * Birnbaum `I_B(e) = P(top | p(e)=1) − P(top | p(e)=0)`;
    /// * Risk Achievement Worth `RAW(e) = P(top | p(e)=1) / P(top)` — how
    ///   much worse the system gets if the component is assumed failed
    ///   (0 by convention when `P(top)` is 0);
    /// * Risk Reduction Worth `RRW(e) = P(top) / P(top | p(e)=0)` — how much
    ///   the system improves if the component were made perfect
    ///   (`f64::INFINITY` when that makes the top event impossible, 1 when
    ///   the top event is impossible anyway);
    /// * criticality `I_C(e) = I_B(e) · p(e) / P(top)` — the probability
    ///   that the event is both critical and occurring, given that the top
    ///   event occurred (0 when `P(top)` is 0).
    pub fn repriced<F>(tree: &FaultTree, cut_sets: &[CutSet], mut top_probability: F) -> Self
    where
        F: FnMut(&[f64]) -> f64,
    {
        let mut prices: Vec<f64> = tree
            .events()
            .iter()
            .map(|e| e.probability().value())
            .collect();
        let baseline = top_probability(&prices);
        let (mut birnbaum, mut raw, mut rrw, mut criticality) = (vec![], vec![], vec![], vec![]);
        for i in 0..prices.len() {
            let (with, without) = forced(&mut prices, i, &mut top_probability);
            let b = with - without;
            birnbaum.push(b);
            if baseline <= 0.0 {
                raw.push(0.0);
                criticality.push(0.0);
            } else {
                raw.push(with / baseline);
                criticality.push(b * prices[i] / baseline);
            }
            rrw.push(match (without <= 0.0, baseline <= 0.0) {
                (false, _) => baseline / without,
                (true, true) => 1.0,
                (true, false) => f64::INFINITY,
            });
        }
        prices.fill(0.5);
        let structural = (0..prices.len())
            .map(|i| {
                let (with, without) = forced(&mut prices, i, &mut top_probability);
                with - without
            })
            .collect();
        ImportanceTable {
            birnbaum,
            fussell_vesely: fussell_vesely(tree, cut_sets),
            raw,
            rrw,
            criticality,
            structural,
        }
    }

    /// The tree-valued reference of [`ImportanceTable::repriced`]: the same
    /// oracle calls in the same order, each on a copy of `tree` carrying that
    /// call's prices (for example `|t| bdd_engine::compile_fault_tree(t,
    /// ...).top_event_probability(t)`, a fresh diagram per call).
    pub fn compute<F>(tree: &FaultTree, cut_sets: &[CutSet], mut top_probability: F) -> Self
    where
        F: FnMut(&FaultTree) -> f64,
    {
        Self::repriced(tree, cut_sets, |prices| {
            let mut events = tree.events().to_vec();
            for (event, &p) in events.iter_mut().zip(prices) {
                event.set_probability(Probability::new(p).expect("prices are probabilities"));
            }
            let priced =
                FaultTree::from_parts(tree.name(), events, tree.gates().to_vec(), tree.top())
                    .expect("re-pricing keeps the tree valid");
            top_probability(&priced)
        })
    }

    /// Renders the table as aligned text, one row per event, ordered by
    /// decreasing criticality (used by the CLI and the examples).
    pub fn render(&self, tree: &FaultTree) -> String {
        let mut out = String::new();
        out.push_str(
            "event                          birnbaum   fussell-v  raw        rrw        critical   structural\n",
        );
        for (event, _) in rank(&self.criticality) {
            let i = event.index();
            let rrw = if self.rrw[i].is_infinite() {
                "inf".to_string()
            } else {
                format!("{:.4}", self.rrw[i])
            };
            out.push_str(&format!(
                "{:<30} {:<10.4} {:<10.4} {:<10.4} {:<10} {:<10.4} {:<10.4}\n",
                tree.event(event).name(),
                self.birnbaum[i],
                self.fussell_vesely[i],
                self.raw[i],
                rrw,
                self.criticality[i],
                self.structural[i],
            ));
        }
        out
    }
}

/// Ranks events by decreasing importance, returning `(event, importance)`
/// pairs.
pub fn rank(importances: &[f64]) -> Vec<(EventId, f64)> {
    let mut ranked: Vec<(EventId, f64)> = importances
        .iter()
        .enumerate()
        .map(|(i, &value)| (EventId::from_index(i), value))
        .collect();
    ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
    ranked
}

/// `(P(top | p(e)=1), P(top | p(e)=0))` for the event at `index`, whose
/// price is forced to 1, then to 0, then restored.
fn forced(prices: &mut [f64], index: usize, oracle: &mut impl FnMut(&[f64]) -> f64) -> (f64, f64) {
    let price = prices[index];
    prices[index] = 1.0;
    let with = oracle(prices);
    prices[index] = 0.0;
    let without = oracle(prices);
    prices[index] = price;
    (with, without)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute;
    use crate::mocus::Mocus;
    use fault_tree::examples::fire_protection_system;

    #[test]
    fn birnbaum_matches_the_analytic_derivative() {
        let tree = fire_protection_system();
        let cut_sets = Mocus::new(&tree).minimal_cut_sets().unwrap();
        let importances =
            ImportanceTable::compute(&tree, &cut_sets, brute::exact_top_event_probability).birnbaum;
        assert_eq!(importances.len(), 7);
        // For x1: ∂P/∂p1 = p2 * (1 - P(suppression)). Compute analytically.
        let p_trigger = 0.05 * (1.0 - 0.9 * 0.95);
        let p_suppr = 1.0 - (1.0 - 0.001) * (1.0 - 0.002) * (1.0 - p_trigger);
        let x1 = tree.event_by_name("x1").unwrap();
        let expected_x1 = 0.1 * (1.0 - p_suppr);
        assert!((importances[x1.index()] - expected_x1).abs() < 1e-12);
        // All importances are within [0, 1] for a coherent tree.
        for &i in &importances {
            assert!((0.0..=1.0).contains(&i));
        }
    }

    #[test]
    fn fussell_vesely_ranks_single_point_failures_by_probability_share() {
        let tree = fire_protection_system();
        let cut_sets = Mocus::new(&tree).minimal_cut_sets().unwrap();
        let importances = fussell_vesely(&tree, &cut_sets);
        let x1 = tree.event_by_name("x1").unwrap();
        let x5 = tree.event_by_name("x5").unwrap();
        let x3 = tree.event_by_name("x3").unwrap();
        // x1 appears only in {x1,x2} (p=0.02); x3 only in {x3} (p=0.001).
        assert!(importances[x1.index()] > importances[x3.index()]);
        // x5 appears in two cut sets with total ≈ 0.0075.
        assert!(importances[x5.index()] > importances[x3.index()]);
        // Values are normalised fractions.
        for &i in &importances {
            assert!((0.0..=1.0).contains(&i));
        }
    }

    #[test]
    fn rank_orders_events_by_decreasing_importance() {
        let ranked = rank(&[0.1, 0.7, 0.3]);
        let order: Vec<usize> = ranked.iter().map(|(e, _)| e.index()).collect();
        assert_eq!(order, vec![1, 2, 0]);
    }

    #[test]
    fn events_outside_every_cut_set_have_zero_fv_importance() {
        use fault_tree::FaultTreeBuilder;
        let mut b = FaultTreeBuilder::new("orphan");
        let used = b.basic_event("used", 0.2).unwrap();
        let _orphan = b.basic_event("orphan", 0.9).unwrap();
        let top = b.or_gate("top", [used.into()]).unwrap();
        let tree = b.build(top.into()).unwrap();
        let cut_sets = Mocus::new(&tree).minimal_cut_sets().unwrap();
        let importances = fussell_vesely(&tree, &cut_sets);
        assert_eq!(importances[1], 0.0);
        assert!((importances[0] - 1.0).abs() < 1e-12);
    }
}

#[cfg(test)]
mod extended_tests {
    use super::*;
    use crate::brute;
    use crate::mocus::Mocus;
    use fault_tree::examples::{fire_protection_system, pressure_tank_system};

    fn table(tree: &FaultTree) -> ImportanceTable {
        let cut_sets = Mocus::new(tree).minimal_cut_sets().unwrap();
        ImportanceTable::compute(tree, &cut_sets, brute::exact_top_event_probability)
    }

    #[test]
    fn raw_and_rrw_are_at_least_one_for_contributing_events() {
        let tree = fire_protection_system();
        let table = table(&tree);
        for (i, (&a, &r)) in table.raw.iter().zip(&table.rrw).enumerate() {
            assert!(a >= 1.0 - 1e-12, "RAW of event {i} is {a}");
            assert!(r >= 1.0 - 1e-12, "RRW of event {i} is {r}");
        }
        // Forcing x3 (a single-point OR input) to certain failure forces the
        // top event: RAW(x3) = 1 / P(top).
        let x3 = tree.event_by_name("x3").unwrap();
        let baseline = brute::exact_top_event_probability(&tree);
        assert!((table.raw[x3.index()] - 1.0 / baseline).abs() < 1e-9);
    }

    #[test]
    fn rrw_is_infinite_for_the_only_cut_set_member() {
        use fault_tree::FaultTreeBuilder;
        let mut b = FaultTreeBuilder::new("series");
        let a = b.basic_event("a", 0.2).unwrap();
        let c = b.basic_event("c", 0.3).unwrap();
        let top = b.and_gate("top", [a.into(), c.into()]).unwrap();
        let tree = b.build(top.into()).unwrap();
        assert!(table(&tree).rrw.iter().all(|r| r.is_infinite()));
    }

    #[test]
    fn criticality_is_birnbaum_weighted_by_probability_share() {
        let tree = fire_protection_system();
        let baseline = brute::exact_top_event_probability(&tree);
        let table = table(&tree);
        for event in tree.event_ids() {
            let expected =
                table.birnbaum[event.index()] * tree.event(event).probability().value() / baseline;
            let got = table.criticality[event.index()];
            assert!((got - expected).abs() < 1e-12);
            assert!((0.0..=1.0 + 1e-12).contains(&got));
        }
    }

    #[test]
    fn compute_queries_the_oracle_four_times_per_event_plus_once() {
        let tree = fire_protection_system();
        let cut_sets = Mocus::new(&tree).minimal_cut_sets().unwrap();
        let mut calls = 0;
        ImportanceTable::compute(&tree, &cut_sets, |t: &FaultTree| {
            calls += 1;
            brute::exact_top_event_probability(t)
        });
        assert_eq!(calls, 4 * tree.num_events() + 1);
    }

    #[test]
    fn repriced_asks_the_tree_prices_then_each_event_forced_and_restored() {
        let tree = fire_protection_system();
        let cut_sets = Mocus::new(&tree).minimal_cut_sets().unwrap();
        let mut seen: Vec<Vec<f64>> = Vec::new();
        ImportanceTable::repriced(&tree, &cut_sets, |prices: &[f64]| {
            seen.push(prices.to_vec());
            0.5
        });
        let own: Vec<f64> = tree
            .events()
            .iter()
            .map(|event| event.probability().value())
            .collect();
        let mut expected = vec![own.clone()];
        for base in [own, vec![0.5; tree.num_events()]] {
            for i in 0..base.len() {
                for forced in [1.0, 0.0] {
                    let mut prices = base.clone();
                    prices[i] = forced;
                    expected.push(prices);
                }
            }
        }
        assert_eq!(expected.len(), 4 * tree.num_events() + 1);
        assert_eq!(seen, expected);
    }

    #[test]
    fn structural_importance_ignores_the_probability_data() {
        let tree = fire_protection_system();
        let structural_values = table(&tree).structural;
        // x3 and x4 are symmetric in the structure (both direct OR inputs),
        // even though their probabilities differ.
        let x3 = tree.event_by_name("x3").unwrap();
        let x4 = tree.event_by_name("x4").unwrap();
        assert!((structural_values[x3.index()] - structural_values[x4.index()]).abs() < 1e-12);
        // x6 and x7 are symmetric too.
        let x6 = tree.event_by_name("x6").unwrap();
        let x7 = tree.event_by_name("x7").unwrap();
        assert!((structural_values[x6.index()] - structural_values[x7.index()]).abs() < 1e-12);
    }

    #[test]
    fn importance_table_renders_every_event_sorted_by_criticality() {
        for tree in [fire_protection_system(), pressure_tank_system()] {
            let table = table(&tree);
            assert_eq!(table.birnbaum.len(), tree.num_events());
            let text = table.render(&tree);
            for event in tree.events() {
                assert!(text.contains(event.name()), "{} missing", event.name());
            }
            assert!(text.contains("birnbaum"));
        }
    }
}
