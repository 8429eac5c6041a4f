//! Importance measures: ranking basic events by their contribution to the
//! top event.
//!
//! The MPMCS of the paper is itself a prioritisation aid; classical FTA
//! complements it with per-event importance measures. This module implements
//! the two most common ones over a set of minimal cut sets:
//!
//! * **Birnbaum importance** `I_B(e) = ∂P(top)/∂p(e)`, computed exactly from
//!   a caller-provided top-event probability function by evaluating the tree
//!   with `p(e)` forced to 1 and to 0;
//! * **Fussell–Vesely importance** `I_FV(e)`: the fraction of the top-event
//!   probability attributable to cut sets containing `e` (computed with the
//!   min-cut upper bound, the standard practice).
//!
//! [`ImportanceTable::compute`] adds Risk Achievement Worth, Risk Reduction
//! Worth, criticality and structural importance, deriving the first three
//! from the same conditioned probabilities as Birnbaum importance.

use fault_tree::{CutSet, EventId, FaultTree, Probability};

use crate::quant;

/// Birnbaum importance of every event, computed from an exact top-event
/// probability oracle (for example
/// `|t| bdd_engine::compile_fault_tree(t, ...).top_event_probability(t)`).
///
/// `I_B(e) = P(top | p(e)=1) − P(top | p(e)=0)`.
pub fn birnbaum<F>(tree: &FaultTree, mut top_probability: F) -> Vec<f64>
where
    F: FnMut(&FaultTree) -> f64,
{
    let mut importances = Vec::with_capacity(tree.num_events());
    for event in tree.event_ids() {
        let with = probability_with(tree, event, 1.0);
        let without = probability_with(tree, event, 0.0);
        importances.push(top_probability(&with) - top_probability(&without));
    }
    importances
}

fn probability_with(tree: &FaultTree, event: EventId, p: f64) -> FaultTree {
    let mut events = tree.events().to_vec();
    events[event.index()].set_probability(Probability::new(p).expect("0 and 1 are valid"));
    FaultTree::from_parts(tree.name(), events, tree.gates().to_vec(), tree.top())
        .expect("modifying a probability keeps the tree valid")
}

/// Fussell–Vesely importance of every event, computed from the minimal cut
/// sets with the min-cut upper bound.
///
/// `I_FV(e) ≈ P(∪ {K : e ∈ K}) / P(∪ K)`; events appearing in no cut set get
/// importance 0. When the tree has no cut sets at all, every importance is 0.
pub fn fussell_vesely(tree: &FaultTree, cut_sets: &[CutSet]) -> Vec<f64> {
    let total = quant::min_cut_upper_bound(tree, cut_sets);
    tree.event_ids()
        .map(|event| {
            if total <= 0.0 {
                return 0.0;
            }
            let containing: Vec<CutSet> = cut_sets
                .iter()
                .filter(|c| c.contains(event))
                .cloned()
                .collect();
            quant::min_cut_upper_bound(tree, &containing) / total
        })
        .collect()
}

/// Structural importance: Birnbaum importance evaluated with every event
/// probability set to `1/2` — the fraction of configurations of the other
/// events in which this event is critical. Depends only on the tree
/// structure, not on the probability data.
pub fn structural<F>(tree: &FaultTree, top_probability: F) -> Vec<f64>
where
    F: FnMut(&FaultTree) -> f64,
{
    let events: Vec<_> = tree
        .events()
        .iter()
        .map(|event| {
            let mut event = event.clone();
            event.set_probability(Probability::new(0.5).expect("valid"));
            event
        })
        .collect();
    let uniform = FaultTree::from_parts(tree.name(), events, tree.gates().to_vec(), tree.top())
        .expect("replacing probabilities keeps the tree valid");
    birnbaum(&uniform, top_probability)
}

/// All importance measures for every event, in one table.
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
    /// Structural importance per event.
    pub structural: Vec<f64>,
}

impl ImportanceTable {
    /// Computes every measure from an exact top-probability oracle and the
    /// minimal cut sets.
    ///
    /// The oracle runs `4n + 1` times for `n` events: once on `tree`, once
    /// with each event forced to 1 and to 0, and `2n` times for structural
    /// importance. The probabilistic measures all derive from the first
    /// `2n + 1` answers:
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
    pub fn compute<F>(tree: &FaultTree, cut_sets: &[CutSet], mut top_probability: F) -> Self
    where
        F: FnMut(&FaultTree) -> f64,
    {
        let baseline = top_probability(tree);
        let n = tree.num_events();
        let (mut birnbaum, mut raw, mut rrw, mut criticality) = (
            Vec::with_capacity(n),
            Vec::with_capacity(n),
            Vec::with_capacity(n),
            Vec::with_capacity(n),
        );
        for event in tree.event_ids() {
            let with = top_probability(&probability_with(tree, event, 1.0));
            let without = top_probability(&probability_with(tree, event, 0.0));
            let b = with - without;
            birnbaum.push(b);
            if baseline <= 0.0 {
                raw.push(0.0);
                criticality.push(0.0);
            } else {
                raw.push(with / baseline);
                criticality.push(b * tree.event(event).probability().value() / baseline);
            }
            rrw.push(if without <= 0.0 {
                if baseline <= 0.0 {
                    1.0
                } else {
                    f64::INFINITY
                }
            } else {
                baseline / without
            });
        }
        ImportanceTable {
            birnbaum,
            fussell_vesely: fussell_vesely(tree, cut_sets),
            raw,
            rrw,
            criticality,
            structural: structural(tree, &mut top_probability),
        }
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute;
    use crate::mocus::Mocus;
    use fault_tree::examples::fire_protection_system;

    #[test]
    fn birnbaum_matches_the_analytic_derivative() {
        let tree = fire_protection_system();
        let importances = birnbaum(&tree, brute::exact_top_event_probability);
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
        assert_eq!(
            table.birnbaum,
            birnbaum(&tree, brute::exact_top_event_probability)
        );
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
    fn structural_importance_ignores_the_probability_data() {
        let tree = fire_protection_system();
        let structural_values = structural(&tree, brute::exact_top_event_probability);
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
