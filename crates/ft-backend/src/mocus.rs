//! The MOCUS engine behind the [`AnalysisBackend`] interface.

use std::collections::HashMap;
use std::time::Instant;

use fault_tree::{CutSet, EventId, FaultTree};
use ft_analysis::mocus::{Mocus, MocusError};

use crate::control::{QueryControl, StopCause};
use crate::solution::{canonical_sort, ranked, BackendSolution};
use crate::{AnalysisBackend, BackendError, Enumerated};

/// The classic MOCUS top-down cut-set generator as an analysis backend.
///
/// Every query enumerates the full minimal cut set family by gate expansion
/// (the cost the paper's MaxSAT approach avoids), then selects / ranks /
/// quantifies from it: the MPMCS is the canonical first element, top-k is a
/// truncation, and the exact top-event probability is computed by
/// pivotal decomposition over the cut sets, within the configured budget.
#[derive(Clone, Debug)]
pub struct MocusBackend {
    max_sets: usize,
    probability_budget: usize,
}

impl MocusBackend {
    /// Creates the backend with an intermediate-set budget and an
    /// exact-quantification recursion budget (see
    /// [`BackendConfig`](crate::BackendConfig)).
    pub fn new(max_sets: usize, probability_budget: usize) -> Self {
        MocusBackend {
            max_sets,
            probability_budget,
        }
    }

    fn cut_sets(&self, tree: &FaultTree) -> Result<Vec<CutSet>, BackendError> {
        Mocus::with_budget(tree, self.max_sets)
            .minimal_cut_sets()
            .map_err(|e| BackendError::Budget {
                backend: "mocus",
                detail: e.to_string(),
            })
    }
}

/// Exact probability of the union of `cut_sets` — the shared quantification
/// path of the MCS-based backends (MOCUS and MaxSAT), exported so the
/// session facade can quantify an already-enumerated (warm) cut-set family
/// without re-running the enumeration.
///
/// Computed by recursive pivotal (Shannon) decomposition over the cut-set
/// family: condition on the most shared event `e`, recurse into the family
/// with `e` removed (weight `p(e)`) and the family without the cuts
/// containing `e` (weight `1 − p(e)`), with an absorption pass keeping the
/// conditioned family minimal. Exact for independent basic events, and —
/// unlike naive inclusion–exclusion with its `2^m − 1` terms — comfortably
/// handles families the bundled models produce. `budget` caps the number of
/// recursion nodes; overruns report
/// [`BackendError::ProbabilityUnsupported`].
pub fn exact_union_probability(
    tree: &FaultTree,
    cut_sets: &[CutSet],
    budget: usize,
    backend: &'static str,
) -> Result<f64, BackendError> {
    let mut nodes = 0usize;
    pivotal(tree, cut_sets.to_vec(), &mut nodes, budget, 0).ok_or(
        BackendError::ProbabilityUnsupported {
            backend,
            cut_sets: cut_sets.len(),
        },
    )
}

/// Stack recursion only happens on the conditioned (`pivot` occurs) branch;
/// this caps it so pathological families refuse with `None` instead of
/// overflowing the stack.
const PIVOTAL_MAX_DEPTH: usize = 2_048;

fn pivotal(
    tree: &FaultTree,
    mut cuts: Vec<CutSet>,
    nodes: &mut usize,
    budget: usize,
    depth: usize,
) -> Option<f64> {
    if depth > PIVOTAL_MAX_DEPTH {
        return None;
    }
    // The `pivot does not occur` branch is tail-recursive — large
    // near-disjoint families (e.g. wide ORs) shrink by only one cut per
    // level, so it must iterate rather than recurse. `low_scale` carries the
    // accumulated `Π (1 − p)` weight of the chain.
    let mut total = 0.0;
    let mut low_scale = 1.0;
    loop {
        if cuts.is_empty() {
            return Some(total);
        }
        if cuts.iter().any(CutSet::is_empty) {
            // An empty cut is unconditionally satisfied.
            return Some(total + low_scale);
        }
        if cuts.len() == 1 {
            return Some(total + low_scale * cuts[0].probability(tree));
        }
        if cuts.iter().all(|cut| cut.len() == 1) {
            // An absorbed singleton family names pairwise-distinct (hence
            // independent) events: closed form, no pivoting needed. This is
            // what wide OR structures reduce to.
            let none: f64 = cuts.iter().map(|cut| 1.0 - cut.probability(tree)).product();
            return Some(total + low_scale * (1.0 - none));
        }
        // Factor out independent components: groups of cuts with pairwise
        // disjoint event supports are independent, so the union probability
        // is `1 − Π (1 − P(group))`. Wide unions of disjoint sub-systems
        // (e.g. an OR over thousands of AND pairs) thereby cost one small
        // quantification per group instead of an exponential pivot cascade.
        let components = split_components(&cuts);
        if components.len() > 1 {
            let mut none = 1.0;
            for component in components {
                none *= 1.0 - pivotal(tree, component, nodes, budget, depth)?;
            }
            return Some(total + low_scale * (1.0 - none));
        }
        *nodes += 1;
        if *nodes > budget {
            return None;
        }
        // Pivot on the most shared event (ties broken by identifier, for
        // determinism); sharing is what inclusion–exclusion struggles with,
        // so eliminating it first keeps the recursion shallow.
        let mut frequency: HashMap<EventId, usize> = HashMap::new();
        for cut in &cuts {
            for event in cut.iter() {
                *frequency.entry(event).or_insert(0) += 1;
            }
        }
        let pivot = frequency
            .iter()
            .max_by_key(|(event, count)| (**count, std::cmp::Reverse(event.index())))
            .map(|(event, _)| *event)
            .expect("non-empty cuts have events");
        let p = tree.event(pivot).probability().value();

        // `pivot` occurs: remove it everywhere, then absorb (a conditioned
        // cut may have become a superset of another).
        let mut conditioned: Vec<CutSet> = cuts
            .iter()
            .map(|cut| {
                let mut reduced = cut.clone();
                reduced.remove(pivot);
                reduced
            })
            .collect();
        conditioned.sort_by_key(CutSet::len);
        let mut high: Vec<CutSet> = Vec::new();
        for candidate in conditioned {
            if !high.iter().any(|kept| kept.is_subset(&candidate)) {
                high.push(candidate);
            }
        }
        total += low_scale * p * pivotal(tree, high, nodes, budget, depth + 1)?;
        // `pivot` does not occur: every cut containing it is dead; continue
        // iteratively on the survivors.
        cuts.retain(|cut| !cut.contains(pivot));
        low_scale *= 1.0 - p;
    }
}

/// Sweeps an already-enumerated minimal-cut-set family over a mission-time
/// grid: per point, re-derive the event probabilities at `t`, optionally
/// re-establish the canonical (probability-dependent) order, and quantify
/// the union exactly. Shared by the MCS-based backends' incremental
/// [`AnalysisBackend::probability_sweep`] overrides — the enumeration (the
/// expensive, structural part) never re-runs.
///
/// `canonical` selects the per-point family order and must mirror the
/// backend's point query: the MaxSAT engine quantifies in the canonical
/// enumeration order (which depends on the weights, hence on `t`), while
/// MOCUS quantifies in its structural expansion order (independent of `t`).
/// The session facade's warm sweep goes through this same function so its
/// curves are bit-identical to the backend's.
///
/// # Errors
///
/// Propagates [`exact_union_probability`]'s budget error when a point's
/// pivotal decomposition exceeds `budget`.
pub fn reprice_sweep(
    tree: &FaultTree,
    family: &[CutSet],
    grid: &[f64],
    budget: usize,
    backend: &'static str,
    canonical: bool,
) -> Result<Vec<f64>, BackendError> {
    let mut curve = Vec::with_capacity(grid.len());
    for &t in grid {
        let tree_t = tree.at_time(t);
        let value = if canonical {
            let mut solutions: Vec<BackendSolution> = family
                .iter()
                .map(|cut| BackendSolution::from_cut(&tree_t, cut.clone(), backend))
                .collect();
            canonical_sort(&tree_t, &mut solutions);
            let cuts: Vec<CutSet> = solutions.into_iter().map(|s| s.cut_set).collect();
            exact_union_probability(&tree_t, &cuts, budget, backend)?
        } else {
            exact_union_probability(&tree_t, family, budget, backend)?
        };
        curve.push(value);
    }
    Ok(curve)
}

/// Partitions a cut-set family into its event-connected components (cuts in
/// different components share no event). Union-find over the cut indices.
fn split_components(cuts: &[CutSet]) -> Vec<Vec<CutSet>> {
    fn find(parent: &mut [usize], mut i: usize) -> usize {
        while parent[i] != i {
            parent[i] = parent[parent[i]];
            i = parent[i];
        }
        i
    }
    let mut parent: Vec<usize> = (0..cuts.len()).collect();
    let mut owner: HashMap<EventId, usize> = HashMap::new();
    for (index, cut) in cuts.iter().enumerate() {
        for event in cut.iter() {
            match owner.get(&event) {
                Some(&other) => {
                    let a = find(&mut parent, index);
                    let b = find(&mut parent, other);
                    parent[a] = b;
                }
                None => {
                    owner.insert(event, index);
                }
            }
        }
    }
    // Ordered by root index: the caller multiplies the component
    // probabilities together, and floating-point products are only
    // bit-reproducible across calls when the factor order is deterministic.
    let mut groups: std::collections::BTreeMap<usize, Vec<CutSet>> =
        std::collections::BTreeMap::new();
    for (index, cut) in cuts.iter().enumerate() {
        let root = find(&mut parent, index);
        groups.entry(root).or_default().push(cut.clone());
    }
    groups.into_values().collect()
}

impl AnalysisBackend for MocusBackend {
    fn name(&self) -> &'static str {
        "mocus"
    }

    fn mpmcs(&self, tree: &FaultTree) -> Result<BackendSolution, BackendError> {
        Ok(self.all_mcs(tree)?.swap_remove(0))
    }

    fn top_event_probability(&self, tree: &FaultTree) -> Result<f64, BackendError> {
        let cut_sets = self.cut_sets(tree)?;
        exact_union_probability(tree, &cut_sets, self.probability_budget, self.name())
    }

    /// The MOCUS expansion is purely structural, so it runs once for the
    /// whole grid; each timepoint re-quantifies the same family — in the
    /// same expansion order the point query uses — under the probabilities
    /// at `t`.
    fn probability_sweep(&self, tree: &FaultTree, grid: &[f64]) -> Result<Vec<f64>, BackendError> {
        let family = self.cut_sets(tree)?;
        reprice_sweep(
            tree,
            &family,
            grid,
            self.probability_budget,
            self.name(),
            false,
        )
    }

    /// MOCUS polls the control once per gate expansion, so a deadline or a
    /// cancellation stops the (potentially exponential) expansion promptly.
    /// The expansion computes the family bottom-up — no cut set is known
    /// until the end — so a stopped query reports an empty, well-labelled
    /// prefix rather than unordered partial work.
    fn enumerate(
        &self,
        tree: &FaultTree,
        limit: Option<usize>,
        control: &QueryControl,
    ) -> Result<Enumerated, BackendError> {
        let start = Instant::now();
        let probe = control.clone();
        let expansion = Mocus::with_budget(tree, self.max_sets)
            .with_interrupt(std::sync::Arc::new(move || probe.stop_cause().is_some()))
            .minimal_cut_sets();
        let cut_sets = match expansion {
            Ok(cut_sets) => cut_sets,
            Err(MocusError::Interrupted) => {
                return Ok(Enumerated::interrupted(
                    control.stop_cause().unwrap_or(StopCause::Cancelled),
                ))
            }
            Err(error) => {
                return Err(BackendError::Budget {
                    backend: "mocus",
                    detail: error.to_string(),
                })
            }
        };
        if cut_sets.is_empty() {
            return Err(BackendError::NoCutSet);
        }
        Ok(Enumerated::complete(ranked(
            tree,
            cut_sets,
            self.name(),
            limit,
            start,
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fault_tree::examples::{fire_protection_system, pressure_tank_system};

    #[test]
    fn mocus_backend_answers_all_four_queries() {
        let tree = fire_protection_system();
        let backend = MocusBackend::new(100_000, 20);
        let best = backend.mpmcs(&tree).expect("small tree");
        assert_eq!(best.event_names(&tree), vec!["x1", "x2"]);
        assert!((best.probability - 0.02).abs() < 1e-12);
        let top2 = backend.top_k(&tree, 2).expect("small tree");
        assert_eq!(top2.len(), 2);
        assert_eq!(top2[1].event_names(&tree), vec!["x5", "x6"]);
        assert_eq!(backend.all_mcs(&tree).expect("small tree").len(), 5);
        let p = backend.top_event_probability(&tree).expect("5 cut sets");
        let exact = bdd_engine::compile_fault_tree(&tree, bdd_engine::VariableOrdering::DepthFirst)
            .top_event_probability(&tree);
        assert!((p - exact).abs() < 1e-12);
    }

    /// Regression: wide disjoint families used to recurse once per cut on
    /// the `pivot does not occur` branch and overflow the stack. Singleton
    /// families now hit the closed form directly, and non-singleton disjoint
    /// chains walk the low branch iteratively — both quantify exactly.
    #[test]
    fn wide_disjoint_families_quantify_without_deep_recursion() {
        // Pure OR: the all-singleton closed form.
        let tree = ft_generators::wide_or(2_000, 7);
        let backend = MocusBackend::new(1_000_000, 50_000);
        let p = backend.top_event_probability(&tree).expect("closed form");
        let expected = 1.0
            - tree
                .events()
                .iter()
                .map(|e| 1.0 - e.probability().value())
                .product::<f64>();
        assert!((p - expected).abs() < 1e-9, "{p} vs {expected}");

        // OR over disjoint AND pairs: not singletons, so every pair costs
        // one iterative low step (the chain that used to be a stack frame
        // per cut) plus a depth-2 conditioned recursion.
        let mut b = fault_tree::FaultTreeBuilder::new("pairs");
        let mut pairs = Vec::new();
        for i in 0..1_500 {
            let left = b.basic_event(format!("a{i}"), 0.01).unwrap();
            let right = b.basic_event(format!("b{i}"), 0.02).unwrap();
            pairs.push(
                b.and_gate(format!("p{i}"), [left.into(), right.into()])
                    .unwrap()
                    .into(),
            );
        }
        let top = b.or_gate("top", pairs).unwrap();
        let tree = b.build(top.into()).unwrap();
        let p = backend
            .top_event_probability(&tree)
            .expect("disjoint pairs stay within depth and budget");
        let expected = 1.0 - (1.0 - 0.01 * 0.02f64).powi(1_500);
        assert!((p - expected).abs() < 1e-9, "{p} vs {expected}");
    }

    #[test]
    fn budgets_surface_as_backend_errors() {
        let tree = pressure_tank_system();
        let starved = MocusBackend::new(1, 20);
        assert!(matches!(
            starved.all_mcs(&tree),
            Err(BackendError::Budget {
                backend: "mocus",
                ..
            })
        ));
        let no_probability = MocusBackend::new(100_000, 0);
        assert!(matches!(
            no_probability.top_event_probability(&tree),
            Err(BackendError::ProbabilityUnsupported { cut_sets: 3, .. })
        ));
    }
}
