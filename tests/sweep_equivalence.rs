//! Mission-time sweep equivalence: the incremental `probability_sweep` is a
//! pure amortisation, never a different computation. For every bundled and
//! generated model — with failure models attached so the curves actually
//! move — each sweep point must be **bit-identical** to the corresponding
//! point `top_event_probability` query against the tree re-quantified at
//! that time, across all backends × preprocessing on/off; and all backends
//! must agree within 1e-9 at every point. The session facade's
//! `Analyzer::sweep` (warm MaxSAT session and delegated engines alike) is
//! held to the same standard against its point queries, and
//! `Analyzer::importance`, which requantifies one compiled ROBDD, against
//! the oracle that compiles every conditioned tree afresh.

mod common;

use common::bundled_trees;

use std::sync::Arc;

use bdd_engine::{compile_fault_tree, VariableOrdering};
use fault_tree::{BasicEvent, CutSet, FailureModel, FaultTree, Probability};
use ft_analysis::importance::ImportanceTable;
use ft_backend::{backend_for, AnalysisCache, BackendConfig, BackendKind};
use ft_generators::Family;
use ft_session::Analyzer;

const BACKENDS: [BackendKind; 3] = [BackendKind::MaxSat, BackendKind::Bdd, BackendKind::Mocus];

/// A short mission-time grid spanning both sides of the default mission
/// time (where the base probabilities live).
const GRID: [f64; 5] = [0.0, 0.25, 1.0, 1.75, 3.0];

/// Attaches a failure model to every event, cycling through the three laws,
/// with rates derived from the event's stored probability so the base
/// probability (the law at the default mission time, or the steady-state
/// asymptote for the repairable ramp) stays in the same regime the model was
/// authored for.
fn with_models(tree: &FaultTree) -> FaultTree {
    let mut events = tree.events().to_vec();
    for (index, event) in events.iter_mut().enumerate() {
        let p = event.probability().value().clamp(1e-6, 1.0 - 1e-6);
        let lambda = -(1.0 - p).ln();
        let model = match index % 3 {
            0 => FailureModel::exponential(lambda).expect("finite rate"),
            1 => {
                // Steady-state unavailability λ/(λ+μ) = p.
                let mu = lambda * (1.0 - p) / p;
                FailureModel::repairable(lambda, mu).expect("finite rates")
            }
            _ => FailureModel::Fixed(Probability::new(p).expect("in range")),
        };
        event.set_model(Some(model));
    }
    FaultTree::from_parts(tree.name(), events, tree.gates().to_vec(), tree.top())
        .expect("re-attaching models preserves validity")
}

fn test_corpus() -> Vec<(String, FaultTree)> {
    let mut corpus: Vec<(String, FaultTree)> = bundled_trees()
        .into_iter()
        .map(|(name, tree)| (name, with_models(&tree)))
        .collect();
    corpus.push((
        "generated/modular".into(),
        with_models(&ft_generators::modular_tree(3, 4, 9)),
    ));
    corpus.push((
        "generated/wide_or".into(),
        with_models(&ft_generators::wide_or(10, 3)),
    ));
    corpus.push((
        "generated/alternating".into(),
        with_models(&ft_generators::alternating_and_or(3, 7)),
    ));
    corpus
}

/// Every sweep point equals the point query bit for bit, for every backend ×
/// preprocessing combination, and the engines agree within 1e-9 per point.
#[test]
fn sweep_points_are_bit_identical_to_point_queries_across_all_backends() {
    for (name, tree) in test_corpus() {
        let mut curves: Vec<Vec<f64>> = Vec::new();
        for kind in BACKENDS {
            for preprocess in [false, true] {
                let config = BackendConfig {
                    preprocess,
                    ..BackendConfig::default()
                };
                let (_, backend) = backend_for(kind, &tree, &config);
                let sweep = match backend.probability_sweep(&tree, &GRID) {
                    Ok(curve) => curve,
                    Err(error) => {
                        // A backend that refuses the sweep must refuse the
                        // point queries for the same reason — never silently
                        // diverge.
                        assert!(
                            GRID.iter()
                                .any(|&t| backend.top_event_probability(&tree.at_time(t)).is_err()),
                            "{name}/{kind}/pre={preprocess}: sweep refused ({error}) but every point query succeeds"
                        );
                        continue;
                    }
                };
                assert_eq!(sweep.len(), GRID.len(), "{name}/{kind}/pre={preprocess}");
                for (i, &t) in GRID.iter().enumerate() {
                    let point = backend
                        .top_event_probability(&tree.at_time(t))
                        .unwrap_or_else(|e| {
                            panic!(
                                "{name}/{kind}/pre={preprocess}: point query at t={t} failed: {e}"
                            )
                        });
                    assert_eq!(
                        sweep[i].to_bits(),
                        point.to_bits(),
                        "{name}/{kind}/pre={preprocess}: sweep[{i}] (t={t}) = {} but the point query says {point}",
                        sweep[i]
                    );
                }
                curves.push(sweep);
            }
        }
        for curve in &curves[1..] {
            for (i, (a, b)) in curve.iter().zip(&curves[0]).enumerate() {
                assert!(
                    (a - b).abs() < 1e-9,
                    "{name}: engines disagree at grid[{i}]: {a} vs {b}"
                );
            }
        }
    }
}

/// The facade's `sweep` — the warm incremental MaxSAT session and the
/// delegated engines alike — answers bit-identically to its own point
/// `probability()` queries at each grid time.
#[test]
fn facade_sweeps_match_facade_point_queries_bit_for_bit() {
    for (name, tree) in test_corpus() {
        for kind in BACKENDS {
            let mut analyzer = Analyzer::for_tree(tree.clone()).backend(kind);
            let report = analyzer
                .sweep(&GRID)
                .unwrap_or_else(|e| panic!("{name}/{kind}: facade sweep failed: {e}"));
            assert_eq!(report.grid, GRID.to_vec(), "{name}/{kind}");
            for (t, swept) in report.points() {
                let point = Analyzer::for_tree(tree.at_time(t))
                    .backend(kind)
                    .probability()
                    .unwrap_or_else(|e| panic!("{name}/{kind}: point query at t={t} failed: {e}"));
                assert_eq!(
                    swept.to_bits(),
                    point.to_bits(),
                    "{name}/{kind}: facade sweep diverged at t={t}: {swept} vs {point}"
                );
            }
        }
    }
}

/// A tree whose canonical form is already kept must not lend it to the
/// copies `at_time` re-prices: cached point queries at every grid time —
/// cold, then warm — answer bit for bit like uncached ones. A stale form
/// would key every time on the primed tree's weights and replay one answer.
#[test]
fn cached_point_queries_on_re_priced_trees_match_uncached_ones() {
    for (name, tree) in test_corpus() {
        tree.canonical();
        for kind in BACKENDS {
            let cache = AnalysisCache::shared();
            let fresh: Vec<f64> = GRID
                .iter()
                .map(|&t| {
                    Analyzer::for_tree(tree.at_time(t))
                        .backend(kind)
                        .probability()
                        .unwrap_or_else(|e| panic!("{name}/{kind}: t={t} failed: {e}"))
                })
                .collect();
            for pass in ["cold", "warm"] {
                for (&t, &expected) in GRID.iter().zip(&fresh) {
                    let cached = Analyzer::for_tree(tree.at_time(t))
                        .backend(kind)
                        .cache(Arc::clone(&cache))
                        .probability()
                        .unwrap_or_else(|e| panic!("{name}/{kind}/{pass}: t={t} failed: {e}"));
                    assert_eq!(
                        cached.to_bits(),
                        expected.to_bits(),
                        "{name}/{kind}/{pass}: cached answer at t={t} is {cached}, uncached {expected}"
                    );
                }
            }
            assert!(cache.stats().hits > 0, "{name}/{kind}: warm pass must hit");
        }
    }
}

/// Every event gets an exponential law whose probability at the default
/// mission time is the event's stored probability.
fn with_exponential_laws(tree: &FaultTree) -> FaultTree {
    let events: Vec<BasicEvent> = tree
        .events()
        .iter()
        .map(|event| {
            let lambda = -(1.0 - event.probability().value()).ln();
            let law = FailureModel::exponential(lambda).expect("finite rate");
            BasicEvent::with_model(event.name(), law)
        })
        .collect();
    FaultTree::from_parts(tree.name(), events, tree.gates().to_vec(), tree.top())
        .expect("attaching laws keeps the tree valid")
}

/// Asserts that the facade's importance report on `tree` is bit-identical to
/// `ImportanceTable::compute` over the facade's own cut-set family with an
/// oracle that compiles a fresh ROBDD for every conditioned tree.
fn assert_importance_matches_the_per_call_compile_oracle(
    label: &str,
    tree: &FaultTree,
    kind: BackendKind,
    ordering: VariableOrdering,
) {
    let analyzer = || {
        Analyzer::for_tree(tree.clone())
            .backend(kind)
            .bdd_ordering(ordering)
    };
    let family: Vec<CutSet> = analyzer()
        .all_mcs()
        .unwrap_or_else(|e| panic!("{label}: all_mcs failed: {e}"))
        .solutions
        .into_iter()
        .map(|solution| solution.cut_set)
        .collect();
    let oracle = ImportanceTable::compute(tree, &family, |t: &FaultTree| {
        compile_fault_tree(t, ordering).top_event_probability(t)
    });
    let report = analyzer()
        .importance()
        .unwrap_or_else(|e| panic!("{label}: importance failed: {e}"));
    assert_eq!(report.rows.len(), tree.num_events(), "{label}");
    for (i, row) in report.rows.iter().enumerate() {
        assert_eq!(row.event, tree.events()[i].name(), "{label}");
        for (measure, got, expected) in [
            ("birnbaum", row.birnbaum, oracle.birnbaum[i]),
            (
                "fussell_vesely",
                row.fussell_vesely,
                oracle.fussell_vesely[i],
            ),
            ("raw", row.raw, oracle.raw[i]),
            ("rrw", row.rrw, oracle.rrw[i]),
            ("criticality", row.criticality, oracle.criticality[i]),
            ("structural", row.structural, oracle.structural[i]),
        ] {
            assert_eq!(
                got.to_bits(),
                expected.to_bits(),
                "{label}, event {}: {measure} diverged: {got} vs {expected}",
                row.event
            );
        }
    }
}

/// The facade's `importance()` compiles one ROBDD and requantifies it for
/// every conditioned tree; its table equals, bit for bit, the table from an
/// oracle that compiles each conditioned tree afresh. Checked on every
/// bundled model at every grid time and on generated 30–45-node trees of
/// all six families, for the BDD and MOCUS backends under both orderings.
#[test]
fn facade_importance_matches_the_per_call_compile_oracle_bit_for_bit() {
    let mut corpus: Vec<(String, FaultTree)> = Vec::new();
    for (name, tree) in bundled_trees() {
        let tree = with_models(&tree);
        for t in GRID {
            corpus.push((format!("{name}@{t}"), tree.at_time(t)));
        }
    }
    for family in Family::all() {
        for (i, size) in [30, 35, 40, 45].into_iter().enumerate() {
            let tree = with_exponential_laws(&family.generate(size, i as u64));
            corpus.push((format!("{}-{size}", family.name()), tree));
        }
    }
    for (name, tree) in &corpus {
        for kind in [BackendKind::Bdd, BackendKind::Mocus] {
            for ordering in [VariableOrdering::DepthFirst, VariableOrdering::Natural] {
                let label = format!("{name}/{kind}/{}", ordering.name());
                assert_importance_matches_the_per_call_compile_oracle(&label, tree, kind, ordering);
            }
        }
    }
}
