//! Regression suite for the one enumeration route: every MaxSAT enumeration
//! drains one `McsStream`, and every engine answers a bounded query with the
//! first entries of the canonical order (exact scaled cost, then cut set).
//!
//! * The drained enumerations equal the ZBDD route on every bundled model
//!   under `examples/trees/`, cut sets and probability bits alike.
//! * Tie groups that straddle a top-k boundary are broken the same way by
//!   every route.
//! * A deadline keeps a bounded query bounded on the modular preprocessing
//!   route and under an explicit linear-su request.

mod common;

use common::bundled_trees;

use std::sync::mpsc;
use std::time::Duration;

use bdd_engine::VariableOrdering;
use fault_tree::{FaultTree, FaultTreeBuilder};
use ft_backend::{AnalysisBackend, BackendSolution, BddBackend, MaxSatBackend};
use ft_generators::{random_tree, RandomTreeConfig};
use ft_session::{AlgorithmChoice, Analyzer, BackendKind, Budget, Termination};
use mpmcs::{EnumerationLimit, MpmcsSolution, MpmcsSolver};

fn zbdd() -> BddBackend {
    BddBackend::new(VariableOrdering::DepthFirst, 1_000_000)
}

/// Byte-level comparison key: the cut set plus the exact bit patterns of its
/// probability and log weight.
type Key = (Vec<usize>, u64, u64);

fn maxsat_keys(solutions: &[MpmcsSolution]) -> Vec<Key> {
    keys(
        &solutions
            .iter()
            .cloned()
            .map(BackendSolution::from_mpmcs)
            .collect::<Vec<_>>(),
    )
}

fn keys(solutions: &[BackendSolution]) -> Vec<Key> {
    solutions
        .iter()
        .map(|s| {
            (
                s.cut_set.iter().map(|e| e.index()).collect(),
                s.probability.to_bits(),
                s.log_weight.to_bits(),
            )
        })
        .collect()
}

#[test]
fn drained_enumerations_match_the_zbdd_route_on_all_bundled_trees() {
    for (name, tree) in bundled_trees() {
        let drained = MpmcsSolver::new()
            .enumerate(&tree, EnumerationLimit::All)
            .unwrap_or_else(|e| panic!("{name}: enumeration failed: {e}"));
        assert!(!drained.is_empty(), "{name}: no cut sets reported");
        let reference = zbdd().all_mcs(&tree).expect("bundled models enumerate");
        assert_eq!(
            maxsat_keys(&drained),
            keys(&reference),
            "{name}: full enumeration diverged from the ZBDD"
        );
    }
}

#[test]
fn drained_top_k_prefixes_match_the_zbdd_route_on_all_bundled_trees() {
    for (name, tree) in bundled_trees() {
        for k in [1, 3] {
            let drained = MpmcsSolver::new()
                .solve_top_k(&tree, k)
                .unwrap_or_else(|e| panic!("{name}: top-{k} failed: {e}"));
            let reference = zbdd().top_k(&tree, k).expect("bundled models enumerate");
            assert_eq!(
                maxsat_keys(&drained),
                keys(&reference),
                "{name}: top-{k} diverged from the ZBDD"
            );
        }
    }
}

/// The per-stage statistics prove the session is shared: every solution of
/// one enumeration carries a distinct snapshot of one strictly growing
/// session counter, while a from-scratch one-shot solve starts its own.
#[test]
fn session_counters_distinguish_incremental_from_scratch() {
    let (_, tree) = bundled_trees().remove(0);
    let solver = MpmcsSolver::new();
    let drained = solver
        .enumerate(&tree, EnumerationLimit::All)
        .expect("solvable");
    // The canonical tie ordering may permute solutions within equal-cost
    // groups, so compare the counters as a set.
    let mut session_calls: Vec<u64> = drained.iter().map(|s| s.stats.session_calls).collect();
    session_calls.sort_unstable();
    for pair in session_calls.windows(2) {
        assert!(
            pair[0] < pair[1],
            "one shared session implies distinct snapshots"
        );
    }
    let scratch = solver.solve(&tree).expect("solvable");
    assert_eq!(scratch.stats.session_calls, scratch.stats.sat_calls);
}

/// An OR of eight equally probable events: one tie group of eight.
fn eight_event_or() -> FaultTree {
    let mut b = FaultTreeBuilder::new("eight-event OR");
    let events: Vec<_> = (0..8)
        .map(|i| b.basic_event(format!("e{i}"), 0.1).unwrap().into())
        .collect();
    let top = b.or_gate("top", events).unwrap();
    b.build(top.into()).unwrap()
}

/// A 2-of-3 voting gate over three equally reliable pumps: one tie group of
/// three pairs.
fn two_of_three_pumps() -> FaultTree {
    let mut b = FaultTreeBuilder::new("2-of-3 pumps");
    let pumps: Vec<_> = (1..=3)
        .map(|i| b.basic_event(format!("pump {i}"), 0.01).unwrap().into())
        .collect();
    let top = b.voting_gate("pumps", 2, pumps).unwrap();
    b.build(top.into()).unwrap()
}

/// A tie across a module boundary: `{a, b}` (a module under the top) and
/// `{r}` cost the same, and `a`, `b` come before `r` in the tree, so the
/// canonical order starts with `{a, b}` while the quotient tree — real
/// events first, pseudo-events last — would rank `{r}` first.
fn modular_tie() -> FaultTree {
    let mut b = FaultTreeBuilder::new("modular tie");
    let a = b.basic_event("a", 0.1).unwrap();
    let bb = b.basic_event("b", 0.1).unwrap();
    let r = b.basic_event("r", 0.01).unwrap();
    let both = b.and_gate("both", vec![a.into(), bb.into()]).unwrap();
    let top = b.or_gate("top", vec![r.into(), both.into()]).unwrap();
    b.build(top.into()).unwrap()
}

/// Every route breaks a tie group that straddles the top-k boundary the way
/// the ZBDD does — the canonical first members, in canonical order — and
/// answers the same full family.
#[test]
fn every_route_breaks_ties_like_the_zbdd_at_every_top_k_boundary() {
    let modular = modular_tie();
    assert!(
        ft_backend::decompose(&fault_tree::transform::simplify(&modular)).is_some(),
        "the modular tie must reach the composition"
    );
    for tree in [eight_event_or(), two_of_three_pumps(), modular] {
        let name = tree.name().to_string();
        let analyzers = || {
            [
                ("default", Analyzer::for_tree(tree.clone())),
                (
                    "preprocess",
                    Analyzer::for_tree(tree.clone()).preprocess(true),
                ),
                (
                    "linear-su",
                    Analyzer::for_tree(tree.clone()).algorithm(AlgorithmChoice::LinearSu),
                ),
                (
                    "mocus",
                    Analyzer::for_tree(tree.clone()).backend(BackendKind::Mocus),
                ),
            ]
        };
        for k in 1..=4 {
            let expected = keys(&zbdd().top_k(&tree, k).expect("small tree"));
            assert_eq!(expected.len(), k.min(zbdd().all_mcs(&tree).unwrap().len()));
            let solver = MpmcsSolver::new().solve_top_k(&tree, k).expect("solvable");
            assert_eq!(maxsat_keys(&solver), expected, "{name}: solve_top_k({k})");
            for algorithm in [AlgorithmChoice::Oll, AlgorithmChoice::LinearSu] {
                let backend = MaxSatBackend::new(algorithm, 50_000)
                    .top_k(&tree, k)
                    .expect("solvable");
                assert_eq!(
                    keys(&backend),
                    expected,
                    "{name}: MaxSatBackend::top_k({k}) under {algorithm:?}"
                );
            }
            for (route, mut analyzer) in analyzers() {
                let answer = analyzer.top_k(k).expect("solvable");
                assert_eq!(answer.termination, Termination::Complete);
                assert_eq!(
                    keys(&answer.solutions),
                    expected,
                    "{name}: {route} top_k({k})"
                );
            }
        }
        let expected = keys(&zbdd().all_mcs(&tree).expect("small tree"));
        for (route, mut analyzer) in analyzers() {
            let answer = analyzer.all_mcs().expect("solvable");
            assert_eq!(keys(&answer.solutions), expected, "{name}: {route} all_mcs");
        }
    }
}

/// A deadline bounds a bounded query instead of sending it to a full
/// enumeration: on a tree with millions of minimal cut sets, `top_k(3)`
/// under a 2 s deadline completes with the no-deadline answer on the
/// delegated modular route and under linear-su (whose enumerations run on
/// the warm session). The query runs on a helper thread so a regression
/// fails after 20 s instead of hanging the suite.
#[test]
fn deadlines_keep_bounded_queries_bounded_with_preprocessing_and_linear_su() {
    let tree = random_tree(&RandomTreeConfig::with_total_nodes(200), 1);
    type Route = fn(Analyzer) -> Analyzer;
    let routes: [(&str, Route); 2] = [
        ("preprocess", |analyzer| analyzer.preprocess(true)),
        ("linear-su", |analyzer| {
            analyzer.algorithm(AlgorithmChoice::LinearSu)
        }),
    ];
    for (route, configure) in routes {
        let expected = configure(Analyzer::for_tree(tree.clone()))
            .top_k(3)
            .expect("solvable");
        let (sender, receiver) = mpsc::channel();
        let mut budgeted =
            configure(Analyzer::for_tree(tree.clone()).budget(Budget::wall_ms(2_000)));
        let worker = std::thread::spawn(move || {
            let _ = sender.send(budgeted.top_k(3));
        });
        let answer = match receiver.recv_timeout(Duration::from_secs(20)) {
            Ok(answer) => answer,
            Err(mpsc::RecvTimeoutError::Timeout) => {
                panic!("{route}: a 2 s deadline must not run past 20 s")
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                std::panic::resume_unwind(worker.join().expect_err("the query thread panicked"))
            }
        };
        worker.join().expect("the query thread finished");
        let answer = answer.expect("solvable");
        assert_eq!(answer.termination, Termination::Complete, "{route}");
        assert_eq!(
            keys(&answer.solutions),
            keys(&expected.solutions),
            "{route}"
        );
    }
}
