//! Acceptance suite for the session-oriented `Analyzer` facade: facade
//! answers must be byte-identical to direct backend calls on every bundled
//! model, streaming must equal the collected path, and budgets/cancellation
//! must stop queries deterministically (a stopped stream's prefix equals the
//! unbudgeted run's prefix).

mod common;

use common::bundled_trees;

use fault_tree::{FaultTree, FaultTreeBuilder, NodeId};
use ft_backend::{backend_for, BackendConfig, BackendError, BackendKind};
use ft_session::{AnalysisService, Analyzer, Budget, CancelToken, SessionError, Termination};

/// Byte-level comparison key of a solution: the cut set plus the exact bit
/// patterns of its probability and log weight.
fn key(solution: &ft_backend::BackendSolution) -> (Vec<usize>, u64, u64) {
    (
        solution.cut_set.iter().map(|e| e.index()).collect(),
        solution.probability.to_bits(),
        solution.log_weight.to_bits(),
    )
}

/// The facade's full enumeration must be byte-identical to the direct
/// backend's `all_mcs` on every bundled model, for every engine.
#[test]
fn facade_all_mcs_is_byte_identical_to_direct_backend_calls() {
    for (name, tree) in bundled_trees() {
        for kind in [BackendKind::MaxSat, BackendKind::Bdd, BackendKind::Mocus] {
            let (_, backend) = backend_for(kind, &tree, &BackendConfig::default());
            let direct = backend
                .all_mcs(&tree)
                .unwrap_or_else(|e| panic!("{name}/{kind}: direct all_mcs failed: {e}"));
            let mut analyzer = Analyzer::for_tree(tree.clone()).backend(kind);
            let facade = analyzer
                .all_mcs()
                .unwrap_or_else(|e| panic!("{name}/{kind}: facade all_mcs failed: {e}"));
            assert!(!facade.is_truncated(), "{name}/{kind}");
            assert_eq!(facade.solutions.len(), direct.len(), "{name}/{kind}");
            for (f, d) in facade.solutions.iter().zip(&direct) {
                assert_eq!(key(f), key(d), "{name}/{kind}: solutions diverged");
            }
        }
    }
}

/// `top_k(k)` through the facade is the canonical prefix of the full
/// enumeration — and `mpmcs()` is its first entry.
#[test]
fn facade_top_k_and_mpmcs_are_canonical_prefixes() {
    for (name, tree) in bundled_trees() {
        for kind in [BackendKind::MaxSat, BackendKind::Bdd, BackendKind::Mocus] {
            let (_, backend) = backend_for(kind, &tree, &BackendConfig::default());
            let full = backend.all_mcs(&tree).expect("bundled models are solvable");
            let mut analyzer = Analyzer::for_tree(tree.clone()).backend(kind);
            let best = analyzer.mpmcs().expect("bundled models are solvable");
            assert_eq!(key(&best), key(&full[0]), "{name}/{kind}: mpmcs");
            for k in [1, 3] {
                let top = analyzer.top_k(k).expect("bundled models are solvable");
                assert_eq!(top.termination, Termination::Complete);
                assert_eq!(top.solutions.len(), k.min(full.len()), "{name}/{kind}");
                for (f, d) in top.solutions.iter().zip(&full) {
                    assert_eq!(key(f), key(d), "{name}/{kind}: top-{k} diverged");
                }
            }
        }
    }
}

/// The facade's exact probability matches the direct backend's (including
/// the typed refusal when the quantification budget is exceeded).
#[test]
fn facade_probability_matches_direct_backends() {
    for (name, tree) in bundled_trees() {
        for kind in [BackendKind::MaxSat, BackendKind::Bdd, BackendKind::Mocus] {
            let (_, backend) = backend_for(kind, &tree, &BackendConfig::default());
            let mut analyzer = Analyzer::for_tree(tree.clone()).backend(kind);
            match backend.top_event_probability(&tree) {
                Ok(direct) => {
                    let facade = analyzer
                        .probability()
                        .unwrap_or_else(|e| panic!("{name}/{kind}: facade refused: {e}"));
                    assert_eq!(
                        facade.to_bits(),
                        direct.to_bits(),
                        "{name}/{kind}: probabilities diverged"
                    );
                }
                Err(BackendError::ProbabilityUnsupported { .. }) => {
                    assert!(
                        matches!(
                            analyzer.probability(),
                            Err(SessionError::Backend(
                                BackendError::ProbabilityUnsupported { .. }
                            ))
                        ),
                        "{name}/{kind}: facade must refuse exactly like the backend"
                    );
                }
                Err(other) => panic!("{name}/{kind}: unexpected backend error: {other}"),
            }
        }
    }
}

/// Streaming yields byte-identical solutions to the collected API on every
/// bundled model — the headline redesign's acceptance criterion.
#[test]
fn streaming_is_byte_identical_to_collected_on_all_bundled_trees() {
    for (name, tree) in bundled_trees() {
        let mut analyzer = Analyzer::for_tree(tree);
        let collected = analyzer.all_mcs().expect("bundled models are solvable");
        let streamed: Vec<_> = analyzer
            .stream()
            .map(|item| item.expect("bundled models are solvable"))
            .collect();
        assert_eq!(streamed.len(), collected.solutions.len(), "{name}");
        for (s, c) in streamed.iter().zip(&collected.solutions) {
            assert_eq!(key(s), key(c), "{name}: streamed solutions diverged");
        }
    }
}

/// A tree with no proper module: 48 events `eᵢ` (p = 0.01 + 0.0017·i), six
/// OR gates over 16 consecutive events starting at `8j` (mod 48), and an AND
/// on top. Its cut-set family is far too large to enumerate in seconds.
fn ring_tree() -> FaultTree {
    let mut b = FaultTreeBuilder::new("ring");
    let events: Vec<NodeId> = (0..48)
        .map(|i| {
            b.basic_event(format!("e{i}"), 0.01 + 0.0017 * i as f64)
                .unwrap()
                .into()
        })
        .collect();
    let windows: Vec<NodeId> = (0..6)
        .map(|j| {
            let inputs: Vec<NodeId> = (0..16).map(|k| events[(8 * j + k) % 48]).collect();
            b.or_gate(format!("w{j}"), inputs).unwrap().into()
        })
        .collect();
    let top = b.and_gate("top", windows).unwrap();
    b.build(top.into()).unwrap()
}

/// A delegated engine stopped by its deadline streams the prefix it proved
/// — the canonical prefix an unbudgeted query reports — and only then ends
/// with the deadline.
#[test]
fn deadline_stopped_delegated_streams_yield_their_proven_prefix() {
    let tree = ring_tree();
    let analyzer = Analyzer::for_tree(tree.clone())
        .preprocess(true)
        .budget(Budget::wall_ms(2_000));
    assert!(!analyzer.uses_warm_session(), "preprocessing delegates");
    let mut stream = analyzer.stream();
    let streamed: Vec<_> = stream
        .by_ref()
        .map(|item| item.expect("a stop is not an error"))
        .collect();
    assert_eq!(stream.termination(), Some(Termination::Deadline));
    assert!(!streamed.is_empty(), "the proven prefix must be streamed");
    let reference = Analyzer::for_tree(tree)
        .top_k(streamed.len())
        .expect("the ring tree has cut sets");
    assert_eq!(reference.solutions.len(), streamed.len());
    for (s, r) in streamed.iter().zip(&reference.solutions) {
        assert_eq!(key(s), key(r), "streamed solutions diverged");
    }
}

/// Early exit: a budget-capped stream of `n` solutions stops the SAT engine
/// instead of enumerating the whole family, witnessed by the SAT-call
/// counters; its storage is bounded by the current tie group, never the
/// family size.
#[test]
fn capped_streams_exit_early_by_sat_call_count() {
    let (_, tree) = bundled_trees()
        .into_iter()
        .find(|(name, _)| name.contains("water_treatment"))
        .expect("the SCADA model is bundled");

    let full_analyzer = Analyzer::for_tree(tree.clone());
    let mut full_stream = full_analyzer.stream();
    let full: Vec<_> = full_stream
        .by_ref()
        .map(|item| item.expect("solvable"))
        .collect();
    let full_calls = full_stream.sat_calls().expect("live stream");
    assert!(full.len() > 3, "the study needs a non-trivial family");

    let capped_analyzer = Analyzer::for_tree(tree).budget(Budget::unlimited().max_solutions(2));
    let mut capped_stream = capped_analyzer.stream();
    let capped: Vec<_> = capped_stream
        .by_ref()
        .map(|item| item.expect("solvable"))
        .collect();
    let capped_calls = capped_stream.sat_calls().expect("live stream");
    assert_eq!(capped.len(), 2);
    assert_eq!(capped_stream.termination(), Some(Termination::SolutionCap));
    assert!(
        capped_calls < full_calls,
        "early exit must stop the SAT engine: {capped_calls} vs {full_calls}"
    );
    // The capped prefix equals the full run's prefix (cancellation
    // determinism at the solution-cap boundary).
    for (c, f) in capped.iter().zip(&full) {
        assert_eq!(key(c), key(f));
    }
}

/// Cancellation determinism: a stream stopped by a `CancelToken` mid-run has
/// delivered exactly a prefix of what the unbudgeted run delivers.
#[test]
fn cancelled_streams_deliver_a_prefix_of_the_unbudgeted_run() {
    let (_, tree) = bundled_trees()
        .into_iter()
        .find(|(name, _)| name.contains("aircraft"))
        .expect("the hydraulics model is bundled");

    let reference: Vec<_> = Analyzer::for_tree(tree.clone())
        .stream()
        .map(|item| item.expect("solvable"))
        .collect();
    assert!(reference.len() >= 2);

    // Cancel after the second delivery; the stream must stop cleanly and
    // the delivered prefix must match the reference exactly.
    let token = CancelToken::new();
    let analyzer = Analyzer::for_tree(tree).cancel_token(token.clone());
    let mut delivered = Vec::new();
    let mut stream = analyzer.stream();
    for item in stream.by_ref() {
        delivered.push(item.expect("solvable"));
        if delivered.len() == 2 {
            token.cancel();
        }
    }
    assert_eq!(stream.termination(), Some(Termination::Cancelled));
    assert_eq!(delivered.len(), 2);
    for (d, r) in delivered.iter().zip(&reference) {
        assert_eq!(key(d), key(r));
    }

    // Collected queries observe the same cancellation, with partial,
    // well-labelled results.
    let mut cancelled_analyzer = Analyzer::for_tree(fault_tree::examples::fire_protection_system())
        .cancel_token(token.clone());
    let partial = cancelled_analyzer.all_mcs().expect("no cut-set error");
    assert_eq!(partial.termination, Termination::Cancelled);
    assert!(partial.solutions.is_empty());
    assert!(matches!(
        cancelled_analyzer.mpmcs(),
        Err(SessionError::Stopped(_))
    ));
}

/// A pre-expired deadline stops every engine cleanly — including the MOCUS
/// expansion loop and the classical backends — with explicit truncation.
#[test]
fn expired_deadlines_stop_every_backend_cleanly() {
    let tree = fault_tree::examples::fire_protection_system();
    for kind in [BackendKind::MaxSat, BackendKind::Bdd, BackendKind::Mocus] {
        let mut analyzer = Analyzer::for_tree(tree.clone())
            .backend(kind)
            .budget(Budget::wall_ms(0));
        let result = analyzer.all_mcs().expect("a stop is not an error");
        assert_eq!(result.termination, Termination::Deadline, "{kind}");
        assert!(result.solutions.is_empty(), "{kind}");
        assert!(matches!(
            analyzer.mpmcs(),
            Err(SessionError::Stopped(Termination::Deadline))
        ));
    }
}

/// Warm reuse: consecutive queries on one analyzer extend the same session
/// instead of re-solving — `top_k(3)` after `top_k(1)` keeps the proven
/// prefix, and `all_mcs()` extends it to exhaustion.
#[test]
fn warm_sessions_extend_across_queries() {
    let (_, tree) = bundled_trees().remove(0);
    let mut analyzer = Analyzer::for_tree(tree);
    assert!(analyzer.uses_warm_session());
    let _ = analyzer.mpmcs().expect("solvable");
    let after_first = analyzer.warm_prefix_len();
    assert!(after_first >= 1);
    let top = analyzer.top_k(3).expect("solvable");
    assert!(analyzer.warm_prefix_len() >= top.solutions.len());
    let all = analyzer.all_mcs().expect("solvable");
    assert_eq!(analyzer.warm_prefix_len(), all.solutions.len());
    // The prefix relation holds across the query sequence.
    for (t, a) in top.solutions.iter().zip(&all.solutions) {
        assert_eq!(key(t), key(a));
    }
}

/// Truncation labelling is precise and consistent across engine paths: a
/// solution cap that exactly matches the family size is `Complete` (exit 0),
/// whether or not a deadline is also configured, for the warm session and
/// the delegated engines alike, collected or streamed.
#[test]
fn exact_cap_boundaries_are_labelled_complete_on_every_path() {
    let tree = fault_tree::examples::fire_protection_system(); // exactly 5 cut sets
    for kind in [BackendKind::MaxSat, BackendKind::Bdd, BackendKind::Mocus] {
        for with_deadline in [false, true] {
            let budget = if with_deadline {
                Budget::wall_ms(60_000).max_solutions(5)
            } else {
                Budget::unlimited().max_solutions(5)
            };
            let mut analyzer = Analyzer::for_tree(tree.clone())
                .backend(kind)
                .budget(budget);
            let all = analyzer.all_mcs().expect("solvable");
            assert_eq!(all.solutions.len(), 5, "{kind}/{with_deadline}");
            assert_eq!(
                all.termination,
                Termination::Complete,
                "{kind}/deadline={with_deadline}: an exactly-capped complete answer must not be labelled truncated"
            );
            // One below the family size really is truncated — on every path.
            let mut tight =
                Analyzer::for_tree(tree.clone())
                    .backend(kind)
                    .budget(if with_deadline {
                        Budget::wall_ms(60_000).max_solutions(4)
                    } else {
                        Budget::unlimited().max_solutions(4)
                    });
            let capped = tight.all_mcs().expect("solvable");
            assert_eq!(capped.solutions.len(), 4, "{kind}/{with_deadline}");
            assert_eq!(
                capped.termination,
                Termination::SolutionCap,
                "{kind}/deadline={with_deadline}"
            );
            // Streams end with the same labels: a live one settles whether
            // the family continues after its last delivery.
            for (streaming, cap, expected) in [
                (&analyzer, 5, Termination::Complete),
                (&tight, 4, Termination::SolutionCap),
            ] {
                let mut stream = streaming.stream();
                let delivered: Vec<_> = stream
                    .by_ref()
                    .map(|item| item.expect("solvable"))
                    .collect();
                assert_eq!(delivered.len(), cap, "{kind}/{with_deadline}");
                assert_eq!(
                    stream.termination(),
                    Some(expected),
                    "{kind}/deadline={with_deadline}: streamed cap {cap}"
                );
            }
        }
    }
}

/// A top-k prefix deposited in a shared cache replays with the labels of a
/// cache-off query, at and around every exact cap boundary: the prefix
/// enters the cache only once the family is known to continue past it,
/// because a capped cache hit is labelled `SolutionCap`.
#[test]
fn cached_prefixes_keep_exact_cap_labels() {
    use std::sync::Arc;

    use ft_backend::{AnalysisCache, DEFAULT_CACHE_BYTES};

    for (name, tree) in bundled_trees() {
        let family = Analyzer::for_tree(tree.clone())
            .all_mcs()
            .expect("solvable")
            .solutions
            .len();
        for k in 1..=family + 1 {
            let capped = |cache: Option<&Arc<AnalysisCache>>| {
                let mut analyzer =
                    Analyzer::for_tree(tree.clone()).budget(Budget::unlimited().max_solutions(k));
                if let Some(cache) = cache {
                    analyzer = analyzer.cache(Arc::clone(cache));
                }
                analyzer.all_mcs().expect("solvable")
            };
            let cache = Arc::new(AnalysisCache::new(DEFAULT_CACHE_BYTES));
            let top = Analyzer::for_tree(tree.clone())
                .cache(Arc::clone(&cache))
                .top_k(k)
                .expect("solvable");
            assert_eq!(top.termination, Termination::Complete, "{name}: top-{k}");
            let expected = capped(None);
            let replayed = capped(Some(&cache));
            assert_eq!(
                replayed.termination, expected.termination,
                "{name}: cap {k}"
            );
            assert_eq!(replayed.solutions.len(), expected.solutions.len());
            let exact = if k >= family {
                Termination::Complete
            } else {
                Termination::SolutionCap
            };
            assert_eq!(expected.termination, exact, "{name}: cap {k}");
        }
    }
}

/// The algorithm choice selects the solver of the single MPMCS only: a
/// linear-SAT–UNSAT request labels `mpmcs()`, while enumerations run on the
/// warm OLL session like every other MaxSAT enumeration.
#[test]
fn linear_su_labels_the_mpmcs_and_enumerations_run_oll() {
    let tree = fault_tree::examples::fire_protection_system();
    let mut analyzer =
        Analyzer::for_tree(tree.clone()).algorithm(ft_session::AlgorithmChoice::LinearSu);
    let mut default = Analyzer::for_tree(tree);
    assert!(analyzer.uses_warm_session());
    // The algorithm choice selects the solver of the single MPMCS, which
    // leaves the warm session untouched...
    let best = analyzer.mpmcs().expect("solvable");
    assert!(
        best.algorithm.starts_with("linear-su"),
        "{}",
        best.algorithm
    );
    assert_eq!(analyzer.warm_prefix_len(), 0);
    // ...while every enumeration extends the warm session and answers
    // exactly what the default analyzer answers.
    let all = analyzer.all_mcs().expect("solvable");
    let expected = default.all_mcs().expect("solvable");
    assert_eq!(all.solutions.len(), 5);
    assert_eq!(
        all.solutions.iter().map(key).collect::<Vec<_>>(),
        expected.solutions.iter().map(key).collect::<Vec<_>>()
    );
    assert!(all.solutions.iter().all(|s| s.algorithm == "oll"));
    assert_eq!(analyzer.warm_prefix_len(), 5);
    let top = analyzer.top_k(2).expect("solvable");
    let expected = default.top_k(2).expect("solvable");
    assert_eq!(
        top.solutions.iter().map(key).collect::<Vec<_>>(),
        expected.solutions.iter().map(key).collect::<Vec<_>>()
    );
    assert!(top.solutions.iter().all(|s| s.algorithm == "oll"));
}

/// The thread-safe service: N threads hammering one `AnalysisService` get
/// identical answers, with one shared parsed tree and per-thread sessions.
#[test]
fn service_answers_identically_across_threads() {
    let service = AnalysisService::new();
    for (name, tree) in bundled_trees() {
        service.register(name, tree);
    }
    let names = service.names();
    type ThreadAnswers = Vec<(String, Vec<(Vec<usize>, u64, u64)>)>;
    let per_thread: Vec<ThreadAnswers> = std::thread::scope(|scope| {
        (0..4)
            .map(|_| {
                scope.spawn(|| {
                    names
                        .iter()
                        .map(|name| {
                            let answer = service.top_k(name, 3).expect("bundled models solve");
                            (name.clone(), answer.solutions.iter().map(key).collect())
                        })
                        .collect()
                })
            })
            .map(|handle| handle.join().expect("workers do not panic"))
            .collect()
    });
    for thread in &per_thread {
        assert_eq!(thread, &per_thread[0], "threads must agree exactly");
    }
}

/// Budget-truncated answers are never cached: a capped query inserts nothing
/// into a shared analysis cache, a later uncapped query on the same tree
/// still computes — and then caches — the complete answer, and a third query
/// replays it from the cache bit for bit.
#[test]
fn truncated_results_are_never_cached() {
    use std::sync::Arc;

    use ft_backend::{AnalysisCache, DEFAULT_CACHE_BYTES};

    let tree = ft_generators::wide_or(8, 3);
    for kind in [BackendKind::MaxSat, BackendKind::Bdd, BackendKind::Mocus] {
        let cache = Arc::new(AnalysisCache::new(DEFAULT_CACHE_BYTES));
        // Reference: the complete answer, no cache involved.
        let expected = Analyzer::for_tree(tree.clone())
            .backend(kind)
            .top_k(5)
            .expect("solvable");
        assert_eq!(expected.termination, Termination::Complete);
        assert_eq!(expected.solutions.len(), 5);

        // Capped run: stops after 2 of the 5 requested solutions. The
        // truncated family must not be deposited.
        let truncated = Analyzer::for_tree(tree.clone())
            .backend(kind)
            .cache(Arc::clone(&cache))
            .budget(Budget::unlimited().max_solutions(2))
            .top_k(5)
            .expect("solvable");
        assert!(truncated.is_truncated(), "{kind}");
        assert_eq!(truncated.solutions.len(), 2, "{kind}");

        // A capped run may legitimately deposit *complete* sub-answers it
        // proved along the way (the canonical top-2 prefix, module
        // families), but never the truncated 2-of-5 family itself: the
        // uncapped warm query below must miss on its own key, recompute, and
        // deliver all five solutions.
        let misses_before = cache.stats().misses;
        let complete = Analyzer::for_tree(tree.clone())
            .backend(kind)
            .cache(Arc::clone(&cache))
            .top_k(5)
            .expect("solvable");
        assert_eq!(complete.termination, Termination::Complete, "{kind}");
        assert_eq!(complete.solutions.len(), 5, "{kind}");
        for (c, e) in complete.solutions.iter().zip(&expected.solutions) {
            assert_eq!(key(c), key(e), "{kind}: post-truncation answer diverged");
        }
        assert!(
            cache.stats().misses > misses_before,
            "{kind}: the truncated family must not answer the uncapped query"
        );
        assert!(cache.stats().insertions > 0, "{kind}");

        // And a third query replays it from the cache.
        let hits_before = cache.stats().hits;
        let replayed = Analyzer::for_tree(tree.clone())
            .backend(kind)
            .cache(Arc::clone(&cache))
            .top_k(5)
            .expect("solvable");
        assert_eq!(replayed.termination, Termination::Complete, "{kind}");
        assert!(cache.stats().hits > hits_before, "{kind}: replay must hit");
        for (c, e) in replayed.solutions.iter().zip(&expected.solutions) {
            assert_eq!(key(c), key(e), "{kind}: cached replay diverged");
        }
    }
}
