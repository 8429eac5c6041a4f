//! Cross-backend equivalence: the unified analysis-backend layer must make
//! the MaxSAT pipeline, the BDD engine and MOCUS interchangeable. For every
//! bundled model under `examples/trees/` plus generated families, all three
//! backends must report the identical minimal-cut-set family (same sets,
//! same canonical order), the identical MPMCS (modulo canonical tie order),
//! and exact top-event probabilities agreeing within 1e-9 — and the modular
//! divide-and-conquer preprocessing pass must change none of it.
//!
//! JSON-level acceptance: `--backend bdd` / `--backend mocus` produce the
//! same deterministic report as `--backend maxsat` modulo wall-clock timings
//! and solver metadata (the `solver_stats` block, `sat_calls` counters and
//! the per-engine `algorithm` tag).

mod common;

use common::bundled_trees;

use std::fs;
use std::path::{Path, PathBuf};

use fault_tree::FaultTree;
use ft_backend::{backend_for, BackendConfig, BackendError, BackendKind};
use ft_generators::Family;
use mpmcs4fta_cli::{parse_args, run};

const BACKENDS: [BackendKind; 3] = [BackendKind::MaxSat, BackendKind::Bdd, BackendKind::Mocus];

fn config(preprocess: bool) -> BackendConfig {
    BackendConfig {
        preprocess,
        ..BackendConfig::default()
    }
}

fn tree_probability(tree: &FaultTree, cut: &fault_tree::CutSet) -> f64 {
    cut.probability(tree)
}

/// Normalises a JSON report for cross-backend comparison: wall-clock timings
/// (`*_ms`), the `solver_stats` blocks, the `sat_calls` counters and the
/// per-engine `algorithm` tags legitimately differ between engines;
/// everything else — tree summary, cut sets, probabilities, log weights,
/// order — must match byte for byte.
fn normalize(json_text: &str) -> String {
    fn scrub(value: &serde::Value) -> serde::Value {
        match value {
            serde::Value::Object(map) => serde::Value::Object(
                map.iter()
                    .map(|(key, entry)| {
                        let entry = match key {
                            "sat_calls" => serde::Value::Number(serde::Number::from_i128(0)),
                            "algorithm" => serde::Value::String(String::new()),
                            _ => scrub(entry),
                        };
                        (key.to_string(), entry)
                    })
                    .collect(),
            ),
            serde::Value::Array(elements) => {
                serde::Value::Array(elements.iter().map(scrub).collect())
            }
            other => other.clone(),
        }
    }
    let value: serde::Value = serde_json::from_str(json_text).expect("valid report JSON");
    let value = ft_batch::redact_timings(&ft_batch::redact_solver_stats(&value));
    serde_json::to_string_pretty(&scrub(&value)).expect("reports always serialise")
}

/// All three backends return the identical canonical all-MCS report for
/// every bundled model — byte for byte, modulo timings and solver metadata.
#[test]
fn all_backends_report_identical_mcs_families_on_bundled_models() {
    for (name, tree) in bundled_trees() {
        let mut reference: Option<String> = None;
        for kind in BACKENDS {
            let (_, backend) = backend_for(kind, &tree, &config(false));
            let all = backend.all_mcs(&tree).expect("bundled models are solvable");
            assert!(!all.is_empty(), "{name}");
            for solution in &all {
                assert!(
                    tree.is_minimal_cut_set(&solution.cut_set),
                    "{name}: {kind} reported a non-minimal cut set"
                );
            }
            let reports: Vec<_> = all.iter().map(|s| s.to_report(&tree, true)).collect();
            let rendered = normalize(
                &serde_json::to_string_pretty(&reports).expect("reports always serialise"),
            );
            match &reference {
                None => reference = Some(rendered),
                Some(expected) => assert_eq!(
                    expected, &rendered,
                    "{name}: {kind} diverged from the maxsat report"
                ),
            }
        }
    }
}

/// The MPMCS agrees across backends on every bundled model: identical
/// probability (within 1e-9) and — modulo an equal-probability tie — the
/// same cut set; every reported optimum is a verified minimal cut set.
#[test]
fn all_backends_agree_on_the_mpmcs_of_bundled_models() {
    for (name, tree) in bundled_trees() {
        let mut reference: Option<(f64, fault_tree::CutSet)> = None;
        for kind in BACKENDS {
            let (_, backend) = backend_for(kind, &tree, &config(false));
            let best = backend.mpmcs(&tree).expect("bundled models are solvable");
            assert!(tree.is_minimal_cut_set(&best.cut_set), "{name} {kind}");
            match &reference {
                None => reference = Some((best.probability, best.cut_set.clone())),
                Some((probability, cut_set)) => {
                    // Identical optimum value always; a different cut set is
                    // only acceptable as an equal-probability tie (both
                    // sides verified minimal above).
                    assert!(
                        (probability - best.probability).abs() < 1e-9,
                        "{name}: {kind} MPMCS probability diverged"
                    );
                    if *cut_set != best.cut_set {
                        assert!(
                            (tree_probability(&tree, cut_set) - best.probability).abs() < 1e-9,
                            "{name}: {kind} reported a different, non-tied MPMCS"
                        );
                    }
                }
            }
        }
    }
}

/// Exact top-event probabilities agree within 1e-9 wherever an engine can
/// answer; the BDD (budget-free Shannon decomposition) must always answer.
#[test]
fn top_event_probabilities_agree_across_backends() {
    for (name, tree) in bundled_trees() {
        let (_, bdd) = backend_for(BackendKind::Bdd, &tree, &config(false));
        let exact = bdd
            .top_event_probability(&tree)
            .expect("the BDD probability is budget-free");
        for kind in [BackendKind::MaxSat, BackendKind::Mocus] {
            let (_, backend) = backend_for(kind, &tree, &config(false));
            match backend.top_event_probability(&tree) {
                Ok(p) => assert!(
                    (p - exact).abs() < 1e-9,
                    "{name}: {kind} probability {p} vs BDD {exact}"
                ),
                Err(BackendError::ProbabilityUnsupported { .. }) => {
                    // In-budget on every bundled model; tolerated for the
                    // generated families below.
                    panic!("{name}: bundled models must be within the IE budget");
                }
                Err(other) => panic!("{name}: {kind} failed: {other}"),
            }
        }
        // Decomposition composes the exact probability unchanged.
        let (_, pre) = backend_for(BackendKind::Bdd, &tree, &config(true));
        let composed = pre.top_event_probability(&tree).expect("exact");
        assert!((composed - exact).abs() < 1e-9, "{name}");
    }
}

/// Generated families: identical MCS families across backends, both raw and
/// through the preprocessing pass (the module-decomposition on/off
/// equivalence case), over every generator family.
#[test]
fn all_backends_agree_on_generated_families() {
    // One workload per generator family, sized so the full MCS family stays
    // enumerable by every engine (or-heavy trees explode combinatorially
    // past ~50 nodes: 28k+ cut sets, which only the MaxSAT backend could
    // enumerate in reasonable time).
    for (family, size, seed) in [
        (Family::RandomMixed, 40usize, 11u64),
        (Family::OrHeavy, 40, 11),
        (Family::AndHeavy, 70, 29),
        (Family::SharedDag, 70, 29),
        (Family::VotingHeavy, 40, 11),
    ] {
        {
            let tree = family.generate(size, seed);
            let name = format!("{}-{size}", family.name());
            let mut reference: Option<Vec<fault_tree::CutSet>> = None;
            for kind in BACKENDS {
                for preprocess in [false, true] {
                    let (_, backend) = backend_for(kind, &tree, &config(preprocess));
                    let all = backend
                        .all_mcs(&tree)
                        .expect("generated trees have cut sets");
                    let cuts: Vec<fault_tree::CutSet> =
                        all.iter().map(|s| s.cut_set.clone()).collect();
                    match &reference {
                        None => reference = Some(cuts),
                        Some(expected) => assert_eq!(
                            expected, &cuts,
                            "{name}: {kind} (preprocess={preprocess}) diverged"
                        ),
                    }
                }
            }
        }
    }
}

/// Module-decomposition on/off produces byte-identical normalized reports
/// for the same backend — the pass manager is a pure optimisation.
#[test]
fn preprocessing_produces_byte_identical_reports() {
    for (name, tree) in bundled_trees() {
        for kind in BACKENDS {
            let mut rendered: Vec<String> = Vec::new();
            for preprocess in [false, true] {
                let (_, backend) = backend_for(kind, &tree, &config(preprocess));
                let all = backend.all_mcs(&tree).expect("bundled models are solvable");
                let reports: Vec<_> = all.iter().map(|s| s.to_report(&tree, true)).collect();
                rendered.push(normalize(
                    &serde_json::to_string_pretty(&reports).expect("reports always serialise"),
                ));
            }
            assert_eq!(rendered[0], rendered[1], "{name} {kind}");
        }
    }
}

/// The CLI acceptance path: `--backend bdd` and `--backend mocus` emit the
/// same deterministic JSON as `--backend maxsat` (modulo timings and solver
/// metadata) for every bundled example file, through the real argument
/// parser and runner.
#[test]
fn cli_backends_emit_identical_deterministic_json() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/trees");
    let mut paths: Vec<PathBuf> = fs::read_dir(&dir)
        .expect("examples/trees/ ships with the repository")
        .map(|entry| entry.expect("readable directory entry").path())
        .collect();
    paths.sort();
    for path in paths {
        let path_str = path.to_str().expect("UTF-8 path");
        let mut reference: Option<String> = None;
        for backend in ["maxsat", "bdd", "mocus"] {
            let args = vec![path_str, "--backend", backend, "--all", "--quiet"];
            let options = parse_args(args).expect("valid arguments");
            let (json_text, _) = run(&options).expect("bundled examples are solvable");
            let rendered = normalize(&json_text);
            match &reference {
                None => reference = Some(rendered),
                Some(expected) => assert_eq!(
                    expected,
                    &rendered,
                    "{}: --backend {backend} JSON diverged",
                    path.display()
                ),
            }
        }
    }
}

/// Attaching a shared analysis cache changes no answer: for every bundled
/// model, every backend (including `auto`) and preprocess on/off, the
/// cache-off, cache-cold and cache-warm runs of MPMCS, top-k, all-MCS and
/// probability agree bit for bit — and the warm run actually hits.
#[test]
fn cached_analyzers_answer_byte_identically_across_backends() {
    use ft_backend::{AnalysisCache, BackendSolution, DEFAULT_CACHE_BYTES};
    use ft_session::Analyzer;
    use std::sync::Arc;

    fn key(solution: &BackendSolution) -> (Vec<usize>, u64, u64) {
        (
            solution.cut_set.iter().map(|e| e.index()).collect(),
            solution.probability.to_bits(),
            solution.log_weight.to_bits(),
        )
    }

    type Fingerprint = (
        Vec<(Vec<usize>, u64, u64)>,
        Vec<(Vec<usize>, u64, u64)>,
        (Vec<usize>, u64, u64),
        u64,
    );
    fn fingerprint(mut analyzer: Analyzer) -> Fingerprint {
        let best = analyzer.mpmcs().expect("bundled models are solvable");
        let top = analyzer.top_k(3).expect("bundled models are solvable");
        let all = analyzer.all_mcs().expect("bundled models are solvable");
        let probability = analyzer
            .probability()
            .expect("bundled models are within the IE budget");
        (
            all.solutions.iter().map(key).collect(),
            top.solutions.iter().map(key).collect(),
            key(&best),
            probability.to_bits(),
        )
    }

    for (name, tree) in bundled_trees() {
        for kind in [
            BackendKind::MaxSat,
            BackendKind::Bdd,
            BackendKind::Mocus,
            BackendKind::Auto,
        ] {
            for preprocess in [false, true] {
                let analyzer = |cache: Option<Arc<AnalysisCache>>| {
                    let mut a = Analyzer::for_tree(tree.clone())
                        .backend(kind)
                        .preprocess(preprocess);
                    if let Some(cache) = cache {
                        a = a.cache(cache);
                    }
                    a
                };
                let plain = fingerprint(analyzer(None));
                let cache = Arc::new(AnalysisCache::new(DEFAULT_CACHE_BYTES));
                let cold = fingerprint(analyzer(Some(Arc::clone(&cache))));
                let cold_hits = cache.stats().hits;
                let warm = fingerprint(analyzer(Some(Arc::clone(&cache))));
                assert_eq!(
                    plain, cold,
                    "{name}/{kind}/preprocess={preprocess}: cold cache changed an answer"
                );
                assert_eq!(
                    plain, warm,
                    "{name}/{kind}/preprocess={preprocess}: warm cache changed an answer"
                );
                assert!(
                    cache.stats().hits > cold_hits,
                    "{name}/{kind}/preprocess={preprocess}: the warm run must hit"
                );
            }
        }
    }
}

/// `--cross-check` passes on the bundled examples for every backend and
/// query shape.
#[test]
fn cli_cross_check_passes_on_bundled_examples() {
    for backend in ["maxsat", "bdd", "mocus", "auto"] {
        let options = parse_args([
            "--example",
            "crossing",
            "--backend",
            backend,
            "--cross-check",
            "--top-k",
            "3",
            "--quiet",
        ])
        .expect("valid arguments");
        let (json_text, _) = run(&options).expect("cross-check must pass");
        let value: serde::Value = serde_json::from_str(&json_text).expect("valid JSON");
        assert_eq!(value["cross_check"]["match"].as_bool(), Some(true));
    }
}
