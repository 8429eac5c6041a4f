//! The sharded worker pool that drives a batch run.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Instant;

use bdd_engine::VariableOrdering;
use fault_tree::FaultTree;
use ft_backend::{AnalysisCache, BackendKind, Budget};
use ft_session::{Analyzer, SessionError};
use mpmcs::AlgorithmChoice;

use crate::manifest::{BatchJob, BatchManifest};
use crate::report::{
    BatchReport, BatchSummary, CacheSummary, ImportanceRow, SweepCurve, TreeReport,
};

/// Configuration of a batch run.
#[derive(Clone, Debug)]
pub struct BatchConfig {
    /// Worker threads; `0` asks the OS for the available parallelism. The
    /// pool never spawns more workers than there are jobs.
    pub jobs: usize,
    /// Minimal cut sets to enumerate per tree (at least 1; the first is the
    /// MPMCS).
    pub top_k: usize,
    /// The MaxSAT algorithm handed to each tree's analyzer and recorded in
    /// the report summary. Each row is a top-k enumeration, and every
    /// enumeration runs the deterministic core-guided OLL session whatever
    /// the choice, so parallelism comes entirely from the worker pool (one
    /// tree per thread), which keeps per-tree results bit-identical for any
    /// worker count.
    pub algorithm: AlgorithmChoice,
    /// Also compute the Birnbaum / Fussell-Vesely / criticality importance
    /// table per tree (needs the MOCUS cut-set enumeration; skipped for trees
    /// that exceed [`BackendConfig::mocus_budget`](ft_backend::BackendConfig)).
    pub importance: bool,
    /// Attach the detailed solver statistics block (conflicts, propagations,
    /// restarts, learnt-clause reuse, session counters) to every reported cut
    /// set. Like timings, the block is stripped by
    /// [`BatchReport::to_deterministic_json`](crate::BatchReport::to_deterministic_json).
    pub stats: bool,
    /// Which analysis engine answers every per-tree query
    /// ([`BackendKind::Auto`] resolves per tree from structural features).
    pub backend: BackendKind,
    /// The BDD variable ordering used by the BDD backend (and by the
    /// importance table's exact probability).
    pub bdd_ordering: VariableOrdering,
    /// Run the modular divide-and-conquer preprocessing pass in front of
    /// every per-tree analysis.
    pub preprocess: bool,
    /// Per-tree wall-clock budget in milliseconds (CLI `--timeout-ms`). A
    /// tree whose analysis hits the deadline reports the canonical solution
    /// prefix it had proven, marked `truncated` — never a silently
    /// incomplete answer.
    pub timeout_ms: Option<u64>,
    /// Per-tree cap on reported solutions (CLI `--max-solutions`); rows
    /// capped below `top_k` are marked `truncated`.
    pub max_solutions: Option<usize>,
    /// A shared content-addressed [`AnalysisCache`] consulted and fed by
    /// every worker (CLI `--cache`). Workers reuse complete canonical
    /// answers across isomorphic trees — and across batches when the same
    /// handle is passed again. Counters land in
    /// [`BatchSummary::cache`](crate::BatchSummary); like timings they are
    /// redacted from the deterministic rendering, because the cache never
    /// changes an answer, only how fast it arrives.
    pub cache: Option<Arc<AnalysisCache>>,
    /// A mission-time grid (CLI `--sweep`): every tree additionally reports
    /// its top-event probability curve over these times, computed
    /// incrementally by [`Analyzer::sweep`] — the structure is solved once
    /// and each point re-quantified, bit-identical to the corresponding
    /// point queries. `None` (the default) keeps sweepless reports at their
    /// historical byte format.
    pub sweep: Option<Vec<f64>>,
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig {
            jobs: 0,
            top_k: 1,
            algorithm: AlgorithmChoice::Oll,
            importance: false,
            stats: false,
            backend: BackendKind::MaxSat,
            bdd_ordering: VariableOrdering::DepthFirst,
            preprocess: false,
            timeout_ms: None,
            max_solutions: None,
            cache: None,
            sweep: None,
        }
    }
}

impl BatchConfig {
    /// The per-query [`Budget`] implied by the configured limits.
    pub fn budget(&self) -> Budget {
        Budget::from_limits(self.timeout_ms, self.max_solutions)
    }

    /// The worker count a manifest of `jobs_available` jobs will actually
    /// use: the configured count (or the available parallelism when 0),
    /// capped by the number of jobs and floored at 1.
    pub fn effective_jobs(&self, jobs_available: usize) -> usize {
        let requested = if self.jobs == 0 {
            thread::available_parallelism().map_or(1, usize::from)
        } else {
            self.jobs
        };
        requested.min(jobs_available).max(1)
    }
}

/// Runs the full MPMCS pipeline on every job of `manifest` using a sharded
/// worker pool, and aggregates the per-tree results into a deterministic
/// [`BatchReport`] (results in manifest order; per-tree failures are recorded
/// in the report instead of aborting the batch).
///
/// ```rust
/// use ft_batch::{run_batch, BatchConfig, BatchManifest};
/// use ft_generators::Family;
///
/// let manifest = BatchManifest::generated(Family::OrHeavy, 50, 4, 11);
/// let report = run_batch(&manifest, &BatchConfig { jobs: 4, ..BatchConfig::default() });
/// assert_eq!(report.summary.succeeded, 4);
/// assert!(report.results.iter().all(|r| r.status == "ok"));
/// ```
pub fn run_batch(manifest: &BatchManifest, config: &BatchConfig) -> BatchReport {
    let start = Instant::now();
    let before = config.cache.as_ref().map(|cache| cache.stats());
    let total = manifest.jobs.len();
    let workers = config.effective_jobs(total);
    let mut slots: Vec<Option<TreeReport>> = (0..total).map(|_| None).collect();

    if total > 0 {
        let next = AtomicUsize::new(0);
        let finished: Vec<Vec<(usize, TreeReport)>> = thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        let mut local = Vec::new();
                        loop {
                            let index = next.fetch_add(1, Ordering::Relaxed);
                            if index >= total {
                                break;
                            }
                            local.push((index, analyze_job(&manifest.jobs[index], config)));
                        }
                        local
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|handle| handle.join().expect("batch workers do not panic"))
                .collect()
        });
        for (index, report) in finished.into_iter().flatten() {
            slots[index] = Some(report);
        }
    }

    let results: Vec<TreeReport> = slots
        .into_iter()
        .map(|slot| slot.expect("every job index is analysed exactly once"))
        .collect();
    let succeeded = results.iter().filter(|r| r.status == "ok").count();
    let summary = BatchSummary {
        trees: total,
        succeeded,
        failed: total - succeeded,
        jobs: workers,
        top_k: config.top_k.max(1),
        algorithm: algorithm_name(config.algorithm).to_string(),
        backend: config.backend.name().to_string(),
        total_events: results
            .iter()
            .filter(|r| r.status == "ok")
            .map(|r| r.num_events)
            .sum(),
        total_cut_sets: results.iter().map(|r| r.cut_sets.len()).sum(),
        total_sat_calls: results.iter().map(|r| r.sat_calls).sum(),
        wall_time_ms: start.elapsed().as_secs_f64() * 1e3,
        cache: config.cache.as_ref().map(|cache| {
            // Monotone counters are reported as this batch's delta so a
            // long-lived shared cache does not smear earlier batches into
            // the summary; occupancy is the current absolute state.
            let after = cache.stats();
            let base = before.as_ref().expect("snapshot taken when cache is on");
            CacheSummary {
                hits: after.hits - base.hits,
                misses: after.misses - base.misses,
                insertions: after.insertions - base.insertions,
                evictions: after.evictions - base.evictions,
                entries: after.entries,
                bytes: after.bytes,
            }
        }),
    };
    BatchReport { summary, results }
}

/// The stable display name of a MaxSAT strategy (matches the CLI flags).
fn algorithm_name(algorithm: AlgorithmChoice) -> &'static str {
    match algorithm {
        AlgorithmChoice::Portfolio => "portfolio",
        AlgorithmChoice::Oll => "oll",
        AlgorithmChoice::LinearSu => "linear-su",
    }
}

/// Loads and analyses one job through the session facade, capturing any
/// failure in the report row. Budget-stopped analyses report the canonical
/// prefix proven before the stop, marked `truncated`.
fn analyze_job(job: &BatchJob, config: &BatchConfig) -> TreeReport {
    let start = Instant::now();
    let mut report = TreeReport {
        name: job.name.clone(),
        status: "error".to_string(),
        backend: config.backend.name().to_string(),
        num_events: 0,
        num_gates: 0,
        sat_calls: 0,
        solve_time_ms: 0.0,
        cut_sets: Vec::new(),
        error: None,
        importance: None,
        truncated: None,
        sweep: None,
    };
    let tree = match job.load() {
        Ok(tree) => tree,
        Err(error) => {
            report.error = Some(error.to_string());
            report.solve_time_ms = start.elapsed().as_secs_f64() * 1e3;
            return report;
        }
    };
    report.num_events = tree.num_events();
    report.num_gates = tree.num_gates();
    let mut analyzer = Analyzer::for_tree(tree)
        .backend(config.backend)
        .algorithm(config.algorithm)
        .bdd_ordering(config.bdd_ordering)
        .preprocess(config.preprocess)
        .budget(config.budget());
    if let Some(cache) = &config.cache {
        analyzer = analyzer.cache(Arc::clone(cache));
    }
    report.backend = analyzer.resolved_backend().name().to_string();
    match analyzer.top_k(config.top_k.max(1)) {
        Ok(set) => {
            report.status = "ok".to_string();
            report.truncated = set.is_truncated().then_some(true);
            report.sat_calls = set
                .solutions
                .iter()
                .map(|s| s.stats.as_ref().map_or(0, |stats| stats.sat_calls))
                .sum();
            report.cut_sets = set
                .solutions
                .iter()
                .map(|solution| solution.to_report(analyzer.tree(), config.stats))
                .collect();
            if config.importance {
                report.importance = importance_rows(analyzer.shared_tree(), config.bdd_ordering);
            }
            if let Some(grid) = &config.sweep {
                match analyzer.sweep(grid) {
                    Ok(curve) => {
                        report.sweep = Some(SweepCurve {
                            grid: curve.grid,
                            probabilities: curve.probabilities,
                        });
                    }
                    Err(SessionError::Stopped(_)) => report.truncated = Some(true),
                    // Any other sweep failure (e.g. a quantification budget
                    // overrun) leaves the curve off the row, like an
                    // over-budget importance table.
                    Err(_) => {}
                }
            }
        }
        Err(SessionError::Stopped(_)) => {
            // The budget fired before even one solution was proven: the row
            // is an explicitly truncated empty answer, not a solver failure
            // — it stays "ok" so the summary's failure count keeps meaning
            // "broken model", and the [truncated] marker tells the operator
            // to raise the budget.
            report.status = "ok".to_string();
            report.truncated = Some(true);
        }
        Err(error) => {
            report.error = Some(format!("solver error: {error}"));
        }
    }
    report.solve_time_ms = start.elapsed().as_secs_f64() * 1e3;
    report
}

/// Computes the importance table through the facade on the MOCUS engine, or
/// `None` when its cut-set enumeration blows the budget (large OR-heavy
/// trees) — the batch row stays usable either way.
fn importance_rows(tree: Arc<FaultTree>, ordering: VariableOrdering) -> Option<Vec<ImportanceRow>> {
    let report = Analyzer::for_shared(tree)
        .backend(BackendKind::Mocus)
        .bdd_ordering(ordering)
        .importance()
        .ok()?;
    Some(
        report
            .rows
            .into_iter()
            .map(|row| ImportanceRow {
                event: row.event,
                birnbaum: row.birnbaum,
                fussell_vesely: row.fussell_vesely,
                criticality: row.criticality,
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manifest::{TreeFormat, TreeSource};
    use crate::redact_timings;
    use ft_generators::Family;
    use std::path::PathBuf;

    #[test]
    fn results_follow_manifest_order_for_any_worker_count() {
        let manifest = BatchManifest::generated(Family::RandomMixed, 70, 6, 3);
        let sequential = run_batch(
            &manifest,
            &BatchConfig {
                jobs: 1,
                ..BatchConfig::default()
            },
        );
        let parallel = run_batch(
            &manifest,
            &BatchConfig {
                jobs: 4,
                ..BatchConfig::default()
            },
        );
        assert_eq!(sequential.summary.jobs, 1);
        assert_eq!(parallel.summary.jobs, 4);
        assert_eq!(
            sequential.to_deterministic_json(),
            parallel.to_deterministic_json(),
            "worker count must not change the report content"
        );
        let names: Vec<&str> = parallel.results.iter().map(|r| r.name.as_str()).collect();
        let expected: Vec<String> = manifest.jobs.iter().map(|j| j.name.clone()).collect();
        assert_eq!(names, expected);
    }

    #[test]
    fn per_tree_failures_do_not_abort_the_batch() {
        let mut manifest = BatchManifest::generated(Family::RandomMixed, 60, 1, 1);
        manifest.jobs.insert(
            0,
            crate::BatchJob {
                name: "missing.json".to_string(),
                source: TreeSource::File {
                    path: PathBuf::from("/nonexistent/missing.json"),
                    format: TreeFormat::Json,
                },
            },
        );
        let report = run_batch(&manifest, &BatchConfig::default());
        assert_eq!(report.summary.trees, 2);
        assert_eq!(report.summary.succeeded, 1);
        assert_eq!(report.summary.failed, 1);
        assert_eq!(report.results[0].status, "error");
        assert!(report.results[0]
            .error
            .as_deref()
            .unwrap()
            .contains("missing.json"));
        assert_eq!(report.results[1].status, "ok");
    }

    #[test]
    fn top_k_and_importance_are_honoured() {
        let manifest = BatchManifest::generated(Family::OrHeavy, 40, 1, 5);
        let report = run_batch(
            &manifest,
            &BatchConfig {
                top_k: 3,
                importance: true,
                ..BatchConfig::default()
            },
        );
        let tree = &report.results[0];
        assert_eq!(tree.status, "ok");
        assert!(!tree.cut_sets.is_empty() && tree.cut_sets.len() <= 3);
        // Cut sets are ordered by non-increasing probability.
        for pair in tree.cut_sets.windows(2) {
            assert!(pair[0].probability >= pair[1].probability - 1e-15);
        }
        let importance = tree.importance.as_ref().expect("importance requested");
        assert_eq!(importance.len(), tree.num_events);
        assert!(importance.iter().all(|row| row.birnbaum >= 0.0));
        assert!(tree.sat_calls > 0);
        assert_eq!(report.summary.top_k, 3);
        assert_eq!(report.summary.total_cut_sets, tree.cut_sets.len());
    }

    /// The `stats` flag attaches the solver-statistics block to every cut
    /// set — and the deterministic rendering strips it again, so turning the
    /// flag on cannot break byte-level report comparisons.
    #[test]
    fn stats_flag_attaches_and_deterministic_json_strips_solver_stats() {
        let manifest = BatchManifest::generated(Family::RandomMixed, 50, 2, 5);
        let with_stats = run_batch(
            &manifest,
            &BatchConfig {
                stats: true,
                top_k: 2,
                ..BatchConfig::default()
            },
        );
        for tree in &with_stats.results {
            for cut_set in &tree.cut_sets {
                let stats = cut_set.solver_stats.as_ref().expect("stats requested");
                assert!(stats.sat_calls > 0);
            }
        }
        assert!(with_stats.to_json().contains("solver_stats"));
        assert!(!with_stats.to_deterministic_json().contains("solver_stats"));
        let without = run_batch(
            &manifest,
            &BatchConfig {
                top_k: 2,
                ..BatchConfig::default()
            },
        );
        assert!(!without.to_json().contains("solver_stats"));
        assert_eq!(
            with_stats.to_deterministic_json(),
            without.to_deterministic_json(),
            "--stats must not change the deterministic report"
        );
    }

    /// Every backend (and the preprocessing pass) reports the same cut sets
    /// and probabilities for the same batch — the batch layer's slice of the
    /// cross-backend equivalence guarantee.
    #[test]
    fn classical_backends_and_preprocessing_agree_with_maxsat_batches() {
        let manifest = BatchManifest::generated(Family::RandomMixed, 50, 3, 21);
        let reference = run_batch(
            &manifest,
            &BatchConfig {
                top_k: 3,
                ..BatchConfig::default()
            },
        );
        assert_eq!(reference.summary.backend, "maxsat");
        for (backend, preprocess) in [
            (BackendKind::Bdd, false),
            (BackendKind::Mocus, false),
            (BackendKind::MaxSat, true),
            (BackendKind::Auto, false),
        ] {
            let other = run_batch(
                &manifest,
                &BatchConfig {
                    top_k: 3,
                    backend,
                    preprocess,
                    ..BatchConfig::default()
                },
            );
            assert_eq!(other.summary.backend, backend.name());
            for (a, b) in reference.results.iter().zip(&other.results) {
                assert_eq!(a.status, "ok");
                assert_eq!(b.status, "ok", "{} {preprocess}", backend.name());
                assert_eq!(a.cut_sets.len(), b.cut_sets.len());
                for (x, y) in a.cut_sets.iter().zip(&b.cut_sets) {
                    let xs: Vec<&str> = x.mpmcs.iter().map(|e| e.name.as_str()).collect();
                    let ys: Vec<&str> = y.mpmcs.iter().map(|e| e.name.as_str()).collect();
                    assert_eq!(xs, ys, "{} {preprocess}", backend.name());
                    assert!((x.probability - y.probability).abs() < 1e-12);
                }
                if backend == BackendKind::Auto {
                    assert_ne!(b.backend, "auto", "auto resolves per tree");
                }
            }
        }
    }

    /// A deadline that fires before any solution leaves the row an
    /// explicitly truncated *ok* answer — never an error: the summary's
    /// failure count must keep meaning "broken model".
    #[test]
    fn budget_stopped_rows_are_truncated_not_failed() {
        let manifest = BatchManifest::generated(Family::RandomMixed, 60, 2, 3);
        let report = run_batch(
            &manifest,
            &BatchConfig {
                timeout_ms: Some(0),
                ..BatchConfig::default()
            },
        );
        assert_eq!(report.summary.failed, 0);
        assert_eq!(report.summary.succeeded, 2);
        assert!(report.any_truncated());
        for row in &report.results {
            assert_eq!(row.status, "ok");
            assert_eq!(row.truncated, Some(true));
            assert!(row.error.is_none());
            assert!(row.cut_sets.is_empty());
        }
        assert!(report.render_text().contains("[truncated]"));
    }

    /// A shared cache across batch runs reuses complete answers (hits on the
    /// warm run) without changing a byte of the deterministic report — and
    /// its counters land in the summary.
    #[test]
    fn a_shared_cache_reuses_answers_without_changing_the_report() {
        let manifest = BatchManifest::generated(Family::SharedDag, 60, 3, 5);
        let baseline = run_batch(
            &manifest,
            &BatchConfig {
                top_k: 3,
                ..BatchConfig::default()
            },
        );
        let cache = ft_backend::AnalysisCache::shared();
        let config = BatchConfig {
            top_k: 3,
            cache: Some(Arc::clone(&cache)),
            ..BatchConfig::default()
        };
        let cold = run_batch(&manifest, &config);
        let warm = run_batch(&manifest, &config);
        assert_eq!(
            baseline.to_deterministic_json(),
            cold.to_deterministic_json()
        );
        assert_eq!(
            baseline.to_deterministic_json(),
            warm.to_deterministic_json()
        );
        let cold_cache = cold.summary.cache.as_ref().expect("cache configured");
        assert!(
            cold_cache.insertions > 0,
            "cold run deposits: {cold_cache:?}"
        );
        let warm_cache = warm.summary.cache.as_ref().expect("cache configured");
        assert_eq!(warm_cache.hits as usize, manifest.jobs.len());
        assert_eq!(warm_cache.insertions, 0, "warm run recomputes nothing");
        assert!(
            baseline.summary.cache.is_none(),
            "cacheless summaries keep their shape"
        );
        assert!(warm.render_text().contains("cache: "));
    }

    /// An opt-in sweep grid attaches a per-tree curve whose every point is
    /// bit-identical to the facade's point query at that mission time;
    /// leaving the grid off keeps the historical report bytes (no `sweep`
    /// key at all).
    #[test]
    fn sweep_grids_attach_bit_identical_curves_only_when_requested() {
        // Small trees with benign seeds: every grid point pays a full exact
        // quantification (the batch sweep itself plus the facade's reference
        // point query), and the random-mixed family can produce trees whose
        // full enumeration explodes combinatorially even at this node count.
        let manifest = BatchManifest::generated(Family::RandomMixed, 24, 2, 2020);
        let grid = vec![0.0, 0.5, 2.0];
        let plain = run_batch(&manifest, &BatchConfig::default());
        assert!(
            !plain.to_json().contains("\"sweep\""),
            "sweepless reports keep their historical shape"
        );
        let swept = run_batch(
            &manifest,
            &BatchConfig {
                sweep: Some(grid.clone()),
                ..BatchConfig::default()
            },
        );
        assert_eq!(swept.summary.succeeded, 2);
        for (row, job) in swept.results.iter().zip(&manifest.jobs) {
            let curve = row.sweep.as_ref().expect("sweep requested");
            assert_eq!(curve.grid, grid);
            let tree = job.load().expect("generated jobs load");
            for (&t, &swept_p) in curve.grid.iter().zip(&curve.probabilities) {
                let point = Analyzer::for_tree(tree.at_time(t))
                    .probability()
                    .expect("solvable");
                assert_eq!(
                    swept_p.to_bits(),
                    point.to_bits(),
                    "{}: batch sweep diverged at t={t}",
                    row.name
                );
            }
        }
        assert!(swept.to_json().contains("\"sweep\""));
    }

    #[test]
    fn empty_manifests_produce_an_empty_report() {
        let report = run_batch(&BatchManifest::default(), &BatchConfig::default());
        assert_eq!(report.summary.trees, 0);
        assert_eq!(report.summary.succeeded, 0);
        assert!(report.results.is_empty());
        assert!(report.render_text().contains("0 trees"));
    }

    #[test]
    fn redacted_reports_really_hide_the_only_nondeterminism() {
        // Two runs of the same batch in the same mode: everything except the
        // timing fields must already be identical.
        let manifest = BatchManifest::generated(Family::SharedDag, 80, 2, 9);
        let config = BatchConfig {
            jobs: 2,
            top_k: 2,
            ..BatchConfig::default()
        };
        let a = run_batch(&manifest, &config);
        let b = run_batch(&manifest, &config);
        assert_eq!(
            serde_json::to_string_pretty(&redact_timings(&serde_json::to_value(&a))).unwrap(),
            serde_json::to_string_pretty(&redact_timings(&serde_json::to_value(&b))).unwrap()
        );
    }
}
