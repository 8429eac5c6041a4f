//! Benchmark and experiment harness.
//!
//! This crate regenerates the evaluation artefacts of the paper (see
//! `DESIGN.md`, experiment index E1–E9) in two forms:
//!
//! * the `experiments` binary (`cargo run --release -p ft-bench --bin
//!   experiments -- <experiment>`) prints the tables/series the paper
//!   reports, and
//! * the Criterion benches under `benches/` measure the same workloads with
//!   statistical rigour (`cargo bench`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::time::{Duration, Instant};

use bdd_engine::VariableOrdering;
use fault_tree::examples::fire_protection_system;
use fault_tree::{FailureModel, FaultTree, StructuralAnalysis};
use ft_analysis::mocus::Mocus;
use ft_backend::{backend_for, AnalysisBackend, BackendConfig, BackendKind, BddBackend};
use ft_generators::Family;
use mpmcs::{
    AlgorithmChoice, EncodingStyle, McsStream, MpmcsOptions, MpmcsReport, MpmcsSolver, StreamStep,
    WeightScale,
};

/// Runs a closure and returns its result together with the elapsed wall time.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let value = f();
    (value, start.elapsed())
}

/// Milliseconds as a float, for table printing.
pub fn ms(duration: Duration) -> f64 {
    duration.as_secs_f64() * 1e3
}

/// The standard scalability sizes (total node counts) used by E3.
pub const SCALABILITY_SIZES: &[usize] = &[100, 250, 500, 1000, 2500, 5000, 10_000];

/// The smaller sizes used when enumerative baselines take part (E5).
pub const BASELINE_SIZES: &[usize] = &[50, 100, 250, 500, 1000, 2000];

/// A solver for each algorithm choice, with its display name.
pub fn algorithm_line_up() -> Vec<(&'static str, AlgorithmChoice)> {
    vec![
        ("portfolio", AlgorithmChoice::Portfolio),
        ("oll", AlgorithmChoice::Oll),
        ("linear-su", AlgorithmChoice::LinearSu),
    ]
}

fn solver_for(algorithm: AlgorithmChoice) -> MpmcsSolver {
    MpmcsSolver::with_options(MpmcsOptions {
        algorithm,
        ..MpmcsOptions::new()
    })
}

/// E1 — Table I: the event probabilities of the FPS example and their `-log`
/// weights.
pub fn table1() -> String {
    let tree = fire_protection_system();
    let encoding = MpmcsSolver::new().encode(&tree);
    let mut out = String::new();
    out.push_str("# E1 / Table I — fault tree probabilities and -log values w_i\n");
    out.push_str("event  p(x_i)    w_i = -ln p(x_i)\n");
    for (i, event) in tree.events().iter().enumerate() {
        out.push_str(&format!(
            "{:<6} {:<9} {:.5}\n",
            event.name(),
            event.probability().value(),
            encoding.log_weights()[i]
        ));
    }
    out
}

/// E2 — Fig. 1/2: the MPMCS of the FPS example and the JSON report emitted by
/// the tool.
pub fn fig2() -> String {
    let tree = fire_protection_system();
    let solution = MpmcsSolver::new()
        .solve(&tree)
        .expect("the FPS example has cut sets");
    let report = MpmcsReport::new(&tree, &solution);
    let mut out = String::new();
    out.push_str("# E2 / Fig. 2 — MPMCS of the fire protection system\n");
    out.push_str(&format!(
        "MPMCS = {}  probability = {:.4}\n",
        solution.cut_set.display_names(&tree),
        solution.probability
    ));
    out.push_str("JSON report:\n");
    out.push_str(&report.to_json());
    out.push('\n');
    out
}

/// One row of the scalability table.
#[derive(Clone, Debug)]
pub struct ScalabilityRow {
    /// Structural family name.
    pub family: &'static str,
    /// Target total node count.
    pub target_nodes: usize,
    /// Actual node count of the generated tree.
    pub nodes: usize,
    /// Number of basic events.
    pub events: usize,
    /// Wall-clock solve time.
    pub solve_time: Duration,
    /// Size of the MPMCS found.
    pub mpmcs_size: usize,
    /// Probability of the MPMCS found.
    pub probability: f64,
}

/// E3 — scalability of the MaxSAT approach across tree sizes and families.
pub fn scalability_rows(sizes: &[usize], seed: u64) -> Vec<ScalabilityRow> {
    let solver = MpmcsSolver::new();
    let mut rows = Vec::new();
    for family in Family::all() {
        for &size in sizes {
            let tree = family.generate(size, seed);
            let (solution, elapsed) =
                timed(|| solver.solve(&tree).expect("generated trees have cut sets"));
            rows.push(ScalabilityRow {
                family: family.name(),
                target_nodes: size,
                nodes: tree.node_count(),
                events: tree.num_events(),
                solve_time: elapsed,
                mpmcs_size: solution.cut_set.len(),
                probability: solution.probability,
            });
        }
    }
    rows
}

/// Formats E3 rows as the table printed by the `experiments` binary.
pub fn scalability(sizes: &[usize], seed: u64) -> String {
    let mut out = String::new();
    out.push_str("# E3 — scalability: MPMCS via parallel MaxSAT portfolio\n");
    out.push_str("family        target  nodes   events  time_ms    |MPMCS|  probability\n");
    for row in scalability_rows(sizes, seed) {
        out.push_str(&format!(
            "{:<13} {:<7} {:<7} {:<7} {:<10.2} {:<8} {:.3e}\n",
            row.family,
            row.target_nodes,
            row.nodes,
            row.events,
            ms(row.solve_time),
            row.mpmcs_size,
            row.probability
        ));
    }
    out
}

/// One row of the baseline-comparison table (E5).
#[derive(Clone, Debug)]
pub struct BaselineRow {
    /// Structural family name.
    pub family: &'static str,
    /// Target node count.
    pub target_nodes: usize,
    /// MaxSAT solve time.
    pub maxsat_time: Duration,
    /// BDD (ZBDD compile + enumerate) time (`None` if the cut-set budget
    /// blew up).
    pub bdd_time: Option<Duration>,
    /// MOCUS time (`None` if the budget blew up).
    pub mocus_time: Option<Duration>,
    /// Whether all available answers agree on the optimal probability.
    pub agree: bool,
}

/// E5 — MaxSAT vs BDD vs MOCUS baselines.
pub fn baseline_rows(sizes: &[usize], seed: u64) -> Vec<BaselineRow> {
    let solver = MpmcsSolver::new();
    let mut rows = Vec::new();
    for family in [Family::RandomMixed, Family::OrHeavy, Family::AndHeavy] {
        for &size in sizes {
            let tree = family.generate(size, seed);
            let (solution, maxsat_time) =
                timed(|| solver.solve(&tree).expect("generated trees have cut sets"));
            // The enumerative baselines carry tight budgets: their cost grows
            // with the number of cut sets, so without a cap the comparison
            // would simply hang on OR-heavy trees — which is precisely the
            // behaviour the MaxSAT approach avoids.
            let (bdd_result, bdd_time) = timed(|| {
                BddBackend::new(VariableOrdering::DepthFirst, 20_000)
                    .mpmcs(&tree)
                    .ok()
                    .map(|best| (best.cut_set, best.probability))
            });
            let (mocus_result, mocus_time) = timed(|| {
                Mocus::with_budget(&tree, 20_000)
                    .maximum_probability_mcs()
                    .ok()
                    .flatten()
            });
            let mut agree = true;
            if let Some((_, p)) = &bdd_result {
                agree &= relative_eq(*p, solution.probability);
            }
            if let Some((_, p)) = &mocus_result {
                agree &= relative_eq(*p, solution.probability);
            }
            rows.push(BaselineRow {
                family: family.name(),
                target_nodes: size,
                maxsat_time,
                bdd_time: bdd_result.as_ref().map(|_| bdd_time),
                mocus_time: mocus_result.as_ref().map(|_| mocus_time),
                agree,
            });
        }
    }
    rows
}

fn relative_eq(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-6 * a.abs().max(b.abs()).max(1e-300)
}

/// Formats E5 rows.
pub fn baselines(sizes: &[usize], seed: u64) -> String {
    let mut out = String::new();
    out.push_str("# E5 — MaxSAT MPMCS vs enumerative baselines (BDD, MOCUS)\n");
    out.push_str("family        target  maxsat_ms  bdd_ms      mocus_ms    agree\n");
    for row in baseline_rows(sizes, seed) {
        let fmt_opt = |d: Option<Duration>| match d {
            Some(d) => format!("{:<11.2}", ms(d)),
            None => format!("{:<11}", "budget"),
        };
        out.push_str(&format!(
            "{:<13} {:<7} {:<10.2} {} {} {}\n",
            row.family,
            row.target_nodes,
            ms(row.maxsat_time),
            fmt_opt(row.bdd_time),
            fmt_opt(row.mocus_time),
            row.agree
        ));
    }
    out
}

/// E4 — the Step 5 ablation: portfolio vs each single configuration, on
/// every generator family. Asserts that all configurations agree on the
/// optimum, so the or-heavy and shared-modules families also check OLL's
/// grown totalizers on wide cores against linear SAT–UNSAT.
pub fn portfolio(sizes: &[usize], seed: u64) -> String {
    let mut out = String::new();
    out.push_str("# E4 — parallel portfolio vs single solver configurations\n");
    out.push_str("family        target  portfolio_ms  oll_ms     linear_su_ms\n");
    for family in Family::all() {
        for &size in sizes {
            let tree = family.generate(size, seed);
            let mut times = Vec::new();
            let mut probabilities = Vec::new();
            for (_, algorithm) in algorithm_line_up() {
                let solver = solver_for(algorithm);
                let (solution, elapsed) =
                    timed(|| solver.solve(&tree).expect("generated trees have cut sets"));
                times.push(elapsed);
                probabilities.push(solution.probability);
            }
            assert!(
                probabilities.windows(2).all(|w| relative_eq(w[0], w[1])),
                "all algorithms must agree on the optimum"
            );
            out.push_str(&format!(
                "{:<13} {:<7} {:<13.2} {:<10.2} {:<10.2}\n",
                family.name(),
                size,
                ms(times[0]),
                ms(times[1]),
                ms(times[2])
            ));
        }
    }
    out
}

/// E6 — encoding ablation: direct vs success-tree encoding on every
/// generator family, and a weight-quantum sweep. Asserts that both
/// encodings agree on the optimum's probability, which checks the encoder's
/// dual (success-tree) walk on trees of hundreds of nodes.
pub fn encodings(sizes: &[usize], seed: u64) -> String {
    let mut out = String::new();
    out.push_str("# E6 — encoding ablation (direct vs success-tree, weight quantum)\n");
    out.push_str("family          target  direct_ms  success_tree_ms  probability\n");
    let solver = |encoding| {
        MpmcsSolver::with_options(MpmcsOptions {
            algorithm: AlgorithmChoice::Oll,
            encoding,
            ..MpmcsOptions::new()
        })
    };
    let direct = solver(EncodingStyle::Direct);
    let success = solver(EncodingStyle::SuccessTree);
    for family in Family::all() {
        for &size in sizes {
            let tree = family.generate(size, seed);
            let (a, ta) = timed(|| direct.solve(&tree).expect("generated trees have cut sets"));
            let (b, tb) = timed(|| success.solve(&tree).expect("generated trees have cut sets"));
            assert!(
                relative_eq(a.probability, b.probability),
                "{} {size}: the direct ({}) and success-tree ({}) optima differ",
                family.name(),
                a.probability,
                b.probability
            );
            out.push_str(&format!(
                "{:<15} {:<7} {:<10.2} {:<16.2} {:.6e}\n",
                family.name(),
                size,
                ms(ta),
                ms(tb),
                a.probability
            ));
        }
    }
    let sweep_size = sizes.iter().copied().max().unwrap_or(500);
    out.push_str(&format!(
        "\nweight quantum sweep (target = {sweep_size} nodes)\n"
    ));
    out.push_str("quantum   probability     |MPMCS|\n");
    let tree = Family::RandomMixed.generate(sweep_size, seed);
    for quantum in [1e3, 1e6, 1e9, 1e12] {
        let solver = MpmcsSolver::with_options(MpmcsOptions {
            algorithm: AlgorithmChoice::Oll,
            scale: WeightScale {
                quantum,
                ..WeightScale::default()
            },
            ..MpmcsOptions::new()
        });
        let solution = solver.solve(&tree).expect("solvable");
        out.push_str(&format!(
            "{:<9.0e} {:<15.6e} {}\n",
            quantum,
            solution.probability,
            solution.cut_set.len()
        ));
    }
    out
}

/// E7 — the voting-gate extension: MPMCS on k/N-heavy trees.
pub fn voting(sizes: &[usize], seed: u64) -> String {
    let solver = MpmcsSolver::new();
    let mut out = String::new();
    out.push_str("# E7 — voting-gate extension (future work of the paper)\n");
    out.push_str("target  nodes   vot_gates  time_ms    |MPMCS|  probability\n");
    for &size in sizes {
        let tree = Family::VotingHeavy.generate(size, seed);
        let stats = StructuralAnalysis::new(&tree).stats();
        let (solution, elapsed) = timed(|| solver.solve(&tree).expect("solvable"));
        out.push_str(&format!(
            "{:<7} {:<7} {:<10} {:<10.2} {:<8} {:.3e}\n",
            size,
            tree.node_count(),
            stats.num_vot,
            ms(elapsed),
            solution.cut_set.len(),
            solution.probability
        ));
    }
    out
}

/// Helper shared by the Criterion benches: generate one tree per (family,
/// size) pair.
pub fn bench_trees(sizes: &[usize], families: &[Family], seed: u64) -> Vec<(String, FaultTree)> {
    let mut trees = Vec::new();
    for &family in families {
        for &size in sizes {
            trees.push((
                format!("{}-{}", family.name(), size),
                family.generate(size, seed),
            ));
        }
    }
    trees
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_contains_the_paper_values() {
        let table = table1();
        assert!(table.contains("x1"));
        assert!(table.contains("1.60944"));
        assert!(table.contains("6.90776"));
    }

    #[test]
    fn fig2_reports_the_paper_mpmcs() {
        let output = fig2();
        assert!(output.contains("{x1, x2}"));
        assert!(output.contains("0.02"));
    }

    #[test]
    fn scalability_rows_cover_all_families_and_sizes() {
        let rows = scalability_rows(&[30, 60], 1);
        assert_eq!(rows.len(), Family::all().len() * 2);
        for row in rows {
            assert!(row.probability > 0.0);
            assert!(row.mpmcs_size >= 1);
        }
    }

    #[test]
    fn baselines_agree_on_small_trees() {
        for row in baseline_rows(&[30, 60], 2) {
            assert!(row.agree, "{} {}", row.family, row.target_nodes);
        }
    }

    #[test]
    fn portfolio_and_encoding_tables_render() {
        let table = portfolio(&[40], 3);
        assert!(table.contains("random-mixed"));
        let table = encodings(&[40], 3);
        assert!(table.contains("quantum"));
        let table = voting(&[40], 3);
        assert!(table.contains("E7"));
    }
}

/// One row of the extended baseline table (E8): the MaxSAT pipeline against
/// the three enumerative MPMCS baselines (ZBDD, BDD path enumeration, MOCUS).
#[derive(Clone, Debug)]
pub struct ExtendedBaselineRow {
    /// Workload name.
    pub workload: String,
    /// Number of nodes in the tree.
    pub nodes: usize,
    /// MaxSAT portfolio solve time.
    pub maxsat_time: Duration,
    /// ZBDD compile + extract time.
    pub zbdd_time: Duration,
    /// Whether MaxSAT and the ZBDD agree on the optimum probability.
    pub agree: bool,
}

/// E8 — the ZBDD cut-set engine as an additional MPMCS baseline, on the
/// random families plus the structure-true replicated-FPS workload.
pub fn extended_baseline_rows(sizes: &[usize], seed: u64) -> Vec<ExtendedBaselineRow> {
    use bdd_engine::ZbddAnalysis;
    let solver = MpmcsSolver::new();
    let mut workloads: Vec<(String, FaultTree)> = Vec::new();
    for &size in sizes {
        workloads.push((
            format!("random-mixed-{size}"),
            ft_generators::Family::RandomMixed.generate(size, seed),
        ));
        workloads.push((
            format!("replicated-fps-{}", size / 12),
            ft_generators::replicated_fps((size / 12).max(1)),
        ));
    }
    workloads
        .into_iter()
        .map(|(workload, tree)| {
            let (solution, maxsat_time) =
                timed(|| solver.solve(&tree).expect("workloads have cut sets"));
            let (zbdd_result, zbdd_time) = timed(|| {
                ZbddAnalysis::new(&tree)
                    .maximum_probability_mcs(&tree)
                    .expect("workloads have cut sets")
            });
            let agree = (solution.probability - zbdd_result.1).abs()
                <= 1e-6 * solution.probability.max(1e-300);
            ExtendedBaselineRow {
                workload,
                nodes: tree.node_count(),
                maxsat_time,
                zbdd_time,
                agree,
            }
        })
        .collect()
}

/// Formats E8 rows.
pub fn extended_baselines(sizes: &[usize], seed: u64) -> String {
    let mut out = String::new();
    out.push_str("# E8 — MaxSAT vs ZBDD minimal-cut-set engine\n");
    out.push_str("workload             nodes   maxsat_ms  zbdd_ms    agree\n");
    for row in extended_baseline_rows(sizes, seed) {
        out.push_str(&format!(
            "{:<20} {:<7} {:<10.2} {:<10.2} {}\n",
            row.workload,
            row.nodes,
            ms(row.maxsat_time),
            ms(row.zbdd_time),
            row.agree
        ));
    }
    out
}

/// E9 — the extended FTA measures on the paper's worked example: the top-k
/// cut sets, the maximum-reliability path set, the importance table and the
/// MPMCS stability margins. These reproduce the "body of measures" the paper
/// argues the MPMCS extends.
pub fn extended_measures() -> String {
    use bdd_engine::{compile_fault_tree, VariableOrdering};
    use ft_analysis::importance::ImportanceTable;
    use ft_analysis::sensitivity::MpmcsStability;
    let tree = fire_protection_system();
    let solver = MpmcsSolver::new();
    let mut out = String::new();
    out.push_str("# E9 — extended measures on the fire protection system\n\n");
    out.push_str("top 3 minimal cut sets:\n");
    for (rank, solution) in solver
        .solve_top_k(&tree, 3)
        .expect("the FPS tree has cut sets")
        .iter()
        .enumerate()
    {
        out.push_str(&format!(
            "  #{} {:<15} p = {:.4}\n",
            rank + 1,
            solution.cut_set.display_names(&tree),
            solution.probability
        ));
    }
    // The minimal path sets are the minimal cut sets of the success tree.
    let path = solver
        .solve(&fault_tree::transform::success_tree(&tree))
        .expect("the FPS tree has path sets");
    out.push_str(&format!(
        "\nmaximum-reliability minimal path set: {} (reliability {:.4})\n",
        path.cut_set.display_names(&tree),
        path.probability
    ));
    let cut_sets = Mocus::new(&tree)
        .minimal_cut_sets()
        .expect("the FPS tree is small");
    let exact = |t: &FaultTree| {
        compile_fault_tree(t, VariableOrdering::DepthFirst).top_event_probability(t)
    };
    out.push_str("\nimportance measures:\n");
    out.push_str(&ImportanceTable::compute(&tree, &cut_sets, exact).render(&tree));
    out.push('\n');
    out.push_str(
        &MpmcsStability::of(&tree, &cut_sets)
            .expect("cut sets exist")
            .render(&tree),
    );
    out
}

/// One row of the batch worker-scaling table (E10): the same batch of trees
/// analysed end to end by `ft-batch` at a given worker count.
#[derive(Clone, Debug)]
pub struct BatchScalingRow {
    /// Worker threads used.
    pub jobs: usize,
    /// End-to-end wall-clock time of the batch.
    pub wall_time: Duration,
    /// Speedup relative to the sweep's baseline (first) entry — with the
    /// conventional `[1, 2, 4, ...]` sweep, `t_1 / t_jobs`.
    pub speedup: f64,
    /// Total SAT calls across the batch (identical for every worker count —
    /// the sharded pool changes scheduling, not the work).
    pub total_sat_calls: u64,
}

/// E10 — worker scaling of the parallel batch engine: one batch of
/// `num_trees` generated trees (target `nodes` total nodes each), analysed
/// end to end at each worker count of `jobs_sweep`. The deterministic
/// default OLL algorithm is used per tree, so the only variable is
/// the outer worker pool. The first sweep entry is the speedup baseline, so
/// start the sweep at 1 worker for classic `t_1 / t_n` scaling curves.
pub fn batch_scaling_rows(
    num_trees: usize,
    nodes: usize,
    jobs_sweep: &[usize],
    seed: u64,
) -> Vec<BatchScalingRow> {
    use ft_batch::{run_batch, BatchConfig, BatchManifest};
    let manifest = BatchManifest::generated(Family::RandomMixed, nodes, num_trees, seed);
    let mut rows = Vec::new();
    let mut baseline_time: Option<Duration> = None;
    for &jobs in jobs_sweep {
        let config = BatchConfig {
            jobs,
            ..BatchConfig::default()
        };
        let (report, wall_time) = timed(|| run_batch(&manifest, &config));
        assert_eq!(
            report.summary.failed, 0,
            "generated batch trees always analyse"
        );
        let baseline = *baseline_time.get_or_insert(wall_time);
        rows.push(BatchScalingRow {
            jobs,
            wall_time,
            speedup: baseline.as_secs_f64() / wall_time.as_secs_f64().max(1e-12),
            total_sat_calls: report.summary.total_sat_calls,
        });
    }
    rows
}

/// Formats E10 rows. Speedups above 1× at >1 workers require actual hardware
/// parallelism; on a single-core host the table degenerates to ~1× across
/// the sweep, which is itself a useful sanity check (no pool overhead).
pub fn batch_scaling(num_trees: usize, nodes: usize, jobs_sweep: &[usize], seed: u64) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "# E10 — batch engine worker scaling ({num_trees} × ~{nodes}-node trees, OLL per tree)\n"
    ));
    out.push_str("jobs    wall_ms    speedup  sat_calls\n");
    for row in batch_scaling_rows(num_trees, nodes, jobs_sweep, seed) {
        out.push_str(&format!(
            "{:<7} {:<10.2} {:<8.2} {}\n",
            row.jobs,
            ms(row.wall_time),
            row.speedup,
            row.total_sat_calls
        ));
    }
    out
}

/// One row of the E12 cross-backend comparison: one backend answering one
/// query on one generated tree, with the modular preprocessing pass on or
/// off.
#[derive(Clone, Debug)]
pub struct BackendComparisonRow {
    /// Structural family name.
    pub family: &'static str,
    /// Target total node count.
    pub target_nodes: usize,
    /// The engine that answered.
    pub backend: BackendKind,
    /// Whether the modular divide-and-conquer pass was in front.
    pub preprocess: bool,
    /// Wall time of the MPMCS query.
    pub mpmcs_time: Duration,
    /// Wall time of the top-k enumeration query.
    pub top_k_time: Duration,
    /// Cut sets found by the top-k query.
    pub found: usize,
    /// Probability of the MPMCS (must agree across every row of a tree).
    pub probability: f64,
}

/// The top-k depth used by the E12 enumeration leg.
const BACKEND_COMPARISON_K: usize = 5;

/// E12 — the paper's MaxSAT-vs-classical comparison, reproduced through the
/// unified backend layer: every engine (MaxSAT, BDD, MOCUS) answers the same
/// MPMCS and top-k queries on the same generated families, with the modular
/// divide-and-conquer preprocessing off and on. Every row of a tree is
/// asserted to report the same minimal cut sets in the same order before
/// any timing is published.
pub fn backend_comparison_rows(sizes: &[usize], seed: u64) -> Vec<BackendComparisonRow> {
    let backends = [BackendKind::MaxSat, BackendKind::Bdd, BackendKind::Mocus];
    let mut rows = Vec::new();
    for family in [Family::RandomMixed, Family::AndHeavy, Family::SharedDag] {
        for &size in sizes {
            let tree = family.generate(size, seed);
            let mut reference: Option<Vec<fault_tree::CutSet>> = None;
            for backend in backends {
                for preprocess in [false, true] {
                    let config = BackendConfig {
                        preprocess,
                        ..BackendConfig::default()
                    };
                    let (_, engine) = backend_for(backend, &tree, &config);
                    let (best, mpmcs_time) =
                        timed(|| engine.mpmcs(&tree).expect("generated trees have cut sets"));
                    let (top, top_k_time) = timed(|| {
                        engine
                            .top_k(&tree, BACKEND_COMPARISON_K)
                            .expect("generated trees have cut sets")
                    });
                    let cuts: Vec<fault_tree::CutSet> =
                        top.iter().map(|s| s.cut_set.clone()).collect();
                    // Every engine answers the first entries of the
                    // canonical order, tie groups included.
                    match &reference {
                        None => reference = Some(cuts),
                        Some(expected) => assert_eq!(
                            expected,
                            &cuts,
                            "backend {backend} (preprocess={preprocess}) diverged on {}-{size}",
                            family.name()
                        ),
                    }
                    rows.push(BackendComparisonRow {
                        family: family.name(),
                        target_nodes: size,
                        backend,
                        preprocess,
                        mpmcs_time,
                        top_k_time,
                        found: top.len(),
                        probability: best.probability,
                    });
                }
            }
        }
    }
    rows
}

/// One row of the E12 ordering leg: compiled BDD sizes per variable ordering
/// (the measurement behind the CLI's `--bdd-ordering` default).
#[derive(Clone, Debug)]
pub struct BddOrderingRow {
    /// Structural family name.
    pub family: &'static str,
    /// Target total node count.
    pub target_nodes: usize,
    /// BDD node count under the natural (declaration) ordering.
    pub natural_size: usize,
    /// BDD node count under the depth-first ordering.
    pub depth_first_size: usize,
}

/// Measures compiled BDD sizes per variable ordering on generated families.
pub fn bdd_ordering_rows(sizes: &[usize], seed: u64) -> Vec<BddOrderingRow> {
    let mut rows = Vec::new();
    for family in [Family::RandomMixed, Family::AndHeavy, Family::SharedDag] {
        for &size in sizes {
            let tree = family.generate(size, seed);
            let natural = bdd_engine::compile_fault_tree(&tree, VariableOrdering::Natural).size();
            let depth_first =
                bdd_engine::compile_fault_tree(&tree, VariableOrdering::DepthFirst).size();
            rows.push(BddOrderingRow {
                family: family.name(),
                target_nodes: size,
                natural_size: natural,
                depth_first_size: depth_first,
            });
        }
    }
    rows
}

/// Formats the E12 study: the cross-backend timing table (MPMCS + top-k per
/// engine, preprocessing off/on) followed by the BDD ordering comparison.
pub fn backend_comparison(sizes: &[usize], seed: u64) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "# E12 — cross-backend comparison (maxsat vs bdd vs mocus, top-{BACKEND_COMPARISON_K}, modular preprocessing off/on)\n"
    ));
    out.push_str(
        "family        target  backend  modules  mpmcs_ms   topk_ms    found  probability\n",
    );
    for row in backend_comparison_rows(sizes, seed) {
        out.push_str(&format!(
            "{:<13} {:<7} {:<8} {:<8} {:<10.2} {:<10.2} {:<6} {:.6e}\n",
            row.family,
            row.target_nodes,
            row.backend.name(),
            if row.preprocess { "on" } else { "off" },
            ms(row.mpmcs_time),
            ms(row.top_k_time),
            row.found,
            row.probability
        ));
    }
    out.push_str("\n## BDD variable orderings (compiled node counts)\n");
    out.push_str("family        target  natural  depth-first\n");
    let mut depth_first_never_worse = true;
    for row in bdd_ordering_rows(sizes, seed) {
        depth_first_never_worse &= row.depth_first_size <= row.natural_size;
        out.push_str(&format!(
            "{:<13} {:<7} {:<8} {:<8}\n",
            row.family, row.target_nodes, row.natural_size, row.depth_first_size
        ));
    }
    out.push_str(&format!(
        "depth-first ≤ natural on every measured tree: {depth_first_never_worse} \
         (the CLI default is depth-first)\n"
    ));
    out
}

/// One row of the E13 session-facade streaming study: the cost of a streamed
/// canonical prefix versus the collected full enumeration, both through the
/// [`ft_session::Analyzer`] facade.
#[derive(Clone, Debug)]
pub struct SessionStreamingRow {
    /// Structural family name.
    pub family: &'static str,
    /// Target total node count.
    pub target_nodes: usize,
    /// Length of the streamed prefix.
    pub prefix: usize,
    /// Depth of the collected top-k query the prefix is compared against.
    pub collected_k: usize,
    /// Solutions the collected query actually found (≤ `collected_k`).
    pub found: usize,
    /// Wall time of streaming the prefix (early exit).
    pub stream_time: Duration,
    /// Wall time of the collected top-k enumeration.
    pub collected_time: Duration,
    /// SAT calls issued by the streamed prefix.
    pub stream_sat_calls: u64,
    /// SAT calls issued by the collected top-k enumeration.
    pub collected_sat_calls: u64,
}

/// E13 — the session facade's streaming contract, measured: a stream taking
/// the first `prefix` cut sets must (a) deliver exactly the first `prefix`
/// entries of the collected `top_k(k)` answer (`prefix < k`) and (b) stop
/// the SAT engine early (strictly fewer SAT calls than the deeper collected
/// query). Both legs run through [`ft_session::Analyzer`]; a violated
/// contract fails the study (and the CI smoke step) instead of printing a
/// flag. The collected leg is a bounded top-k rather than an exhaustive
/// enumeration: full MaxSAT enumeration of a generated family's cut sets
/// hits the weighted-OLL deep-k cliff, which would measure instance
/// hardness, not streaming.
pub fn session_streaming_rows(
    sizes: &[usize],
    prefix: usize,
    k: usize,
    seed: u64,
) -> Vec<SessionStreamingRow> {
    use ft_session::Analyzer;
    assert!(prefix < k, "the contrast needs a deeper collected query");
    let mut rows = Vec::new();
    for family in [Family::RandomMixed, Family::OrHeavy] {
        for &size in sizes {
            let tree = family.generate(size, seed);
            let mut collected_analyzer = Analyzer::for_tree(tree.clone());
            let (collected, collected_time) = timed(|| {
                collected_analyzer
                    .top_k(k)
                    .expect("generated trees have cut sets")
            });
            let collected_sat_calls = collected
                .solutions
                .iter()
                .map(|s| s.stats.as_ref().map_or(0, |stats| stats.sat_calls))
                .sum();
            let stream_analyzer = Analyzer::for_tree(tree);
            let ((streamed, stream_sat_calls), stream_time) = timed(|| {
                let mut stream = stream_analyzer.stream();
                let mut out = Vec::new();
                for item in stream.by_ref().take(prefix) {
                    out.push(item.expect("generated trees have cut sets"));
                }
                let calls = stream.sat_calls().unwrap_or(0);
                (out, calls)
            });
            assert_eq!(
                streamed.len(),
                prefix.min(collected.solutions.len()),
                "{}-{size}: stream must deliver the requested prefix",
                family.name()
            );
            for (s, c) in streamed.iter().zip(&collected.solutions) {
                assert_eq!(
                    s.cut_set,
                    c.cut_set,
                    "{}-{size}: streamed prefix diverged from the collected answer",
                    family.name()
                );
            }
            if collected.solutions.len() > prefix + 1 {
                assert!(
                    stream_sat_calls < collected_sat_calls,
                    "{}-{size}: early exit must stop the SAT engine ({} vs {})",
                    family.name(),
                    stream_sat_calls,
                    collected_sat_calls
                );
            }
            rows.push(SessionStreamingRow {
                family: family.name(),
                target_nodes: size,
                prefix: streamed.len(),
                collected_k: k,
                found: collected.solutions.len(),
                stream_time,
                collected_time,
                stream_sat_calls,
                collected_sat_calls,
            });
        }
    }
    rows
}

/// Formats the E13 rows.
pub fn session_streaming(sizes: &[usize], prefix: usize, k: usize, seed: u64) -> String {
    session_streaming_table(&session_streaming_rows(sizes, prefix, k, seed), prefix, k)
}

/// Formats already-measured E13 rows (shared by [`session_streaming`] and
/// the `--json` snapshot path of the `experiments` binary).
pub fn session_streaming_table(rows: &[SessionStreamingRow], prefix: usize, k: usize) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "# E13 — session facade: streamed top-{prefix} prefix vs collected top-{k}\n"
    ));
    out.push_str(
        "family        target  prefix  found  stream_ms  collected_ms  stream_calls  collected_calls\n",
    );
    for row in rows {
        out.push_str(&format!(
            "{:<13} {:<7} {:<7} {:<6} {:<10.2} {:<13.2} {:<13} {:<15}\n",
            row.family,
            row.target_nodes,
            row.prefix,
            row.found,
            ms(row.stream_time),
            ms(row.collected_time),
            row.stream_sat_calls,
            row.collected_sat_calls
        ));
    }
    out
}

#[cfg(test)]
mod session_streaming_tests {
    use super::*;

    #[test]
    fn session_streaming_rows_hold_the_prefix_and_early_exit_contracts() {
        let rows = session_streaming_rows(&[60], 3, 8, 9);
        assert_eq!(rows.len(), 2);
        for row in &rows {
            assert!(row.prefix <= row.found);
            assert!(row.stream_sat_calls > 0);
        }
        let table = session_streaming(&[60], 3, 8, 9);
        assert!(table.contains("E13"));
        assert!(table.contains("stream_calls"));
    }
}

#[cfg(test)]
mod backend_comparison_tests {
    use super::*;

    #[test]
    fn backend_comparison_rows_cover_every_engine_and_agree() {
        let rows = backend_comparison_rows(&[40], 5);
        // 3 families × 1 size × 3 backends × {off, on}.
        assert_eq!(rows.len(), 18);
        for row in &rows {
            assert!(row.found >= 1);
            assert!(row.probability > 0.0);
        }
        let table = backend_comparison(&[40], 5);
        assert!(table.contains("E12"));
        assert!(table.contains("bdd"));
        assert!(table.contains("depth-first"));
    }
}

#[cfg(test)]
mod batch_scaling_tests {
    use super::*;

    #[test]
    fn batch_scaling_rows_cover_the_sweep_and_do_identical_work() {
        let rows = batch_scaling_rows(4, 60, &[1, 2, 4], 7);
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].jobs, 1);
        assert!(
            (rows[0].speedup - 1.0).abs() < 1e-12,
            "row 1 is the baseline"
        );
        // The pool changes scheduling, never the work: every worker count
        // performs exactly the same SAT calls.
        assert!(rows
            .windows(2)
            .all(|w| w[0].total_sat_calls == w[1].total_sat_calls));
        let table = batch_scaling(4, 60, &[1, 2], 7);
        assert!(table.contains("E10"));
        assert!(table.contains("speedup"));
    }
}

#[cfg(test)]
mod extended_tests {
    use super::*;

    #[test]
    fn extended_baselines_agree_on_small_workloads() {
        for row in extended_baseline_rows(&[60, 120], 4) {
            assert!(row.agree, "{}", row.workload);
            assert!(row.nodes > 0);
        }
    }

    #[test]
    fn extended_measures_report_the_paper_values() {
        let output = extended_measures();
        assert!(output.contains("{x1, x2}"));
        assert!(output.contains("maximum-reliability"));
        assert!(output.contains("birnbaum"));
    }
}

// ---------------------------------------------------------------------------
// E14 — hot-path study (wall-clock per propagation/conflict of the CDCL core)
// ---------------------------------------------------------------------------

/// One row of the E14 hot-path study: the cost of the CDCL inner loop on a
/// fixed workload, expressed per propagation and per conflict so the figure
/// survives workload growth, with the pre-arena-refactor (seed) layout's
/// figure alongside where one was captured.
#[derive(Clone, Debug, PartialEq)]
pub struct HotPathRow {
    /// Which leg produced the row: `"raw-cdcl"` (hard clauses plus blocking
    /// clauses straight on [`sat_solver::Solver`]) or `"top-k"` (the
    /// [`McsStream`] enumeration through the full pipeline).
    pub leg: String,
    /// Structural family name.
    pub family: String,
    /// Target total node count of the generated tree.
    pub target_nodes: usize,
    /// Models found (raw leg) or cut sets found (top-k leg).
    pub found: usize,
    /// Literals propagated.
    pub propagations: u64,
    /// Conflicts encountered.
    pub conflicts: u64,
    /// Wall time of the leg in milliseconds.
    pub wall_ms: f64,
    /// Nanoseconds per propagation — the study's primary figure.
    pub ns_per_prop: f64,
    /// Nanoseconds per conflict.
    pub ns_per_conflict: f64,
    /// The same workload's ns/propagation under the pre-refactor clause
    /// layout (one heap `Vec<Lit>` per clause), measured once on the seed
    /// commit's solver in a release build ([`HOT_PATH_SEED_BASELINE`]).
    /// `None` for workloads outside the captured grid.
    pub baseline_ns_per_prop: Option<f64>,
    /// `baseline_ns_per_prop / ns_per_prop` — above 1.0 means the flat-arena
    /// layout beats the seed layout on this workload.
    pub speedup: Option<f64>,
}

serde::impl_serde_struct!(HotPathRow {
    leg,
    family,
    target_nodes,
    found,
    propagations,
    conflicts,
    wall_ms,
    ns_per_prop,
    ns_per_conflict,
} optional { baseline_ns_per_prop, speedup });

/// The pre-refactor layout's ns/propagation, measured on the seed commit
/// (per-clause `Vec<Lit>` storage) with the exact workloads of
/// [`hot_path_rows`] at seed 2020 in a release build:
/// `(leg, family, target_nodes, ns_per_prop)`. Absolute numbers shift with
/// the host CPU, which is why [`hot_path_snapshot`] records both sides of
/// the comparison instead of only the ratio. The grid has no `top-k` rows:
/// that leg also proves the `k`-th tie group closed (one bounded SAT call
/// after the group's last optimum), work the seed capture (which stopped at
/// the `k`-th optimum) never measured.
pub const HOT_PATH_SEED_BASELINE: &[(&str, &str, usize, f64)] = &[
    ("raw-cdcl", "random-mixed", 250, 109.84),
    ("raw-cdcl", "random-mixed", 500, 87.42),
    ("raw-cdcl", "random-mixed", 1000, 89.97),
    ("raw-cdcl", "and-heavy", 250, 109.65),
    ("raw-cdcl", "and-heavy", 500, 93.63),
    ("raw-cdcl", "and-heavy", 1000, 64.77),
    ("raw-cdcl", "or-heavy", 250, 90.37),
    ("raw-cdcl", "or-heavy", 500, 91.23),
    ("raw-cdcl", "or-heavy", 1000, 72.73),
];

fn hot_path_baseline(leg: &str, family: &str, size: usize) -> Option<f64> {
    HOT_PATH_SEED_BASELINE
        .iter()
        .find(|(l, f, s, _)| *l == leg && *f == family && *s == size)
        .map(|(_, _, _, ns)| *ns)
}

/// Models enumerated per workload by the raw-CDCL leg (matches the baseline
/// capture run).
const HOT_PATH_RAW_MODELS: usize = 200;

/// Event variables the raw-CDCL leg's blocking clauses range over (matches
/// the baseline capture run).
const HOT_PATH_BLOCK_VARS: usize = 64;

fn hot_path_row(
    leg: &str,
    family: Family,
    size: usize,
    found: usize,
    propagations: u64,
    conflicts: u64,
    wall: Duration,
) -> HotPathRow {
    let ns = wall.as_nanos() as f64;
    let ns_per_prop = ns / propagations.max(1) as f64;
    let baseline = hot_path_baseline(leg, family.name(), size);
    HotPathRow {
        leg: leg.to_string(),
        family: family.name().to_string(),
        target_nodes: size,
        found,
        propagations,
        conflicts,
        wall_ms: ms(wall),
        ns_per_prop,
        ns_per_conflict: ns / conflicts.max(1) as f64,
        baseline_ns_per_prop: baseline,
        speedup: baseline.map(|b| b / ns_per_prop),
    }
}

/// Enumerates up to [`HOT_PATH_RAW_MODELS`] models of `solver`, blocking each
/// found assignment projected onto the first [`HOT_PATH_BLOCK_VARS`]
/// variables, and returns how many models were found.
fn hot_path_enumerate(solver: &mut sat_solver::Solver, num_vars: usize, cap: usize) -> usize {
    use sat_solver::{Lit, SolveResult, Var};
    let mut models = 0usize;
    while models < cap {
        match solver.solve() {
            SolveResult::Sat(model) => {
                models += 1;
                let block: Vec<Lit> = (0..num_vars.min(HOT_PATH_BLOCK_VARS))
                    .map(|i| Lit::new(Var::from_index(i), model.value(Var::from_index(i))))
                    .collect();
                if !solver.add_clause(block) {
                    break;
                }
            }
            _ => break,
        }
    }
    models
}

/// E14 — the hot-path study. Two legs share the generated families:
///
/// * **raw-cdcl** drives [`sat_solver::Solver`] directly with the hard
///   clauses of the MPMCS encoding and enumerates models under blocking
///   clauses — propagation and conflict analysis dominate, so ns/propagation
///   isolates the clause-arena memory layout from MaxSAT logic;
/// * **top-k** pulls the first `k` cut sets from an [`McsStream`], the one
///   enumeration loop every production query drains, and divides its wall
///   time by the session's cumulative propagations
///   ([`McsStream::solver_stats`]).
///
/// Before any timing is trusted, [`assert_hot_path_equivalence`] checks
/// the MaxSAT answers against an independent engine: the top-8 cut sets of
/// a 120-node random-mixed tree must equal the BDD backend's ZBDD route,
/// cut set for cut set and probability bit for bit.
pub fn hot_path_rows(
    raw_sizes: &[usize],
    topk_sizes: &[usize],
    k: usize,
    seed: u64,
) -> Vec<HotPathRow> {
    use sat_solver::{CnfFormula, Solver};
    assert_hot_path_equivalence(seed);
    let mut rows = Vec::new();
    for family in [Family::RandomMixed, Family::AndHeavy, Family::OrHeavy] {
        for &size in raw_sizes {
            let tree = family.generate(size, seed);
            let encoding = MpmcsSolver::new().encode(&tree);
            let instance = encoding.instance();
            let mut cnf = CnfFormula::with_vars(instance.num_vars());
            for clause in instance.hard_clauses() {
                cnf.add_clause(clause.iter().copied());
            }
            let start = Instant::now();
            let mut solver = Solver::from_cnf(&cnf);
            let models = hot_path_enumerate(&mut solver, instance.num_vars(), HOT_PATH_RAW_MODELS);
            let wall = start.elapsed();
            let stats = solver.stats();
            rows.push(hot_path_row(
                "raw-cdcl",
                family,
                size,
                models,
                stats.propagations,
                stats.conflicts,
                wall,
            ));
        }
    }
    for family in [Family::RandomMixed, Family::OrHeavy, Family::SharedDag] {
        for &size in topk_sizes {
            let tree = std::sync::Arc::new(family.generate(size, seed));
            let start = Instant::now();
            let mut stream = McsStream::open(tree, MpmcsOptions::new());
            let mut found = 0;
            while found < k {
                match stream.next_step().expect("generated trees have cut sets") {
                    StreamStep::Solution(_) => found += 1,
                    StreamStep::Exhausted | StreamStep::Interrupted => break,
                }
            }
            let wall = start.elapsed();
            // The session's cumulative counters cover all the timed work,
            // including the bounded SAT call that closes the k-th tie group,
            // so ns/prop stays a rate over what the wall clock saw.
            let stats = stream.solver_stats();
            rows.push(hot_path_row(
                "top-k",
                family,
                size,
                found,
                stats.propagations,
                stats.conflicts,
                wall,
            ));
        }
    }
    rows
}

/// The E14 answers-identical guard (see [`hot_path_rows`]); panics on any
/// divergence, so the study — and the CI smoke step running it — fails
/// instead of publishing timings for a solver that changed answers.
pub fn assert_hot_path_equivalence(seed: u64) {
    // The MaxSAT top-k must equal the ZBDD route's, an engine that shares
    // no code with the CDCL search, cut set for cut set and bit for bit.
    let tree = Family::RandomMixed.generate(120, seed);
    let maxsat = MpmcsSolver::new()
        .solve_top_k(&tree, 8)
        .expect("generated trees have cut sets")
        .into_iter()
        .map(|s| (s.cut_set, s.probability.to_bits()))
        .collect::<Vec<_>>();
    let zbdd = BddBackend::new(VariableOrdering::DepthFirst, 1_000_000)
        .top_k(&tree, 8)
        .expect("the ZBDD route answers a 120-node tree")
        .into_iter()
        .map(|s| (s.cut_set, s.probability.to_bits()))
        .collect::<Vec<_>>();
    assert_eq!(
        maxsat, zbdd,
        "top-k answers diverged between the MaxSAT and ZBDD routes"
    );
}

/// Formats already-measured E14 rows.
pub fn hot_path_table(rows: &[HotPathRow]) -> String {
    let mut out = String::new();
    out.push_str("# E14 — hot path: ns/propagation of the CDCL core, arena vs seed layout\n");
    out.push_str(
        "leg       family        target  found  props       conflicts  wall_ms    ns/prop   ns/conf   seed_ns/prop  speedup\n",
    );
    for row in rows {
        out.push_str(&format!(
            "{:<9} {:<13} {:<7} {:<6} {:<11} {:<10} {:<10.3} {:<9.2} {:<9.1} {:<13} {}\n",
            row.leg,
            row.family,
            row.target_nodes,
            row.found,
            row.propagations,
            row.conflicts,
            row.wall_ms,
            row.ns_per_prop,
            row.ns_per_conflict,
            row.baseline_ns_per_prop
                .map_or_else(|| "-".to_string(), |b| format!("{b:<13.2}")),
            row.speedup
                .map_or_else(|| "-".to_string(), |s| format!("{s:.2}x")),
        ));
    }
    out
}

/// E14 convenience wrapper: measures and renders in one call.
pub fn hot_path(raw_sizes: &[usize], topk_sizes: &[usize], k: usize, seed: u64) -> String {
    hot_path_table(&hot_path_rows(raw_sizes, topk_sizes, k, seed))
}

/// One row of the E15 cache-reuse table: the same shared-module-heavy batch
/// analysed cache-off, cache-cold, and cache-warm.
#[derive(Clone, Debug)]
pub struct CacheReuseRow {
    /// Target total node count per tree.
    pub nodes: usize,
    /// Number of trees in the batch (cycling over three distinct seeds, so
    /// the corpus itself repeats whole trees).
    pub trees: usize,
    /// Wall time with no cache attached.
    pub baseline_time: Duration,
    /// Wall time of the first run against an empty shared cache (pays the
    /// insertions, already reuses repeated trees within the batch).
    pub cold_time: Duration,
    /// Wall time of a re-run against the now-populated shared cache.
    pub warm_time: Duration,
    /// `baseline_time / cold_time` — within-batch reuse.
    pub cold_speedup: f64,
    /// `cold_time / warm_time` — cross-run reuse, the headline number.
    pub warm_speedup: f64,
    /// Cache hits during the cold run.
    pub cold_hits: u64,
    /// Cache misses during the cold run.
    pub cold_misses: u64,
    /// Hit rate of the warm run (`hits / (hits + misses)`).
    pub warm_hit_rate: f64,
    /// Entries resident after the warm run.
    pub entries: u64,
    /// Bytes resident after the warm run.
    pub bytes: u64,
}

/// E15 — cache reuse on shared-module-heavy batches: for each target size,
/// builds a batch of [`Family::SharedModules`] trees cycling over three
/// distinct seeds (so whole trees repeat within the corpus), then runs it
/// three times — cache-off, cache-cold, cache-warm (same shared
/// [`AnalysisCache`](ft_backend::AnalysisCache)).
///
/// Before any timing is trusted, the three deterministic report renderings
/// are asserted byte-identical: the cache must change wall time and counters,
/// never answers. The batch runs single-worker so timings and hit attribution
/// are scheduling-independent.
pub fn cache_reuse_rows(sizes: &[usize], num_trees: usize, seed: u64) -> Vec<CacheReuseRow> {
    use ft_backend::{AnalysisCache, DEFAULT_CACHE_BYTES};
    use ft_batch::{run_batch, BatchConfig, BatchJob, BatchManifest, TreeSource};
    use std::sync::Arc;
    let mut rows = Vec::new();
    for &nodes in sizes {
        let manifest = BatchManifest {
            jobs: (0..num_trees)
                .map(|i| {
                    let job_seed = seed + (i % 3) as u64;
                    BatchJob {
                        name: format!("shared-modules-{nodes}n-{i}-seed{job_seed}"),
                        source: TreeSource::Generated {
                            family: Family::SharedModules,
                            nodes,
                            seed: job_seed,
                        },
                    }
                })
                .collect(),
        };
        let config = BatchConfig {
            jobs: 1,
            top_k: 3,
            ..BatchConfig::default()
        };
        let (baseline_report, baseline_time) = timed(|| run_batch(&manifest, &config));
        let cache = Arc::new(AnalysisCache::new(DEFAULT_CACHE_BYTES));
        let cached_config = BatchConfig {
            cache: Some(Arc::clone(&cache)),
            ..config.clone()
        };
        let (cold_report, cold_time) = timed(|| run_batch(&manifest, &cached_config));
        let cold_stats = cache.stats();
        let (warm_report, warm_time) = timed(|| run_batch(&manifest, &cached_config));
        let warm_stats = cache.stats();
        assert_eq!(
            baseline_report.to_deterministic_json(),
            cold_report.to_deterministic_json(),
            "cache-on and cache-off reports must be byte-identical ({nodes} nodes)"
        );
        assert_eq!(
            cold_report.to_deterministic_json(),
            warm_report.to_deterministic_json(),
            "warm replays must reproduce the cold report ({nodes} nodes)"
        );
        let warm_hits = warm_stats.hits - cold_stats.hits;
        let warm_misses = warm_stats.misses - cold_stats.misses;
        rows.push(CacheReuseRow {
            nodes,
            trees: manifest.len(),
            baseline_time,
            cold_time,
            warm_time,
            cold_speedup: baseline_time.as_secs_f64() / cold_time.as_secs_f64().max(1e-12),
            warm_speedup: cold_time.as_secs_f64() / warm_time.as_secs_f64().max(1e-12),
            cold_hits: cold_stats.hits,
            cold_misses: cold_stats.misses,
            warm_hit_rate: warm_hits as f64 / ((warm_hits + warm_misses) as f64).max(1.0),
            entries: warm_stats.entries,
            bytes: warm_stats.bytes,
        });
    }
    rows
}

/// Formats already-measured E15 rows.
pub fn cache_reuse_table(rows: &[CacheReuseRow]) -> String {
    let mut out = String::new();
    out.push_str(
        "# E15 — analysis-cache reuse on shared-module-heavy batches (cache-off vs cold vs warm, 1 worker)\n",
    );
    out.push_str(
        "nodes   trees  off_ms     cold_ms    warm_ms    cold_x   warm_x   cold_hits  cold_miss  warm_hit%  entries  bytes\n",
    );
    for row in rows {
        out.push_str(&format!(
            "{:<7} {:<6} {:<10.2} {:<10.2} {:<10.2} {:<8.2} {:<8.2} {:<10} {:<10} {:<10.1} {:<8} {}\n",
            row.nodes,
            row.trees,
            ms(row.baseline_time),
            ms(row.cold_time),
            ms(row.warm_time),
            row.cold_speedup,
            row.warm_speedup,
            row.cold_hits,
            row.cold_misses,
            row.warm_hit_rate * 100.0,
            row.entries,
            row.bytes,
        ));
    }
    out
}

/// E15 convenience wrapper: measures and renders in one call.
pub fn cache_reuse(sizes: &[usize], num_trees: usize, seed: u64) -> String {
    cache_reuse_table(&cache_reuse_rows(sizes, num_trees, seed))
}

// ---------------------------------------------------------------------------
// E16 — mission-time sweep scaling
// ---------------------------------------------------------------------------

/// One measured row of the E16 sweep-scaling study: the incremental
/// `probability_sweep` (structure solved once, each mission time
/// re-quantified in O(size)) against the naive loop re-solving the structure
/// at every grid point.
#[derive(Clone, Debug)]
pub struct SweepScalingRow {
    /// Generator family name.
    pub family: String,
    /// Analysis engine ("bdd" or "maxsat").
    pub backend: &'static str,
    /// Requested node count of the generated tree.
    pub target_nodes: usize,
    /// Mission times quantified.
    pub points: usize,
    /// Wall time of one incremental sweep over the whole grid.
    pub incremental_time: Duration,
    /// Wall time of the naive loop re-solving the structure per point.
    pub naive_time: Duration,
    /// `naive_time / incremental_time`.
    pub speedup: f64,
}

/// The mission-time grid of the E16 study: `points` times evenly spaced over
/// `[0, 4]` — both sides of the default mission time, where the generated
/// probabilities live.
pub fn sweep_grid(points: usize) -> Vec<f64> {
    assert!(points >= 2, "a sweep grid needs at least two mission times");
    (0..points)
        .map(|i| 4.0 * i as f64 / (points - 1) as f64)
        .collect()
}

/// Attaches an exponential failure law `1 − exp(−λt)` to every event, with λ
/// chosen so the law reproduces the event's stored probability at the
/// default mission time — the sweep curves genuinely move over the grid,
/// while every `t = 1` answer still matches the untimed tree's.
pub fn with_exponential_models(tree: &FaultTree) -> FaultTree {
    let mut events = tree.events().to_vec();
    for event in events.iter_mut() {
        let p = event.probability().value().clamp(1e-9, 1.0 - 1e-9);
        let model = FailureModel::exponential(-(1.0 - p).ln()).expect("finite rate");
        event.set_model(Some(model));
    }
    FaultTree::from_parts(tree.name(), events, tree.gates().to_vec(), tree.top())
        .expect("re-attaching models preserves validity")
}

/// E16: measures both legs on two generated families × the BDD and MaxSAT
/// routes, first proving every incremental point **bit-identical** to the
/// naive point query at that time — timings are only published for answers
/// already shown to be the same bits.
pub fn sweep_scaling_rows(sizes: &[usize], points: usize, seed: u64) -> Vec<SweepScalingRow> {
    let grid = sweep_grid(points);
    let mut rows = Vec::new();
    for &nodes in sizes {
        for family in [Family::RandomMixed, Family::SharedDag] {
            let tree = with_exponential_models(&family.generate(nodes, seed));
            for (backend_name, kind) in [("bdd", BackendKind::Bdd), ("maxsat", BackendKind::MaxSat)]
            {
                let (_, backend) = backend_for(kind, &tree, &BackendConfig::default());
                let reference = backend
                    .probability_sweep(&tree, &grid)
                    .expect("in-budget sweep");
                for (i, &t) in grid.iter().enumerate() {
                    let point = backend
                        .top_event_probability(&tree.at_time(t))
                        .expect("in-budget point query");
                    assert_eq!(
                        reference[i].to_bits(),
                        point.to_bits(),
                        "{}-{nodes}/{backend_name}: sweep diverged at t={t}",
                        family.name()
                    );
                }
                let (swept, incremental_time) = timed(|| {
                    backend
                        .probability_sweep(&tree, &grid)
                        .expect("in-budget sweep")
                });
                let (naive, naive_time) = timed(|| {
                    grid.iter()
                        .map(|&t| {
                            backend
                                .top_event_probability(&tree.at_time(t))
                                .expect("in-budget point query")
                        })
                        .collect::<Vec<f64>>()
                });
                assert_eq!(swept, naive, "timed legs must reproduce the proven curve");
                rows.push(SweepScalingRow {
                    family: family.name().to_string(),
                    backend: backend_name,
                    target_nodes: nodes,
                    points,
                    incremental_time,
                    naive_time,
                    speedup: naive_time.as_secs_f64() / incremental_time.as_secs_f64().max(1e-12),
                });
            }
        }
    }
    rows
}

/// Formats already-measured E16 rows.
pub fn sweep_scaling_table(rows: &[SweepScalingRow]) -> String {
    let mut out = String::new();
    out.push_str(
        "# E16 — mission-time sweep scaling (incremental re-quantification vs naive per-point re-solve)\n",
    );
    out.push_str("family         backend  nodes   points  incremental_ms  naive_ms    speedup\n");
    for row in rows {
        out.push_str(&format!(
            "{:<14} {:<8} {:<7} {:<7} {:<15.2} {:<11.2} {:.2}\n",
            row.family,
            row.backend,
            row.target_nodes,
            row.points,
            ms(row.incremental_time),
            ms(row.naive_time),
            row.speedup,
        ));
    }
    out
}

/// E16 convenience wrapper: measures and renders in one call.
pub fn sweep_scaling(sizes: &[usize], points: usize, seed: u64) -> String {
    sweep_scaling_table(&sweep_scaling_rows(sizes, points, seed))
}

// ---------------------------------------------------------------------------
// E17 — HTTP server load (latency/throughput curve)
// ---------------------------------------------------------------------------

/// One measured row of the E17 server-load study: `connections` concurrent
/// keep-alive clients each issuing `requests / connections` MPMCS queries
/// against the HTTP front end, with the shared analysis cache off ("cold")
/// or on ("warm").
#[derive(Clone, Debug)]
pub struct ServerLoadRow {
    /// Cache mode: "cold" (every request re-solves) or "warm" (the shared
    /// content-addressed cache answers repeats).
    pub mode: &'static str,
    /// Concurrent client connections.
    pub connections: usize,
    /// Total requests completed across all connections.
    pub requests: usize,
    /// Median per-request latency.
    pub p50: Duration,
    /// 99th-percentile per-request latency.
    pub p99: Duration,
    /// Completed requests per second of wall time.
    pub throughput_rps: f64,
    /// Connections shed with 503 during the measurement (queue sized to
    /// keep this at zero; non-zero values flag an under-provisioned run).
    pub shed: u64,
}

fn nearest_rank(sorted: &[Duration], percentile: f64) -> Duration {
    assert!(!sorted.is_empty(), "percentiles need at least one sample");
    let rank = ((sorted.len() as f64 - 1.0) * percentile / 100.0).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

/// E17: boots one server per cache mode, registers a generated tree, and
/// drives it with ladders of concurrent keep-alive clients — after first
/// proving every answer byte-identical to the first one (timings are only
/// published for answers already shown to be the same bytes, modulo the
/// per-solution wall-clock line).
pub fn server_load_rows(
    connection_counts: &[usize],
    requests_per_client: usize,
    seed: u64,
) -> Vec<ServerLoadRow> {
    use std::io::{BufReader, Write};
    use std::net::TcpStream;
    use std::sync::{Arc, Barrier};

    let tree = Family::RandomMixed.generate(60, seed);
    let max_connections = connection_counts.iter().copied().max().unwrap_or(1);
    let redact = |text: &str| -> String {
        text.lines()
            .filter(|line| !line.contains("\"solve_time_ms\""))
            .collect::<Vec<_>>()
            .join("\n")
    };

    let mut rows = Vec::new();
    for (mode, cache_bytes) in [("cold", None), ("warm", Some(64 * 1024 * 1024))] {
        let handle = ft_server::Server::start(ft_server::ServerConfig {
            workers: 4,
            queue_depth: max_connections * 2 + 4,
            cache_bytes,
            ..ft_server::ServerConfig::default()
        })
        .expect("the load server binds an ephemeral loopback port");
        handle.service().register("bench", tree.clone());
        let addr = handle.addr();
        let request =
            "GET /trees/bench/mpmcs HTTP/1.1\r\nHost: bench\r\nConnection: keep-alive\r\n\r\n";

        // Prime, then capture the reference answer. The first request in
        // warm mode pays the solve and feeds the cache, so its report
        // carries solve-side counters (`sat_calls`) that cached replays
        // don't; the *second* request is the steady state every measured
        // response is held byte-identical to.
        let one_request = || {
            let mut stream = TcpStream::connect(addr).expect("connect to the load server");
            stream
                .write_all(request.as_bytes())
                .expect("write the reference request");
            let mut reader = BufReader::new(stream);
            let response =
                ft_server::http::read_response(&mut reader).expect("read the reference response");
            assert_eq!(response.status, 200, "{}", response.text());
            redact(&response.text())
        };
        one_request();
        let reference = one_request();

        for &connections in connection_counts {
            let shed_before = handle.counters().shed;
            let barrier = Arc::new(Barrier::new(connections + 1));
            let clients: Vec<_> = (0..connections)
                .map(|_| {
                    let barrier = Arc::clone(&barrier);
                    let reference = reference.clone();
                    std::thread::spawn(move || {
                        let stream = TcpStream::connect(addr).expect("connect to the load server");
                        let mut writer = stream.try_clone().expect("clone the client socket");
                        let mut reader = BufReader::new(stream);
                        barrier.wait();
                        let mut latencies = Vec::with_capacity(requests_per_client);
                        for _ in 0..requests_per_client {
                            let start = Instant::now();
                            writer
                                .write_all(request.as_bytes())
                                .expect("write a measured request");
                            let response = ft_server::http::read_response(&mut reader)
                                .expect("read a measured response");
                            latencies.push(start.elapsed());
                            assert_eq!(response.status, 200);
                            assert_eq!(
                                redact(&response.text()),
                                reference,
                                "a measured answer diverged from the reference"
                            );
                        }
                        latencies
                    })
                })
                .collect();
            barrier.wait();
            let start = Instant::now();
            let mut latencies: Vec<Duration> = clients
                .into_iter()
                .flat_map(|client| client.join().expect("a load client panicked"))
                .collect();
            let wall = start.elapsed();
            latencies.sort();
            let requests = latencies.len();
            rows.push(ServerLoadRow {
                mode,
                connections,
                requests,
                p50: nearest_rank(&latencies, 50.0),
                p99: nearest_rank(&latencies, 99.0),
                throughput_rps: requests as f64 / wall.as_secs_f64().max(1e-9),
                shed: handle.counters().shed - shed_before,
            });
        }
        handle.shutdown();
    }
    rows
}

/// Formats already-measured E17 rows.
pub fn server_load_table(rows: &[ServerLoadRow]) -> String {
    let mut out = String::new();
    out.push_str("# E17 — HTTP server load (concurrent keep-alive clients, MPMCS query)\n");
    out.push_str("mode   connections  requests  p50_ms    p99_ms    throughput_rps  shed\n");
    for row in rows {
        out.push_str(&format!(
            "{:<6} {:<12} {:<9} {:<9.2} {:<9.2} {:<15.1} {}\n",
            row.mode,
            row.connections,
            row.requests,
            ms(row.p50),
            ms(row.p99),
            row.throughput_rps,
            row.shed,
        ));
    }
    out
}

/// E17 convenience wrapper: measures and renders in one call.
pub fn server_load(connection_counts: &[usize], requests_per_client: usize, seed: u64) -> String {
    server_load_table(&server_load_rows(
        connection_counts,
        requests_per_client,
        seed,
    ))
}

// ---------------------------------------------------------------------------
// Machine-readable `BENCH_*.json` snapshots
// ---------------------------------------------------------------------------

/// Wraps rendered study rows in the standard snapshot envelope the
/// `BENCH_*.json` files carry, so perf trajectories survive ROADMAP
/// re-anchors in a diffable, machine-readable form.
pub fn bench_snapshot_json(experiment: &str, seed: u64, rows: Vec<serde::Value>) -> String {
    use serde::Serialize;
    let mut map = serde::Map::new();
    map.insert("experiment".to_string(), experiment.to_value());
    map.insert("seed".to_string(), seed.to_value());
    map.insert("rows".to_string(), serde::Value::Array(rows));
    serde_json::to_string_pretty(&serde::Value::Object(map)).expect("snapshots always serialise")
}

/// The `BENCH_hotpath.json` document for measured E14 rows.
pub fn hot_path_snapshot(rows: &[HotPathRow], seed: u64) -> String {
    use serde::Serialize;
    bench_snapshot_json(
        "E14-hot-path",
        seed,
        rows.iter().map(|r| r.to_value()).collect(),
    )
}

/// The `BENCH_cache.json` document for measured E15 rows.
pub fn cache_reuse_snapshot(rows: &[CacheReuseRow], seed: u64) -> String {
    use serde::Serialize;
    let rows = rows
        .iter()
        .map(|r| {
            let mut map = serde::Map::new();
            map.insert("nodes".to_string(), r.nodes.to_value());
            map.insert("trees".to_string(), r.trees.to_value());
            map.insert("baseline_ms".to_string(), ms(r.baseline_time).to_value());
            map.insert("cold_ms".to_string(), ms(r.cold_time).to_value());
            map.insert("warm_ms".to_string(), ms(r.warm_time).to_value());
            map.insert("cold_speedup".to_string(), r.cold_speedup.to_value());
            map.insert("warm_speedup".to_string(), r.warm_speedup.to_value());
            map.insert("cold_hits".to_string(), r.cold_hits.to_value());
            map.insert("cold_misses".to_string(), r.cold_misses.to_value());
            map.insert("warm_hit_rate".to_string(), r.warm_hit_rate.to_value());
            map.insert("entries".to_string(), r.entries.to_value());
            map.insert("bytes".to_string(), r.bytes.to_value());
            serde::Value::Object(map)
        })
        .collect();
    bench_snapshot_json("E15-cache-reuse", seed, rows)
}

/// The `BENCH_sweep.json` document for measured E16 rows.
pub fn sweep_scaling_snapshot(rows: &[SweepScalingRow], seed: u64) -> String {
    use serde::Serialize;
    let rows = rows
        .iter()
        .map(|r| {
            let mut map = serde::Map::new();
            map.insert("family".to_string(), r.family.to_value());
            map.insert("backend".to_string(), r.backend.to_value());
            map.insert("target_nodes".to_string(), r.target_nodes.to_value());
            map.insert("points".to_string(), r.points.to_value());
            map.insert(
                "incremental_ms".to_string(),
                ms(r.incremental_time).to_value(),
            );
            map.insert("naive_ms".to_string(), ms(r.naive_time).to_value());
            map.insert("speedup".to_string(), r.speedup.to_value());
            serde::Value::Object(map)
        })
        .collect();
    bench_snapshot_json("E16-sweep-scaling", seed, rows)
}

/// The `BENCH_server.json` document for measured E17 rows.
pub fn server_load_snapshot(rows: &[ServerLoadRow], seed: u64) -> String {
    use serde::Serialize;
    let rows = rows
        .iter()
        .map(|r| {
            let mut map = serde::Map::new();
            map.insert("mode".to_string(), r.mode.to_value());
            map.insert("connections".to_string(), r.connections.to_value());
            map.insert("requests".to_string(), r.requests.to_value());
            map.insert("p50_ms".to_string(), ms(r.p50).to_value());
            map.insert("p99_ms".to_string(), ms(r.p99).to_value());
            map.insert("throughput_rps".to_string(), r.throughput_rps.to_value());
            map.insert("shed".to_string(), r.shed.to_value());
            serde::Value::Object(map)
        })
        .collect();
    bench_snapshot_json("E17-server-load", seed, rows)
}

/// The `BENCH_session_streaming.json` document for measured E13 rows.
pub fn session_streaming_snapshot(rows: &[SessionStreamingRow], seed: u64) -> String {
    use serde::Serialize;
    let rows = rows
        .iter()
        .map(|r| {
            let mut map = serde::Map::new();
            map.insert("family".to_string(), r.family.to_value());
            map.insert("target_nodes".to_string(), r.target_nodes.to_value());
            map.insert("prefix".to_string(), r.prefix.to_value());
            map.insert("collected_k".to_string(), r.collected_k.to_value());
            map.insert("found".to_string(), r.found.to_value());
            map.insert("stream_ms".to_string(), ms(r.stream_time).to_value());
            map.insert("collected_ms".to_string(), ms(r.collected_time).to_value());
            map.insert(
                "stream_sat_calls".to_string(),
                r.stream_sat_calls.to_value(),
            );
            map.insert(
                "collected_sat_calls".to_string(),
                r.collected_sat_calls.to_value(),
            );
            serde::Value::Object(map)
        })
        .collect();
    bench_snapshot_json("E13-session-streaming", seed, rows)
}

#[cfg(test)]
mod hot_path_tests {
    use super::*;

    #[test]
    fn hot_path_rows_measure_both_legs_and_render() {
        let rows = hot_path_rows(&[250], &[100], 5, 2020);
        // 3 raw-cdcl families × 1 size + 3 top-k families × 1 size.
        assert_eq!(rows.len(), 6);
        for row in &rows {
            assert!(row.found > 0, "{}-{}", row.leg, row.family);
            assert!(row.propagations > 0);
            assert!(row.ns_per_prop > 0.0);
        }
        // The captured baseline grid covers the raw-CDCL workloads only.
        assert!(rows
            .iter()
            .all(|r| r.speedup.is_some() == (r.leg == "raw-cdcl")));
        let table = hot_path_table(&rows);
        assert!(table.contains("E14"));
        assert!(table.contains("raw-cdcl"));
        assert!(table.contains("top-k"));
        let json = hot_path_snapshot(&rows, 2020);
        let parsed: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert_eq!(parsed["experiment"].as_str(), Some("E14-hot-path"));
        assert_eq!(parsed["rows"].as_array().unwrap().len(), 6);
        assert!(parsed["rows"][0]["ns_per_prop"].as_f64().unwrap() > 0.0);
        assert!(parsed["rows"][0]["baseline_ns_per_prop"].as_f64().is_some());
    }

    #[test]
    fn cache_reuse_rows_prove_identity_and_measure_reuse() {
        let rows = cache_reuse_rows(&[90], 6, 33);
        assert_eq!(rows.len(), 1);
        let row = &rows[0];
        assert_eq!(row.trees, 6);
        // The corpus cycles over three seeds, so even the cold run replays
        // whole trees; the warm run answers everything from the cache.
        assert!(row.cold_hits > 0, "cold run reuses repeated trees");
        assert!(
            row.warm_hit_rate > 0.99,
            "warm run must be all hits (got {})",
            row.warm_hit_rate
        );
        assert!(row.entries > 0 && row.bytes > 0);
        let table = cache_reuse_table(&rows);
        assert!(table.contains("E15"));
        let json = cache_reuse_snapshot(&rows, 33);
        let parsed: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert_eq!(parsed["experiment"].as_str(), Some("E15-cache-reuse"));
        assert_eq!(parsed["rows"].as_array().unwrap().len(), 1);
        assert!(parsed["rows"][0]["warm_speedup"].as_f64().is_some());
    }

    #[test]
    fn sweep_scaling_rows_prove_identity_and_measure_both_legs() {
        // Debug-mode unit test: tiny trees and a short grid — every naive
        // point (and every identity check) is a full exact quantification.
        let rows = sweep_scaling_rows(&[24], 6, 2020);
        // 2 families × 2 backends.
        assert_eq!(rows.len(), 4);
        for row in &rows {
            assert_eq!(row.points, 6);
            assert!(row.incremental_time > Duration::ZERO);
            assert!(row.naive_time > Duration::ZERO);
            assert!(row.speedup > 0.0);
        }
        assert!(rows.iter().any(|r| r.backend == "bdd"));
        assert!(rows.iter().any(|r| r.backend == "maxsat"));
        let table = sweep_scaling_table(&rows);
        assert!(table.contains("E16"));
        assert!(table.contains("random-mixed"));
        let json = sweep_scaling_snapshot(&rows, 2020);
        let parsed: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert_eq!(parsed["experiment"].as_str(), Some("E16-sweep-scaling"));
        assert_eq!(parsed["rows"].as_array().unwrap().len(), 4);
        assert!(parsed["rows"][0]["speedup"].as_f64().unwrap() > 0.0);
    }

    #[test]
    fn server_load_rows_prove_identity_and_measure_the_ladder() {
        // Debug-mode unit test: a tiny connection ladder and few requests —
        // every answer is still byte-compared to the reference.
        let rows = server_load_rows(&[1, 2], 3, 2020);
        // 2 modes × 2 ladder steps.
        assert_eq!(rows.len(), 4);
        for row in &rows {
            assert_eq!(row.requests, row.connections * 3);
            assert!(row.p50 > Duration::ZERO);
            assert!(row.p99 >= row.p50);
            assert!(row.throughput_rps > 0.0);
            assert_eq!(row.shed, 0, "the sized queue must not shed");
        }
        assert!(rows.iter().any(|r| r.mode == "cold"));
        assert!(rows.iter().any(|r| r.mode == "warm"));
        let table = server_load_table(&rows);
        assert!(table.contains("E17"));
        let json = server_load_snapshot(&rows, 2020);
        let parsed: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert_eq!(parsed["experiment"].as_str(), Some("E17-server-load"));
        assert_eq!(parsed["rows"].as_array().unwrap().len(), 4);
        assert!(parsed["rows"][0]["p99_ms"].as_f64().unwrap() > 0.0);
    }

    #[test]
    fn study_snapshots_carry_the_envelope_and_rows() {
        let rows = session_streaming_rows(&[60], 3, 8, 9);
        let json = session_streaming_snapshot(&rows, 9);
        let parsed: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert_eq!(parsed["experiment"].as_str(), Some("E13-session-streaming"));
        assert_eq!(parsed["rows"].as_array().unwrap().len(), rows.len());
    }
}
