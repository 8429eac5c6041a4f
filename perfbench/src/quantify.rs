//! `quantify`: exact quantification with the SAT layers idle.
//!
//! Closed loop, one client. One op takes a 30–45-node model with
//! exponential failure laws through a fresh `Analyzer` on the BDD backend:
//! `probability()`, `importance()` and `sweep()` over a 100-point grid, then
//! renders all three answers with `ft_session::report`.

use std::sync::Arc;
use std::time::{Duration, Instant};

use bdd_engine::{compile_fault_tree, VariableOrdering, ZbddAnalysis};
use fault_tree::parser::galileo::{parse_galileo, to_galileo_string};
use fault_tree::{CutSet, FaultTree};
use ft_analysis::importance::ImportanceTable;
use ft_backend::{
    exact_union_probability, AnalysisBackend, BackendConfig, BddBackend, MocusBackend,
};
use ft_generators::Family;
use ft_session::report::{render_importance, render_probability, render_sweep_json};
use ft_session::{Analyzer, BackendKind, ImportanceReport};

use crate::calibrate::Calibration;
use crate::trace::Tracer;
use crate::{
    closed_loop_figures, geometric_mean, heap, mean, median, ms, par_map, percentile, pick,
    repeated_setup, with_exponential_laws, Options, Outcome, Slot,
};

/// Models per family, at evenly spaced node counts over 30–45. Cliff guard:
/// a 56-node voting-heavy model spent ~500 s in `importance()` on the BDD
/// backend, and nothing stops it there (`BddBackend` keeps the default
/// `all_mcs_under`, and `ImportanceTable::compute` takes no budget), so
/// sizes stay at 30–45 nodes. Op costs spread from 4 to 80 ms over one
/// corpus; twenty models per family keep the seed's share of `p50_ms` small.
const PER_FAMILY: usize = 20;

/// Structural screen: a candidate whose ROBDD exceeds this many nodes is
/// replaced by the next candidate seed. Importance compiles ≈8n+3 ROBDDs
/// of the model's size, so the BDD size bounds the op's cost; the screen
/// depends on the model alone, never on how fast the program runs.
const MAX_BDD_NODES: usize = 2_000;
/// Importance and the BDD path walk grow with the cut-set family: in sizing
/// a 37-node voting-heavy model with 656 minimal cut sets cost 117 ms per op
/// while its neighbours took 5–40 ms, and the answer check's pivotal
/// decomposition at 100 sweep points grows faster still. Families above
/// this count (counted by the ZBDD, again a property of the model alone)
/// are replaced.
const MAX_CUT_SETS: u128 = 250;

/// The 100-point mission-time grid of every sweep.
fn grid() -> Vec<f64> {
    (0..100).map(|i| i as f64 * 0.05).collect()
}

fn ordering() -> VariableOrdering {
    BackendConfig::default().bdd_ordering
}

/// Picks one generator seed per (family, size) slot, skipping candidates
/// over [`MAX_BDD_NODES`] or [`MAX_CUT_SETS`].
fn pick_corpus(seed: u64) -> (Vec<Slot>, usize) {
    let targets: Vec<(Family, usize)> = Family::all()
        .into_iter()
        .flat_map(|family| (0..PER_FAMILY).map(move |i| (family, 30 + i * 15 / (PER_FAMILY - 1))))
        .collect();
    let (picked, rejected) = pick(seed, 2, &targets, |family, size, candidate| {
        admit(&family.generate(size, candidate)).then_some(())
    });
    (
        picked.into_iter().map(|(slot, ())| slot).collect(),
        rejected,
    )
}

/// Admission check of a candidate model: its ROBDD and cut-set family stay
/// within [`MAX_BDD_NODES`] and [`MAX_CUT_SETS`], which bound the op's work,
/// and the op answers. No time or memory limit takes part.
fn admit(tree: &FaultTree) -> bool {
    if compile_fault_tree(tree, ordering()).size() > MAX_BDD_NODES
        || ZbddAnalysis::new(tree).count() > MAX_CUT_SETS
    {
        return false;
    }
    let model = Model {
        family: "candidate",
        tree: Arc::new(with_exponential_laws(tree)),
    };
    facade_op(&model, &grid(), &mut Tracer::new(false, Instant::now())).is_ok()
}

struct Model {
    family: &'static str,
    tree: Arc<FaultTree>,
}

/// Set-up proper: generate, attach laws, serialize to Galileo and load.
fn build_corpus(slots: &[Slot]) -> Vec<Model> {
    slots
        .iter()
        .map(|&(family, size, seed)| {
            let text = to_galileo_string(&with_exponential_laws(&family.generate(size, seed)));
            Model {
                family: family.name(),
                tree: Arc::new(parse_galileo(&text).expect("generated models parse")),
            }
        })
        .collect()
}

/// One op's answers, as raw bits for identity checks.
#[derive(Clone, PartialEq)]
struct Answer {
    probability: u64,
    sweep: Vec<u64>,
    importance: Vec<[u64; 6]>,
    rendered_bytes: usize,
}

fn importance_bits(report: &ImportanceReport) -> Vec<[u64; 6]> {
    report
        .rows
        .iter()
        .map(|r| {
            [
                r.birnbaum.to_bits(),
                r.fussell_vesely.to_bits(),
                r.raw.to_bits(),
                r.rrw.to_bits(),
                r.criticality.to_bits(),
                r.structural.to_bits(),
            ]
        })
        .collect()
}

fn table_bits(table: &ImportanceTable) -> Vec<[u64; 6]> {
    (0..table.birnbaum.len())
        .map(|i| {
            [
                table.birnbaum[i].to_bits(),
                table.fussell_vesely[i].to_bits(),
                table.raw[i].to_bits(),
                table.rrw[i].to_bits(),
                table.criticality[i].to_bits(),
                table.structural[i].to_bits(),
            ]
        })
        .collect()
}

fn facade_op(model: &Model, grid: &[f64], tracer: &mut Tracer) -> Result<Answer, String> {
    let root = tracer.enter("op");
    let answers = tracer.span("ft-session.query", |_| {
        let mut analyzer = Analyzer::for_shared(Arc::clone(&model.tree)).backend(BackendKind::Bdd);
        let probability = analyzer.probability().map_err(|e| e.to_string())?;
        let importance = analyzer.importance().map_err(|e| e.to_string())?;
        let sweep = analyzer.sweep(grid).map_err(|e| e.to_string())?;
        Ok::<_, String>((probability, importance, sweep))
    });
    let answer = answers.map(|(probability, importance, sweep)| {
        let rendered_bytes = tracer.span("ft-session.render", |_| {
            let tree = &model.tree;
            render_probability(tree, BackendKind::Bdd, false, probability).len()
                + render_importance(&importance).len()
                + render_sweep_json(tree, BackendKind::Bdd, false, &sweep).len()
        });
        Answer {
            probability: probability.to_bits(),
            sweep: sweep.probabilities.iter().map(|p| p.to_bits()).collect(),
            importance: importance_bits(&importance),
            rendered_bytes,
        }
    });
    tracer.exit(root);
    answer
}

#[derive(Default)]
struct ReplayCounters {
    compiles: u64,
    cut_sets: usize,
    nodes: usize,
    requantify_us_per_point: f64,
    layer_ms: f64,
}

/// The traced split of the op through the layers' public entry points:
/// `BddBackend::top_event_probability` for `probability()`,
/// `BddBackend::all_mcs` plus `ImportanceTable::compute` with a counting
/// oracle for `importance()`, and one compilation plus per-point
/// requantification for `sweep()`.
fn replay_op(model: &Model, grid: &[f64], tracer: &mut Tracer) -> (Answer, ReplayCounters) {
    let tree = &*model.tree;
    let config = BackendConfig::default();
    let backend = BddBackend::new(config.bdd_ordering, config.bdd_path_budget);
    let mut counters = ReplayCounters::default();
    let root = tracer.enter("replay");
    let start = Instant::now();
    let probability = tracer.span("ft-backend.bdd_probability", |_| {
        backend
            .top_event_probability(tree)
            .expect("the BDD quantifies exactly")
    });
    let cuts: Vec<CutSet> = tracer.span("ft-backend.bdd_all_mcs", |_| {
        backend
            .all_mcs(tree)
            .expect("screened models enumerate")
            .into_iter()
            .map(|s| s.cut_set)
            .collect()
    });
    counters.cut_sets = cuts.len();
    let mut compiles = 0u64;
    let table = tracer.span("ft-analysis.importance", |t| {
        ImportanceTable::compute(tree, &cuts, |conditioned: &FaultTree| {
            compiles += 1;
            let compiled = t.span("bdd-engine.compile", |_| {
                compile_fault_tree(conditioned, config.bdd_ordering)
            });
            t.span("bdd-engine.quantify", |_| {
                compiled.top_event_probability(conditioned)
            })
        })
    });
    counters.compiles = compiles;
    let compiled = tracer.span("bdd-engine.compile", |_| {
        compile_fault_tree(tree, config.bdd_ordering)
    });
    counters.nodes = compiled.size();
    let requantify_start = Instant::now();
    let sweep: Vec<f64> = tracer.span("bdd-engine.requantify", |_| {
        let mut requantifier = compiled.requantifier();
        grid.iter()
            .map(|&t| requantifier.probability_with(|e| tree.event(e).probability_at(t).value()))
            .collect()
    });
    counters.requantify_us_per_point =
        requantify_start.elapsed().as_secs_f64() * 1e6 / grid.len() as f64;
    counters.layer_ms = ms(start.elapsed());
    tracer.exit(root);
    let answer = Answer {
        probability: probability.to_bits(),
        sweep: sweep.iter().map(|p| p.to_bits()).collect(),
        importance: table_bits(&table),
        rendered_bytes: 0,
    };
    (answer, counters)
}

/// The per-model reference of a second exact route: the MOCUS cut-set
/// family quantified by pivotal decomposition, at the base time and at
/// every grid point.
struct Reference {
    probability: f64,
    sweep: Vec<f64>,
    cut_sets: usize,
    bdd_nodes: usize,
}

fn reference(model: &Model, grid: &[f64]) -> Result<Reference, String> {
    let tree = &*model.tree;
    let config = BackendConfig::default();
    let mocus = MocusBackend::new(config.mocus_budget, config.probability_budget);
    let cuts: Vec<CutSet> = mocus
        .all_mcs(tree)
        .map_err(|e| e.to_string())?
        .into_iter()
        .map(|s| s.cut_set)
        .collect();
    let exact = |t: &FaultTree| exact_union_probability(t, &cuts, 1 << 24, "mocus");
    let probability = exact(tree).map_err(|e| e.to_string())?;
    let sweep = grid
        .iter()
        .map(|&t| exact(&tree.at_time(t)))
        .collect::<Result<Vec<f64>, _>>()
        .map_err(|e| e.to_string())?;
    Ok(Reference {
        probability,
        sweep,
        cut_sets: cuts.len(),
        bdd_nodes: compile_fault_tree(tree, config.bdd_ordering).size(),
    })
}

/// Agreement of two exact routes: 1e-9 relative, with an absolute floor of
/// 1e-15 for values near zero (early sweep points of 1e-12 differ in the
/// sixth digit between the two routes' floating-point evaluation orders).
fn agree(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()) + 1e-15
}

/// Checks one model's answer against the second route and the measures'
/// ranges.
fn check(answer: &Answer, reference: &Reference) -> Result<(), String> {
    let probability = f64::from_bits(answer.probability);
    if !agree(probability, reference.probability) {
        return Err(format!(
            "probability {probability} disagrees with the MOCUS route's {}",
            reference.probability
        ));
    }
    for (i, (bits, expected)) in answer.sweep.iter().zip(&reference.sweep).enumerate() {
        if !agree(f64::from_bits(*bits), *expected) {
            return Err(format!(
                "sweep point {i} is {} where the MOCUS route gives {expected}",
                f64::from_bits(*bits)
            ));
        }
    }
    if answer.sweep.len() != reference.sweep.len() {
        return Err("the sweep has the wrong number of points".to_string());
    }
    const EPS: f64 = 1e-9;
    for (event, row) in answer.importance.iter().enumerate() {
        let [birnbaum, fv, raw, rrw, criticality, structural] = row.map(f64::from_bits);
        let unit = |x: f64| x.is_finite() && (-EPS..=1.0 + EPS).contains(&x);
        let ok = unit(birnbaum)
            && unit(fv)
            && unit(criticality)
            && unit(structural)
            && raw.is_finite()
            && (raw == 0.0 || raw >= 1.0 - EPS)
            && !rrw.is_nan()
            && rrw >= 1.0 - EPS;
        if !ok {
            return Err(format!("importance row {event} is out of range: {row:?}"));
        }
    }
    Ok(())
}

pub fn run(options: &Options) -> Outcome {
    let grid = grid();
    let (slots, rejected) = pick_corpus(options.seed);
    // Set-up takes ~20 ms; nine rounds keep its median off the timer noise.
    let mut calibration = Calibration::new();
    let (corpus, setup_s) = repeated_setup(9, &mut calibration, |_| build_corpus(&slots));
    let mut outcome = Outcome::default();
    let epoch = Instant::now();
    let mut tracer = Tracer::new(options.trace, epoch);
    let mut untraced = Tracer::new(false, epoch);

    let mut answers: Vec<(usize, Result<Answer, String>)> = Vec::new();
    let mut latencies = Vec::new();
    let mut heap_mb = Vec::new();
    let mut marks = Vec::new();
    let (mut traced_latencies, mut plain_latencies) = (Vec::new(), Vec::new());
    let mut replays: Vec<ReplayCounters> = Vec::new();
    let budget = Duration::from_secs_f64(options.seconds);
    let start = Instant::now();
    let (mut op, mut pass) = (0u64, 0u64);
    // Whole passes only; traced runs trace every other pass.
    while start.elapsed() < budget {
        pass += 1;
        let traced = options.trace && pass.is_multiple_of(2);
        for (index, model) in corpus.iter().enumerate() {
            op += 1;
            tracer.set_op(op);
            marks.push(calibration.mark());
            let heap_base = heap::reset_peak();
            let op_start = Instant::now();
            let answer = if traced {
                facade_op(model, &grid, &mut tracer)
            } else {
                facade_op(model, &grid, &mut untraced)
            };
            let elapsed = op_start.elapsed();
            calibration.after(ms(elapsed));
            heap_mb.push(heap::peak_above_mb(heap_base));
            latencies.push(ms(elapsed));
            if options.trace {
                if traced {
                    traced_latencies.push(ms(elapsed));
                } else {
                    plain_latencies.push(ms(elapsed));
                }
            }
            if let (true, Ok(answer)) = (traced, &answer) {
                let (replayed, counters) = replay_op(model, &grid, &mut tracer);
                let same = replayed.probability == answer.probability
                    && replayed.sweep == answer.sweep
                    && replayed.importance == answer.importance;
                if !same {
                    outcome.check_failed(format!(
                        "op {op}: the traced split disagrees with the facade answer"
                    ));
                }
                replays.push(counters);
            }
            answers.push((index, answer));
        }
    }
    let wall = start.elapsed();

    let checks_start = Instant::now();
    // Answer checks, outside the timed loop: one reference per model, and
    // every op's answer bit-identical to the model's checked first answer.
    let references: Vec<Result<Reference, String>> =
        par_map(&corpus, |model| reference(model, &grid));
    let mut first: Vec<Option<Answer>> = vec![None; corpus.len()];
    let mut verdict: Vec<Option<Result<(), String>>> = vec![None; corpus.len()];
    for (index, answer) in &answers {
        outcome.attempted += 1;
        let answer = match answer {
            Ok(answer) => answer,
            Err(error) => {
                outcome.check_failed(format!("model {index}: {error}"));
                continue;
            }
        };
        match &first[*index] {
            Some(previous) if previous != answer => {
                outcome.check_failed(format!("model {index}: answers differ between ops"));
                continue;
            }
            Some(_) => {}
            None => first[*index] = Some(answer.clone()),
        }
        let verdict = verdict[*index].get_or_insert_with(|| match &references[*index] {
            Ok(reference) => check(answer, reference),
            Err(error) => Err(format!("the MOCUS route failed: {error}")),
        });
        if let Err(message) = verdict {
            outcome.check_failed(format!("model {index}: {message}"));
        }
    }

    eprintln!(
        "census (quantify, seed {}): {rejected} candidate models rejected by screening, checks took {:.2} s",
        options.seed,
        checks_start.elapsed().as_secs_f64()
    );
    eprintln!("  family          nodes  events  bdd-nodes  cut-sets  p50_ms  heap_mb");
    for (index, model) in corpus.iter().enumerate() {
        let of_model = |values: &[f64]| -> f64 {
            let values: Vec<f64> = answers
                .iter()
                .zip(values)
                .filter(|((m, _), _)| *m == index)
                .map(|(_, v)| *v)
                .collect();
            median(&values)
        };
        let (nodes, cuts) = references[index]
            .as_ref()
            .map_or((0, 0), |r| (r.bdd_nodes, r.cut_sets));
        eprintln!(
            "  {:<15} {:>5} {:>7} {:>10} {:>9} {:>7.2} {:>8.3}",
            model.family,
            model.tree.node_count(),
            model.tree.num_events(),
            nodes,
            cuts,
            of_model(&latencies),
            of_model(&heap_mb)
        );
    }
    eprintln!(
        "  ops {} over {pass} passes, wall {:.2} s, worst op {:.1} ms",
        answers.len(),
        wall.as_secs_f64(),
        percentile(&latencies, 1.0)
    );

    if options.trace {
        let ops = traced_latencies.len() as u64;
        let avg =
            |f: &dyn Fn(&ReplayCounters) -> f64| mean(&replays.iter().map(f).collect::<Vec<_>>());
        outcome.metric(
            "bdd-engine.compile_ms",
            median(&tracer.durations("bdd-engine.compile")),
        );
        outcome.metric("bdd-engine.nodes", avg(&|c| c.nodes as f64));
        outcome.metric("bdd-engine.compiles_per_op", avg(&|c| c.compiles as f64));
        outcome.metric(
            "bdd-engine.requantify_us_per_point",
            median(
                &replays
                    .iter()
                    .map(|c| c.requantify_us_per_point)
                    .collect::<Vec<_>>(),
            ),
        );
        outcome.metric(
            "ft-analysis.importance_ms",
            median(&tracer.durations("ft-analysis.importance")),
        );
        outcome.metric(
            "ft-backend.bdd_all_mcs_ms",
            median(&tracer.durations("ft-backend.bdd_all_mcs")),
        );
        outcome.metric("ft-backend.cut_sets", avg(&|c| c.cut_sets as f64));
        outcome.metric(
            "ft-session.query_ms",
            median(&tracer.durations("ft-session.query")),
        );
        outcome.metric(
            "ft-session.render_ms",
            median(&tracer.durations("ft-session.render")),
        );
        let rendered: Vec<f64> = answers
            .iter()
            .filter_map(|(_, a)| a.as_ref().ok().map(|a| a.rendered_bytes as f64))
            .collect();
        outcome.metric("ft-session.render_bytes", mean(&rendered));

        let layers = crate::self_times_per_layer(&tracer, ops);
        let n = ops.max(1) as f64;
        let query_ms: f64 = tracer.durations("ft-session.query").iter().sum::<f64>() / n;
        let replay_ms: f64 = replays.iter().map(|c| c.layer_ms).sum::<f64>() / n;
        let layer = |name: &str| layers.get(name).copied().unwrap_or(0.0);
        outcome.metric("bdd-engine.self_ms", layer("bdd-engine"));
        outcome.metric("ft-analysis.self_ms", layer("ft-analysis"));
        outcome.metric("ft-backend.self_ms", layer("ft-backend"));
        outcome.metric(
            "ft-session.self_ms",
            layer("ft-session") - query_ms + (query_ms - replay_ms).max(0.0),
        );
        let coverage = tracer.coverage("op");
        eprintln!(
            "  span coverage: facade ops {coverage:.4}, replays {:.4}",
            tracer.coverage("replay")
        );
        outcome.metric("trace.span_coverage", coverage);
        outcome.metric(
            "trace.overhead_p50_ms",
            median(&traced_latencies) - median(&plain_latencies),
        );
        outcome.metric("trace.ops", ops as f64);
        let path = std::path::Path::new("perfbench-out/trace-quantify.jsonl");
        if let Err(error) = tracer.write_jsonl(path) {
            eprintln!("  could not write {}: {error}", path.display());
        }
    } else {
        let ok: Vec<bool> = answers.iter().map(|(_, a)| a.is_ok()).collect();
        let [p50, p90, throughput] =
            closed_loop_figures(&latencies, &ok, &marks, corpus.len(), &calibration);
        outcome.metric("setup_s", setup_s);
        outcome.metric("p50_ms", p50);
        outcome.metric("tail_ms", p90);
        outcome.metric("throughput_per_s", throughput);
        // Op peaks span three orders of magnitude and a few models sit far
        // above the rest; the geometric mean follows them all without
        // following any single one.
        outcome.metric("peak_heap_mb", geometric_mean(&heap_mb));
    }
    outcome
}
