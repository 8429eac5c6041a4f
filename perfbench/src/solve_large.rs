//! `solve-large`: the paper's query at the paper's scale.
//!
//! Closed loop, one client. One op takes a model's Galileo text through
//! `parse_galileo`, a fresh maxsat `Analyzer` (no cache, per-op deadline),
//! `mpmcs()` and `report::render_report`. The corpus holds 168 models of
//! 1000–5000 nodes from every generator family ([`per_family`]); ops cycle
//! through it in whole passes so every model weighs the same on every seed.

use std::sync::Arc;
use std::time::{Duration, Instant};

use fault_tree::parser::galileo::{parse_galileo, to_galileo_string};
use fault_tree::{CutSet, FaultTree};
use ft_backend::{scaled_cut_cost, BackendSolution};
use ft_generators::Family;
use ft_session::report::render_report;
use ft_session::{Analyzer, BackendKind, Budget, Termination};
use mpmcs::{AlgorithmChoice, McsStream, MpmcsEncoding, MpmcsOptions, StreamStep};

use crate::calibrate::Calibration;
use crate::trace::Tracer;
use crate::{
    closed_loop_figures, geometric_mean, heap, mean, median, ms, passes_in_child, pick,
    relative_gap, repeated_setup, scaled_guard, Options, Outcome, Slot,
};

/// Per-op deadline; an answer it truncates counts as a failed op.
const DEADLINE_MS: u64 = 10_000;

/// Models per family, at evenly spaced node counts over [`size_range`].
/// Instances of one family and size differ in cost by up to tenfold, so
/// the seed-to-seed spread of `p50_ms` and `tail_ms` shrinks only with the
/// number of models: in sizing it was 0.17 of the median over five seeds
/// with sixteen models per family, and 0.14 over ten seeds with the counts
/// below. Shared-modules models cost what their size and tie group set
/// (85–270 ms at 1000–1300 nodes on every seed tried), so a quarter as many
/// of them buys the other families more models. A pass takes 5–9 s, so a
/// 15 s run makes two or three; half as many models again per family made a
/// run 10 s longer, while the spread shrinks only with the square root of
/// the model count.
fn per_family(family: Family) -> usize {
    match family {
        Family::SharedModules => 8,
        _ => 32,
    }
}

/// Node counts per family, with what sizing found beyond them. Or-heavy
/// models above 2000 nodes took 0.1–0.4 s and peaked at 30–106 MiB, a third
/// of them far above their neighbours, so that family stops at 2000.
/// Tie-heavy shared-modules models grow superlinearly (0.06 s at 1000
/// nodes, 0.1–0.2 s at 1300, 0.2–0.7 s at 2000), so they stop at 1300.
/// Voting-heavy models stay at 1000–1500: one in six of them hits the
/// cliff [`GUARD`] rejects at any size tried.
fn size_range(family: Family) -> (usize, usize) {
    match family {
        Family::OrHeavy => (1000, 2000),
        Family::SharedModules => (1000, 1300),
        Family::VotingHeavy => (1000, 1500),
        _ => (1000, 5000),
    }
}

struct Model {
    family: &'static str,
    text: String,
}

/// Cliff guard of the admission check ([`screen`]). Cliffs are all or
/// nothing: in sizing, 5 of 36 voting-heavy models of 1000–1500 nodes ran
/// the facade into its 10 s deadline (and one past it, ignoring the budget
/// and growing past 100 MiB) while the others took 3–35 ms, and earlier
/// single random-mixed (3500 nodes) and shared-dag (1000 and 5000 nodes)
/// instances did the same. The slowest admitted op seen since took 0.7 s
/// and its check about three times that; an or-heavy model whose op took
/// 2.3 s is kept out. A candidate whose check is unfinished after 3 s at
/// reference speed ([`crate::scaled_guard`]) is replaced. Nothing else about
/// a model's cost or memory decides whether it is admitted.
const GUARD: Duration = Duration::from_secs(3);

fn pick_corpus(seed: u64, calibration: &mut Calibration) -> (Vec<(Slot, String)>, usize) {
    let targets: Vec<(Family, usize)> = Family::all()
        .into_iter()
        .flat_map(|family| {
            let (low, high) = size_range(family);
            let count = per_family(family);
            (0..count).map(move |i| (family, low + i * (high - low) / (count - 1)))
        })
        .collect();
    let guard = scaled_guard(GUARD, calibration);
    pick(seed, 1, &targets, |family, size, candidate| {
        passes_in_child("solve-large", family, size, candidate, guard)
    })
}

/// Admission check of a candidate model, run under [`GUARD`] in a child
/// process: the facade's mpmcs and the reference route both answer. The
/// child then prints the model's reference (tab-separated: tie group,
/// encoding variables, hard clauses, the reference answer's probability
/// bits and its events' names), so the reference costs no time after the
/// measured phase.
pub fn screen(generated: &FaultTree) -> Option<String> {
    // The model as the ops see it: through its Galileo text.
    let tree = parse_galileo(&to_galileo_string(generated)).ok()?;
    Analyzer::for_tree(tree.clone())
        .budget(Budget::wall_ms(DEADLINE_MS))
        .mpmcs()
        .ok()?;
    let canonical = preprocess_route(&tree).ok()?;
    let encoding = MpmcsEncoding::new(&tree);
    let mut fields = vec![
        tie_group(&tree).to_string(),
        encoding.instance().num_vars().to_string(),
        encoding.instance().num_hard().to_string(),
        canonical.probability.to_bits().to_string(),
    ];
    fields.extend(
        canonical
            .cut_set
            .iter()
            .map(|e| tree.event(e).name().to_string()),
    );
    Some(fields.join("\t"))
}

/// Set-up proper: generate every model and serialize it to Galileo text.
fn build_corpus(slots: &[Slot]) -> Vec<Model> {
    slots
        .iter()
        .map(|&(family, size, seed)| Model {
            family: family.name(),
            text: to_galileo_string(&family.generate(size, seed)),
        })
        .collect()
}

/// The facade answer of one op.
struct Answer {
    model: usize,
    solution: Result<BackendSolution, String>,
    rendered_bytes: usize,
}

fn options() -> MpmcsOptions {
    // The facade's default configuration (`BackendConfig::default`).
    MpmcsOptions {
        algorithm: AlgorithmChoice::SequentialPortfolio,
        ..MpmcsOptions::new()
    }
}

/// One op through the facade; spans only when the tracer is enabled.
fn facade_op(model: &Model, index: usize, tracer: &mut Tracer) -> Answer {
    let root = tracer.enter("op");
    let parsed = tracer.span("fault-tree.parse", |_| parse_galileo(&model.text));
    let answer = match parsed {
        Err(error) => Answer {
            model: index,
            solution: Err(format!("parse: {error}")),
            rendered_bytes: 0,
        },
        Ok(tree) => {
            let (analyzer, best) = tracer.span("ft-session.query", |_| {
                let mut analyzer = Analyzer::for_tree(tree)
                    .backend(BackendKind::MaxSat)
                    .budget(Budget::wall_ms(DEADLINE_MS));
                let best = analyzer.mpmcs();
                (analyzer, best)
            });
            match best {
                Ok(best) => {
                    let rendered = tracer.span("ft-session.render", |_| {
                        render_report(
                            analyzer.tree(),
                            std::slice::from_ref(&best),
                            Termination::Complete,
                            true,
                            false,
                        )
                    });
                    Answer {
                        model: index,
                        solution: Ok(best),
                        rendered_bytes: rendered.len(),
                    }
                }
                Err(error) => Answer {
                    model: index,
                    solution: Err(error.to_string()),
                    rendered_bytes: 0,
                },
            }
        }
    };
    tracer.exit(root);
    answer
}

/// What the traced replay of one op measured beyond its spans.
#[derive(Default)]
struct ReplayCounters {
    open_ms: f64,
    step_ms: f64,
    maxsat_ms: f64,
    sat_calls_at_answer: u64,
    maxsat_sat_calls: u64,
    cores: u64,
    conflicts: u64,
    propagations: u64,
    tie_group: usize,
    /// `false` when the call that closed the answer's tie group could not
    /// be accounted (exhaustion, or the accounting deadline fired).
    complete: bool,
}

/// The traced split of `mpmcs()`: `McsStream::open` and `next_step` until
/// the answer, the calls the facade makes on a fresh analyzer. Afterwards,
/// outside the op's spans, the stream is pulled on until the solution that
/// closed the answer's tie group is delivered; the solutions' own MaxSAT
/// statistics then account for every MaxSAT call the op made.
fn replay_op(
    tree: FaultTree,
    tracer: &mut Tracer,
) -> (Result<BackendSolution, String>, ReplayCounters) {
    let tree = Arc::new(tree);
    let mut counters = ReplayCounters::default();
    let root = tracer.enter("replay");
    let open_start = Instant::now();
    let mut stream = tracer.span("mpmcs.open", |_| {
        McsStream::open(Arc::clone(&tree), options())
    });
    counters.open_ms = ms(open_start.elapsed());
    let step_start = Instant::now();
    let first = tracer.span("mpmcs.step", |_| loop {
        match stream.next_step() {
            Ok(StreamStep::Solution(solution)) => break Ok(solution),
            Ok(StreamStep::Exhausted) => break Err("stream exhausted before an answer".to_string()),
            Ok(StreamStep::Interrupted) => continue,
            Err(error) => break Err(error.to_string()),
        }
    });
    counters.step_ms = ms(step_start.elapsed());
    tracer.exit(root);
    let first = match first {
        Ok(first) => first,
        Err(error) => return (Err(error), counters),
    };
    counters.sat_calls_at_answer = stream.sat_calls();

    // Accounting, outside every span.
    let answer_cost = scaled_cut_cost(&tree, &first.cut_set);
    let deadline = Instant::now() + Duration::from_secs(5);
    stream.set_interrupt(Some(Arc::new(move || Instant::now() >= deadline)));
    let mut accounted = vec![first.clone()];
    counters.tie_group = 1;
    while let Ok(StreamStep::Solution(solution)) = stream.next_step() {
        let closes = scaled_cut_cost(&tree, &solution.cut_set) != answer_cost;
        if !closes {
            counters.tie_group += 1;
        }
        accounted.push(solution);
        if closes {
            counters.complete = true;
            break;
        }
    }
    for solution in &accounted {
        counters.maxsat_ms += ms(solution.duration);
        counters.maxsat_sat_calls += solution.stats.sat_calls;
        counters.cores += solution.stats.cores;
        counters.conflicts += solution.stats.conflicts;
        counters.propagations += solution.stats.propagations;
    }
    // The first solution's duration also carries the stream's set-up.
    counters.maxsat_ms = (counters.maxsat_ms - counters.open_ms).max(0.0);
    (Ok(BackendSolution::from_mpmcs(first)), counters)
}

/// The canonical answer of the modular `preprocess` route. Its module
/// solves run to completion with no deadline; under the default sequential
/// portfolio one 1000–1200-node voting-heavy model kept it busy for minutes
/// and 2 GB in sizing, so the reference runs the core-guided OLL entry
/// alone (the warm session's algorithm, and as exact).
fn preprocess_route(tree: &FaultTree) -> Result<BackendSolution, String> {
    Analyzer::for_tree(tree.clone())
        .backend(BackendKind::MaxSat)
        .algorithm(AlgorithmChoice::Oll)
        .preprocess(true)
        .mpmcs()
        .map_err(|e| e.to_string())
}

/// The per-model reference, computed once per seed by the screening child
/// ([`screen`]): the canonical answer of the modular `preprocess` route (cut
/// set and probability), and census figures.
struct Reference {
    tree: FaultTree,
    preprocessed: (CutSet, f64),
    vars: usize,
    hard_clauses: usize,
    tie_group: usize,
}

/// How many minimal cut sets share the optimum's cost, pulled from a fresh
/// stream for at most 2 s (a tie group cut short there reads as the count
/// delivered so far).
fn tie_group(tree: &FaultTree) -> usize {
    let tree = Arc::new(tree.clone());
    let mut stream = McsStream::open(Arc::clone(&tree), options());
    let deadline = Instant::now() + Duration::from_secs(2);
    stream.set_interrupt(Some(Arc::new(move || Instant::now() >= deadline)));
    let mut optimum = None;
    let mut ties = 0;
    while let Ok(StreamStep::Solution(solution)) = stream.next_step() {
        let cost = scaled_cut_cost(&tree, &solution.cut_set);
        if *optimum.get_or_insert(cost) != cost {
            break;
        }
        ties += 1;
    }
    ties
}

/// The reference of `model` from the line its screening child printed.
fn reference(model: &Model, screened: &str) -> Reference {
    let tree = parse_galileo(&model.text).expect("generated models parse");
    let fields: Vec<&str> = screened.trim_end().split('\t').collect();
    let number = |i: usize| -> u64 {
        fields
            .get(i)
            .and_then(|field| field.parse().ok())
            .expect("the screening child prints its reference")
    };
    let cut_set: CutSet = fields[4..]
        .iter()
        .map(|name| {
            tree.event_by_name(name)
                .expect("the reference names the model's events")
        })
        .collect();
    Reference {
        tie_group: number(0) as usize,
        vars: number(1) as usize,
        hard_clauses: number(2) as usize,
        preprocessed: (cut_set, f64::from_bits(number(3))),
        tree,
    }
}

/// Checks one op's answer against the model's reference; `Err` describes
/// the first violated property.
fn check(answer: &BackendSolution, reference: &Reference) -> Result<(), String> {
    let tree = &reference.tree;
    if !tree.is_minimal_cut_set(&answer.cut_set) {
        return Err("the answer is not a minimal cut set".to_string());
    }
    let product: f64 = answer
        .cut_set
        .iter()
        .map(|e| tree.event(e).probability().value())
        .product();
    if relative_gap(product, answer.probability) > 1e-9 {
        return Err(format!(
            "probability {} is not the product {product} of its events",
            answer.probability
        ));
    }
    let (canonical, probability) = &reference.preprocessed;
    // Equal-cost ties may resolve to different representatives on the two
    // routes; both are then optimal, so the cost must agree.
    if scaled_cut_cost(tree, canonical) != scaled_cut_cost(tree, &answer.cut_set) {
        return Err(format!(
            "cut set {} is costlier or cheaper than the preprocess route's {}",
            answer.cut_set.display_names(tree),
            canonical.display_names(tree)
        ));
    }
    if *canonical == answer.cut_set && relative_gap(*probability, answer.probability) > 1e-12 {
        return Err("probability differs from the preprocess route".to_string());
    }
    Ok(())
}

pub fn run(options: &Options) -> Outcome {
    let phase = Instant::now();
    let mut calibration = Calibration::new();
    let (picked, rejected) = pick_corpus(options.seed, &mut calibration);
    let (slots, screened): (Vec<Slot>, Vec<String>) = picked.into_iter().unzip();
    eprintln!(
        "phase: picked the corpus in {:.2} s",
        phase.elapsed().as_secs_f64()
    );
    let (corpus, setup_s) = repeated_setup(3, &mut calibration, |_| build_corpus(&slots));
    let mut outcome = Outcome::default();
    let epoch = Instant::now();
    let mut tracer = Tracer::new(options.trace, epoch);
    let mut untraced = Tracer::new(false, epoch);

    let mut answers: Vec<Answer> = Vec::new();
    let mut latencies: Vec<f64> = Vec::new();
    let mut heap_mb: Vec<f64> = Vec::new();
    let mut marks: Vec<usize> = Vec::new();
    // Traced runs alternate traced and untraced facade ops; the difference
    // of their medians is the tracing overhead.
    let (mut traced_latencies, mut plain_latencies) = (Vec::new(), Vec::new());
    let mut replays: Vec<(usize, ReplayCounters)> = Vec::new();
    let mut traced_models: Vec<usize> = Vec::new();
    let budget = Duration::from_secs_f64(options.seconds);
    let start = Instant::now();
    let mut op = 0u64;
    let mut pass = 0u64;
    // Whole passes only, so every model carries the same weight. Traced
    // runs trace every other pass.
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
                facade_op(model, index, &mut tracer)
            } else {
                facade_op(model, index, &mut untraced)
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
                if let (true, Ok(best)) = (traced, &answer.solution) {
                    let tree = parse_galileo(&model.text).expect("the op parsed it");
                    let (replayed, counters) = replay_op(tree, &mut tracer);
                    match replayed {
                        Ok(replayed)
                            if replayed.cut_set == best.cut_set
                                && replayed.probability.to_bits() == best.probability.to_bits() => {
                        }
                        _ => outcome.check_failed(format!(
                            "op {op}: the traced split disagrees with the facade answer"
                        )),
                    }
                    replays.push((index, counters));
                    traced_models.push(index);
                }
            }
            answers.push(answer);
        }
    }
    let wall = start.elapsed();

    eprintln!(
        "phase: set-up and measured phase done at {:.2} s",
        phase.elapsed().as_secs_f64()
    );
    // Answer checks, outside the timed loop.
    let references: Vec<Reference> = corpus
        .iter()
        .zip(&screened)
        .map(|(model, line)| reference(model, line))
        .collect();
    let mut first_answer: Vec<Option<(fault_tree::CutSet, u64)>> = vec![None; corpus.len()];
    let mut verdict: Vec<Option<Result<(), String>>> = vec![None; corpus.len()];
    for answer in &answers {
        outcome.attempted += 1;
        let solution = match &answer.solution {
            Ok(solution) => solution,
            Err(error) => {
                outcome.check_failed(format!("model {}: {error}", answer.model));
                continue;
            }
        };
        let key = (solution.cut_set.clone(), solution.probability.to_bits());
        match &first_answer[answer.model] {
            Some(first) if *first != key => {
                outcome.check_failed(format!(
                    "model {}: answers differ between ops",
                    answer.model
                ));
                continue;
            }
            Some(_) => {}
            None => first_answer[answer.model] = Some(key),
        }
        // Every op on a model returns the first op's answer, checked once.
        let verdict =
            verdict[answer.model].get_or_insert_with(|| check(solution, &references[answer.model]));
        if let Err(message) = verdict {
            outcome.check_failed(format!("model {}: {message}", answer.model));
        }
    }

    eprintln!(
        "census (solve-large, seed {}): {rejected} candidate models rejected by screening",
        options.seed
    );
    eprintln!(
        "  family          nodes  events  vars    hard     cut   ties  p50_ms  heap_mb  same-tie-pick"
    );
    for (index, model) in corpus.iter().enumerate() {
        let reference = &references[index];
        let of_model = |values: &[f64]| -> f64 {
            let values: Vec<f64> = answers
                .iter()
                .zip(values)
                .filter(|(a, _)| a.model == index)
                .map(|(_, v)| *v)
                .collect();
            median(&values)
        };
        let cut = reference.preprocessed.0.len();
        let same_representative = first_answer[index]
            .as_ref()
            .is_none_or(|(cut_set, _)| *cut_set == reference.preprocessed.0);
        eprintln!(
            "  {:<15} {:>5} {:>7} {:>5} {:>7} {:>7} {:>6} {:>7.2} {:>8.2}  {}",
            model.family,
            reference.tree.node_count(),
            reference.tree.num_events(),
            reference.vars,
            reference.hard_clauses,
            cut,
            reference.tie_group,
            of_model(&latencies),
            of_model(&heap_mb),
            same_representative
        );
    }
    let rendered: Vec<f64> = answers.iter().map(|a| a.rendered_bytes as f64).collect();
    eprintln!(
        "  ops {} over {} passes, wall {:.2} s, median render {} bytes",
        answers.len(),
        answers.len() / corpus.len().max(1),
        wall.as_secs_f64(),
        median(&rendered)
    );

    if options.trace {
        let text_mb: Vec<f64> = traced_models
            .iter()
            .map(|&m| corpus[m].text.len() as f64 / 1e6)
            .collect();
        traced_metrics(
            &tracer,
            &replays,
            &references,
            &text_mb,
            &traced_latencies,
            &plain_latencies,
            &mut outcome,
        );
    } else {
        let ok: Vec<bool> = answers.iter().map(|a| a.solution.is_ok()).collect();
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

fn traced_metrics(
    tracer: &Tracer,
    replays: &[(usize, ReplayCounters)],
    references: &[Reference],
    text_mb: &[f64],
    traced: &[f64],
    plain: &[f64],
    outcome: &mut Outcome,
) {
    let ops = traced.len() as u64;
    // Times are medians per op, counts means per op.
    let per = |f: &dyn Fn(&ReplayCounters) -> f64| -> f64 {
        median(&replays.iter().map(|(_, c)| f(c)).collect::<Vec<_>>())
    };
    let avg = |f: &dyn Fn(&ReplayCounters) -> f64| -> f64 {
        mean(&replays.iter().map(|(_, c)| f(c)).collect::<Vec<_>>())
    };
    // Facade ops parse inside a span; replays parse outside any, so the
    // parse spans pair up with the traced ops' models in order.
    let parse_ms = tracer.durations("fault-tree.parse");
    outcome.metric("fault-tree.parse_ms", median(&parse_ms));
    let throughput: Vec<f64> = text_mb
        .iter()
        .zip(&parse_ms)
        .map(|(mb, ms)| mb / (ms / 1e3))
        .collect();
    outcome.metric("fault-tree.parse_mb_per_s", median(&throughput));
    outcome.metric("mpmcs.open_ms", per(&|c| c.open_ms));
    outcome.metric(
        "mpmcs.vars",
        mean(
            &replays
                .iter()
                .map(|(m, _)| references[*m].vars as f64)
                .collect::<Vec<_>>(),
        ),
    );
    outcome.metric(
        "mpmcs.hard_clauses",
        mean(
            &replays
                .iter()
                .map(|(m, _)| references[*m].hard_clauses as f64)
                .collect::<Vec<_>>(),
        ),
    );
    outcome.metric("mpmcs.step_ms", per(&|c| c.step_ms));
    outcome.metric(
        "mpmcs.sat_calls_per_answer",
        avg(&|c| c.sat_calls_at_answer as f64),
    );
    outcome.metric(
        "mpmcs.verify_ms",
        per(&|c| (c.step_ms - c.maxsat_ms).max(0.0)),
    );
    outcome.metric("maxsat-solver.solve_ms", per(&|c| c.maxsat_ms));
    outcome.metric(
        "maxsat-solver.sat_calls",
        avg(&|c| c.maxsat_sat_calls as f64),
    );
    outcome.metric("maxsat-solver.cores", avg(&|c| c.cores as f64));
    outcome.metric("sat-solver.conflicts", avg(&|c| c.conflicts as f64));
    outcome.metric("sat-solver.propagations", avg(&|c| c.propagations as f64));
    let total_maxsat_ns: f64 = replays.iter().map(|(_, c)| c.maxsat_ms * 1e6).sum();
    let total_props: f64 = replays.iter().map(|(_, c)| c.propagations as f64).sum();
    outcome.metric(
        "sat-solver.ns_per_propagation",
        total_maxsat_ns / total_props.max(1.0),
    );
    outcome.metric(
        "ft-session.query_ms",
        median(&tracer.durations("ft-session.query")),
    );
    outcome.metric(
        "ft-session.render_ms",
        median(&tracer.durations("ft-session.render")),
    );

    // Self time per layer, ms per op. The facade's query span is opaque;
    // the replay that follows it on the same model splits the same work
    // into mpmcs (open, minimise/verify/block) and the MaxSAT calls, which
    // the solutions' own durations measure. What the query span takes
    // beyond the replay is the facade's own time.
    let layers = crate::self_times_per_layer(tracer, ops);
    let n = ops.max(1) as f64;
    let maxsat_self: f64 = replays.iter().map(|(_, c)| c.maxsat_ms).sum::<f64>() / n;
    let replay_ms: f64 = replays
        .iter()
        .map(|(_, c)| c.open_ms + c.step_ms)
        .sum::<f64>()
        / n;
    let mpmcs_self = layers.get("mpmcs").copied().unwrap_or(0.0);
    let query_ms: f64 = tracer.durations("ft-session.query").iter().sum::<f64>() / n;
    let session_self = layers.get("ft-session").copied().unwrap_or(0.0) - query_ms;
    outcome.metric(
        "fault-tree.self_ms",
        layers.get("fault-tree").copied().unwrap_or(0.0),
    );
    outcome.metric("mpmcs.self_ms", (mpmcs_self - maxsat_self).max(0.0));
    outcome.metric("maxsat-solver.self_ms", maxsat_self);
    outcome.metric(
        "ft-session.self_ms",
        session_self + (query_ms - replay_ms).max(0.0),
    );
    let complete = replays.iter().filter(|(_, c)| c.complete).count();
    let ties: Vec<f64> = replays.iter().map(|(_, c)| c.tie_group as f64).collect();
    eprintln!(
        "  traced: {} facade ops, {} replays ({} fully accounted), median tie group {}",
        ops,
        replays.len(),
        complete,
        median(&ties)
    );
    let coverage = tracer.coverage("op");
    eprintln!(
        "  span coverage: facade ops {:.4}, replays {:.4}",
        coverage,
        tracer.coverage("replay")
    );
    outcome.metric("trace.span_coverage", coverage);
    outcome.metric("trace.overhead_p50_ms", median(traced) - median(plain));
    outcome.metric("trace.ops", ops as f64);
    let path = std::path::Path::new("perfbench-out/trace-solve-large.jsonl");
    if let Err(error) = tracer.write_jsonl(path) {
        eprintln!("  could not write {}: {error}", path.display());
    }
}
