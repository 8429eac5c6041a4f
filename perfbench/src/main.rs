//! The repository's benchmark: three seeded workloads driven through the
//! analysis crates' public entry points, every answer checked, every metric
//! printed with its unit. See `README.md` next to this package.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload solve-large --seed 1 --seconds 15 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. With `--trace 0` it holds
//! the end-to-end metrics, with `--trace 1` the per-layer metrics of a traced
//! run. Input census, per-layer self times and check failures go to standard
//! error. The process exits with code 1 when an answer check fails.

mod calibrate;
mod heap;
mod quantify;
mod serve_mixed;
mod solve_large;
mod trace;

use std::collections::BTreeMap;
use std::io::Read;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

use calibrate::Calibration;
use fault_tree::{BasicEvent, FailureModel, FaultTree};
use ft_generators::Family;
use std::time::{Duration, Instant};

/// The end-to-end metrics every untraced run prints, with their units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("throughput_per_s", "1/s"),
    ("peak_heap_mb", "MiB"),
];

/// The per-layer metrics every traced run prints, with their units. A
/// metric of a layer the workload does not reach reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("fault-tree.parse_ms", "ms"),
    ("fault-tree.parse_mb_per_s", "MB/s"),
    ("fault-tree.hash_ms", "ms"),
    ("fault-tree.self_ms", "ms"),
    ("mpmcs.open_ms", "ms"),
    ("mpmcs.vars", "count"),
    ("mpmcs.hard_clauses", "count"),
    ("mpmcs.step_ms", "ms"),
    ("mpmcs.sat_calls_per_answer", "count"),
    ("mpmcs.verify_ms", "ms"),
    ("mpmcs.self_ms", "ms"),
    ("maxsat-solver.solve_ms", "ms"),
    ("maxsat-solver.sat_calls", "count"),
    ("maxsat-solver.cores", "count"),
    ("maxsat-solver.self_ms", "ms"),
    ("sat-solver.conflicts", "count"),
    ("sat-solver.propagations", "count"),
    ("sat-solver.ns_per_propagation", "ns"),
    ("bdd-engine.compile_ms", "ms"),
    ("bdd-engine.nodes", "count"),
    ("bdd-engine.compiles_per_op", "count"),
    ("bdd-engine.requantify_us_per_point", "us"),
    ("bdd-engine.self_ms", "ms"),
    ("ft-analysis.importance_ms", "ms"),
    ("ft-analysis.self_ms", "ms"),
    ("ft-backend.bdd_all_mcs_ms", "ms"),
    ("ft-backend.cut_sets", "count"),
    ("ft-backend.cache.hit_ratio", "ratio"),
    ("ft-backend.cache.lookups_per_request", "count"),
    ("ft-backend.cache.inserts", "count"),
    ("ft-backend.cache.evictions", "count"),
    ("ft-backend.cache.bytes", "bytes"),
    ("ft-backend.preprocess.decompose_ms", "ms"),
    ("ft-backend.preprocess.modules", "count"),
    ("ft-backend.self_ms", "ms"),
    ("ft-session.query_ms", "ms"),
    ("ft-session.render_ms", "ms"),
    ("ft-session.render_bytes", "bytes"),
    ("ft-session.register_ms", "ms"),
    ("ft-session.self_ms", "ms"),
    ("ft-server.health_rtt_ms", "ms"),
    ("ft-server.ttfb_hit_ms", "ms"),
    ("ft-server.ttfb_miss_ms", "ms"),
    ("ft-server.ttfb_upload_ms", "ms"),
    ("ft-server.response_bytes", "bytes"),
    ("ft-server.requests", "count"),
    ("ft-server.shed", "count"),
    ("ft-server.self_ms", "ms"),
    ("trace.span_coverage", "ratio"),
    ("trace.overhead_p50_ms", "ms"),
    ("trace.ops", "count"),
];

/// Command-line options shared by every workload.
#[derive(Clone, Debug)]
pub struct Options {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// One workload's outcome: the result line plus what goes to stderr.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Answer-check failures (each also counted in `failed`).
    pub check_failures: Vec<String>,
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Sets a metric; its name must be listed in [`END_TO_END`] or
    /// [`PER_LAYER`].
    pub fn metric(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "metric {name} is not declared"
        );
        self.metrics.insert(name, value);
    }

    /// Records a failed check; only the first few are kept for printing.
    pub fn check_failed(&mut self, message: String) {
        self.failed += 1;
        if self.check_failures.len() < 20 {
            self.check_failures.push(message);
        }
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload solve-large|quantify|serve-mixed --seed N --seconds S --trace 0|1"
    );
    std::process::exit(2);
}

fn parse_args() -> (String, Options) {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 20.0f64, false);
    let mut i = 0;
    while i < args.len() {
        let value = args.get(i + 1).cloned().unwrap_or_else(|| usage());
        match args[i].as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().unwrap_or_else(|_| usage()),
            "--seconds" => seconds = value.parse().unwrap_or_else(|_| usage()),
            "--trace" => trace = value == "1",
            _ => usage(),
        }
        i += 2;
    }
    let workload = workload.unwrap_or_else(|| usage());
    if seconds.is_nan() || seconds <= 0.0 {
        usage();
    }
    (
        workload,
        Options {
            seed,
            seconds,
            trace,
        },
    )
}

fn main() {
    heap::fix_malloc_thresholds();
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--screen") {
        screen_child(&args[1..]);
    }
    let (workload, options) = parse_args();
    eprintln!(
        "perfbench: workload={workload} seed={} seconds={} trace={} cores={}",
        options.seed,
        options.seconds,
        options.trace as u8,
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    let outcome = match workload.as_str() {
        "solve-large" => solve_large::run(&options),
        "quantify" => quantify::run(&options),
        "serve-mixed" => serve_mixed::run(&options),
        _ => usage(),
    };
    for failure in &outcome.check_failures {
        eprintln!("CHECK FAILED: {failure}");
    }
    eprintln!(
        "failed_ratio {:.6} ({} of {} ops)",
        outcome.failed as f64 / outcome.attempted.max(1) as f64,
        outcome.failed,
        outcome.attempted
    );
    let correct = outcome.failed == 0 && outcome.attempted > 0;
    let table = if options.trace { PER_LAYER } else { END_TO_END };
    let metrics: Vec<String> = table
        .iter()
        .map(|(name, unit)| {
            let value = match outcome.metrics.get(name) {
                Some(value) => *value,
                None if options.trace => 0.0,
                None => panic!("end-to-end metric {name} was not measured"),
            };
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(value)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}

fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_string()
    }
}

/// A per-run seed for item `index` of stream `stream` (splitmix64), so
/// every generated input depends on `--seed` alone.
pub fn derive_seed(seed: u64, stream: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(stream.wrapping_mul(0xBF58_476D_1CE4_E5B9))
        .wrapping_add(index.wrapping_mul(0x94D0_49BB_1331_11EB))
        .wrapping_add(0x632B_E59B_D9B4_E019);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Nearest-rank percentile of unsorted samples (`q` in 0..=1).
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// Geometric mean of positive samples (0 when there are none).
pub fn geometric_mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    (samples.iter().map(|x| x.ln()).sum::<f64>() / samples.len() as f64).exp()
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Whole passes per segment of a closed loop's measured phase: the stretch
/// whose kernel runs scale its latencies, and over which one throughput
/// figure is taken.
const PASSES_PER_SEGMENT: usize = 2;

/// Op latencies at reference speed ([`calibrate`]). The phase is cut into
/// segments of `size` ops (the last one takes the remainder), and each
/// segment's latencies are scaled by the kernel runs that fall inside it;
/// `marks[i]` is the calibration mark taken when op `i` started. Returns the
/// scaled latencies and the segments.
fn calibrated(
    latencies: &[f64],
    marks: &[usize],
    size: usize,
    calibration: &Calibration,
) -> (Vec<f64>, Vec<Range<usize>>) {
    let count = (latencies.len() / size.max(1)).max(1);
    let segments: Vec<Range<usize>> = (0..count)
        .map(|s| {
            s * size..if s + 1 == count {
                latencies.len()
            } else {
                (s + 1) * size
            }
        })
        .collect();
    let mut scaled = Vec::with_capacity(latencies.len());
    for segment in &segments {
        let to = marks
            .get(segment.end)
            .copied()
            .unwrap_or(calibration.mark());
        let factor = calibration.factor(marks[segment.start], to);
        scaled.extend(latencies[segment.clone()].iter().map(|t| t * factor));
    }
    eprintln!(
        "  end-to-end: {} samples in {count} segments of {size}; raw p50 {:.4} ms, \
         kernel median {:.4} ms (reference {} ms)",
        latencies.len(),
        median(latencies),
        calibration.median_ms(),
        calibrate::REFERENCE_MS
    );
    (scaled, segments)
}

/// A closed loop's `p50_ms`, `tail_ms` (p90) and `throughput_per_s` at
/// reference speed, with segments of [`PASSES_PER_SEGMENT`] passes. Ops run
/// the corpus in whole passes, so op `i` is model `i % corpus`. All three
/// figures come from each model's median latency: a model's ops repeat the
/// same work, so their median drops the bursts of machine noise the kernel
/// misses, while the spread between models is the workload's own. p50 and
/// p90 are taken over the corpus; throughput is one pass at those latencies,
/// successful ops per second. On ten solve-large seeds p50 and p90 so taken
/// spread 0.07 and 0.11 of their medians where the pooled ops' spread 0.10
/// and 0.17.
pub fn closed_loop_figures(
    latencies: &[f64],
    ok: &[bool],
    marks: &[usize],
    corpus: usize,
    calibration: &Calibration,
) -> [f64; 3] {
    let (times, _) = calibrated(latencies, marks, corpus * PASSES_PER_SEGMENT, calibration);
    let mut per_model = vec![Vec::new(); corpus];
    for (op, time) in times.iter().enumerate() {
        per_model[op % corpus].push(*time);
    }
    let medians: Vec<f64> = per_model.iter().map(|times| median(times)).collect();
    let succeeded = ok.iter().filter(|&&ok| ok).count() as f64 / ok.len().max(1) as f64;
    let pass_s = medians.iter().sum::<f64>() / 1e3;
    [
        median(&medians),
        percentile(&medians, 0.90),
        succeeded * corpus as f64 / pass_s,
    ]
}

/// `p50_ms`, `tail_ms` (the `tail` percentile) and `throughput_per_s`
/// (successful requests per second of request time) of a stream of
/// distinct requests at reference speed, each the median over segments of
/// `size` requests: a burst of machine noise the kernel misses moves fewer
/// than half of them.
pub fn segment_figures(
    latencies: &[f64],
    ok: &[bool],
    marks: &[usize],
    size: usize,
    tail: f64,
    calibration: &Calibration,
) -> [f64; 3] {
    let (times, segments) = calibrated(latencies, marks, size, calibration);
    let mut figures = [Vec::new(), Vec::new(), Vec::new()];
    for segment in segments {
        let successes = ok[segment.clone()].iter().filter(|&&ok| ok).count();
        let times = &times[segment];
        figures[0].push(median(times));
        figures[1].push(percentile(times, tail));
        figures[2].push(successes as f64 / (times.iter().sum::<f64>() / 1e3));
    }
    figures.map(|values| median(&values))
}

pub fn ms(duration: Duration) -> f64 {
    duration.as_secs_f64() * 1e3
}

/// Runs `setup` `repeats` times, keeps the last result and returns it with
/// the median set-up time in seconds at reference speed; the kernel runs
/// right before each round to price it.
pub fn repeated_setup<T>(
    repeats: usize,
    calibration: &mut Calibration,
    mut setup: impl FnMut(usize) -> T,
) -> (T, f64) {
    let mut times = Vec::with_capacity(repeats);
    let mut raw = Vec::with_capacity(repeats);
    let mut last: Option<T> = None;
    for round in 0..repeats {
        // The previous round's state is torn down before the next is timed.
        drop(last.take());
        let factor = calibration.spot_factor();
        let start = Instant::now();
        let value = setup(round);
        let seconds = start.elapsed().as_secs_f64();
        raw.push(seconds);
        times.push(seconds * factor);
        last = Some(value);
    }
    eprintln!(
        "  set-up: {repeats} rounds, raw median {:.4} s",
        median(&raw)
    );
    (last.expect("at least one set-up round"), median(&times))
}

/// Relative difference `|a - b| / max(|a|, |b|)` (0 when both are 0).
pub fn relative_gap(a: f64, b: f64) -> f64 {
    let scale = a.abs().max(b.abs());
    if scale == 0.0 {
        0.0
    } else {
        (a - b).abs() / scale
    }
}

/// Drops the wall-clock line of a rendered report, the one field two
/// renderings of the same answer may differ in.
pub fn redact_timing(text: &str) -> String {
    text.lines()
        .filter(|line| !line.contains("\"solve_time_ms\""))
        .collect::<Vec<_>>()
        .join("\n")
}

/// Prints the self time per op of every span name and returns the totals
/// per layer (the span-name prefix before the first `.`), in ms per op.
pub fn self_times_per_layer(tracer: &trace::Tracer, ops: u64) -> BTreeMap<String, f64> {
    let ops = ops.max(1) as f64;
    let mut layers = BTreeMap::new();
    eprintln!("self time per op by span (ms):");
    for (name, total) in tracer.self_times() {
        eprintln!("  {name:<40} {:>10.4}", total / ops);
        let layer = name.split('.').next().unwrap_or(name).to_string();
        *layers.entry(layer).or_insert(0.0) += total / ops;
    }
    layers
}

/// A corpus slot: generator family, target node count and admitted seed.
pub type Slot = (Family, usize, u64);

/// Candidate seeds tried per slot before picking gives up.
const PICK_ATTEMPTS: u64 = 16;

/// Picks the generated inputs: slot `i` of `targets` takes the first
/// candidate seed of stream `stream` whose model `admit` accepts, with what
/// `admit` returned for it. Returns the slots and how many candidates were
/// rejected.
pub fn pick<R: Send>(
    seed: u64,
    stream: u64,
    targets: &[(Family, usize)],
    admit: impl Fn(Family, usize, u64) -> Option<R> + Sync,
) -> (Vec<(Slot, R)>, usize) {
    let indexed: Vec<(usize, (Family, usize))> = targets.iter().copied().enumerate().collect();
    let picked = par_map(&indexed, |&(slot, (family, size))| {
        let mut rejected = 0;
        let chosen = (0..PICK_ATTEMPTS)
            .map(|attempt| derive_seed(seed, stream, slot as u64 * 64 + attempt))
            .find_map(|candidate| {
                let admitted = admit(family, size, candidate);
                rejected += usize::from(admitted.is_none());
                admitted.map(|r| ((family, size, candidate), r))
            })
            .unwrap_or_else(|| panic!("no {} model of {size} nodes was admitted", family.name()));
        (chosen, rejected)
    });
    let rejected = picked.iter().map(|(_, r)| r).sum();
    (picked.into_iter().map(|(slot, _)| slot).collect(), rejected)
}

/// Maps `f` over `items` in order, on as many threads as the machine has
/// cores but at most two. Only work outside the measured phases uses it.
pub fn par_map<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get().min(2));
    let next = AtomicUsize::new(0);
    let mut done: Vec<(usize, R)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else {
                            break done;
                        };
                        done.push((i, f(item)));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|handle| handle.join().expect("a worker panicked"))
            .collect()
    });
    done.sort_by_key(|(i, _)| *i);
    done.into_iter().map(|(_, r)| r).collect()
}

/// Cliff guard: runs `check` (see [`screen_child`]) on the generated model
/// in a child process and returns what the child printed when it passed
/// within `guard`. A child past the guard is killed and reaped. Some cliffs
/// sit in code no deadline reaches (a query that ignores its budget and
/// grows to gigabytes), so the check cannot run in this process.
pub fn passes_in_child(
    check: &str,
    family: Family,
    size: usize,
    seed: u64,
    guard: Duration,
) -> Option<String> {
    let exe = std::env::current_exe().expect("the benchmark knows its own path");
    let mut child = std::process::Command::new(exe)
        .args(["--screen", check, family.name()])
        .args([size.to_string(), seed.to_string()])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn a screening process");
    let deadline = Instant::now() + guard;
    loop {
        match child.try_wait() {
            Ok(Some(status)) => {
                // The child prints one short line, well within a pipe's buffer.
                let mut printed = String::new();
                let read = child
                    .stdout
                    .take()
                    .map(|mut out| out.read_to_string(&mut printed));
                return (status.success() && matches!(read, Some(Ok(_)))).then_some(printed);
            }
            Ok(None) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(1)),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                return None;
            }
        }
    }
}

/// `guard`, a time at reference speed ([`calibrate`]), stretched to how
/// fast the machine runs now (three kernel runs), so that whether a
/// candidate passes a cliff guard does not depend on the host's speed
/// regime.
pub fn scaled_guard(guard: Duration, calibration: &mut Calibration) -> Duration {
    guard.div_f64(calibration.spot_factor())
}

/// The child side of [`passes_in_child`]: `--screen <check> <family> <size>
/// <seed>` exits with 0, after printing what the check returned, when the
/// generated model passes the check.
fn screen_child(args: &[String]) -> ! {
    let [check, family, size, seed] = args else {
        usage()
    };
    let family = Family::by_name(family).unwrap_or_else(|| usage());
    let size: usize = size.parse().unwrap_or_else(|_| usage());
    let seed: u64 = seed.parse().unwrap_or_else(|_| usage());
    let tree = family.generate(size, seed);
    let passed = match check.as_str() {
        "solve-large" => solve_large::screen(&tree),
        "serve-registered" => serve_mixed::answers(family, &tree).then(String::new),
        _ => usage(),
    };
    match passed {
        Some(printed) => {
            println!("{printed}");
            std::process::exit(0)
        }
        None => std::process::exit(1),
    }
}

/// Attaches the exponential law `1 − exp(−λt)` with `λ = −ln(1 − p)` to
/// every event, so the base probability stays `p` at mission time 1.
pub fn with_exponential_laws(tree: &FaultTree) -> FaultTree {
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
