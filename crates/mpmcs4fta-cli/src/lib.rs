//! Library backing the `mpmcs4fta` command line tool.
//!
//! The original MPMCS4FTA tool is a command-line program that reads a fault
//! tree, computes the Maximum Probability Minimal Cut Set, and writes the
//! result as JSON. This crate reproduces that workflow: argument parsing,
//! input-format detection (JSON or Galileo), solving, and JSON report
//! generation, all exposed as a library so it can be unit tested and reused.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::fs;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bdd_engine::VariableOrdering;
use fault_tree::parser::{galileo, json};
use fault_tree::{examples, FaultTree};
use ft_backend::{AnalysisCache, BackendKind, BackendSolution, Budget, DEFAULT_CACHE_BYTES};
use ft_batch::{run_batch, BatchConfig, BatchManifest};
use ft_generators::{random_tree, RandomTreeConfig};
use ft_session::{Analyzer, SessionError, Termination};
use mpmcs::{AlgorithmChoice, EnumerationLimit, MpmcsOptions, MpmcsSolver};

/// Errors surfaced to the command line user.
#[derive(Debug)]
pub enum CliError {
    /// Command line arguments could not be interpreted.
    Usage(String),
    /// The input file could not be read.
    Io(std::io::Error),
    /// The input could not be parsed as a fault tree.
    Parse(fault_tree::FaultTreeError),
    /// The solver failed.
    Solve(mpmcs::MpmcsError),
    /// A classical analysis (MOCUS, BDD) exceeded its budget or failed.
    Analysis(String),
    /// A batch manifest could not be built or read.
    Batch(ft_batch::BatchError),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(message) => write!(f, "{message}\n\n{USAGE}"),
            CliError::Io(e) => write!(f, "cannot read input: {e}"),
            CliError::Parse(e) => write!(f, "cannot parse fault tree: {e}"),
            CliError::Solve(e) => write!(f, "solver error: {e}"),
            CliError::Analysis(message) => write!(f, "analysis error: {message}"),
            CliError::Batch(e) => write!(f, "batch error: {e}"),
        }
    }
}

impl std::error::Error for CliError {}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::Io(e)
    }
}

impl From<fault_tree::FaultTreeError> for CliError {
    fn from(e: fault_tree::FaultTreeError) -> Self {
        CliError::Parse(e)
    }
}

impl From<mpmcs::MpmcsError> for CliError {
    fn from(e: mpmcs::MpmcsError) -> Self {
        CliError::Solve(e)
    }
}

impl From<ft_batch::BatchError> for CliError {
    fn from(e: ft_batch::BatchError) -> Self {
        CliError::Batch(e)
    }
}

/// The usage string printed on `--help` (stdout, exit 0) and appended to
/// argument errors (stderr, exit 2).
pub const USAGE: &str = "\
mpmcs4fta — Maximum Probability Minimal Cut Sets for Fault Tree Analysis

USAGE:
    mpmcs4fta [OPTIONS] <INPUT>
    mpmcs4fta [OPTIONS] --example fps|tank|sensors|scada|crossing|hydraulics
    mpmcs4fta [OPTIONS] --generate <NODES> [--seed <SEED>]
    mpmcs4fta [OPTIONS] --batch <DIR|MANIFEST> [--jobs <N>] [--importance]
    mpmcs4fta serve [--port <P>] [--workers <N>] [--cache-bytes <B>]

MODES:
    <INPUT>                     Analyse one fault tree from a file, in JSON
                                (.json) or Galileo (.dft/.galileo/anything
                                else) format
    --example <NAME>            Analyse one of the built-in example systems
    --generate <NODES>          Analyse a seeded random tree of ~NODES nodes
    --batch <DIR|MANIFEST>      Analyse a whole fleet in one process: every
                                model file under DIR (recursively), or the
                                trees + generated workloads listed in a JSON
                                MANIFEST; prints one aggregated JSON report
                                with per-tree results in input order
    serve                       Run the HTTP front end: register trees and
                                answer every analysis above over a socket,
                                with chunked streaming of solution sets
    --help, -h                  Show this message

OPTIONS:
    --format <json|galileo>     Force the input format (default: by extension)
    --backend <NAME>            maxsat (default) | bdd | mocus | auto
                                Which analysis engine answers the mpmcs
                                queries; auto picks per tree from structural
                                features (event/gate counts, module count,
                                cut-set estimate, event sharing)
    --cross-check               Run the chosen backend AND a reference backend
                                (maxsat, or bdd when maxsat is chosen), assert
                                they report identical minimal cut sets, and
                                report per-backend timings; exits non-zero on
                                any mismatch (mpmcs analysis only)
    --bdd-ordering <NAME>       depth-first (default) | natural — the BDD
                                variable ordering (bdd backend and the
                                importance table's exact probability)
    --preprocess                Run the modular divide-and-conquer pass:
                                simplify the tree, split it at independent
                                modules, solve the pieces separately and
                                compose (shrinks encodings for every backend;
                                per-cut-set solver stats become aggregates)
    --algorithm <NAME>          portfolio | oll | linear-su — the MaxSAT
                                solver of single-MPMCS solves that do not
                                run on the warm OLL session (--preprocess,
                                linear-su, and the path-set and dot
                                analyses); portfolio races the paper's
                                solver line-up there. Every enumeration
                                (--top-k, --all, batch rows) runs the OLL
                                session (maxsat backend only; default: oll,
                                which is deterministic). linear-su runs OLL
                                on a second solver once its GTE bound passes
                                20000 outputs, and labels the answer
                                linear-su(fallback:oll)
    --analysis <NAME>           mpmcs (default) | path-set | importance | modules |
                                stability | dot | ascii   (single-tree modes only)
    --top-k <N>                 Report the N most probable minimal cut sets
                                (per tree in batch mode). Ties are broken
                                canonically, so a tie group straddling rank
                                N is enumerated whole first: wide voting
                                gates over identical components can take
                                long (--timeout-ms bounds the run)
    --all                       Report every minimal cut set (single-tree only)
    --stats                     Include detailed solver statistics (conflicts,
                                propagations, restarts, learnt-clause reuse
                                across incremental calls, clause-arena
                                compactions) in the JSON report (mpmcs
                                analysis and batch mode)
    --timeout-ms <N>            Per-query wall-clock budget in milliseconds
                                (mpmcs analysis and batch mode). A query that
                                hits the deadline stops cleanly and reports
                                the canonical solution prefix it had proven,
                                marked \"truncated\": true; the process exits
                                with code 3 when any result was truncated
    --max-solutions <N>         Cap the number of reported solutions per query
                                (mpmcs analysis and batch mode); capped
                                results are marked \"truncated\": true and
                                exit with code 3
    --cache                     Share one content-addressed analysis cache
                                across the run: complete answers are keyed on
                                the canonical weighted hash of the (sub)tree
                                and replayed bit-identically for repeated or
                                isomorphic trees and modules (mpmcs analysis
                                and batch mode). Counters appear in the
                                summary, and — like timings — are kept out of
                                deterministic batch report comparisons
    --cache-bytes <N>           Byte budget of the --cache table (default
                                67108864 = 64 MiB); least-recently-used
                                entries are evicted beyond it. Implies --cache
    --sweep <START:END:STEP>    Mission-time sweep (mpmcs analysis and batch
                                mode): report the top-event probability at
                                every time START, START+STEP, ... <= END.
                                The structure is solved once (BDD compile /
                                cut-set enumeration) and re-quantified per
                                point, each point bit-identical to the same
                                query against the tree evaluated at that time
    --sweep-format <json|csv>   Output of a single-tree --sweep: json
                                (default; grid + probabilities arrays) or csv
                                (t,probability rows, ready for plotting)
    --output <FILE>             Write the JSON report to FILE instead of stdout
    --quiet                     Suppress the human-readable summary on stderr

BATCH OPTIONS:
    --jobs <N>                  Worker threads (default: all available cores)
    --importance                Also compute the per-tree importance table

SERVE OPTIONS:
    --port <P>                  TCP port to listen on (default: 0 — an
                                ephemeral port, printed on startup)
    --host <ADDR>               Bind address (default: 127.0.0.1)
    --workers <N>               Request worker threads (default: 4); further
                                connections queue, and beyond the queue the
                                server sheds with 503 + Retry-After
    --cache-bytes <B>           Enable the shared content-addressed analysis
                                cache with a byte budget, shared by every
                                connection
    --quiet                     Suppress the shutdown summary on stderr

ANALYSES:
    mpmcs        the Maximum Probability Minimal Cut Set (paper pipeline)
    path-set     maximum-reliability minimal path sets (dual problem)
    importance   Birnbaum / Fussell-Vesely / RAW / RRW / criticality table
    modules      independent modules and modular quantification
    stability    MPMCS stability margins under probability perturbations
    dot          Graphviz DOT rendering with the MPMCS highlighted
    ascii        indented textual rendering of the tree
";

/// Which analysis the tool runs on the loaded tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AnalysisKind {
    /// The paper's MPMCS pipeline (default).
    #[default]
    Mpmcs,
    /// Maximum-reliability minimal path sets (the dual optimisation).
    PathSet,
    /// The per-event importance table.
    Importance,
    /// Module detection and modular quantification.
    Modules,
    /// MPMCS stability margins.
    Stability,
    /// Graphviz DOT output with the MPMCS highlighted.
    Dot,
    /// Indented ASCII rendering of the tree.
    Ascii,
}

/// How the fault tree is obtained.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InputSource {
    /// Read from a file (with an optional format override).
    File {
        /// Path to the input file.
        path: PathBuf,
        /// Forced format, if any.
        format: Option<InputFormat>,
    },
    /// Use one of the built-in examples.
    Example(String),
    /// Generate a random tree of roughly this many nodes.
    Generated {
        /// Target total node count.
        nodes: usize,
        /// Generator seed.
        seed: u64,
    },
}

/// Supported input formats.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InputFormat {
    /// The JSON document format.
    Json,
    /// The Galileo textual format.
    Galileo,
}

// The mission-time grid specification behind `--sweep <START:END:STEP>` now
// lives in the facade so the HTTP front end's `sweep` endpoint describes
// exactly the same grids; re-exported here for the historical CLI API.
pub use ft_session::{SweepRange, MAX_SWEEP_POINTS};

/// Output format of a single-tree `--sweep` curve.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SweepFormat {
    /// A JSON object carrying the grid and the probability curve (default).
    #[default]
    Json,
    /// `t,probability` CSV rows, ready for plotting tools.
    Csv,
}

/// Options of the `serve` subcommand (the HTTP front end).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeOptions {
    /// Interface to bind (default `127.0.0.1`).
    pub host: String,
    /// TCP port to bind; `0` (the default) picks an ephemeral port, which
    /// is printed on startup.
    pub port: u16,
    /// Fixed worker-pool size.
    pub workers: usize,
    /// Attach a shared analysis cache of this many bytes.
    pub cache_bytes: Option<usize>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            host: "127.0.0.1".to_string(),
            port: 0,
            workers: 4,
            cache_bytes: None,
        }
    }
}

/// The top-level mode the invocation selects.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliMode {
    /// `--help`: print the usage text on stdout and exit successfully.
    Help,
    /// Analyse one fault tree.
    Single(InputSource),
    /// Analyse a fleet of fault trees: a directory of model files or a JSON
    /// batch manifest.
    Batch(PathBuf),
    /// `serve`: run the HTTP front end until interrupted.
    Serve(ServeOptions),
}

/// Parsed command line options.
#[derive(Debug, Clone, PartialEq)]
pub struct CliOptions {
    /// What the invocation does.
    pub mode: CliMode,
    /// Which analysis to run (single-tree modes).
    pub analysis: AnalysisKind,
    /// Which MaxSAT solver single-MPMCS solves off the warm session use
    /// (`None` = the default, deterministic OLL); enumerations always run
    /// the OLL session.
    pub algorithm: Option<AlgorithmChoice>,
    /// Which analysis engine answers the MPMCS queries.
    pub backend: BackendKind,
    /// Run a second (reference) backend and assert identical cut sets.
    pub cross_check: bool,
    /// The BDD variable ordering.
    pub bdd_ordering: VariableOrdering,
    /// Run the modular divide-and-conquer preprocessing pass.
    pub preprocess: bool,
    /// How many cut sets to report (`None` = just the MPMCS).
    pub top_k: Option<usize>,
    /// Report all minimal cut sets.
    pub all: bool,
    /// Where to write the JSON report (`None` = stdout).
    pub output: Option<PathBuf>,
    /// Suppress the human-readable summary.
    pub quiet: bool,
    /// Batch worker threads (`0` = all available cores).
    pub jobs: usize,
    /// Compute per-tree importance tables in batch mode.
    pub importance: bool,
    /// Include detailed solver statistics in the JSON report (kept out of
    /// the deterministic batch rendering, like timings).
    pub stats: bool,
    /// Per-query wall-clock budget in milliseconds (`None` = unlimited).
    pub timeout_ms: Option<u64>,
    /// Per-query cap on reported solutions (`None` = uncapped).
    pub max_solutions: Option<usize>,
    /// Share one content-addressed analysis cache across the run.
    pub cache: bool,
    /// Byte budget of the `--cache` table (`None` = the default 64 MiB).
    pub cache_bytes: Option<usize>,
    /// Mission-time sweep grid (`--sweep`; `None` = point queries).
    pub sweep: Option<SweepRange>,
    /// Output format of a single-tree `--sweep` curve.
    pub sweep_format: SweepFormat,
}

impl CliOptions {
    /// The per-query [`Budget`] implied by the parsed flags.
    pub fn budget(&self) -> Budget {
        Budget::from_limits(self.timeout_ms, self.max_solutions)
    }

    /// `true` when any budget flag was given — the JSON output then carries
    /// the explicit `truncated` / `termination` envelope.
    pub fn budgeted(&self) -> bool {
        self.timeout_ms.is_some() || self.max_solutions.is_some()
    }

    /// The shared analysis cache implied by the parsed flags, when `--cache`
    /// was given.
    pub fn analysis_cache(&self) -> Option<Arc<AnalysisCache>> {
        self.cache.then(|| {
            Arc::new(AnalysisCache::new(
                self.cache_bytes.unwrap_or(DEFAULT_CACHE_BYTES),
            ))
        })
    }
}

/// Parses command line arguments (excluding the program name).
///
/// `--help` is not an error: it yields [`CliMode::Help`], which `main` turns
/// into the usage text on stdout and a zero exit code.
///
/// # Errors
///
/// Returns [`CliError::Usage`] describing the problem.
pub fn parse_args<I, S>(args: I) -> Result<CliOptions, CliError>
where
    I: IntoIterator<Item = S>,
    S: Into<String>,
{
    let mut input: Option<InputSource> = None;
    let mut batch: Option<PathBuf> = None;
    let mut format: Option<InputFormat> = None;
    let mut analysis = AnalysisKind::Mpmcs;
    let mut algorithm: Option<AlgorithmChoice> = None;
    let mut backend = BackendKind::MaxSat;
    let mut cross_check = false;
    let mut bdd_ordering = VariableOrdering::DepthFirst;
    let mut preprocess = false;
    let mut top_k: Option<usize> = None;
    let mut all = false;
    let mut output: Option<PathBuf> = None;
    let mut quiet = false;
    let mut generate: Option<usize> = None;
    let mut seed = 42u64;
    let mut seed_given = false;
    let mut jobs = 0usize;
    let mut jobs_given = false;
    let mut importance = false;
    let mut stats = false;
    let mut timeout_ms: Option<u64> = None;
    let mut max_solutions: Option<usize> = None;
    let mut cache = false;
    let mut cache_bytes: Option<usize> = None;
    let mut sweep: Option<SweepRange> = None;
    let mut sweep_format = SweepFormat::Json;
    let mut sweep_format_given = false;

    let args: Vec<String> = args.into_iter().map(Into::into).collect();
    // `serve` is a subcommand with its own small flag vocabulary.
    if args.first().map(String::as_str) == Some("serve") {
        return parse_serve_args(&args[1..]);
    }
    let mut i = 0;
    let usage = |message: &str| CliError::Usage(message.to_string());
    while i < args.len() {
        let arg = args[i].as_str();
        let mut value = |name: &str| -> Result<String, CliError> {
            i += 1;
            args.get(i)
                .cloned()
                .ok_or_else(|| CliError::Usage(format!("{name} expects a value")))
        };
        match arg {
            "--help" | "-h" => {
                return Ok(CliOptions {
                    mode: CliMode::Help,
                    analysis,
                    algorithm,
                    backend,
                    cross_check,
                    bdd_ordering,
                    preprocess,
                    top_k,
                    all,
                    output,
                    quiet,
                    jobs,
                    importance,
                    stats,
                    timeout_ms,
                    max_solutions,
                    cache,
                    cache_bytes,
                    sweep,
                    sweep_format,
                })
            }
            "--format" => {
                format = Some(match value("--format")?.as_str() {
                    "json" => InputFormat::Json,
                    "galileo" | "dft" => InputFormat::Galileo,
                    other => return Err(CliError::Usage(format!("unknown format {other:?}"))),
                })
            }
            "--algorithm" => {
                algorithm = Some(match value("--algorithm")?.as_str() {
                    "portfolio" => AlgorithmChoice::Portfolio,
                    "oll" => AlgorithmChoice::Oll,
                    "linear-su" | "linear" => AlgorithmChoice::LinearSu,
                    other => return Err(CliError::Usage(format!("unknown algorithm {other:?}"))),
                })
            }
            "--backend" => {
                let name = value("--backend")?;
                backend = BackendKind::parse(&name)
                    .ok_or_else(|| CliError::Usage(format!("unknown backend {name:?}")))?
            }
            "--cross-check" => cross_check = true,
            "--bdd-ordering" => {
                let name = value("--bdd-ordering")?;
                bdd_ordering = VariableOrdering::parse(&name)
                    .ok_or_else(|| CliError::Usage(format!("unknown BDD ordering {name:?}")))?
            }
            "--preprocess" => preprocess = true,
            "--analysis" => {
                analysis = match value("--analysis")?.as_str() {
                    "mpmcs" | "cut-set" => AnalysisKind::Mpmcs,
                    "path-set" | "pathset" | "path" => AnalysisKind::PathSet,
                    "importance" => AnalysisKind::Importance,
                    "modules" | "module" => AnalysisKind::Modules,
                    "stability" => AnalysisKind::Stability,
                    "dot" | "graphviz" => AnalysisKind::Dot,
                    "ascii" | "text" => AnalysisKind::Ascii,
                    other => return Err(CliError::Usage(format!("unknown analysis {other:?}"))),
                }
            }
            "--top-k" => {
                top_k = Some(value("--top-k")?.parse().map_err(|_| {
                    CliError::Usage("--top-k expects a positive integer".to_string())
                })?)
            }
            "--all" => all = true,
            "--output" => output = Some(PathBuf::from(value("--output")?)),
            "--quiet" => quiet = true,
            "--batch" => batch = Some(PathBuf::from(value("--batch")?)),
            "--jobs" => {
                jobs_given = true;
                jobs = value("--jobs")?.parse().map_err(|_| {
                    CliError::Usage("--jobs expects a non-negative integer".to_string())
                })?
            }
            "--importance" => importance = true,
            "--stats" => stats = true,
            "--timeout-ms" => {
                timeout_ms = Some(value("--timeout-ms")?.parse().map_err(|_| {
                    CliError::Usage("--timeout-ms expects a millisecond count".to_string())
                })?)
            }
            "--max-solutions" => {
                max_solutions = Some(value("--max-solutions")?.parse().map_err(|_| {
                    CliError::Usage("--max-solutions expects a positive integer".to_string())
                })?)
            }
            "--sweep" => sweep = Some(parse_sweep_range(&value("--sweep")?)?),
            "--sweep-format" => {
                sweep_format_given = true;
                sweep_format = match value("--sweep-format")?.as_str() {
                    "json" => SweepFormat::Json,
                    "csv" => SweepFormat::Csv,
                    other => {
                        return Err(CliError::Usage(format!("unknown sweep format {other:?}")))
                    }
                }
            }
            "--cache" => cache = true,
            "--cache-bytes" => {
                cache_bytes = Some(value("--cache-bytes")?.parse().map_err(|_| {
                    CliError::Usage("--cache-bytes expects a byte count".to_string())
                })?)
            }
            "--example" => input = Some(InputSource::Example(value("--example")?)),
            "--generate" => {
                generate =
                    Some(value("--generate")?.parse().map_err(|_| {
                        CliError::Usage("--generate expects a node count".to_string())
                    })?)
            }
            "--seed" => {
                seed_given = true;
                seed = value("--seed")?
                    .parse()
                    .map_err(|_| CliError::Usage("--seed expects an integer".to_string()))?
            }
            other if other.starts_with('-') => {
                return Err(CliError::Usage(format!("unknown option {other:?}")))
            }
            path => {
                if input.is_some() {
                    return Err(usage("multiple inputs given"));
                }
                input = Some(InputSource::File {
                    path: PathBuf::from(path),
                    format: None,
                });
            }
        }
        i += 1;
    }
    if let Some(nodes) = generate {
        if input.is_some() {
            return Err(usage("multiple inputs given"));
        }
        input = Some(InputSource::Generated { nodes, seed });
    }
    if top_k == Some(0) {
        return Err(usage("--top-k must be at least 1"));
    }
    if max_solutions == Some(0) {
        return Err(usage("--max-solutions must be at least 1"));
    }
    if cache_bytes == Some(0) {
        return Err(usage("--cache-bytes must be at least 1"));
    }
    // An explicit byte budget is an explicit request for the cache.
    if cache_bytes.is_some() {
        cache = true;
    }
    if (timeout_ms.is_some() || max_solutions.is_some()) && cross_check {
        return Err(usage(
            "--timeout-ms / --max-solutions cannot be combined with --cross-check \
             (a cross-check needs both engines' complete answers)",
        ));
    }
    if sweep_format_given && sweep.is_none() {
        return Err(usage("--sweep-format requires --sweep"));
    }
    if sweep.is_some() && cross_check {
        return Err(usage(
            "--sweep cannot be combined with --cross-check (cross-checks compare \
             cut-set enumerations; sweeps report a probability curve)",
        ));
    }
    if algorithm.is_some() && matches!(backend, BackendKind::Bdd | BackendKind::Mocus) {
        return Err(usage(
            "--algorithm only applies to the maxsat backend (and to auto when it resolves to maxsat)",
        ));
    }
    let mode = match (batch, input) {
        (Some(_), Some(_)) => {
            return Err(usage("--batch cannot be combined with a single-tree input"))
        }
        (Some(path), None) => {
            if all {
                return Err(usage("--all is not supported in batch mode; use --top-k"));
            }
            if cross_check {
                return Err(usage(
                    "--cross-check is a single-tree mode; batch runs one backend per tree",
                ));
            }
            if analysis != AnalysisKind::Mpmcs {
                return Err(usage(
                    "--analysis is not supported in batch mode (batch runs the MPMCS pipeline)",
                ));
            }
            if format.is_some() {
                return Err(usage(
                    "--format is not supported in batch mode (formats are detected per file)",
                ));
            }
            if seed_given {
                return Err(usage(
                    "--seed only applies to --generate; set seeds in the manifest's generated entries",
                ));
            }
            if sweep_format_given {
                return Err(usage(
                    "--sweep-format only applies to single-tree sweeps \
                     (batch reports embed the curves in the JSON report)",
                ));
            }
            CliMode::Batch(path)
        }
        (None, Some(mut input)) => {
            if jobs_given {
                return Err(usage("--jobs only applies to --batch mode"));
            }
            if importance {
                return Err(usage(
                    "--importance only applies to --batch mode; use --analysis importance for one tree",
                ));
            }
            if stats && analysis != AnalysisKind::Mpmcs {
                return Err(usage(
                    "--stats only applies to the mpmcs analysis and to --batch mode",
                ));
            }
            if cache && analysis != AnalysisKind::Mpmcs {
                return Err(usage(
                    "--cache only applies to the mpmcs analysis and to --batch mode",
                ));
            }
            if (timeout_ms.is_some() || max_solutions.is_some()) && analysis != AnalysisKind::Mpmcs
            {
                return Err(usage(
                    "--timeout-ms / --max-solutions only apply to the mpmcs analysis and to --batch mode",
                ));
            }
            if analysis != AnalysisKind::Mpmcs
                && (backend != BackendKind::MaxSat || cross_check || preprocess)
            {
                return Err(usage(
                    "--backend / --cross-check / --preprocess only apply to the mpmcs analysis and to --batch mode",
                ));
            }
            if sweep.is_some() && analysis != AnalysisKind::Mpmcs {
                return Err(usage(
                    "--sweep only applies to the mpmcs analysis and to --batch mode",
                ));
            }
            if sweep.is_some() && (all || top_k.is_some()) {
                return Err(usage(
                    "--sweep reports the top-event probability curve; \
                     it cannot be combined with --all / --top-k",
                ));
            }
            if let (InputSource::File { format: slot, .. }, Some(forced)) = (&mut input, format) {
                *slot = Some(forced);
            }
            CliMode::Single(input)
        }
        (None, None) => return Err(usage("no input given")),
    };
    Ok(CliOptions {
        mode,
        analysis,
        algorithm,
        backend,
        cross_check,
        bdd_ordering,
        preprocess,
        top_k,
        all,
        output,
        quiet,
        jobs,
        importance,
        stats,
        timeout_ms,
        max_solutions,
        cache,
        cache_bytes,
        sweep,
        sweep_format,
    })
}

/// A [`CliOptions`] carrying only a mode — the `serve` subcommand ignores
/// the single-tree analysis flags.
fn serve_cli_options(mode: CliMode) -> CliOptions {
    CliOptions {
        mode,
        analysis: AnalysisKind::Mpmcs,
        algorithm: None,
        backend: BackendKind::MaxSat,
        cross_check: false,
        bdd_ordering: VariableOrdering::DepthFirst,
        preprocess: false,
        top_k: None,
        all: false,
        output: None,
        quiet: false,
        jobs: 0,
        importance: false,
        stats: false,
        timeout_ms: None,
        max_solutions: None,
        cache: false,
        cache_bytes: None,
        sweep: None,
        sweep_format: SweepFormat::Json,
    }
}

/// Parses the flags of the `serve` subcommand.
fn parse_serve_args(args: &[String]) -> Result<CliOptions, CliError> {
    let mut serve = ServeOptions::default();
    let mut quiet = false;
    let mut i = 0;
    while i < args.len() {
        let arg = args[i].as_str();
        let mut value = |name: &str| -> Result<String, CliError> {
            i += 1;
            args.get(i)
                .cloned()
                .ok_or_else(|| CliError::Usage(format!("{name} expects a value")))
        };
        match arg {
            "--help" | "-h" => return Ok(serve_cli_options(CliMode::Help)),
            "--port" => {
                serve.port = value("--port")?
                    .parse()
                    .map_err(|_| CliError::Usage("--port expects a TCP port number".to_string()))?
            }
            "--workers" => {
                serve.workers = value("--workers")?.parse().map_err(|_| {
                    CliError::Usage("--workers expects a positive integer".to_string())
                })?;
                if serve.workers == 0 {
                    return Err(CliError::Usage("--workers must be at least 1".to_string()));
                }
            }
            "--cache-bytes" => {
                let bytes: usize = value("--cache-bytes")?.parse().map_err(|_| {
                    CliError::Usage("--cache-bytes expects a byte count".to_string())
                })?;
                if bytes == 0 {
                    return Err(CliError::Usage(
                        "--cache-bytes must be at least 1".to_string(),
                    ));
                }
                serve.cache_bytes = Some(bytes);
            }
            "--host" => serve.host = value("--host")?,
            "--quiet" => quiet = true,
            other => {
                return Err(CliError::Usage(format!(
                    "unknown serve option {other:?} (serve takes --port, --workers, \
                     --cache-bytes, --host, --quiet)"
                )))
            }
        }
        i += 1;
    }
    let mut options = serve_cli_options(CliMode::Serve(serve));
    options.quiet = quiet;
    Ok(options)
}

/// `serve`: run the HTTP front end until a termination signal arrives,
/// then drain gracefully and report the admission counters.
fn run_serve(serve: &ServeOptions) -> Result<RunOutput, CliError> {
    ft_server::signal::reset();
    ft_server::signal::install();
    let handle = ft_server::Server::start(ft_server::ServerConfig {
        host: serve.host.clone(),
        port: serve.port,
        workers: serve.workers,
        cache_bytes: serve.cache_bytes,
        ..ft_server::ServerConfig::default()
    })?;
    // Printed unconditionally: with `--port 0` this line is the only way
    // to learn the bound port.
    eprintln!(
        "mpmcs4fta serving on http://{} ({} workers{}); Ctrl-C to stop",
        handle.addr(),
        serve.workers,
        match serve.cache_bytes {
            Some(bytes) => format!(", {bytes}-byte shared cache"),
            None => String::new(),
        }
    );
    while !ft_server::signal::interrupted() {
        std::thread::sleep(Duration::from_millis(100));
    }
    let counters = handle.counters();
    handle.shutdown();
    let output = serde_json::to_string_pretty(&serde_json::json!({
        "accepted": counters.accepted,
        "requests": counters.requests,
        "shed": counters.shed,
        "streamed": counters.streamed,
        "panics": counters.panics,
    }))
    .expect("counter reports always serialise");
    Ok(RunOutput {
        output,
        summary: format!(
            "server stopped: {} requests served on {} connections, {} shed\n",
            counters.requests, counters.accepted, counters.shed
        ),
        truncated: false,
    })
}

/// Parses the `--sweep` value `<START:END:STEP>` into a validated range.
/// The grid semantics live in [`ft_session::SweepRange`], shared with the
/// HTTP front end's `sweep` endpoint.
fn parse_sweep_range(text: &str) -> Result<SweepRange, CliError> {
    SweepRange::parse(text).map_err(|reason| CliError::Usage(format!("--sweep: {reason}")))
}

/// Loads the fault tree described by a single-tree input source.
///
/// # Errors
///
/// I/O and parse errors are reported as [`CliError`].
pub fn load_tree(input: &InputSource) -> Result<FaultTree, CliError> {
    match input {
        InputSource::Example(name) => match name.as_str() {
            "fps" | "fire" => Ok(examples::fire_protection_system()),
            "tank" | "pressure" => Ok(examples::pressure_tank_system()),
            "sensors" | "voting" => Ok(examples::redundant_sensor_network()),
            "scada" | "water" => Ok(examples::water_treatment_scada()),
            "crossing" | "railway" => Ok(examples::railway_level_crossing()),
            "hydraulics" | "aircraft" => Ok(examples::aircraft_hydraulic_system()),
            other => Err(CliError::Usage(format!(
                "unknown example {other:?}; available: fps, tank, sensors, scada, crossing, hydraulics"
            ))),
        },
        InputSource::Generated { nodes, seed } => Ok(random_tree(
            &RandomTreeConfig::with_total_nodes(*nodes),
            *seed,
        )),
        InputSource::File { path, format } => {
            let text = fs::read_to_string(path)?;
            let format = format.unwrap_or_else(|| {
                if path.extension().and_then(|e| e.to_str()) == Some("json") {
                    InputFormat::Json
                } else {
                    InputFormat::Galileo
                }
            });
            let tree = match format {
                InputFormat::Json => json::from_json_str(&text)?,
                InputFormat::Galileo => galileo::parse_galileo(&text)?,
            };
            Ok(tree)
        }
    }
}

/// The result of one CLI run: the machine-readable output, the
/// human-readable summary, and whether any answer was truncated by a
/// `--timeout-ms` / `--max-solutions` budget (mapped to exit code 3).
#[derive(Clone, Debug)]
pub struct RunOutput {
    /// The machine-readable output (JSON, or DOT/ASCII for the rendering
    /// analyses).
    pub output: String,
    /// The human-readable summary printed on stderr.
    pub summary: String,
    /// `true` when a budget stopped a query early; the JSON output then
    /// carries `"truncated": true`.
    pub truncated: bool,
}

/// Runs the selected mode and returns the machine-readable output (JSON, or
/// DOT/ASCII text for the rendering analyses) plus a human-readable summary.
/// For [`CliMode::Help`] the usage text is returned as the output.
///
/// This is the historical pair-returning entry point;
/// [`run_with_status`] additionally reports budget truncation for the
/// distinct exit code.
///
/// # Errors
///
/// Solver failures are reported as [`CliError::Solve`]; budget overruns of
/// the classical analyses as [`CliError::Analysis`]; manifest problems as
/// [`CliError::Batch`].
pub fn run(options: &CliOptions) -> Result<(String, String), CliError> {
    run_with_status(options).map(|result| (result.output, result.summary))
}

/// Like [`run`], also reporting whether any answer was truncated by a
/// budget (the binary exits with code 3 in that case).
///
/// # Errors
///
/// See [`run`].
pub fn run_with_status(options: &CliOptions) -> Result<RunOutput, CliError> {
    let complete = |(output, summary): (String, String)| RunOutput {
        output,
        summary,
        truncated: false,
    };
    let input = match &options.mode {
        CliMode::Help => {
            return Ok(RunOutput {
                output: USAGE.to_string(),
                summary: String::new(),
                truncated: false,
            })
        }
        CliMode::Batch(path) => return run_batch_mode(options, path),
        CliMode::Serve(serve) => return run_serve(serve),
        CliMode::Single(input) => input,
    };
    let tree = load_tree(input)?;
    match options.analysis {
        AnalysisKind::Mpmcs if options.sweep.is_some() => run_sweep(options, &tree),
        AnalysisKind::Mpmcs => run_mpmcs(options, &tree),
        AnalysisKind::PathSet => run_path_set(options, &tree).map(complete),
        AnalysisKind::Importance => run_importance(options, &tree).map(complete),
        AnalysisKind::Modules => run_modules(&tree).map(complete),
        AnalysisKind::Stability => run_stability(options, &tree).map(complete),
        AnalysisKind::Dot => run_dot(options, &tree).map(complete),
        AnalysisKind::Ascii => Ok(RunOutput {
            output: fault_tree::export::to_ascii(&tree),
            summary: format!("tree: {} rendered as text\n", tree.name()),
            truncated: false,
        }),
    }
}

/// Batch mode: build the manifest, fan the trees out over the worker pool,
/// and aggregate one report (see [`ft_batch`]).
fn run_batch_mode(options: &CliOptions, path: &std::path::Path) -> Result<RunOutput, CliError> {
    let manifest = BatchManifest::from_path(path)?;
    if manifest.is_empty() {
        return Err(CliError::Usage(format!(
            "no fault-tree models found under {}",
            path.display()
        )));
    }
    let config = BatchConfig {
        jobs: options.jobs,
        top_k: options.top_k.unwrap_or(1),
        algorithm: options.algorithm.unwrap_or_default(),
        importance: options.importance,
        stats: options.stats,
        backend: options.backend,
        bdd_ordering: options.bdd_ordering,
        preprocess: options.preprocess,
        timeout_ms: options.timeout_ms,
        max_solutions: options.max_solutions,
        cache: options.analysis_cache(),
        sweep: options.sweep.as_ref().map(SweepRange::grid),
    };
    let report = run_batch(&manifest, &config);
    Ok(RunOutput {
        truncated: report.any_truncated(),
        output: report.to_json(),
        summary: report.render_text(),
    })
}

/// The facade analyzer behind the `importance` and `stability` analyses: the
/// MOCUS engine lists the full cut-set family of OR-heavy trees far faster
/// than exhaustive MaxSAT enumeration, and no budget caps it.
fn mocus_analyzer(options: &CliOptions, tree: &FaultTree) -> Analyzer {
    Analyzer::for_tree(tree.clone())
        .backend(BackendKind::Mocus)
        .bdd_ordering(options.bdd_ordering)
}

fn analysis_error(error: SessionError) -> CliError {
    CliError::Analysis(error.to_string())
}

/// The session-facade analyzer implied by the parsed options, over `kind`.
/// The parsed tree is shared, not copied, between analyzers (`--cross-check`
/// builds two).
fn analyzer_for(
    options: &CliOptions,
    tree: &Arc<FaultTree>,
    kind: BackendKind,
    cache: Option<Arc<AnalysisCache>>,
) -> Analyzer {
    let mut analyzer = Analyzer::for_shared(Arc::clone(tree))
        .backend(kind)
        .algorithm(options.algorithm.unwrap_or_default())
        .bdd_ordering(options.bdd_ordering)
        .preprocess(options.preprocess)
        .budget(options.budget());
    if let Some(cache) = cache {
        analyzer = analyzer.cache(cache);
    }
    analyzer
}

/// Runs the configured mpmcs query (single / top-k / all) through the
/// session facade, returning the solutions plus how the query ended.
fn query_analyzer(
    analyzer: &mut Analyzer,
    options: &CliOptions,
) -> Result<(Vec<BackendSolution>, Termination), CliError> {
    let map_error = |error: SessionError| match error {
        SessionError::NoCutSet => CliError::Solve(mpmcs::MpmcsError::NoCutSet),
        SessionError::Stopped(cause) => CliError::Analysis(format!(
            "the analysis stopped before producing a result: {cause}"
        )),
        other => CliError::Analysis(other.to_string()),
    };
    if options.all {
        let set = analyzer.all_mcs().map_err(map_error)?;
        Ok((set.solutions, set.termination))
    } else if let Some(k) = options.top_k {
        let set = analyzer.top_k(k).map_err(map_error)?;
        Ok((set.solutions, set.termination))
    } else {
        let best = analyzer.mpmcs().map_err(map_error)?;
        Ok((vec![best], Termination::Complete))
    }
}

/// Compares the two backends' answers of a `--cross-check` run; `Some`
/// describes the first mismatch. Positions must agree on probability and on
/// the cut set: every engine enumerates in the canonical order, so `--top-k`
/// and `--all` answers are equal at every rank. Only the single-MPMCS query
/// (`tie_allowed`) tolerates a different cut set, as an equal-probability tie
/// where both sides report a verified minimal cut set — a one-shot solver may
/// return any tied optimum.
fn cross_check_mismatch(
    tree: &FaultTree,
    primary: &[BackendSolution],
    secondary: &[BackendSolution],
    tie_allowed: bool,
) -> Option<String> {
    if primary.len() != secondary.len() {
        return Some(format!(
            "cut-set counts differ: {} vs {}",
            primary.len(),
            secondary.len()
        ));
    }
    for (rank, (a, b)) in primary.iter().zip(secondary).enumerate() {
        // Compare in log space: an absolute tolerance on `−ln p` is a
        // *relative* tolerance on the probability, which FTA needs — cut-set
        // probabilities routinely live at 1e-12 and below, where any
        // absolute probability tolerance would wave real divergences
        // through. (Non-finite log weights — probability-zero cut sets —
        // must simply agree.)
        let log_weights_agree = if a.log_weight.is_finite() && b.log_weight.is_finite() {
            (a.log_weight - b.log_weight).abs() <= 1e-9
        } else {
            a.log_weight == b.log_weight
        };
        if !log_weights_agree {
            return Some(format!(
                "probabilities differ at rank {}: {:.12e} vs {:.12e}",
                rank + 1,
                a.probability,
                b.probability
            ));
        }
        if a.cut_set != b.cut_set {
            let tie = tie_allowed
                && tree.is_minimal_cut_set(&a.cut_set)
                && tree.is_minimal_cut_set(&b.cut_set);
            if !tie {
                return Some(format!(
                    "cut sets differ at rank {}: {} vs {}",
                    rank + 1,
                    a.cut_set.display_names(tree),
                    b.cut_set.display_names(tree)
                ));
            }
        }
    }
    None
}

/// `--sweep`: quantify the top-event probability over the mission-time grid,
/// solving the structure once and re-quantifying per point through
/// [`Analyzer::sweep`] — every point bit-identical to the same query against
/// the tree re-quantified at that time.
fn run_sweep(options: &CliOptions, tree: &FaultTree) -> Result<RunOutput, CliError> {
    let range = options
        .sweep
        .expect("run_sweep is only dispatched with --sweep");
    let grid = range.grid();
    let tree = Arc::new(tree.clone());
    let cache = options.analysis_cache();
    let mut analyzer = analyzer_for(options, &tree, options.backend, cache.clone());
    let backend = analyzer.resolved_backend();
    let start = Instant::now();
    let report = analyzer.sweep(&grid).map_err(|error| match error {
        SessionError::NoCutSet => CliError::Solve(mpmcs::MpmcsError::NoCutSet),
        SessionError::Stopped(cause) => CliError::Analysis(format!(
            "the analysis stopped before producing a result: {cause}"
        )),
        other => CliError::Analysis(other.to_string()),
    })?;
    let elapsed = start.elapsed();

    let output = match options.sweep_format {
        SweepFormat::Json => {
            ft_session::report::render_sweep_json(&tree, backend, options.preprocess, &report)
        }
        SweepFormat::Csv => ft_session::report::render_sweep_csv(&report),
    };

    let mut summary = format!(
        "sweep: {} at {} mission times in [{}, {}] via {} ({:.2} ms)\n",
        tree.name(),
        grid.len(),
        range.start,
        range.end,
        backend.name(),
        elapsed.as_secs_f64() * 1e3
    );
    if let Some(cache) = &cache {
        let stats = cache.stats();
        summary.push_str(&format!(
            "cache: {} hits, {} misses, {} insertions, {} entries ({} bytes of {})\n",
            stats.hits, stats.misses, stats.insertions, stats.entries, stats.bytes, stats.capacity,
        ));
    }
    Ok(RunOutput {
        output,
        summary,
        truncated: false,
    })
}

fn run_mpmcs(options: &CliOptions, tree: &FaultTree) -> Result<RunOutput, CliError> {
    let tree = Arc::new(tree.clone());
    let cache = options.analysis_cache();
    let mut analyzer = analyzer_for(options, &tree, options.backend, cache.clone());
    let primary_kind = analyzer.resolved_backend();
    let start = Instant::now();
    let (solutions, termination) = query_analyzer(&mut analyzer, options)?;
    let primary_elapsed = start.elapsed();
    let truncated = termination.is_truncated();

    // A single report renders as a bare object, several as an array —
    // exactly the pre-backend-layer output shape (`--top-k 1` has always
    // produced an object). The shared renderer keeps this byte-identical
    // to the HTTP front end's answers.
    let report_value = ft_session::report::report_value(&tree, &solutions, options.stats);

    let mut summary = String::new();
    summary.push_str(&format!(
        "tree: {} ({} events, {} gates)\n",
        tree.name(),
        tree.num_events(),
        tree.num_gates()
    ));
    if options.backend != BackendKind::MaxSat || options.preprocess {
        summary.push_str(&format!(
            "backend: {}{}\n",
            primary_kind.name(),
            if options.preprocess {
                " (modular preprocessing)"
            } else {
                ""
            }
        ));
    }
    for (rank, solution) in solutions.iter().enumerate() {
        summary.push_str(&format!(
            "#{}: {} p={:.6e} ({} events, {}, {:.2} ms)\n",
            rank + 1,
            solution.cut_set.display_names(&tree),
            solution.probability,
            solution.cut_set.len(),
            solution.algorithm,
            solution.duration.as_secs_f64() * 1e3
        ));
    }
    if truncated {
        summary.push_str(&format!(
            "truncated: the budget stopped the query ({termination}); \
             the {} reported solutions are the canonical prefix\n",
            solutions.len()
        ));
    }
    if let Some(cache) = &cache {
        let stats = cache.stats();
        summary.push_str(&format!(
            "cache: {} hits, {} misses, {} insertions, {} entries ({} bytes of {})\n",
            stats.hits, stats.misses, stats.insertions, stats.entries, stats.bytes, stats.capacity,
        ));
    }

    if !options.cross_check {
        let cache_stats = cache.as_ref().filter(|_| options.stats).map(|cache| {
            let stats = cache.stats();
            serde_json::json!({
                "hits": stats.hits,
                "misses": stats.misses,
                "insertions": stats.insertions,
                "evictions": stats.evictions,
                "entries": stats.entries,
                "bytes": stats.bytes,
                "capacity": stats.capacity,
            })
        });
        // Budgeted runs wrap the report in an explicit envelope so partial
        // results can never be mistaken for complete ones; budgetless runs
        // keep the historical bare report shape. `--cache --stats` runs use
        // the envelope too, to carry the cache counters — a flag combination
        // that never existed before, so no historical shape is disturbed.
        let json = match cache_stats {
            Some(cache_stats) if options.budgeted() => {
                let value = serde_json::json!({
                    "truncated": truncated,
                    "termination": termination.label(),
                    "report": report_value,
                    "cache_stats": cache_stats,
                });
                serde_json::to_string_pretty(&value).expect("reports always serialise")
            }
            Some(cache_stats) => {
                let value = serde_json::json!({
                    "report": report_value,
                    "cache_stats": cache_stats,
                });
                serde_json::to_string_pretty(&value).expect("reports always serialise")
            }
            // The plain shapes — bare report, or the budget envelope —
            // come from the shared renderer, byte-identical to ft-server.
            None => ft_session::report::render_report(
                &tree,
                &solutions,
                termination,
                options.budgeted(),
                options.stats,
            ),
        };
        return Ok(RunOutput {
            output: json,
            summary,
            truncated,
        });
    }

    // Cross-check: run the reference backend on the same query and insist on
    // identical answers before reporting anything.
    let reference_kind = if primary_kind == BackendKind::MaxSat {
        BackendKind::Bdd
    } else {
        BackendKind::MaxSat
    };
    let mut reference = analyzer_for(options, &tree, reference_kind, cache.clone());
    let reference_kind = reference.resolved_backend();
    let start = Instant::now();
    let (reference_solutions, _) = query_analyzer(&mut reference, options)?;
    let reference_elapsed = start.elapsed();

    let single = !options.all && options.top_k.is_none();
    if let Some(mismatch) = cross_check_mismatch(&tree, &solutions, &reference_solutions, single) {
        return Err(CliError::Analysis(format!(
            "cross-check mismatch between {} and {}: {mismatch}",
            primary_kind.name(),
            reference_kind.name()
        )));
    }

    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let query = if options.all {
        "all".to_string()
    } else if let Some(k) = options.top_k {
        format!("top-{k}")
    } else {
        "mpmcs".to_string()
    };
    let value = serde_json::json!({
        "cross_check": serde_json::json!({
            "query": query,
            "match": true,
            "backends": serde_json::json!([
                serde_json::json!({
                    "backend": primary_kind.name(),
                    "solve_time_ms": ms(primary_elapsed),
                    "cut_sets": solutions.len(),
                }),
                serde_json::json!({
                    "backend": reference_kind.name(),
                    "solve_time_ms": ms(reference_elapsed),
                    "cut_sets": reference_solutions.len(),
                }),
            ]),
        }),
        "report": report_value,
    });
    summary.push_str(&format!(
        "cross-check ({query}): {} and {} report identical minimal cut sets\n  {}: {:.2} ms\n  {}: {:.2} ms\n",
        primary_kind.name(),
        reference_kind.name(),
        primary_kind.name(),
        ms(primary_elapsed),
        reference_kind.name(),
        ms(reference_elapsed),
    ));
    let json = serde_json::to_string_pretty(&value).expect("reports always serialise");
    Ok(RunOutput {
        output: json,
        summary,
        truncated,
    })
}

/// `--analysis path-set`: the minimal path sets of `tree` are the minimal
/// cut sets of its success tree, whose event probabilities are the component
/// reliabilities and whose event indices are the original ones.
fn run_path_set(options: &CliOptions, tree: &FaultTree) -> Result<(String, String), CliError> {
    let solver = MpmcsSolver::with_options(MpmcsOptions {
        algorithm: options.algorithm.unwrap_or_default(),
        ..MpmcsOptions::new()
    });
    let dual = fault_tree::transform::success_tree(tree);
    let solutions = if options.all {
        solver.enumerate(&dual, EnumerationLimit::All)?
    } else if let Some(k) = options.top_k {
        solver.solve_top_k(&dual, k)?
    } else {
        vec![solver.solve(&dual)?]
    };
    let json = serde_json::to_string_pretty(
        &solutions
            .iter()
            .map(|solution| {
                serde_json::json!({
                    "events": solution.event_names(tree),
                    "reliability": solution.probability,
                    "log_weight": solution.log_weight,
                    "algorithm": solution.algorithm,
                })
            })
            .collect::<Vec<_>>(),
    )
    .expect("path-set reports always serialise");
    let mut summary = format!("maximum-reliability minimal path sets of {}\n", tree.name());
    for (rank, solution) in solutions.iter().enumerate() {
        summary.push_str(&format!(
            "#{}: {} reliability={:.6}\n",
            rank + 1,
            solution.cut_set.display_names(tree),
            solution.probability
        ));
    }
    Ok((json, summary))
}

fn run_importance(options: &CliOptions, tree: &FaultTree) -> Result<(String, String), CliError> {
    let report = mocus_analyzer(options, tree)
        .importance()
        .map_err(analysis_error)?;
    // Rendered through the shared report module, like the HTTP front end's
    // importance endpoint.
    let json = ft_session::report::render_importance(&report);
    // The text summary is ft-analysis's table renderer over the same rows.
    let column = |measure: fn(&ft_session::ImportanceRow) -> f64| -> Vec<f64> {
        report.rows.iter().map(measure).collect()
    };
    let table = ft_analysis::importance::ImportanceTable {
        birnbaum: column(|row| row.birnbaum),
        fussell_vesely: column(|row| row.fussell_vesely),
        raw: column(|row| row.raw),
        rrw: column(|row| row.rrw),
        criticality: column(|row| row.criticality),
        structural: column(|row| row.structural),
    };
    Ok((json, table.render(tree)))
}

fn run_modules(tree: &FaultTree) -> Result<(String, String), CliError> {
    let report = ft_analysis::modules::ModularReport::of(tree);
    let json = serde_json::to_string_pretty(&serde_json::json!({
        "modules": report
            .modules
            .iter()
            .map(|&g| tree.gate(g).name())
            .collect::<Vec<_>>(),
        "repeated_events": report.repeated_events,
        "independent_probability": report.independent_probability,
    }))
    .expect("module reports always serialise");
    Ok((json, report.render(tree)))
}

fn run_stability(options: &CliOptions, tree: &FaultTree) -> Result<(String, String), CliError> {
    let cut_sets: Vec<fault_tree::CutSet> = mocus_analyzer(options, tree)
        .all_mcs()
        .map_err(analysis_error)?
        .solutions
        .into_iter()
        .map(|solution| solution.cut_set)
        .collect();
    let stability = ft_analysis::sensitivity::MpmcsStability::of(tree, &cut_sets)
        .ok_or_else(|| CliError::Analysis("the tree has no minimal cut set".to_string()))?;
    let json = serde_json::to_string_pretty(&serde_json::json!({
        "mpmcs": stability.mpmcs.display_names(tree),
        "probability": stability.probability,
        "margins": stability
            .margins
            .iter()
            .map(|(event, threshold, margin)| {
                serde_json::json!({
                    "event": tree.event(*event).name(),
                    "switch_threshold": threshold,
                    "relative_margin": margin,
                })
            })
            .collect::<Vec<_>>(),
    }))
    .expect("stability reports always serialise");
    Ok((json, stability.render(tree)))
}

fn run_dot(options: &CliOptions, tree: &FaultTree) -> Result<(String, String), CliError> {
    let solver = MpmcsSolver::with_options(MpmcsOptions {
        algorithm: options.algorithm.unwrap_or_default(),
        ..MpmcsOptions::new()
    });
    let solution = solver.solve(tree)?;
    let dot = fault_tree::export::to_dot_with_highlight(tree, Some(&solution.cut_set));
    let summary = format!(
        "DOT rendering of {} with MPMCS {} (p={:.6e}) highlighted\n",
        tree.name(),
        solution.cut_set.display_names(tree),
        solution.probability
    );
    Ok((dot, summary))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_typical_invocation() {
        let options = parse_args(["--algorithm", "oll", "--top-k", "3", "tree.json"]).unwrap();
        assert_eq!(options.algorithm, Some(AlgorithmChoice::Oll));
        assert_eq!(options.top_k, Some(3));
        assert!(matches!(
            options.mode,
            CliMode::Single(InputSource::File { .. })
        ));
    }

    #[test]
    fn help_is_a_successful_mode_not_an_error() {
        for flags in [vec!["--help"], vec!["-h"], vec!["--example", "fps", "-h"]] {
            let options = parse_args(flags).unwrap();
            assert_eq!(options.mode, CliMode::Help);
        }
        let (output, summary) = run(&parse_args(["--help"]).unwrap()).unwrap();
        assert_eq!(output, USAGE);
        assert!(summary.is_empty());
        // The usage text documents every mode, including batch.
        for flag in ["--batch", "--jobs", "--importance", "--top-k", "--analysis"] {
            assert!(USAGE.contains(flag), "usage must document {flag}");
        }
    }

    #[test]
    fn parses_a_serve_invocation() {
        let options = parse_args(["serve"]).unwrap();
        assert_eq!(options.mode, CliMode::Serve(ServeOptions::default()));
        let options = parse_args([
            "serve",
            "--port",
            "8080",
            "--workers",
            "2",
            "--cache-bytes",
            "1048576",
            "--host",
            "0.0.0.0",
            "--quiet",
        ])
        .unwrap();
        assert_eq!(
            options.mode,
            CliMode::Serve(ServeOptions {
                host: "0.0.0.0".to_string(),
                port: 8080,
                workers: 2,
                cache_bytes: Some(1_048_576),
            })
        );
        assert!(options.quiet);
        assert_eq!(parse_args(["serve", "--help"]).unwrap().mode, CliMode::Help);
        // The usage text documents the subcommand.
        for token in ["serve", "SERVE OPTIONS", "--workers"] {
            assert!(USAGE.contains(token), "usage must document {token}");
        }
    }

    #[test]
    fn serve_flag_mistakes_are_rejected() {
        for flags in [
            vec!["serve", "--port", "notaport"],
            vec!["serve", "--port"],
            vec!["serve", "--workers", "0"],
            vec!["serve", "--cache-bytes", "0"],
            vec!["serve", "--backend", "bdd"],
            vec!["serve", "tree.json"],
        ] {
            assert!(
                matches!(parse_args(flags.clone()), Err(CliError::Usage(_))),
                "{flags:?} must be a usage error"
            );
        }
    }

    #[test]
    fn serve_runs_until_interrupted_and_reports_counters() {
        let serve = ServeOptions {
            workers: 1,
            ..ServeOptions::default()
        };
        // Raise the flag up front: run_serve resets it, so trip it again
        // from a helper thread shortly after the server boots.
        let trip = std::thread::spawn(|| {
            std::thread::sleep(Duration::from_millis(250));
            ft_server::signal::trigger();
        });
        let result = run_serve(&serve).unwrap();
        trip.join().unwrap();
        assert!(!result.truncated);
        assert!(result.summary.contains("server stopped"));
        let counters: serde_json::Value = serde_json::from_str(&result.output).unwrap();
        assert_eq!(counters["requests"], serde_json::json!(0));
        assert_eq!(counters["shed"], serde_json::json!(0));
    }

    #[test]
    fn parses_a_batch_invocation() {
        let options = parse_args(["--batch", "models/", "--jobs", "4", "--top-k", "2"]).unwrap();
        assert_eq!(options.mode, CliMode::Batch(PathBuf::from("models/")));
        assert_eq!(options.jobs, 4);
        assert_eq!(options.top_k, Some(2));
        assert!(!options.importance);
        let options = parse_args(["--batch", "batch.json", "--importance"]).unwrap();
        assert!(options.importance);
    }

    #[test]
    fn batch_conflicts_are_rejected() {
        assert!(matches!(
            parse_args(["--batch", "models/", "tree.json"]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse_args(["--batch", "models/", "--all"]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse_args(["--batch", "models/", "--analysis", "importance"]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse_args(["--batch", "models/", "--jobs", "x"]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse_args(["--batch", "models/", "--format", "json"]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse_args(["--batch", "models/", "--seed", "9"]),
            Err(CliError::Usage(_))
        ));
        // Batch-only flags are rejected in single-tree mode too, instead of
        // being silently ignored.
        assert!(matches!(
            parse_args(["tree.json", "--jobs", "4"]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse_args(["tree.json", "--importance"]),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn rejects_bad_arguments() {
        assert!(matches!(parse_args(["--top-k"]), Err(CliError::Usage(_))));
        assert!(matches!(
            parse_args(["--top-k", "0", "x.json"]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse_args(["--algorithm", "magic", "x.json"]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse_args(Vec::<String>::new()),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse_args(["a.json", "b.json"]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse_args(["--unknown", "x.json"]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse_args(["--example", "fps", "--branching", "vsids"]),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn stats_flag_adds_solver_statistics_to_the_report() {
        let options = parse_args(["--example", "fps", "--stats", "--quiet"]).unwrap();
        assert!(options.stats);
        let (json, _) = run(&options).unwrap();
        let parsed: serde_json::Value = serde_json::from_str(&json).unwrap();
        let stats = &parsed["solver_stats"];
        assert!(stats["propagations"].as_u64().unwrap() > 0);
        assert!(stats["sat_calls"].as_u64().unwrap() > 0);
        // Without the flag the block is absent.
        let options = parse_args(["--example", "fps", "--quiet"]).unwrap();
        let (json, _) = run(&options).unwrap();
        assert!(!json.contains("solver_stats"));
        // Enumeration reports carry per-stage stats plus the growing
        // session-cumulative counter of the shared incremental session.
        let options =
            parse_args(["--example", "fps", "--top-k", "3", "--stats", "--quiet"]).unwrap();
        let (json, _) = run(&options).unwrap();
        let parsed: serde_json::Value = serde_json::from_str(&json).unwrap();
        let reports = parsed.as_array().unwrap();
        assert_eq!(reports.len(), 3);
        let session_calls: Vec<u64> = reports
            .iter()
            .map(|r| r["solver_stats"]["session_calls"].as_u64().unwrap())
            .collect();
        assert!(session_calls.windows(2).all(|w| w[0] < w[1]));
        // --stats is rejected where it cannot apply.
        assert!(matches!(
            parse_args(["--example", "fps", "--analysis", "ascii", "--stats"]),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn stats_flag_flows_into_batch_reports() {
        let dir = std::env::temp_dir().join(format!("mpmcs4fta_cli_stats_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        fs::write(
            dir.join("and.dft"),
            "toplevel top;\ntop and a b;\na prob=0.5;\nb prob=0.25;\n",
        )
        .unwrap();
        let options = parse_args(["--batch", dir.to_str().unwrap(), "--stats", "--quiet"]).unwrap();
        let (json, _) = run(&options).unwrap();
        let parsed: serde_json::Value = serde_json::from_str(&json).unwrap();
        let stats = &parsed["results"][0]["cut_sets"][0]["solver_stats"];
        assert!(stats["propagations"].as_u64().unwrap() > 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn runs_the_builtin_example_end_to_end() {
        let options = parse_args(["--example", "fps", "--quiet"]).unwrap();
        let (json, summary) = run(&options).unwrap();
        assert!(json.contains("\"x1\""));
        assert!(json.contains("\"x2\""));
        assert!(summary.contains("{x1, x2}"));
        assert!(summary.contains("7 events"));
    }

    #[test]
    fn runs_top_k_and_all_modes() {
        let options =
            parse_args(["--example", "fps", "--top-k", "2", "--algorithm", "oll"]).unwrap();
        let (json, summary) = run(&options).unwrap();
        assert!(summary.lines().count() >= 3);
        let parsed: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert_eq!(parsed.as_array().map(|a| a.len()), Some(2));

        let options = parse_args(["--example", "fps", "--all", "--algorithm", "oll"]).unwrap();
        let (json, _) = run(&options).unwrap();
        let parsed: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert_eq!(parsed.as_array().map(|a| a.len()), Some(5));
    }

    #[test]
    fn runs_on_generated_trees() {
        let options =
            parse_args(["--generate", "150", "--seed", "3", "--algorithm", "oll"]).unwrap();
        let (json, _) = run(&options).unwrap();
        let parsed: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert!(parsed["probability"].as_f64().unwrap() > 0.0);
    }

    #[test]
    fn loads_files_in_both_formats() {
        use std::io::Write;
        let dir = std::env::temp_dir();
        let galileo_path = dir.join("mpmcs4fta_cli_test.dft");
        let mut file = fs::File::create(&galileo_path).unwrap();
        write!(
            file,
            "toplevel top;\ntop and a b;\na prob=0.5;\nb prob=0.25;\n"
        )
        .unwrap();
        let options = parse_args([galileo_path.to_str().unwrap(), "--algorithm", "oll"]).unwrap();
        let (json, _) = run(&options).unwrap();
        let parsed: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert!((parsed["probability"].as_f64().unwrap() - 0.125).abs() < 1e-9);

        let json_path = dir.join("mpmcs4fta_cli_test.json");
        let tree = examples::fire_protection_system();
        fs::write(&json_path, fault_tree::parser::json::to_json_string(&tree)).unwrap();
        let options = parse_args([json_path.to_str().unwrap(), "--algorithm", "oll"]).unwrap();
        let (json, _) = run(&options).unwrap();
        assert!(json.contains("\"x1\""));
        let _ = fs::remove_file(galileo_path);
        let _ = fs::remove_file(json_path);
    }

    #[test]
    fn unknown_examples_are_rejected() {
        let options = parse_args(["--example", "nope"]).unwrap();
        assert!(matches!(run(&options), Err(CliError::Usage(_))));
    }

    #[test]
    fn path_set_analysis_reports_the_dual_optimum() {
        let options = parse_args([
            "--example",
            "fps",
            "--analysis",
            "path-set",
            "--algorithm",
            "oll",
        ])
        .unwrap();
        let (json, summary) = run(&options).unwrap();
        let parsed: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert_eq!(parsed.as_array().map(|a| a.len()), Some(1));
        assert!(summary.contains("reliability"));
        let all = parse_args([
            "--example",
            "fps",
            "--analysis",
            "path-set",
            "--all",
            "--algorithm",
            "oll",
        ])
        .unwrap();
        let (json, _) = run(&all).unwrap();
        let parsed: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert_eq!(parsed.as_array().map(|a| a.len()), Some(4));
    }

    #[test]
    fn importance_modules_and_stability_analyses_render_tables() {
        let importance = parse_args(["--example", "fps", "--analysis", "importance"]).unwrap();
        let (json, summary) = run(&importance).unwrap();
        let parsed: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert_eq!(parsed.as_array().map(|a| a.len()), Some(7));
        assert!(summary.contains("birnbaum"));

        let modules = parse_args(["--example", "fps", "--analysis", "modules"]).unwrap();
        let (json, summary) = run(&modules).unwrap();
        let parsed: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert_eq!(parsed["repeated_events"].as_u64(), Some(0));
        assert!(summary.contains("modules"));

        let stability = parse_args(["--example", "fps", "--analysis", "stability"]).unwrap();
        let (json, summary) = run(&stability).unwrap();
        let parsed: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert_eq!(parsed["mpmcs"].as_str(), Some("{x1, x2}"));
        assert!(summary.contains("margin"));
    }

    #[test]
    fn dot_and_ascii_analyses_render_the_tree() {
        let dot = parse_args([
            "--example",
            "scada",
            "--analysis",
            "dot",
            "--algorithm",
            "oll",
        ])
        .unwrap();
        let (output, summary) = run(&dot).unwrap();
        assert!(output.starts_with("digraph"));
        assert!(summary.contains("highlighted"));

        let ascii = parse_args(["--example", "hydraulics", "--analysis", "ascii"]).unwrap();
        let (output, _) = run(&ascii).unwrap();
        assert!(output.contains("2/3 VOTE"));
    }

    #[test]
    fn unknown_analyses_are_rejected() {
        assert!(matches!(
            parse_args(["--example", "fps", "--analysis", "magic"]),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn backend_flags_are_parsed_and_validated() {
        let options = parse_args([
            "--example",
            "fps",
            "--backend",
            "bdd",
            "--bdd-ordering",
            "natural",
            "--preprocess",
            "--cross-check",
        ])
        .unwrap();
        assert_eq!(options.backend, BackendKind::Bdd);
        assert_eq!(options.bdd_ordering, VariableOrdering::Natural);
        assert!(options.preprocess);
        assert!(options.cross_check);
        // Unknown names are usage errors.
        assert!(matches!(
            parse_args(["--example", "fps", "--backend", "zbdd"]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse_args(["--example", "fps", "--bdd-ordering", "random"]),
            Err(CliError::Usage(_))
        ));
        // --algorithm belongs to the maxsat backend.
        assert!(matches!(
            parse_args([
                "--example",
                "fps",
                "--backend",
                "mocus",
                "--algorithm",
                "oll"
            ]),
            Err(CliError::Usage(_))
        ));
        // Backend flags only apply to the mpmcs analysis.
        assert!(matches!(
            parse_args([
                "--example",
                "fps",
                "--analysis",
                "ascii",
                "--backend",
                "bdd"
            ]),
            Err(CliError::Usage(_))
        ));
        // Cross-check is a single-tree mode.
        assert!(matches!(
            parse_args(["--batch", "models/", "--cross-check"]),
            Err(CliError::Usage(_))
        ));
        // The usage text documents the new flags.
        for flag in [
            "--backend",
            "--cross-check",
            "--bdd-ordering",
            "--preprocess",
        ] {
            assert!(USAGE.contains(flag), "usage must document {flag}");
        }
    }

    #[test]
    fn every_backend_reports_the_paper_answer() {
        for backend in ["maxsat", "bdd", "mocus", "auto"] {
            for preprocess in [false, true] {
                let mut args = vec!["--example", "fps", "--backend", backend, "--quiet"];
                if preprocess {
                    args.push("--preprocess");
                }
                let (json, _) = run(&parse_args(args).unwrap()).unwrap();
                let parsed: serde_json::Value = serde_json::from_str(&json).unwrap();
                assert_eq!(
                    parsed["mpmcs"][0]["name"].as_str(),
                    Some("x1"),
                    "{backend} preprocess={preprocess}"
                );
                assert!((parsed["probability"].as_f64().unwrap() - 0.02).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn cross_check_wraps_the_report_and_reports_per_backend_timings() {
        let options = parse_args([
            "--example",
            "fps",
            "--backend",
            "bdd",
            "--cross-check",
            "--all",
            "--algorithm",
            "oll",
            "--quiet",
        ]);
        // --algorithm with --backend bdd is rejected; drop it.
        assert!(options.is_err());
        let options = parse_args([
            "--example",
            "fps",
            "--backend",
            "bdd",
            "--cross-check",
            "--all",
        ])
        .unwrap();
        let (json, summary) = run(&options).unwrap();
        let parsed: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert_eq!(parsed["cross_check"]["match"].as_bool(), Some(true));
        let backends = parsed["cross_check"]["backends"].as_array().unwrap();
        assert_eq!(backends.len(), 2);
        assert_eq!(backends[0]["backend"].as_str(), Some("bdd"));
        assert_eq!(backends[1]["backend"].as_str(), Some("maxsat"));
        assert_eq!(backends[0]["cut_sets"].as_u64(), Some(5));
        assert_eq!(
            parsed["report"].as_array().map(|r| r.len()),
            Some(5),
            "the primary backend's report rides along"
        );
        assert!(summary.contains("identical minimal cut sets"));
    }

    /// Ties straddling a top-k boundary are broken canonically by every
    /// route, so `--cross-check` compares enumerations exactly: on an OR of
    /// eight equally probable events, the modular route reports the ZBDD's
    /// {e0}, {e1}. Only the single-MPMCS query still accepts a tied optimum.
    #[test]
    fn cross_check_compares_top_k_ties_exactly() {
        let path = std::env::temp_dir().join("mpmcs4fta_cli_or8.dft");
        let mut model = String::from("toplevel top;\ntop or e0 e1 e2 e3 e4 e5 e6 e7;\n");
        for i in 0..8 {
            model.push_str(&format!("e{i} prob=0.1;\n"));
        }
        fs::write(&path, model).unwrap();
        let options = parse_args([
            path.to_str().unwrap(),
            "--top-k",
            "2",
            "--preprocess",
            "--cross-check",
        ])
        .unwrap();
        let (json, summary) = run(&options).unwrap();
        let CliMode::Single(input) = &options.mode else {
            panic!("a model file is a single-tree mode");
        };
        let tree = load_tree(input).unwrap();
        let _ = fs::remove_file(&path);
        let parsed: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert_eq!(parsed["cross_check"]["match"].as_bool(), Some(true));
        let names: Vec<&str> = parsed["report"]
            .as_array()
            .unwrap()
            .iter()
            .map(|row| row["mpmcs"][0]["name"].as_str().unwrap())
            .collect();
        assert_eq!(names, vec!["e0", "e1"]);
        assert!(summary.contains("identical minimal cut sets"));

        let single = |name: &str| {
            let event = tree.event_by_name(name).unwrap();
            vec![BackendSolution::from_cut(
                &tree,
                fault_tree::CutSet::from_iter([event]),
                "test",
            )]
        };
        let (primary, secondary) = (single("e0"), single("e1"));
        assert!(cross_check_mismatch(&tree, &primary, &secondary, false).is_some());
        assert!(cross_check_mismatch(&tree, &primary, &secondary, true).is_none());
    }

    #[test]
    fn budget_flags_are_parsed_and_validated() {
        let options = parse_args([
            "--example",
            "fps",
            "--timeout-ms",
            "250",
            "--max-solutions",
            "4",
        ])
        .unwrap();
        assert_eq!(options.timeout_ms, Some(250));
        assert_eq!(options.max_solutions, Some(4));
        assert!(options.budgeted());
        assert_eq!(options.budget().max_solutions_limit(), Some(4));
        // Budgets need complete answers to cross-check against.
        assert!(matches!(
            parse_args(["--example", "fps", "--timeout-ms", "5", "--cross-check"]),
            Err(CliError::Usage(_))
        ));
        // Budgets only apply to the mpmcs analysis and batch mode.
        assert!(matches!(
            parse_args([
                "--example",
                "fps",
                "--analysis",
                "ascii",
                "--timeout-ms",
                "5"
            ]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse_args(["--example", "fps", "--max-solutions", "0"]),
            Err(CliError::Usage(_))
        ));
        // The usage text documents the new flags.
        for flag in ["--timeout-ms", "--max-solutions"] {
            assert!(USAGE.contains(flag), "usage must document {flag}");
        }
    }

    #[test]
    fn max_solutions_truncates_with_an_explicit_envelope_and_status() {
        // A cap below the requested enumeration truncates: the JSON gains
        // the envelope, the result is flagged for the distinct exit code.
        let options = parse_args([
            "--example",
            "fps",
            "--all",
            "--max-solutions",
            "2",
            "--quiet",
        ])
        .unwrap();
        let result = run_with_status(&options).unwrap();
        assert!(result.truncated);
        let parsed: serde_json::Value = serde_json::from_str(&result.output).unwrap();
        assert_eq!(parsed["truncated"].as_bool(), Some(true));
        assert_eq!(parsed["termination"].as_str(), Some("solution-cap"));
        let report = parsed["report"].as_array().unwrap();
        assert_eq!(report.len(), 2);
        assert!(result.summary.contains("truncated"));

        // The capped prefix equals the uncapped run's prefix.
        let full = parse_args(["--example", "fps", "--all", "--quiet"]).unwrap();
        let (full_json, _) = run(&full).unwrap();
        let full_parsed: serde_json::Value = serde_json::from_str(&full_json).unwrap();
        let full_report = full_parsed.as_array().unwrap();
        assert_eq!(full_report.len(), 5);
        for (capped, complete) in report.iter().zip(full_report) {
            assert_eq!(capped["mpmcs"], complete["mpmcs"]);
        }

        // A cap exactly matching the family size is a complete answer on
        // every engine path (regression: this used to flip with --timeout-ms).
        for extra in [vec![], vec!["--timeout-ms", "60000"]] {
            let mut args = vec![
                "--example",
                "fps",
                "--all",
                "--max-solutions",
                "5",
                "--quiet",
            ];
            args.extend(extra);
            let exact = parse_args(args).unwrap();
            let result = run_with_status(&exact).unwrap();
            assert!(!result.truncated, "exact cap must be complete");
            let parsed: serde_json::Value = serde_json::from_str(&result.output).unwrap();
            assert_eq!(parsed["termination"].as_str(), Some("complete"));
        }

        // A generous budget does not truncate, but keeps the envelope.
        let roomy = parse_args([
            "--example",
            "fps",
            "--all",
            "--max-solutions",
            "50",
            "--quiet",
        ])
        .unwrap();
        let result = run_with_status(&roomy).unwrap();
        assert!(!result.truncated);
        let parsed: serde_json::Value = serde_json::from_str(&result.output).unwrap();
        assert_eq!(parsed["truncated"].as_bool(), Some(false));
        assert_eq!(parsed["termination"].as_str(), Some("complete"));
    }

    #[test]
    fn sweep_flags_are_parsed_and_validated() {
        let options = parse_args(["--example", "fps", "--sweep", "0:10:0.5"]).unwrap();
        let range = options.sweep.expect("--sweep given");
        assert_eq!(range.start, 0.0);
        assert_eq!(range.end, 10.0);
        assert_eq!(range.step, 0.5);
        assert_eq!(range.points(), 21);
        let grid = range.grid();
        assert_eq!(grid.len(), 21);
        assert_eq!(grid[0], 0.0);
        assert_eq!(grid[20], 10.0);
        assert_eq!(options.sweep_format, SweepFormat::Json);
        let options = parse_args([
            "--example",
            "fps",
            "--sweep",
            "0:1:0.25",
            "--sweep-format",
            "csv",
        ])
        .unwrap();
        assert_eq!(options.sweep_format, SweepFormat::Csv);
        // A single time is a valid (degenerate) sweep.
        let single = parse_args(["--example", "fps", "--sweep", "2:2:1"]).unwrap();
        assert_eq!(single.sweep.unwrap().grid(), vec![2.0]);
        // Malformed or out-of-range specifications are usage errors.
        for bad in [
            "0:10",
            "a:b:c",
            "0:10:0",
            "5:1:1",
            "-1:1:0.5",
            "nan:1:1",
            "0:1e9:0.0001",
        ] {
            assert!(
                matches!(
                    parse_args(["--example", "fps", "--sweep", bad]),
                    Err(CliError::Usage(_))
                ),
                "--sweep {bad} must be rejected"
            );
        }
        assert!(matches!(
            parse_args(["--example", "fps", "--sweep-format", "csv"]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse_args([
                "--example",
                "fps",
                "--sweep",
                "0:1:1",
                "--sweep-format",
                "tsv"
            ]),
            Err(CliError::Usage(_))
        ));
        // A sweep is a probability-curve query: cut-set enumeration flags and
        // cross-checks do not compose with it.
        assert!(matches!(
            parse_args(["--example", "fps", "--sweep", "0:1:1", "--all"]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse_args(["--example", "fps", "--sweep", "0:1:1", "--top-k", "2"]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse_args(["--example", "fps", "--sweep", "0:1:1", "--cross-check"]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse_args([
                "--example",
                "fps",
                "--analysis",
                "ascii",
                "--sweep",
                "0:1:1"
            ]),
            Err(CliError::Usage(_))
        ));
        // Batches accept --sweep but pick the format themselves (JSON report).
        assert!(parse_args(["--batch", "models/", "--sweep", "0:1:1"]).is_ok());
        assert!(matches!(
            parse_args([
                "--batch",
                "models/",
                "--sweep",
                "0:1:1",
                "--sweep-format",
                "csv"
            ]),
            Err(CliError::Usage(_))
        ));
        for flag in ["--sweep", "--sweep-format"] {
            assert!(USAGE.contains(flag), "usage must document {flag}");
        }
    }

    #[test]
    fn sweep_mode_emits_curves_in_both_formats_matching_point_queries() {
        let options = parse_args(["--example", "fps", "--sweep", "0:2:0.5", "--quiet"]).unwrap();
        let (json, summary) = run(&options).unwrap();
        let parsed: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert_eq!(parsed["backend"].as_str(), Some("maxsat"));
        let grid: Vec<f64> = parsed["grid"]
            .as_array()
            .unwrap()
            .iter()
            .map(|v| v.as_f64().unwrap())
            .collect();
        assert_eq!(grid, vec![0.0, 0.5, 1.0, 1.5, 2.0]);
        let probabilities: Vec<f64> = parsed["probabilities"]
            .as_array()
            .unwrap()
            .iter()
            .map(|v| v.as_f64().unwrap())
            .collect();
        assert_eq!(probabilities.len(), 5);
        // Every point must be bit-identical to the facade's point query
        // against the tree evaluated at that mission time.
        let tree = examples::fire_protection_system();
        for (&t, &p) in grid.iter().zip(&probabilities) {
            let point = Analyzer::for_tree(tree.at_time(t))
                .probability()
                .expect("solvable");
            assert_eq!(p.to_bits(), point.to_bits(), "CLI sweep diverged at t={t}");
        }
        assert!(summary.contains("sweep"), "summary: {summary}");

        let options = parse_args([
            "--example",
            "fps",
            "--sweep",
            "0:2:0.5",
            "--sweep-format",
            "csv",
            "--quiet",
        ])
        .unwrap();
        let (csv, _) = run(&options).unwrap();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "t,probability");
        assert_eq!(lines.len(), 6, "header + one row per grid point");
        assert!(lines[1].starts_with("0,"));
        // CSV rows round-trip to the exact JSON probabilities (Rust prints
        // the shortest exactly-round-tripping decimal).
        for (line, &p) in lines[1..].iter().zip(&probabilities) {
            let printed: f64 = line.split(',').nth(1).unwrap().parse().unwrap();
            assert_eq!(printed.to_bits(), p.to_bits());
        }
    }

    #[test]
    fn batch_sweeps_attach_curves_per_tree() {
        let dir = std::env::temp_dir().join(format!("mpmcs4fta_cli_sweep_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let tree = examples::fire_protection_system();
        fs::write(dir.join("fps.json"), json::to_json_string(&tree)).unwrap();
        let options = parse_args([
            "--batch",
            dir.to_str().unwrap(),
            "--sweep",
            "0:1:0.5",
            "--quiet",
        ])
        .unwrap();
        let (json, _) = run(&options).unwrap();
        let parsed: serde_json::Value = serde_json::from_str(&json).unwrap();
        let curve = &parsed["results"][0]["sweep"];
        assert_eq!(curve["grid"].as_array().map(|g| g.len()), Some(3));
        assert_eq!(curve["probabilities"].as_array().map(|p| p.len()), Some(3));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn cache_flags_are_parsed_validated_and_surface_counters() {
        let options = parse_args(["--example", "fps", "--cache", "--quiet"]).unwrap();
        assert!(options.cache);
        assert_eq!(options.cache_bytes, None);
        // --cache-bytes implies --cache.
        let options = parse_args(["--example", "fps", "--cache-bytes", "1048576"]).unwrap();
        assert!(options.cache);
        assert_eq!(options.cache_bytes, Some(1 << 20));
        assert!(matches!(
            parse_args(["--example", "fps", "--cache-bytes", "0"]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse_args(["--example", "fps", "--analysis", "ascii", "--cache"]),
            Err(CliError::Usage(_))
        ));
        for flag in ["--cache", "--cache-bytes"] {
            assert!(USAGE.contains(flag), "usage must document {flag}");
        }

        // Single-tree mode: the summary reports the counters, and with
        // --stats the JSON envelope carries them too.
        let options = parse_args(["--example", "fps", "--top-k", "3", "--cache"]).unwrap();
        let (_, summary) = run(&options).unwrap();
        assert!(summary.contains("cache: "), "summary: {summary}");
        let options =
            parse_args(["--example", "fps", "--top-k", "3", "--cache", "--stats"]).unwrap();
        let (json, _) = run(&options).unwrap();
        let parsed: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert!(parsed["cache_stats"]["misses"].as_u64().unwrap() > 0);
        assert_eq!(parsed["report"].as_array().map(|r| r.len()), Some(3));
    }

    #[test]
    fn cached_batches_report_identical_answers_and_their_counters() {
        let dir = std::env::temp_dir().join(format!("mpmcs4fta_cli_cache_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let tree = examples::fire_protection_system();
        // Two copies of the same model: the second is answered from the
        // cache within a single batch run.
        fs::write(dir.join("a.json"), json::to_json_string(&tree)).unwrap();
        fs::write(dir.join("b.json"), json::to_json_string(&tree)).unwrap();
        let run_batch_with = |extra: &[&str]| {
            // One worker: the second copy deterministically hits the entry
            // the first one deposited.
            let mut args = vec![
                "--batch",
                dir.to_str().unwrap(),
                "--top-k",
                "2",
                "--jobs",
                "1",
                "--quiet",
            ];
            args.extend(extra);
            let (json, _) = run(&parse_args(args).unwrap()).unwrap();
            json
        };
        let plain = run_batch_with(&[]);
        let cached = run_batch_with(&["--cache"]);
        let normalise = |text: &str| {
            serde_json::from_str::<ft_batch::BatchReport>(text)
                .expect("valid batch report")
                .to_deterministic_json()
        };
        assert_eq!(
            normalise(&plain),
            normalise(&cached),
            "--cache must not change a byte of the deterministic report"
        );
        let parsed: serde_json::Value = serde_json::from_str(&cached).unwrap();
        assert!(parsed["summary"]["cache"]["hits"].as_u64().unwrap() > 0);
        let plain_parsed: serde_json::Value = serde_json::from_str(&plain).unwrap();
        assert!(plain_parsed["summary"]["cache"].is_null());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn batch_mode_honours_the_solution_cap() {
        let dir = std::env::temp_dir().join(format!("mpmcs4fta_cli_budget_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let tree = examples::fire_protection_system();
        fs::write(dir.join("fps.json"), json::to_json_string(&tree)).unwrap();
        let options = parse_args([
            "--batch",
            dir.to_str().unwrap(),
            "--top-k",
            "5",
            "--max-solutions",
            "2",
            "--quiet",
        ])
        .unwrap();
        let result = run_with_status(&options).unwrap();
        assert!(result.truncated);
        let parsed: serde_json::Value = serde_json::from_str(&result.output).unwrap();
        let row = &parsed["results"][0];
        assert_eq!(row["truncated"].as_bool(), Some(true));
        assert_eq!(row["cut_sets"].as_array().map(|c| c.len()), Some(2));
        assert!(result.summary.contains("[truncated]"));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn batch_mode_aggregates_a_directory_deterministically() {
        let dir = std::env::temp_dir().join(format!("mpmcs4fta_cli_batch_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        fs::write(
            dir.join("and.dft"),
            "toplevel top;\ntop and a b;\na prob=0.5;\nb prob=0.25;\n",
        )
        .unwrap();
        let tree = examples::fire_protection_system();
        fs::write(dir.join("fps.json"), json::to_json_string(&tree)).unwrap();

        let run_with_jobs = |jobs: &str| {
            let options = parse_args([
                "--batch",
                dir.to_str().unwrap(),
                "--jobs",
                jobs,
                "--top-k",
                "2",
                "--quiet",
            ])
            .unwrap();
            run(&options).unwrap()
        };
        let (json_1, summary) = run_with_jobs("1");
        let (json_8, _) = run_with_jobs("8");

        let parsed: serde_json::Value = serde_json::from_str(&json_1).unwrap();
        let results = parsed["results"].as_array().unwrap();
        assert_eq!(results.len(), 2);
        // Directory order (lexicographic), not completion order.
        assert_eq!(results[0]["name"].as_str(), Some("and.dft"));
        assert_eq!(results[1]["name"].as_str(), Some("fps.json"));
        assert_eq!(results[1]["cut_sets"].as_array().map(|c| c.len()), Some(2));
        assert_eq!(parsed["summary"]["succeeded"].as_u64(), Some(2));
        assert!(summary.contains("2 trees (2 ok, 0 failed)"));

        // Byte-identical across worker counts, modulo timings + worker count:
        // round-trip through the typed report for its canonical deterministic
        // rendering.
        let normalise = |text: &str| {
            serde_json::from_str::<ft_batch::BatchReport>(text)
                .expect("run() emits a valid batch report")
                .to_deterministic_json()
        };
        assert_eq!(normalise(&json_1), normalise(&json_8));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_batch_directories_are_a_usage_error() {
        let dir = std::env::temp_dir().join(format!("mpmcs4fta_cli_empty_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let options = parse_args(["--batch", dir.to_str().unwrap()]).unwrap();
        assert!(matches!(run(&options), Err(CliError::Usage(_))));
        let _ = fs::remove_dir_all(&dir);
    }
}
