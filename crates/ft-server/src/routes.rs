//! Request routing: the content-addressed tree registry and the typed
//! query endpoints, mapped 1:1 onto the [`ft_session`] facade.
//!
//! Every query answer is rendered by [`ft_session::report`] — the same
//! functions the CLI uses — so an HTTP response body is byte-identical to
//! the equivalent local run. Enumeration endpoints additionally support
//! `?stream=true`, which delivers the answer as a chunked body with one
//! equal-cost tie group per chunk; the concatenated chunks reassemble to
//! exactly the collected rendering of the same solutions, and the
//! termination label travels in the `x-termination`/`x-truncated`
//! trailers (they are only known once the stream ends).

use std::io::{self, Write};
use std::sync::Arc;

use fault_tree::FaultTree;
use ft_backend::scaled_cut_cost;
use ft_session::report;
use ft_session::{
    Analyzer, BackendKind, BackendSolution, Budget, SessionError, SolutionStream, SweepRange,
    Termination,
};
use serde_json::json;

use crate::http::{ChunkedWriter, Request, Response};
use crate::Shared;

/// Trailer names declared by every streamed response.
const STREAM_TRAILERS: &[&str] = &["x-termination", "x-truncated", "x-delivered", "x-error"];

/// What the router decided: either a complete response, or a streaming
/// plan the connection loop executes against the raw socket.
pub(crate) enum Handled {
    /// A fixed-length response, ready to write.
    Full(Response),
    /// A chunked enumeration: the first solution is already pulled (so
    /// pre-body errors still get a proper status code).
    Stream(Box<StreamPlan>),
}

/// A chunked enumeration in flight, handed to [`stream_solutions`].
pub(crate) struct StreamPlan {
    tree: Arc<FaultTree>,
    stream: SolutionStream,
    first: Option<BackendSolution>,
    /// `Some(k)` for `top-k` — used to relabel a cap that merely satisfied
    /// the request as `complete`, mirroring the collected query.
    requested_k: Option<usize>,
    /// Whether the caller's `max-solutions` cap binds tighter than the
    /// request itself (only then may `solution-cap` be reported).
    cap_constrains: bool,
    stats: bool,
}

fn error_body(message: &str) -> String {
    serde_json::to_string_pretty(&json!({ "error": message }))
        .expect("error bodies always serialise")
}

pub(crate) fn error_json(status: u16, message: &str) -> Response {
    Response::json(status, error_body(message))
}

fn session_error_response(error: SessionError) -> Response {
    let status = match &error {
        SessionError::NoCutSet => 422,
        SessionError::Stopped(_) => 504,
        SessionError::UnknownTree(_) => 404,
        _ => 500,
    };
    if let SessionError::Stopped(termination) = &error {
        let body = serde_json::to_string_pretty(&json!({
            "error": error.to_string(),
            "termination": termination.label(),
        }))
        .expect("error bodies always serialise");
        return Response::json(status, body);
    }
    error_json(status, &error.to_string())
}

/// The query parameters shared by every analysis endpoint.
struct QuerySpec {
    backend: BackendKind,
    preprocess: bool,
    timeout_ms: Option<u64>,
    max_solutions: Option<usize>,
    stats: bool,
    stream: bool,
}

impl QuerySpec {
    /// Whether a budget is in force — selects the explicit
    /// `{"truncated", "termination", "report"}` envelope, exactly like the
    /// CLI's `--timeout-ms`/`--max-solutions` flags.
    fn budgeted(&self) -> bool {
        self.timeout_ms.is_some() || self.max_solutions.is_some()
    }
}

fn bool_param(request: &Request, name: &str) -> Result<bool, Response> {
    match request.param(name) {
        None => Ok(false),
        Some("true") | Some("1") => Ok(true),
        Some("false") | Some("0") => Ok(false),
        Some(other) => Err(error_json(
            400,
            &format!("parameter {name}={other:?} is not a boolean (true/false)"),
        )),
    }
}

fn u64_param(request: &Request, name: &str) -> Result<Option<u64>, Response> {
    match request.param(name) {
        None => Ok(None),
        Some(text) => text.parse::<u64>().map(Some).map_err(|_| {
            error_json(
                400,
                &format!("parameter {name}={text:?} is not a non-negative integer"),
            )
        }),
    }
}

fn query_spec(request: &Request) -> Result<QuerySpec, Response> {
    let backend = match request.param("backend") {
        None => BackendKind::MaxSat,
        Some(name) => BackendKind::parse(name).ok_or_else(|| {
            error_json(
                400,
                &format!("unknown backend {name:?} (expected maxsat, bdd, mocus or auto)"),
            )
        })?,
    };
    Ok(QuerySpec {
        backend,
        preprocess: bool_param(request, "preprocess")?,
        timeout_ms: u64_param(request, "timeout-ms")?,
        max_solutions: u64_param(request, "max-solutions")?.map(|n| n as usize),
        stats: bool_param(request, "stats")?,
        stream: bool_param(request, "stream")?,
    })
}

/// Builds the per-request analyzer. The server runs the facade's default,
/// deterministic OLL strategy — the CLI's default too — so answers are
/// reproducible and byte-comparable across front ends.
fn analyzer_for(shared: &Shared, tree: &Arc<FaultTree>, spec: &QuerySpec) -> Analyzer {
    let mut analyzer = Analyzer::for_shared(Arc::clone(tree))
        .backend(spec.backend)
        .preprocess(spec.preprocess)
        .budget(Budget::from_limits(spec.timeout_ms, spec.max_solutions))
        .cancel_token(shared.cancel.clone());
    if let Some(cache) = shared.service.shared_cache() {
        analyzer = analyzer.cache(Arc::clone(cache));
    }
    analyzer
}

fn tree_entry(name: &str, tree: &FaultTree) -> serde_json::Value {
    json!({
        "hash": name,
        "tree": tree.name(),
        "events": tree.num_events(),
        "gates": tree.num_gates(),
    })
}

fn handle_upload(shared: &Shared, request: &Request) -> Response {
    let text = match std::str::from_utf8(&request.body) {
        Ok(text) => text,
        Err(_) => return error_json(400, "request body is not valid UTF-8"),
    };
    let format = match request.param("format") {
        None => {
            if text.trim_start().starts_with('{') {
                "json"
            } else {
                "galileo"
            }
        }
        Some("json") => "json",
        Some("galileo") => "galileo",
        Some(other) => {
            return error_json(
                400,
                &format!("unknown format {other:?} (expected json or galileo)"),
            )
        }
    };
    let parsed = if format == "json" {
        fault_tree::parser::json::from_json_str(text)
    } else {
        fault_tree::parser::galileo::parse_galileo(text)
    };
    let tree = match parsed {
        Ok(tree) => tree,
        Err(error) => return error_json(400, &format!("could not parse {format} input: {error}")),
    };
    let (hash, tree, created) = shared.service.register_by_hash(tree);
    let mut entry = tree_entry(&hash, &tree);
    if let serde_json::Value::Object(map) = &mut entry {
        map.insert("created".to_string(), serde_json::Value::Bool(created));
    }
    let body = serde_json::to_string_pretty(&entry).expect("tree entries always serialise");
    Response::json(if created { 201 } else { 200 }, body)
}

fn handle_list(shared: &Shared) -> Response {
    let entries: Vec<serde_json::Value> = shared
        .service
        .list_trees()
        .iter()
        .map(|(name, tree)| tree_entry(name, tree))
        .collect();
    let body = serde_json::to_string_pretty(&json!({ "trees": entries }))
        .expect("tree listings always serialise");
    Response::json(200, body)
}

fn handle_delete(shared: &Shared, hash: &str) -> Response {
    if shared.service.remove(hash) {
        Response::empty(204)
    } else {
        error_json(404, &format!("no fault tree registered under {hash:?}"))
    }
}

fn handle_health(shared: &Shared) -> Response {
    let body = serde_json::to_string_pretty(&json!({
        "status": "ok",
        "trees": shared.service.len(),
    }))
    .expect("health reports always serialise");
    Response::json(200, body)
}

fn handle_stats(shared: &Shared) -> Response {
    let counters = shared.counters();
    let body = serde_json::to_string_pretty(&json!({
        "accepted": counters.accepted,
        "requests": counters.requests,
        "shed": counters.shed,
        "streamed": counters.streamed,
        "panics": counters.panics,
        "trees": shared.service.len(),
    }))
    .expect("stats reports always serialise");
    Response::json(200, body)
}

fn handle_query(shared: &Shared, request: &Request, hash: &str, query: &str) -> Handled {
    let tree = match shared.service.tree(hash) {
        Some(tree) => tree,
        None => {
            return Handled::Full(error_json(
                404,
                &format!("no fault tree registered under {hash:?}"),
            ))
        }
    };
    let spec = match query_spec(request) {
        Ok(spec) => spec,
        Err(response) => return Handled::Full(response),
    };

    match query {
        "mpmcs" => {
            let mut analyzer = analyzer_for(shared, &tree, &spec);
            Handled::Full(match analyzer.mpmcs() {
                Ok(best) => Response::json(
                    200,
                    report::render_report(
                        &tree,
                        std::slice::from_ref(&best),
                        Termination::Complete,
                        spec.budgeted(),
                        spec.stats,
                    ),
                ),
                Err(error) => session_error_response(error),
            })
        }
        "top-k" => {
            let k = match request.param("k") {
                Some(text) => match text.parse::<usize>() {
                    Ok(k) if k > 0 => k,
                    _ => {
                        return Handled::Full(error_json(
                            400,
                            &format!("parameter k={text:?} is not a positive integer"),
                        ))
                    }
                },
                None => {
                    return Handled::Full(error_json(
                        400,
                        "the top-k endpoint requires a k parameter",
                    ))
                }
            };
            enumeration(shared, &tree, spec, Some(k))
        }
        "all-mcs" => enumeration(shared, &tree, spec, None),
        "probability" => {
            let mut analyzer = analyzer_for(shared, &tree, &spec);
            let backend = analyzer.resolved_backend();
            Handled::Full(match analyzer.probability() {
                Ok(probability) => Response::json(
                    200,
                    report::render_probability(&tree, backend, spec.preprocess, probability),
                ),
                Err(error) => session_error_response(error),
            })
        }
        "importance" => {
            let mut analyzer = analyzer_for(shared, &tree, &spec);
            Handled::Full(match analyzer.importance() {
                Ok(table) => Response::json(200, report::render_importance(&table)),
                Err(error) => session_error_response(error),
            })
        }
        "sweep" => {
            let range = match request.param("range") {
                Some(text) => match SweepRange::parse(text) {
                    Ok(range) => range,
                    Err(message) => return Handled::Full(error_json(400, &message)),
                },
                None => {
                    return Handled::Full(error_json(
                        400,
                        "the sweep endpoint requires a range=START:END:STEP parameter",
                    ))
                }
            };
            let csv = match request.param("format") {
                None | Some("json") => false,
                Some("csv") => true,
                Some(other) => {
                    return Handled::Full(error_json(
                        400,
                        &format!("unknown sweep format {other:?} (expected json or csv)"),
                    ))
                }
            };
            let mut analyzer = analyzer_for(shared, &tree, &spec);
            let backend = analyzer.resolved_backend();
            Handled::Full(match analyzer.sweep(&range.grid()) {
                Ok(curve) if csv => Response {
                    status: 200,
                    headers: Vec::new(),
                    content_type: "text/csv",
                    body: report::render_sweep_csv(&curve).into_bytes(),
                },
                Ok(curve) => Response::json(
                    200,
                    report::render_sweep_json(&tree, backend, spec.preprocess, &curve),
                ),
                Err(error) => session_error_response(error),
            })
        }
        other => Handled::Full(error_json(404, &format!("unknown query {other:?}"))),
    }
}

/// A collected or streamed enumeration (`top-k` with `Some(k)`,
/// `all-mcs` with `None`).
fn enumeration(
    shared: &Shared,
    tree: &Arc<FaultTree>,
    spec: QuerySpec,
    k: Option<usize>,
) -> Handled {
    if !spec.stream {
        let mut analyzer = analyzer_for(shared, tree, &spec);
        let answer = match k {
            Some(k) => analyzer.top_k(k),
            None => analyzer.all_mcs(),
        };
        return Handled::Full(match answer {
            Ok(set) => Response::json(
                200,
                report::render_solution_set(tree, &set, spec.budgeted(), spec.stats),
            ),
            Err(error) => session_error_response(error),
        });
    }

    // Streamed: the effective cap is the tighter of the request size and
    // the caller's max-solutions (exactly the collected query's `target`).
    let cap_constrains = match (k, spec.max_solutions) {
        (Some(k), Some(cap)) => cap < k,
        (None, Some(_)) => true,
        _ => false,
    };
    let effective_cap = match (k, spec.max_solutions) {
        (Some(k), Some(cap)) => Some(k.min(cap)),
        (Some(k), None) => Some(k),
        (None, cap) => cap,
    };
    let adjusted = QuerySpec {
        max_solutions: effective_cap,
        ..spec
    };
    let analyzer = analyzer_for(shared, tree, &adjusted);
    let mut stream = analyzer.stream();
    // Pull the first item before committing to a 200: a query that fails
    // outright still earns its proper error status.
    let first = match stream.next() {
        Some(Ok(solution)) => Some(solution),
        Some(Err(error)) => return Handled::Full(session_error_response(error)),
        None => None,
    };
    Handled::Stream(Box::new(StreamPlan {
        tree: Arc::clone(tree),
        stream,
        first,
        requested_k: k,
        cap_constrains,
        stats: adjusted.stats,
    }))
}

/// One report object, pretty-printed as an element of a JSON array at
/// nesting level 1 (every line after the first gains one indent step), so
/// that concatenated tie-group chunks reproduce `to_string_pretty` of the
/// whole array byte-for-byte.
fn array_element(tree: &FaultTree, solution: &BackendSolution, stats: bool) -> String {
    report::render_report(
        tree,
        std::slice::from_ref(solution),
        Termination::Complete,
        false,
        stats,
    )
    .replace('\n', "\n  ")
}

/// Executes a [`StreamPlan`] as a chunked response: one equal-cost tie
/// group per chunk, termination labels in the trailers.
pub(crate) fn stream_solutions<W: Write>(
    plan: StreamPlan,
    out: W,
    keep_alive: bool,
) -> io::Result<()> {
    let StreamPlan {
        tree,
        mut stream,
        first,
        requested_k,
        cap_constrains,
        stats,
    } = plan;
    let mut writer =
        ChunkedWriter::start(out, 200, "application/json", STREAM_TRAILERS, keep_alive)?;

    let mut group: Vec<BackendSolution> = Vec::new();
    let mut group_cost: Option<u64> = None;
    let mut groups_emitted = 0usize;
    let mut failure: Option<SessionError> = None;
    let mut delivered = 0usize;

    // `close_group` flushes the buffered tie group as one chunk. The very
    // first flush decides the collected shape: a single solution that is
    // the entire answer renders as a bare object, anything else opens an
    // array. `more` says whether further solutions are known to follow.
    let flush_group = |group: &mut Vec<BackendSolution>,
                       groups_emitted: &mut usize,
                       more: bool,
                       writer: &mut ChunkedWriter<W>|
     -> io::Result<()> {
        if group.is_empty() {
            return Ok(());
        }
        let mut chunk = String::new();
        if *groups_emitted == 0 {
            if !more && group.len() == 1 {
                // The whole answer is one solution: the bare-object shape.
                chunk =
                    report::render_report(&tree, &group[..1], Termination::Complete, false, stats);
                writer.write_chunk(chunk.as_bytes())?;
                group.clear();
                *groups_emitted += 1;
                return Ok(());
            }
            chunk.push_str("[\n  ");
        } else {
            chunk.push_str(",\n  ");
        }
        let elements: Vec<String> = group
            .iter()
            .map(|solution| array_element(&tree, solution, stats))
            .collect();
        chunk.push_str(&elements.join(",\n  "));
        writer.write_chunk(chunk.as_bytes())?;
        group.clear();
        *groups_emitted += 1;
        Ok(())
    };

    let push = |solution: BackendSolution,
                group: &mut Vec<BackendSolution>,
                group_cost: &mut Option<u64>,
                groups_emitted: &mut usize,
                writer: &mut ChunkedWriter<W>|
     -> io::Result<()> {
        let cost = scaled_cut_cost(&tree, &solution.cut_set);
        if group_cost.is_some_and(|current| current != cost) {
            flush_group(group, groups_emitted, true, writer)?;
        }
        *group_cost = Some(cost);
        group.push(solution);
        Ok(())
    };

    if let Some(solution) = first {
        delivered += 1;
        push(
            solution,
            &mut group,
            &mut group_cost,
            &mut groups_emitted,
            &mut writer,
        )?;
    }
    for item in stream.by_ref() {
        match item {
            Ok(solution) => {
                delivered += 1;
                push(
                    solution,
                    &mut group,
                    &mut group_cost,
                    &mut groups_emitted,
                    &mut writer,
                )?;
            }
            Err(error) => {
                failure = Some(error);
                break;
            }
        }
    }
    let single = groups_emitted == 0 && group.len() == 1 && failure.is_none();
    flush_group(&mut group, &mut groups_emitted, false, &mut writer)?;
    if delivered == 0 {
        // An empty family (budget fired before the first solution, or a
        // capped query over an empty prefix) is the empty-array shape.
        writer.write_chunk(b"[]")?;
    } else if !single {
        writer.write_chunk(b"\n]")?;
    }

    let termination = match &failure {
        Some(_) => Termination::Failed,
        None => {
            let raw = stream.termination().unwrap_or(Termination::Complete);
            // A cap that merely satisfied the requested k is not a
            // truncation — mirror the collected query's labelling.
            if raw == Termination::SolutionCap && !cap_constrains && requested_k == Some(delivered)
            {
                Termination::Complete
            } else {
                raw
            }
        }
    };
    let mut trailers = vec![
        ("x-termination", termination.label().to_string()),
        ("x-truncated", termination.is_truncated().to_string()),
        ("x-delivered", delivered.to_string()),
    ];
    if let Some(error) = &failure {
        trailers.push(("x-error", error.to_string().replace(['\r', '\n'], " ")));
    }
    writer.finish(&trailers)
}

/// A test route whose streamed answer panics once its `200` is out: the
/// solutions come from the paper's example tree, but the stream renders
/// them against a one-event tree that lacks their events.
#[cfg(test)]
fn panic_mid_stream(shared: &Shared) -> Handled {
    let spec = QuerySpec {
        backend: BackendKind::MaxSat,
        preprocess: false,
        timeout_ms: None,
        max_solutions: None,
        stats: false,
        stream: true,
    };
    let tree = Arc::new(fault_tree::examples::fire_protection_system());
    let mut handled = enumeration(shared, &tree, spec, None);
    if let Handled::Stream(plan) = &mut handled {
        let mut builder = fault_tree::FaultTreeBuilder::new("one event");
        let only = builder.basic_event("only", 0.5).expect("valid event");
        plan.tree = Arc::new(builder.build(only.into()).expect("valid tree"));
    }
    handled
}

/// The verbs a known path shape answers to, for `405 Method Not Allowed`.
fn allowed_methods(segments: &[&str]) -> Option<&'static str> {
    match segments {
        ["health"] | ["stats"] => Some("GET"),
        ["trees"] => Some("GET, POST"),
        ["trees", _] => Some("DELETE"),
        ["trees", _, "mpmcs" | "top-k" | "all-mcs" | "probability" | "importance" | "sweep"] => {
            Some("GET")
        }
        _ => None,
    }
}

/// Routes one parsed request.
pub(crate) fn handle(shared: &Shared, request: &Request) -> Handled {
    let segments: Vec<&str> = request.path.split('/').filter(|s| !s.is_empty()).collect();
    match (request.method.as_str(), segments.as_slice()) {
        ("GET", ["health"]) => Handled::Full(handle_health(shared)),
        ("GET", ["stats"]) => Handled::Full(handle_stats(shared)),
        ("POST", ["trees"]) => Handled::Full(handle_upload(shared, request)),
        ("GET", ["trees"]) => Handled::Full(handle_list(shared)),
        ("DELETE", ["trees", hash]) => Handled::Full(handle_delete(shared, hash)),
        ("GET", ["trees", hash, query]) => handle_query(shared, request, hash, query),
        #[cfg(test)]
        ("GET", ["panic"]) => panic!("a test route that always panics"),
        #[cfg(test)]
        ("GET", ["panic-mid-stream"]) => panic_mid_stream(shared),
        (_, segments) => Handled::Full(match allowed_methods(segments) {
            Some(allow) => error_json(
                405,
                &format!("method {} is not allowed here", request.method),
            )
            .with_header("Allow", allow.to_string()),
            None => error_json(404, &format!("no route for {:?}", request.path)),
        }),
    }
}
