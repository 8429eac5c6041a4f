//! Socket-level integration suite for the `ft-server` HTTP front end.
//!
//! The server promises that its JSON answers are **byte-identical** to the
//! CLI's for the same tree and flags — both render through
//! `ft_session::report`, and this suite holds them to it over a real TCP
//! socket, for every bundled model × backend, with many clients in flight
//! at once. On top of the identity matrix it checks the protocol edges:
//! chunked streams reassemble to exactly the collected answer, budget
//! expiry yields a labelled envelope instead of a silently short answer,
//! malformed requests get clean 4xx JSON errors, and a graceful shutdown
//! drains requests that were already on the wire.

use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use ft_server::http::{read_response, ClientResponse};
use ft_server::{Server, ServerConfig, ServerHandle};

const BACKENDS: [&str; 3] = ["maxsat", "bdd", "mocus"];

fn start(workers: usize, queue_depth: usize) -> ServerHandle {
    Server::start(ServerConfig {
        workers,
        queue_depth,
        ..ServerConfig::default()
    })
    .expect("the server binds an ephemeral loopback port")
}

fn send(addr: SocketAddr, request: &str) -> ClientResponse {
    let mut stream = TcpStream::connect(addr).expect("connect to the test server");
    stream
        .write_all(request.as_bytes())
        .expect("write the request");
    let mut reader = BufReader::new(stream);
    read_response(&mut reader).expect("read the response")
}

fn get(addr: SocketAddr, path: &str) -> ClientResponse {
    send(
        addr,
        &format!("GET {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n"),
    )
}

fn post(addr: SocketAddr, path: &str, body: &str) -> ClientResponse {
    send(
        addr,
        &format!(
            "POST {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        ),
    )
}

/// Strips the per-solution wall-clock line — the only run-dependent bytes
/// in a report. The CLI suite redacts the same way.
fn redact(text: &str) -> String {
    text.lines()
        .filter(|line| !line.contains("\"solve_time_ms\""))
        .collect::<Vec<_>>()
        .join("\n")
}

fn cli(args: &[&str]) -> String {
    let options = mpmcs4fta_cli::parse_args(args.iter().copied()).expect("valid CLI flags");
    mpmcs4fta_cli::run_with_status(&options)
        .expect("the CLI run succeeds")
        .output
}

fn bundled_models() -> Vec<PathBuf> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/trees");
    let mut paths: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("examples/trees/ ships with the repository")
        .map(|entry| entry.expect("readable directory entry").path())
        .collect();
    paths.sort();
    assert!(!paths.is_empty(), "examples/trees/ must not be empty");
    paths
}

/// Uploads a model file and returns the content hash the server filed it
/// under.
fn upload(addr: SocketAddr, path: &Path) -> String {
    let text = std::fs::read_to_string(path).expect("readable model file");
    let format = if path.extension().and_then(|e| e.to_str()) == Some("json") {
        "json"
    } else {
        "galileo"
    };
    let response = post(addr, &format!("/trees?format={format}"), &text);
    assert!(
        response.status == 201 || response.status == 200,
        "upload of {} answered {}: {}",
        path.display(),
        response.status,
        response.text()
    );
    let entry: serde_json::Value = serde_json::from_str(&response.text()).expect("JSON entry");
    entry["hash"]
        .as_str()
        .expect("the upload answer carries the content hash")
        .to_string()
}

/// The identity matrix: every bundled model × backend, exercised by
/// concurrent clients (one thread per combination — far more than four in
/// flight at once). For each combination the server's `mpmcs`, `top-k` and
/// `all-mcs` answers must be byte-identical to the CLI's, and the chunked
/// stream of `all-mcs` must reassemble to exactly the collected answer.
#[test]
fn server_answers_are_byte_identical_to_the_cli_for_every_model_and_backend() {
    let handle = start(4, 64);
    let addr = handle.addr();
    let cases: Vec<(String, PathBuf)> = bundled_models()
        .into_iter()
        .map(|path| (upload(addr, &path), path))
        .collect();

    let threads: Vec<_> = cases
        .into_iter()
        .flat_map(|(hash, path)| {
            BACKENDS.into_iter().map(move |backend| {
                let hash = hash.clone();
                let path = path.clone();
                std::thread::spawn(move || {
                    let model = path.to_str().expect("UTF-8 path");
                    let flags = ["--backend", backend];

                    // The MPMCS report.
                    let response = get(addr, &format!("/trees/{hash}/mpmcs?backend={backend}"));
                    assert_eq!(response.status, 200, "{model}/{backend}: {}", response.text());
                    let mut args = vec![model];
                    args.extend_from_slice(&flags);
                    assert_eq!(
                        redact(&response.text()),
                        redact(&cli(&args)),
                        "{model} × {backend}: mpmcs differs between server and CLI"
                    );

                    // The two most probable cut sets.
                    let response = get(addr, &format!("/trees/{hash}/top-k?backend={backend}&k=2"));
                    assert_eq!(response.status, 200, "{model}/{backend}: {}", response.text());
                    let mut args = vec![model, "--top-k", "2"];
                    args.extend_from_slice(&flags);
                    assert_eq!(
                        redact(&response.text()),
                        redact(&cli(&args)),
                        "{model} × {backend}: top-k differs between server and CLI"
                    );

                    // The full enumeration, collected …
                    let collected = get(addr, &format!("/trees/{hash}/all-mcs?backend={backend}"));
                    assert_eq!(collected.status, 200);
                    let mut args = vec![model, "--all"];
                    args.extend_from_slice(&flags);
                    assert_eq!(
                        redact(&collected.text()),
                        redact(&cli(&args)),
                        "{model} × {backend}: all-mcs differs between server and CLI"
                    );

                    // … and streamed: the chunks must reassemble to exactly
                    // the collected bytes, with the verdict in the trailers.
                    let streamed =
                        get(addr, &format!("/trees/{hash}/all-mcs?backend={backend}&stream=true"));
                    assert_eq!(streamed.status, 200);
                    assert_eq!(
                        redact(&streamed.text()),
                        redact(&collected.text()),
                        "{model} × {backend}: the stream does not reassemble to the collected answer"
                    );
                    assert_eq!(streamed.trailer("x-termination"), Some("complete"));
                    assert_eq!(streamed.trailer("x-truncated"), Some("false"));
                })
            })
        })
        .collect();
    assert!(threads.len() >= 4, "the matrix must exercise concurrency");
    for thread in threads {
        thread.join().expect("a comparison thread panicked");
    }
    handle.shutdown();
}

/// The analysis endpoints beyond enumeration: `probability`, `importance`
/// and `sweep` must match the shared renderers (and, for sweeps, the CLI's
/// `--sweep`) byte for byte.
#[test]
fn analysis_endpoints_match_the_shared_renderers() {
    let handle = start(2, 16);
    let addr = handle.addr();
    let model_path =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/trees/fire_protection.json");
    let model = model_path.to_str().expect("UTF-8 path");
    let hash = upload(addr, &model_path);

    let text = std::fs::read_to_string(&model_path).expect("readable model");
    let tree = std::sync::Arc::new(
        fault_tree::parser::json::from_json_str(&text).expect("valid bundled model"),
    );

    for backend in BACKENDS {
        let kind = ft_backend::BackendKind::parse(backend).expect("known backend");

        let response = get(
            addr,
            &format!("/trees/{hash}/probability?backend={backend}"),
        );
        assert_eq!(response.status, 200);
        let mut analyzer =
            ft_session::Analyzer::for_shared(std::sync::Arc::clone(&tree)).backend(kind);
        let resolved = analyzer.resolved_backend();
        let probability = analyzer.probability().expect("probability query succeeds");
        assert_eq!(
            response.text(),
            ft_session::report::render_probability(&tree, resolved, false, probability),
            "{backend}: probability differs from the facade rendering"
        );

        let response = get(addr, &format!("/trees/{hash}/importance?backend={backend}"));
        assert_eq!(response.status, 200);
        let table = analyzer.importance().expect("importance query succeeds");
        assert_eq!(
            response.text(),
            ft_session::report::render_importance(&table),
            "{backend}: importance differs from the facade rendering"
        );
    }

    // Sweeps against the CLI, in both output formats.
    let response = get(addr, &format!("/trees/{hash}/sweep?range=0:2:0.5"));
    assert_eq!(response.status, 200);
    assert_eq!(
        response.text(),
        cli(&[model, "--sweep", "0:2:0.5"]),
        "sweep (json) differs between server and CLI"
    );
    let response = get(
        addr,
        &format!("/trees/{hash}/sweep?range=0:2:0.5&format=csv"),
    );
    assert_eq!(response.status, 200);
    assert_eq!(
        response.text(),
        cli(&[model, "--sweep", "0:2:0.5", "--sweep-format", "csv"]),
        "sweep (csv) differs between server and CLI"
    );
    handle.shutdown();
}

/// The CLI's `--analysis importance` and the server's importance endpoint on
/// the MOCUS engine are the same facade query: for every bundled model their
/// bytes agree, Fussell–Vesely digits included.
#[test]
fn cli_importance_is_byte_identical_to_the_mocus_importance_endpoint() {
    let handle = start(2, 16);
    let addr = handle.addr();
    for path in bundled_models() {
        let hash = upload(addr, &path);
        let model = path.to_str().expect("UTF-8 path");
        let response = get(addr, &format!("/trees/{hash}/importance?backend=mocus"));
        assert_eq!(response.status, 200, "{model}: {}", response.text());
        assert_eq!(
            response.text(),
            cli(&[model, "--analysis", "importance"]),
            "{model}: importance differs between server and CLI"
        );
    }
    handle.shutdown();
}

/// Budgets must label, not hide. A `max-solutions` cap and an already-spent
/// deadline both produce the explicit envelope with `truncated`/`termination`
/// fields, in bounded time even on the largest bundled model.
#[test]
fn budget_expiry_is_labelled_and_terminates_in_flight_work() {
    let handle = start(2, 16);
    let addr = handle.addr();
    let model =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/trees/water_treatment_scada.json");
    let hash = upload(addr, &model);

    // Cap the enumeration below the answer size: solution-cap envelope.
    let response = get(addr, &format!("/trees/{hash}/all-mcs?max-solutions=1"));
    assert_eq!(response.status, 200);
    let envelope: serde_json::Value = serde_json::from_str(&response.text()).expect("JSON");
    assert_eq!(envelope["truncated"], serde_json::json!(true));
    assert_eq!(envelope["termination"], serde_json::json!("solution-cap"));
    assert!(
        envelope.get("report").is_some(),
        "the prefix is still reported"
    );

    // A deadline that has already expired: the query must come back quickly,
    // labelled — never hang, never pretend completeness.
    let start_time = Instant::now();
    let response = get(addr, &format!("/trees/{hash}/all-mcs?timeout-ms=0"));
    assert!(
        start_time.elapsed() < Duration::from_secs(10),
        "an expired budget must terminate in-flight work promptly"
    );
    assert_eq!(response.status, 200);
    let envelope: serde_json::Value = serde_json::from_str(&response.text()).expect("JSON");
    assert_eq!(envelope["truncated"], serde_json::json!(true));
    assert_eq!(envelope["termination"], serde_json::json!("deadline"));

    // A budgeted stream labels the truncation in its trailers.
    let response = get(
        addr,
        &format!("/trees/{hash}/all-mcs?max-solutions=1&stream=true"),
    );
    assert_eq!(response.status, 200);
    assert_eq!(response.trailer("x-truncated"), Some("true"));
    assert_eq!(response.trailer("x-termination"), Some("solution-cap"));
    assert_eq!(response.trailer("x-delivered"), Some("1"));
    handle.shutdown();
}

/// Malformed requests get clean, specific 4xx answers — never a hang, a
/// reset, or a 500.
#[test]
fn malformed_requests_get_clean_4xx_answers() {
    let handle = start(2, 16);
    let addr = handle.addr();
    let model = Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/trees/pressure_tank.dft");
    let hash = upload(addr, &model);

    // Unparseable uploads.
    for (path, body) in [
        ("/trees?format=json", "{ not json"),
        ("/trees?format=galileo", "toplevel or(;;;"),
        ("/trees?format=cobol", "IDENTIFICATION DIVISION."),
    ] {
        let response = post(addr, path, body);
        assert_eq!(response.status, 400, "{path}: {}", response.text());
        let error: serde_json::Value = serde_json::from_str(&response.text()).expect("JSON error");
        assert!(error["error"].as_str().is_some(), "errors carry a message");
    }

    // Unknown trees and endpoints.
    assert_eq!(get(addr, "/trees/no-such-hash/mpmcs").status, 404);
    assert_eq!(get(addr, "/no/such/endpoint").status, 404);

    // Bad query parameters.
    for path in [
        &format!("/trees/{hash}/top-k")[..],
        &format!("/trees/{hash}/top-k?k=0"),
        &format!("/trees/{hash}/top-k?k=many"),
        &format!("/trees/{hash}/mpmcs?backend=quantum"),
        &format!("/trees/{hash}/mpmcs?timeout-ms=soon"),
        &format!("/trees/{hash}/mpmcs?stream=maybe"),
        &format!("/trees/{hash}/sweep?range=5:1:1"),
        &format!("/trees/{hash}/sweep"),
    ] {
        let response = get(addr, path);
        assert_eq!(response.status, 400, "{path}: {}", response.text());
    }

    // Wrong methods advertise what is allowed.
    let response = send(
        addr,
        "PUT /trees HTTP/1.1\r\nHost: test\r\nContent-Length: 0\r\nConnection: close\r\n\r\n",
    );
    assert_eq!(response.status, 405);
    assert!(response.header("allow").is_some(), "405 carries Allow");

    // A POST with no Content-Length is rejected up front.
    let response = send(
        addr,
        "POST /trees HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n",
    );
    assert_eq!(response.status, 411);
    handle.shutdown();
}

/// Graceful shutdown drains work already on the wire: a request written
/// before the shutdown begins still gets its complete answer, and the
/// shutdown itself finishes within a bounded deadline.
#[test]
fn graceful_shutdown_drains_inflight_requests_within_the_deadline() {
    let handle = start(2, 16);
    let addr = handle.addr();
    let model =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/trees/aircraft_hydraulics.json");
    let hash = upload(addr, &model);

    // Put a request on the wire, give the worker a moment to pick it up …
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .write_all(
            format!("GET /trees/{hash}/all-mcs HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n")
                .as_bytes(),
        )
        .expect("write the request");
    std::thread::sleep(Duration::from_millis(100));

    // … then shut the server down from another thread while the answer is
    // still being computed or written.
    let shutdown = std::thread::spawn(move || {
        let start_time = Instant::now();
        handle.shutdown();
        start_time.elapsed()
    });

    let mut reader = BufReader::new(stream);
    let response = read_response(&mut reader).expect("the in-flight request is drained");
    assert_eq!(response.status, 200);
    serde_json::from_str::<serde_json::Value>(&response.text()).expect("a complete JSON answer");

    let elapsed = shutdown.join().expect("shutdown thread");
    assert!(
        elapsed < Duration::from_secs(10),
        "graceful shutdown must finish within the deadline, took {elapsed:?}"
    );
}
