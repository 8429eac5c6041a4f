//! A zero-dependency HTTP/1.1 front end for fault-tree analysis.
//!
//! This crate turns the [`ft_session::AnalysisService`] facade into a
//! network service using nothing but `std::net`: a hand-rolled HTTP/1.1
//! layer ([`http`]), a content-addressed tree registry, typed query
//! endpoints mapped 1:1 onto the facade, chunked streaming of solution
//! enumerations, and explicit capacity management — a fixed worker pool,
//! a bounded accept queue with `503` load shedding, per-connection
//! read/write timeouts, and graceful drain on shutdown. A request whose
//! handler panics is answered `500` and counted (`panics` in `GET /stats`);
//! the worker that served it stays in the pool.
//!
//! # Endpoints
//!
//! | Route | Meaning |
//! |---|---|
//! | `POST /trees` | Register a Galileo or JSON model; the handle is its canonical content hash (idempotent) |
//! | `GET /trees` | List registered trees |
//! | `DELETE /trees/{hash}` | Evict a tree |
//! | `GET /trees/{hash}/mpmcs` | The Maximum Probability Minimal Cut Set |
//! | `GET /trees/{hash}/top-k?k=N` | The `k` most probable minimal cut sets |
//! | `GET /trees/{hash}/all-mcs` | Every minimal cut set |
//! | `GET /trees/{hash}/probability` | Exact top-event probability |
//! | `GET /trees/{hash}/importance` | Per-event importance measures |
//! | `GET /trees/{hash}/sweep?range=S:E:T` | Mission-time probability curve |
//! | `GET /health`, `GET /stats` | Liveness and the accepted/requests/shed/streamed/panics counters |
//!
//! Query endpoints accept `backend` (`maxsat`/`bdd`/`mocus`/`auto`),
//! `preprocess`, `timeout-ms`, `max-solutions` and `stats` parameters —
//! the exact vocabulary of the CLI flags — and budget-truncated answers
//! always arrive in the explicit `{"truncated", "termination", "report"}`
//! envelope. Enumeration endpoints take `stream=true` to deliver the
//! answer chunk-by-chunk, one equal-cost tie group per chunk, with the
//! termination label in the `x-termination`/`x-truncated` trailers. All
//! response bodies are rendered by [`ft_session::report`], the same
//! functions the CLI uses, so HTTP answers are **byte-identical** to
//! local runs.
//!
//! # Quick start
//!
//! ```rust
//! use ft_server::{Server, ServerConfig};
//! use std::io::{BufReader, Write};
//! use std::net::TcpStream;
//!
//! let handle = Server::start(ServerConfig::default()).unwrap();
//! let mut socket = TcpStream::connect(handle.addr()).unwrap();
//! write!(socket, "GET /health HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
//! let response = ft_server::http::read_response(&mut BufReader::new(&socket)).unwrap();
//! assert_eq!(response.status, 200);
//! handle.shutdown();
//! ```

#![deny(unsafe_code)]
#![deny(missing_docs)]

pub mod http;
mod routes;
pub mod signal;

use std::collections::VecDeque;
use std::io::{self, BufRead, BufReader};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ft_backend::AnalysisCache;
use ft_session::{AnalysisService, CancelToken};

use http::{read_request, write_response, Response};
use routes::Handled;

/// How a [`Server`] listens and how much work it admits.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Interface to bind (default `127.0.0.1`).
    pub host: String,
    /// Port to bind; `0` picks an ephemeral port (default).
    pub port: u16,
    /// Fixed worker-pool size (default 4).
    pub workers: usize,
    /// Bounded accept-queue depth; connections beyond it are shed with
    /// `503` + `Retry-After` (default 16).
    pub queue_depth: usize,
    /// Attach a shared [`AnalysisCache`] of this many bytes (default none).
    pub cache_bytes: Option<usize>,
    /// Largest accepted request body (default 8 MiB).
    pub max_body_bytes: usize,
    /// Per-connection read timeout while inside a request (default 10 s).
    pub read_timeout_ms: u64,
    /// Per-connection write timeout (default 10 s).
    pub write_timeout_ms: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            host: "127.0.0.1".to_string(),
            port: 0,
            workers: 4,
            queue_depth: 16,
            cache_bytes: None,
            max_body_bytes: 8 * 1024 * 1024,
            read_timeout_ms: 10_000,
            write_timeout_ms: 10_000,
        }
    }
}

/// A snapshot of the server's admission counters (`GET /stats`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ServerCounters {
    /// Connections accepted (admitted or shed).
    pub accepted: u64,
    /// Requests parsed and routed.
    pub requests: u64,
    /// Connections refused with `503` because the queue was full.
    pub shed: u64,
    /// Requests answered with a chunked streaming body.
    pub streamed: u64,
    /// Requests whose handler panicked: answered `500` before the response
    /// started, or cut off by closing the connection once a streamed `200`
    /// was under way. The worker survives either way.
    pub panics: u64,
}

/// State shared between the accept thread, the workers and the handle.
pub(crate) struct Shared {
    pub(crate) service: AnalysisService,
    pub(crate) cancel: CancelToken,
    shutdown: AtomicBool,
    queue: Mutex<VecDeque<TcpStream>>,
    available: Condvar,
    accepted: AtomicU64,
    requests: AtomicU64,
    shed: AtomicU64,
    streamed: AtomicU64,
    panics: AtomicU64,
    queue_depth: usize,
    max_body_bytes: usize,
    read_timeout: Duration,
    write_timeout: Duration,
}

impl Shared {
    pub(crate) fn counters(&self) -> ServerCounters {
        ServerCounters {
            accepted: self.accepted.load(Ordering::Relaxed),
            requests: self.requests.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            streamed: self.streamed.load(Ordering::Relaxed),
            panics: self.panics.load(Ordering::Relaxed),
        }
    }

    fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }
}

/// The zero-dependency HTTP front end. [`Server::start`] binds the
/// listener and returns a [`ServerHandle`] that owns the threads.
pub struct Server;

impl Server {
    /// Binds `config.host:config.port`, spawns the accept thread and the
    /// worker pool, and returns the controlling handle.
    ///
    /// # Errors
    ///
    /// Propagates socket-level failures (bind, local-address lookup).
    pub fn start(config: ServerConfig) -> io::Result<ServerHandle> {
        let listener = TcpListener::bind((config.host.as_str(), config.port))?;
        let addr = listener.local_addr()?;
        let mut service = AnalysisService::new();
        if let Some(bytes) = config.cache_bytes {
            service = service.with_cache(Arc::new(AnalysisCache::new(bytes)));
        }
        let shared = Arc::new(Shared {
            service,
            cancel: CancelToken::new(),
            shutdown: AtomicBool::new(false),
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            accepted: AtomicU64::new(0),
            requests: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            streamed: AtomicU64::new(0),
            panics: AtomicU64::new(0),
            queue_depth: config.queue_depth.max(1),
            max_body_bytes: config.max_body_bytes,
            read_timeout: Duration::from_millis(config.read_timeout_ms.max(1)),
            write_timeout: Duration::from_millis(config.write_timeout_ms.max(1)),
        });

        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("ft-server-accept".to_string())
                .spawn(move || accept_loop(&shared, listener))?
        };
        let workers = (0..config.workers.max(1))
            .map(|index| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("ft-server-worker-{index}"))
                    .spawn(move || worker_loop(&shared))
            })
            .collect::<io::Result<Vec<_>>>()?;

        Ok(ServerHandle {
            addr,
            shared,
            accept: Some(accept),
            workers,
        })
    }
}

/// Owns a running server: its address, threads and shared state.
/// Dropping the handle shuts the server down gracefully.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (reports the real port when `port` was 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The tree registry behind the endpoints — lets embedders preload
    /// models without a round trip.
    pub fn service(&self) -> &AnalysisService {
        &self.shared.service
    }

    /// Current admission counters.
    pub fn counters(&self) -> ServerCounters {
        self.shared.counters()
    }

    /// Graceful shutdown: stop accepting, cancel in-flight queries via
    /// the shared [`CancelToken`], drain the queue, join every thread.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        if self.accept.is_none() {
            return;
        }
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.cancel.cancel();
        self.shared.available.notify_all();
        // Unblock the accept thread with a throwaway connection; if the
        // connect fails the listener is already gone.
        let _ = TcpStream::connect(self.addr);
        if let Some(thread) = self.accept.take() {
            let _ = thread.join();
        }
        self.shared.available.notify_all();
        for thread in self.workers.drain(..) {
            let _ = thread.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

fn accept_loop(shared: &Shared, listener: TcpListener) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                if shared.shutting_down() {
                    break;
                }
                continue;
            }
        };
        if shared.shutting_down() {
            break;
        }
        shared.accepted.fetch_add(1, Ordering::Relaxed);
        let _ = stream.set_nodelay(true);
        let _ = stream.set_read_timeout(Some(shared.read_timeout));
        let _ = stream.set_write_timeout(Some(shared.write_timeout));
        let mut queue = shared.queue.lock().expect("accept queue poisoned");
        if queue.len() >= shared.queue_depth {
            drop(queue);
            shared.shed.fetch_add(1, Ordering::Relaxed);
            let response = routes::error_json(503, "server is saturated; retry shortly")
                .with_header("Retry-After", "1".to_string());
            let mut stream = stream;
            let _ = write_response(&mut stream, &response, false);
        } else {
            queue.push_back(stream);
            drop(queue);
            shared.available.notify_one();
        }
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let next = {
            let mut queue = shared.queue.lock().expect("accept queue poisoned");
            loop {
                if let Some(stream) = queue.pop_front() {
                    break Some(stream);
                }
                if shared.shutting_down() {
                    break None;
                }
                queue = shared.available.wait(queue).expect("accept queue poisoned");
            }
        };
        let Some(stream) = next else { break };
        let _ = serve_connection(shared, stream);
    }
}

/// How often an idle keep-alive connection re-checks the shutdown flag.
const IDLE_POLL: Duration = Duration::from_millis(100);

/// Waits for the first byte of the next request without consuming it,
/// polling so an idle connection notices shutdown within [`IDLE_POLL`].
/// Returns `false` when the connection should close (EOF, idle timeout,
/// socket error or shutdown).
fn await_next_request(
    shared: &Shared,
    stream: &TcpStream,
    reader: &mut BufReader<TcpStream>,
) -> bool {
    let started = Instant::now();
    let _ = stream.set_read_timeout(Some(IDLE_POLL.min(shared.read_timeout)));
    let ready = loop {
        match reader.fill_buf() {
            Ok([]) => break false,
            Ok(_) => break true,
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                if shared.shutting_down() || started.elapsed() >= shared.read_timeout {
                    break false;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => break false,
        }
    };
    let _ = stream.set_read_timeout(Some(shared.read_timeout));
    ready
}

fn serve_connection(shared: &Shared, stream: TcpStream) -> io::Result<()> {
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    loop {
        if !await_next_request(shared, &writer, &mut reader) {
            break;
        }
        match read_request(&mut reader, shared.max_body_bytes) {
            Ok(None) => break,
            Ok(Some(request)) => {
                shared.requests.fetch_add(1, Ordering::Relaxed);
                let keep_alive = request.wants_keep_alive() && !shared.shutting_down();
                // A panicking handler must cost one request, never the
                // worker: catch it, count it, answer 500 and close.
                match catch_unwind(AssertUnwindSafe(|| routes::handle(shared, &request))) {
                    Ok(Handled::Full(response)) => {
                        write_response(&mut writer, &response, keep_alive)?;
                    }
                    Ok(Handled::Stream(plan)) => {
                        shared.streamed.fetch_add(1, Ordering::Relaxed);
                        let streamed = catch_unwind(AssertUnwindSafe(|| {
                            routes::stream_solutions(*plan, &mut writer, keep_alive)
                        }));
                        match streamed {
                            Ok(result) => result?,
                            // The 200 is already out, so no status can
                            // report the failure: cut the body off instead.
                            Err(_) => {
                                shared.panics.fetch_add(1, Ordering::Relaxed);
                                break;
                            }
                        }
                    }
                    Err(_) => {
                        shared.panics.fetch_add(1, Ordering::Relaxed);
                        let response =
                            routes::error_json(500, "internal error: the request handler panicked");
                        write_response(&mut writer, &response, false)?;
                        break;
                    }
                }
                if !keep_alive {
                    break;
                }
            }
            Err(error) => {
                let status = error.status();
                if status != 0 {
                    let response = Response::json(
                        status,
                        serde_json::to_string_pretty(&serde_json::json!({
                            "error": error.message(),
                        }))
                        .expect("error bodies always serialise"),
                    );
                    let _ = write_response(&mut writer, &response, false);
                }
                break;
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};

    fn get(addr: SocketAddr, target: &str) -> http::ClientResponse {
        let mut socket = TcpStream::connect(addr).unwrap();
        // A pool that lost its workers fails the test instead of hanging it.
        socket
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        write!(socket, "GET {target} HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        http::read_response(&mut BufReader::new(&socket)).unwrap()
    }

    #[test]
    fn boots_answers_health_and_shuts_down() {
        let handle = Server::start(ServerConfig::default()).unwrap();
        let health = get(handle.addr(), "/health");
        assert_eq!(health.status, 200);
        assert!(health.text().contains("\"status\": \"ok\""));
        let missing = get(handle.addr(), "/nope");
        assert_eq!(missing.status, 404);
        let counters = handle.counters();
        assert_eq!(counters.requests, 2);
        assert_eq!(counters.shed, 0);
        let addr = handle.addr();
        handle.shutdown();
        // The listener is gone: connections are refused (or reset).
        assert!(
            TcpStream::connect_timeout(&addr, Duration::from_millis(500)).is_err() || get_err(addr)
        );
    }

    fn get_err(addr: SocketAddr) -> bool {
        let Ok(mut socket) = TcpStream::connect(addr) else {
            return true;
        };
        let _ = write!(socket, "GET /health HTTP/1.1\r\nHost: x\r\n\r\n");
        http::read_response(&mut BufReader::new(&socket)).is_err()
    }

    #[test]
    fn upload_query_and_stream_round_trip() {
        let handle = Server::start(ServerConfig::default()).unwrap();
        let tree = fault_tree::examples::fire_protection_system();
        let body = fault_tree::parser::json::to_json_string(&tree);

        let mut socket = TcpStream::connect(handle.addr()).unwrap();
        let mut reader = BufReader::new(socket.try_clone().unwrap());
        write!(
            socket,
            "POST /trees HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{}",
            body.len(),
            body
        )
        .unwrap();
        let created = http::read_response(&mut reader).unwrap();
        assert_eq!(created.status, 201, "{}", created.text());
        let hash = fault_tree::tree_hash(&tree).weighted_hex();
        assert!(created.text().contains(&hash));

        // Idempotent re-upload: same hash, 200 + created=false.
        write!(
            socket,
            "POST /trees HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{}",
            body.len(),
            body
        )
        .unwrap();
        let again = http::read_response(&mut reader).unwrap();
        assert_eq!(again.status, 200);
        assert!(again.text().contains("\"created\": false"));

        // Collected all-mcs and its streamed twin are byte-identical.
        write!(
            socket,
            "GET /trees/{hash}/all-mcs HTTP/1.1\r\nHost: x\r\n\r\n"
        )
        .unwrap();
        let collected = http::read_response(&mut reader).unwrap();
        assert_eq!(collected.status, 200);
        write!(
            socket,
            "GET /trees/{hash}/all-mcs?stream=true HTTP/1.1\r\nHost: x\r\n\r\n"
        )
        .unwrap();
        let streamed = http::read_response(&mut reader).unwrap();
        assert_eq!(streamed.status, 200);
        assert_eq!(streamed.trailer("x-termination"), Some("complete"));
        assert_eq!(streamed.trailer("x-truncated"), Some("false"));
        assert_eq!(streamed.trailer("x-delivered"), Some("5"));
        assert!(streamed.chunks.len() > 1, "one tie group per chunk");
        let redact = |text: &str| {
            text.lines()
                .filter(|line| !line.contains("\"solve_time_ms\""))
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(redact(&streamed.text()), redact(&collected.text()));

        // The budget envelope labels a deliberately capped enumeration.
        write!(
            socket,
            "GET /trees/{hash}/all-mcs?max-solutions=2 HTTP/1.1\r\nHost: x\r\n\r\n"
        )
        .unwrap();
        let capped = http::read_response(&mut reader).unwrap();
        assert_eq!(capped.status, 200);
        assert!(capped.text().contains("\"truncated\": true"));
        assert!(capped.text().contains("\"termination\": \"solution-cap\""));

        // A stream capped at exactly the family size is complete, one below
        // it truncated: the trailers carry the collected query's labels.
        for (cap, termination) in [(5, "complete"), (4, "solution-cap")] {
            write!(
                socket,
                "GET /trees/{hash}/all-mcs?stream=true&max-solutions={cap} HTTP/1.1\r\nHost: x\r\n\r\n"
            )
            .unwrap();
            let streamed = http::read_response(&mut reader).unwrap();
            assert_eq!(streamed.status, 200);
            assert_eq!(streamed.trailer("x-termination"), Some(termination));
            assert_eq!(
                streamed.trailer("x-delivered"),
                Some(cap.to_string().as_str())
            );
        }

        // Single-solution stream uses the bare-object shape.
        write!(
            socket,
            "GET /trees/{hash}/top-k?k=1&stream=true HTTP/1.1\r\nHost: x\r\n\r\n"
        )
        .unwrap();
        let single = http::read_response(&mut reader).unwrap();
        assert!(single.text().starts_with('{'), "{}", single.text());
        assert_eq!(single.trailer("x-termination"), Some("complete"));

        // Probability, importance and sweep answer on the same connection.
        write!(
            socket,
            "GET /trees/{hash}/probability?backend=bdd HTTP/1.1\r\nHost: x\r\n\r\n"
        )
        .unwrap();
        let probability = http::read_response(&mut reader).unwrap();
        assert_eq!(probability.status, 200);
        assert!(probability.text().contains("\"probability\""));
        write!(
            socket,
            "GET /trees/{hash}/importance HTTP/1.1\r\nHost: x\r\n\r\n"
        )
        .unwrap();
        assert_eq!(http::read_response(&mut reader).unwrap().status, 200);
        write!(
            socket,
            "GET /trees/{hash}/sweep?range=0:1:0.5&format=csv HTTP/1.1\r\nHost: x\r\n\r\n"
        )
        .unwrap();
        let sweep = http::read_response(&mut reader).unwrap();
        assert_eq!(sweep.status, 200);
        assert!(sweep.text().starts_with("t,probability\n"));

        // Evict and observe the 404.
        write!(socket, "DELETE /trees/{hash} HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        assert_eq!(http::read_response(&mut reader).unwrap().status, 204);
        write!(
            socket,
            "GET /trees/{hash}/mpmcs HTTP/1.1\r\nHost: x\r\n\r\n"
        )
        .unwrap();
        assert_eq!(http::read_response(&mut reader).unwrap().status, 404);
        handle.shutdown();
    }

    #[test]
    fn saturated_queue_sheds_with_503_and_retry_after() {
        // One worker, queue depth one; a slow client holds the worker by
        // never finishing its request, a second connection fills the
        // queue, so the third is shed immediately.
        let handle = Server::start(ServerConfig {
            workers: 1,
            queue_depth: 1,
            read_timeout_ms: 2_000,
            ..ServerConfig::default()
        })
        .unwrap();
        let mut slow = TcpStream::connect(handle.addr()).unwrap();
        write!(slow, "GET /health HTTP/1.1\r\n").unwrap(); // never finishes
        std::thread::sleep(Duration::from_millis(300)); // worker picks it up
        let _queued = TcpStream::connect(handle.addr()).unwrap();
        std::thread::sleep(Duration::from_millis(300));
        let mut third = TcpStream::connect(handle.addr()).unwrap();
        write!(third, "GET /health HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        let shed = http::read_response(&mut BufReader::new(&third)).unwrap();
        assert_eq!(shed.status, 503);
        assert_eq!(shed.header("retry-after"), Some("1"));
        assert!(handle.counters().shed >= 1);
        handle.shutdown();
    }

    #[test]
    fn panicking_requests_answer_500_and_keep_the_worker() {
        let handle = Server::start(ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        })
        .unwrap();
        for _ in 0..3 {
            let response = get(handle.addr(), "/panic");
            assert_eq!(response.status, 500);
            assert_eq!(response.header("connection"), Some("close"));
            assert!(response.text().contains("\"error\""), "{}", response.text());
        }
        // The only worker survived all three panics.
        assert_eq!(get(handle.addr(), "/health").status, 200);
        let stats = get(handle.addr(), "/stats");
        assert_eq!(stats.status, 200);
        assert!(stats.text().contains("\"panics\": 3"), "{}", stats.text());
        assert_eq!(handle.counters().panics, 3);
        handle.shutdown();
    }

    #[test]
    fn a_panic_mid_stream_closes_the_connection_and_keeps_the_worker() {
        let handle = Server::start(ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        })
        .unwrap();
        let mut socket = TcpStream::connect(handle.addr()).unwrap();
        socket
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        write!(socket, "GET /panic-mid-stream HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        // The server closes the connection: reading to the end returns.
        let mut raw = String::new();
        socket.read_to_string(&mut raw).unwrap();
        assert!(raw.starts_with("HTTP/1.1 200"), "{raw}");
        assert!(
            !raw.contains("x-termination: "),
            "the body is cut off before its trailers: {raw}"
        );
        assert_eq!(get(handle.addr(), "/health").status, 200);
        assert_eq!(handle.counters().panics, 1);
        handle.shutdown();
    }

    #[test]
    fn keep_alive_serves_many_requests_on_one_connection() {
        let handle = Server::start(ServerConfig::default()).unwrap();
        let mut socket = TcpStream::connect(handle.addr()).unwrap();
        let mut reader = BufReader::new(socket.try_clone().unwrap());
        for _ in 0..3 {
            write!(socket, "GET /health HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
            let response = http::read_response(&mut reader).unwrap();
            assert_eq!(response.status, 200);
            assert_eq!(response.header("connection"), Some("keep-alive"));
        }
        write!(
            socket,
            "GET /health HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"
        )
        .unwrap();
        let last = http::read_response(&mut reader).unwrap();
        assert_eq!(last.header("connection"), Some("close"));
        handle.shutdown();
    }
}
