//! `serve-mixed`: the HTTP front end under a request mix with sharing and
//! writes.
//!
//! One in-process `ft-server` (default workers, a 64 MiB shared cache)
//! serves one keep-alive client connection in a closed loop: each request
//! goes out with one write once the previous answer is in, and is timed
//! from that write to its last byte. Reads ask for mpmcs, top-k,
//! `preprocess=true` mpmcs and BDD probability/sweep of registered models
//! chosen with skewed popularity, so most hit the cache. Every fiftieth
//! request uploads an unseen model in Galileo or JSON, and the mpmcs read of
//! it a few requests later misses into the solvers; `/health` probes measure
//! the HTTP floor. The mix is assumed, not measured (see the package's
//! README).
//!
//! An open loop at fixed offered rates on two connections, with a ladder of
//! rates for the sustained rate, was measured first. On two shared cores its
//! p50 spread 0.26–0.71 of the median over ten seeds and its p99 up to 0.51:
//! queueing behind misses and four busy threads on two cores do not scale
//! with the machine's speed, so no calibration steadies them. The closed
//! loop keeps one thread busy at a time.

use std::collections::{BTreeMap, HashMap};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use fault_tree::parser::galileo::{parse_galileo, to_galileo_string};
use fault_tree::parser::json::{from_json_str, to_json_string};
use fault_tree::FaultTree;
use ft_backend::{decompose, BackendSolution};
use ft_generators::Family;
use ft_server::{Server, ServerConfig, ServerHandle};
use ft_session::report;
use ft_session::{
    AlgorithmChoice, AnalysisService, Analyzer, BackendKind, SweepRange, Termination,
};

use crate::calibrate::Calibration;
use crate::trace::Tracer;
use crate::{
    derive_seed, heap, mean, median, ms, par_map, passes_in_child, percentile, pick, redact_timing,
    repeated_setup, scaled_guard, segment_figures, with_exponential_laws, Options, Outcome, Slot,
};

/// Shared cache of the server.
const CACHE_BYTES: usize = 64 << 20;
/// Registered models, 100–1000 nodes.
const REGISTERED: usize = 24;
/// BDD-backed reads only go to models of at most this many nodes: in sizing
/// a cold BDD probability took 287 ms and a sweep 1.1 s at 1000 nodes, and
/// both took ~95 s at 2000 nodes.
const BDD_MAX_NODES: usize = 300;
/// Per-request deadline of maxsat reads; an answer it truncates fails.
const DEADLINE_MS: u64 = 10_000;
/// The sweep grid of BDD sweep reads (100 points).
const SWEEP_RANGE: &str = "0:4.95:0.05";
/// The k of top-k reads.
const TOP_K: usize = 3;
/// Request `i` uploads an unseen model when `i` is a multiple of this, and
/// request `i + FOLLOW_UP` reads its mpmcs, a miss. Uploads and misses are
/// then 2 % of requests each, so p99 sits inside the misses (5–25 ms in
/// sizing), not on the edge between them and the sub-millisecond hits.
const UPLOAD_EVERY: usize = 50;
const FOLLOW_UP: usize = 4;
/// Share of the other requests that probe `/health`.
const HEALTH_SHARE: f64 = 0.02;
/// Requests per segment of the measured phase: at least ten beyond p99.
const SEGMENT: usize = 1100;
/// `peak_heap_mb` covers the first this many requests, a fixed stretch of
/// the request stream: the server's registry grows with every upload, so a
/// peak over the whole phase would grow with the machine's speed.
const HEAP_WINDOW: usize = 5_000;

/// What one request asks for.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
enum Kind {
    Mpmcs,
    TopK,
    PreMpmcs,
    Probability,
    Sweep,
    Health,
    Upload,
}

impl Kind {
    fn label(self) -> &'static str {
        match self {
            Kind::Mpmcs => "mpmcs",
            Kind::TopK => "top-k",
            Kind::PreMpmcs => "mpmcs-preprocess",
            Kind::Probability => "bdd-probability",
            Kind::Sweep => "bdd-sweep",
            Kind::Health => "health",
            Kind::Upload => "upload",
        }
    }

    /// The request target below `/trees/{hash}/`.
    fn query(self) -> String {
        match self {
            Kind::Mpmcs => format!("mpmcs?timeout-ms={DEADLINE_MS}"),
            Kind::TopK => format!("top-k?k={TOP_K}&timeout-ms={DEADLINE_MS}"),
            Kind::PreMpmcs => format!("mpmcs?preprocess=true&timeout-ms={DEADLINE_MS}"),
            Kind::Probability => "probability?backend=bdd".to_string(),
            Kind::Sweep => format!("sweep?backend=bdd&range={SWEEP_RANGE}"),
            Kind::Health | Kind::Upload => unreachable!("not a tree query"),
        }
    }
}

#[derive(Clone, Copy, Debug)]
struct Request {
    kind: Kind,
    /// Index of the model: registered ones first, then uploads in order
    /// (unused for health).
    model: usize,
}

impl Request {
    /// Whether the request is, by design, a cache miss: the read of an
    /// uploaded model.
    fn misses(&self) -> bool {
        self.model >= REGISTERED && !matches!(self.kind, Kind::Health | Kind::Upload)
    }
}

/// One model the workload serves: registered during set-up, or uploaded by
/// a request.
struct Model {
    family: &'static str,
    /// The read kinds it gets ([`read_kinds`]).
    kinds: Vec<Kind>,
    tree: Arc<FaultTree>,
    /// The request body that registers it.
    body: String,
    json: bool,
}

/// Every model a run served, by request model index.
struct Models<'a> {
    registered: &'a [Model],
    uploaded: &'a [Model],
}

impl<'a> Models<'a> {
    fn get(&self, index: usize) -> &'a Model {
        match index.checked_sub(REGISTERED) {
            None => &self.registered[index],
            Some(upload) => &self.uploaded[upload],
        }
    }
}

/// Cliff guard of the registered models: a candidate whose reads
/// ([`answers`]) are not all answered within this time at reference speed
/// ([`crate::scaled_guard`]) is replaced.
/// Registered models are primed in set-up, so their solve time never
/// reaches the measured phase; the guard only keeps cliffs out. In sizing,
/// one in twelve 1000-node voting-heavy models ran the facade into the 10 s
/// deadline, while priming every read of an admitted model took at most
/// 0.3 s.
const GUARD: Duration = Duration::from_secs(3);

/// The reads a registered model gets: mpmcs and top-k; `preprocess=true`
/// mpmcs except on voting-heavy models (the modular route takes no
/// deadline, and in sizing 2 of 30 voting-heavy models of 100–1000 nodes
/// ran it past 3 s, one for minutes, while the other families' worst was
/// 0.14 s); BDD probability and sweep on models of at most
/// [`BDD_MAX_NODES`] nodes.
fn read_kinds(family: Family, tree: &FaultTree) -> Vec<Kind> {
    let mut kinds = vec![Kind::Mpmcs, Kind::TopK];
    if family != Family::VotingHeavy {
        kinds.push(Kind::PreMpmcs);
    }
    if tree.node_count() <= BDD_MAX_NODES {
        kinds.extend([Kind::Probability, Kind::Sweep]);
    }
    kinds
}

/// Admission check of a registered candidate, run under [`GUARD`]: uncached
/// in-process answers to every read it will get.
pub fn answers(family: Family, tree: &FaultTree) -> bool {
    let tree = Arc::new(with_exponential_laws(tree));
    read_kinds(family, &tree)
        .into_iter()
        .all(|kind| answer(&tree, kind).is_ok())
}

/// Registered models: sizes 100–1000 across all families.
fn registered_targets() -> Vec<(Family, usize)> {
    (0..REGISTERED)
        .map(|i| (Family::all()[i % 6], 100 + i * 900 / (REGISTERED - 1)))
        .collect()
}

/// Upload `upload`: a shared-modules model of 300–500 nodes, no screening,
/// in JSON for even uploads and Galileo for odd ones. Its read is the miss
/// behind p99. Sizing measured shared-modules misses by size alone (mpmcs
/// 5–8 ms at 300 nodes, 11–17 ms at 400, 17–25 ms at 500 over ten seeds
/// each), where the other families' misses of the same sizes ranged from
/// 1 ms to a 10 s voting-heavy cliff, so `tail_ms` measures the solvers, not
/// which instances a seed drew.
fn upload_slot(seed: u64, upload: usize) -> (Slot, bool) {
    let size = 300 + 50 * (upload % 5);
    let slot = (
        Family::SharedModules,
        size,
        derive_seed(seed, 4, upload as u64),
    );
    (slot, upload.is_multiple_of(2))
}

/// The generated model of `slot` with exponential laws, serialized.
fn serialize(slot: Slot, json: bool) -> String {
    let (family, size, seed) = slot;
    let tree = with_exponential_laws(&family.generate(size, seed));
    if json {
        to_json_string(&tree)
    } else {
        to_galileo_string(&tree)
    }
}

fn make_model((slot, json): (Slot, bool)) -> Model {
    let body = serialize(slot, json);
    let parsed = if json {
        from_json_str(&body)
    } else {
        parse_galileo(&body)
    }
    .expect("generated models parse");
    Model {
        family: slot.0.name(),
        kinds: read_kinds(slot.0, &parsed),
        tree: Arc::new(parsed),
        body,
        json,
    }
}

/// A small deterministic generator for the request mix (splitmix64 stream).
struct Draw(u64);

impl Draw {
    fn next(&mut self) -> f64 {
        self.0 = derive_seed(self.0, 9, 1);
        (self.0 >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Zipf(1) rank in `0..n`.
    fn zipf(&mut self, n: usize) -> usize {
        let weights: Vec<f64> = (1..=n).map(|r| 1.0 / r as f64).collect();
        let total: f64 = weights.iter().sum();
        let mut x = self.next() * total;
        for (i, w) in weights.iter().enumerate() {
            if x < *w {
                return i;
            }
            x -= w;
        }
        n - 1
    }
}

/// The request stream of one seed. Request `i` is an upload or its
/// follow-up read ([`UPLOAD_EVERY`], [`FOLLOW_UP`]); any other request
/// probes `/health` with [`HEALTH_SHARE`] or reads a registered model drawn
/// by Zipf(1) popularity, largest model first, with a read kind drawn
/// uniformly from the kinds that model gets. Ranking by size makes a hit
/// cost the same on every seed: a hit recomputes the canonical form, whose
/// cost grows with the model.
struct Mix {
    draw: Draw,
    kinds: Vec<Vec<Kind>>,
}

impl Mix {
    fn new(seed: u64, registered: &[Model]) -> Mix {
        Mix {
            draw: Draw(derive_seed(seed, 7, 0)),
            kinds: registered.iter().map(|m| m.kinds.clone()).collect(),
        }
    }

    fn request(&mut self, i: usize) -> Request {
        let upload = REGISTERED + i / UPLOAD_EVERY;
        match i % UPLOAD_EVERY {
            0 => Request {
                kind: Kind::Upload,
                model: upload,
            },
            FOLLOW_UP => Request {
                kind: Kind::Mpmcs,
                model: upload,
            },
            _ if self.draw.next() < HEALTH_SHARE => Request {
                kind: Kind::Health,
                model: 0,
            },
            _ => {
                // Registered models are ordered by size, smallest first.
                let model = REGISTERED - 1 - self.draw.zipf(REGISTERED);
                let kinds = &self.kinds[model];
                let pick = (self.draw.next() * kinds.len() as f64) as usize;
                Request {
                    kind: kinds[pick.min(kinds.len() - 1)],
                    model,
                }
            }
        }
    }
}

fn http_bytes(method: &str, target: &str, body: &str) -> Vec<u8> {
    let mut bytes = format!(
        "{method} {target} HTTP/1.1\r\nHost: bench\r\nConnection: keep-alive\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    bytes.extend_from_slice(body.as_bytes());
    bytes
}

fn upload_bytes(body: &str, json: bool) -> Vec<u8> {
    let format = if json { "json" } else { "galileo" };
    http_bytes("POST", &format!("/trees?format={format}"), body)
}

fn read_bytes(hash: &str, kind: Kind) -> Vec<u8> {
    http_bytes("GET", &format!("/trees/{hash}/{}", kind.query()), "")
}

struct Connection {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Connection {
    fn open(addr: std::net::SocketAddr) -> std::io::Result<Connection> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        Ok(Connection {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    /// Sends one request with a single write; returns the time the first
    /// response byte arrived and the response.
    fn exchange(
        &mut self,
        bytes: &[u8],
    ) -> std::io::Result<(Instant, ft_server::http::ClientResponse)> {
        self.writer.write_all(bytes)?;
        if self.reader.fill_buf()?.is_empty() {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        let first = Instant::now();
        Ok((first, ft_server::http::read_response(&mut self.reader)?))
    }
}

/// Everything set-up produces.
struct Setup {
    server: ServerHandle,
    /// The registered models, smallest first, and their content addresses.
    models: Vec<Model>,
    hashes: Vec<String>,
}

/// Starts the server, registers every registered model over HTTP and
/// primes every read kind of each, so the measured phase starts warm.
fn set_up(registered: &[Slot]) -> Setup {
    let models: Vec<Model> = registered
        .iter()
        .enumerate()
        .map(|(i, &slot)| make_model((slot, i % 2 == 1)))
        .collect();
    let server = Server::start(ServerConfig {
        cache_bytes: Some(CACHE_BYTES),
        ..ServerConfig::default()
    })
    .expect("the server binds a loopback port");
    let mut connection = Connection::open(server.addr()).expect("connect to the server");
    let mut send = |bytes: Vec<u8>| {
        let (_, response) = connection
            .exchange(&bytes)
            .expect("set-up requests are answered");
        response
    };
    let hashes: Vec<String> = models
        .iter()
        .map(|model| {
            let response = send(upload_bytes(&model.body, model.json));
            assert_eq!(response.status, 201, "registration: {}", response.text());
            extract_hash(&response.text()).expect("registration reports a hash")
        })
        .collect();
    for (model, hash) in models.iter().zip(&hashes) {
        for &kind in &model.kinds {
            let response = send(read_bytes(hash, kind));
            assert_eq!(response.status, 200, "priming: {}", response.text());
        }
    }
    Setup {
        server,
        models,
        hashes,
    }
}

/// The content address in a registration's answer (201, or 200 when the
/// structure was already registered).
fn extract_hash(body: &str) -> Option<String> {
    let start = body.find("\"hash\": \"")? + 9;
    body.get(start..start + 32).map(str::to_string)
}

/// What the client saw for one request.
struct Exchange {
    request: Request,
    sent: Instant,
    first_byte: Instant,
    done: Instant,
    status: u16,
    body_len: usize,
    /// Digest of the body without its timing line ([`digest`]).
    digest: u64,
    /// Uploads: the content address the answer reported.
    hash: Option<String>,
    /// Health probes: whether the answer said ok.
    healthy: bool,
    error: Option<String>,
}

impl Exchange {
    fn latency_ms(&self) -> f64 {
        ms(self.done.saturating_duration_since(self.sent))
    }
}

/// Bodies are compared by digest, so the client keeps no responses in
/// memory while the run is measured.
fn digest(body: &str) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut hasher = std::collections::hash_map::DefaultHasher::new();
    redact_timing(body).hash(&mut hasher);
    hasher.finish()
}

/// Whether request `index` of a traced run is traced: alternate blocks of
/// [`UPLOAD_EVERY`] requests, so traced and untraced requests share one mix.
fn is_traced(index: usize) -> bool {
    (index / UPLOAD_EVERY).is_multiple_of(2)
}

/// The measured phase as the client saw it.
struct Driven {
    exchanges: Vec<Exchange>,
    /// The calibration mark taken as each request was sent.
    marks: Vec<usize>,
    heap_mb: f64,
    tracer: Tracer,
    wall: Duration,
}

/// Drives the request stream of `seed` over one keep-alive connection for
/// `seconds`, running the calibration kernel between requests. An upload's
/// body is generated right before it is sent, outside its timing; a read
/// of an upload whose answer carried no content address fails unsent.
/// Traced runs trace every other block of requests ([`is_traced`]).
fn drive(
    setup: &Setup,
    seed: u64,
    seconds: f64,
    trace: bool,
    calibration: &mut Calibration,
) -> Driven {
    let addr = setup.server.addr();
    let mut connection = Connection::open(addr).expect("connect to the server");
    let mut hashes: Vec<Option<String>> = setup.hashes.iter().cloned().map(Some).collect();
    let mut mix = Mix::new(seed, &setup.models);
    let mut tracer = Tracer::new(trace, Instant::now());
    let (mut exchanges, mut marks) = (Vec::new(), Vec::new());
    let heap_base = heap::reset_peak();
    let mut heap_mb = None;
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let mut index = 0;
    while start.elapsed() < budget {
        let request = mix.request(index);
        let bytes = match request.kind {
            Kind::Health => Some(http_bytes("GET", "/health", "")),
            Kind::Upload => {
                hashes.push(None);
                let (slot, json) = upload_slot(seed, request.model - REGISTERED);
                Some(upload_bytes(&serialize(slot, json), json))
            }
            kind => hashes[request.model]
                .as_deref()
                .map(|hash| read_bytes(hash, kind)),
        };
        marks.push(calibration.mark());
        let sent = Instant::now();
        let outcome = match &bytes {
            Some(bytes) => connection.exchange(bytes),
            None => Err(std::io::Error::other("its model's upload failed")),
        };
        let done = Instant::now();
        let mut exchange = Exchange {
            request,
            sent,
            first_byte: done,
            done,
            status: 0,
            body_len: 0,
            digest: 0,
            hash: None,
            healthy: false,
            error: None,
        };
        match outcome {
            Ok((first_byte, response)) => {
                exchange.first_byte = first_byte;
                exchange.status = response.status;
                let body = response.text();
                match request.kind {
                    Kind::Upload if matches!(response.status, 200 | 201) => {
                        exchange.hash = extract_hash(&body);
                        hashes[request.model] = exchange.hash.clone();
                    }
                    Kind::Health => {
                        exchange.healthy =
                            response.status == 200 && body.contains("\"status\": \"ok\"");
                    }
                    _ => {}
                }
                exchange.body_len = body.len();
                exchange.digest = digest(&body);
            }
            Err(error) => {
                exchange.error = Some(error.to_string());
                if bytes.is_some() {
                    connection = Connection::open(addr).expect("reconnect to the server");
                }
            }
        }
        if trace && is_traced(index) {
            tracer.set_op(index as u64);
            let root = tracer.enter_at("request", sent);
            tracer.record("ft-server.ttfb", sent, exchange.first_byte);
            tracer.record("ft-server.body", exchange.first_byte, done);
            tracer.exit_at(root, done);
        }
        calibration.after(exchange.latency_ms());
        exchanges.push(exchange);
        index += 1;
        if index == HEAP_WINDOW {
            heap_mb = Some(heap::peak_above_mb(heap_base));
        }
    }
    Driven {
        exchanges,
        marks,
        heap_mb: heap_mb.unwrap_or_else(|| heap::peak_above_mb(heap_base)),
        tracer,
        wall: start.elapsed(),
    }
}

/// In-process references for one (model, kind): the cold rendering of a
/// fresh uncached analyzer configured like the server's, and the rendering
/// of the same answer replayed from the cache (solver statistics dropped,
/// probabilities recomputed from the cut sets).
struct Reference {
    cold: u64,
    warm: u64,
    /// Bytes of the cold rendering.
    bytes: usize,
    render_ms: f64,
}

fn analyzer(tree: &Arc<FaultTree>, kind: Kind) -> Analyzer {
    let (backend, preprocess) = match kind {
        Kind::Probability | Kind::Sweep => (BackendKind::Bdd, false),
        Kind::PreMpmcs => (BackendKind::MaxSat, true),
        _ => (BackendKind::MaxSat, false),
    };
    let budgeted = matches!(kind, Kind::Mpmcs | Kind::TopK | Kind::PreMpmcs);
    Analyzer::for_shared(Arc::clone(tree))
        .backend(backend)
        .preprocess(preprocess)
        .algorithm(AlgorithmChoice::SequentialPortfolio)
        .budget(ft_session::Budget::from_limits(
            budgeted.then_some(DEADLINE_MS),
            None,
        ))
}

fn replayed(tree: &FaultTree, solutions: &[BackendSolution]) -> Vec<BackendSolution> {
    solutions
        .iter()
        .map(|s| BackendSolution::from_cut(tree, s.cut_set.clone(), s.algorithm.clone()))
        .collect()
}

/// One read answered in-process the way the server answers it: the time
/// to render it, the cold rendering of a fresh uncached analyzer, and, for
/// mpmcs and top-k, the rendering of the same answer replayed from the
/// cache (solver statistics dropped, probabilities recomputed).
type Answered = (f64, String, Option<String>);

fn answer(tree: &Arc<FaultTree>, kind: Kind) -> Result<Answered, String> {
    let mut analyzer = analyzer(tree, kind);
    Ok(match kind {
        Kind::Mpmcs | Kind::PreMpmcs | Kind::TopK => {
            let (solutions, termination) = if kind == Kind::TopK {
                let set = analyzer.top_k(TOP_K).map_err(|e| e.to_string())?;
                (set.solutions, set.termination)
            } else {
                let best = analyzer.mpmcs().map_err(|e| e.to_string())?;
                (vec![best], Termination::Complete)
            };
            let render =
                |s: &[BackendSolution]| report::render_report(tree, s, termination, true, false);
            let start = Instant::now();
            let cold = render(&solutions);
            (
                ms(start.elapsed()),
                cold,
                Some(render(&replayed(tree, &solutions))),
            )
        }
        Kind::Probability => {
            let p = analyzer.probability().map_err(|e| e.to_string())?;
            let start = Instant::now();
            let cold = report::render_probability(tree, BackendKind::Bdd, false, p);
            (ms(start.elapsed()), cold, None)
        }
        Kind::Sweep => {
            let grid = SweepRange::parse(SWEEP_RANGE).expect("valid range").grid();
            let curve = analyzer.sweep(&grid).map_err(|e| e.to_string())?;
            let start = Instant::now();
            let cold = report::render_sweep_json(tree, BackendKind::Bdd, false, &curve);
            (ms(start.elapsed()), cold, None)
        }
        Kind::Health | Kind::Upload => unreachable!("not a tree query"),
    })
}

fn reference(model: &Model, kind: Kind) -> Result<Reference, String> {
    let (render_ms, cold, hit) = answer(&model.tree, kind)?;
    Ok(Reference {
        render_ms,
        bytes: cold.len(),
        cold: digest(&cold),
        warm: hit.map_or(digest(&cold), |text| digest(&text)),
    })
}

/// Checks every exchange against its reference, counting failures.
fn check_all(
    exchanges: &[Exchange],
    models: &Models,
    references: &HashMap<(usize, Kind), Result<Reference, String>>,
    outcome: &mut Outcome,
) {
    for exchange in exchanges {
        outcome.attempted += 1;
        let request = &exchange.request;
        if let Some(error) = &exchange.error {
            outcome.check_failed(format!("{}: {error}", request.kind.label()));
            continue;
        }
        let verdict = match request.kind {
            Kind::Health if exchange.healthy => Ok(()),
            Kind::Health => Err(format!("health answered {}", exchange.status)),
            Kind::Upload => {
                let expected =
                    fault_tree::tree_hash(&models.get(request.model).tree).weighted_hex();
                if exchange.status == 201 && exchange.hash.as_deref() == Some(expected.as_str()) {
                    Ok(())
                } else {
                    Err(format!(
                        "upload answered {} with hash {:?}, expected {expected}",
                        exchange.status, exchange.hash
                    ))
                }
            }
            kind => match &references[&(request.model, kind)] {
                Err(error) => Err(format!("in-process reference failed: {error}")),
                Ok(_) if exchange.status != 200 => Err(format!("status {}", exchange.status)),
                Ok(reference) => {
                    if exchange.digest == reference.cold || exchange.digest == reference.warm {
                        Ok(())
                    } else {
                        Err("the body differs from the in-process rendering".to_string())
                    }
                }
            },
        };
        if let Err(message) = verdict {
            outcome.check_failed(format!(
                "{} of model {}: {message}",
                request.kind.label(),
                request.model
            ));
        }
    }
}

pub fn run(options: &Options) -> Outcome {
    let phase = Instant::now();
    let mut calibration = Calibration::new();
    let guard = scaled_guard(GUARD, &mut calibration);
    let (registered, rejected) = pick(
        options.seed,
        3,
        &registered_targets(),
        |family, size, candidate| {
            passes_in_child("serve-registered", family, size, candidate, guard).map(drop)
        },
    );
    let registered: Vec<Slot> = registered.into_iter().map(|(slot, ())| slot).collect();
    eprintln!(
        "phase: picked registered models in {:.2} s",
        phase.elapsed().as_secs_f64()
    );
    let (setup, setup_s) = repeated_setup(3, &mut calibration, |_| set_up(&registered));
    let mut outcome = Outcome::default();

    let cache_before = setup.server.service().cache_stats().unwrap_or_default();
    let counters_before = setup.server.counters();
    let driven = drive(
        &setup,
        options.seed,
        options.seconds,
        options.trace,
        &mut calibration,
    );
    let cache_after = setup.server.service().cache_stats().unwrap_or_default();
    let counters_after = setup.server.counters();
    eprintln!(
        "phase: set-up and measured phase done at {:.2} s",
        phase.elapsed().as_secs_f64()
    );

    // The uploaded models, generated again for the checks.
    let uploads: Vec<usize> = (0..driven
        .exchanges
        .iter()
        .filter(|e| e.request.kind == Kind::Upload)
        .count())
        .collect();
    let uploaded: Vec<Model> = par_map(&uploads, |&u| make_model(upload_slot(options.seed, u)));
    let models = Models {
        registered: &setup.models,
        uploaded: &uploaded,
    };
    // One in-process reference per (model, read kind) served.
    let mut keys: Vec<(usize, Kind)> = driven
        .exchanges
        .iter()
        .map(|e| e.request)
        .filter(|r| !matches!(r.kind, Kind::Health | Kind::Upload))
        .map(|r| (r.model, r.kind))
        .collect();
    keys.sort();
    keys.dedup();
    let answers = par_map(&keys, |&(index, kind)| reference(models.get(index), kind));
    let references: HashMap<(usize, Kind), Result<Reference, String>> =
        keys.into_iter().zip(answers).collect();
    check_all(&driven.exchanges, &models, &references, &mut outcome);
    eprintln!(
        "phase: checks done at {:.2} s",
        phase.elapsed().as_secs_f64()
    );
    census(options.seed, rejected, &setup, &driven);

    if options.trace {
        traced_metrics(
            &driven,
            &models,
            &references,
            (cache_before, cache_after),
            (counters_before, counters_after),
            &mut outcome,
        );
    } else {
        let latencies: Vec<f64> = driven.exchanges.iter().map(Exchange::latency_ms).collect();
        let ok: Vec<bool> = driven
            .exchanges
            .iter()
            .map(|e| e.error.is_none() && (200..300).contains(&e.status))
            .collect();
        let [p50, p99, throughput] =
            segment_figures(&latencies, &ok, &driven.marks, SEGMENT, 0.99, &calibration);
        outcome.metric("setup_s", setup_s);
        outcome.metric("p50_ms", p50);
        outcome.metric("tail_ms", p99);
        outcome.metric("throughput_per_s", throughput);
        outcome.metric("peak_heap_mb", driven.heap_mb);
    }
    drop(setup);
    outcome
}

/// Request count, response bytes and latencies of one (kind, miss) class.
type KindCensus = (usize, Vec<f64>, Vec<f64>);

fn census(seed: u64, rejected: usize, setup: &Setup, driven: &Driven) {
    eprintln!(
        "census (serve-mixed, seed {seed}): {rejected} candidate models rejected by screening"
    );
    let sizes: Vec<String> = setup
        .models
        .iter()
        .map(|m| format!("{}:{}", m.family, m.tree.node_count()))
        .collect();
    eprintln!("  registered models: {}", sizes.join(" "));
    let exchanges = &driven.exchanges;
    // Per kind and hit/miss: request count, response bytes, latency.
    let mut by_kind: BTreeMap<(Kind, bool), KindCensus> = BTreeMap::new();
    for exchange in exchanges {
        let request = &exchange.request;
        let entry = by_kind.entry((request.kind, request.misses())).or_default();
        entry.0 += 1;
        entry.1.push(exchange.body_len as f64);
        entry.2.push(exchange.latency_ms());
    }
    let writes = by_kind.get(&(Kind::Upload, false)).map_or(0, |e| e.0);
    let slowest = exchanges
        .iter()
        .max_by(|a, b| a.latency_ms().total_cmp(&b.latency_ms()));
    eprintln!(
        "  {} requests in {:.2} s, write share {:.4}, slowest {}",
        exchanges.len(),
        driven.wall.as_secs_f64(),
        writes as f64 / exchanges.len().max(1) as f64,
        slowest.map_or(String::new(), |e| format!(
            "{:.1} ms ({} of model {})",
            e.latency_ms(),
            e.request.kind.label(),
            e.request.model
        ))
    );
    for ((kind, miss), (count, bytes, latencies)) in &by_kind {
        eprintln!(
            "    {:<17} {:<4} {:>6} requests ({:.4} of all), median response {:>6.0} bytes, latency p50 {:>7.3} ms, p99 {:>8.3} ms",
            kind.label(),
            if *miss { "miss" } else { "hit" },
            count,
            *count as f64 / exchanges.len().max(1) as f64,
            median(bytes),
            median(latencies),
            percentile(latencies, 0.99)
        );
    }
}

fn traced_metrics(
    driven: &Driven,
    models: &Models,
    references: &HashMap<(usize, Kind), Result<Reference, String>>,
    cache: (ft_session::CacheStats, ft_session::CacheStats),
    counters: (ft_server::ServerCounters, ft_server::ServerCounters),
    outcome: &mut Outcome,
) {
    let exchanges = &driven.exchanges;
    let requests = exchanges.len().max(1) as f64;
    let ttfb = |e: &Exchange| ms(e.first_byte.saturating_duration_since(e.sent));
    let select = |f: &dyn Fn(&Request) -> bool, g: &dyn Fn(&Exchange) -> f64| -> Vec<f64> {
        exchanges.iter().filter(|e| f(&e.request)).map(g).collect()
    };
    let is_read = |r: &Request| !matches!(r.kind, Kind::Health | Kind::Upload);
    outcome.metric(
        "ft-server.health_rtt_ms",
        median(&select(&|r| r.kind == Kind::Health, &Exchange::latency_ms)),
    );
    outcome.metric(
        "ft-server.ttfb_hit_ms",
        median(&select(&|r| is_read(r) && !r.misses(), &ttfb)),
    );
    outcome.metric(
        "ft-server.ttfb_miss_ms",
        median(&select(&Request::misses, &ttfb)),
    );
    outcome.metric(
        "ft-server.ttfb_upload_ms",
        median(&select(&|r| r.kind == Kind::Upload, &ttfb)),
    );
    outcome.metric(
        "ft-server.response_bytes",
        mean(&select(&|_| true, &|e| e.body_len as f64)),
    );
    outcome.metric(
        "ft-server.requests",
        (counters.1.requests - counters.0.requests) as f64,
    );
    outcome.metric("ft-server.shed", (counters.1.shed - counters.0.shed) as f64);
    let lookups = (cache.1.hits + cache.1.misses) - (cache.0.hits + cache.0.misses);
    outcome.metric(
        "ft-backend.cache.hit_ratio",
        (cache.1.hits - cache.0.hits) as f64 / lookups.max(1) as f64,
    );
    outcome.metric(
        "ft-backend.cache.lookups_per_request",
        lookups as f64 / requests,
    );
    outcome.metric(
        "ft-backend.cache.inserts",
        (cache.1.insertions - cache.0.insertions) as f64,
    );
    outcome.metric(
        "ft-backend.cache.evictions",
        (cache.1.evictions - cache.0.evictions) as f64,
    );
    outcome.metric("ft-backend.cache.bytes", cache.1.bytes as f64);

    // The layers behind the socket, re-measured in-process on the exact
    // models and answers this run served (median of three timings each).
    let timed = |f: &mut dyn FnMut()| -> f64 {
        let mut samples = [0.0; 3];
        for sample in &mut samples {
            let start = Instant::now();
            f();
            *sample = ms(start.elapsed());
        }
        median(&samples)
    };
    let mut hash_ms: HashMap<usize, f64> = HashMap::new();
    let mut decomposed: HashMap<usize, (f64, usize)> = HashMap::new();
    let (mut parse, mut parse_rate, mut register) = (Vec::new(), Vec::new(), Vec::new());
    let (mut hashes, mut decomposes, mut modules, mut renders, mut render_bytes) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut fault_tree_self, mut session_self, mut backend_self) = (0.0, 0.0, 0.0);
    for exchange in exchanges {
        let request = &exchange.request;
        let served = models.get(request.model);
        match request.kind {
            Kind::Health => {}
            Kind::Upload => {
                let (body, json) = (&served.body, served.json);
                let t = timed(&mut || {
                    let parsed = if json {
                        from_json_str(body)
                    } else {
                        parse_galileo(body)
                    };
                    std::hint::black_box(parsed.expect("uploads parse"));
                });
                parse.push(t);
                parse_rate.push(body.len() as f64 / 1e6 / (t / 1e3));
                let tree = (*served.tree).clone();
                let r = timed(&mut || {
                    let service = AnalysisService::new();
                    std::hint::black_box(service.register_by_hash(tree.clone()));
                });
                register.push(r);
                fault_tree_self += t;
                session_self += r;
            }
            kind => {
                let h = *hash_ms.entry(request.model).or_insert_with(|| {
                    let tree = Arc::clone(&served.tree);
                    timed(&mut || {
                        std::hint::black_box(fault_tree::canonical_form(&tree));
                    })
                });
                hashes.push(h);
                fault_tree_self += h;
                if kind == Kind::PreMpmcs {
                    let (d, m) = *decomposed.entry(request.model).or_insert_with(|| {
                        let tree = Arc::clone(&served.tree);
                        let mut pieces = 0;
                        let t = timed(&mut || {
                            pieces = decompose(&tree).map_or(0, |d| d.modules.len());
                        });
                        (t, pieces)
                    });
                    decomposes.push(d);
                    modules.push(m as f64);
                    backend_self += d;
                }
                if let Some(Ok(reference)) = references.get(&(request.model, kind)) {
                    renders.push(reference.render_ms);
                    render_bytes.push(reference.bytes as f64);
                    session_self += reference.render_ms;
                }
            }
        }
    }
    outcome.metric("fault-tree.parse_ms", median(&parse));
    outcome.metric("fault-tree.parse_mb_per_s", median(&parse_rate));
    outcome.metric("fault-tree.hash_ms", median(&hashes));
    outcome.metric("ft-session.register_ms", median(&register));
    outcome.metric("ft-session.render_ms", median(&renders));
    outcome.metric("ft-session.render_bytes", mean(&render_bytes));
    outcome.metric("ft-backend.preprocess.decompose_ms", median(&decomposes));
    outcome.metric("ft-backend.preprocess.modules", mean(&modules));
    outcome.metric("fault-tree.self_ms", fault_tree_self / requests);
    outcome.metric("ft-session.self_ms", session_self / requests);
    outcome.metric("ft-backend.self_ms", backend_self / requests);

    let latencies = |traced: bool| -> Vec<f64> {
        exchanges
            .iter()
            .enumerate()
            .filter(|(i, _)| is_traced(*i) == traced)
            .map(|(_, e)| e.latency_ms())
            .collect()
    };
    let (traced, plain) = (latencies(true), latencies(false));
    let layers = crate::self_times_per_layer(&driven.tracer, traced.len() as u64);
    outcome.metric(
        "ft-server.self_ms",
        layers.get("ft-server").copied().unwrap_or(0.0),
    );
    let coverage = driven.tracer.coverage("request");
    eprintln!("  span coverage (first byte and body over send to last byte): {coverage:.4}");
    outcome.metric("trace.span_coverage", coverage);
    outcome.metric("trace.overhead_p50_ms", median(&traced) - median(&plain));
    outcome.metric("trace.ops", traced.len() as f64);
    let path = std::path::Path::new("perfbench-out/trace-serve-mixed.jsonl");
    if let Err(error) = driven.tracer.write_jsonl(path) {
        eprintln!("  could not write {}: {error}", path.display());
    }
}
