//! `serve-100k`: the HTTP front-end over loopback with a 100K x 50 model.
//!
//! Load: a closed loop on `CONNS` keep-alive connections, one thread
//! each, with the rank/score/score_active mix of `repro serve-load` (2 of
//! every 4 requests rank 64 candidates) and no faults or expired
//! deadlines. Connection 0's thread also calls `install_store` with a
//! fresh copy of one of two snapshots after every `INSTALL_EVERY` of its
//! requests, so readers run against concurrent writes.
//!
//! `train_s` is the median `install_store` time (a trained snapshot's
//! hand-off into serving), and `auc` the held-out activation AUC of the
//! snapshot serving at the end, on cascades generated over a digg-like
//! 100K-user graph. The served models are seeded random stores, so that
//! AUC sits at chance level: it guards the scoring the server answers
//! with, not training.
//!
//! The traced half replays one fixed request list three ways — straight
//! into `ScoringService`, with rank requests through `Batcher::rank`, and
//! over the socket — so the differences between the three split a
//! request into scoring, batching and HTTP time.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use inf2vec_diffusion::synth::{generate, SyntheticConfig};
use inf2vec_embed::EmbeddingStore;
use inf2vec_eval::activation::ActivationTask;
use inf2vec_eval::{Aggregator, ScoringModel};
use inf2vec_graph::NodeId;
use inf2vec_obs::{SampleValue, Telemetry};
use inf2vec_serve::service::metrics::REQUESTS_TOTAL;
use inf2vec_serve::{
    BatchConfig, Batcher, Frontend, FrontendConfig, Request, ScoringService, ServeConfig, OUTCOMES,
};
use inf2vec_util::json::Json;
use inf2vec_util::rng::{split_seed, Xoshiro256pp};

use crate::report::Outcome;
use crate::stats::{beyond, median, peak_rss_mb, quantile, samples_for_tail, secs, sorted, Layers};
use crate::Args;

const USERS: usize = 100_000;
const K: usize = 50;
/// Client connections, one load thread each.
const CONNS: usize = 2;
const RANK_CANDIDATES: usize = 64;
const TOP_N: usize = 8;
/// Connection 0 installs a new snapshot after this many of its requests.
const INSTALL_EVERY: u64 = 20_000;
/// Requests per connection that warm each set-up up.
const WARMUP_REQUESTS: u64 = 500;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// The tail percentile reported as `op_tail_ms`.
const TAIL_Q: f64 = 0.99;
/// The latency limit behind `slo_share`.
const SLO: Duration = Duration::from_micros(500);
/// Rank requests checked bit for bit against in-process `rank_targets`.
const IDENTITY_SAMPLES: usize = 64;
/// Items of the generated cascades the served model's AUC is taken on.
const AUC_ITEMS: u32 = 160;

/// One generated request.
#[derive(Debug, Clone)]
enum Req {
    Rank { u: u32, candidates: Vec<u32> },
    Score { u: u32, v: u32 },
    Active { v: u32, active: Vec<u32> },
}

impl Req {
    fn generate(rng: &mut Xoshiro256pp, i: u64) -> Self {
        let n = USERS as u64;
        let draw = |rng: &mut Xoshiro256pp| rng.below(n) as u32;
        match i % 4 {
            0 | 1 => Req::Rank {
                u: draw(rng),
                candidates: (0..RANK_CANDIDATES).map(|_| draw(rng)).collect(),
            },
            2 => Req::Score {
                u: draw(rng),
                v: draw(rng),
            },
            _ => {
                let v = draw(rng);
                let len = 1 + rng.below(4);
                Req::Active {
                    v,
                    active: (0..len).map(|_| draw(rng)).collect(),
                }
            }
        }
    }

    fn wire(&self, body: &mut String) -> &'static str {
        body.clear();
        let list = |body: &mut String, ids: &[u32]| {
            for (j, id) in ids.iter().enumerate() {
                if j > 0 {
                    body.push(',');
                }
                let _ = write!(body, "{id}");
            }
        };
        match self {
            Req::Rank { u, candidates } => {
                let _ = write!(body, "{{\"u\":{u},\"candidates\":[");
                list(body, candidates);
                let _ = write!(body, "],\"top_n\":{TOP_N}}}");
                "/v1/rank"
            }
            Req::Score { u, v } => {
                let _ = write!(body, "{{\"u\":{u},\"v\":{v}}}");
                "/v1/score"
            }
            Req::Active { v, active } => {
                let _ = write!(body, "{{\"v\":{v},\"active\":[");
                list(body, active);
                body.push_str("]}");
                "/v1/score_active"
            }
        }
    }
}

fn nodes(ids: &[u32]) -> Vec<NodeId> {
    ids.iter().map(|&i| NodeId(i)).collect()
}

/// A keep-alive HTTP/1.1 client: serial request/response with
/// Content-Length framing (all the front-end sends).
struct Client {
    stream: TcpStream,
    buf: Vec<u8>,
    request: Vec<u8>,
}

impl Client {
    fn connect(addr: SocketAddr) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(10)))?;
        Ok(Self {
            stream,
            buf: Vec::new(),
            request: Vec::new(),
        })
    }

    fn post(&mut self, path: &str, body: &str) -> std::io::Result<(u16, String)> {
        self.request.clear();
        let _ = write!(
            self.request,
            "POST {path} HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\n\r\n{body}",
            body.len()
        );
        self.stream.write_all(&self.request)?;
        let head_end = loop {
            if let Some(p) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break p;
            }
            self.fill()?;
        };
        let head = String::from_utf8_lossy(&self.buf[..head_end]).into_owned();
        let status = head
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("unparseable status line"))?;
        let length: usize = head
            .lines()
            .find_map(|l| {
                let (name, value) = l.split_once(':')?;
                name.trim()
                    .eq_ignore_ascii_case("content-length")
                    .then(|| value.trim().parse().ok())?
            })
            .ok_or_else(|| bad("response without Content-Length"))?;
        let start = head_end + 4;
        while self.buf.len() < start + length {
            self.fill()?;
        }
        let body = String::from_utf8_lossy(&self.buf[start..start + length]).into_owned();
        self.buf.drain(..start + length);
        Ok((status, body))
    }

    fn fill(&mut self) -> std::io::Result<()> {
        let mut chunk = [0u8; 8192];
        match self.stream.read(&mut chunk) {
            Ok(0) => Err(bad("server closed the connection")),
            Ok(n) => {
                self.buf.extend_from_slice(&chunk[..n]);
                Ok(())
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => Ok(()),
            Err(e) => Err(e),
        }
    }
}

fn bad(message: &str) -> std::io::Error {
    std::io::Error::new(ErrorKind::InvalidData, message.to_string())
}

/// The wire outcome label: `ok`/`degraded` for 200s, `error.outcome`
/// otherwise.
fn wire_outcome(status: u16, body: &str) -> Option<&'static str> {
    if status == 200 {
        return Some(if body.contains("\"degraded\":true") {
            "degraded"
        } else {
            "ok"
        });
    }
    OUTCOMES
        .iter()
        .find(|o| body.contains(&format!("\"outcome\":\"{o}\"")))
        .copied()
}

/// The serving stack an operator would start.
struct Stack {
    svc: Arc<ScoringService>,
    batcher: Arc<Batcher>,
    frontend: Frontend,
}

fn start_stack(model: &EmbeddingStore) -> Result<Stack, String> {
    let svc = Arc::new(ScoringService::new(
        ServeConfig {
            expect_k: Some(K),
            ..ServeConfig::default()
        },
        Telemetry::with_registry(),
    ));
    svc.install_store(model.clone(), "v0")
        .map_err(|e| format!("initial install: {e}"))?;
    let batcher = Arc::new(Batcher::start(Arc::clone(&svc), BatchConfig::default()));
    let frontend = Frontend::start(
        "127.0.0.1:0",
        Arc::clone(&batcher),
        FrontendConfig::default(),
    )
    .map_err(|e| format!("bind: {e}"))?;
    Ok(Stack {
        svc,
        batcher,
        frontend,
    })
}

/// How one connection's requests reach the program.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Path {
    /// Straight into `ScoringService`.
    Service,
    /// Rank through `Batcher::rank`, the rest into the service.
    Batcher,
    /// Over the socket.
    Wire,
}

/// What one connection saw.
#[derive(Default)]
struct ConnRun {
    latencies: Vec<f64>,
    within_slo: u64,
    outcomes: BTreeMap<&'static str, u64>,
    failed: u64,
    errors: Vec<String>,
    /// Duration of each `install_store` call.
    install_s: Vec<f64>,
    wall_s: f64,
}

/// Where a connection's requests come from.
enum Source<'a> {
    /// Generated on the fly until the deadline.
    Until(Instant, &'a mut Xoshiro256pp),
    /// A fixed list.
    List(&'a [Req]),
}

/// One load thread's view: the stack, and the snapshots it installs
/// (empty for every thread but connection 0's).
struct Conn<'a> {
    stack: &'a Stack,
    snapshots: &'a [EmbeddingStore],
    /// Installs so far across all threads (labels the versions).
    install_seq: &'a AtomicU64,
}

impl Conn<'_> {
    fn run(&self, path: Path, mut source: Source<'_>, client: &mut Option<Client>) -> ConnRun {
        let mut out = ConnRun::default();
        let start = Instant::now();
        let mut body = String::with_capacity(1024);
        let mut i = 0u64;
        loop {
            let generated;
            let req = match &mut source {
                Source::Until(end, rng) => {
                    if Instant::now() >= *end {
                        break;
                    }
                    generated = Req::generate(rng, i);
                    &generated
                }
                Source::List(list) => match list.get(i as usize) {
                    Some(r) => r,
                    None => break,
                },
            };
            i += 1;
            let t = Instant::now();
            let outcome = match path {
                Path::Wire => {
                    let client = client.as_mut().expect("wire path has a client");
                    let route = req.wire(&mut body);
                    match client.post(route, &body) {
                        Ok((status, response)) => match wire_outcome(status, &response) {
                            Some(o) => Ok(o),
                            None => Err(format!("{status} without an outcome: {response}")),
                        },
                        Err(e) => Err(format!("transport: {e}")),
                    }
                }
                _ => self.in_process(path, req),
            };
            let dt = t.elapsed();
            out.latencies.push(secs(dt));
            match outcome {
                Ok(o) => {
                    *out.outcomes.entry(o).or_insert(0) += 1;
                    if o == "ok" {
                        out.within_slo += u64::from(dt <= SLO);
                    } else {
                        out.failed += 1;
                    }
                }
                Err(e) => {
                    out.failed += 1;
                    if out.errors.len() < 4 {
                        out.errors.push(e);
                    }
                }
            }
            if !self.snapshots.is_empty() && i.is_multiple_of(INSTALL_EVERY) {
                let seq = self.install_seq.fetch_add(1, Ordering::Relaxed) + 1;
                let snap = &self.snapshots[seq as usize % self.snapshots.len()];
                let (snap, label) = (snap.clone(), format!("v{seq}"));
                let t = Instant::now();
                let installed = self.stack.svc.install_store(snap, &label);
                out.install_s.push(secs(t.elapsed()));
                if let Err(e) = installed {
                    out.failed += 1;
                    out.errors.push(format!("install: {e}"));
                }
            }
        }
        out.wall_s = secs(start.elapsed());
        out
    }

    fn in_process(&self, path: Path, req: &Req) -> Result<&'static str, String> {
        let svc = &self.stack.svc;
        let r = Request::new();
        let degraded = match req {
            Req::Rank { u, candidates } => {
                let res = if path == Path::Batcher {
                    self.stack
                        .batcher
                        .rank(NodeId(*u), nodes(candidates), TOP_N, &r)
                } else {
                    svc.rank_targets(NodeId(*u), &nodes(candidates), TOP_N, &r)
                };
                res.map(|x| x.degraded)
            }
            Req::Score { u, v } => svc
                .score_pair(NodeId(*u), NodeId(*v), &r)
                .map(|x| x.degraded),
            Req::Active { v, active } => svc
                .score_given_active(NodeId(*v), &nodes(active), Aggregator::Ave, &r)
                .map(|x| x.degraded),
        };
        match degraded {
            Ok(false) => Ok("ok"),
            Ok(true) => Ok("degraded"),
            Err(e) => Ok(e.outcome()),
        }
    }
}

/// Runs `CONNS` connections in parallel on `path`; connection 0 also
/// installs `snapshots`.
fn drive(
    stack: &Stack,
    snapshots: &[EmbeddingStore],
    path: Path,
    clients: &mut [Option<Client>],
    sources: Vec<Source<'_>>,
    install_seq: &AtomicU64,
) -> Vec<ConnRun> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(sources)
            .enumerate()
            .map(|(c, (client, source))| {
                let conn = Conn {
                    stack,
                    snapshots: if c == 0 { snapshots } else { &[] },
                    install_seq,
                };
                scope.spawn(move || conn.run(path, source, client))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect()
    })
}

fn connect_all(addr: SocketAddr) -> Result<Vec<Option<Client>>, String> {
    (0..CONNS)
        .map(|_| {
            Client::connect(addr)
                .map(Some)
                .map_err(|e| format!("connect: {e}"))
        })
        .collect()
}

/// Counter totals of `inf2vec_serve_requests_total` by outcome.
fn served_outcomes(svc: &ScoringService) -> BTreeMap<&'static str, u64> {
    let snap = svc.telemetry().snapshot();
    OUTCOMES
        .iter()
        .map(|&o| (o, snap.counter_value(REQUESTS_TOTAL, &[("outcome", o)])))
        .collect()
}

/// `(sum, count)` of the batch-size histogram.
fn batch_sizes(svc: &ScoringService) -> (f64, u64) {
    let snap = svc.telemetry().snapshot();
    match snap
        .get(inf2vec_serve::batch::metrics::BATCH_SIZE)
        .map(|s| &s.value)
    {
        Some(SampleValue::Histogram { sum, count, .. }) => (*sum, *count),
        _ => (0.0, 0),
    }
}

fn merge_outcomes(runs: &[ConnRun]) -> BTreeMap<&'static str, u64> {
    let mut all = BTreeMap::new();
    for r in runs {
        for (&o, &n) in &r.outcomes {
            *all.entry(o).or_insert(0) += n;
        }
    }
    all
}

/// Sampled rank requests over the wire must match in-process
/// `rank_targets` bit for bit (scores print in shortest round-trip form).
fn identity_check(
    stack: &Stack,
    client: &mut Client,
    rng: &mut Xoshiro256pp,
) -> Result<usize, String> {
    let mut mismatches = 0;
    let mut body = String::new();
    for i in 0..IDENTITY_SAMPLES as u64 {
        let req = Req::generate(rng, 4 * i);
        let Req::Rank { u, candidates } = &req else {
            unreachable!("op 0 mod 4 is a rank request")
        };
        let route = req.wire(&mut body);
        let (status, response) = client.post(route, &body).map_err(|e| e.to_string())?;
        let local = stack
            .svc
            .rank_targets(NodeId(*u), &nodes(candidates), TOP_N, &Request::new())
            .map_err(|e| e.to_string())?;
        let doc = Json::parse(&response).map_err(|e| format!("rank response: {e}"))?;
        let wire: Vec<(u64, String)> = doc
            .get("items")
            .and_then(Json::as_array)
            .unwrap_or(&[])
            .iter()
            .filter_map(|it| {
                let v = it.get("v")?.as_u64()?;
                let score = it.get("score")?.as_f64()?;
                Some((v, format!("{score}")))
            })
            .collect();
        let expect: Vec<(u64, String)> = local
            .items
            .iter()
            .map(|&(v, s)| (u64::from(v.0), format!("{s}")))
            .collect();
        let version = doc.get("version").and_then(Json::as_u64);
        if status != 200 || wire != expect || version != Some(local.version) {
            mismatches += 1;
        }
    }
    Ok(mismatches)
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let model = EmbeddingStore::new(USERS, K, split_seed(args.seed, 0x5E1));
    let snapshots = [
        EmbeddingStore::new(USERS, K, split_seed(args.seed, 0x5E2)),
        EmbeddingStore::new(USERS, K, split_seed(args.seed, 0x5E3)),
    ];
    let mut rngs: Vec<Xoshiro256pp> = (0..CONNS as u64)
        .map(|c| Xoshiro256pp::new(split_seed(args.seed, 0x10AD + c)))
        .collect();
    let install_seq = AtomicU64::new(0);

    // Set-up, several times: start the stack, connect, warm up.
    let mut setups = Vec::new();
    let mut kept = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        let stack = start_stack(&model)?;
        let mut clients = connect_all(stack.frontend.local_addr())?;
        let lists: Vec<Vec<Req>> = rngs
            .iter_mut()
            .map(|rng| {
                (0..WARMUP_REQUESTS)
                    .map(|i| Req::generate(rng, i))
                    .collect()
            })
            .collect();
        let sources = lists.iter().map(|l| Source::List(l)).collect();
        let warm = drive(&stack, &[], Path::Wire, &mut clients, sources, &install_seq);
        if warm.iter().any(|r| r.failed > 0) {
            return Err("warm-up requests failed".into());
        }
        setups.push(secs(t.elapsed()));
        if let Some((old, old_clients)) = kept.replace((stack, clients)) {
            drop::<Vec<Option<Client>>>(old_clients);
            let Stack { frontend, .. } = old;
            frontend.stop();
        }
    }
    let (stack, mut clients) = kept.expect("at least one set-up");
    let before = served_outcomes(&stack.svc);

    let budget = if args.trace {
        args.budget / 2
    } else {
        args.budget
    };
    let min_requests = samples_for_tail(TAIL_Q, 10);
    let mut runs: Vec<ConnRun> = Vec::new();
    let measure_start = Instant::now();
    while runs.iter().map(|r| r.latencies.len()).sum::<usize>() < min_requests
        || measure_start.elapsed() < budget
    {
        let end = Instant::now()
            + budget
                .saturating_sub(measure_start.elapsed())
                .max(Duration::from_millis(100));
        let sources = rngs.iter_mut().map(|rng| Source::Until(end, rng)).collect();
        let round = drive(
            &stack,
            &snapshots,
            Path::Wire,
            &mut clients,
            sources,
            &install_seq,
        );
        runs.extend(round);
    }
    let wall = secs(measure_start.elapsed());
    let latencies: Vec<f64> = runs
        .iter()
        .flat_map(|r| r.latencies.iter().copied())
        .collect();
    let attempted = latencies.len() as u64;
    let failed: u64 = runs.iter().map(|r| r.failed).sum();
    let within: u64 = runs.iter().map(|r| r.within_slo).sum();
    let s = sorted(&latencies);

    // Gate: wire tallies reconcile exactly with the service's counters.
    let after = served_outcomes(&stack.svc);
    let wire = merge_outcomes(&runs);
    let mismatched: Vec<String> = OUTCOMES
        .iter()
        .filter_map(|&o| {
            let served = after[o] - before[o];
            let seen = wire.get(o).copied().unwrap_or(0);
            (served != seen).then(|| format!("{o}: wire {seen} vs metrics {served}"))
        })
        .collect();
    let mut out = Outcome::new(attempted);
    out.gate(
        "wire_reconciles",
        mismatched.is_empty(),
        if mismatched.is_empty() {
            format!("{attempted} requests, outcomes {wire:?}")
        } else {
            mismatched.join("; ")
        },
        1,
    );
    let errors: Vec<&String> = runs.iter().flat_map(|r| r.errors.iter()).collect();
    out.gate(
        "all_answered",
        failed == 0,
        format!("{failed} failed requests or installs {errors:?}"),
        failed,
    );

    let mut traced_note = None;
    if args.trace {
        // One fixed request list per connection, replayed three ways.
        let per_conn_rate = attempted as f64 / wall / CONNS as f64;
        let len = ((per_conn_rate * secs(budget) / 3.0) as u64).max(2 * INSTALL_EVERY);
        let lists: Vec<Vec<Req>> = rngs
            .iter_mut()
            .map(|rng| (0..len).map(|i| Req::generate(rng, i)).collect())
            .collect();
        let mut layers = Layers::default();
        let mut totals = [0.0f64; 3];
        let mut wire_runs = Vec::new();
        let mut batch_delta = (0.0, 0u64);
        for (m, path) in [Path::Service, Path::Batcher, Path::Wire]
            .into_iter()
            .enumerate()
        {
            if path == Path::Wire {
                // The front-end closes keep-alive connections that sat
                // quiet during the in-process replays; start fresh ones.
                clients = connect_all(stack.frontend.local_addr())?;
            }
            let sources = lists.iter().map(|l| Source::List(l)).collect();
            let b0 = batch_sizes(&stack.svc);
            let round = drive(
                &stack,
                &snapshots,
                path,
                &mut clients,
                sources,
                &install_seq,
            );
            let b1 = batch_sizes(&stack.svc);
            totals[m] = round.iter().flat_map(|r| r.latencies.iter()).sum();
            if path == Path::Wire {
                batch_delta = (b1.0 - b0.0, b1.1 - b0.1);
                wire_runs = round;
            }
        }
        let requests = (len as usize * CONNS) as f64;
        layers.add("serve.score_s", totals[0]);
        layers.add("serve.batch_s", totals[1] - totals[0]);
        layers.add("obs.http_s", totals[2] - totals[1]);
        let install_s: f64 = wire_runs.iter().flat_map(|r| &r.install_s).sum();
        let installs = wire_runs.iter().map(|r| r.install_s.len()).sum::<usize>();
        let thread_wall: f64 = wire_runs.iter().map(|r| r.wall_s).sum();
        let named = ["serve.score_s", "serve.batch_s", "obs.http_s"];
        for name in named {
            out.metric(name, layers.get(name) / requests, "s");
        }
        out.metric("serve.install_s", install_s / installs.max(1) as f64, "s");
        out.metric("serve.installs", installs as f64, "count");
        out.metric(
            "serve.batch_size_mean",
            batch_delta.0 / batch_delta.1.max(1) as f64,
            "count",
        );
        let unattributed = thread_wall - totals[2] - install_s;
        out.metric("trace.unattributed_s", unattributed / requests, "s");
        out.metric("trace.wall_s", thread_wall / requests, "s");
        out.metric(
            "trace.unattributed_share",
            unattributed / thread_wall,
            "ratio",
        );
        let wire_lat: Vec<f64> = wire_runs
            .iter()
            .flat_map(|r| r.latencies.iter().copied())
            .collect();
        let st = sorted(&wire_lat);
        out.metric(
            "trace.overhead_pct",
            100.0 * (quantile(&st, 0.5) / quantile(&s, 0.5) - 1.0),
            "%",
        );
        out.note("traced_requests", requests);
        out.note("untraced_op_p50_ms", 1e3 * quantile(&s, 0.5));
        out.note("traced_op_p50_ms", 1e3 * quantile(&st, 0.5));
        out.note("untraced_throughput_per_s", attempted as f64 / wall);
        out.note(
            "traced_throughput_per_s",
            requests / (thread_wall / CONNS as f64),
        );
        out.gate(
            "layers_ordered",
            totals[0] > 0.0 && totals[2] > totals[1] && unattributed >= 0.0,
            format!(
                "service {:.4} s, batcher {:.4} s, wire {:.4} s, unattributed {unattributed:.4} s",
                totals[0], totals[1], totals[2]
            ),
            1,
        );
        let replay_failed: u64 = wire_runs.iter().map(|r| r.failed).sum();
        out.gate(
            "replay_answered",
            replay_failed == 0,
            format!("{replay_failed} replayed requests failed"),
            replay_failed,
        );
        traced_note = Some(requests);
    }

    // Gate: sampled wire rank responses are bit-identical in process
    // (run last: in-process calls add to the service's counters).
    drop(clients);
    let mut client =
        Client::connect(stack.frontend.local_addr()).map_err(|e| format!("connect: {e}"))?;
    let mut rng = Xoshiro256pp::new(split_seed(args.seed, 0x1DE7));
    let mismatches = identity_check(&stack, &mut client, &mut rng)?;
    out.gate(
        "rank_bit_identical",
        mismatches == 0,
        format!("{mismatches} of {IDENTITY_SAMPLES} sampled rank responses differ"),
        mismatches as u64,
    );
    drop(client);
    let served = stack
        .svc
        .registry()
        .current()
        .ok_or("no model is serving")?;
    let Stack { frontend, .. } = stack;
    frontend.stop();

    out.input("users", USERS as u64);
    out.input(
        "requests",
        attempted + traced_note.map_or(0, |r| 3 * r as u64),
    );
    out.input("installs", install_seq.load(Ordering::Relaxed));
    out.note("ops", attempted as f64);
    out.note("tail_quantile", TAIL_Q);
    out.note(
        "samples_beyond_tail",
        beyond(latencies.len(), TAIL_Q) as f64,
    );
    out.note("slo_ms", SLO.as_secs_f64() * 1e3);
    if !args.trace {
        out.metric("setup_s", median(&setups), "s");
        out.metric("throughput_per_s", attempted as f64 / wall, "1/s");
        out.metric("op_p50_ms", 1e3 * quantile(&s, 0.5), "ms");
        out.metric("op_tail_ms", 1e3 * quantile(&s, TAIL_Q), "ms");
        let installs: Vec<f64> = runs.iter().flat_map(|r| r.install_s.clone()).collect();
        if installs.is_empty() {
            return Err("the run made no install".into());
        }
        out.metric("train_s", median(&installs), "s");
        let synth = generate(
            &SyntheticConfig::digg_like().scaled(USERS as u32, AUC_ITEMS),
            split_seed(args.seed, 0x5E4),
        );
        let data = &synth.dataset;
        let task = ActivationTask::build(&data.graph, data.log.episodes());
        let model = inf2vec_core::Inf2vecModel::new(served.store().clone());
        let auc = task
            .evaluate(&ScoringModel::Representation(&model, Aggregator::Ave))
            .auc;
        out.metric("auc", auc, "ratio");
        out.metric("slo_share", within as f64 / attempted as f64, "ratio");
        out.metric("peak_rss_mb", peak_rss_mb(), "MiB");
    }
    Ok(out)
}
