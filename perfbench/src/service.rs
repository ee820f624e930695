//! `service_mix`: a `softhw-serve` process in its default configuration,
//! driven by one client connection in a closed loop (one request in
//! flight). Each round is the same mix: warm requests over a fixed set
//! of schemas (HyperBench text and the paper's SQL bodies), one request
//! in ten on a schema never seen before, and a share of `BATCH` frames.

use crate::check::{self, Decomp, Edges};
use crate::stats::{median, peak_rss_mb, quantile, Report};
use crate::{timed_rounds, Args};
use softhw_core::constraints::ConCov;
use softhw_core::ctd_opt::best;
use softhw_core::{DecompCache, SolveSpec, Solved};
use softhw_hypergraph::random::{random_hypergraph, RandomConfig};
use softhw_hypergraph::{named, parse_hypergraph, render_hypergraph, Hypergraph};
use softhw_service::{
    read_frame, BatchRequest, BodyFormat, EvalKind, Request, RequestClass, Response, ServiceConfig,
    ServiceState, WireRequest,
};
use std::io::{BufRead, BufReader, Cursor, Write};
use std::net::TcpStream;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::Instant;

/// Operations per round.
const ROUND: usize = 100;
/// Sub-requests per `BATCH` frame.
const BATCH_ITEMS: usize = 8;
/// Every run completes at least this many rounds; the server's peak RSS
/// is read after the last of them, at the same amount of work in every
/// run (the result caches keep growing for as long as a run lasts).
const MIN_ROUNDS: usize = 100;
/// The warm tail: this percentile of each round's 85 warm requests (8
/// beyond it), median over rounds. The 95th and 99th percentiles of the
/// whole run moved by 40% and 200% between sets of runs of the same
/// code: a burst of host noise in a few rounds sets them.
const TAIL: f64 = 0.9;
/// Set-ups (boot, first warm pass, cache fill) whose median is `setup_s`.
const SETUP_REPS: usize = 3;
/// Never-seen schemas sent at set-up: one and a half times what the
/// stripe caches hold together (8 stripes of 128 schemas), so every
/// stripe is full, and evicting, from the first timed round on. Warm
/// latency climbs while the caches fill, so without this a run's figures
/// would depend on how many rounds it managed.
const FILL: usize = 1536;
/// Round numbers of the fill's schemas start here, apart from the
/// timed rounds' numbers.
const FILL_ROUNDS: usize = 1 << 20;
/// Rounds each in-process pass of the traced run replays.
const TRACE_ROUNDS: usize = 5;

/// The classes of the warm requests, each sent on every warm schema.
const WARM_CLASSES: [RequestClass; 5] = [
    RequestClass::Shw,
    RequestClass::ShwLeq(2),
    RequestClass::Hw,
    RequestClass::Best(EvalKind::ConCov, 2),
    RequestClass::Stats,
];

/// The classes of the never-seen-schema requests. `BEST concov` is sent
/// warm only: on a cold 10-vertex schema it takes 0.5 to 14 ms, and two
/// or three such requests in a round of 100 made the round's time swing
/// by a third.
const COLD_CLASSES: [RequestClass; 3] =
    [RequestClass::Shw, RequestClass::ShwLeq(2), RequestClass::Hw];

/// A schema the mix sends: its body, format, and the hypergraph the
/// server must read from it.
struct Schema {
    name: String,
    body: String,
    format: BodyFormat,
    h: Hypergraph,
}

impl Schema {
    /// A schema from its body, with the hypergraph the server must read.
    fn new(name: &str, body: String, format: BodyFormat) -> Result<Schema, String> {
        let h = match format {
            BodyFormat::HyperBench => parse_hypergraph(&body).map_err(|e| format!("{e:?}"))?,
            BodyFormat::Sql => {
                let ast = softhw_query::parse_sql(&body).map_err(|e| format!("{e:?}"))?;
                softhw_query::ast_hypergraph(&ast).map_err(|e| format!("{e:?}"))?
            }
        };
        Ok(Schema {
            name: name.to_string(),
            body,
            format,
            h,
        })
    }
}

/// The paper queries sent as SQL bodies. `q_ds` is not among them: it
/// names columns without their table in a multi-table `FROM`, which the
/// catalog-free SQL path rejects by design (`AmbiguousColumn`).
const SQL_QUERIES: [&str; 5] = ["q_hto", "q_hto2", "q_hto3", "q_hto4", "q_lb"];

/// The fixed warm schemas: five HyperBench hypergraphs and five paper
/// queries as SQL bodies.
fn warm_schemas() -> Result<Vec<Schema>, String> {
    let mut out = Vec::new();
    let hb = [
        ("h2", named::h2()),
        ("cycle6", named::cycle(6)),
        ("cycle8", named::cycle(8)),
        ("grid3x3", named::grid(3, 3)),
        ("triangle_star3", named::triangle_star(3)),
    ];
    for (name, h) in hb {
        out.push(Schema::new(
            name,
            render_hypergraph(&h),
            BodyFormat::HyperBench,
        )?);
    }
    for (name, sql, _) in softhw_workloads::queries::all_queries() {
        if SQL_QUERIES.contains(&name) {
            out.push(Schema::new(name, sql.to_string(), BodyFormat::Sql)?);
        }
    }
    Ok(out)
}

fn request(class: RequestClass, s: &Schema) -> Request {
    let mut r = Request::new(class, s.body.clone());
    r.format = s.format;
    r
}

/// A never-seen schema: a random hypergraph keyed by (seed, round, slot).
fn cold_schema(seed: u64, round: usize, slot: usize) -> Result<Schema, String> {
    let cfg = RandomConfig {
        num_vertices: 10,
        num_edges: 10,
        min_arity: 2,
        max_arity: 3,
        connect: true,
    };
    let key = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add((round * ROUND + slot) as u64);
    let body = render_hypergraph(&random_hypergraph(&cfg, key));
    Schema::new(&format!("cold{round}.{slot}"), body, BodyFormat::HyperBench)
}

#[derive(Clone, Copy, PartialEq)]
enum Kind {
    Warm,
    Cold,
    Batch,
}

/// One operation of a round.
struct Op {
    kind: Kind,
    /// The encoded frame the client sends.
    frame: String,
    /// Warm: the index into `Mix::warm`. Batch: the first item's index
    /// into `Mix::batchable`.
    warm: usize,
    /// Cold: the schema and class, for the checks.
    cold: Option<(Schema, RequestClass)>,
}

/// The warm requests: every solver class and `STATS` on every warm
/// schema. `BATCH` frames carry the solver requests only.
struct Mix {
    schemas: Vec<Schema>,
    warm: Vec<(usize, Request)>,
    batchable: Vec<usize>,
}

fn mix() -> Result<Mix, String> {
    let schemas = warm_schemas()?;
    let mut warm = Vec::new();
    let mut batchable = Vec::new();
    for (si, s) in schemas.iter().enumerate() {
        for class in WARM_CLASSES {
            if class != RequestClass::Stats {
                batchable.push(warm.len());
            }
            warm.push((si, request(class, s)));
        }
    }
    Ok(Mix {
        schemas,
        warm,
        batchable,
    })
}

/// Round `r` of the mix: slot 9 of every ten is a cold schema, slot 4 of
/// every twenty a `BATCH` frame, the rest warm requests in a fixed
/// rotation.
fn round_ops(m: &Mix, seed: u64, r: usize) -> Result<Vec<Op>, String> {
    let mut ops = Vec::with_capacity(ROUND);
    let (mut w, mut b) = (0, 0);
    for slot in 0..ROUND {
        if slot % 10 == 9 {
            let s = cold_schema(seed, r, slot)?;
            let class = COLD_CLASSES[(slot / 10) % COLD_CLASSES.len()];
            ops.push(Op {
                kind: Kind::Cold,
                frame: request(class, &s).encode(),
                warm: 0,
                cold: Some((s, class)),
            });
        } else if slot % 20 == 4 {
            let first = (b * BATCH_ITEMS) % m.batchable.len();
            let items = (0..BATCH_ITEMS)
                .map(|j| {
                    m.warm[m.batchable[(first + j) % m.batchable.len()]]
                        .1
                        .clone()
                })
                .collect();
            ops.push(Op {
                kind: Kind::Batch,
                frame: BatchRequest::new(items).encode(),
                warm: first,
                cold: None,
            });
            b += 1;
        } else {
            let i = w % m.warm.len();
            ops.push(Op {
                kind: Kind::Warm,
                frame: m.warm[i].1.encode(),
                warm: i,
                cold: None,
            });
            w += 1;
        }
    }
    Ok(ops)
}

/// A running `softhw-serve`, stopped and reaped on drop.
struct Server {
    child: Child,
    addr: String,
    /// Held open, so the server never writes into a closed pipe.
    stdout: BufReader<ChildStdout>,
}

impl Server {
    fn boot(bin: &str) -> Result<Server, String> {
        let mut child = Command::new(bin)
            .args(["--addr", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("{bin}: {e}"))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        // Own the child before anything can fail, so it is always reaped.
        let mut server = Server {
            child,
            addr: String::new(),
            stdout: BufReader::new(stdout),
        };
        let mut line = String::new();
        loop {
            line.clear();
            let n = server
                .stdout
                .read_line(&mut line)
                .map_err(|e| e.to_string())?;
            if n == 0 {
                return Err("softhw-serve exited before listening".into());
            }
            if let Some(addr) = line.trim().strip_prefix("listening on ") {
                server.addr = addr.to_string();
                return Ok(server);
            }
        }
    }

    fn connect(&self) -> Result<Client, String> {
        let stream = TcpStream::connect(&self.addr).map_err(|e| e.to_string())?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Client { stream, reader })
    }

    fn peak_rss_mb(&self) -> f64 {
        peak_rss_mb(&self.child.id().to_string()).unwrap_or(0.0)
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    /// One request in flight: send the frame, read and decode the reply.
    fn call(&mut self, frame: &str) -> Result<Response, String> {
        self.stream
            .write_all(frame.as_bytes())
            .map_err(|e| e.to_string())?;
        let lines = read_frame(&mut self.reader)
            .map_err(|e| e.to_string())?
            .ok_or("server closed the connection")?;
        Response::decode(&lines).map_err(|e| e.to_string())
    }
}

/// Checks a response against the library front door on a cache of the
/// checker's own, and its witness after `TdFrame::to_td`.
fn check_response(
    s: &Schema,
    class: RequestClass,
    resp: &Response,
    lib: &mut DecompCache,
) -> Result<(), String> {
    let ctx = |e: String| format!("{} {}: {e}", s.name, class.name());
    let edges = Edges::of(&s.h);
    let decomp = |td: &softhw_service::TdFrame| -> Result<Decomp, String> {
        Ok(Decomp::of(&td.to_td().map_err(|e| ctx(e.to_string()))?))
    };
    let solve = |lib: &mut DecompCache, spec: SolveSpec| {
        lib.solve(&s.h, &spec).map_err(|e| ctx(e.to_string()))
    };
    match (class, resp) {
        (RequestClass::Shw, Response::Width { width, td, .. }) => {
            let want = solve(lib, SolveSpec::shw())?.width();
            if want != Some(*width) {
                return Err(ctx(format!("width {width}, library {want:?}")));
            }
            if let Some(w) = check::known_width(&s.name, "shw").filter(|w| w != width) {
                return Err(ctx(format!("width {width}, the paper gives {w}")));
            }
            check::witness(&edges, &decomp(td)?, *width).map_err(ctx)
        }
        (RequestClass::Hw, Response::Width { width, td, .. }) => {
            let want = match solve(lib, SolveSpec::hw())? {
                Solved::HwWidth(w, _) => Some(w),
                _ => None,
            };
            if want != Some(*width) {
                return Err(ctx(format!("width {width}, library {want:?}")));
            }
            if let Some(w) = check::known_width(&s.name, "hw").filter(|w| w != width) {
                return Err(ctx(format!("width {width}, the paper gives {w}")));
            }
            check::witness(&edges, &decomp(td)?, *width).map_err(ctx)
        }
        (RequestClass::ShwLeq(k), Response::Decision { td, .. }) => {
            let want = solve(lib, SolveSpec::shw_leq(k))?.accepted();
            if want != Some(td.is_some()) {
                return Err(ctx(format!("accepted={}, library {want:?}", td.is_some())));
            }
            check::known_decision(&s.name, k, td.is_some()).map_err(ctx)?;
            match td {
                Some(td) => check::witness(&edges, &decomp(td)?, k).map_err(ctx),
                None => Ok(()),
            }
        }
        (RequestClass::Best(EvalKind::ConCov, k), Response::Decision { td, .. }) => {
            let bags = softhw_core::soft_bags(&s.h, k);
            let want = best(&s.h, &bags, &ConCov { k }).is_some();
            if want != td.is_some() {
                return Err(ctx(format!("accepted={}, library {want}", td.is_some())));
            }
            match td {
                Some(td) => check::concov_witness(&edges, &decomp(td)?, k).map_err(ctx),
                None => Ok(()),
            }
        }
        (RequestClass::Stats, Response::Stats { .. }) if stats_of(s, resp) => Ok(()),
        _ => Err(ctx(format!("unexpected response {:?}", first_line(resp)))),
    }
}

fn first_line(resp: &Response) -> String {
    resp.encode().lines().next().unwrap_or("").to_string()
}

/// Whether `resp` is a `STATS` reply counting `s`'s vertices and edges.
fn stats_of(s: &Schema, resp: &Response) -> bool {
    let Response::Stats { fields } = resp else {
        return false;
    };
    let field = |k: &str| fields.iter().find(|(f, _)| f == k).map(|(_, v)| v.as_str());
    field("vertices") == Some(&s.h.num_vertices().to_string())
        && field("edges") == Some(&s.h.num_edges().to_string())
}

/// A warm reply must repeat the checked one; `STATS` counters move, so a
/// `STATS` reply only has to stay a `STATS` reply of the same schema.
fn same_reply(expected: &Response, got: &Response, s: &Schema, class: RequestClass) -> bool {
    match class {
        RequestClass::Stats => stats_of(s, got),
        _ => expected == got,
    }
}

/// Sends every warm request once; returns the replies.
fn warm_pass(m: &Mix, c: &mut Client) -> Result<Vec<Response>, String> {
    let mut out = Vec::with_capacity(m.warm.len());
    for (_, req) in &m.warm {
        out.push(c.call(&req.encode())?);
    }
    Ok(out)
}

fn check_warm(m: &Mix, replies: &[Response]) -> Result<(), String> {
    let mut lib = DecompCache::new();
    for ((si, req), resp) in m.warm.iter().zip(replies) {
        check_response(&m.schemas[*si], req.class, resp, &mut lib)?;
    }
    Ok(())
}

/// Sends the `FILL` never-seen schemas (exact `SHW`), untimed.
fn fill(c: &mut Client, seed: u64) -> Result<(), String> {
    for i in 0..FILL {
        let s = cold_schema(seed, FILL_ROUNDS + i / ROUND, i % ROUND)?;
        match c.call(&request(RequestClass::Shw, &s).encode())? {
            Response::Width { .. } => {}
            other => return Err(format!("fill: {}", first_line(&other))),
        }
    }
    Ok(())
}

fn serve_bin(args: &Args) -> Result<&str, String> {
    args.serve
        .as_deref()
        .ok_or_else(|| "service_mix needs --serve <softhw-serve executable>".into())
}

/// Set-up, `SETUP_REPS` times: boot the server, send its first warm
/// pass, and fill its caches. Returns the last server, its client, the
/// warm replies and the median set-up time.
fn boot(bin: &str, m: &Mix, seed: u64) -> Result<(Server, Client, Vec<Response>, f64), String> {
    let mut setups = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let start = Instant::now();
        let server = Server::boot(bin)?;
        let mut client = server.connect()?;
        let replies = warm_pass(m, &mut client)?;
        fill(&mut client, seed)?;
        setups.push(start.elapsed().as_secs_f64());
        last = Some((server, client, replies));
    }
    let (server, client, replies) = last.expect("SETUP_REPS > 0");
    Ok((server, client, replies, median(&setups)))
}

/// Runs `service_mix`.
pub fn run(args: &Args) -> Result<Report, String> {
    let bin = serve_bin(args)?;
    let m = mix()?;
    let (server, mut client, expected, setup_s) = boot(bin, &m, args.seed)?;
    check_warm(&m, &expected)?;

    let mut lat: [Vec<f64>; 3] = Default::default();
    let mut cold_replies: Vec<(Schema, RequestClass, Response)> = Vec::new();
    let mut errors: Vec<String> = Vec::new();
    let mut rss = 0.0;
    let mut round_tails = Vec::new();
    let round_secs = timed_rounds(args.seconds, MIN_ROUNDS, |round| {
        let ops = match round_ops(&m, args.seed, round) {
            Ok(ops) => ops,
            Err(e) => {
                errors.push(e);
                return 0.0;
            }
        };
        let start = Instant::now();
        let first_warm = lat[Kind::Warm as usize].len();
        for op in ops {
            let t = Instant::now();
            let resp = client.call(&op.frame);
            lat[op.kind as usize].push(t.elapsed().as_secs_f64() * 1e3);
            let resp = match resp {
                Ok(r) => r,
                Err(e) => {
                    errors.push(e);
                    break;
                }
            };
            match op.kind {
                Kind::Warm => {
                    let (si, req) = &m.warm[op.warm];
                    if !same_reply(&expected[op.warm], &resp, &m.schemas[*si], req.class) {
                        errors.push(format!("warm reply changed: {}", first_line(&resp)));
                    }
                }
                Kind::Batch => {
                    let ok = match &resp {
                        Response::Batch { responses } => {
                            responses.len() == BATCH_ITEMS
                                && responses.iter().enumerate().all(|(j, r)| {
                                    let i = m.batchable[(op.warm + j) % m.batchable.len()];
                                    *r == expected[i]
                                })
                        }
                        _ => false,
                    };
                    if !ok {
                        errors.push(format!("BATCH reply differs: {}", first_line(&resp)));
                    }
                }
                Kind::Cold => {
                    let (s, class) = op.cold.expect("cold ops carry their schema");
                    cold_replies.push((s, class, resp));
                }
            }
        }
        let secs = start.elapsed().as_secs_f64();
        round_tails.push(quantile(&lat[Kind::Warm as usize][first_warm..], TAIL));
        if round + 1 == MIN_ROUNDS {
            rss = server.peak_rss_mb();
        }
        secs
    });
    drop(client);
    drop(server);
    if let Some(e) = errors.first() {
        return Err(e.clone());
    }
    let mut lib = DecompCache::new();
    for (s, class, resp) in &cold_replies {
        check_response(s, *class, resp, &mut lib)?;
    }

    let attempted = (round_secs.len() * ROUND) as u64;
    let mut r = Report {
        correct: true,
        attempted,
        failed: 0,
        ..Report::default()
    };
    let [warm, cold, batch] = &lat;
    crate::push_common(&mut r, setup_s, rss, ROUND as f64 / median(&round_secs));
    r.push("latency_ms", median(warm), "ms");
    r.push("tail_ms", median(&round_tails), "ms");
    r.push("second_ms", median(cold), "ms");
    r.push("third_ms", median(batch), "ms");
    Ok(r)
}

/// Splits an encoded frame into the lines a reader hands the decoder.
fn frame_lines(frame: &str) -> Result<Vec<String>, String> {
    read_frame(&mut Cursor::new(frame.as_bytes()))
        .map_err(|e| e.to_string())?
        .ok_or_else(|| "empty frame".into())
}

/// Per-kind microsecond samples of one in-process pass.
#[derive(Default)]
struct Pass {
    req_decode: Vec<f64>,
    handle: [Vec<f64>; 3],
    resp_encode: Vec<f64>,
    resp_decode: Vec<f64>,
    secs: f64,
    ops: usize,
}

/// Replays rounds `first..first + TRACE_ROUNDS` against an in-process
/// state: request decode, handler, response encode and decode, each
/// timed when `timed`.
fn in_process(
    state: &ServiceState,
    m: &Mix,
    seed: u64,
    first: usize,
    timed: bool,
) -> Result<Pass, String> {
    let rounds = (first..first + TRACE_ROUNDS)
        .map(|r| round_ops(m, seed, r))
        .collect::<Result<Vec<_>, _>>()?;
    let frames: Vec<(Kind, Vec<String>)> = rounds
        .iter()
        .flatten()
        .map(|op| Ok((op.kind, frame_lines(&op.frame)?)))
        .collect::<Result<_, String>>()?;
    let one = |lines: &[String]| -> Result<Vec<String>, String> {
        let resp = match WireRequest::decode(lines).map_err(|e| e.to_string())? {
            WireRequest::Single(req) => state.handle(&req),
            WireRequest::Batch(b) => state.handle_batch(&b, None, &state.batch_budget(&b)),
        };
        let lines = frame_lines(&resp.encode())?;
        Response::decode(&lines).map_err(|e| e.to_string())?;
        Ok(lines)
    };
    let mut p = Pass::default();
    let start = Instant::now();
    for (kind, lines) in &frames {
        if !timed {
            one(lines)?;
            continue;
        }
        let us = |t: Instant| t.elapsed().as_secs_f64() * 1e6;
        let t = Instant::now();
        let req = WireRequest::decode(lines).map_err(|e| e.to_string())?;
        let decode = us(t);
        let t = Instant::now();
        let resp = match &req {
            WireRequest::Single(req) => state.handle(req),
            WireRequest::Batch(b) => state.handle_batch(b, None, &state.batch_budget(b)),
        };
        p.handle[*kind as usize].push(us(t));
        let t = Instant::now();
        let frame = resp.encode();
        let encode = us(t);
        let lines = frame_lines(&frame)?;
        let t = Instant::now();
        Response::decode(&lines).map_err(|e| e.to_string())?;
        if *kind == Kind::Warm {
            p.req_decode.push(decode);
            p.resp_encode.push(encode);
            p.resp_decode.push(us(t));
        }
    }
    p.secs = start.elapsed().as_secs_f64();
    p.ops = frames.len();
    Ok(p)
}

/// An in-process state in the server's steady state: the warm requests
/// answered once and the caches filled like the server's at set-up.
fn steady_state(m: &Mix, seed: u64, obs: bool) -> Result<ServiceState, String> {
    softhw_obs::set_enabled(obs);
    let state = ServiceState::new(ServiceConfig {
        obs_enabled: obs,
        ..ServiceConfig::default()
    });
    for (_, req) in &m.warm {
        state.handle(req);
    }
    for i in 0..FILL {
        let s = cold_schema(seed, FILL_ROUNDS + i / ROUND, i % ROUND)?;
        state.handle(&request(RequestClass::Shw, &s));
    }
    Ok(state)
}

fn stats_field(fields: &[(String, String)], key: &str) -> f64 {
    fields.iter().find(|(k, _)| k == key).map_or(0.0, |(_, v)| {
        v.split(',').filter_map(|x| x.parse::<f64>().ok()).sum()
    })
}

/// The stages read from the server's `METRICS` exposition.
const STAGES: [&str; 9] = [
    "reduce",
    "index_build",
    "instance_build",
    "instance_extend",
    "satisfy",
    "enumerate",
    "result_cache",
    "queue_wait",
    "reorder_dwell",
];

/// The service path's per-layer figures: a socket pass for the warm
/// round trip and the server's own counters, then in-process passes for
/// the codec, the handler and the observability cost.
pub fn layer_pass(
    seed: u64,
    seconds: f64,
    serve: Option<&str>,
    out: &mut Report,
) -> Result<usize, String> {
    let bin = serve.ok_or("the traced run needs --serve <softhw-serve executable>")?;
    let m = mix()?;
    let (server, mut client, _, _) = boot(bin, &m, seed)?;
    // The socket pass is as long as an untraced run, so the server's
    // counters cover as many cold schemas (and evictions).
    let mut rtt = Vec::new();
    let mut err = Ok(());
    let round = timed_rounds(seconds, MIN_ROUNDS, |round| {
        let ops = match round_ops(&m, seed, round) {
            Ok(ops) => ops,
            Err(e) => {
                err = Err(e);
                return 0.0;
            }
        };
        for op in ops {
            let t = Instant::now();
            if let Err(e) = client.call(&op.frame) {
                err = Err(e);
                break;
            }
            if op.kind == Kind::Warm {
                rtt.push(t.elapsed().as_secs_f64() * 1e6);
            }
        }
        0.0
    })
    .len();
    err?;
    let stats = match client.call(&request(RequestClass::Stats, &m.schemas[0]).encode())? {
        Response::Stats { fields } => fields,
        other => return Err(format!("STATS answered {}", first_line(&other))),
    };
    let metrics = match client.call(&Request::new(RequestClass::Metrics, "").encode())? {
        Response::Metrics { lines } => lines,
        other => return Err(format!("METRICS answered {}", first_line(&other))),
    };
    drop(client);
    drop(server);

    // In-process: obs on (the default) and off, alternating, then an
    // untimed pass; each on rounds no pass before it sent, so the cold
    // schemas are cold.
    let with_obs = steady_state(&m, seed, true)?;
    let without = steady_state(&m, seed, false)?;
    let mut on = Vec::new();
    let mut off = Vec::new();
    for rep in 0..2 {
        let base = round + TRACE_ROUNDS * 2 * rep;
        softhw_obs::set_enabled(true);
        on.push(in_process(&with_obs, &m, seed, base, true)?);
        softhw_obs::set_enabled(false);
        off.push(in_process(&without, &m, seed, base + TRACE_ROUNDS, true)?);
    }
    softhw_obs::set_enabled(true);
    let untraced = in_process(&with_obs, &m, seed, round + 4 * TRACE_ROUNDS, false)?;
    let traced = &on[1];

    let pool = |passes: &[Pass], f: &dyn Fn(&Pass) -> &Vec<f64>| -> Vec<f64> {
        passes.iter().flat_map(|p| f(p).iter().copied()).collect()
    };
    let req_decode = median(&pool(&on, &|p| &p.req_decode));
    let resp_encode = median(&pool(&on, &|p| &p.resp_encode));
    let resp_decode = median(&pool(&on, &|p| &p.resp_decode));
    let handle = |passes: &[Pass], k: Kind| median(&pool(passes, &|p| &p.handle[k as usize]));
    let warm_rtt = median(&rtt);
    let layers_us = req_decode + handle(&on, Kind::Warm) + resp_encode + resp_decode;
    let transport = warm_rtt - layers_us;
    out.push("wire.request_decode_us", req_decode, "us");
    out.push("wire.response_encode_us", resp_encode, "us");
    out.push("wire.response_decode_us", resp_decode, "us");
    out.push("state.handle_warm_us", handle(&on, Kind::Warm), "us");
    out.push("state.handle_cold_us", handle(&on, Kind::Cold), "us");
    out.push("state.handle_batch_us", handle(&on, Kind::Batch), "us");
    out.push("server.transport_us", transport, "us");
    out.push(
        "obs.overhead_warm_us",
        handle(&on, Kind::Warm) - handle(&off, Kind::Warm),
        "us",
    );
    out.push(
        "obs.overhead_cold_us",
        handle(&on, Kind::Cold) - handle(&off, Kind::Cold),
        "us",
    );
    out.push("obs.off_handle_cold_us", handle(&off, Kind::Cold), "us");

    // One `softhw_stage_duration_us` series value of the scrape.
    let series = |suffix: &str, stage: &str| -> f64 {
        let prefix = format!("softhw_stage_duration_us_{suffix}{{stage=\"{stage}\"}} ");
        metrics
            .iter()
            .find_map(|l| l.strip_prefix(&prefix)?.trim().parse().ok())
            .unwrap_or(0.0)
    };
    for stage in STAGES {
        out.push(format!("stage.{stage}_us"), series("sum", stage), "us");
        out.push(
            format!("stage.{stage}_calls"),
            series("count", stage),
            "count",
        );
    }
    out.push(
        "state.result_cache_hits",
        stats_field(&stats, "result_cache_hits"),
        "count",
    );
    out.push(
        "state.result_cache_misses",
        stats_field(&stats, "result_cache_misses"),
        "count",
    );
    out.push(
        "cache.evictions",
        stats_field(&stats, "stripe_evictions"),
        "count",
    );
    out.push(
        "state.bytes_per_cached_schema",
        stats_field(&stats, "bytes_per_cached_schema"),
        "bytes",
    );

    crate::push_ledger(out, "service_mix", "us", warm_rtt, layers_us);
    let ops_s = |p: &Pass| p.ops as f64 / p.secs;
    out.push(
        "trace.service_mix.overhead_ops_per_s",
        ops_s(&untraced) - ops_s(traced),
        "1/s",
    );
    Ok(rtt.len() + on.iter().chain(&off).map(|p| p.ops).sum::<usize>() + untraced.ops)
}

#[cfg(test)]
mod tests {
    use super::*;
    use softhw_service::TdFrame;

    fn h2() -> Schema {
        Schema::new(
            "h2",
            render_hypergraph(&named::h2()),
            BodyFormat::HyperBench,
        )
        .unwrap()
    }

    fn width(s: &Schema, w: usize) -> Response {
        let (_, td) = softhw_core::shw::shw(&s.h);
        Response::Width {
            class: "SHW".into(),
            width: w,
            td: TdFrame::from_td(&td, s.h.num_vertices()),
        }
    }

    #[test]
    fn the_right_width_passes() {
        let s = h2();
        let mut lib = DecompCache::new();
        assert_eq!(
            check_response(&s, RequestClass::Shw, &width(&s, 2), &mut lib),
            Ok(())
        );
    }

    #[test]
    fn a_wrong_width_is_caught() {
        let s = h2();
        let mut lib = DecompCache::new();
        assert!(check_response(&s, RequestClass::Shw, &width(&s, 3), &mut lib).is_err());
        assert!(check_response(&s, RequestClass::Hw, &width(&s, 2), &mut lib).is_err());
    }

    #[test]
    fn a_corrupted_witness_is_caught() {
        let s = h2();
        let (_, td) = softhw_core::shw::shw(&s.h);
        let mut frame = TdFrame::from_td(&td, s.h.num_vertices());
        frame.nodes.truncate(1);
        let resp = Response::Decision {
            class: "SHW_LEQ".into(),
            fields: Vec::new(),
            k: 2,
            td: Some(frame),
        };
        let mut lib = DecompCache::new();
        assert!(check_response(&s, RequestClass::ShwLeq(2), &resp, &mut lib).is_err());
    }

    #[test]
    fn stats_of_another_schema_are_caught() {
        let s = h2();
        let other = Response::Stats {
            fields: vec![
                ("vertices".into(), "3".into()),
                ("edges".into(), "3".into()),
            ],
        };
        assert!(!stats_of(&s, &other));
    }
}
