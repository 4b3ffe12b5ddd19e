//! `follow-serve`: an `EpochFollower` publishes a new snapshot every
//! 100 ms while an open-loop generator queries the server behind the
//! `EpochCell`. Every epoch empties the response cache, so the query
//! median measures the hit path and the tail measures render on a miss,
//! with the follower competing for the same cores.

use crate::corpus::ms;
use crate::load::{run_open_loop, sleep_until, Sample};
use crate::metrics::Outcome;
use crate::stats;
use crate::trace::{Analysis, Tracer};
use crate::Args;
use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tokio::io::BufStream;
use tokio::net::TcpStream;
use txstat_core::{ChainSweeps, EosColumnar, TezosColumnar, XrpColumnar};
use txstat_ingest::EpochCell;
use txstat_netsim::http::{read_response, write_request};
use txstat_netsim::{
    spawn_query_server, HttpHandler, HttpRequest, HttpResponse, QueryServerConfig,
};
use txstat_reports::{
    comparison_section, generate, render_report, EpochFollower, PipelineData, ServeSnapshot,
    StatsService, SECTIONS,
};
use txstat_workload::Scenario;

/// Blocks per chain per epoch.
const BATCH: usize = 200;
const CADENCE: Duration = Duration::from_millis(100);
/// Sweep shards per chain: the `serve --shards` default.
const FOLLOW_SHARDS: usize = 2;
/// Scheduled queries per second.
const RATE: f64 = 400.0;
/// Request header carrying the client's transport span id to the server.
const SPAN_HEADER: &str = "x-perfbench-span";
/// Response header marking a body rendered from the head snapshot.
const HEAD_HEADER: &str = "x-perfbench-head";

/// The server's handler: `StatsService::respond`, timed when the request
/// carries a span id, and marked when it was answered from a head
/// snapshot (the same snapshot before and after, so no swap intervened).
struct Timed {
    service: Arc<StatsService>,
    tracer: Arc<Tracer>,
}

impl HttpHandler for Timed {
    fn handle(&self, req: &HttpRequest) -> HttpResponse {
        let parent = req
            .header(SPAN_HEADER)
            .and_then(|v| v.parse().ok())
            .unwrap_or(0);
        let before = self.service.snapshot();
        let mut resp = {
            let _s = self.tracer.under(parent, "serve.respond");
            self.service.respond(&req.method, &req.path)
        };
        if before.head() && Arc::ptr_eq(&before, &self.service.snapshot()) {
            resp.headers.push((HEAD_HEADER.to_owned(), "1".to_owned()));
        }
        resp
    }
}

/// A keep-alive client connection that reconnects after an error.
struct Conn {
    addr: SocketAddr,
    stream: Option<BufStream<TcpStream>>,
}

impl Conn {
    fn new(addr: SocketAddr) -> Self {
        Conn { addr, stream: None }
    }

    fn get(&mut self, path: &str, span: u64) -> Result<HttpResponse, String> {
        let mut req = HttpRequest::get(path);
        if span != 0 {
            req.headers.push((SPAN_HEADER.to_owned(), span.to_string()));
        }
        let result = tokio::runtime::block_on(async {
            if self.stream.is_none() {
                let sock = TcpStream::connect(self.addr)
                    .await
                    .map_err(|e| e.to_string())?;
                self.stream = Some(BufStream::new(sock));
            }
            let stream = self.stream.as_mut().expect("connected above");
            write_request(stream, &req)
                .await
                .map_err(|e| e.to_string())?;
            read_response(stream).await.map_err(|e| e.to_string())
        });
        if result.is_err() {
            self.stream = None;
        }
        result
    }
}

/// The base dataset's chains with empty sweeps installed: what a fresh
/// follower replays. Forks share the blocks and the Figure 2 memo.
fn base_fork(data: &PipelineData) -> PipelineData {
    let p = data.scenario.period;
    data.fork_with_sweeps(ChainSweeps {
        eos: EosColumnar::compute(&[], p),
        tezos: TezosColumnar::compute(&[], p, &data.governance_periods),
        xrp: XrpColumnar::compute(&[], p, &data.oracle),
    })
}

/// One `/account/<chain>/<name>` route per chain, for accounts present
/// from the first epoch on.
fn account_routes(data: &PipelineData) -> Vec<String> {
    let sweeps = data.sweeps();
    let mut out = Vec::new();
    if let Some(r) = sweeps.eos.top_received(1).into_iter().next() {
        out.push(format!("/account/eos/{}", r.account.to_string_repr()));
    }
    if let Some(s) = sweeps.tezos.top_senders(1).into_iter().next() {
        out.push(format!("/account/tezos/{}", s.sender));
    }
    if let Some(a) = sweeps.xrp.most_active(1, &data.cluster).into_iter().next() {
        out.push(format!("/account/xrp/{}", a.account));
    }
    out
}

/// SplitMix64: the seeded route choice of request `i`.
fn mix(seed: u64, i: u64) -> u64 {
    let mut z = seed.wrapping_add(i.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Whether a response passes the gate: a 200, byte-identical to the
/// one-shot report when it came from the head snapshot.
fn response_ok(resp: &HttpResponse, expected: Option<&Vec<u8>>) -> bool {
    let at_head = resp.headers.iter().any(|(k, _)| k == HEAD_HEADER);
    resp.status == 200 && (!at_head || expected.is_none_or(|e| *e == resp.body))
}

/// The one-shot body of every route the gate compares, from `data`.
pub fn expected_bodies(data: &PipelineData) -> HashMap<String, Vec<u8>> {
    let mut expected = HashMap::new();
    expected.insert("/report".to_owned(), render_report(data).into_bytes());
    for (name, render) in SECTIONS {
        expected.insert(format!("/exhibit/{name}"), render(data).into_bytes());
    }
    expected.insert(
        "/exhibit/comparison".to_owned(),
        comparison_section(data).into_bytes(),
    );
    expected
}

/// Epochs a follower takes to reach the head of `data`'s chains.
fn epochs_per_pass(data: &PipelineData) -> u64 {
    let total = data
        .eos_blocks
        .len()
        .max(data.tezos_blocks.len())
        .max(data.xrp_blocks.len());
    total.div_ceil(BATCH).max(1) as u64
}

/// Whether operation `i` is traced when every `every`-th one is (0: none).
fn traced(every: u64, i: u64) -> bool {
    every != 0 && i.is_multiple_of(every)
}

/// What one follow-and-serve session measured.
pub struct Session {
    /// When the measured window opened; everything before it is set-up.
    pub opened: Instant,
    pub samples: Vec<Sample>,
    /// Due time to published, per epoch.
    pub publish_ms: Vec<f64>,
    pub hits: u64,
    pub misses: u64,
    pub shed: u64,
}

/// How a session runs.
pub struct Plan {
    /// Seeds the route mix.
    pub seed: u64,
    /// Client connections.
    pub nproc: usize,
    /// Whole follower passes over the chains, each from an empty follower.
    pub passes: u64,
    /// Every `every`-th epoch and query is traced (0: none).
    pub every: u64,
}

/// Follow `data`'s chains as `plan` says, publishing every epoch into the
/// `EpochCell` behind a query server while the open-loop generator
/// queries it. Each response and the head snapshot's bytes are checked
/// into `o` against `expected`.
pub fn session(
    o: &mut Outcome,
    tracer: &Arc<Tracer>,
    data: &PipelineData,
    expected: &HashMap<String, Vec<u8>>,
    plan: &Plan,
) -> Result<Session, String> {
    let &Plan {
        seed,
        nproc,
        passes,
        every,
    } = plan;
    let per_pass = epochs_per_pass(data);
    let epochs = passes * per_pass;
    o.stamp.push((
        "epochs",
        format!(
            "{BATCH} blocks per chain every {} ms, {FOLLOW_SHARDS} shards, \
             {passes} pass(es) of {per_pass} epochs",
            CADENCE.as_millis()
        ),
    ));
    o.stamp.push((
        "queries",
        format!("open loop, {RATE} req/s over {nproc} keep-alive connections"),
    ));

    let mut follower = EpochFollower::new(base_fork(data), BATCH, FOLLOW_SHARDS);
    let first = follower.advance()?;
    let cell = Arc::new(EpochCell::new(Arc::new(ServeSnapshot::new(
        1,
        follower.head(),
        first,
    ))));
    let service = Arc::new(StatsService::new(Arc::clone(&cell)));
    let handler: Arc<dyn HttpHandler> = Arc::new(Timed {
        service: Arc::clone(&service),
        tracer: Arc::clone(tracer),
    });
    let server =
        tokio::runtime::block_on(spawn_query_server(handler, QueryServerConfig::default()))
            .map_err(|e| format!("query server: {e}"))?;
    let mut routes = vec!["/report".to_owned()];
    routes.extend(SECTIONS.iter().map(|(name, _)| format!("/exhibit/{name}")));
    routes.push("/exhibit/comparison".to_owned());
    routes.extend(account_routes(service.snapshot().data()));
    let mut conn = Conn::new(server.addr);
    for path in &routes {
        let ok = conn
            .get(path, 0)
            .is_ok_and(|r| response_ok(&r, expected.get(path)));
        o.check(ok);
    }
    // While measuring, only the generator's connections are open.
    drop(conn);

    let (hits0, misses0) = (service.cache_hits.get(), service.cache_misses.get());
    let shed = AtomicU64::new(0);
    let opened = Instant::now();
    let start = opened + Duration::from_millis(10);
    let mut publish_ms = Vec::new();
    let samples: Vec<Sample> = std::thread::scope(|scope| -> Result<Vec<Sample>, String> {
        let follow = scope.spawn(|| -> Result<Vec<f64>, String> {
            let mut latencies = Vec::new();
            // The first pass's first epoch was published during set-up.
            for k in 1..epochs {
                if k % per_pass == 0 {
                    follower = EpochFollower::new(base_fork(data), BATCH, FOLLOW_SHARDS);
                }
                let due = start + CADENCE * (k - 1) as u32;
                sleep_until(due);
                let began = Instant::now();
                let root = tracer.root_at("publish", traced(every, k), due);
                tracer.record(root.id(), "follow.wait", due, began);
                let fork = {
                    let _s = root.child("follow.advance");
                    follower.advance()?
                };
                {
                    let _s = root.child("epoch.publish");
                    cell.publish(Arc::new(ServeSnapshot::new(k + 1, follower.head(), fork)));
                }
                drop(root);
                latencies.push(ms(due));
            }
            Ok(latencies)
        });
        let window = CADENCE * epochs as u32;
        let samples = run_open_loop(start, RATE, window, nproc, || {
            let mut conn = Conn::new(server.addr);
            let (routes, shed) = (&routes, &shed);
            move |i: u64, due: Instant| {
                let root = tracer.root_at("query", traced(every, i), due);
                tracer.record(root.id(), "query.gen_late", due, Instant::now());
                let path = &routes[(mix(seed, i) % routes.len() as u64) as usize];
                let transport = root.child("netsim.transport");
                let resp = conn.get(path, transport.id());
                drop(transport);
                match resp {
                    Ok(r) => {
                        if r.status == 429 {
                            shed.fetch_add(1, Ordering::Relaxed);
                        }
                        response_ok(&r, expected.get(path))
                    }
                    Err(_) => false,
                }
            }
        });
        publish_ms = follow
            .join()
            .map_err(|_| "the follower panicked".to_owned())??;
        Ok(samples)
    })?;

    // The head is published: every exhibit must now match the one-shot
    // report byte for byte.
    if !follower.head() {
        o.check(false);
    }
    let mut conn = Conn::new(server.addr);
    for path in routes.iter().filter(|p| expected.contains_key(*p)) {
        let ok = conn.get(path, 0).is_ok_and(|r| {
            r.headers.iter().any(|(k, _)| k == HEAD_HEADER) && response_ok(&r, expected.get(path))
        });
        o.check(ok);
    }
    for s in &samples {
        o.check(s.ok);
    }
    o.attempted += publish_ms.len() as u64;
    Ok(Session {
        opened,
        samples,
        publish_ms,
        hits: service.cache_hits.get() - hits0,
        misses: service.cache_misses.get() - misses0,
        shed: shed.load(Ordering::Relaxed),
    })
}

/// The follow, serve and netsim per-layer metrics of a traced session.
pub fn session_layers(o: &mut Outcome, s: &Session, tracer: &Tracer) {
    let late = s
        .publish_ms
        .iter()
        .filter(|&&l| l > CADENCE.as_secs_f64() * 1e3)
        .count();
    o.layer("publish_p50_ms", stats::pct(&s.publish_ms, 0.5));
    o.layer("publish_p90_ms", stats::pct(&s.publish_ms, 0.9));
    o.layer("follow.late_epochs", late as f64);
    o.layer(
        "serve.cache_hit_ratio",
        s.hits as f64 / (s.hits + s.misses).max(1) as f64,
    );
    o.layer("query.shed", s.shed as f64);
    let gen_late: Vec<f64> = s.samples.iter().map(Sample::late_ms).collect();
    o.layer("query.gen_late_p99_ms", stats::pct(&gen_late, 0.99));
    let spans = tracer.spans();
    let an = Analysis::new(&spans);
    let advance = an.durations("follow.advance");
    o.layer("follow.advance_p50_ms", stats::pct(&advance, 0.5));
    o.layer("follow.advance_p90_ms", stats::pct(&advance, 0.9));
    o.layer(
        "epoch.publish_us",
        stats::median(&an.durations("epoch.publish")) * 1e3,
    );
    let respond = an.durations("serve.respond");
    o.layer("serve.respond_p50_us", stats::pct(&respond, 0.5) * 1e3);
    o.layer("serve.respond_p99_us", stats::pct(&respond, 0.99) * 1e3);
    let transport = an.self_times("netsim.transport");
    o.layer("netsim.transport_p50_ms", stats::pct(&transport, 0.5));
    o.layer("netsim.transport_p99_ms", stats::pct(&transport, 0.99));
}

pub fn run(args: &Args, tracer: &Arc<Tracer>, nproc: usize) -> Result<Outcome, String> {
    let mut o = Outcome {
        tail_cap: 0.99,
        ..Outcome::default()
    };
    o.stamp.push(("preset", "paper".to_owned()));
    let setup = Instant::now();
    let sc = Scenario::paper(args.seed);
    let t = Instant::now();
    let data = generate(&sc);
    o.layer("generate_ms", ms(t));
    let t = Instant::now();
    data.sweeps();
    o.layer("core.sweep_ms", ms(t));
    let t = Instant::now();
    data.storage_stats();
    o.layer("render.storage_ms", ms(t));
    let expected = expected_bodies(&data);
    o.stamp.push((
        "positions_per_chain",
        format!(
            "eos={} tezos={} xrp={}",
            data.eos_blocks.len(),
            data.tezos_blocks.len(),
            data.xrp_blocks.len()
        ),
    ));
    o.stamp
        .push(("corpus", "none (generated in memory)".to_owned()));
    let pass = CADENCE * epochs_per_pass(&data) as u32;
    let passes = ((args.seconds as f64 / pass.as_secs_f64()).floor() as u64).max(1);
    let plan = Plan {
        seed: args.seed,
        nproc,
        passes,
        every: if args.trace { 2 } else { 0 },
    };
    let s = session(&mut o, tracer, &data, &expected, &plan)?;
    o.setups_s.push((s.opened - setup).as_secs_f64());

    for sample in &s.samples {
        if traced(plan.every, sample.index) {
            &mut o.traced_ms
        } else {
            &mut o.plain_ms
        }
        .push(sample.latency_ms());
    }
    o.aliases = vec![
        ("query_p50_ms", stats::pct(&o.plain_ms, 0.5), "ms"),
        ("query_p90_ms", stats::pct(&o.plain_ms, 0.9), "ms"),
        ("query_p99_ms", stats::pct(&o.plain_ms, 0.99), "ms"),
        ("publish_p50_ms", stats::pct(&s.publish_ms, 0.5), "ms"),
        ("publish_p90_ms", stats::pct(&s.publish_ms, 0.9), "ms"),
    ];
    if args.trace {
        session_layers(&mut o, &s, tracer);
        let spans = tracer.spans();
        let an = Analysis::new(&spans);
        o.layer("unaccounted_pct", an.unaccounted_pct(&["query", "publish"]));
    }
    Ok(o)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn route_mix_is_seeded() {
        let a: Vec<u64> = (0..64).map(|i| mix(7, i) % 18).collect();
        let b: Vec<u64> = (0..64).map(|i| mix(7, i) % 18).collect();
        let c: Vec<u64> = (0..64).map(|i| mix(11, i) % 18).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
        // Every route comes up.
        let mut seen = [false; 18];
        for i in 0..1000 {
            seen[(mix(7, i) % 18) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn gate_compares_only_head_responses() {
        let expected = b"report".to_vec();
        let mut resp = HttpResponse::ok(b"partial".to_vec());
        assert!(
            response_ok(&resp, Some(&expected)),
            "not yet at head: any 200 passes"
        );
        resp.headers.push((HEAD_HEADER.to_owned(), "1".to_owned()));
        assert!(
            !response_ok(&resp, Some(&expected)),
            "at head the bytes must match"
        );
        resp.body = expected.clone();
        assert!(response_ok(&resp, Some(&expected)));
        assert!(
            response_ok(&resp, None),
            "accounts are checked for status only"
        );
        resp.status = 404;
        assert!(!response_ok(&resp, None));
    }
}
