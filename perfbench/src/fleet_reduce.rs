//! `fleet-reduce`: back-to-back fleet reductions of a sealed paper-preset
//! corpus, one reducer (closed loop), two in-process loopback workers.
//!
//! Each worker is a `ShardContext::from_archive_with` whose decoded-segment
//! budget is half the corpus's raw bytes: the working set outgrows either
//! worker's cache but not the pair's, so both decode speed and which
//! worker gets which chunk show in the reduction time.

use crate::corpus::{self, ms};
use crate::metrics::Outcome;
use crate::stats;
use crate::trace::{self, Analysis, ProgramTrace, Tracer};
use crate::Args;
use std::net::TcpListener;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};
use txstat_archive::CacheStats;
use txstat_ingest::{reduce_fleet, serve_assignments, FleetConfig};
use txstat_reports::{
    comparison_section, pipeline_from_archive, reduce_frames_labeled_into, scenario_from_meta,
    scenario_meta, PipelineData, ShardContext, SECTIONS,
};
use txstat_wire::{PayloadFormat, ShardFrame};
use txstat_workload::Scenario;

const WORKERS: usize = 2;
/// Shards per assignment: the `reduce --connect` default.
const SHARDS: usize = 2;
/// Generate-and-seal passes per run; `setup_s` is their median.
const SEALS: usize = 5;
/// Archive probes in the traced run.
const PROBES: usize = 3;
const WORKER_TIMEOUT: Duration = Duration::from_secs(10);
/// The program stage marking one traced reduction.
const ROOT: &str = "perfbench_reduce";

/// What the worker handlers share with the reducer.
struct Shared<'t> {
    tracer: &'t Tracer,
    /// Span id of the dispatch in flight (0 when untraced).
    dispatch: AtomicU64,
    assignments: AtomicU64,
}

/// Every section the reduced dataset can render without Figure 2, which
/// reads only the blocks and not the sweeps.
fn sections_without_fig2(data: &PipelineData) -> Vec<String> {
    let mut out: Vec<String> = SECTIONS
        .iter()
        .filter(|(name, _)| *name != "fig2")
        .map(|(_, render)| render(data))
        .collect();
    out.push(comparison_section(data));
    out
}

/// One reduction: reducer cold start, fleet dispatch, merge.
fn reduce_once(
    shared: &Shared,
    cfg: &FleetConfig,
    dir: &Path,
    traced: bool,
) -> Result<(PipelineData, Vec<(String, ShardFrame)>), String> {
    let root = shared.tracer.root("reduce", traced);
    let (data, archive) = {
        let _s = root.child("pipeline.cold_start");
        pipeline_from_archive(dir)?
    };
    let (_, mode) = scenario_from_meta(&txstat_reports::Manifest::parse(archive.manifest())?.meta)?;
    let total = data
        .eos_blocks
        .len()
        .max(data.tezos_blocks.len())
        .max(data.xrp_blocks.len());
    let labeled = {
        let s = root.child("fleet.dispatch");
        shared.dispatch.store(s.id(), Ordering::SeqCst);
        let labeled = reduce_fleet(
            cfg,
            total as u64,
            SHARDS,
            PayloadFormat::Bin,
            scenario_meta(&data.scenario, &mode),
        );
        shared.dispatch.store(0, Ordering::SeqCst);
        labeled.map_err(|e| e.to_string())?
    };
    let data = {
        let _s = root.child("reduce.merge");
        reduce_frames_labeled_into(data, &labeled)?
    };
    Ok((data, labeled))
}

fn add(a: CacheStats, b: CacheStats) -> CacheStats {
    CacheStats {
        hits: a.hits + b.hits,
        misses: a.misses + b.misses,
        evictions: a.evictions + b.evictions,
        bytes: a.bytes + b.bytes,
        entries: a.entries + b.entries,
    }
}

pub fn run(args: &Args, tracer: &Tracer, work: &Path) -> Result<Outcome, String> {
    let mut o = Outcome {
        tail_cap: 0.9,
        ..Outcome::default()
    };
    o.stamp.push(("preset", "paper".to_owned()));
    let sc = Scenario::paper(args.seed);
    let dir = work.join("corpus");
    // Generating and sealing the paper preset is most of the set-up and
    // its noisiest part, so it runs SEALS times; each pass's time is
    // completed with the rest of the set-up, which runs once.
    let (mut generate_ms, mut seal_ms) = (Vec::new(), Vec::new());
    let mut cache_mb = 0;
    for i in 0..SEALS {
        let t = Instant::now();
        let sealed = corpus::seal(&sc, "paper", &dir)?;
        generate_ms.push(sealed.generate_ms);
        seal_ms.push(sealed.seal_ms);
        if i == 0 {
            corpus::stamp(&mut o, &sealed.data, &sealed.stats);
        }
        cache_mb = sealed.stats.raw_bytes / 2 / (1024 * 1024);
        drop(sealed);
        o.setups_s.push(t.elapsed().as_secs_f64());
    }
    o.layer("generate_ms", stats::median(&generate_ms));
    o.layer("archive.seal_ms", stats::median(&seal_ms));
    let setup = Instant::now();
    o.stamp.push((
        "workers",
        format!("{WORKERS} in-process on loopback, {cache_mb} MiB segment cache each"),
    ));
    o.stamp.push((
        "loop",
        format!("closed, 1 reducer, {SHARDS} shards per assignment"),
    ));

    let shared = Shared {
        tracer,
        dispatch: AtomicU64::new(0),
        assignments: AtomicU64::new(0),
    };
    let mut contexts = Vec::new();
    let mut listeners = Vec::new();
    for _ in 0..WORKERS {
        let (ctx, manifest) = ShardContext::from_archive_with(&dir, cache_mb)?;
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
        contexts.push((ctx, manifest.meta));
        listeners.push(listener);
    }
    let addrs: Vec<String> = listeners
        .iter()
        .map(|l| {
            l.local_addr()
                .map(|a| a.to_string())
                .map_err(|e| e.to_string())
        })
        .collect::<Result<_, _>>()?;
    let mut cfg = FleetConfig::new(addrs.clone());
    cfg.seed = args.seed;

    std::thread::scope(|scope| -> Result<(), String> {
        let mut handles = Vec::new();
        for ((ctx, expected), listener) in contexts.iter().zip(&listeners) {
            let shared = &shared;
            handles.push(scope.spawn(move || {
                serve_assignments(listener, None, WORKER_TIMEOUT, |a| {
                    if a.meta != *expected {
                        return Err("assignment meta does not describe this corpus".to_owned());
                    }
                    shared.assignments.fetch_add(1, Ordering::Relaxed);
                    let _s = shared
                        .tracer
                        .under(shared.dispatch.load(Ordering::SeqCst), "fleet.worker_busy");
                    ctx.frames(a.meta.clone(), a.start, a.end, a.shards, a.payload)
                })
            }));
        }
        let result = measure(&mut o, args, &shared, &cfg, &dir, &contexts, setup);
        // Stop the workers: a non-blocking listener makes the accept loop
        // return an error once the wake-up connection below is handled.
        for (listener, addr) in listeners.iter().zip(&addrs) {
            listener.set_nonblocking(true).map_err(|e| e.to_string())?;
            drop(std::net::TcpStream::connect(addr));
        }
        for h in handles {
            if h.join().is_err() {
                return Err("a fleet worker panicked".to_owned());
            }
        }
        result
    })?;
    Ok(o)
}

fn measure(
    o: &mut Outcome,
    args: &Args,
    shared: &Shared,
    cfg: &FleetConfig,
    dir: &Path,
    contexts: &[(ShardContext, serde_json::Value)],
    setup: Instant,
) -> Result<(), String> {
    let retries = txstat_telemetry::registry().counter(
        "txstat_fleet_retries_total",
        "Fleet request attempts after a failure",
    );
    let cache = || {
        contexts
            .iter()
            .filter_map(|(c, _)| c.cache_stats())
            .fold(CacheStats::default(), add)
    };
    // The gate: the in-process report from the same corpus.
    let (local, _) = pipeline_from_archive(dir)?;
    let reference = sections_without_fig2(&local);
    drop(local);
    // Warm-up: one untimed reduction fills the workers' caches.
    let (warm, _) = reduce_once(shared, cfg, dir, false)?;
    o.check(sections_without_fig2(&warm) == reference);
    drop(warm);
    let rest = setup.elapsed().as_secs_f64();
    for seal in &mut o.setups_s {
        *seal += rest;
    }

    let (cache0, retries0, assigned0) = (
        cache(),
        retries.get(),
        shared.assignments.load(Ordering::Relaxed),
    );
    let (mut frames, mut frame_bytes) = (Vec::new(), Vec::new());
    // Traced reductions also run with the program's own tracer armed.
    let program = args.trace.then(ProgramTrace::arm);
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let mut i = 0u64;
    while Instant::now() < deadline {
        let traced = args.trace && i.is_multiple_of(2);
        let t = Instant::now();
        let (data, labeled) = match program.as_ref().filter(|_| traced) {
            Some(p) => p.around(ROOT, || reduce_once(shared, cfg, dir, true))?,
            None => reduce_once(shared, cfg, dir, false)?,
        };
        let took = ms(t);
        if traced {
            &mut o.traced_ms
        } else {
            &mut o.plain_ms
        }
        .push(took);
        if traced {
            frames.push(labeled.len() as f64);
            frame_bytes.push(labeled.iter().map(|(_, f)| f.encode().len()).sum::<usize>() as f64);
        }
        o.check(sections_without_fig2(&data) == reference);
        i += 1;
    }
    let reductions = i as f64;
    let c = cache();
    let (hits, misses) = (c.hits - cache0.hits, c.misses - cache0.misses);
    o.aliases = vec![("reduce_ms", stats::median(&o.plain_ms), "ms")];
    o.stamp.push((
        "segment_cache",
        format!("{hits} hits, {misses} misses over {i} reductions after warm-up"),
    ));
    let Some(program) = program else {
        return Ok(());
    };
    o.layer(
        "unaccounted_pct",
        trace::uncovered_pct(&program.events()?, ROOT),
    );
    o.layer(
        "archive.cache_hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    o.layer(
        "archive.cache_evictions",
        (c.evictions - cache0.evictions) as f64 / reductions,
    );
    o.layer("fleet.retries", (retries.get() - retries0) as f64);
    o.layer(
        "fleet.assignments",
        (shared.assignments.load(Ordering::Relaxed) - assigned0) as f64 / reductions,
    );
    o.layer("wire.frames", stats::median(&frames));
    o.layer("wire.frame_bytes", stats::median(&frame_bytes));
    let spans = shared.tracer.spans();
    let an = Analysis::new(&spans);
    for span in [
        "pipeline.cold_start",
        "fleet.dispatch",
        "fleet.worker_busy",
        "reduce.merge",
    ] {
        o.layer(&format!("{span}_ms"), stats::median(&an.per_root(span)));
    }
    let dispatch = an.per_root("fleet.dispatch");
    let busy = an.per_root("fleet.worker_busy");
    let idle: Vec<f64> = dispatch
        .iter()
        .zip(&busy)
        .map(|(d, b)| WORKERS as f64 * d - b)
        .collect();
    o.layer("fleet.idle_ms", stats::median(&idle));
    corpus::probe_archive(o, shared.tracer, dir, PROBES)
}
