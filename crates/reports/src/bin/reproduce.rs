//! The end-to-end reproduction binary, as subcommands:
//!
//! ```text
//! reproduce report [--small] [--seed N] [--crawl] [--out FILE]
//!                  [--archive DIR]
//!     Generate the scenario and render every exhibit (the classic run).
//!     --crawl measures it over the loopback RPC crawl, streaming every
//!     fetched block into sharded sweep accumulators. --archive DIR
//!     cold-starts from an archived corpus instead of
//!     generating: the report is byte-identical and no chain is built.
//!
//! reproduce archive --out DIR [--small] [--seed N] [--segment-blocks N]
//!                   [--crawl] [--format v1|v2] [--upgrade SRC]
//!     Generate the scenario once (or measure it over the loopback RPC
//!     crawl with --crawl) and seal it into an on-disk segmented
//!     corpus (`txstat_archive`): LZSS-compressed block segments of
//!     --segment-blocks positions each plus a content-hashed index with
//!     the scenario manifest and the sidecar (oracle trades, account
//!     cluster, CPU prices, rolls, governance windows). --format picks
//!     the segment payload schema: v2 per-chain columnar blocks (the
//!     default — smaller and an order of magnitude faster to replay) or
//!     v1 length-prefixed wire-JSON (what pre-v2 builds sealed; still
//!     readable everywhere). --upgrade SRC replays an existing corpus
//!     instead of generating and re-seals it at --out in the requested
//!     format — the run fails unless the rewrite replays byte-identical
//!     to the source. Every other subcommand takes --archive DIR to
//!     cold-start from the corpus.
//!
//! reproduce shard --range A..B --out FILE [--small] [--seed N] [--shards K]
//! reproduce shard --listen ADDR [--max-requests N] [--timeout-ms MS]
//!                 [--small] [--seed N]
//!     One distributed shard worker. File mode sweeps block positions
//!     [A, B) of each chain into columnar accumulators and writes them as
//!     schema-v2 wire frames (txstat_wire, binary column payloads); FILE
//!     "-" writes to stdout. Socket mode
//!     (--listen) binds a TCP accept loop instead and answers fleet
//!     range-assignment requests until killed (or until --max-requests
//!     assignments have been served — the deterministic way to die
//!     mid-reduction in tests). It prints `shard worker on ADDR` on
//!     stdout once bound, for scripts to scrape. Both modes take
//!     --archive DIR: the worker cold-starts from the corpus and each
//!     assignment decodes only the segments covering its range — no
//!     chain generation (`txstat_pipeline_generate_total` stays 0).
//!     Decoded segments are kept in a per-worker LRU cache keyed by
//!     segment content hash (--segment-cache-mb, default 64), so
//!     overlapping assignments decode each segment once; hit/miss/
//!     eviction counts land in the `txstat_archive_cache_*` families.
//!
//! reproduce reduce FRAME-FILE... [--out FILE]
//! reproduce reduce --connect ADDR,ADDR,... [--small] [--seed N]
//!                  [--shards K] [--chunks N]
//!                  [--timeout-ms MS] [--retries N] [--backoff-ms MS]
//!                  [--out FILE] [--metrics-out FILE]
//!     Central reducer: validate + merge shard frames (schema version,
//!     chain tags, overlap, provenance, coverage) and render the full
//!     report — byte-identical to `reproduce report` on the same
//!     scenario. File mode reads concatenated frame bundles; failures
//!     name the offending file. Fleet mode (--connect) drives the listed
//!     socket workers with per-request deadlines, exponential backoff,
//!     bounded retry budgets, and straggler re-dispatch: a timed-out or
//!     dead worker's range goes back on the queue for the survivors, and
//!     failures name the worker address. --metrics-out dumps the
//!     `txstat_fleet_*` counters (Prometheus text) at exit. Fleet mode
//!     takes --archive DIR to cold-start the reducer-side dataset from
//!     the corpus instead of generating it.
//!
//! reproduce follow [--small] [--seed N] [--batch N] [--shards K] [--out FILE]
//!                  [--snapshots W] [--reorg-at-batch R] [--reorg-depth D]
//!                  [--reorg-seed S] [--metrics-out FILE]
//!     Incremental re-render loop: replay the chains batch by batch
//!     through checkpointed followers that seal a content mark per batch,
//!     re-rendering a dashboard line each round, and emit the full report
//!     when the head is reached. --reorg-at-batch injects a reorg after
//!     batch R, rewriting the last D block positions of every chain: the
//!     followers detect the divergence by mark, roll back only the
//!     invalidated suffix (or rebuild when it predates the snapshot
//!     window), re-sweep to the new head, and the run fails unless the
//!     result is byte-identical to a from-scratch sweep of the reorged
//!     chains. --archive DIR persists the followed corpus: cold-start
//!     from it when it exists (create it otherwise), seal each observed
//!     batch — coalescing a runt tail segment up to --segment-blocks
//!     positions (default: the batch size, or the corpus's geometry when
//!     cold-starting) instead of fragmenting one segment per batch — and
//!     on reorg truncate + re-seal only the disagreeing segment suffix;
//!     the run fails unless the re-opened archive replays byte-identical
//!     to the followed chains. --format picks the sealed segment schema
//!     (v2 columnar default).
//!
//! reproduce chaos --upstream ADDR [--listen ADDR] [--fault-rate F]
//!                 [--truncate-rate F] [--flip-rate F] [--latency-ms L]
//!                 [--jitter-ms J] [--seed N] [--max-seconds S]
//!     Fault-injecting TCP proxy between real processes: relays every
//!     connection to --upstream while resetting, truncating, bit-flipping,
//!     or delaying streams per the configured rates. Prints `chaos proxy
//!     on ADDR -> UPSTREAM` once bound, then runs until killed (or
//!     --max-seconds elapses). Point a fleet reducer at it to rehearse
//!     worker failure.
//!
//! reproduce serve [--small] [--seed N] [--port P] [--batch N] [--shards K]
//!                 [--epoch-ms MS] [--rate R] [--burst B] [--max-inflight N]
//!                 [--load [--conns N] [--reqs N]]
//!     Long-lived query service: the follow loop publishes an immutable
//!     epoch snapshot per batch while concurrent readers answer
//!     `/exhibit/<name>`, `/account/<chain>/<name>`, `/report`, and
//!     `/healthz` — byte-identical to the one-shot report once the head is
//!     reached. Token-bucket admission sheds excess load with 429s.
//!     `--load` runs the built-in load generator against the server after
//!     head and exits; otherwise the server runs until POST
//!     /admin/shutdown.
//!
//! reproduce query --addr HOST:PORT [--wait-head S] [--expect-status N]
//!                 [--out FILE] [--shutdown] PATH...
//!     Minimal client for scripting against `serve`: GET each PATH (body
//!     to stdout or --out), optionally wait for the server to reach head
//!     first, assert a status code, and/or POST /admin/shutdown at the
//!     end.
//! ```
//!
//! With no arguments `reproduce` runs `report`. Unrecognized flags or
//! subcommands print usage and exit non-zero.
//!
//! Observability: `report`, `shard`, `reduce`, `follow`, and `serve` all
//! take `--trace-out FILE` (write one NDJSON span event per pipeline stage
//! to FILE) and `--timings` (print a per-stage wall-time summary table on
//! stderr at exit). `serve` additionally exposes `GET /metrics`
//! (Prometheus text) and `GET /statusz` (JSON) with the ingest, reduce,
//! epoch, and serve metric families.

use std::collections::HashMap;
use std::io::Write;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};
use txstat_core::{ChainSweeps, EosColumnar, TezosColumnar, XrpColumnar};
use txstat_ingest::{
    reduce_fleet, serve_assignments, ChainFollow, Checkpoint, EpochCell, FleetConfig,
};
use txstat_netsim::http::{read_response, write_request, HttpRequest, HttpResponse};
use txstat_netsim::{
    run_load, spawn_chaos_proxy, spawn_query_server, ChaosProfile, HttpHandler, LoadPlan,
    QueryServerConfig,
};
use txstat_reports::{
    eos_block_hash, generate, generate_with_crawl, generate_with_crawl_streamed,
    pipeline_from_archive, reduce_frames_labeled, reduce_frames_labeled_into, render_report,
    reorg_data, scenario_from_meta, scenario_meta, tezos_block_hash, write_archive,
    xrp_block_hash, CrawlOptions, EpochFollower, Manifest, PipelineData, SegmentFormat,
    ServeSnapshot, ShardContext, StatsService,
};
use txstat_wire::{PayloadFormat, ShardFrame};
use txstat_workload::Scenario;

const USAGE: &str = "\
usage: reproduce <subcommand> [options]

subcommands:
  report   render every exhibit from the generated scenario (default)
           [--small] [--seed N] [--crawl] [--out FILE] [--archive DIR]
  archive  generate (or --crawl) the scenario once and seal it into an
           on-disk segmented corpus other subcommands cold-start from
           (--archive DIR)
           --out DIR [--small] [--seed N] [--segment-blocks N] [--crawl]
           [--format v1|v2]  (segment payload schema: v2 columnar blocks,
                              default; v1 length-prefixed wire-JSON)
           [--upgrade SRC]   (replay corpus SRC and re-seal it at --out in
                              the requested format; fails unless the
                              rewrite replays byte-identical)
  shard    sweep block positions [A, B) into a wire-frame bundle, or serve
           ranges over a socket as one fleet worker
           --range A..B --out FILE [--small] [--seed N] [--shards K]
           --listen ADDR [--max-requests N] [--timeout-ms MS]
           [--archive DIR]  (serve block ranges straight from the mapped
                             segments — no chain generation)
           [--segment-cache-mb N]  (decoded-segment LRU budget, default 64)
  reduce   merge shard frames and render the full report, from files or by
           driving a socket worker fleet (retry/backoff + re-dispatch)
           FRAME-FILE... [--out FILE]
           --connect ADDR,ADDR,... [--small] [--seed N] [--shards K]
           [--chunks N] [--timeout-ms MS] [--retries N] [--backoff-ms MS]
           [--metrics-out FILE]
           [--archive DIR]
  follow   incremental re-render loop over the appending chains, with
           reorg-safe rollback via per-batch content marks
           [--small] [--seed N] [--batch N] [--shards K] [--out FILE]
           [--snapshots W] [--reorg-at-batch R] [--reorg-depth D]
           [--reorg-seed S] [--metrics-out FILE]
           [--archive DIR]  (cold-start from the corpus when it exists,
                             create it otherwise; batches are sealed with
                             runt tails coalesced up to --segment-blocks
                             and a reorg truncates + re-seals only the
                             disagreeing segment suffix)
           [--segment-blocks N] [--format v1|v2]
  chaos    fault-injecting TCP proxy for rehearsing worker failure
           --upstream ADDR [--listen ADDR] [--fault-rate F]
           [--truncate-rate F] [--flip-rate F] [--latency-ms L]
           [--jitter-ms J] [--seed N] [--max-seconds S]
  serve    epoch-swapped query service over the follow loop
           [--small] [--seed N] [--port P] [--batch N] [--shards K]
           [--epoch-ms MS] [--rate R] [--burst B] [--max-inflight N]
           [--load [--conns N] [--reqs N]] [--archive DIR]
  query    scripting client for serve: GET PATH... against --addr HOST:PORT
           [--wait-head S] [--expect-status N] [--out FILE] [--shutdown]

report/shard/reduce/follow/serve also take:
  --trace-out FILE   write NDJSON span events per pipeline stage to FILE
  --timings          print a per-stage wall-time summary table on stderr";

/// Strictly parsed arguments: any flag outside the subcommand's allow-list
/// is an error (nothing is ignored silently).
struct Args {
    bools: Vec<String>,
    values: HashMap<String, String>,
    positionals: Vec<String>,
}

impl Args {
    fn parse(
        raw: &[String],
        bool_flags: &[&str],
        value_flags: &[&str],
        positionals_allowed: bool,
    ) -> Result<Args, String> {
        let mut out =
            Args { bools: Vec::new(), values: HashMap::new(), positionals: Vec::new() };
        let mut it = raw.iter();
        while let Some(arg) = it.next() {
            if bool_flags.contains(&arg.as_str()) {
                out.bools.push(arg.clone());
            } else if value_flags.contains(&arg.as_str()) {
                let v = it.next().ok_or_else(|| format!("{arg} needs a value"))?;
                out.values.insert(arg.clone(), v.clone());
            } else if arg.starts_with('-') {
                return Err(format!("unrecognized flag {arg}"));
            } else if positionals_allowed {
                out.positionals.push(arg.clone());
            } else {
                return Err(format!("unexpected argument {arg:?}"));
            }
        }
        Ok(out)
    }

    fn has(&self, flag: &str) -> bool {
        self.bools.iter().any(|b| b == flag)
    }

    fn get(&self, flag: &str) -> Option<&str> {
        self.values.get(flag).map(String::as_str)
    }

    fn parsed<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        match self.get(flag) {
            None => Ok(default),
            Some(s) => s.parse().map_err(|_| format!("{flag}: cannot parse {s:?}")),
        }
    }
}

fn scenario_of(args: &Args) -> Result<(Scenario, &'static str), String> {
    let seed: u64 = args.parsed("--seed", 42)?;
    Ok(if args.has("--small") {
        (Scenario::small(seed), "small")
    } else {
        (Scenario::paper(seed), "paper")
    })
}

/// An archived corpus defines its own scenario; explicit `--small`/`--seed`
/// flags alongside `--archive` must agree with the manifest (nothing is
/// silently re-generated against different parameters).
fn check_archive_scenario(args: &Args, meta: &serde_json::Value) -> Result<(), String> {
    if args.has("--small") || args.get("--seed").is_some() {
        let (sc, mode) = scenario_of(args)?;
        if scenario_meta(&sc, mode) != *meta {
            return Err(format!(
                "--archive: the corpus does not hold the requested {mode} scenario \
                 (seed {}); drop the scenario flags or point at a matching archive",
                sc.seed
            ));
        }
    }
    Ok(())
}

/// Cold-start a full dataset from `--archive DIR`: open + verify the
/// corpus, cross-check any explicit scenario flags against its manifest,
/// and return the dataset with the archived scenario adopted.
fn archive_dataset(
    args: &Args,
    dir: &str,
) -> Result<(PipelineData, txstat_archive::Archive, String), String> {
    txstat_reports::pipeline::register_metrics();
    txstat_archive::register_metrics();
    let (data, archive) = pipeline_from_archive(std::path::Path::new(dir))?;
    let manifest = Manifest::parse(archive.manifest())?;
    check_archive_scenario(args, &manifest.meta)?;
    let (_, mode) = scenario_from_meta(&manifest.meta)?;
    Ok((data, archive, mode))
}

/// Arm the global tracer per `--trace-out FILE` (NDJSON span events) and
/// `--timings` (end-of-run stage summary). Either flag enables tracing;
/// with neither, spans stay inert (one relaxed load each).
fn init_tracing(args: &Args) -> Result<(), String> {
    if let Some(path) = args.get("--trace-out") {
        let file = std::fs::File::create(path)
            .map_err(|e| format!("--trace-out: cannot create {path}: {e}"))?;
        txstat_telemetry::tracer().set_sink(Box::new(std::io::BufWriter::new(file)));
    }
    if args.has("--timings") {
        txstat_telemetry::tracer().enable();
    }
    Ok(())
}

/// Flush the trace sink and print the per-stage wall-time table when
/// `--timings` was given.
fn finish_tracing(args: &Args) {
    let tracer = txstat_telemetry::tracer();
    if args.has("--timings") {
        eprint!("{}", tracer.render_summary());
    }
    tracer.flush();
}


/// Dump the process-global metric registry (Prometheus text) to the
/// `--metrics-out` file, if given — the offline commands' equivalent of
/// serve's `GET /metrics`.
fn dump_metrics(args: &Args) -> Result<(), String> {
    if let Some(path) = args.get("--metrics-out") {
        std::fs::write(path, txstat_telemetry::registry().render_prometheus())
            .map_err(|e| format!("--metrics-out: cannot write {path}: {e}"))?;
        eprintln!("metrics written to {path}");
    }
    Ok(())
}

fn write_output(text: &str, out: Option<&str>) -> Result<(), String> {
    match out {
        Some("-") | None => {
            print!("{text}");
            Ok(())
        }
        Some(path) => {
            std::fs::write(path, text).map_err(|e| format!("cannot write {path}: {e}"))?;
            eprintln!("exhibits written to {path}");
            Ok(())
        }
    }
}

fn cmd_report(raw: &[String]) -> Result<(), String> {
    let args = Args::parse(
        raw,
        &["--small", "--crawl", "--timings"],
        &["--seed", "--out", "--trace-out", "--archive", "--metrics-out"],
        false,
    )?;
    let (sc, _) = scenario_of(&args)?;
    init_tracing(&args)?;

    if let Some(dir) = args.get("--archive") {
        if args.has("--crawl") {
            return Err("report takes --archive or --crawl, not both".to_owned());
        }
        let started = std::time::Instant::now();
        let (data, archive, mode) = archive_dataset(&args, dir)?;
        eprintln!(
            "cold-started {mode} scenario (seed {}) from archive {dir}: {} segment(s), \
             {} block positions",
            data.scenario.seed,
            archive.segments().len(),
            archive.total_positions(),
        );
        eprintln!("pipeline ready in {:?}; rendering exhibits…", started.elapsed());
        let result = write_output(&render_report(&data), args.get("--out"));
        dump_metrics(&args)?;
        finish_tracing(&args);
        return result;
    }

    eprintln!(
        "scenario: {} .. {} (divisors: EOS 1/{}, Tezos 1/{}, XRP 1/{})",
        sc.period.start.date_string(),
        sc.period.end.date_string(),
        sc.eos_divisor,
        sc.tezos_divisor,
        sc.xrp_divisor
    );

    let started = std::time::Instant::now();
    let data = if args.has("--crawl") {
        let opts = if args.has("--small") { CrawlOptions::default() } else { CrawlOptions::paper() };
        let rt = tokio::runtime::Runtime::new().expect("tokio runtime");
        eprintln!(
            "generating chains and streaming the crawl into {} sweep shards per chain…",
            opts.shards
        );
        rt.block_on(generate_with_crawl_streamed(&sc, &opts)).map_err(|e| e.to_string())?
    } else {
        eprintln!("generating chains (direct read; pass --crawl for the full RPC path)…");
        generate(&sc)
    };
    if let Some(s) = &data.stream {
        eprintln!(
            "streamed: EOS {} blocks (peak buffer {}/{} per shard, {} stalls), \
             Tezos {} ({}, {} stalls), XRP {} ({}, {} stalls)",
            s.eos.streamed_blocks,
            s.eos.peak_buffered,
            s.eos.channel_capacity,
            s.eos.blocked_sends,
            s.tezos.streamed_blocks,
            s.tezos.peak_buffered,
            s.tezos.blocked_sends,
            s.xrp.streamed_blocks,
            s.xrp.peak_buffered,
            s.xrp.blocked_sends,
        );
    }
    eprintln!("pipeline ready in {:?}; rendering exhibits…", started.elapsed());
    let result = write_output(&render_report(&data), args.get("--out"));
    finish_tracing(&args);
    result
}

/// The `archive` subcommand: generate the scenario once (or, with
/// `--upgrade SRC`, replay an existing corpus) and seal it into the
/// on-disk segmented corpus that `report`/`shard`/`reduce`/`follow`/
/// `serve --archive DIR` cold-start from. `--format` picks the segment
/// payload schema: v2 columnar (default) or v1 wire-JSON.
fn cmd_archive(raw: &[String]) -> Result<(), String> {
    let args = Args::parse(
        raw,
        &["--small", "--crawl", "--timings"],
        &[
            "--seed",
            "--out",
            "--segment-blocks",
            "--format",
            "--upgrade",
            "--trace-out",
            "--metrics-out",
        ],
        false,
    )?;
    init_tracing(&args)?;
    let out = args.get("--out").ok_or("archive needs --out DIR")?;
    let format = match args.get("--format") {
        None => SegmentFormat::default(),
        Some(s) => SegmentFormat::parse(s)?,
    };
    txstat_reports::pipeline::register_metrics();
    txstat_archive::register_metrics();
    let started = std::time::Instant::now();
    if let Some(src) = args.get("--upgrade") {
        if args.has("--crawl") {
            return Err("archive --upgrade replays an existing corpus; drop --crawl".to_owned());
        }
        return archive_upgrade(&args, src, out, format, started);
    }
    let (sc, mode) = scenario_of(&args)?;
    let segment_blocks: u64 = args.parsed("--segment-blocks", 256)?;
    if segment_blocks == 0 {
        return Err("--segment-blocks must be at least 1".to_owned());
    }
    let data = if args.has("--crawl") {
        let opts = if args.has("--small") { CrawlOptions::default() } else { CrawlOptions::paper() };
        eprintln!(
            "generating {mode} scenario (seed {}); crawling over loopback RPC; sealing archive…",
            sc.seed
        );
        // Materializing crawl: the corpus needs the block bytes, which the
        // streamed path deliberately never holds.
        let rt = tokio::runtime::Runtime::new().expect("tokio runtime");
        rt.block_on(generate_with_crawl(&sc, &opts)).map_err(|e| e.to_string())?
    } else {
        eprintln!("generating {mode} scenario (seed {}); sealing {format} archive…", sc.seed);
        generate(&sc)
    };
    let stats = write_archive(std::path::Path::new(out), &data, mode, segment_blocks, format)?;
    eprintln!(
        "archive sealed in {:?}: {} segment(s) over {} block positions, \
         {} raw bytes -> {} compressed ({:.1}%) in {out}",
        started.elapsed(),
        stats.segments,
        stats.total_positions,
        stats.raw_bytes,
        stats.compressed_bytes,
        100.0 * stats.compressed_bytes as f64 / (stats.raw_bytes as f64).max(1.0),
    );
    dump_metrics(&args)?;
    finish_tracing(&args);
    Ok(())
}

/// Per-block wire-byte equality across all three chains — the schema-
/// independent identity check (a v1 and a v2 corpus of the same scenario
/// replay to the same wire bytes, hence the same report).
fn chains_wire_identical(a: &PipelineData, b: &PipelineData) -> bool {
    use txstat_reports::archive_io::{eos_block_bytes, tezos_block_bytes, xrp_block_bytes};
    a.eos_blocks.len() == b.eos_blocks.len()
        && a.tezos_blocks.len() == b.tezos_blocks.len()
        && a.xrp_blocks.len() == b.xrp_blocks.len()
        && a.eos_blocks
            .iter()
            .zip(b.eos_blocks.iter())
            .all(|(x, y)| eos_block_bytes(x) == eos_block_bytes(y))
        && a.tezos_blocks
            .iter()
            .zip(b.tezos_blocks.iter())
            .all(|(x, y)| tezos_block_bytes(x) == tezos_block_bytes(y))
        && a.xrp_blocks
            .iter()
            .zip(b.xrp_blocks.iter())
            .all(|(x, y)| xrp_block_bytes(x) == xrp_block_bytes(y))
}

/// `archive --upgrade SRC --out DIR`: replay the source corpus (whatever
/// mix of segment schemas it holds), re-seal it at `out` in the requested
/// format, and prove the rewrite lossless — the new corpus must replay
/// every chain byte-identical to the source. The scenario and (by
/// default) the segment geometry carry over from the source manifest.
fn archive_upgrade(
    args: &Args,
    src: &str,
    out: &str,
    format: SegmentFormat,
    started: std::time::Instant,
) -> Result<(), String> {
    let (data, src_archive, mode) = archive_dataset(args, src)?;
    let src_manifest = Manifest::parse(src_archive.manifest())?;
    let segment_blocks: u64 = args.parsed("--segment-blocks", src_manifest.segment_blocks)?;
    if segment_blocks == 0 {
        return Err("--segment-blocks must be at least 1".to_owned());
    }
    eprintln!(
        "replayed {mode} corpus {src} ({} segment(s)); re-sealing as {format}…",
        src_archive.segments().len()
    );
    let stats = write_archive(std::path::Path::new(out), &data, &mode, segment_blocks, format)?;
    let (replayed, _) = pipeline_from_archive(std::path::Path::new(out))?;
    if !chains_wire_identical(&replayed, &data) {
        return Err(format!(
            "upgrade verification diverged: {out} does not replay byte-identical to {src}"
        ));
    }
    eprintln!(
        "upgraded in {:?}: {} segment(s) over {} block positions, \
         {} raw bytes -> {} compressed ({:.1}%) in {out}; replay verified byte-identical",
        started.elapsed(),
        stats.segments,
        stats.total_positions,
        stats.raw_bytes,
        stats.compressed_bytes,
        100.0 * stats.compressed_bytes as f64 / (stats.raw_bytes as f64).max(1.0),
    );
    dump_metrics(args)?;
    finish_tracing(args);
    Ok(())
}

fn parse_range(s: &str) -> Result<(u64, u64), String> {
    let (a, b) = s
        .split_once("..")
        .ok_or_else(|| format!("--range wants A..B (block positions), got {s:?}"))?;
    let start: u64 = a.parse().map_err(|_| format!("--range: bad start {a:?}"))?;
    let end: u64 = b.parse().map_err(|_| format!("--range: bad end {b:?}"))?;
    if start > end {
        return Err(format!("--range: inverted range {s:?}"));
    }
    Ok((start, end))
}

/// The shard worker's prepared state plus the assignment meta it accepts:
/// generated from the scenario flags, or cold-started from `--archive DIR`
/// (no chain generation — assignments replay only their covering
/// segments). Both paths register the generation and archive metric
/// families, so `--metrics-out` always carries
/// `txstat_pipeline_generate_total` and `txstat_archive_*` (zero when
/// idle) and tests can pin which path ran.
fn shard_context_of(args: &Args) -> Result<(ShardContext, serde_json::Value), String> {
    txstat_reports::pipeline::register_metrics();
    txstat_archive::register_metrics();
    match args.get("--archive") {
        Some(dir) => {
            let cache_mb: u64 = args
                .parsed("--segment-cache-mb", txstat_reports::DEFAULT_SEGMENT_CACHE_MB)?;
            let (ctx, manifest) =
                ShardContext::from_archive_with(std::path::Path::new(dir), cache_mb)?;
            check_archive_scenario(args, &manifest.meta)?;
            eprintln!(
                "cold-started from archive {dir}: {} block positions mapped, \
                 no chains generated ({cache_mb} MiB decoded-segment cache)",
                ctx.total_blocks()
            );
            Ok((ctx, manifest.meta))
        }
        None => {
            let (sc, mode) = scenario_of(args)?;
            eprintln!("generating {mode} scenario (seed {})…", sc.seed);
            Ok((ShardContext::new(&sc), scenario_meta(&sc, mode)))
        }
    }
}

/// Socket worker mode of `shard`: bind, announce the address, and answer
/// fleet range assignments against one prepared context until the
/// request budget (if any) is spent.
fn shard_listen(args: &Args, listen: &str) -> Result<(), String> {
    let max_requests: Option<u64> = match args.get("--max-requests") {
        None => None,
        Some(s) => {
            Some(s.parse().map_err(|_| format!("--max-requests: cannot parse {s:?}"))?)
        }
    };
    let timeout_ms: u64 = args.parsed("--timeout-ms", 10_000)?;
    txstat_ingest::fleet::register_metrics();
    let (ctx, expected) = shard_context_of(args)?;
    eprintln!("serving shard assignments…");
    let listener = std::net::TcpListener::bind(listen)
        .map_err(|e| format!("cannot bind {listen}: {e}"))?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    // Scripts scrape this line for the bound address.
    println!("shard worker on {addr}");
    std::io::stdout().flush().ok();
    let served =
        serve_assignments(&listener, max_requests, Duration::from_millis(timeout_ms), |a| {
            if a.meta != expected {
                return Err(
                    "assignment meta does not describe this worker's scenario".to_owned()
                );
            }
            eprintln!("assignment [{}, {}): {} shard(s)", a.start, a.end, a.shards);
            ctx.frames(a.meta.clone(), a.start, a.end, a.shards, a.payload)
        })
        .map_err(|e| format!("worker accept loop: {e}"))?;
    eprintln!("worker served {served} assignment(s); exiting");
    if let Some(s) = ctx.cache_stats() {
        eprintln!(
            "segment cache: {} hit(s), {} miss(es), {} eviction(s), {} byte(s) resident",
            s.hits, s.misses, s.evictions, s.bytes
        );
    }
    dump_metrics(args)?;
    Ok(())
}

fn cmd_shard(raw: &[String]) -> Result<(), String> {
    let args = Args::parse(
        raw,
        &["--small", "--timings"],
        &[
            "--seed",
            "--out",
            "--range",
            "--shards",
            "--trace-out",
            "--listen",
            "--max-requests",
            "--timeout-ms",
            "--metrics-out",
            "--archive",
            "--segment-cache-mb",
        ],
        false,
    )?;
    init_tracing(&args)?;
    if let Some(listen) = args.get("--listen") {
        let result = shard_listen(&args, listen);
        finish_tracing(&args);
        return result;
    }
    let (start, end) =
        parse_range(args.get("--range").ok_or("shard needs --range A..B (or --listen ADDR)")?)?;
    let out = args.get("--out").ok_or("shard needs --out FILE (\"-\" for stdout)")?;
    let shards: usize = args.parsed("--shards", 2)?;

    let started = std::time::Instant::now();
    let (ctx, meta) = shard_context_of(&args)?;
    let frames = ctx.frames(meta, start, end, shards, PayloadFormat::Bin)?;
    for f in &frames {
        eprintln!(
            "{}: swept positions [{}, {}) — {} blocks (schema v{})",
            f.header.chain,
            f.header.start,
            f.header.end,
            f.header.blocks,
            f.header.schema_version,
        );
    }
    let bytes = txstat_wire::encode_all(&frames);
    match out {
        "-" => std::io::stdout()
            .write_all(&bytes)
            .map_err(|e| format!("cannot write frames to stdout: {e}"))?,
        path => std::fs::write(path, &bytes).map_err(|e| format!("cannot write {path}: {e}"))?,
    }
    eprintln!(
        "{} frames ({} bytes) emitted in {:?} to {}",
        frames.len(),
        bytes.len(),
        started.elapsed(),
        out
    );
    dump_metrics(&args)?;
    finish_tracing(&args);
    Ok(())
}

/// Fleet mode of `reduce`: tile the sweep into chunks and drive the
/// `--connect` workers through the retry/backoff/re-dispatch loop, then
/// merge whatever frames the survivors produced.
fn reduce_fleet_mode(args: &Args, connect: &str) -> Result<PipelineData, String> {
    let workers: Vec<String> = connect
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(String::from)
        .collect();
    let shards: usize = args.parsed("--shards", 2)?;
    txstat_ingest::fleet::register_metrics();
    // The reducer's own dataset: cold-started from the corpus with
    // `--archive` (the scenario comes from the manifest), generated from
    // the scenario flags otherwise.
    let (data, mode) = match args.get("--archive") {
        Some(dir) => {
            let (data, archive, mode) = archive_dataset(args, dir)?;
            eprintln!(
                "cold-started reducer dataset from archive {dir} ({} segment(s))",
                archive.segments().len()
            );
            (data, mode)
        }
        None => {
            let (sc, mode) = scenario_of(args)?;
            eprintln!("generating {mode} scenario (seed {})…", sc.seed);
            (generate(&sc), mode.to_owned())
        }
    };
    let sc = data.scenario.clone();
    let mut cfg = FleetConfig::new(workers);
    cfg.chunks = args.parsed("--chunks", 0)?;
    cfg.timeout = Duration::from_millis(args.parsed("--timeout-ms", 10_000)?);
    cfg.retries = args.parsed("--retries", 4)?;
    cfg.backoff_ms = args.parsed("--backoff-ms", 50)?;
    cfg.seed = sc.seed;
    eprintln!("driving {} worker(s)…", cfg.workers.len());
    let total = data
        .eos_blocks
        .len()
        .max(data.tezos_blocks.len())
        .max(data.xrp_blocks.len()) as u64;
    let labeled = reduce_fleet(&cfg, total, shards, PayloadFormat::Bin, scenario_meta(&sc, &mode))
        .map_err(|e| e.to_string())?;
    eprintln!("fleet returned {} frames; merging…", labeled.len());
    reduce_frames_labeled_into(data, &labeled)
}

fn cmd_reduce(raw: &[String]) -> Result<(), String> {
    let args = Args::parse(
        raw,
        &["--small", "--timings"],
        &[
            "--out",
            "--trace-out",
            "--connect",
            "--seed",
            "--shards",
            "--chunks",
            "--timeout-ms",
            "--retries",
            "--backoff-ms",
            "--metrics-out",
            "--archive",
        ],
        true,
    )?;
    init_tracing(&args)?;
    let started = std::time::Instant::now();
    let data = if let Some(connect) = args.get("--connect") {
        if !args.positionals.is_empty() {
            return Err("reduce takes frame files or --connect, not both".to_owned());
        }
        reduce_fleet_mode(&args, connect)?
    } else {
        if args.get("--archive").is_some() {
            return Err("reduce --archive needs --connect (the cold-start is fleet mode; \
                        file mode takes its scenario from the frames)"
                .to_owned());
        }
        if args.positionals.is_empty() {
            return Err(
                "reduce needs at least one frame file (or --connect ADDR,...)".to_owned()
            );
        }
        let mut labeled: Vec<(String, ShardFrame)> = Vec::new();
        for path in &args.positionals {
            let bytes = std::fs::read(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            let decoded =
                txstat_wire::decode_all(&bytes).map_err(|e| format!("{path}: {e}"))?;
            eprintln!("{path}: {} frames", decoded.len());
            labeled.extend(decoded.into_iter().map(|f| (path.clone(), f)));
        }
        let meta =
            labeled.first().map(|(_, f)| f.header.meta.clone()).ok_or("no frames found")?;
        let (sc, mode) = scenario_from_meta(&meta)?;
        eprintln!(
            "reducing {} frames of the {mode} scenario (seed {})…",
            labeled.len(),
            sc.seed
        );
        reduce_frames_labeled(&sc, &labeled)?
    };
    eprintln!("reduction ready in {:?}; rendering exhibits…", started.elapsed());
    let result = write_output(&render_report(&data), args.get("--out"));
    dump_metrics(&args)?;
    finish_tracing(&args);
    result
}

/// Advance all three chain followers over one global batch window of the
/// dataset (clamped per chain — a chain shorter than the window no-ops
/// once it is exhausted).
fn advance_all(
    d: &PipelineData,
    offset: usize,
    hi: usize,
    eos_f: &mut ChainFollow<EosColumnar>,
    tz_f: &mut ChainFollow<TezosColumnar>,
    xrp_f: &mut ChainFollow<XrpColumnar>,
) -> Result<(), String> {
    let take = |n: usize| offset.min(n)..hi.min(n);
    eos_f
        .advance(
            &d.eos_blocks[take(d.eos_blocks.len())],
            |b| b.num,
            |a, _n, b| a.observe(b),
            eos_block_hash,
        )
        .map_err(|e| e.to_string())?;
    tz_f.advance(
        &d.tezos_blocks[take(d.tezos_blocks.len())],
        |b| b.level,
        |a, _n, b| a.observe(b),
        tezos_block_hash,
    )
    .map_err(|e| e.to_string())?;
    xrp_f
        .advance(
            &d.xrp_blocks[take(d.xrp_blocks.len())],
            |b| b.index,
            |a, _n, b| a.observe(b, &d.oracle),
            xrp_block_hash,
        )
        .map_err(|e| e.to_string())?;
    Ok(())
}

/// Drive one follower from wherever it stands to the head of `blocks` in
/// `batch`-sized rounds — the post-rollback re-sweep. Positions are
/// contiguous from the follower's origin, so its observed count is also
/// its resume offset.
fn drive_to_head<A: Clone, B>(
    f: &mut ChainFollow<A>,
    blocks: &[B],
    batch: usize,
    num: impl Fn(&B) -> u64,
    observe: impl Fn(&mut A, u64, &B),
    hash: impl Fn(&B) -> u64,
) -> Result<(), String> {
    let mut offset = f.observed() as usize;
    while offset < blocks.len() {
        let hi = (offset + batch).min(blocks.len());
        f.advance(&blocks[offset..hi], &num, &observe, &hash).map_err(|e| e.to_string())?;
        offset = hi;
    }
    Ok(())
}

/// Seal the follow loop's observed-but-not-yet-archived positions
/// `[writer.total_positions(), upto)` as segments of `seg_blocks`
/// positions. A runt tail — the previous seal's trailing segment spanning
/// fewer than `seg_blocks` positions — is first truncated and re-sealed
/// merged with the new batch (its blocks are still in `d`), so a batch
/// smaller than the segment size coalesces instead of fragmenting the
/// corpus into one segment per batch. Each coalesce also bumps the
/// `coalesced="true"` label of `txstat_archive_segments_written_total`.
fn archive_append_to(
    w: &mut txstat_archive::ArchiveWriter,
    d: &PipelineData,
    upto: usize,
    seg_blocks: u64,
    format: SegmentFormat,
) -> Result<(), String> {
    if let Some(last) = w.segments().last() {
        if last.end - last.start < seg_blocks && (upto as u64) > w.total_positions() {
            let runt_start = last.start;
            w.truncate_from(runt_start).map_err(|e| format!("archive coalesce: {e}"))?;
            txstat_archive::m_written_coalesced().inc();
        }
    }
    let from = w.total_positions();
    let cap = |len: usize| upto.min(len);
    for seg in txstat_reports::archive_io::segments_of_from(
        &d.eos_blocks[..cap(d.eos_blocks.len())],
        &d.tezos_blocks[..cap(d.tezos_blocks.len())],
        &d.xrp_blocks[..cap(d.xrp_blocks.len())],
        seg_blocks,
        from,
        format,
    ) {
        w.append(&seg).map_err(|e| format!("archive append: {e}"))?;
    }
    Ok(())
}

fn cmd_follow(raw: &[String]) -> Result<(), String> {
    let args = Args::parse(
        raw,
        &["--small", "--timings"],
        &[
            "--seed",
            "--out",
            "--batch",
            "--shards",
            "--trace-out",
            "--snapshots",
            "--reorg-at-batch",
            "--reorg-depth",
            "--reorg-seed",
            "--metrics-out",
            "--archive",
            "--segment-blocks",
            "--format",
        ],
        false,
    )?;
    let (sc, mode) = scenario_of(&args)?;
    init_tracing(&args)?;
    let batch: usize = args.parsed("--batch", 500)?;
    if batch == 0 {
        return Err("--batch must be positive".to_owned());
    }
    let shards: usize = args.parsed("--shards", 2)?;
    let shards = shards.max(1);
    let window: usize =
        args.parsed("--snapshots", txstat_ingest::follow::DEFAULT_SNAPSHOT_WINDOW)?;
    let reorg_at: Option<u64> = match args.get("--reorg-at-batch") {
        None => None,
        Some(s) => {
            Some(s.parse().map_err(|_| format!("--reorg-at-batch: cannot parse {s:?}"))?)
        }
    };
    let reorg_depth: usize = args.parsed("--reorg-depth", batch)?;
    let reorg_seed: u64 = args.parsed("--reorg-seed", 1)?;
    txstat_ingest::follow::register_metrics();
    txstat_reports::pipeline::register_metrics();
    txstat_archive::register_metrics();

    // With --archive: cold-start from the corpus when one exists there,
    // otherwise generate and create it; either way each observed batch is
    // sealed into the corpus, coalescing a runt tail up to
    // --segment-blocks positions (default: the batch size, or the corpus's
    // own segment geometry when cold-starting).
    let seg_blocks_flag: Option<u64> = match args.get("--segment-blocks") {
        None => None,
        Some(s) => {
            Some(s.parse().map_err(|_| format!("--segment-blocks: cannot parse {s:?}"))?)
        }
    };
    if seg_blocks_flag == Some(0) {
        return Err("--segment-blocks must be at least 1".to_owned());
    }
    let seg_format = match args.get("--format") {
        None => SegmentFormat::default(),
        Some(s) => SegmentFormat::parse(s)?,
    };
    let (data, mut writer, seg_blocks) = match args.get("--archive") {
        Some(dir) => {
            let path = std::path::Path::new(dir);
            if path.join(txstat_archive::IDX_FILE).exists() {
                let (data, archive, mode) = archive_dataset(&args, dir)?;
                let manifest = Manifest::parse(archive.manifest())?;
                eprintln!(
                    "cold-started {mode} scenario from archive {dir}; following head in \
                     batches of {batch} blocks per chain…"
                );
                let writer = archive
                    .into_writer()
                    .map_err(|e| format!("archive {dir}: {e}"))?;
                (data, Some(writer), seg_blocks_flag.unwrap_or(manifest.segment_blocks))
            } else {
                let seg_blocks = seg_blocks_flag.unwrap_or(batch as u64);
                eprintln!(
                    "generating chains; creating archive {dir} and following head in \
                     batches of {batch} blocks per chain…"
                );
                let data = generate(&sc);
                let writer = txstat_reports::create_archive_writer(path, &data, mode, seg_blocks)?;
                (data, Some(writer), seg_blocks)
            }
        }
        None => {
            eprintln!("generating chains; following head in batches of {batch} blocks per chain…");
            (generate(&sc), None, seg_blocks_flag.unwrap_or(batch as u64))
        }
    };
    let period = data.scenario.period;

    // One mark-sealing follower per chain: each batch appends a tail
    // through the checkpoint (the observed prefix is never re-swept) and
    // seals a content mark, so a later reorg is detected by mark and
    // invalidates only its suffix.
    let mut eos_f = ChainFollow::new(
        "eos",
        Checkpoint::new(
            vec![EosColumnar::new(period); shards],
            data.eos_blocks.first().map_or(1, |b| b.num),
        ),
        window,
    );
    let mut tz_f = ChainFollow::new(
        "tezos",
        Checkpoint::new(
            vec![TezosColumnar::new(period, data.governance_periods.clone()); shards],
            data.tezos_blocks.first().map_or(1, |b| b.level),
        ),
        window,
    );
    let mut xrp_f = ChainFollow::new(
        "xrp",
        Checkpoint::new(
            vec![XrpColumnar::new(period); shards],
            data.xrp_blocks.first().map_or(1, |b| b.index),
        ),
        window,
    );

    let total = data
        .eos_blocks
        .len()
        .max(data.tezos_blocks.len())
        .max(data.xrp_blocks.len());
    let mut offset = 0usize;
    let mut round = 0u64;
    while offset < total {
        let _span = txstat_telemetry::Span::enter("follow_batch", "");
        let hi = (offset + batch).min(total);
        advance_all(&data, offset, hi, &mut eos_f, &mut tz_f, &mut xrp_f)?;
        round += 1;
        // Seal this batch's positions into the corpus (a no-op when a
        // cold-started archive already covers them).
        if let Some(w) = writer.as_mut() {
            if (hi as u64) > w.total_positions() {
                archive_append_to(w, &data, hi, seg_blocks, seg_format)?;
            }
        }

        // Re-render the headline statistics from the merged (cloned) shard
        // state — O(shards) merges, no prefix re-sweep.
        let eos = eos_f.checkpoint().merged(|a, b| a.merge(b)).finalize();
        let tz = tz_f.checkpoint().merged(|a, b| a.merge(b)).finalize();
        let xrp = xrp_f.checkpoint().merged(|a, b| a.merge(b)).finalize();
        eprintln!(
            "batch {round:>4}: EOS {:>7} blocks ({:.2} tps) | Tezos {:>7} ({:.2} tps) | XRP {:>7} ({:.2} tps)",
            eos_f.observed(),
            eos.tps(),
            tz_f.observed(),
            tz.tps(),
            xrp_f.observed(),
            xrp.tps(),
        );
        offset = hi;
        if reorg_at == Some(round) {
            break;
        }
    }

    // Head (or the reorg trigger batch) reached: pick the dataset the
    // report renders against, reorging + resyncing first if asked.
    let (final_data, verify_against) = if let Some(r) = reorg_at {
        if round < r {
            return Err(format!(
                "--reorg-at-batch {r}: the head was reached after {round} batches"
            ));
        }
        let from = offset.saturating_sub(reorg_depth);
        eprintln!("injecting reorg: rewriting block positions {from}.. (seed {reorg_seed})");
        let reorged = reorg_data(&data, from, reorg_seed);
        // The corpus rolls back exactly like the followers: only segments
        // overlapping the rewritten suffix are dropped, then the tail is
        // re-sealed from the reorged chains.
        if let Some(w) = writer.as_mut() {
            let dropped =
                w.truncate_from(from as u64).map_err(|e| format!("archive truncate: {e}"))?;
            eprintln!(
                "archive: reorg invalidated {dropped} segment(s); re-sealing from position {}",
                w.total_positions()
            );
            archive_append_to(w, &reorged, total, seg_blocks, seg_format)?;
        }
        for (r, chain) in [
            (eos_f.resync(&reorged.eos_blocks, eos_block_hash), "eos"),
            (tz_f.resync(&reorged.tezos_blocks, tezos_block_hash), "tezos"),
            (xrp_f.resync(&reorged.xrp_blocks, xrp_block_hash), "xrp"),
        ] {
            eprintln!(
                "resync {chain}: {} mark(s) agreed, {} invalidated{}; resuming at position {}",
                r.agreed,
                r.invalidated,
                if r.rebuilt { " (rebuilt from scratch)" } else { "" },
                r.resume,
            );
        }
        drive_to_head(
            &mut eos_f,
            &reorged.eos_blocks,
            batch,
            |b| b.num,
            |a, _n, b| a.observe(b),
            eos_block_hash,
        )?;
        drive_to_head(
            &mut tz_f,
            &reorged.tezos_blocks,
            batch,
            |b| b.level,
            |a, _n, b| a.observe(b),
            tezos_block_hash,
        )?;
        drive_to_head(
            &mut xrp_f,
            &reorged.xrp_blocks,
            batch,
            |b| b.index,
            |a, _n, b| a.observe(b, &reorged.oracle),
            xrp_block_hash,
        )?;
        // From-scratch truth over the same reorged chain for the
        // byte-identity check (fresh dataset, lazily re-swept sweeps).
        let scratch = reorg_data(&data, from, reorg_seed);
        (reorged, Some(scratch))
    } else {
        (data, None)
    };

    // The followers now cover the whole (possibly reorged) chains. Render
    // the full report from their merged state — identical to `report`.
    let sweeps = ChainSweeps {
        eos: eos_f.checkpoint().merged(|a, b| a.merge(b)).finalize(),
        tezos: tz_f.checkpoint().merged(|a, b| a.merge(b)).finalize(),
        xrp: xrp_f.checkpoint().merged(|a, b| a.merge(b)).finalize(),
    };
    assert!(final_data.install_sweeps(sweeps), "follow computed no report sweeps");
    let report = render_report(&final_data);
    if let Some(scratch) = verify_against {
        if report != render_report(&scratch) {
            return Err("reorg recovery diverged: the followed report is not byte-identical \
                        to a from-scratch sweep of the reorged chain"
                .to_owned());
        }
        eprintln!("reorg recovery verified: report byte-identical to a from-scratch sweep");
    }
    // Seal the corpus index and prove the round trip: reopening the
    // archive must replay every chain byte-identical to what the follow
    // loop observed (including any reorged suffix).
    if let Some(w) = writer.take() {
        w.seal().map_err(|e| format!("archive seal: {e}"))?;
        let dir = args.get("--archive").expect("writer implies --archive");
        let (replayed, archive) = pipeline_from_archive(std::path::Path::new(dir))?;
        if !chains_wire_identical(&replayed, &final_data) {
            return Err(format!(
                "archive verification diverged: {dir} does not replay byte-identical \
                 to the followed chains"
            ));
        }
        eprintln!(
            "archive verified: {} segment(s) replay byte-identical to the followed chains",
            archive.segments().len()
        );
    }
    let result = write_output(&report, args.get("--out"));
    dump_metrics(&args)?;
    finish_tracing(&args);
    result
}

/// The `chaos` subcommand: a standalone fault-injecting TCP proxy (see
/// `txstat_netsim::chaos`) for placing between a fleet reducer and its
/// workers.
fn cmd_chaos(raw: &[String]) -> Result<(), String> {
    let args = Args::parse(
        raw,
        &[],
        &[
            "--listen",
            "--upstream",
            "--fault-rate",
            "--truncate-rate",
            "--flip-rate",
            "--latency-ms",
            "--jitter-ms",
            "--seed",
            "--max-seconds",
        ],
        false,
    )?;
    let upstream = args.get("--upstream").ok_or("chaos needs --upstream HOST:PORT")?.to_owned();
    let listen = args.get("--listen").unwrap_or("127.0.0.1:0").to_owned();
    let profile = ChaosProfile {
        name: "cli".to_owned(),
        latency_ms: args.parsed("--latency-ms", 0.0)?,
        jitter_ms: args.parsed("--jitter-ms", 0.0)?,
        fault_rate: args.parsed("--fault-rate", 0.0)?,
        truncate_rate: args.parsed("--truncate-rate", 0.0)?,
        flip_rate: args.parsed("--flip-rate", 0.0)?,
        seed: args.parsed("--seed", 42)?,
    };
    let handle = spawn_chaos_proxy(&listen, upstream.clone(), profile)
        .map_err(|e| format!("cannot start chaos proxy on {listen}: {e}"))?;
    // Scripts scrape this line for the bound address.
    println!("chaos proxy on {} -> {upstream}", handle.addr);
    std::io::stdout().flush().ok();
    let max_seconds: u64 = args.parsed("--max-seconds", 0)?;
    if max_seconds == 0 {
        // Run until killed (CI kills the whole process).
        loop {
            std::thread::sleep(Duration::from_secs(3600));
        }
    }
    std::thread::sleep(Duration::from_secs(max_seconds));
    let s = &handle.stats;
    eprintln!(
        "chaos proxy: {} connection(s) relayed, {} reset, {} truncated, {} bit-flipped",
        s.connections.get(),
        s.resets.get(),
        s.truncations.get(),
        s.flips.get(),
    );
    handle.stop();
    Ok(())
}

/// Derive one known-present `/account/...` path per chain from the served
/// sweeps (the busiest account of each), for load mixes and smoke tests.
fn sample_account_paths(data: &PipelineData) -> Vec<String> {
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

fn cmd_serve(raw: &[String]) -> Result<(), String> {
    let args = Args::parse(
        raw,
        &["--small", "--load", "--timings"],
        &[
            "--seed",
            "--port",
            "--batch",
            "--shards",
            "--epoch-ms",
            "--rate",
            "--burst",
            "--max-inflight",
            "--conns",
            "--reqs",
            "--trace-out",
            "--archive",
        ],
        false,
    )?;
    let (sc, mode) = scenario_of(&args)?;
    init_tracing(&args)?;
    let port: u16 = args.parsed("--port", 0)?;
    let batch: usize = args.parsed("--batch", 20_000)?;
    if batch == 0 {
        return Err("--batch must be positive".to_owned());
    }
    let shards: usize = args.parsed("--shards", 2)?;
    let epoch_ms: u64 = args.parsed("--epoch-ms", 0)?;
    let rate: f64 = args.parsed("--rate", 50_000.0)?;
    let burst: f64 = args.parsed("--burst", 5_000.0)?;
    let max_inflight: u64 = args.parsed("--max-inflight", 256)?;

    // The serve path exports through the process-global registry so
    // `/metrics` carries every layer's families (ingest counters from the
    // shard pools, reduce/epoch progress from the follow loop, serve route
    // stats) in one exposition.
    let registry = txstat_telemetry::registry().clone();
    // Fleet, follow, generation, and archive families render at zero even
    // when this process never runs them — dashboards can rely on their
    // presence.
    txstat_ingest::fleet::register_metrics();
    txstat_ingest::follow::register_metrics();
    txstat_reports::pipeline::register_metrics();
    txstat_archive::register_metrics();
    let data = match args.get("--archive") {
        Some(dir) => {
            let (data, _archive, archived_mode) = archive_dataset(&args, dir)?;
            eprintln!(
                "cold-started {archived_mode} scenario (seed {}) from archive {dir}; \
                 serving in epochs of {batch} blocks…",
                data.scenario.seed
            );
            data
        }
        None => {
            eprintln!(
                "generating {mode} scenario (seed {}); serving in epochs of {batch} blocks…",
                sc.seed
            );
            generate(&sc)
        }
    };
    let mut follower = EpochFollower::new(data, batch, shards);
    follower.bind_metrics(&registry);
    // First epoch before accepting queries, so every response has sweeps.
    let first = follower.advance()?;
    let mut epoch = 1u64;
    let cell =
        Arc::new(EpochCell::new(Arc::new(ServeSnapshot::new(epoch, follower.head(), first))));
    let service = Arc::new(StatsService::with_registry(cell.clone(), registry.clone()));

    let rt = tokio::runtime::Runtime::new().map_err(|e| e.to_string())?;
    rt.block_on(async {
        let handler: Arc<dyn HttpHandler> = service.clone();
        let server = spawn_query_server(
            handler,
            QueryServerConfig {
                name: "stats-serve".to_owned(),
                bind: format!("127.0.0.1:{port}"),
                rate_per_sec: rate,
                burst,
                max_in_flight: max_inflight,
            },
        )
        .await
        .map_err(|e| e.to_string())?;
        // Route-class counters (requests/served/shed/bytes/latency) join
        // the same registry the service exposes on /metrics.
        server.routes.register_into(&registry);
        // Scripts scrape this line for the bound address.
        println!("serving on http://{}", server.addr);
        std::io::stdout().flush().ok();

        while !follower.head() {
            if epoch_ms > 0 {
                std::thread::sleep(Duration::from_millis(epoch_ms));
            }
            let fork = follower.advance()?;
            epoch += 1;
            let head = follower.head();
            cell.publish(Arc::new(ServeSnapshot::new(epoch, head, fork)));
            let (e, t, x) = follower.observed();
            eprintln!(
                "epoch {epoch}: EOS {e} | Tezos {t} | XRP {x} blocks observed{}",
                if head { " — head reached" } else { "" }
            );
        }

        if args.has("--load") {
            let conns: usize = args.parsed("--conns", 64)?;
            let reqs: usize = args.parsed("--reqs", 200)?;
            let snap = service.snapshot();
            let mut paths: Vec<String> = ["headline", "fig1", "fig4", "fig7", "fig8", "comparison"]
                .iter()
                .map(|n| format!("/exhibit/{n}"))
                .collect();
            paths.push("/report".to_owned());
            paths.extend(sample_account_paths(snap.data()));
            let plan = LoadPlan { connections: conns, requests_per_conn: reqs, paths };
            eprintln!(
                "load: {conns} connections × {reqs} requests over {} paths…",
                plan.paths.len()
            );
            let report = run_load(server.addr, &plan).await;
            println!(
                "load: {} requests in {:.2?} → {:.0} req/s | ok {} shed {} errors {} | \
                 p50 {}µs p99 {}µs max {}µs | cache hits {} misses {}",
                report.sent,
                report.elapsed,
                report.req_per_sec(),
                report.ok,
                report.shed,
                report.errors,
                report.p50_us,
                report.p99_us,
                report.max_us,
                service.cache_hits.get(),
                service.cache_misses.get(),
            );
            finish_tracing(&args);
            return Ok(());
        }

        eprintln!("head reached; serving until POST /admin/shutdown…");
        while !service.shutdown_requested() {
            std::thread::sleep(Duration::from_millis(25));
        }
        eprintln!("shutdown requested; exiting");
        finish_tracing(&args);
        Ok(())
    })
}

async fn http_fetch(
    addr: std::net::SocketAddr,
    req: &HttpRequest,
) -> Result<HttpResponse, String> {
    let sock = tokio::net::TcpStream::connect(addr).await.map_err(|e| e.to_string())?;
    let mut stream = tokio::io::BufStream::new(sock);
    write_request(&mut stream, req).await.map_err(|e| e.to_string())?;
    read_response(&mut stream).await.map_err(|e| e.to_string())
}

fn write_bytes(bytes: &[u8], out: Option<&str>) -> Result<(), String> {
    match out {
        None | Some("-") => std::io::stdout().write_all(bytes).map_err(|e| e.to_string()),
        Some(path) => std::fs::write(path, bytes).map_err(|e| format!("{path}: {e}")),
    }
}

fn cmd_query(raw: &[String]) -> Result<(), String> {
    let args = Args::parse(
        raw,
        &["--shutdown"],
        &["--addr", "--wait-head", "--expect-status", "--out"],
        true,
    )?;
    let addr: std::net::SocketAddr = args
        .get("--addr")
        .ok_or("--addr HOST:PORT is required")?
        .trim_start_matches("http://")
        .trim_end_matches('/')
        .parse()
        .map_err(|_| "--addr: cannot parse HOST:PORT".to_owned())?;
    if args.positionals.is_empty() && !args.has("--shutdown") && args.get("--wait-head").is_none()
    {
        return Err("query needs at least one PATH (or --wait-head / --shutdown)".to_owned());
    }
    let expect: Option<u16> = match args.get("--expect-status") {
        None => None,
        Some(s) => {
            Some(s.parse().map_err(|_| format!("--expect-status: cannot parse {s:?}"))?)
        }
    };
    let rt = tokio::runtime::Runtime::new().map_err(|e| e.to_string())?;
    rt.block_on(async {
        // The server prints its address before the follow loop starts, but
        // give slow starts a grace period anyway.
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match http_fetch(addr, &HttpRequest::get("/healthz")).await {
                Ok(_) => break,
                Err(e) => {
                    if Instant::now() >= deadline {
                        return Err(format!("cannot reach {addr}: {e}"));
                    }
                    std::thread::sleep(Duration::from_millis(100));
                }
            }
        }
        if let Some(secs) = args.get("--wait-head") {
            let secs: u64 =
                secs.parse().map_err(|_| format!("--wait-head: cannot parse {secs:?}"))?;
            let deadline = Instant::now() + Duration::from_secs(secs);
            loop {
                let resp =
                    http_fetch(addr, &HttpRequest::get("/healthz")).await.map_err(|e| e.to_string())?;
                if String::from_utf8_lossy(&resp.body).contains("\"head\":true") {
                    break;
                }
                if Instant::now() >= deadline {
                    return Err(format!("server did not reach head within {secs}s"));
                }
                std::thread::sleep(Duration::from_millis(50));
            }
        }
        let mut out: Vec<u8> = Vec::new();
        for path in &args.positionals {
            let resp =
                http_fetch(addr, &HttpRequest::get(path)).await.map_err(|e| e.to_string())?;
            if let Some(code) = expect {
                if resp.status != code {
                    return Err(format!(
                        "{path}: expected status {code}, got {} {}",
                        resp.status, resp.reason
                    ));
                }
            }
            out.extend_from_slice(&resp.body);
        }
        if args.has("--shutdown") {
            let resp = http_fetch(addr, &HttpRequest::post("/admin/shutdown", Vec::new()))
                .await
                .map_err(|e| e.to_string())?;
            if !resp.is_ok() {
                return Err(format!("shutdown failed: {} {}", resp.status, resp.reason));
            }
        }
        write_bytes(&out, args.get("--out"))
    })
}

fn run() -> Result<(), String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        None => cmd_report(&[]),
        Some("report") => cmd_report(&argv[1..]),
        Some("archive") => cmd_archive(&argv[1..]),
        Some("shard") => cmd_shard(&argv[1..]),
        Some("reduce") => cmd_reduce(&argv[1..]),
        Some("follow") => cmd_follow(&argv[1..]),
        Some("chaos") => cmd_chaos(&argv[1..]),
        Some("serve") => cmd_serve(&argv[1..]),
        Some("query") => cmd_query(&argv[1..]),
        Some(other) => Err(format!("unknown subcommand {other:?}")),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}\n\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
