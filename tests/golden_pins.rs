//! Golden content hashes of the live output formats.
//!
//! Each pin is the `fnv1a64` of bytes the program produces for the small
//! preset at seed 7: the rendered report, the sealed v2 corpus at the
//! `reproduce archive` default geometry, the LZSS stream of every wire
//! payload concatenated, a set of v2 shard frames, and the v4 checkpoints
//! of a followed run. The report, corpus and LZSS hashes were recorded
//! before the LZSS and wire JSON kernels were rewritten for speed; the
//! frame-set and checkpoint hashes before the scalar sweep engine and the
//! JSON frame payload were deleted. They prove those changes (and any
//! later one) leave every byte unchanged. A pin changes only with a
//! deliberate format change, named in CHANGES.md.
//!
//! The last test holds the fast LZSS compressor to the original matcher,
//! byte for byte, on each of those wire payloads.

use std::sync::OnceLock;
use txstat::archive::{IDX_FILE, SEG_FILE};
use txstat::core::{EosColumnar, TezosColumnar, XrpColumnar};
use txstat::ingest::{ChainFollow, Checkpoint, ShardWorker};
use txstat::reports::{
    eos_block_hash, generate, render_report, scenario_meta, tezos_block_hash, write_archive,
    xrp_block_hash, PipelineData, SegmentFormat,
};
use txstat::wire::encode_all;
use txstat::types::{fnv1a64, lzss};
use txstat::workload::Scenario;

const SEED: u64 = 7;
/// `reproduce archive`'s `--segment-blocks` default.
const SEGMENT_BLOCKS: u64 = 256;

const REPORT_FNV: u64 = 4509929656731940615;
const SEG_FNV: u64 = 2140994574139879118;
const IDX_FNV: u64 = 11688409011460820352;
const PAYLOADS_LEN: usize = 7638227;
const PAYLOADS_LZSS_FNV: u64 = 8295052829323819005;
const FRAMES_LEN: usize = 45081;
const FRAMES_FNV: u64 = 3981208006403080067;
const CHECKPOINTS_LEN: usize = 86127;
const CHECKPOINTS_FNV: u64 = 10220437623581744302;

fn data() -> &'static PipelineData {
    static DATA: OnceLock<PipelineData> = OnceLock::new();
    DATA.get_or_init(|| generate(&Scenario::small(SEED)))
}

#[test]
fn small_report_hash_is_pinned() {
    let report = render_report(data());
    assert_eq!(
        fnv1a64(report.as_bytes()),
        REPORT_FNV,
        "report text drifted"
    );
}

#[test]
fn small_v2_corpus_hashes_are_pinned() {
    let dir = std::env::temp_dir().join(format!("txstat-golden-corpus-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    write_archive(&dir, data(), "small", SEGMENT_BLOCKS, SegmentFormat::V2).expect("seal corpus");
    let seg = std::fs::read(dir.join(SEG_FILE)).expect("read segments");
    let idx = std::fs::read(dir.join(IDX_FILE)).expect("read index");
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(fnv1a64(&seg), SEG_FNV, "{SEG_FILE} drifted");
    assert_eq!(fnv1a64(&idx), IDX_FNV, "{IDX_FILE} drifted");
}

/// Every block's canonical wire JSON, in chain then position order.
fn wire_payloads() -> Vec<Vec<u8>> {
    let d = data();
    let eos = d.eos_blocks.iter().map(txstat::eos::rpc_model::block_bytes);
    let tezos = d
        .tezos_blocks
        .iter()
        .map(txstat::tezos::rpc_model::block_bytes);
    let xrp = d
        .xrp_blocks
        .iter()
        .map(txstat::xrp::rpc_model::ledger_bytes);
    eos.chain(tezos).chain(xrp).collect()
}

#[test]
fn lzss_of_all_wire_payloads_is_pinned() {
    let all = wire_payloads().concat();
    assert_eq!(all.len(), PAYLOADS_LEN, "wire payload length drifted");
    let packed = lzss::compress(&all);
    assert_eq!(fnv1a64(&packed), PAYLOADS_LZSS_FNV, "LZSS stream drifted");
}

/// The v2 frame set of three shard workers tiling every chain: ranges
/// `0..250`, `250..400` and `400..` with 1, 3 and 2 in-process shards.
#[test]
fn small_v2_frame_set_is_pinned() {
    let d = data();
    let sc = &d.scenario;
    let mut frames = Vec::new();
    for (start, end, shards) in [(0, 250, 1), (250, 400, 3), (400, u64::MAX, 2)] {
        let mut w = ShardWorker::new(start, end, scenario_meta(sc, "small"));
        w.shards = shards;
        frames.push(w.eos_frame(&d.eos_blocks, sc.period));
        frames.push(w.tezos_frame(&d.tezos_blocks, sc.period, &d.governance_periods));
        frames.push(w.xrp_frame(&d.xrp_blocks, sc.period, &d.oracle));
    }
    let bytes = encode_all(&frames);
    assert_eq!(bytes.len(), FRAMES_LEN, "frame set length drifted");
    assert_eq!(fnv1a64(&bytes), FRAMES_FNV, "frame set drifted");
}

/// Follow one chain to its head in 300-block batches over two shards.
fn follow<A: Clone, B>(
    chain: &str,
    cp: Checkpoint<A>,
    blocks: &[B],
    num: impl Fn(&B) -> u64,
    observe: impl Fn(&mut A, u64, &B),
    hash: impl Fn(&B) -> u64,
) -> Checkpoint<A> {
    let mut f = ChainFollow::new(chain, cp, 4);
    for batch in blocks.chunks(300) {
        f.advance(batch, &num, &observe, &hash).expect("advance");
    }
    f.checkpoint().clone()
}

/// The v4 `Checkpoint::to_json` text of each chain after following the
/// whole small preset, concatenated in chain order.
#[test]
fn followed_checkpoints_are_pinned() {
    let d = data();
    let period = d.scenario.period;
    let first = |n: Option<u64>| n.unwrap_or(1);
    let eos = follow(
        "eos",
        Checkpoint::new(vec![EosColumnar::new(period); 2], first(d.eos_blocks.first().map(|b| b.num))),
        &d.eos_blocks,
        |b| b.num,
        |a, _n, b| a.observe(b),
        eos_block_hash,
    );
    let tezos = follow(
        "tezos",
        Checkpoint::new(
            vec![TezosColumnar::new(period, d.governance_periods.clone()); 2],
            first(d.tezos_blocks.first().map(|b| b.level)),
        ),
        &d.tezos_blocks,
        |b| b.level,
        |a, _n, b| a.observe(b),
        tezos_block_hash,
    );
    let xrp = follow(
        "xrp",
        Checkpoint::new(vec![XrpColumnar::new(period); 2], first(d.xrp_blocks.first().map(|b| b.index))),
        &d.xrp_blocks,
        |b| b.index,
        |a, _n, b| a.observe(b, &d.oracle),
        xrp_block_hash,
    );
    let texts = [eos.to_json(), tezos.to_json(), xrp.to_json()];
    for t in &texts {
        assert_eq!(t["schema_version"], 4, "checkpoint schema moved");
    }
    let all: String = texts.iter().map(|t| serde_json::to_string(t).expect("serializes")).collect();
    assert_eq!(all.len(), CHECKPOINTS_LEN, "checkpoint length drifted");
    assert_eq!(fnv1a64(all.as_bytes()), CHECKPOINTS_FNV, "checkpoints drifted");
}

#[path = "../crates/types/src/lzss/reference.rs"]
mod lzss_reference;

/// The fast compressor equals the original matcher on every payload the
/// Figure 2 storage pass and the v1 archive segments compress.
#[test]
fn lzss_equals_reference_on_every_wire_payload() {
    let payloads = wire_payloads();
    assert_eq!(payloads.len(), 3434);
    for (i, p) in payloads.iter().enumerate() {
        assert!(
            lzss::compress(p) == lzss_reference::compress(p),
            "payload {i} ({} bytes) compresses differently",
            p.len()
        );
    }
}
