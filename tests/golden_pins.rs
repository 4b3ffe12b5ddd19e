//! Golden content hashes of the live output formats.
//!
//! Each pin is the `fnv1a64` of bytes the program produces for the small
//! preset at seed 7: the rendered report, the sealed v2 corpus at the
//! `reproduce archive` default geometry, and the LZSS stream of every wire
//! payload concatenated. The hashes were recorded before the LZSS and wire
//! JSON kernels were rewritten for speed, so they prove those rewrites (and
//! any later one) leave every byte unchanged. A pin changes only with a
//! deliberate format change, named in CHANGES.md.
//!
//! The last test holds the fast LZSS compressor to the original matcher,
//! byte for byte, on each of those wire payloads.

use std::sync::OnceLock;
use txstat::archive::{IDX_FILE, SEG_FILE};
use txstat::reports::{generate, render_report, write_archive, PipelineData, SegmentFormat};
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
