//! # txstat-core — the paper's analytics as a fused, parallel engine
//!
//! The primary contribution of *"Revisiting Transactional Statistics of
//! High-scalability Blockchains"* is a measurement methodology: classify
//! every transaction/operation/action of three high-throughput chains,
//! decompose throughput over time, rank the accounts driving it, and — for
//! XRP — determine how much of it carries actual economic value.
//!
//! ## Architecture: one columnar sweep per chain
//!
//! Every exhibit statistic is computed by one per-chain **columnar
//! accumulator** with a map-reduce algebra — `identity() / observe(block)
//! / merge(other)` — and finalized into a name-keyed result struct whose
//! accessors render the figures:
//!
//! - [`EosColumnar`] → [`eos_analysis::EosSweep`] — Figure 1 (action
//!   taxonomy), Figure 3a (category throughput), Figures 4–5 (top
//!   receivers/senders), the §4.1 detectors (WhaleEx wash trading, EIDOS
//!   boomerang mining), TPS, and the §5 transfer graph.
//! - [`TezosColumnar`] → [`tezos_analysis::TezosSweep`] — Figure 1
//!   (operation taxonomy), Figure 3b (endorsements vs payments), Figure 6
//!   (sender dispersion), Figure 9 (governance vote curves), §4.2 counts,
//!   TPS.
//! - [`XrpColumnar`] → [`xrp_analysis::XrpSweep`] — Figure 1 (type
//!   distribution), Figure 3c, Figure 7 (the value funnel), Figure 8
//!   (most-active accounts), Figure 12 (value flows), §4.3 spam waves, §3.3
//!   concentration, TPS, and the §5 payment graph.
//!
//! [`columnar`] describes the layout: names interned to dense `u32` ids at
//! decode time, per-block struct-of-arrays batches classified through
//! precomputed tag tables, and id-indexed counters whose merges are
//! remapped vector adds. The same accumulators are what the streaming
//! shards fold, what checkpoints freeze, and what wire frames carry
//! ([`WireState`]).
//!
//! [`accumulate::par_sweep`] drives the sweep: rayon splits the block vector
//! into chunks, folds each chunk through `observe`, and merges the partial
//! accumulators in slice order. All merged state lives in exactly-mergeable
//! domains (integer counters, id-indexed tallies, vector concatenation),
//! and finalization resolves ids by key, never by id order, so the parallel
//! result is **bit-identical** to a sequential fold regardless of worker
//! count or chunk boundaries; the floating-point conversions happen once,
//! at finalization, over deterministic orderings.
//!
//! The original single-purpose scan functions (`action_distribution`,
//! `funnel`, `top_senders`, …) remain available with unchanged signatures.
//! They are the reference oracle: the equivalence suite checks every
//! finalized accessor against them.
//!
//! Supporting modules:
//!
//! - [`accumulate`] — the chunked parallel map-reduce driver.
//! - [`cluster`] — XRP entity clustering by username/parent (§3.3).
//! - [`graph`] — mergeable transaction-graph metrics (degree distributions,
//!   hubs, fan-out outliers), the §5 related-work lens.

pub mod accumulate;
pub mod cluster;
pub mod columnar;
pub mod graph;
pub mod eos_analysis;
pub mod tezos_analysis;
pub mod xrp_analysis;

pub use accumulate::par_sweep;
pub use cluster::ClusterInfo;
pub use columnar::{EosColumnar, TezosColumnar, WireState, XrpColumnar};
pub use eos_analysis::{EosAccountStats, EosSweep};
pub use graph::{GraphReport, TransferGraph};
pub use tezos_analysis::{TezosAccountStats, TezosSweep};
pub use xrp_analysis::{XrpAccountStats, XrpSweep};

/// The three finalized per-chain sweeps behind the full report — what every
/// reduction path (in-process parallel sweep, streamed shards, distributed
/// frame reduction) ultimately produces.
pub struct ChainSweeps {
    pub eos: EosSweep,
    pub tezos: TezosSweep,
    pub xrp: XrpSweep,
}
