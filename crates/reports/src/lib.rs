//! # txstat-reports — regenerating every exhibit of the paper
//!
//! [`pipeline`] assembles the dataset (directly or through the full RPC
//! crawl), [`exhibits`] renders each table and figure, [`paper`] produces
//! the paper-vs-measured comparison that closes every report, and
//! [`serve`] wraps it all in an epoch-swapped long-lived query service.

pub mod archive_io;
pub mod exhibits;
pub mod paper;
pub mod pipeline;
pub mod serve;

pub use exhibits::{
    comparison_section, render_all, render_report, report_sections, SECTIONS, SECTION_BREAK,
};
pub use paper::{comparison, render_comparison, ComparisonRow};
pub use serve::{EpochFollower, ServeSnapshot, StatsService};
pub use archive_io::{Manifest, SegmentFormat, Sidecar};
pub use pipeline::{
    create_archive_writer, eos_block_hash, generate, generate_with_crawl,
    generate_with_crawl_streamed, pipeline_from_archive, reduce_frames, reduce_frames_labeled,
    reduce_frames_labeled_into, reorg_data, scenario_from_meta, scenario_meta, shard_scenario,
    tezos_block_hash, write_archive, xrp_block_hash, ArchiveStats, ChainStreamInfo, ChainSweeps,
    CrawlOptions, PipelineData, ShardContext, StreamSummary, DEFAULT_SEGMENT_CACHE_MB,
};

#[cfg(test)]
mod tests;
