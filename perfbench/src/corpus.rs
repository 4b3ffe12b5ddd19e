//! Set-up and layer probes shared by the archive-backed workloads.

use crate::metrics::Outcome;
use crate::stats;
use crate::trace::{Analysis, Tracer};
use std::path::Path;
use std::time::Instant;
use txstat_archive::Archive;
use txstat_reports::{generate, write_archive, ArchiveStats, PipelineData, SegmentFormat};
use txstat_workload::Scenario;

/// Positions per segment: the `reproduce archive` default.
pub const SEGMENT_BLOCKS: u64 = 256;

pub fn ms(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e3
}

/// A generated dataset sealed into a corpus, with the time each step took.
pub struct Sealed {
    pub data: PipelineData,
    pub stats: ArchiveStats,
    pub generate_ms: f64,
    pub seal_ms: f64,
}

/// Generate the scenario and seal it as a v2 corpus at `dir`.
pub fn seal(sc: &Scenario, mode: &str, dir: &Path) -> Result<Sealed, String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| format!("cannot clear {}: {e}", dir.display()))?;
    }
    let t = Instant::now();
    let data = generate(sc);
    let generate_ms = ms(t);
    let t = Instant::now();
    let stats = write_archive(dir, &data, mode, SEGMENT_BLOCKS, SegmentFormat::V2)?;
    Ok(Sealed {
        data,
        stats,
        generate_ms,
        seal_ms: ms(t),
    })
}

/// Stamp lines describing a sealed corpus.
pub fn stamp(o: &mut Outcome, data: &PipelineData, stats: &ArchiveStats) {
    o.stamp.push((
        "positions_per_chain",
        format!(
            "eos={} tezos={} xrp={}",
            data.eos_blocks.len(),
            data.tezos_blocks.len(),
            data.xrp_blocks.len()
        ),
    ));
    o.stamp.push((
        "corpus",
        format!(
            "{} segments of {SEGMENT_BLOCKS} positions, {} raw bytes, {} compressed bytes",
            stats.segments, stats.raw_bytes, stats.compressed_bytes
        ),
    ));
}

/// Time the archive layers the cold start runs inside
/// `pipeline_from_archive` by calling them directly, `runs` times, outside
/// any timed operation: `Archive::open` (with hash verification),
/// `Archive::replay_all` and `chains_of`. Also records the bytes a cold
/// start reads.
pub fn probe_archive(
    o: &mut Outcome,
    tracer: &Tracer,
    dir: &Path,
    runs: usize,
) -> Result<(), String> {
    let err = |e: txstat_archive::ArchiveError| e.to_string();
    for _ in 0..runs {
        let root = tracer.root("probe", true);
        let archive = {
            let _s = root.child("archive.open");
            Archive::open(dir).map_err(err)?
        };
        let segments = {
            let _s = root.child("archive.replay");
            archive.replay_all().map_err(err)?
        };
        let _s = root.child("archive_io.decode");
        txstat_reports::archive_io::chains_of(&segments)?;
    }
    let spans = tracer.spans();
    let an = Analysis::new(&spans);
    for name in ["archive.open", "archive.replay", "archive_io.decode"] {
        o.layer(&format!("{name}_ms"), stats::median(&an.durations(name)));
    }
    let mut bytes = 0u64;
    for entry in std::fs::read_dir(dir).map_err(|e| e.to_string())? {
        bytes += entry
            .map_err(|e| e.to_string())?
            .metadata()
            .map_err(|e| e.to_string())?
            .len();
    }
    o.layer("archive.bytes_read", bytes as f64);
    Ok(())
}
