//! The metric catalogue `BENCHMARK.json` declares, and the result line.

use crate::stats;
use std::collections::BTreeMap;
use std::sync::OnceLock;

/// End-to-end metrics, printed with tracing off: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// The render span of every `SECTIONS` entry (`render.<name>`), in
/// report order.
pub fn section_spans() -> &'static [&'static str] {
    static SPANS: OnceLock<Vec<&'static str>> = OnceLock::new();
    SPANS.get_or_init(|| {
        txstat_reports::SECTIONS
            .iter()
            .map(|(name, _)| &*format!("render.{name}").leak())
            .collect()
    })
}

/// Per-layer metrics, printed by the traced run: `(name, unit)`. A
/// workload that never calls a layer reports 0 for it.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = [
        ("generate_ms", "ms"),
        ("archive.seal_ms", "ms"),
        ("archive.open_ms", "ms"),
        ("archive.replay_ms", "ms"),
        ("archive.bytes_read", "bytes"),
        ("archive.cache_hit_ratio", "ratio"),
        ("archive.cache_evictions", "count"),
        ("archive_io.decode_ms", "ms"),
        ("pipeline.cold_start_ms", "ms"),
        ("core.sweep_ms", "ms"),
        ("render.storage_ms", "ms"),
    ]
    .iter()
    .map(|&(n, u)| (n.to_owned(), u))
    .collect();
    out.extend(
        section_spans()
            .iter()
            .map(|span| (format!("{span}_ms"), "ms")),
    );
    out.extend(
        [
            ("render.comparison_ms", "ms"),
            ("fleet.dispatch_ms", "ms"),
            ("fleet.worker_busy_ms", "ms"),
            ("fleet.idle_ms", "ms"),
            ("fleet.assignments", "count"),
            ("fleet.retries", "count"),
            ("wire.frames", "count"),
            ("wire.frame_bytes", "bytes"),
            ("reduce.merge_ms", "ms"),
            ("follow.advance_p50_ms", "ms"),
            ("follow.advance_p90_ms", "ms"),
            ("follow.late_epochs", "count"),
            ("epoch.publish_us", "us"),
            ("publish_p50_ms", "ms"),
            ("publish_p90_ms", "ms"),
            ("serve.respond_p50_us", "us"),
            ("serve.respond_p99_us", "us"),
            ("serve.cache_hit_ratio", "ratio"),
            ("netsim.transport_p50_ms", "ms"),
            ("netsim.transport_p99_ms", "ms"),
            ("query.gen_late_p99_ms", "ms"),
            ("query.shed", "count"),
            ("trace.overhead_pct", "%"),
            ("unaccounted_pct", "%"),
        ]
        .iter()
        .map(|&(n, u)| (n.to_owned(), u)),
    );
    out
}

/// What one workload run measured.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted and failed (errors, non-200s, 429s, timeouts,
    /// wrong bytes), set-up checks included.
    pub attempted: u64,
    pub failed: u64,
    /// Wall time of each set-up, in seconds.
    pub setups_s: Vec<f64>,
    /// Latency of each untraced timed operation, in ms.
    pub plain_ms: Vec<f64>,
    /// Latency of each traced timed operation, in ms (traced run only).
    pub traced_ms: Vec<f64>,
    /// The highest tail percentile this workload reports.
    pub tail_cap: f64,
    /// Per-layer values by metric name.
    pub layers: BTreeMap<String, f64>,
    /// The input-size stamp: `(key, value)` in print order.
    pub stamp: Vec<(&'static str, String)>,
    /// The workload's own names for its end-to-end figures.
    pub aliases: Vec<(&'static str, f64, &'static str)>,
}

impl Outcome {
    /// Count one checked operation.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    pub fn layer(&mut self, name: &str, value: f64) {
        self.layers.insert(name.to_owned(), value);
    }

    /// The tail percentile the untraced samples support.
    pub fn tail_q(&self) -> f64 {
        stats::tail_quantile(self.plain_ms.len(), self.tail_cap)
    }

    pub fn end_to_end(&self, peak_rss_mb: f64) -> BTreeMap<String, f64> {
        let sorted = stats::sorted(&self.plain_ms);
        let (p50, tail) = if sorted.is_empty() {
            (0.0, 0.0)
        } else {
            (
                stats::quantile(&sorted, 0.5),
                stats::quantile(&sorted, self.tail_q()),
            )
        };
        [
            ("setup_s", stats::median(&self.setups_s)),
            ("op_p50_ms", p50),
            ("op_tail_ms", tail),
            ("peak_rss_mb", peak_rss_mb),
        ]
        .into_iter()
        .map(|(n, v)| (n.to_owned(), v))
        .collect()
    }

    /// Tracing cost: the traced operations' median against the untraced
    /// operations' median from the same run, in percent.
    pub fn overhead_pct(&self) -> f64 {
        let plain = stats::median(&self.plain_ms);
        if plain <= 0.0 || self.traced_ms.is_empty() {
            return 0.0;
        }
        100.0 * (stats::median(&self.traced_ms) - plain) / plain
    }
}

/// Peak resident memory of this process, in MB (VmHWM).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// The result line: `correct`, `attempted`, `failed` and the metrics
/// with their units. Every named metric must be present and finite.
pub fn result_line(
    o: &Outcome,
    catalogue: &[(String, &str)],
    values: &BTreeMap<String, f64>,
) -> Result<String, String> {
    let mut metrics = serde_json::Map::new();
    for (name, unit) in catalogue {
        let v = values.get(name).copied().unwrap_or(0.0);
        if !v.is_finite() {
            return Err(format!("metric {name} is not finite: {v}"));
        }
        metrics.insert(name.clone(), serde_json::json!({"value": v, "unit": *unit}));
    }
    let line = serde_json::json!({
        "correct": o.failed == 0 && o.attempted > 0,
        "attempted": o.attempted,
        "failed": o.failed,
        "metrics": serde_json::Value::Object(metrics),
    });
    serde_json::to_string(&line).map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
        let json: serde_json::Value = serde_json::from_str(&text).expect("valid JSON");
        let listed = |key: &str| -> Vec<(String, String)> {
            json[key]
                .as_array()
                .expect("metric list")
                .iter()
                .map(|m| {
                    (
                        m["name"].as_str().unwrap().to_owned(),
                        m["unit"].as_str().unwrap().to_owned(),
                    )
                })
                .collect()
        };
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(listed("end_to_end"), e2e);
        let layers: Vec<(String, String)> = per_layer()
            .into_iter()
            .map(|(n, u)| (n, u.to_owned()))
            .collect();
        assert_eq!(listed("per_layer"), layers);
    }

    #[test]
    fn end_to_end_uses_the_supported_tail() {
        let mut o = Outcome {
            tail_cap: 0.9,
            ..Outcome::default()
        };
        o.plain_ms = (1..=50).map(f64::from).collect();
        o.setups_s = vec![3.0, 1.0, 2.0];
        let m = o.end_to_end(12.5);
        // 50 samples leave fewer than ten beyond p90: the tail is p50.
        assert_eq!((m["op_p50_ms"], m["op_tail_ms"]), (25.0, 25.0));
        assert_eq!((m["setup_s"], m["peak_rss_mb"]), (2.0, 12.5));
        o.plain_ms = (1..=100).map(f64::from).collect();
        assert_eq!(o.end_to_end(1.0)["op_tail_ms"], 90.0);
        o.traced_ms = vec![55.5];
        // Nearest-rank median of 1..=100 is 50.
        assert!((o.overhead_pct() - 11.0).abs() < 1e-9);
    }
}
