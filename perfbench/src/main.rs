//! `perfbench`: the repository's end-to-end benchmark.
//!
//! ```text
//! perfbench --workload <report-archive|fleet-reduce|follow-serve>
//!           [--seed N] [--seconds N] [--trace 0|1]
//! ```
//!
//! Builds each workload's inputs from the seed, measures for `--seconds`,
//! checks every output against the one-shot report, and prints the
//! input-size stamp, the workload's own figures, and as its last line one
//! JSON object: the end-to-end metrics (`--trace 0`) or the per-layer
//! metrics (`--trace 1`). See README.md beside this package.

mod corpus;
mod fleet_reduce;
mod follow_serve;
mod load;
mod metrics;
mod report_archive;
mod stats;
mod trace;

use metrics::Outcome;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use trace::Tracer;

pub const WORKLOADS: &[&str] = &["report-archive", "fleet-reduce", "follow-serve"];

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 7,
        seconds: 27,
        trace: false,
    };
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value:?}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?.max(1),
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace wants 0 or 1, got {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {WORKLOADS:?}, got {:?}",
            args.workload
        ));
    }
    Ok(args)
}

/// A scratch directory under the working directory, removed on drop.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            // Only succeeds once no other run is using the parent.
            let _ = std::fs::remove_dir(parent);
        }
    }
}

fn run() -> Result<(), String> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&raw)?;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let work = WorkDir(PathBuf::from(".perfbench_work").join(format!(
        "{}-{}",
        args.workload,
        std::process::id()
    )));
    std::fs::create_dir_all(&work.0)
        .map_err(|e| format!("cannot create {}: {e}", work.0.display()))?;
    let tracer = Arc::new(Tracer::new());
    let o: Outcome = match args.workload.as_str() {
        "report-archive" => report_archive::run(&args, &tracer, &work.0, nproc)?,
        "fleet-reduce" => fleet_reduce::run(&args, &tracer, &work.0)?,
        _ => follow_serve::run(&args, &tracer, nproc)?,
    };
    drop(work);

    println!(
        "workload {} | seed {} | nproc {nproc} | {} s | trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for (key, value) in &o.stamp {
        println!("  {key}: {value}");
    }
    println!(
        "  samples: {} untraced, {} traced; tail percentile p{}",
        o.plain_ms.len(),
        o.traced_ms.len(),
        o.tail_q() * 100.0
    );
    for (name, value, unit) in &o.aliases {
        println!("  {name} = {value:.3} {unit}");
    }
    println!(
        "  failed_ratio = {} ({} of {} operations failed)",
        o.failed as f64 / o.attempted.max(1) as f64,
        o.failed,
        o.attempted
    );
    if o.failed > 0 {
        eprintln!(
            "perfbench: {} of {} checked operations failed",
            o.failed, o.attempted
        );
    }
    let peak = metrics::peak_rss_mb()?;
    let line = if args.trace {
        let mut layers = o.layers.clone();
        layers.insert("trace.overhead_pct".to_owned(), o.overhead_pct());
        metrics::result_line(&o, &metrics::per_layer(), &layers)?
    } else {
        let catalogue: Vec<(String, &str)> = metrics::END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_owned(), u))
            .collect();
        metrics::result_line(&o, &catalogue, &o.end_to_end(peak))?
    };
    println!("{line}");
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn arguments() {
        let a = parse_args(&strings(&["--workload", "fleet-reduce", "--trace", "1"])).unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("fleet-reduce", 7, 27, true)
        );
        let a = parse_args(&strings(&[
            "--workload",
            "follow-serve",
            "--seed",
            "11",
            "--seconds",
            "3",
        ]))
        .unwrap();
        assert_eq!((a.seed, a.seconds, a.trace), (11, 3, false));
        assert!(parse_args(&strings(&["--workload", "crawl"])).is_err());
        assert!(parse_args(&strings(&["--workload", "fleet-reduce", "--trace", "2"])).is_err());
        assert!(parse_args(&strings(&["--workload"])).is_err());
        assert!(parse_args(&strings(&[])).is_err());
    }
}
