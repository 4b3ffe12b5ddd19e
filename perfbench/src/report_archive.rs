//! `report-archive`: back-to-back cold-start reports from a sealed small
//! corpus, one caller (closed loop) — the `report --archive` path.

use crate::corpus::{self, ms};
use crate::follow_serve::{self, Plan};
use crate::metrics::{section_spans, Outcome};
use crate::stats;
use crate::trace::{self, Analysis, ProgramTrace, Tracer};
use crate::Args;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};
use txstat_reports::{
    comparison_section, pipeline_from_archive, render_report, PipelineData, SECTIONS, SECTION_BREAK,
};
use txstat_workload::Scenario;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Layer-by-layer reports and archive probes in the traced run.
const PROBES: usize = 20;
/// Follower passes over the small preset in the traced run's
/// follow-and-serve session.
const FOLLOW_PASSES: u64 = 2;
/// The program stage marking one traced report.
const ROOT: &str = "perfbench_report";

/// One cold-start report as `report --archive` makes it.
fn report(dir: &Path) -> Result<(String, PipelineData), String> {
    let (data, _archive) = pipeline_from_archive(dir)?;
    Ok((render_report(&data), data))
}

/// The same report with a span around every layer call. The sections are
/// rendered one by one and joined exactly as `render_report` joins them.
fn layered_report(tracer: &Tracer, dir: &Path) -> Result<String, String> {
    let root = tracer.root("layered_report", true);
    let data = {
        let _s = root.child("pipeline.cold_start");
        pipeline_from_archive(dir)?.0
    };
    {
        let _s = root.child("core.sweep");
        data.sweeps();
    }
    {
        let _s = root.child("render.storage");
        data.storage_stats();
    }
    let mut text = String::new();
    for ((_, render), span) in SECTIONS.iter().zip(section_spans()) {
        let _s = root.child(span);
        text.push_str(&render(&data));
        text.push_str(SECTION_BREAK);
    }
    {
        let _s = root.child("render.comparison");
        text.push_str(&comparison_section(&data));
    }
    Ok(text)
}

pub fn run(
    args: &Args,
    tracer: &Arc<Tracer>,
    work: &Path,
    nproc: usize,
) -> Result<Outcome, String> {
    let mut o = Outcome {
        tail_cap: 0.9,
        ..Outcome::default()
    };
    o.stamp.push(("preset", "small".to_owned()));
    let sc = Scenario::small(args.seed);
    let dir = work.join("corpus");
    let mut reference = String::new();
    let (mut generate_ms, mut seal_ms) = (Vec::new(), Vec::new());
    for i in 0..SETUPS {
        let t = Instant::now();
        let sealed = corpus::seal(&sc, "small", &dir)?;
        reference = render_report(&sealed.data);
        if i == 0 {
            corpus::stamp(&mut o, &sealed.data, &sealed.stats);
        }
        generate_ms.push(sealed.generate_ms);
        seal_ms.push(sealed.seal_ms);
        drop(sealed);
        let (warm, _) = report(&dir)?;
        o.check(warm == reference);
        o.setups_s.push(t.elapsed().as_secs_f64());
    }
    o.layer("generate_ms", stats::median(&generate_ms));
    o.layer("archive.seal_ms", stats::median(&seal_ms));
    o.stamp.push((
        "loop",
        "closed, 1 caller, one cold-start report at a time".to_owned(),
    ));

    // The traced run alternates reports with the program's own tracer
    // armed and plain reports, so the tracing cost is measured under the
    // same conditions.
    let program = args.trace.then(ProgramTrace::arm);
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let mut i = 0u64;
    while Instant::now() < deadline {
        let traced = program.as_ref().filter(|_| i.is_multiple_of(2));
        let t = Instant::now();
        let (text, data) = match traced {
            Some(p) => p.around(ROOT, || report(&dir))?,
            None => report(&dir)?,
        };
        let took = ms(t);
        drop(data);
        if traced.is_some() {
            &mut o.traced_ms
        } else {
            &mut o.plain_ms
        }
        .push(took);
        o.check(text == reference);
        i += 1;
    }

    let p90 = stats::pct(&o.plain_ms, 0.9);
    o.aliases = vec![
        ("report_ms", stats::median(&o.plain_ms), "ms"),
        ("report_p90_ms", p90, "ms"),
    ];
    let Some(program) = program else {
        return Ok(o);
    };
    o.layer(
        "unaccounted_pct",
        trace::uncovered_pct(&program.events()?, ROOT),
    );

    // Everything below runs after the timed loop. `pipeline_from_archive`
    // and `render_report` expose no seam between their layers, so the
    // report is re-made layer call by layer call, and the archive layers
    // are called directly.
    for _ in 0..PROBES {
        let text = layered_report(tracer, &dir)?;
        o.check(text == reference);
    }
    let spans = tracer.spans();
    let an = Analysis::new(&spans);
    let layer_spans = [
        "pipeline.cold_start",
        "core.sweep",
        "render.storage",
        "render.comparison",
    ];
    for span in layer_spans
        .into_iter()
        .chain(section_spans().iter().copied())
    {
        o.layer(&format!("{span}_ms"), stats::median(&an.per_root(span)));
    }
    corpus::probe_archive(&mut o, tracer, &dir, PROBES)?;

    // The follow and serve layers, over the same small corpus: the
    // follower replays it while the query server answers the open-loop
    // generator, every epoch and query traced.
    let (data, _archive) = pipeline_from_archive(&dir)?;
    let expected = follow_serve::expected_bodies(&data);
    o.check(expected.get("/report").map(Vec::as_slice) == Some(reference.as_bytes()));
    let plan = Plan {
        seed: args.seed,
        nproc,
        passes: FOLLOW_PASSES,
        every: 1,
    };
    let session = follow_serve::session(&mut o, tracer, &data, &expected, &plan)?;
    follow_serve::session_layers(&mut o, &session, tracer);
    Ok(o)
}
