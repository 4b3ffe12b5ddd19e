//! One bench per paper exhibit: each measures regenerating that table or
//! figure from the assembled dataset (the analytics cost, not chain
//! generation — the fixture is built once).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use txstat_bench::{bench_data, bench_scenario};
use txstat_core::{eos_analysis as eos, graph, tezos_analysis as tezos, xrp_analysis as xrp};
use txstat_core::{EosColumnar, EosSweep, TezosColumnar, TezosSweep, XrpColumnar, XrpSweep};
use txstat_ingest::{spawn_sharded, BlockSource, IngestOptions, MemorySource};
use txstat_reports::exhibits;

fn figures(c: &mut Criterion) {
    let data = bench_data();
    let sc = bench_scenario();
    let mut g = c.benchmark_group("figures");
    g.sample_size(20);

    g.bench_function("fig1_distributions", |b| {
        b.iter(|| black_box(exhibits::fig1(data)))
    });
    g.bench_function("fig2_dataset_stats", |b| {
        // LZSS-samples every serialized block: the heavy exhibit.
        b.iter(|| black_box(exhibits::fig2(data)))
    });
    g.bench_function("fig3_throughput_series", |b| {
        b.iter(|| black_box(exhibits::fig3(data)))
    });
    g.bench_function("fig4_eos_top_received", |b| {
        b.iter(|| black_box(exhibits::fig4(data)))
    });
    g.bench_function("fig5_eos_top_senders", |b| {
        b.iter(|| black_box(exhibits::fig5(data)))
    });
    g.bench_function("fig6_tezos_senders", |b| {
        b.iter(|| black_box(exhibits::fig6(data)))
    });
    g.bench_function("fig7_value_funnel", |b| {
        b.iter(|| black_box(exhibits::fig7(data)))
    });
    g.bench_function("fig8_most_active", |b| {
        b.iter(|| black_box(exhibits::fig8(data)))
    });
    g.bench_function("fig9_governance_curves", |b| {
        b.iter(|| black_box(exhibits::fig9(data)))
    });
    g.bench_function("fig11_iou_rates", |b| {
        b.iter(|| black_box(exhibits::fig11(data)))
    });
    g.bench_function("fig12_value_flow", |b| {
        b.iter(|| black_box(exhibits::fig12(data)))
    });
    g.bench_function("headline_findings", |b| {
        b.iter(|| black_box(exhibits::headline(data)))
    });
    g.bench_function("case_studies", |b| {
        b.iter(|| black_box(exhibits::case_studies(data)))
    });
    g.bench_function("paper_comparison", |b| {
        b.iter(|| black_box(txstat_reports::comparison(data)))
    });
    g.finish();

    // Workload generation itself (chain simulation throughput).
    let mut g = c.benchmark_group("generation");
    g.sample_size(10);
    g.bench_function("eos_chain", |b| {
        b.iter(|| black_box(txstat_workload::eos::build_eos(&sc)))
    });
    g.bench_function("tezos_chain", |b| {
        b.iter(|| black_box(txstat_workload::tezos::build_tezos(&sc)))
    });
    g.bench_function("xrp_ledger", |b| {
        b.iter(|| black_box(txstat_workload::xrp::build_xrp(&sc)))
    });
    g.finish();
}

/// Every exhibit statistic computed by the legacy per-exhibit scans (one
/// dedicated pass over the blocks per statistic, single-threaded) versus
/// the columnar engine (one rayon map-reduce sweep per chain producing all
/// of them), plus the parallel-scaling profile of the columnar path at
/// 1/2/N worker threads.
fn fused_report(c: &mut Criterion) {
    let data = bench_data();
    let period = data.scenario.period;
    let mut g = c.benchmark_group("fused_report");
    g.sample_size(10);

    g.bench_function("legacy_multipass", |b| {
        b.iter(|| {
            // EOS: 8 passes.
            let curated = eos::EosLabels::curated();
            let labels = eos::EosLabels::from_top_contracts(&data.eos_blocks, period, 100, &|n| {
                curated.get(n)
            });
            black_box(eos::action_distribution(&data.eos_blocks, period));
            black_box(eos::throughput_series(&data.eos_blocks, period, &labels));
            black_box(eos::top_received(&data.eos_blocks, period, 5));
            black_box(eos::top_senders(&data.eos_blocks, period, 5));
            black_box(eos::wash_trading_report(&data.eos_blocks, period));
            black_box(eos::boomerang_report(&data.eos_blocks, period));
            black_box(eos::tps(&data.eos_blocks, period));
            black_box(graph::eos_transfer_graph(&data.eos_blocks, period).report(3));
            // Tezos: 6 passes.
            black_box(tezos::op_distribution(&data.tezos_blocks, period));
            black_box(tezos::throughput_series(&data.tezos_blocks, period));
            black_box(tezos::top_senders(&data.tezos_blocks, period, 5));
            black_box(tezos::governance_curves(
                &data.tezos_blocks,
                &data.governance_periods,
                &data.tezos_rolls,
            ));
            black_box(tezos::governance_op_count(&data.tezos_blocks, period));
            black_box(tezos::tps(&data.tezos_blocks, period));
            // XRP: 9 passes.
            black_box(xrp::tx_distribution(&data.xrp_blocks, period));
            black_box(xrp::throughput_series(&data.xrp_blocks, period));
            black_box(xrp::funnel(&data.xrp_blocks, period, &data.oracle));
            black_box(xrp::most_active(&data.xrp_blocks, period, 10, &data.cluster));
            black_box(xrp::value_flow(&data.xrp_blocks, period, &data.oracle, &data.cluster));
            black_box(xrp::payment_spike_buckets(&data.xrp_blocks, period, 3.0));
            black_box(xrp::concentration(&data.xrp_blocks, period));
            black_box(xrp::tps(&data.xrp_blocks, period));
            black_box(graph::xrp_payment_graph(&data.xrp_blocks, period).report(3));
        })
    });

    // Every finalization accessor, so each arm produces the same
    // figure-shaped outputs and the comparisons are work-for-work.
    let exercise = |e: EosSweep, t: TezosSweep, x: XrpSweep| {
        let curated = eos::EosLabels::curated();
        let labels = e.labels(100, &|n| curated.get(n));
        black_box(e.action_distribution());
        black_box(e.throughput_series(&labels));
        black_box(e.top_received(5));
        black_box(e.top_senders(5));
        black_box(e.wash_trading_report());
        black_box(e.boomerang_report());
        black_box(e.tps());
        black_box(e.graph().report(3));
        black_box(t.op_distribution());
        black_box(t.throughput_series().total());
        black_box(t.top_senders(5));
        black_box(t.governance_curves(&data.tezos_rolls));
        black_box(t.governance_op_count());
        black_box(t.tps());
        black_box(x.tx_distribution());
        black_box(x.throughput_series().total());
        black_box(x.funnel());
        black_box(x.most_active(10, &data.cluster));
        black_box(x.value_flow(&data.cluster));
        black_box(x.payment_spike_buckets(3.0));
        black_box(x.concentration());
        black_box(x.tps());
        black_box(x.graph().report(3));
        (e, t, x)
    };
    // The columnar engine over the same workload: interned ids, batched
    // tag-table classification, id-indexed counters, remap merges — then
    // finalized and pushed through the accessor battery (`compute` returns
    // the finalized sweeps).
    let columnar_sweeps = || {
        exercise(
            EosColumnar::compute(&data.eos_blocks, period),
            TezosColumnar::compute(&data.tezos_blocks, period, &data.governance_periods),
            XrpColumnar::compute(&data.xrp_blocks, period, &data.oracle),
        )
    };
    g.bench_function("columnar_three_sweeps", |b| b.iter(|| black_box(columnar_sweeps())));

    let max_threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4);
    let mut counts = vec![1usize, 2];
    if max_threads > 2 {
        counts.push(max_threads);
    }
    for threads in counts {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("pool");
        g.bench_function(format!("columnar_sweeps_{threads}_threads"), |b| {
            b.iter(|| pool.install(|| black_box(columnar_sweeps())))
        });
    }
    g.finish();
}

/// Streamed ingestion vs materialize-then-sweep over the EOS chain (the
/// heaviest accumulator): blocks flow through bounded channels into 1/2/N
/// shard workers and the shards merge, versus one `par_sweep` over the
/// materialized slice. Block references stream out of the static fixture,
/// so both arms pay zero per-block copies and the comparison isolates the
/// channel + shard-fold overhead.
fn fused_stream(c: &mut Criterion) {
    let data = bench_data();
    let period = data.scenario.period;
    let blocks: &'static [txstat_eos::Block] = &data.eos_blocks;
    let mut g = c.benchmark_group("fused_stream");
    g.sample_size(10);

    g.bench_function("materialize_then_sweep", |b| {
        b.iter(|| black_box(EosColumnar::compute(blocks, period)))
    });

    let max_threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4);
    let mut counts = vec![1usize, 2];
    if max_threads > 2 {
        counts.push(max_threads);
    }
    for shards in counts {
        g.bench_function(format!("stream_{shards}_shards"), |b| {
            b.iter(|| {
                tokio::runtime::block_on(async {
                    let opts = IngestOptions { shards, channel_capacity: 256, label: "" };
                    let (sink, pool) = spawn_sharded(
                        opts,
                        move || EosColumnar::new(period),
                        |acc: &mut EosColumnar, _n, b: &&txstat_eos::Block| acc.observe(b),
                    );
                    let src = MemorySource::numbered(blocks.iter(), |b| b.num);
                    let producer = tokio::spawn(src.produce(sink));
                    let out = pool.finish().await;
                    producer.await.expect("producer").expect("memory source");
                    black_box(out.merged(|a, b| a.merge(b)).finalize())
                })
            })
        });
    }
    g.finish();
}

/// The distributed shard/merge boundary as a codec cost profile: encoding
/// k shard accumulators into wire frames, decoding them back, and a full
/// `ReduceSession` reduction (decode + validate + remap-merge + finalize),
/// against the in-process merge of the same k accumulators (no codec) —
/// the wire tax on top of the merge algebra, over schema v2 binary-column
/// frames.
fn wire_reduce(c: &mut Criterion) {
    use txstat_core::WireState;
    use txstat_ingest::{ReduceSession, ShardWorker};
    use txstat_wire::ShardFrame;

    let data = bench_data();
    let period = data.scenario.period;
    let meta = txstat_reports::scenario_meta(&data.scenario, "bench");
    const K: u64 = 4;
    let total = data
        .eos_blocks
        .len()
        .max(data.tezos_blocks.len())
        .max(data.xrp_blocks.len()) as u64;
    let workers: Vec<ShardWorker> = (0..K)
        .map(|i| ShardWorker {
            start: i * total / K,
            end: if i == K - 1 { total } else { (i + 1) * total / K },
            base: 0,
            shards: 1,
            meta: meta.clone(),
        })
        .collect();
    // The shard sweeps run once; the benches below measure the boundary,
    // not the sweeping.
    let frames: Vec<ShardFrame> = workers
        .iter()
        .flat_map(|w| {
            vec![
                w.eos_frame(&data.eos_blocks, period),
                w.tezos_frame(&data.tezos_blocks, period, &data.governance_periods),
                w.xrp_frame(&data.xrp_blocks, period, &data.oracle),
            ]
        })
        .collect();
    let bytes = txstat_wire::encode_all(&frames);
    let accs: Vec<(EosColumnar, TezosColumnar, XrpColumnar)> = workers
        .iter()
        .enumerate()
        .map(|(i, _)| {
            let payload = |j: usize| &frames[i * 3 + j].payload[..];
            (
                EosColumnar::from_wire_bytes(payload(0)).expect("eos state"),
                TezosColumnar::from_wire_bytes(payload(1)).expect("tezos state"),
                XrpColumnar::from_wire_bytes(payload(2)).expect("xrp state"),
            )
        })
        .collect();

    let mut g = c.benchmark_group("wire_reduce");
    g.sample_size(10);
    g.bench_function("encode_k4_frames", |b| {
        b.iter(|| {
            black_box(
                accs.iter()
                    .zip(&workers)
                    .flat_map(|((e, t, x), w)| {
                        vec![
                            ShardFrame::from_columns("eos", w.start, w.end, 0, w.meta.clone(), e.to_wire_bytes()),
                            ShardFrame::from_columns("tezos", w.start, w.end, 0, w.meta.clone(), t.to_wire_bytes()),
                            ShardFrame::from_columns("xrp", w.start, w.end, 0, w.meta.clone(), x.to_wire_bytes()),
                        ]
                    })
                    .map(|f| f.encode().len())
                    .sum::<usize>(),
            )
        })
    });
    g.bench_function("decode_k4_frames", |b| {
        b.iter(|| {
            let frames = txstat_wire::decode_all(&bytes).expect("frames decode");
            for f in &frames {
                match f.header.chain.as_str() {
                    "eos" => {
                        black_box(EosColumnar::from_wire_bytes(&f.payload).expect("eos state"));
                    }
                    "tezos" => {
                        black_box(TezosColumnar::from_wire_bytes(&f.payload).expect("tezos state"));
                    }
                    _ => {
                        black_box(XrpColumnar::from_wire_bytes(&f.payload).expect("xrp state"));
                    }
                }
            }
            black_box(frames.len())
        })
    });
    g.bench_function("reduce_k4_frames", |b| {
        b.iter(|| {
            let mut session = ReduceSession::new();
            for f in txstat_wire::decode_all(&bytes).expect("frames decode") {
                session.submit(&f).expect("frame validates");
            }
            black_box(session.finalize().expect("complete coverage"))
        })
    });
    g.bench_function("inprocess_merge_k4", |b| {
        b.iter(|| {
            let mut it = accs.iter().cloned();
            let (mut e, mut t, mut x) = it.next().expect("k >= 1");
            for (e2, t2, x2) in it {
                e.merge(e2);
                t.merge(t2);
                x.merge(x2);
            }
            black_box((e.finalize(), t.finalize(), x.finalize()))
        })
    });
    g.finish();
}

criterion_group!(benches, figures, fused_report, fused_stream, wire_reduce);
criterion_main!(benches);
