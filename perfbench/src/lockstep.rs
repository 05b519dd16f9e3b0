//! `lockstep-sharded`: lockstep replays of one fixed trace on the 2-shard
//! `ShardPlane`, at about half the edge region as memory budget.

use crate::checks::{check_digests, check_full_budgets, check_one_outcome_each, reference_replay};
use crate::host::{steal_share, HostClock};
use crate::inputs::{
    block_bytes, budget_bytes, lockstep_trace, rmat_graph, start_pool, Sizes, BURST_ID_BASE,
};
use crate::probe::{Probe, QuerySink, ReadCounts, TimedDevice, TimedSource};
use crate::report::{fmt_list, median, percentile, rss_peak_mib, Outcome, PerRep, MIB};
use noswalker_core::{audit_handoffs, audit_queries, OnDiskGraph, StaticQuerySource};
use noswalker_serve::{QueryOutcome, ServeOptions};
use noswalker_shard::ShardPlane;
use noswalker_storage::{per_shard_devices, Device, SimSsd, SsdProfile};
use std::sync::Arc;
use std::time::Instant;

pub const BUDGET_PCT: u64 = 50;
/// One shard per CPU of the 2-CPU reference host.
pub const SHARDS: usize = 2;

/// What must repeat exactly between replays of the same trace.
#[derive(Debug, PartialEq)]
struct Fingerprint {
    steps: u64,
    rounds: u64,
    outcomes: Vec<(u64, u64, bool, bool)>,
}

fn fingerprint(steps: u64, rounds: u64, outcomes: &[QueryOutcome]) -> Fingerprint {
    let mut o: Vec<_> = outcomes
        .iter()
        .map(|o| (o.id, o.digest, o.shed, o.degraded))
        .collect();
    o.sort_unstable();
    Fingerprint {
        steps,
        rounds,
        outcomes: o,
    }
}

pub fn run(
    sz: &Sizes,
    seed: u64,
    seconds: f64,
    probe: Option<Arc<Probe>>,
) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let opts = ServeOptions::default();
    let (mut setup, mut gen, mut store) = (Vec::new(), Vec::new(), Vec::new());
    let mut built = None;
    for _ in 0..sz.setup_reps {
        drop(built.take());
        let clock = HostClock::start();
        let t0 = Instant::now();
        let csr = rmat_graph(sz.serve_scale, sz.serve_degree);
        let trace = lockstep_trace(sz, &start_pool(&csr), seed);
        let t1 = Instant::now();
        let mut lanes = Vec::new();
        let devices: Vec<Arc<dyn Device>> =
            per_shard_devices(SHARDS, 1, SsdProfile::nvme_p4618(), 64 << 10)
                .into_iter()
                .enumerate()
                .map(|(s, d)| match &probe {
                    Some(p) => {
                        let t = TimedDevice::new(d, p.clone(), s as u32);
                        lanes.push(t.clone());
                        t as Arc<dyn Device>
                    }
                    None => d,
                })
                .collect();
        let plane = ShardPlane::build(
            &csr,
            devices,
            budget_bytes(&csr, BUDGET_PCT),
            block_bytes(&csr),
            opts.clone(),
        )
        .map_err(|e| e.to_string())?;
        let t2 = Instant::now();
        gen.push((t1 - t0).as_secs_f64());
        store.push((t2 - t1).as_secs_f64());
        setup.push(clock.elapsed().free);
        built = Some((csr, trace, plane, lanes));
    }
    let (csr, trace, plane, lanes) = built.ok_or("no set-up repetition ran")?;

    let (mut wall, mut free) = (Vec::new(), Vec::new());
    let (mut steps_per_s, mut served_per_s) = (Vec::new(), Vec::new());
    let mut round_ns: Vec<f64> = Vec::new();
    let mut layer = PerRep::default();
    let mut first: Option<(Fingerprint, Vec<QueryOutcome>)> = None;
    let mut measured = 0.0;
    let mut replay = 0usize;
    while measured < seconds || replay < sz.min_reps {
        replay += 1;
        let mut source = StaticQuerySource::new(trace.clone());
        let before: Vec<ReadCounts> = lanes.iter().map(|l| l.counts()).collect();
        let start = Instant::now();
        let clock = HostClock::start();
        let (r, sink) = match &probe {
            None => (plane.run(&mut source, None), None),
            Some(p) => {
                let mut timed = TimedSource::new(&mut source, p.clone());
                let mut sink = QuerySink::new(p.clone());
                let r = plane.run(&mut timed, Some(&mut sink));
                round_ns.extend(timed.finish().into_iter().map(|n| n as f64));
                p.span(
                    "shard.plane_run",
                    "shard",
                    start,
                    format!("\"replay\":{replay}"),
                );
                (r, Some(sink))
            }
        };
        let r = r.map_err(|e| e.to_string())?;
        let e = clock.elapsed();
        let secs = e.free;
        measured += e.wall;
        let rep = &r.report;
        let served = rep.completed_count();
        let shed = rep.shed_count();
        let missed = rep.deadline_miss_count();
        let steps = rep.metrics.steps;
        wall.push(e.wall);
        free.push(secs);
        steps_per_s.push(steps as f64 / secs);
        served_per_s.push(served as f64 / secs);
        out.attempted += trace.len() as u64;
        out.failed += shed + missed;

        if let Err(e) = check_one_outcome_each(&trace, &rep.outcomes) {
            out.check(false, || format!("replay {replay}: {e}"));
        }
        let queries = audit_queries(&rep.query_stats());
        out.check(queries.is_clean(), || {
            format!("replay {replay}: {queries:?}")
        });
        let handoffs = audit_handoffs(r.walkers_emigrated, r.walkers_immigrated, 0);
        out.check(handoffs.is_clean(), || {
            format!("replay {replay}: {handoffs:?}")
        });
        if let Err(e) = check_full_budgets(&trace, &rep.outcomes) {
            out.check(false, || format!("replay {replay}: {e}"));
        }
        // The trace spaces ordinary arrivals so that only bursts can meet
        // the admission latch; a shed elsewhere means the workload no
        // longer measures what it was built to.
        let stray = rep.outcomes.iter().find(|o| o.shed && o.id < BURST_ID_BASE);
        out.check(stray.is_none(), || {
            format!("replay {replay}: ordinary query shed: {stray:?}")
        });
        let fp = fingerprint(steps, rep.rounds, &rep.outcomes);
        match &first {
            None => first = Some((fp, rep.outcomes.clone())),
            Some((f, _)) => out.check(*f == fp, || {
                format!(
                    "replay {replay} differs from replay 1 (steps {steps}, rounds {})",
                    rep.rounds
                )
            }),
        }

        if let Some(sink) = sink {
            out.check(sink.handoff_walkers == r.walkers_emigrated, || {
                format!(
                    "replay {replay}: {} walkers in ShardHandoff events, {} reported",
                    sink.handoff_walkers, r.walkers_emigrated
                )
            });
            let reads: Vec<ReadCounts> = lanes
                .iter()
                .zip(&before)
                .map(|(l, b)| l.counts().since(b))
                .collect();
            let mut total = ReadCounts::default();
            reads.iter().for_each(|c| total.add(c));
            let max_lane = reads.iter().map(|c| c.bytes).max().unwrap_or(0) as f64;
            let mean_lane = total.bytes as f64 / reads.len().max(1) as f64;
            let m = &rep.metrics;
            let st = steps.max(1) as f64;
            layer.push("storage.read_ops", total.ops as f64);
            layer.push("storage.read_mib", total.bytes as f64 / MIB);
            layer.push("storage.read_bytes_per_step", total.bytes as f64 / st);
            layer.push("storage.read_s", total.wall_ns as f64 / 1e9);
            layer.push("storage.modeled_io_s", total.modeled_ns as f64 / 1e9);
            // `ShardPlane` keeps its per-shard budgets to itself; the merged
            // metrics carry the largest peak any shard reached.
            layer.push("storage.budget_peak_mib", m.peak_memory as f64 / MIB);
            layer.push("core.ns_per_step", secs * 1e9 / st);
            layer.push(
                "core.presample_use_ratio",
                m.presamples_consumed as f64 / m.presamples_filled.max(1) as f64,
            );
            layer.push(
                "core.loads_per_kstep",
                (m.coarse_loads + m.fine_loads) as f64 * 1000.0 / st,
            );
            layer.push(
                "core.stalls_per_step",
                (m.presample_stalls + m.pool_stalls) as f64 / st,
            );
            layer.push("serve.rounds", rep.rounds as f64);
            layer.push(
                "serve.queries_per_round",
                served as f64 / rep.rounds.max(1) as f64,
            );
            layer.push("serve.shed", shed as f64);
            layer.push("shard.walkers_emigrated", sink.handoff_walkers as f64);
            layer.push(
                "shard.handoffs_per_kstep",
                sink.handoff_walkers as f64 * 1000.0 / st,
            );
            layer.push(
                "shard.rounds_per_query",
                rep.rounds as f64 / served.max(1) as f64,
            );
            layer.push(
                "shard.read_imbalance",
                if mean_lane > 0.0 {
                    max_lane / mean_lane
                } else {
                    0.0
                },
            );
        }
    }

    // The same trace on one unsharded `ServeEngine` is the digest reference.
    let (_, run_outcomes) = first.ok_or("no replay ran")?;
    let reference = reference_replay(
        Arc::new(
            OnDiskGraph::store(
                &csr,
                Arc::new(SimSsd::new(SsdProfile::nvme_p4618())),
                block_bytes(&csr),
            )
            .map_err(|e| e.to_string())?,
        ),
        budget_bytes(&csr, BUDGET_PCT),
        &opts,
        &trace,
    )?;
    match check_digests(&run_outcomes, &reference.outcomes) {
        Ok(n) => {
            let served = run_outcomes
                .iter()
                .filter(|o| !o.shed && !o.degraded)
                .count();
            out.check(n == served, || {
                format!("only {n} of {served} served queries compared")
            });
        }
        Err(e) => out.check(false, || format!("one-shard reference: {e}")),
    }

    eprintln!("replay wall (s): {}", fmt_list(&wall));
    eprintln!("replay steal-free (s): {}", fmt_list(&free));
    out.e2e("setup_s", median(&setup));
    out.e2e("steps_per_s", median(&steps_per_s));
    out.e2e("queries_per_s", median(&served_per_s));
    let ms: Vec<f64> = free.iter().map(|s| s * 1e3).collect();
    out.e2e("latency_p50_ms", median(&ms));
    out.e2e("latency_p99_ms", percentile(&ms, 99.0));
    out.e2e("rss_peak_mib", rss_peak_mib());

    if probe.is_some() {
        out.layer("graph.generate_s", median(&gen));
        out.layer("graph.store_s", median(&store));
        layer.medians_as_layers(&mut out);
        out.layer("serve.round_ms_p50", median(&round_ns) / 1e6);
        out.layer("host.steal_share", steal_share(&wall, &free));
    }
    Ok(out)
}
