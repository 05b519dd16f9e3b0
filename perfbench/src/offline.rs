//! `offline-deepwalk`: repeated DeepWalk passes on the sequential
//! `NosWalkerEngine` over an RMAT graph stored on the simulated NVMe
//! device, at about 12% of the edge region as memory budget.

use crate::checks::{check_paths, check_step_total, deepwalk_step_moments};
use crate::host::{steal_share, HostClock};
use crate::inputs::{block_bytes, budget_bytes, rmat_graph, Sizes};
use crate::probe::{Probe, ReadCounts, TimedDevice};
use crate::report::{fmt_list, median, mix, percentile, rss_peak_mib, Outcome, PerRep, MIB};
use noswalker_apps::DeepWalk;
use noswalker_core::{EngineOptions, NosWalkerEngine, OnDiskGraph, RunAudit};
use noswalker_storage::{Device, MemoryBudget, SimSsd, SsdProfile};
use std::sync::Arc;
use std::time::Instant;

pub const BUDGET_PCT: u64 = 12;

pub fn run(
    sz: &Sizes,
    seed: u64,
    seconds: f64,
    probe: Option<Arc<Probe>>,
) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (mut setup, mut gen, mut store) = (Vec::new(), Vec::new(), Vec::new());
    let mut built = None;
    for _ in 0..sz.setup_reps {
        drop(built.take()); // free the previous copy before building the next
        let clock = HostClock::start();
        let t0 = Instant::now();
        let csr = rmat_graph(sz.offline_scale, sz.offline_degree);
        let t1 = Instant::now();
        let sim: Arc<dyn Device> = Arc::new(SimSsd::new(SsdProfile::nvme_p4618()));
        let timed = probe
            .as_ref()
            .map(|p| TimedDevice::new(sim.clone(), p.clone(), 0));
        let device = timed.clone().map_or(sim, |t| t as Arc<dyn Device>);
        let graph = Arc::new(
            OnDiskGraph::store(&csr, device, block_bytes(&csr)).map_err(|e| e.to_string())?,
        );
        let budget = MemoryBudget::new(budget_bytes(&csr, BUDGET_PCT));
        let t2 = Instant::now();
        gen.push((t1 - t0).as_secs_f64());
        store.push((t2 - t1).as_secs_f64());
        setup.push(clock.elapsed().free);
        built = Some((csr, graph, budget, timed));
    }
    let (csr, graph, budget, timed) = built.ok_or("no set-up repetition ran")?;
    let n = csr.num_vertices();
    let (mean, var) = deepwalk_step_moments(&csr, sz.walk_length);

    let (mut wall, mut free) = (Vec::new(), Vec::new());
    let (mut steps_per_s, mut walks_per_s) = (Vec::new(), Vec::new());
    let mut layer = PerRep::default();
    let mut measured = 0.0;
    let mut pass = 0u64;
    while measured < seconds || (pass as usize) < sz.min_reps {
        pass += 1;
        let app = Arc::new(DeepWalk::new(n, 1, sz.walk_length, sz.path_sample));
        let engine = NosWalkerEngine::new(
            Arc::clone(&app),
            Arc::clone(&graph),
            EngineOptions::default(),
            Arc::clone(&budget),
        );
        let audit = RunAudit::begin(n as u64, &budget);
        let before = timed.as_ref().map(|t| t.counts()).unwrap_or_default();
        let start = Instant::now();
        let clock = HostClock::start();
        let m = engine.run(mix(seed, pass)).map_err(|e| e.to_string())?;
        let e = clock.elapsed();
        let secs = e.free;
        if let Some(p) = &probe {
            p.span(
                "core.engine_run",
                "core",
                start,
                format!("\"pass\":{pass},\"steps\":{}", m.steps),
            );
        }
        measured += e.wall;
        wall.push(e.wall);
        free.push(secs);
        steps_per_s.push(m.steps as f64 / secs);
        walks_per_s.push(m.walkers_finished as f64 / secs);
        out.attempted += n as u64;
        out.failed += (n as u64).saturating_sub(m.walkers_finished);

        let report = audit.verify(&m, &budget);
        out.check(report.is_clean(), || {
            format!("pass {pass}: audit {report:?}")
        });
        out.check(m.walkers_finished == n as u64, || {
            format!(
                "pass {pass}: {} of {n} walkers finished",
                m.walkers_finished
            )
        });
        if let Err(e) = check_step_total(m.steps, mean, var) {
            out.check(false, || format!("pass {pass}: {e}"));
        }
        let paths = app.take_corpus();
        out.check(paths.len() == sz.path_sample.min(n), || {
            format!("pass {pass}: collected {} paths", paths.len())
        });
        if let Err(e) = check_paths(&csr, &paths, sz.walk_length) {
            out.check(false, || format!("pass {pass}: {e}"));
        }

        if let Some(t) = &timed {
            let r: ReadCounts = t.counts().since(&before);
            let steps = m.steps.max(1) as f64;
            let stalls = (m.presample_stalls + m.pool_stalls) as f64;
            layer.push("storage.read_ops", r.ops as f64);
            layer.push("storage.read_mib", r.bytes as f64 / MIB);
            layer.push("storage.read_bytes_per_step", r.bytes as f64 / steps);
            layer.push("storage.read_s", r.wall_ns as f64 / 1e9);
            layer.push("storage.modeled_io_s", r.modeled_ns as f64 / 1e9);
            layer.push("core.self_s", secs - r.wall_ns as f64 / 1e9);
            layer.push(
                "core.presample_use_ratio",
                m.presamples_consumed as f64 / m.presamples_filled.max(1) as f64,
            );
            layer.push(
                "core.loads_per_kstep",
                (m.coarse_loads + m.fine_loads) as f64 * 1000.0 / steps,
            );
            layer.push("core.stalls_per_step", stalls / steps);
            layer.push("core.ns_per_step", secs * 1e9 / steps);
        }
    }

    eprintln!("pass wall (s): {}", fmt_list(&wall));
    eprintln!("pass steal-free (s): {}", fmt_list(&free));
    out.e2e("setup_s", median(&setup));
    out.e2e("steps_per_s", median(&steps_per_s));
    out.e2e("queries_per_s", median(&walks_per_s));
    let ms: Vec<f64> = free.iter().map(|s| s * 1e3).collect();
    out.e2e("latency_p50_ms", median(&ms));
    out.e2e("latency_p99_ms", percentile(&ms, 99.0));
    out.e2e("rss_peak_mib", rss_peak_mib());

    if probe.is_some() {
        out.layer("graph.generate_s", median(&gen));
        out.layer("graph.store_s", median(&store));
        layer.medians_as_layers(&mut out);
        out.layer("storage.budget_peak_mib", budget.peak() as f64 / MIB);
        out.layer("host.steal_share", steal_share(&wall, &free));
    }
    Ok(out)
}
