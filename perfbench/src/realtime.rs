//! `realtime-closed`: an unsharded `RealtimeServer` on the sequential
//! kernel at the CLI's default 12% budget, driven by one closed-loop
//! client that submits a query, waits for its outcome at the egress, then
//! submits the next. One server serves the whole run; the run is measured
//! in windows of a fixed number of queries.

use crate::checks::{check_digests, check_one_outcome_each, reference_replay};
use crate::host::{steal_share, Elapsed, HostClock, ThreadClock};
use crate::inputs::{block_bytes, budget_bytes, rmat_graph, start_pool, window_queries, Sizes};
use crate::probe::{Probe, ReadCounts, TimedDevice};
use crate::report::{fmt_list, median, percentile, rss_peak_mib, Outcome, PerRep, MIB};
use noswalker_core::{audit_queries, OnDiskGraph, QuerySpec};
use noswalker_serve::{
    QueryOutcome, RealtimeHandle, RealtimeOptions, RealtimeServer, ServeOptions,
};
use noswalker_storage::{Device, MemoryBudget, SimSsd, SsdProfile};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub const BUDGET_PCT: u64 = 12;

/// A query whose outcome has not reached the egress after this long is
/// reported as an error rather than waited on forever.
const OUTCOME_TIMEOUT: Duration = Duration::from_secs(30);

/// Name of the realtime server's tick thread.
const TICK_THREAD: &str = "nosw-serve-tick";

/// Timings of one query.
struct Sample {
    /// Submit to outcome seen at the egress, on the wall clock.
    latency_ns: u64,
    /// The tick thread's time on a CPU or queued for one over the same
    /// interval. It leaves out time stolen from the tick thread, and the
    /// client's own delay in seeing the outcome, but takes in the tick
    /// thread's work after publishing it.
    server_busy_ns: u64,
    submit_ns: u64,
}

/// What the traced client sees besides latency.
#[derive(Default)]
struct ClientTrace {
    /// Mean `take_outcomes` call time of each query's wait (one sample per
    /// query, so a spinning client does not grow the buffer per poll).
    poll_ns: Vec<f64>,
    round_ns: Vec<f64>,
}

/// One measurement window of the closed-loop client.
struct Window {
    specs: Vec<QuerySpec>,
    /// Outcomes streamed from the egress while the window ran.
    streamed: Vec<QueryOutcome>,
    samples: Vec<Sample>,
    /// From the window's first submit to its last outcome seen.
    time: Elapsed,
    reads: ReadCounts,
}

/// Serves `specs` closed-loop on the running server: submits one query,
/// waits until its outcome reaches the egress, then submits the next.
fn serve_window(
    handle: &mut RealtimeHandle,
    tick: &ThreadClock,
    specs: Vec<QuerySpec>,
    probe: Option<&Arc<Probe>>,
    ct: &mut ClientTrace,
) -> Result<Window, String> {
    let mut streamed = Vec::with_capacity(specs.len());
    let mut samples = Vec::with_capacity(specs.len());
    let busy = || {
        tick.busy_ns()
            .ok_or("cannot read the tick thread's CPU time")
    };
    let clock = HostClock::start();
    for q in &specs {
        let busy0 = busy()?;
        let t0 = Instant::now();
        handle
            .submit_blocking(q.clone())
            .map_err(|e| e.to_string())?;
        let submit_ns = t0.elapsed().as_nanos() as u64;
        // Rounds seen while waiting: (when the counter moved, its value).
        let mut last_round: Option<(Instant, u64)> = None;
        let (mut polls, mut poll_ns) = (0u64, 0u64);
        loop {
            let tp = Instant::now();
            let fresh = handle.take_outcomes();
            if probe.is_some() {
                polls += 1;
                poll_ns += tp.elapsed().as_nanos() as u64;
                let rounds = handle.snapshot().rounds;
                let now = Instant::now();
                match last_round {
                    Some((at, r)) if rounds == r + 1 => {
                        ct.round_ns.push((now - at).as_nanos() as f64);
                        last_round = Some((now, rounds));
                    }
                    Some((_, r)) if rounds == r => {}
                    _ => last_round = Some((now, rounds)),
                }
            }
            let done = fresh.iter().any(|o| o.id == q.id);
            streamed.extend(fresh);
            if done {
                break;
            }
            if t0.elapsed() > OUTCOME_TIMEOUT {
                return Err(format!(
                    "query {} got no outcome within {OUTCOME_TIMEOUT:?}",
                    q.id
                ));
            }
            std::thread::yield_now();
        }
        let latency_ns = t0.elapsed().as_nanos() as u64;
        let server_busy_ns = busy()?.saturating_sub(busy0);
        if let Some(p) = probe {
            ct.poll_ns.push(poll_ns as f64 / polls.max(1) as f64);
            p.span("client.query", "client", t0, format!("\"query\":{}", q.id));
        }
        samples.push(Sample {
            latency_ns,
            server_busy_ns,
            submit_ns,
        });
    }
    Ok(Window {
        specs,
        streamed,
        samples,
        time: clock.elapsed(),
        reads: ReadCounts::default(),
    })
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
        let server = RealtimeServer::single(
            Arc::clone(&graph),
            Arc::clone(&budget),
            opts.clone(),
            RealtimeOptions::default(),
        );
        gen.push((t1 - t0).as_secs_f64());
        store.push((t2 - t1).as_secs_f64());
        setup.push(clock.elapsed().free);
        built = Some((csr, graph, budget, timed, server));
    }
    let (csr, graph, budget, timed, server) = built.ok_or("no set-up repetition ran")?;
    let pool = start_pool(&csr);

    // One server serves the whole run, so its egress holds every outcome
    // of the run; windows only split the measurement.
    let mut handle = server.start();
    // The thread may not be named yet right after `start`.
    let tick = (0..1000).find_map(|_| {
        ThreadClock::by_name(TICK_THREAD).or_else(|| {
            std::thread::sleep(Duration::from_millis(1));
            None
        })
    });
    let Some(tick) = tick else {
        let _ = handle.shutdown_and_join();
        return Err(format!("no thread named {TICK_THREAD}"));
    };
    let mut ct = ClientTrace::default();
    let mut windows: Vec<Window> = Vec::new();
    let (mut measured, mut queries) = (0.0, 0usize);
    while measured < seconds || queries < sz.min_latency_samples || windows.len() < sz.min_reps {
        let specs = window_queries(sz, &pool, seed, windows.len() as u64 + 1);
        let before = timed.as_ref().map(|t| t.counts()).unwrap_or_default();
        let mut w = match serve_window(&mut handle, &tick, specs, probe.as_ref(), &mut ct) {
            Ok(w) => w,
            Err(e) => {
                let _ = handle.shutdown_and_join();
                return Err(e);
            }
        };
        if let Some(td) = &timed {
            w.reads = td.counts().since(&before);
        }
        measured += w.time.wall;
        queries += w.specs.len();
        windows.push(w);
    }
    let t = handle.drain_and_join().map_err(|e| e.to_string())?;
    let rep = &t.report;

    let specs: Vec<QuerySpec> = windows.iter().flat_map(|w| w.specs.clone()).collect();
    let streamed: Vec<QueryOutcome> = windows.iter().flat_map(|w| w.streamed.clone()).collect();
    out.attempted = specs.len() as u64;
    out.failed = rep.shed_count() + rep.degraded_count();
    for (what, outcomes) in [("streamed", &streamed), ("final report", &rep.outcomes)] {
        if let Err(e) = check_one_outcome_each(&specs, outcomes) {
            out.check(false, || format!("{what}: {e}"));
        }
    }
    out.check(
        streamed.iter().map(|o| o.id).eq(specs.iter().map(|q| q.id)),
        || "outcomes streamed out of submission order".into(),
    );
    let bad = rep.outcomes.iter().find(|o| o.shed || o.degraded);
    out.check(bad.is_none(), || {
        format!("shed or degraded outcome {bad:?}")
    });
    let audit = audit_queries(&rep.query_stats());
    out.check(audit.is_clean(), || format!("{audit:?}"));

    let (mut lat_ms, mut wall_ms, mut server_ms, mut gap_ms, mut submit_us) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut window_wall, mut window_free) = (Vec::new(), Vec::new());
    let (mut steps_per_s, mut served_per_s) = (Vec::new(), Vec::new());
    let mut layer = PerRep::default();
    let mut steps_total = 0u64;
    for (i, w) in windows.iter().enumerate() {
        // Each window's queries replayed lockstep on a fresh engine give
        // the digests to compare and the walker steps the window took.
        let reference = reference_replay(Arc::clone(&graph), budget.limit(), &opts, &w.specs)?;
        match check_digests(&w.streamed, &reference.outcomes) {
            Ok(n) => out.check(n == w.specs.len(), || {
                format!(
                    "window {}: only {n} of {} digests compared",
                    i + 1,
                    w.specs.len()
                )
            }),
            Err(e) => out.check(false, || {
                format!("window {}: lockstep reference: {e}", i + 1)
            }),
        }
        let steps = reference.metrics.steps;
        steps_total += steps;
        let secs = w.time.free;
        window_wall.push(w.time.wall);
        window_free.push(secs);
        steps_per_s.push(steps as f64 / secs);
        let served = w.streamed.iter().filter(|o| !o.shed && !o.degraded).count();
        served_per_s.push(served as f64 / secs);
        for (o, sm) in w.streamed.iter().zip(&w.samples) {
            // Closed loop: the i-th outcome streamed is the i-th query's.
            let server_ns = o.latency_ns.unwrap_or(0);
            // Wall latency, less the time the tick thread was neither on
            // a CPU nor queued for one: the latency without stolen time.
            lat_ms.push(sm.latency_ns.min(sm.server_busy_ns) as f64 / 1e6);
            wall_ms.push(sm.latency_ns as f64 / 1e6);
            server_ms.push(server_ns as f64 / 1e6);
            gap_ms.push(sm.latency_ns.saturating_sub(server_ns) as f64 / 1e6);
            submit_us.push(sm.submit_ns as f64 / 1e3);
        }
        let r = &w.reads;
        layer.push("storage.read_ops", r.ops as f64);
        layer.push("storage.read_mib", r.bytes as f64 / MIB);
        layer.push("storage.read_s", r.wall_ns as f64 / 1e9);
        layer.push("storage.modeled_io_s", r.modeled_ns as f64 / 1e9);
        layer.push("core.ns_per_step", secs * 1e9 / steps.max(1) as f64);
    }
    out.check(steps_total == rep.metrics.steps, || {
        format!(
            "the server took {} steps, its queries replayed lockstep {steps_total}",
            rep.metrics.steps
        )
    });

    eprintln!(
        "latency p50/p99 (ms): wall {:.4}/{:.4}, steal-free {:.4}/{:.4}",
        median(&wall_ms),
        percentile(&wall_ms, 99.0),
        median(&lat_ms),
        percentile(&lat_ms, 99.0)
    );
    eprintln!("window wall (s): {}", fmt_list(&window_wall));
    eprintln!("window steal-free (s): {}", fmt_list(&window_free));
    out.e2e("setup_s", median(&setup));
    out.e2e("steps_per_s", median(&steps_per_s));
    out.e2e("queries_per_s", median(&served_per_s));
    out.e2e("latency_p50_ms", median(&lat_ms));
    out.e2e("latency_p99_ms", percentile(&lat_ms, 99.0));
    out.e2e("rss_peak_mib", rss_peak_mib());

    if probe.is_some() {
        out.layer("graph.generate_s", median(&gen));
        out.layer("graph.store_s", median(&store));
        layer.medians_as_layers(&mut out);
        out.layer("storage.budget_peak_mib", budget.peak() as f64 / MIB);
        out.layer("serve.round_ms_p50", median(&ct.round_ns) / 1e6);
        out.layer("serve.server_latency_ms_p50", median(&server_ms));
        out.layer("serve.ingress_egress_ms_p50", median(&gap_ms));
        out.layer("serve.submit_us_p50", median(&submit_us));
        out.layer("serve.egress_read_us_p50", median(&ct.poll_ns) / 1e3);
        out.layer("host.steal_share", steal_share(&window_wall, &window_free));
    }
    Ok(out)
}
