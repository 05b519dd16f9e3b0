//! Input sizes and the seeded generators for graphs and query traces.

use crate::report::mix;
use noswalker_core::QuerySpec;
use noswalker_graph::generators::{rmat, RmatParams};
use noswalker_graph::{Csr, VertexId};

/// Every size the workloads use; [`Sizes::full`] is what the benchmark
/// runs, [`Sizes::tiny`] what its self-tests run.
#[derive(Debug, Clone)]
pub struct Sizes {
    /// Set-up repetitions per run (`setup_s` is their median).
    pub setup_reps: usize,
    /// Timed repetitions a run makes even when `--seconds` is shorter.
    pub min_reps: usize,
    /// RMAT scale and average degree of the offline graph.
    pub offline_scale: u32,
    pub offline_degree: u32,
    /// DeepWalk walk length (steps per walker).
    pub walk_length: u32,
    /// DeepWalk paths collected per pass and checked edge by edge.
    pub path_sample: usize,
    /// RMAT scale and average degree of both serving graphs.
    pub serve_scale: u32,
    pub serve_degree: u32,
    /// Ordinary queries of the lockstep trace, split over `bursts` segments.
    pub trace_queries: usize,
    /// Bursts in the lockstep trace, and queries per burst.
    pub bursts: usize,
    pub burst_len: usize,
    /// Queries in one measurement window of the realtime run.
    pub window_queries: usize,
    /// Realtime queries a run serves at least, so that p99 has at least
    /// ten samples beyond it.
    pub min_latency_samples: usize,
}

impl Sizes {
    pub fn full() -> Self {
        Sizes {
            setup_reps: 3,
            min_reps: 3,
            offline_scale: 17,
            offline_degree: 16,
            walk_length: 10,
            path_sample: 2000,
            serve_scale: 16,
            serve_degree: 16,
            trace_queries: 150,
            bursts: 3,
            burst_len: 10,
            window_queries: 200,
            min_latency_samples: 1000,
        }
    }

    #[cfg(test)]
    pub fn tiny() -> Self {
        Sizes {
            setup_reps: 2,
            min_reps: 2,
            offline_scale: 10,
            offline_degree: 8,
            walk_length: 6,
            path_sample: 100,
            serve_scale: 10,
            serve_degree: 8,
            trace_queries: 24,
            bursts: 2,
            burst_len: 5,
            window_queries: 20,
            min_latency_samples: 30,
        }
    }
}

/// Seed of every benchmark graph. The graphs do not depend on `--seed`:
/// RMAT graphs of one size differ in walk cost by tens of percent between
/// generator seeds, which would swamp the run-to-run spread, and the burst
/// sheds of `lockstep-sharded` must be the same on every run (see the
/// README). `--seed` picks the walk seeds and the query traces.
pub const GRAPH_SEED: u64 = 0x6e6f_7377;

/// The skewed RMAT graph (Graph500 quadrant weights; many vertices have no
/// out-edge, so walkers meet dead ends).
pub fn rmat_graph(scale: u32, degree: u32) -> Csr {
    rmat(scale, degree, RmatParams::default(), GRAPH_SEED)
}

/// Coarse block size: 32 blocks over the edge region, as the CLI uses.
pub fn block_bytes(csr: &Csr) -> u64 {
    (csr.num_edges() * 4 / 32).max(4096)
}

/// `pct` percent of the edge region, as the CLI sizes budgets.
pub fn budget_bytes(csr: &Csr, pct: u64) -> u64 {
    (csr.edge_region_bytes() * pct / 100).max(64 << 10)
}

/// Ids of burst queries start here; ordinary queries count from 1.
pub const BURST_ID_BASE: u64 = 1_000_000;

/// Modeled spacing of ordinary lockstep arrivals: at least `GAP_MIN_NS`, so
/// two ordinary queries never arrive within one round.
const GAP_MIN_NS: u64 = 20_000_000;
const GAP_JITTER_NS: u64 = 20_000_000;
/// Modeled quiet time before each burst, so the server is idle when the
/// burst starts and the burst's sheds depend only on the burst itself.
const QUIET_NS: u64 = 500_000_000;
/// The query every burst repeats. On the lockstep graph, a round serving
/// one such query alone leaves more than 0.5 pre-sample stalls per step,
/// which latches admission into serial mode for the rest of the burst.
const BURST_CLASS: &str = "ppr:777";
/// Modeled spacing of the arrivals inside a burst.
const BURST_GAP_NS: u64 = 1_000;
/// Generous deadline given to about a quarter of the ordinary queries.
const DEADLINE_NS: u64 = 2_000_000_000;

/// Degree strata of the start vertices.
const STRATA: u64 = 8;

/// Vertices with at least one out-edge, by ascending out-degree (ties by
/// id): the pool query start vertices are drawn from.
pub fn start_pool(csr: &Csr) -> Vec<VertexId> {
    let mut pool: Vec<VertexId> = (0..csr.num_vertices() as VertexId)
        .filter(|&v| csr.degree(v) > 0)
        .collect();
    pool.sort_by_key(|&v| (csr.degree(v), v));
    pool
}

/// The class spec of query `id`. The class cycles with the id; the start
/// vertex comes from degree stratum `id / 4 % STRATA` of `pool`, at a
/// position `r` picks, so every trace starts the same mix of hub and tail
/// walks whatever the seed.
fn class_spec(id: u64, r: u64, pool: &[VertexId]) -> String {
    let per = (pool.len() as u64 / STRATA).max(1);
    let at = (id / 4 % STRATA * per + mix(r, 1) % per).min(pool.len() as u64 - 1);
    let v = pool[at as usize];
    match id % 4 {
        0 => "basic".into(),
        1 => format!("ppr:{v}"),
        2 => format!("rwr:{v}:0.15"),
        _ => format!("deepwalk:{v}"),
    }
}

/// The lockstep trace: `trace_queries` ordinary queries of mixed class
/// (a quarter with generous deadlines), split into segments, each segment
/// followed by a quiet gap and a burst of `burst_len` identical queries
/// 1 µs apart. Classes, sizes and deadlines cycle with the query id; `seed`
/// picks the start vertices and the arrival gaps of the ordinary queries.
pub fn lockstep_trace(sz: &Sizes, pool: &[VertexId], seed: u64) -> Vec<QuerySpec> {
    let mut specs = Vec::new();
    let mut at = 0u64;
    let per_segment = sz.trace_queries.div_ceil(sz.bursts.max(1));
    let mut id = 0u64;
    for b in 0..sz.bursts {
        for _ in 0..per_segment {
            if id as usize == sz.trace_queries {
                break;
            }
            id += 1;
            let r = mix(seed, id);
            at += GAP_MIN_NS + mix(r, 2) % GAP_JITTER_NS;
            specs.push(QuerySpec {
                id,
                class: class_spec(id, r, pool),
                walkers: 20 + id * 7 % 41,
                walk_length: 8 + (id * 5 % 9) as u32,
                deadline_ns: (id / 4).is_multiple_of(4).then_some(at + DEADLINE_NS),
                arrival_ns: at,
            });
        }
        at += QUIET_NS;
        for i in 0..sz.burst_len {
            specs.push(QuerySpec {
                id: BURST_ID_BASE + (b * sz.burst_len + i) as u64,
                class: BURST_CLASS.into(),
                walkers: 100,
                walk_length: 10,
                deadline_ns: None,
                arrival_ns: at + i as u64 * BURST_GAP_NS,
            });
        }
        at += QUIET_NS;
    }
    specs
}

/// The queries of measurement window `window` (from 1) of the closed-loop
/// realtime run: best effort, `window_queries` of them with ids that carry
/// on from the previous window's, classes and sizes cycling with the id as
/// in the lockstep trace, start vertices from `seed` and the window number.
pub fn window_queries(sz: &Sizes, pool: &[VertexId], seed: u64, window: u64) -> Vec<QuerySpec> {
    let base = mix(seed, window.wrapping_add(0x5e55));
    let first = (window - 1) * sz.window_queries as u64 + 1;
    (first..first + sz.window_queries as u64)
        .map(|id| {
            let r = mix(base, id);
            QuerySpec {
                id,
                class: class_spec(id, r, pool),
                walkers: 30 + id * 7 % 31,
                walk_length: 10 + (id * 5 % 11) as u32,
                deadline_ns: None,
                arrival_ns: 0,
            }
        })
        .collect()
}
