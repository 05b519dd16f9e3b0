//! Output checks. Each compares a result against a computation made apart
//! from the program, or against a property the method must have; none
//! compares against stored output. They run outside the timed phases.

use noswalker_core::{OnDiskGraph, QuerySpec, StaticQuerySource};
use noswalker_graph::{Csr, VertexId};
use noswalker_serve::{AdmissionOptions, QueryOutcome, ServeEngine, ServeOptions, ServeReport};
use noswalker_storage::MemoryBudget;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Mean and variance of the total steps of one DeepWalk pass (one walker
/// per vertex, at most `length` steps, a walker stops at a vertex with no
/// out-edge), by a dynamic program over the CSR on the first two moments
/// of the steps left from each vertex.
pub fn deepwalk_step_moments(csr: &Csr, length: u32) -> (f64, f64) {
    let n = csr.num_vertices();
    let mut m1 = vec![0.0f64; n];
    let mut m2 = vec![0.0f64; n];
    for _ in 0..length {
        let mut n1 = vec![0.0f64; n];
        let mut n2 = vec![0.0f64; n];
        for v in 0..n {
            let nb = csr.neighbors(v as VertexId);
            if nb.is_empty() {
                continue;
            }
            let (mut s1, mut s2) = (0.0, 0.0);
            for &u in nb {
                let (a, b) = (m1[u as usize], m2[u as usize]);
                s1 += 1.0 + a;
                s2 += 1.0 + 2.0 * a + b;
            }
            n1[v] = s1 / nb.len() as f64;
            n2[v] = s2 / nb.len() as f64;
        }
        m1 = n1;
        m2 = n2;
    }
    let mean: f64 = m1.iter().sum();
    let var: f64 = m1.iter().zip(&m2).map(|(a, b)| b - a * a).sum();
    (mean, var.max(0.0))
}

/// Walkers are independent, so a pass's total lies within six standard
/// deviations of the mean except with negligible probability.
pub const STEP_TOLERANCE_SIGMAS: f64 = 6.0;

pub fn check_step_total(steps: u64, mean: f64, var: f64) -> Result<(), String> {
    let tol = STEP_TOLERANCE_SIGMAS * var.sqrt() + 1.0;
    if (steps as f64 - mean).abs() <= tol {
        Ok(())
    } else {
        Err(format!(
            "{steps} steps, expected {mean:.1} ± {tol:.1} ({STEP_TOLERANCE_SIGMAS} sigma)"
        ))
    }
}

/// `specs` replayed lockstep on one unsharded `ServeEngine` whose admission
/// never sheds: the digest reference of both serving workloads.
pub fn reference_replay(
    graph: Arc<OnDiskGraph>,
    budget_bytes: u64,
    opts: &ServeOptions,
    specs: &[QuerySpec],
) -> Result<ServeReport, String> {
    ServeEngine::new(
        graph,
        MemoryBudget::new(budget_bytes),
        ServeOptions {
            admission: AdmissionOptions {
                max_pending: usize::MAX,
                shed_stall_rate: f64::INFINITY,
                ..AdmissionOptions::default()
            },
            ..opts.clone()
        },
    )
    .run(&mut StaticQuerySource::new(specs.to_vec()), None)
    .map_err(|e| e.to_string())
}

/// Every collected DeepWalk path follows CSR edges, and is either full
/// length or ends at a vertex with no out-edge.
pub fn check_paths(csr: &Csr, paths: &[Vec<VertexId>], length: u32) -> Result<(), String> {
    let nv = csr.num_vertices() as u64;
    for (i, p) in paths.iter().enumerate() {
        let Some(&last) = p.last() else {
            return Err(format!("path {i} is empty"));
        };
        if p.iter().any(|&v| v as u64 >= nv) {
            return Err(format!("path {i} leaves the vertex range"));
        }
        if p.len() > length as usize + 1 {
            return Err(format!(
                "path {i} has {} vertices, more than {}",
                p.len(),
                length + 1
            ));
        }
        if let Some(w) = p.windows(2).find(|w| !csr.has_edge(w[0], w[1])) {
            return Err(format!(
                "path {i} steps {} -> {}, which is no edge",
                w[0], w[1]
            ));
        }
        if p.len() <= length as usize && csr.degree(last) > 0 {
            return Err(format!(
                "path {i} stops after {} steps at vertex {last}, which has out-edges",
                p.len() - 1
            ));
        }
    }
    Ok(())
}

/// Every offered query has exactly one outcome, and no outcome belongs to
/// a query that was not offered.
pub fn check_one_outcome_each(
    offered: &[QuerySpec],
    outcomes: &[QueryOutcome],
) -> Result<(), String> {
    let mut seen: BTreeMap<u64, u32> = offered.iter().map(|q| (q.id, 0)).collect();
    for o in outcomes {
        match seen.get_mut(&o.id) {
            Some(c) => *c += 1,
            None => return Err(format!("outcome for query {} that was never offered", o.id)),
        }
    }
    match seen.iter().find(|(_, &c)| c != 1) {
        Some((id, c)) => Err(format!("query {id} has {c} outcomes")),
        None => Ok(()),
    }
}

/// Every undegraded best-effort query completed its whole walker budget.
pub fn check_full_budgets(offered: &[QuerySpec], outcomes: &[QueryOutcome]) -> Result<(), String> {
    let walkers: BTreeMap<u64, (u64, bool)> = offered
        .iter()
        .map(|q| (q.id, (q.walkers, q.deadline_ns.is_none())))
        .collect();
    for o in outcomes.iter().filter(|o| !o.shed && !o.degraded) {
        let Some(&(budget, best_effort)) = walkers.get(&o.id) else {
            return Err(format!("outcome for query {} that was never offered", o.id));
        };
        if best_effort && (o.stats.completed != budget || o.stats.cancelled != 0) {
            return Err(format!(
                "query {} completed {} of {budget} walkers ({} cancelled) yet is not degraded",
                o.id, o.stats.completed, o.stats.cancelled
            ));
        }
    }
    Ok(())
}

/// Per-query digests agree with a reference run for every query both runs
/// served undegraded; returns how many were compared.
pub fn check_digests(run: &[QueryOutcome], reference: &[QueryOutcome]) -> Result<usize, String> {
    let served = |o: &&QueryOutcome| !o.shed && !o.degraded;
    let refs: BTreeMap<u64, u64> = reference
        .iter()
        .filter(served)
        .map(|o| (o.id, o.digest))
        .collect();
    let mut compared = 0;
    for o in run.iter().filter(served) {
        if let Some(&d) = refs.get(&o.id) {
            if d != o.digest {
                return Err(format!(
                    "query {} digest {:#x} differs from the reference {d:#x}",
                    o.id, o.digest
                ));
            }
            compared += 1;
        }
    }
    Ok(compared)
}

#[cfg(test)]
mod tests {
    use super::*;
    use noswalker_core::QueryStats;
    use noswalker_graph::CsrBuilder;

    fn outcome(id: u64, walkers: u64, digest: u64) -> QueryOutcome {
        QueryOutcome {
            id,
            class: "basic".into(),
            stats: QueryStats {
                id,
                budget: walkers,
                issued: walkers,
                completed: walkers,
                cancelled: 0,
            },
            latency_ns: Some(1),
            degraded: false,
            deadline_missed: false,
            shed: false,
            retry_after_ns: None,
            digest,
        }
    }

    fn spec(id: u64, walkers: u64) -> QuerySpec {
        QuerySpec {
            id,
            class: "basic".into(),
            walkers,
            walk_length: 4,
            deadline_ns: None,
            arrival_ns: 0,
        }
    }

    #[test]
    fn step_moments_match_a_hand_computed_chain() {
        // 0 -> 1 -> 2, vertex 2 is a dead end; 3 -> {0, 2}.
        let csr = CsrBuilder::new(4)
            .edge(0, 1)
            .edge(1, 2)
            .edge(3, 0)
            .edge(3, 2)
            .build();
        // Length 3: from 0 two steps, from 1 one, from 2 none, from 3
        // 1 + (2 or 0) = 3 or 1 with equal odds.
        let (mean, var) = deepwalk_step_moments(&csr, 3);
        assert!((mean - (2.0 + 1.0 + 0.0 + 2.0)).abs() < 1e-9, "{mean}");
        assert!((var - 1.0).abs() < 1e-9, "{var}");
    }

    #[test]
    fn step_total_outside_the_tolerance_is_rejected() {
        assert!(check_step_total(1000, 1000.0, 100.0).is_ok());
        assert!(check_step_total(1060, 1000.0, 100.0).is_ok());
        assert!(check_step_total(1062, 1000.0, 100.0).is_err());
        assert!(check_step_total(900, 1000.0, 100.0).is_err());
    }

    #[test]
    fn path_with_a_non_edge_is_rejected() {
        let csr = CsrBuilder::new(4).edge(0, 1).edge(1, 2).edge(2, 0).build();
        assert!(check_paths(&csr, &[vec![0, 1, 2, 0]], 3).is_ok());
        // Vertex 3 has no out-edge, so a walk may stop there.
        let dead = CsrBuilder::new(4).edge(0, 3).build();
        assert!(check_paths(&dead, &[vec![0, 3]], 3).is_ok());
        let err = check_paths(&csr, &[vec![0, 1, 2, 0], vec![0, 2, 0, 1]], 3).unwrap_err();
        assert!(err.contains("no edge"), "{err}");
        assert!(
            check_paths(&csr, &[vec![0, 1]], 3).is_err(),
            "stopped early"
        );
        assert!(
            check_paths(&csr, &[vec![0, 1, 2, 0, 1]], 3).is_err(),
            "too long"
        );
    }

    #[test]
    fn dropped_or_doubled_outcome_is_rejected() {
        let offered = vec![spec(1, 4), spec(2, 4)];
        let both = vec![outcome(1, 4, 7), outcome(2, 4, 8)];
        assert!(check_one_outcome_each(&offered, &both).is_ok());
        let err = check_one_outcome_each(&offered, &both[..1]).unwrap_err();
        assert!(err.contains("query 2 has 0 outcomes"), "{err}");
        let doubled = vec![outcome(1, 4, 7), outcome(2, 4, 8), outcome(2, 4, 8)];
        assert!(check_one_outcome_each(&offered, &doubled).is_err());
        assert!(check_one_outcome_each(&offered[..1], &both).is_err());
    }

    #[test]
    fn flipped_digest_is_rejected() {
        let run = vec![outcome(1, 4, 7), outcome(2, 4, 8)];
        assert_eq!(check_digests(&run, &run), Ok(2));
        let mut flipped = run.clone();
        flipped[1].digest ^= 1;
        let err = check_digests(&flipped, &run).unwrap_err();
        assert!(err.contains("query 2 digest"), "{err}");
        // Degraded or shed queries are not compared.
        flipped[1].degraded = true;
        assert_eq!(check_digests(&flipped, &run), Ok(1));
    }

    #[test]
    fn undegraded_query_short_of_its_budget_is_rejected() {
        let offered = vec![spec(1, 4)];
        assert!(check_full_budgets(&offered, &[outcome(1, 4, 0)]).is_ok());
        let mut short = outcome(1, 4, 0);
        short.stats.completed = 3;
        assert!(check_full_budgets(&offered, &[short]).is_err());
    }
}
