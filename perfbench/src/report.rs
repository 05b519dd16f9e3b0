//! Metric names, summary statistics and the result line.

/// End-to-end metrics, in `BENCHMARK.json` order: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("steps_per_s", "1/s"),
    ("queries_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("rss_peak_mib", "MiB"),
];

/// Per-layer metrics, in `BENCHMARK.json` order: `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("graph.generate_s", "s"),
    ("graph.store_s", "s"),
    ("storage.read_ops", "count"),
    ("storage.read_mib", "MiB"),
    ("storage.read_bytes_per_step", "B"),
    ("storage.read_s", "s"),
    ("storage.modeled_io_s", "s"),
    ("storage.budget_peak_mib", "MiB"),
    ("core.self_s", "s"),
    ("core.ns_per_step", "ns"),
    ("core.presample_use_ratio", "ratio"),
    ("core.loads_per_kstep", "count"),
    ("core.stalls_per_step", "ratio"),
    ("serve.rounds", "count"),
    ("serve.round_ms_p50", "ms"),
    ("serve.queries_per_round", "ratio"),
    ("serve.shed", "count"),
    ("serve.server_latency_ms_p50", "ms"),
    ("serve.ingress_egress_ms_p50", "ms"),
    ("serve.submit_us_p50", "us"),
    ("serve.egress_read_us_p50", "us"),
    ("shard.walkers_emigrated", "count"),
    ("shard.handoffs_per_kstep", "count"),
    ("shard.rounds_per_query", "ratio"),
    ("shard.read_imbalance", "ratio"),
    ("host.steal_share", "ratio"),
];

pub const MIB: f64 = (1u64 << 20) as f64;

/// Per-repetition values kept by metric name; a run reports the median of
/// each.
#[derive(Debug, Default)]
pub struct PerRep(Vec<(&'static str, Vec<f64>)>);

impl PerRep {
    pub fn push(&mut self, name: &'static str, value: f64) {
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some((_, xs)) => xs.push(value),
            None => self.0.push((name, vec![value])),
        }
    }

    /// Reports the median of every metric as a per-layer value.
    pub fn medians_as_layers(&self, out: &mut Outcome) {
        for (name, xs) in &self.0 {
            out.layer(name, median(xs));
        }
    }
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (walks, or queries offered).
    pub attempted: u64,
    /// Operations that failed (shed or unfinished).
    pub failed: u64,
    /// Output-check failures; empty when every check passed.
    pub check_failures: Vec<String>,
    /// End-to-end values by name (untraced meaning; measured in every run).
    pub end_to_end: Vec<(&'static str, f64)>,
    /// Per-layer values by name; only filled in a traced run.
    pub layers: Vec<(&'static str, f64)>,
}

impl Outcome {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok && self.check_failures.len() < 20 {
            self.check_failures.push(what());
        }
    }

    pub fn e2e(&mut self, name: &'static str, value: f64) {
        self.end_to_end.push((name, value));
    }

    pub fn layer(&mut self, name: &'static str, value: f64) {
        self.layers.push((name, value));
    }
}

/// Renders `table` as the JSON `metrics` object, taking each value from
/// `values` and reading a layer that has no value on this workload as 0.
pub fn metrics_json(table: &[(&str, &str)], values: &[(&'static str, f64)]) -> String {
    let members: Vec<String> = table
        .iter()
        .map(|(name, unit)| {
            let v = values
                .iter()
                .find(|(n, _)| n == name)
                .map_or(0.0, |(_, v)| *v);
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                num(v)
            )
        })
        .collect();
    format!("{{{}}}", members.join(", "))
}

/// A finite JSON number with every digit Rust keeps.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}

/// The result line the benchmark prints last.
pub fn result_line(o: &Outcome, traced: bool) -> String {
    let metrics = if traced {
        metrics_json(PER_LAYER, &o.layers)
    } else {
        metrics_json(END_TO_END, &o.end_to_end)
    };
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        o.check_failures.is_empty(),
        o.attempted,
        o.failed
    )
}

/// A human table of every value the run measured.
pub fn table(o: &Outcome) -> String {
    let mut out = String::new();
    for (set, values) in [(END_TO_END, &o.end_to_end), (PER_LAYER, &o.layers)] {
        for (name, unit) in set {
            if let Some((_, v)) = values.iter().find(|(n, _)| n == name) {
                out.push_str(&format!("  {name:<30} {v:>16.4} {unit}\n"));
            }
        }
    }
    out
}

/// `xs` as a short human list.
pub fn fmt_list(xs: &[f64]) -> String {
    xs.iter()
        .map(|x| format!("{x:.4}"))
        .collect::<Vec<_>>()
        .join(" ")
}

/// Median of `xs` (mean of the middle two for an even count); 0 if empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0..=100) of `xs`; 0 if empty.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn rss_peak_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// splitmix64: derives independent per-repetition seeds from one seed.
pub fn mix(seed: u64, k: u64) -> u64 {
    let mut z = seed
        .wrapping_add(k.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 99.0), 99.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn per_rep_values_are_kept_by_name() {
        let mut r = PerRep::default();
        for (a, b) in [(1.0, 10.0), (3.0, 30.0), (2.0, 20.0)] {
            r.push("a", a);
            r.push("b", b);
        }
        let mut o = Outcome::default();
        r.medians_as_layers(&mut o);
        assert_eq!(o.layers, vec![("a", 2.0), ("b", 20.0)]);
    }

    #[test]
    fn result_line_lists_every_metric_of_its_set() {
        let mut o = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        o.e2e("setup_s", 0.5);
        let line = result_line(&o, false);
        for (name, unit) in END_TO_END {
            assert!(line.contains(&format!("\"{name}\": {{\"value\"")), "{line}");
            assert!(line.contains(&format!("\"unit\": \"{unit}\"")), "{line}");
        }
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        o.check(false, || "broken".into());
        assert!(result_line(&o, true).starts_with("{\"correct\": false"));
    }

    #[test]
    fn metric_tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let names = text.matches("\"name\":").count();
        assert_eq!(names, 3 + END_TO_END.len() + PER_LAYER.len());
    }
}
