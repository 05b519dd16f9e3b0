//! Wall-clock benchmark of the NosWalker crates.
//!
//! `noswalker-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! runs one workload and prints, as its last line, one JSON object with the
//! keys `correct`, `attempted`, `failed` and `metrics`. Untraced runs report
//! the end-to-end metrics; traced runs wrap the program's seams and report
//! the per-layer metrics, writing the spans as Chrome trace-event JSON and
//! the per-layer table under `.bench_out/`. See README.md.

mod checks;
mod host;
mod inputs;
mod lockstep;
mod offline;
mod probe;
mod realtime;
mod report;

use inputs::Sizes;
use probe::Probe;
use report::Outcome;
use std::process::ExitCode;
use std::sync::Arc;

const USAGE: &str =
    "usage: noswalker-perfbench --workload <offline-deepwalk|lockstep-sharded|realtime-closed> \
--seed <n> --seconds <s> --trace <0|1>";

/// Directory, relative to the working directory, that traced runs write to.
const OUT_DIR: &str = ".bench_out";

#[derive(Debug, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("invalid value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad())?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn run_workload(
    name: &str,
    sz: &Sizes,
    seed: u64,
    seconds: f64,
    probe: Option<Arc<Probe>>,
) -> Result<Outcome, String> {
    match name {
        "offline-deepwalk" => offline::run(sz, seed, seconds, probe),
        "lockstep-sharded" => lockstep::run(sz, seed, seconds, probe),
        "realtime-closed" => realtime::run(sz, seed, seconds, probe),
        other => Err(format!("unknown workload {other:?}")),
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let probe = args.trace.then(Probe::new);
    let outcome = match run_workload(
        &args.workload,
        &Sizes::full(),
        args.seed,
        args.seconds,
        probe.clone(),
    ) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    for f in &outcome.check_failures {
        eprintln!("check failed: {f}");
    }
    let table = report::table(&outcome);
    eprintln!(
        "{} seed {} ({} attempted, {} failed):\n{table}",
        args.workload, args.seed, outcome.attempted, outcome.failed
    );
    if let Some(p) = &probe {
        let stem = format!("{OUT_DIR}/{}-seed{}", args.workload, args.seed);
        let written = std::fs::create_dir_all(OUT_DIR)
            .and_then(|()| std::fs::write(format!("{stem}.trace.json"), p.chrome_json()))
            .and_then(|()| std::fs::write(format!("{stem}.layers.txt"), &table));
        match written {
            Ok(()) => eprintln!("trace: {stem}.trace.json, table: {stem}.layers.txt"),
            Err(e) => eprintln!("warning: cannot write {stem}.*: {e}"),
        }
    }
    println!("{}", report::result_line(&outcome, args.trace));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_command_line() {
        let a = args("--workload hit --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(a.workload, "hit");
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, true));
        assert!(args("--workload x --seed 1 --seconds 0 --trace 0").is_err());
        assert!(args("--workload x --seed -1 --seconds 1").is_err());
        assert!(args("--workload x --seed 1 --seconds 1 --trace 2").is_err());
        assert!(args("--seed 1 --seconds 1").is_err());
        assert!(args("--workload").is_err());
    }

    /// Each workload runs end to end at a tiny scale, untraced and traced,
    /// with every check passing and every metric of its set present.
    #[test]
    fn every_workload_runs_end_to_end_at_tiny_scale() {
        let sz = Sizes::tiny();
        for name in ["offline-deepwalk", "lockstep-sharded", "realtime-closed"] {
            for traced in [false, true] {
                let probe = traced.then(Probe::new);
                let o = run_workload(name, &sz, 5, 0.05, probe.clone()).unwrap();
                assert!(
                    o.check_failures.is_empty(),
                    "{name}: {:?}",
                    o.check_failures
                );
                assert!(o.attempted > 0, "{name}");
                for (metric, _) in report::END_TO_END {
                    let v = o.end_to_end.iter().find(|(n, _)| n == metric);
                    assert!(v.is_some_and(|(_, v)| *v > 0.0), "{name}: {metric} = {v:?}");
                }
                if let Some(p) = probe {
                    assert!(!o.layers.is_empty(), "{name}");
                    assert!(p.chrome_json().contains("\"ph\":\"X\""), "{name}");
                }
            }
        }
    }
}
