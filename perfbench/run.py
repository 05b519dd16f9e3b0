#!/usr/bin/env python3
"""Builds and runs the NosWalker wall-clock benchmark.

One run (the form BENCHMARK.json's command takes):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

builds the benchmark from source (release, offline) and runs one workload;
the last line of standard output is the JSON result.

Every workload, untraced and traced, with every metric by name and unit:

    python3 perfbench/run.py all [--seed <n>] [--seconds <s>]

Steadiness: N untraced runs of each workload, one seed each, with the
median and quartiles of every end-to-end metric, saved for comparison:

    python3 perfbench/run.py steady --runs 10 --out a.json [--seconds <s>]
        [--first-seed <n>] [--workloads w1,w2]
    python3 perfbench/run.py compare a.json b.json

`compare` passes when, for every end-to-end metric of every workload, both
sets' spreads (distance between the quartiles as a share of the median)
and the move of the median between the sets, either way, are within the
metric's bound, and the failed share is the same in every run of both.

Run from the repository root. The build goes to $CARGO_TARGET_DIR, or
perfbench/target when that is unset.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BIN_NAME = "noswalker-perfbench"
# One run must end within this many seconds, build excluded.
RUN_TIMEOUT_S = 170


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Builds the benchmark; returns the binary path or None on failure."""
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    try:
        # Cargo's output goes to stderr so the result line stays last on stdout.
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    except OSError as e:
        print(f"error: cannot run cargo: {e}", file=sys.stderr)
        return None
    if r.returncode != 0:
        print("error: benchmark build failed", file=sys.stderr)
        return None
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    return os.path.join(os.path.abspath(target), "release", BIN_NAME)


def run_once(binary, workload, seed, seconds, trace, capture):
    """Runs one workload; returns (exit code, stdout text or None)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    try:
        r = subprocess.run(cmd, cwd=os.getcwd(), timeout=RUN_TIMEOUT_S,
                           stdout=subprocess.PIPE if capture else None)
    except subprocess.TimeoutExpired:
        print(f"error: {workload} did not finish within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1, None
    return r.returncode, (r.stdout.decode() if capture else None)


def result_of(text):
    lines = [l for l in (text or "").splitlines() if l.strip()]
    return json.loads(lines[-1]) if lines else None


def cmd_all(binary, args):
    spec = load_spec()
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    status = 0
    for w in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            code, out = run_once(binary, w, args.seed, args.seconds, trace, True)
            res = result_of(out) if code == 0 else None
            if res is None:
                print(f"{w} (trace {trace}): failed with exit code {code}")
                status = 1
                continue
            print(f"{w} (trace {trace}): correct={res['correct']} "
                  f"attempted={res['attempted']} failed={res['failed']}")
            for name, m in res["metrics"].items():
                print(f"  {name:<30} {m['value']:>18.4f} {units.get(name, m['unit'])}")
            status |= 0 if res["correct"] else 1
    return status


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def cmd_steady(binary, args):
    spec = load_spec()
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = args.seconds or spec["run_seconds"]
    runs = {}
    for w in workloads:
        runs[w] = []
        for i in range(args.runs):
            seed = args.first_seed + i
            code, out = run_once(binary, w, seed, seconds, 0, True)
            res = result_of(out) if code == 0 else None
            if res is None or not res["correct"]:
                print(f"{w} seed {seed}: run failed (exit {code})", file=sys.stderr)
                return 1
            runs[w].append(res)
            print(f"{w} seed {seed}: " + " ".join(
                f"{k}={v['value']:.4g}" for k, v in res["metrics"].items()), file=sys.stderr)
        print(f"\n{w}: {args.runs} runs, failed share "
              f"{sorted({r['failed'] / r['attempted'] for r in runs[w]})}")
        for name in bounds:
            vals = [r["metrics"][name]["value"] for r in runs[w]]
            q1, med, q3 = quartiles(vals)
            spread = (q3 - q1) / med if med else float("inf")
            print(f"  {name:<16} median {med:<14.6g} q1 {q1:<14.6g} q3 {q3:<14.6g} "
                  f"spread {spread:.4f} (bound {bounds[name]})")
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"seconds": seconds, "runs": runs}, f)
        print(f"\nsaved {args.out}")
    return 0


def cmd_compare(args):
    spec = load_spec()
    with open(args.first) as f:
        a = json.load(f)["runs"]
    with open(args.second) as f:
        b = json.load(f)["runs"]
    ok = True
    for w in sorted(set(a) & set(b)):
        share = lambda runs: sorted({r["failed"] / r["attempted"] for r in runs})
        same = share(a[w]) == share(b[w]) and len(share(a[w])) == 1
        ok &= same
        print(f"{w}: failed share {share(a[w])} vs {share(b[w])}: {'ok' if same else 'DIFFERS'}")
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            va = [r["metrics"][name]["value"] for r in a[w]]
            vb = [r["metrics"][name]["value"] for r in b[w]]
            qa, qb = quartiles(va), quartiles(vb)
            sa = (qa[2] - qa[0]) / qa[1]
            sb = (qb[2] - qb[0]) / qb[1]
            change = (qb[1] - qa[1]) / qa[1]
            # Two sets of one commit must agree both ways, so a move of the
            # median counts whichever direction it takes.
            verdict = sa <= bound and sb <= bound and abs(change) <= bound
            ok &= verdict
            print(f"  {name:<16} spread {sa:.4f} / {sb:.4f}, median change {change:+.4f} "
                  f"(bound {bound}): {'ok' if verdict else 'FAIL'}")
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


def main():
    argv = sys.argv[1:]
    if argv[:1] == ["compare"]:
        p = argparse.ArgumentParser(prog="run.py compare")
        p.add_argument("first")
        p.add_argument("second")
        return cmd_compare(p.parse_args(argv[1:]))
    if argv[:1] in (["all"], ["steady"]):
        p = argparse.ArgumentParser(prog=f"run.py {argv[0]}")
        p.add_argument("--seed", type=int, default=1)
        p.add_argument("--seconds", type=float, default=None)
        p.add_argument("--runs", type=int, default=10)
        p.add_argument("--first-seed", type=int, default=1)
        p.add_argument("--workloads", default=None)
        p.add_argument("--out", default=None)
        args = p.parse_args(argv[1:])
        binary = build()
        if binary is None:
            return 1
        if argv[0] == "all":
            args.seconds = args.seconds or load_spec()["run_seconds"]
            return cmd_all(binary, args)
        return cmd_steady(binary, args)
    p = argparse.ArgumentParser(prog="run.py")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    binary = build()
    if binary is None:
        return 1
    code, _ = run_once(binary, args.workload, args.seed, args.seconds, args.trace, False)
    return code


if __name__ == "__main__":
    sys.exit(main())
