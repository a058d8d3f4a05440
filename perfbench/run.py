#!/usr/bin/env python3
"""Native benchmark runner: builds stsbench from source, then runs it.

Run one workload (the last stdout line is the JSON result):
    python3 perfbench/run.py --workload lanczos-fem --seed 1 --seconds 45 --trace 0

Other modes, all from the repository root:
    python3 perfbench/run.py steady --workload lobpcg-nuclear --runs 10 [--seconds 45]
        N runs on seeds base..base+N-1; per metric: median, quartiles,
        min/max and the quartile spread as a share of the median, next to
        the bound BENCHMARK.json records.
    python3 perfbench/run.py smoke
        Every workload at a tiny size, untraced and traced; checks that each
        result line reports exactly the metrics BENCHMARK.json declares for
        its mode, in their units.
    python3 perfbench/run.py overhead --workload lanczos-fem [--seed 1]
        One untraced and one traced run on the same seed; prints the
        traced-minus-untraced difference of every end-to-end metric.

The build lives in .bench_build/perfbench; spans of traced runs go to
.bench_build/spans-<workload>-<seed>.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORK_DIR = ".bench_build"
BUILD_DIR = ROOT / WORK_DIR / "perfbench"
BINARY = BUILD_DIR / "stsbench"
RUN_TIMEOUT_S = 175


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds stsbench; build output goes to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD_DIR)])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            log(f"run.py: build step failed: {' '.join(cmd)}")
            sys.exit(1)


def bench_cmd(workload, seed, seconds, trace, smoke=False):
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--work-dir", WORK_DIR]
    return cmd + (["--smoke"] if smoke else [])


def run_captured(cmd):
    """Runs stsbench, echoing its output; returns (exit code, result dict)."""
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=sys.stderr, text=True, timeout=RUN_TIMEOUT_S)
    sys.stderr.write(done.stdout)
    lines = done.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return done.returncode, result


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def mode_run(args):
    build()
    cmd = bench_cmd(args.workload, args.seed, args.seconds, args.trace)
    try:
        done = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("run.py: stsbench timed out")
        return 1
    return done.returncode


def mode_steady(args):
    build()
    spec = load_spec()
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    values = {}
    failed_runs = 0
    for i in range(args.runs):
        seed = args.seed_base + i
        code, result = run_captured(
            bench_cmd(args.workload, seed, args.seconds, args.trace))
        if code != 0 or result is None or not result.get("correct"):
            failed_runs += 1
            log(f"run.py: seed {seed} failed (exit {code})")
            continue
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    print(f"{args.workload}: {args.runs} runs, {failed_runs} failed, "
          f"{args.seconds} s each, seeds {args.seed_base}.."
          f"{args.seed_base + args.runs - 1}")
    print(f"{'metric':34} {'median':>12} {'q1':>12} {'q3':>12} {'min':>12} "
          f"{'max':>12} {'spread':>8} {'bound':>6}")
    for name, vals in values.items():
        med = statistics.median(vals)
        if len(vals) >= 2:
            q1, _, q3 = statistics.quantiles(vals, n=4)
        else:
            q1 = q3 = vals[0]
        spread = (q3 - q1) / med if med else float("inf")
        bound = bounds.get(name)
        flag = ""
        if bound is not None and name != "setup_s":
            flag = "ok" if spread < bound / 3 else (
                "WIDE" if spread > bound else "near")
        print(f"{name:34} {med:12.6g} {q1:12.6g} {q3:12.6g} {min(vals):12.6g} "
              f"{max(vals):12.6g} {spread:8.3f} {str(bound or '-'):>6} {flag}")
    return 1 if failed_runs else 0


def smoke_failures(seconds=1.0):
    """Runs every workload at smoke size, untraced and traced; returns one
    message per run whose result line breaks BENCHMARK.json's contract."""
    build()
    spec = load_spec()
    declared = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    failures = []
    for w in spec["workloads"]:
        for trace in (0, 1):
            code, result = run_captured(
                bench_cmd(w["name"], 1, seconds, trace, smoke=True))
            where = f"{w['name']} trace={trace}"
            if code != 0 or result is None:
                failures.append(f"{where}: exit {code}, no result")
                continue
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                failures.append(f"{where}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] != 0 \
                    or result["attempted"] < 1:
                failures.append(f"{where}: failed operations")
            for name, m in result["metrics"].items():
                if declared[trace].get(name) != m["unit"]:
                    failures.append(f"{where}: undeclared {name} [{m['unit']}]")
                if trace == 0 and not m["value"] > 0:
                    failures.append(f"{where}: {name} is {m['value']}")
            for name in sorted(set(declared[trace]) - set(result["metrics"])):
                failures.append(f"{where}: does not report {name}")
    return failures


def mode_smoke(args):
    failures = smoke_failures(args.seconds)
    for f in failures:
        print(f"smoke: {f}")
    print(f"smoke: {'FAILED' if failures else 'ok'}")
    return 1 if failures else 0


def mode_overhead(args):
    build()
    _, plain = run_captured(
        bench_cmd(args.workload, args.seed, args.seconds, 0))
    code, _ = run_captured(
        bench_cmd(args.workload, args.seed, args.seconds, 1))
    spans = ROOT / WORK_DIR / f"spans-{args.workload}-{args.seed}.json"
    if plain is None or code != 0 or not spans.exists():
        log("run.py: a run failed")
        return 1
    traced = json.loads(spans.read_text())["e2e"]
    print(f"{'metric':24} {'untraced':>12} {'traced':>12} {'diff':>10}")
    for name, m in plain["metrics"].items():
        t = traced.get(name)
        if t is None:
            continue
        print(f"{name:24} {m['value']:12.6g} {t:12.6g} "
              f"{(t - m['value']) / m['value']:+10.3%}")
    return 0


def main():
    # Keep the compiler's and the program's scratch files inside the checkout.
    tmp = ROOT / WORK_DIR / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    argv = sys.argv[1:]
    mode = "run"
    if argv and argv[0] in ("steady", "smoke", "overhead"):
        mode, argv = argv[0], argv[1:]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=mode in ("run", "steady", "overhead"))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float,
                   default=1.0 if mode == "smoke" else
                   float(load_spec()["run_seconds"]))
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seed-base", type=int, default=1)
    args = p.parse_args(argv)
    handler = {"run": mode_run, "steady": mode_steady, "smoke": mode_smoke,
               "overhead": mode_overhead}[mode]
    return handler(args)


if __name__ == "__main__":
    sys.exit(main())
