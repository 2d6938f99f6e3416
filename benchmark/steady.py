#!/usr/bin/env python3
"""Steadiness check: run one workload on N seeds and summarize each metric.

    python3 benchmark/steady.py --workload sessions --runs 10 \
        [--first-seed 1] [--seconds 15] [--trace 0] [--save FILE]

For every metric it prints the median, the first and third quartiles
(statistics.quantiles(values, n=4)) and the spread, (q3 - q1) / median,
next to the metric's bound from BENCHMARK.json: a spread above the bound
fails the benchmark's own acceptance; one above a third of it is flagged as
not yet steady. --save writes the runs and the machine shape as JSON for
compare.py. Exits nonzero when a run fails or a spread exceeds its bound.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def quartiles(values):
    """(q1, median, q3) with Python's default 'exclusive' quantile method."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Interquartile distance as a share of the median."""
    q1, _, q3 = quartiles(values)
    median = statistics.median(values)
    return (q3 - q1) / median if median else float("inf")


def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def bounds(spec):
    return {m["name"]: m for m in spec["end_to_end"]}


def run_once(workload, seed, seconds, trace):
    """One benchmark run; returns (result line, result-file record)."""
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} failed "
                           f"(exit {proc.returncode}):\n{proc.stderr[-2000:]}")
    record = json.loads((ROOT / ".bench_results" /
                         f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return json.loads(lines[-1]), record


def summarize(runs, metric_bounds):
    """Rows of (name, unit, median, q1, q3, spread, bound, verdict)."""
    rows = []
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, median, q3 = quartiles(values)
        s = spread(values)
        bound = metric_bounds.get(name, {}).get("bound")
        if bound is None:
            verdict = ""
        elif s > bound:
            verdict = "OVER BOUND"
        elif s > bound / 3:
            verdict = "over bound/3"
        else:
            verdict = "ok"
        rows.append((name, runs[0]["metrics"][name]["unit"], median, q1, q3,
                     s, bound, verdict))
    return rows


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, default=0, choices=[0, 1])
    parser.add_argument("--save")
    args = parser.parse_args()

    spec = load_spec()
    seconds = args.seconds or spec["run_seconds"]
    runs, shapes = [], []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        line, record = run_once(args.workload, seed, seconds, args.trace)
        runs.append(line)
        shapes.append(record["shape"])
        print(f"seed {seed}: correct={line['correct']} "
              f"attempted={line['attempted']} failed={line['failed']}",
              flush=True)

    rows = summarize(runs, bounds(spec))
    print(f"\n{args.workload}, {len(runs)} runs, {seconds} s each")
    print(f"{'metric':32} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>7} {'bound':>6}")
    for name, unit, median, q1, q3, s, bound, verdict in rows:
        print(f"{name:32} {median:12.6g} {q1:12.6g} {q3:12.6g} {s:7.3f} "
              f"{'' if bound is None else bound:>6} {verdict}  [{unit}]")
    if args.save:
        pathlib.Path(args.save).write_text(json.dumps(
            {"workload": args.workload, "seconds": seconds, "trace": args.trace,
             "seeds": list(range(args.first_seed,
                                 args.first_seed + args.runs)),
             "shapes": shapes, "runs": runs}, indent=1))
    failed = any(not r["correct"] or r["failed"] for r in runs)
    over = any(v == "OVER BOUND" for *_, v in rows)
    return 1 if failed or over else 0


if __name__ == "__main__":
    sys.exit(main())
