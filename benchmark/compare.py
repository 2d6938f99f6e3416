#!/usr/bin/env python3
"""Compare two sets of benchmark runs saved by steady.py --save.

    python3 benchmark/compare.py BASE.json NEW.json

For every metric it prints both medians and how much worse NEW is than
BASE as a share of BASE's median (negative = better), judged against the
metric's bound and direction in BENCHMARK.json. A metric whose BASE spread
already exceeds its bound is reported as unresolved rather than unchanged.
Runs recorded on different machine shapes (core count, build type,
compiler) are flagged: their numbers do not compare. Exits 1 when a metric
is worse beyond its bound, 2 on a shape mismatch.
"""

import argparse
import json
import pathlib
import statistics
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
from steady import ROOT, spread  # noqa: E402

SHAPE_KEYS = ("nproc", "build_type", "compiler")


def shape_mismatches(base, new):
    """Shape fields that differ anywhere across the two sets of runs."""
    found = []
    for key in SHAPE_KEYS:
        values = {s.get(key) for s in base["shapes"] + new["shapes"]}
        if len(values) > 1:
            found.append(f"{key}: {sorted(map(str, values))}")
    return found


def worse_share(base_median, new_median, better):
    """How much worse `new` is than `base`, as a share of `base`."""
    if base_median == 0:
        return 0.0 if new_median == 0 else float("inf")
    change = (new_median - base_median) / abs(base_median)
    return change if better == "lower" else -change


def compare(base, new, spec):
    """Rows of (name, base median, new median, worse share, bound, verdict)."""
    catalogue = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    rows = []
    for name in base["runs"][0]["metrics"]:
        old = [r["metrics"][name]["value"] for r in base["runs"]]
        cur = [r["metrics"][name]["value"] for r in new["runs"]]
        meta = catalogue.get(name, {"better": "lower"})
        share = worse_share(statistics.median(old), statistics.median(cur),
                            meta["better"])
        bound = meta.get("bound")
        if bound is None:
            verdict = ""
        elif len(old) >= 2 and spread(old) > bound:
            verdict = "unresolved"
        elif share > bound:
            verdict = "WORSE"
        else:
            verdict = "ok"
        rows.append((name, statistics.median(old), statistics.median(cur),
                     share, bound, verdict))
    return rows


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("new")
    args = parser.parse_args()
    base = json.loads(pathlib.Path(args.base).read_text())
    new = json.loads(pathlib.Path(args.new).read_text())
    if base["workload"] != new["workload"]:
        print(f"different workloads: {base['workload']} vs {new['workload']}")
        return 2
    mismatches = shape_mismatches(base, new)
    for m in mismatches:
        print(f"SHAPE MISMATCH {m}: these runs do not compare")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows = compare(base, new, spec)
    print(f"{base['workload']}: {len(base['runs'])} base runs vs "
          f"{len(new['runs'])} new runs")
    print(f"{'metric':32} {'base':>12} {'new':>12} {'worse':>8} {'bound':>6}")
    for name, old, cur, share, bound, verdict in rows:
        print(f"{name:32} {old:12.6g} {cur:12.6g} {share:+8.3f} "
              f"{'' if bound is None else bound:>6} {verdict}")
    if mismatches:
        return 2
    return 1 if any(v == "WORSE" for *_, v in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
