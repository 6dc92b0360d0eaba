"""Summarize or compare benchmark results files.

    python3 perfbench/compare.py BASE.jsonl            # medians and spreads
    python3 perfbench/compare.py BASE.jsonl NEW.jsonl  # NEW against BASE

A results file holds one JSON line per run, as ``run.py`` appends them.
For each workload and metric this prints the median of the runs and the
spread: the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median.  With
two files it prints both medians and their ratio NEW/BASE.  An end-to-end
metric whose spread on either side is wider than its bound in
BENCHMARK.json is marked "unresolved"; otherwise a ratio worse than the
bound is marked "worse" and one better than the bound "better"; the exit
status is 1 when any metric is worse.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path: Path) -> dict:
    """{(workload, metric): [values]} over every run in the file."""
    out = defaultdict(list)
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.strip():
            run = json.loads(line)
            for name, value in run["metrics"].items():
                out[(run["workload"], name)].append(value)
    return out


def stats(values):
    """(median, spread); spread is None when it is undefined."""
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return med, None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / abs(med)


def _fmt_spread(spread) -> str:
    return "   n/a" if spread is None else f"{spread:6.1%}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base", type=Path)
    ap.add_argument("new", type=Path, nargs="?")
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    meta = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    base = load(args.base)
    new = load(args.new) if args.new else None
    worst = 0
    for workload in [w["name"] for w in spec["workloads"]]:
        keys = [k for k in base if k[0] == workload]
        if not keys:
            continue
        print(f"== {workload}")
        for _, name in sorted(keys, key=lambda k: (k[1] not in {m["name"] for m in spec["end_to_end"]}, k[1])):
            m = meta.get(name, {"unit": "?", "better": "lower"})
            bound = m.get("bound")
            med_a, spread_a = stats(base[(workload, name)])
            line = f"  {name:40s} {med_a:14.6g} {m['unit']:6s} spread {_fmt_spread(spread_a)}"
            if new is None:
                print(line)
                continue
            values = new.get((workload, name))
            if not values:
                print(line + "  (missing in new)")
                continue
            med_b, spread_b = stats(values)
            ratio = med_b / med_a if med_a else float("nan")
            line += f" -> {med_b:14.6g} spread {_fmt_spread(spread_b)}  ratio {ratio:.4f} of base"
            if bound is not None:
                wide = any(s is None or s > bound for s in (spread_a, spread_b))
                worse = ratio > 1 + bound if m["better"] == "lower" else ratio < 1 - bound
                better = ratio < 1 - bound if m["better"] == "lower" else ratio > 1 + bound
                verdict = ("unresolved" if wide else "worse" if worse
                           else "better" if better else "within bound")
                line += f"  [{verdict}]"
                worst = max(worst, 1 if verdict == "worse" else 0)
            print(line)
    return worst


if __name__ == "__main__":
    sys.exit(main())
