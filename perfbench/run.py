"""Benchmark entry point: one run of one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout that holds ``src/a2quotient``.  With
``--trace 0`` the run starts three fresh worker processes one after the
other; each imports the library and sets the workload up, and the last one
then measures it in a closed loop for ``--seconds``.  ``setup_s`` is the
median set-up time of the three.  Times are scaled to a reference host
speed (``worker.HostSpeed``).  With ``--trace 1`` one worker alternates
untraced and traced passes and a fresh probe process times every layer.

The last line of standard output is the result as one JSON object.  The
full record (environment, failing ops, tail percentile, input digest) goes
to ``perfbench/out/runs/`` and a summary line is appended to the results
file (``--results``, default ``perfbench/out/results.jsonl``), which
``compare.py`` reads.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
WORKER = ROOT / "perfbench" / "worker.py"
SETUP_RUNS = 3
DEADLINE_S = 170.0
SINGLE_THREAD = {v: "1" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                  "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}


class RunFailed(RuntimeError):
    pass


def _sysconf(code: int):
    # glibc numbering: 188 L1d, 191 L2, 194 L3 cache size in bytes
    try:
        value = os.sysconf(code)
    except (ValueError, OSError):
        return None
    return value if value and value > 0 else None


def environment(numpy_version: str | None, working_set: dict | None) -> dict:
    """The machine; with the probe's computed per-apply working set, which
    only the traced run measures."""
    llc = _sysconf(194)
    sets = {depth: ws | {"meets_4x_llc": None if llc is None
                         else ws["apply_bytes_computed"] >= 4 * llc}
            for depth, ws in (working_set or {}).items()}
    return {
        "machine": platform.machine(),
        "system": f"{platform.system()} {platform.release()}",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "l1d_bytes": _sysconf(188),
        "l2_bytes": _sysconf(191),
        "l3_bytes": llc,
        "apply_working_set": sets or "measured by the traced run (--trace 1)",
        "threads": "single-threaded numpy (OMP/OPENBLAS/MKL = 1), one process at a time",
    }


def spawn(args, mode: str, deadline: float, extra=()) -> tuple[dict, float]:
    """Run one worker; return its record and its start on the monotonic clock."""
    record = OUT / "tmp" / f"{args.workload}-{args.seed}-{mode}.json"
    record.unlink(missing_ok=True)
    cmd = [sys.executable, str(WORKER), "--mode", mode, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--record", str(record), *extra]
    env = os.environ | SINGLE_THREAD
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise RunFailed("out of time before starting a worker")
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise RunFailed(f"{mode} worker exceeded the time limit") from None
    if proc.returncode != 0 or not record.exists():
        raise RunFailed(f"{mode} worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    data = json.loads(record.read_text(encoding="utf-8"))
    record.unlink()
    return data, start


def run_untraced(args, deadline: float) -> tuple[dict, dict]:
    raw, setups = [], []
    for i in range(SETUP_RUNS):
        mode = "measure" if i == SETUP_RUNS - 1 else "setup"
        rec, start = spawn(args, mode, deadline)
        raw.append(rec["ready"] - start)
        setups.append(raw[-1] * rec["setup_scale"])
    rec["raw_setup_s_all"] = raw
    rec["setup_s_all"] = setups
    keys = ("ops_per_s", "op_p50_ms", "op_tail_ms", "wall_s", "peak_rss_mb")
    return {"setup_s": statistics.median(setups)} | {k: rec[k] for k in keys}, rec


def run_traced(args, deadline: float) -> tuple[dict, dict]:
    spans = OUT / "runs" / f"spans-{args.workload}-seed{args.seed}.json"
    rec, _ = spawn(args, "trace", deadline, ["--spans", str(spans)])
    probe, _ = spawn(args, "probe", deadline)
    rec["spans_file"] = str(spans.relative_to(ROOT))
    rec["apply_working_set"] = probe["apply_working_set"]
    return rec["layer_metrics"] | probe["layer_metrics"], rec


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--results", type=Path, default=OUT / "results.jsonl")
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "a2quotient" / "__init__.py").is_file():
        print(f"error: no a2quotient sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    (OUT / "tmp").mkdir(parents=True, exist_ok=True)
    (OUT / "runs").mkdir(parents=True, exist_ok=True)

    try:
        if args.trace:
            values, rec = run_traced(args, deadline)
        else:
            values, rec = run_untraced(args, deadline)
    except RunFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if rec["failed"] >= rec["attempted"]:
        print(f"error: every op failed, e.g. {next(iter(rec['failures'].items()))}",
              file=sys.stderr)
        return 1
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    # correct: every failure is a known defect of the library (known_failures.py)
    for name, reason in rec["unexpected"].items():
        print(f"unexpected failure: {name}: {reason}", file=sys.stderr)
    result = {"correct": not rec["unexpected"],
              "attempted": rec["attempted"], "failed": rec["failed"],
              "metrics": metrics}
    full = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "result": result,
            "failed_frac": rec["failed"] / rec["attempted"],
            "environment": environment(rec.get("numpy"), rec.get("apply_working_set")),
            "worker": rec}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / "runs" / name).write_text(json.dumps(full, indent=1) + "\n", encoding="utf-8")
    summary = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
               "failed": rec["failed"], "attempted": rec["attempted"],
               "metrics": {k: v["value"] for k, v in metrics.items()}}
    args.results.parent.mkdir(parents=True, exist_ok=True)
    with args.results.open("a", encoding="utf-8") as fh:
        fh.write(json.dumps(summary) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
