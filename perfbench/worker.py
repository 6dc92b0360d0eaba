"""One benchmark process: set a workload up, then measure or trace it.

Started by ``run.py`` as a fresh interpreter from the checkout root::

    python3 perfbench/worker.py --mode MODE --workload W --seed N \
        --seconds S --record PATH [--spans PATH]

Modes:

``setup``    import the library, build the workload, record when it is ready.
``measure``  ``setup``, then run whole passes of the op list in a closed loop,
             as many as fill ``--seconds`` at the workload's nominal pass time.
``trace``    ``setup``, then one warm pass and alternating untraced and traced
             passes over the same span of time; spans of the traced passes go
             to ``--spans``.
``probe``    time every layer through its public functions (see probes.py).

The record (JSON) carries ``ready`` on the system-wide monotonic clock, so
the parent can take set-up time from the moment it started this process,
and ``setup_scale``, the host-speed factor for that set-up time.

Op times are scaled to a reference host speed (see ``HostSpeed``); the
record keeps both as ``raw_*`` and ``scaled_*``.
"""

from __future__ import annotations

import argparse
import bisect
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import warnings
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"


def import_library():
    """Import a2quotient from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import a2quotient
    if not Path(a2quotient.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"a2quotient imported from {a2quotient.__file__}, "
                         f"not from {SRC}")
    return a2quotient


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class HostSpeed:
    """Scales measured times to a reference host speed.

    On a shared machine the speed of the same code drifts by tens of percent
    over seconds.  Between ops, at most every ``EVERY_S``, a helper process
    (``hostkernel.py``) times a fixed kernel of the benchmark's own code.
    It runs on the same CPU as the worker but has its own heap and imports
    no library code, so the library's state cannot slow the kernel.  A time
    is scaled by ``REF_S`` over the median kernel time of the samples
    nearest to it (``NEIGHBOURS`` on each side), raised to the op's host
    exponent (``Workload.host_exponents``).
    """

    EVERY_S = 0.025
    NEIGHBOURS = 3
    REF_S = 0.65e-3     # typical kernel time on a 2-core x86_64 box

    def __init__(self) -> None:
        self._proc = subprocess.Popen(
            [sys.executable, str(ROOT / "perfbench" / "hostkernel.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.times: list[float] = []
        self.kernels: list[float] = []

    def close(self) -> None:
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()

    def sample(self) -> float:
        """Time the kernel once; returns the seconds spent sampling."""
        t0 = time.perf_counter()
        self._proc.stdin.write("\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError("host-speed helper exited")
        self.times.append(t0)
        self.kernels.append(float(line))
        return time.perf_counter() - t0

    def due(self) -> bool:
        return not self.times or time.perf_counter() - self.times[-1] >= self.EVERY_S

    def scale(self, t: float, exponent: float) -> float:
        """REF_S over the median kernel time of the samples around ``t``,
        to the power ``exponent``."""
        i = bisect.bisect(self.times, t)
        near = self.kernels[max(0, i - self.NEIGHBOURS):i + self.NEIGHBOURS + 1]
        return (self.REF_S / statistics.median(near)) ** exponent


def pin_to_one_cpu() -> None:
    """Keep the worker, and the helper it starts, on one CPU, so the kernel
    is timed where the ops run."""
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass


@dataclass
class Pass:
    raw_wall: float          # seconds, calibration excluded
    raw: list                # per-op seconds
    scaled: list             # per-op seconds at reference speed
    passed: list             # per-op: True when the op passed its checks
    failures: list           # (op name, reason)
    warns: dict              # numpy RuntimeWarnings by kind

    @property
    def wall(self) -> float:
        return sum(self.scaled)


def run_pass(ops, tr, host: HostSpeed, exponents: list, warn_log=None) -> Pass:
    """One pass of the op list, sampling host speed between ops."""
    starts, raw, passed, failures = [], [], [], []
    warns = {"overflow": 0, "invalid": 0}
    spent = 0.0
    t_pass = time.perf_counter()
    for name, op in ops:
        if host.due():
            spent += host.sample()
        tr.op += 1
        ok = True
        t0 = time.perf_counter()
        try:
            with tr.span("bench.op"):
                op(tr)
        except Exception as exc:  # a failed op is counted, the pass goes on
            ok = False
            failures.append((name, f"{type(exc).__name__}: {exc}"[:300]))
        raw.append(time.perf_counter() - t0)
        passed.append(ok)
        starts.append(t0)
        if warn_log:
            for w in warn_log:
                kind = str(w.message).split(" ", 1)[0]
                if issubclass(w.category, RuntimeWarning) and kind in warns:
                    warns[kind] += 1
            warn_log.clear()
    wall = time.perf_counter() - t_pass - spent
    host.sample()
    scaled = [d * host.scale(t + d / 2, e) for t, d, e in zip(starts, raw, exponents)]
    return Pass(wall, raw, scaled, passed, failures, warns)


def tail_value(samples: list[float]) -> tuple[float, float]:
    """Value at the highest percentile with at least 10 samples beyond it,
    and that percentile; the largest value when there are at most 10."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def pass_count(workload, seconds: float) -> int:
    """Whole passes that fill ``seconds`` at the workload's nominal pass
    time, so every run of a workload does the same work (at least 11 ops)."""
    return max(math.ceil(11 / len(workload.ops)),
               round(seconds / workload.nominal_pass_s))


def counts(workload, passes) -> dict:
    """Op verdicts; ``unexpected`` holds failures that are not known
    defects (see known_failures.py)."""
    from known_failures import unexpected
    failures, new = {}, {}
    for p in passes:
        for name, reason in p.failures:
            failures.setdefault(name, reason)
            if unexpected(workload.name, name, reason):
                new.setdefault(name, reason)
    return {"passes": len(passes),
            "attempted": sum(len(p.raw) for p in passes),
            "failed": sum(len(p.failures) for p in passes),
            "failures": failures,
            "unexpected": new}


def timing(passes, key: str) -> dict:
    """Times of the ops that passed their checks; pass time covers all.

    For the tail, each sample of an op is that op's median over the passes,
    so a one-off stall of the host inside a single op does not set it.
    """
    by_op = defaultdict(list)
    for p in passes:
        for i, (d, ok) in enumerate(zip(getattr(p, key), p.passed)):
            if ok:
                by_op[i].append(d)
    samples = [d for times in by_op.values() for d in times]
    if not samples:
        return {}
    walls = [p.wall if key == "scaled" else p.raw_wall for p in passes]
    tail, percentile = tail_value([statistics.median(times)
                                   for times in by_op.values() for _ in times])
    return {
        "ops_per_s": len(samples) / sum(walls),
        "op_p50_ms": statistics.median(samples) * 1e3,
        "op_tail_ms": tail * 1e3,
        "wall_s": statistics.median(walls),
        "tail_percentile": percentile,
        "tail_samples": len(samples),
    }


def measure(workload, seconds: float, host: HostSpeed) -> dict:
    from tracing import NULL
    exponents = workload.exponents()
    passes = [run_pass(workload.ops, NULL, host, exponents)
              for _ in range(pass_count(workload, seconds))]
    both = {key: timing(passes, key) for key in ("scaled", "raw")}
    return (counts(workload, passes)
            | both["scaled"]
            | {f"{key}_{k}": v for key, t in both.items() for k, v in t.items()}
            | {"host_exponents": workload.host_exponents,
               "wall_s_all": [p.wall for p in passes],
               "host_kernel_ms_median": statistics.median(host.kernels) * 1e3,
               "peak_rss_mb": peak_rss_mb()})


def trace(workload, seconds: float, spans_path: Path, host: HostSpeed) -> dict:
    """Alternate untraced and traced passes; derive per-layer self time."""
    from tracing import NULL, LAYERS, Tracer, self_time_ns
    tracer = Tracer()
    exponents = workload.exponents()
    plain, traced = [], []

    def traced_pass():
        with warnings.catch_warnings(record=True) as log:
            warnings.simplefilter("always", RuntimeWarning)
            traced.append(run_pass(workload.ops, tracer, host, exponents, log))

    run_pass(workload.ops, NULL, host, exponents)  # warm pass, not counted
    for i in range(max(1, pass_count(workload, seconds) // 2)):
        if i % 2:
            traced_pass()
        plain.append(run_pass(workload.ops, NULL, host, exponents))
        if not i % 2:
            traced_pass()
    n = len(traced)
    self_ns = self_time_ns(tracer.spans)
    spans_path.write_text(json.dumps({
        "workload": workload.name, "seed": workload.seed,
        "fields": ["name", "start_ns", "end_ns", "parent", "op"],
        "ops": [name for name, _ in workload.ops],
        "spans": tracer.spans,
    }) + "\n", encoding="utf-8")
    metrics = {f"trace.self_ms.{layer}": self_ns.get(layer, 0) / 1e6 / n
               for layer in LAYERS}
    metrics["trace.numpy_overflow"] = sum(p.warns["overflow"] for p in traced) / n
    metrics["trace.numpy_invalid"] = sum(p.warns["invalid"] for p in traced) / n
    metrics["trace.overhead_frac"] = (statistics.median(p.wall for p in traced)
                                      / statistics.median(p.wall for p in plain) - 1)
    return counts(workload, plain + traced) | {"spans": len(tracer.spans),
                                     "layer_metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--mode", required=True,
                    choices=["setup", "measure", "trace", "probe"])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--record", type=Path, required=True)
    ap.add_argument("--spans", type=Path)
    args = ap.parse_args(argv)

    pin_to_one_cpu()
    # host speed is sampled through set-up too; sampling time is not set-up
    t0 = time.perf_counter()
    host = HostSpeed()
    try:
        spent = time.perf_counter() - t0 + sum(host.sample() for _ in range(3))
        lib = import_library()
        spent += sum(host.sample() for _ in range(3))
        import numpy
        record = {"mode": args.mode, "numpy": numpy.__version__,
                  "a2quotient": lib.__version__}
        if args.mode == "probe":
            import probes
            record |= probes.run_all(args.seed, OUT)
        else:
            import workloads
            wl = workloads.build(args.workload, args.seed, OUT)
            spent += sum(host.sample() for _ in range(3))
            record["ready"] = time.monotonic() - spent
            record["setup_scale"] = ((HostSpeed.REF_S / statistics.median(host.kernels))
                                     ** wl.host_exponents[""])
            record["info"] = wl.info
            record["ops_per_pass"] = len(wl.ops)
            try:
                if args.mode == "measure":
                    record |= measure(wl, args.seconds, host)
                elif args.mode == "trace":
                    record |= trace(wl, args.seconds, args.spans, host)
            finally:
                wl.close()
    finally:
        host.close()
    args.record.write_text(json.dumps(record) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    os.chdir(ROOT)
    sys.exit(main())
