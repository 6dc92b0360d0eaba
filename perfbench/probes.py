"""Per-layer probes: each layer timed from outside through its public calls.

``run_all(seed, scratch)`` returns the layer metrics of the traced run and
the computed per-apply working set at each depth.  The
probes run in a fresh process, operator first, so the operator's first-apply
set-up and its resident-memory growth are measured from a cold start.  Times
are the median over repeats of the mean over a fixed, seeded item set.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
import resource
import statistics
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np

from a2quotient import (
    GridFunction, L2Space, QuotientComplex, SpectralParam, classify_point, cli,
    eigenfunction_grid, in_maximal_compact, in_modular_group,
    non_ramanujan_witness, parse_ratfunc, recurrence_residual, reduce_matrix,
    residual_sweep, sigma2_contains, stabilizer_order, verify_witness,
)
from a2quotient.algebra import poly_gcd

import workloads as wl

REPEATS = 3


def per_item_s(fn, items, repeats: int = REPEATS) -> float:
    """Median over repeats of the mean seconds per item."""
    runs = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for x in items:
            fn(x)
        runs.append((time.perf_counter() - t0) / len(items))
    return statistics.median(runs)


def once_s(fn, repeats: int = REPEATS) -> float:
    return per_item_s(lambda _: fn(), [None], repeats)


def _max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def operator_probe(seed: int) -> tuple[dict, dict]:
    out = {}
    rng = np.random.default_rng(seed)
    rss0 = _max_rss_mb()
    t0 = time.perf_counter()
    space = L2Space(2, 1600)
    f = GridFunction(1600, np.ones(space.weights.size))
    space.apply(+1, f)
    space.apply(-1, f)
    out["operator.setup_s.d1600"] = time.perf_counter() - t0
    for depth in (1600, 400):
        space = L2Space(2, depth)
        size = space.weights.size
        f = GridFunction(depth, rng.standard_normal(size) + 1j * rng.standard_normal(size))
        space.apply(+1, f)
        space.apply(-1, f)
        reps = 5
        out[f"operator.apply_ns_per_vertex.d{depth}"] = 1e9 / size * statistics.median(
            once_s(lambda s=s: space.apply(s, f), 1) for s in (+1, -1) * reps)
        out[f"operator.inner_ns_per_vertex.d{depth}"] = (
            1e9 / size * once_s(lambda: space.inner(f, f), reps))
        out[f"operator.norm_ns_per_vertex.d{depth}"] = (
            1e9 / size * once_s(lambda: space.norm(f), reps))
        if depth == 1600:
            out["operator.rss_delta_mb.d1600"] = _max_rss_mb() - rss0
    working_set = {}
    for depth in (400, 1600):
        per_vertex, vertices = _apply_bytes_per_vertex(3, depth)
        working_set[f"d{depth}"] = {"vertices": vertices,
                                    "bytes_per_vertex_computed": per_vertex,
                                    "apply_bytes_computed": per_vertex * vertices}
    out["operator.bytes_per_vertex"] = working_set["d400"]["bytes_per_vertex_computed"]
    return out, working_set


def _apply_bytes_per_vertex(q: int, depth: int) -> tuple[float, int]:
    """Bytes one apply touches per vertex, computed from allocation sizes:
    the direction's kernel tables (retained by its first apply), the
    transient peak of a warm apply, and the input values.  Also returns
    the number of vertices."""
    space = L2Space(q, depth)
    f = GridFunction(depth, np.ones(space.weights.size, dtype=np.complex128))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        space.apply(-1, f)
        kernel = tracemalloc.get_traced_memory()[0] - before
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        space.apply(-1, f)
        transient = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return (kernel + transient + f.values.nbytes) / space.weights.size, space.weights.size


def algebra_probe(seed: int) -> dict:
    inputs, _ = wl.reduce_inputs(seed, 24)
    pairs, texts = [], []
    for g, q, *_ in inputs:
        entries = [e for row in g.entries for e in row if not e.is_zero]
        pairs += list(zip(entries, entries[1:]))
        texts += [(q, str(e)) for e in entries]
    gcd_args = [(a.num * b.den + b.num * a.den, a.den * b.den) for a, b in pairs]
    us = 1e6
    return {
        "algebra.ratfunc_add_us": us * per_item_s(lambda p: p[0] + p[1], pairs),
        "algebra.ratfunc_mul_us": us * per_item_s(lambda p: p[0] * p[1], pairs),
        "algebra.ratfunc_div_us": us * per_item_s(lambda p: p[0] / p[1], pairs),
        "algebra.poly_gcd_us": us * per_item_s(lambda p: poly_gcd(*p), gcd_args),
        "algebra.parse_ratfunc_us": us * per_item_s(lambda t: parse_ratfunc(*t), texts),
    }


def reduction_probe(seed: int) -> dict:
    inputs, _ = wl.reduce_inputs(seed, 24)
    gs = [g for g, *_ in inputs]
    results = [reduce_matrix(g) for g in gs]
    pairs = list(zip(results, gs))
    degree = max(max(e.num.degree, e.den.degree)
                 for r in results for mat in (r.gamma, r.w)
                 for row in mat.entries for e in row)
    ms = 1e3
    return {
        "reduction.reduce_ms": ms * per_item_s(reduce_matrix, gs),
        "reduction.verify_ms": ms * per_item_s(lambda p: verify_witness(*p), pairs),
        "reduction.in_modular_group_ms": ms * per_item_s(
            lambda r: in_modular_group(r.gamma), results),
        "reduction.in_maximal_compact_ms": ms * per_item_s(
            lambda r: in_maximal_compact(r.w), results),
        "reduction.witness_max_degree": float(degree),
    }


def quotient_probe() -> dict:
    q, depth = 2, 100

    def build():
        cx = QuotientComplex(q, depth)
        for v in cx.vertices():
            cx.weight(v)
            cx.row(v, +1)
            cx.row(v, -1)

    def rows(cx):
        for v in cx.vertices():
            cx.row(v, +1)
            cx.row(v, -1)

    verts = QuotientComplex(q, depth).vertices()
    mn = [(v.m, v.n) for v in verts]
    return {
        "quotient.complex_build_ms": 1e3 * once_s(build),
        "quotient.row_us_per_vertex": 1e6 / len(verts) * statistics.median(
            once_s(lambda: rows(QuotientComplex(q, depth)), 1) for _ in range(REPEATS)),
        "quotient.stabilizer_order_us": 1e6 * per_item_s(
            lambda p: stabilizer_order(3, *p), mn),
    }


def eigen_probe(seed: int) -> dict:
    depth = wl.SPECTRAL_DEPTH
    rng = random.Random(seed)
    out = {}
    nonfinite = 0
    for q in wl.SPECTRAL_QS:
        params = wl.spectral_params(q, rng)
        for name, p in params.items():
            grid = eigenfunction_grid(q, p, depth)
            nonfinite += not bool(np.isfinite(grid.values).all())
            if q == 2 and name != "sigma1_cusp":
                out[f"eigen.grid_ns_per_vertex.{name}"] = 1e9 / grid.values.size * once_s(
                    lambda p=p: eigenfunction_grid(q, p, depth))
        if q == 2:
            out["eigen.residual_ms"] = 1e3 * once_s(
                lambda: recurrence_residual(2, params["generic"], depth))
    out["eigen.nonfinite_grids"] = float(nonfinite)
    return out


def spectra_probe(seed: int) -> dict:
    rng = random.Random(seed)
    center = SpectralParam.from_triple(2, 1.0, wl.OMEGA, wl.OMEGA ** 2)
    points = [lam for lam, _ in wl.classify_candidates(2, rng, 40)]
    failed = 0
    for q in wl.SPECTRAL_QS:
        r = math.sqrt(q)
        for param in (SpectralParam.from_triple(q, 1.0, wl.OMEGA, wl.OMEGA ** 2),
                      SpectralParam.from_triple(q, r, 1.0, 1.0 / r)):
            try:
                wl.check_sweep(residual_sweep(q, param, wl.SWEEP_EPS))
            except Exception:  # any raise or failed check is a failed sweep
                failed += 1
    return {
        "spectra.sweep_ms": 1e3 * once_s(lambda: residual_sweep(2, center, wl.SWEEP_EPS)),
        "spectra.witness_ms": 1e3 * once_s(lambda: non_ramanujan_witness(2)),
        "spectra.classify_us_per_point": 1e6 * per_item_s(
            lambda z: classify_point(2, z), points),
        "spectra.sigma2_contains_us_per_point": 1e6 * per_item_s(
            lambda z: sigma2_contains(2, z), points * 10),
        "spectra.failed_sweeps": float(failed),
    }


def cli_probe(seed: int, scratch: Path) -> dict:
    inputs, _ = wl.reduce_inputs(seed, 1)
    calls = {
        "reduce": ["--q", "2", "reduce", "--matrix", str(inputs[0][0])],
        "complex": ["--q", "2", "--depth", "100", "complex"],
        "eigen": ["--q", "2", "--depth", "200", "eigen", "--s", "1,1,1", "--check"],
        "norm": ["--q", "2", "--depth", "200", "norm", "--iters", "50"],
        "spectra": ["--q", "2", "spectra", "--sweep"],
        "witness": ["--q", "3", "witness"],
    }
    out = {}
    with tempfile.TemporaryDirectory(dir=scratch, prefix="probe-") as tmp:
        def call(argv):
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                cli.main(["--out", tmp, *argv])

        for name, argv in calls.items():
            out[f"cli.{name}_ms"] = 1e3 * once_s(lambda argv=argv: call(argv))
        out["cli.bytes_written"] = float(sum(p.stat().st_size
                                             for p in Path(tmp).iterdir()))
    return out


def run_all(seed: int, scratch: Path) -> dict:
    out, working_set = operator_probe(seed)
    out |= algebra_probe(seed)
    out |= reduction_probe(seed)
    out |= quotient_probe()
    out |= eigen_probe(seed)
    out |= spectra_probe(seed)
    out |= cli_probe(seed, scratch)
    return {"layer_metrics": out, "apply_working_set": working_set}
