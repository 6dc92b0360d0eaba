"""The four workloads: seeded inputs, warm-up and the op list of one pass.

``build(name, seed)`` generates the workload's inputs from the seed alone and
warms the library caches its ops use (operator kernels, weights).  The
returned ``Workload.ops`` is the fixed op list of one pass: ``(name, op)``
pairs, where ``op(tr)`` calls the library through its public API inside
spans of the tracer ``tr`` and checks its own output, raising
``CheckFailed`` when the output is wrong.  An op that raises for any reason
counts as failed.
"""

from __future__ import annotations

import cmath
import contextlib
import hashlib
import io
import json
import math
import random
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from a2quotient import (
    L2Space, GridFunction, ProjMat, SpectralParam, Stratum, classify_point,
    eigenfunction_grid, non_ramanujan_witness, recurrence_residual,
    reduce_matrix, residual_sweep, verify_witness,
)
from a2quotient import cli
from a2quotient.spectra import SetTag, is_decreasing

from tracing import NULL

# Acceptance thresholds of the library's own test suite.
RESIDUAL_TOL = 1e-9          # recurrence residual of a closed-form grid
SWEEP_LAST_TOL = 0.5         # last residual ratio of a damped sweep
TRUNC_TOL = 0.01             # boundary-shell mass fraction of a sweep
SWEEP_SLACK = 1.05           # "decreasing" up to 5% slack
NORM_SLACK = 1e-9            # relative float slack on the bound q^2+q+1

SWEEP_EPS = (0.2, 0.1, 0.05, 0.025)
SPECTRAL_QS = (2, 3, 5, 7, 11)
SPECTRAL_DEPTH = 480
OMEGA = cmath.exp(2j * math.pi / 3)


class CheckFailed(AssertionError):
    """An op's output failed the benchmark's check."""


def check(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


@dataclass
class Workload:
    name: str
    seed: int
    ops: list
    nominal_pass_s: float     # one pass on a 2-core x86_64 box, Python 3.11
    # How far op times follow the host-speed kernel (worker.HostSpeed): the
    # exponent of the longest op-name prefix listed ("" for every op).
    # Interpreter-bound ops follow it fully (1); numpy-bound ops slow down
    # less: the log of operator-power's pass time moves 0.42 and that of
    # spectral-sweep's 0.66 as far as the log of the kernel time (fit over
    # 18 and 20 runs on a shared 2-core x86_64 box).
    host_exponents: dict = field(default_factory=lambda: {"": 1.0})
    info: dict = field(default_factory=dict)
    cleanup: list = field(default_factory=list)

    def exponents(self) -> list[float]:
        """The host exponent of each op, in op order."""
        def one(name: str) -> float:
            return self.host_exponents[max(
                (p for p in self.host_exponents if name.startswith(p)), key=len)]
        return [one(name) for name, _ in self.ops]

    def close(self) -> None:
        for fn in self.cleanup:
            fn()


# ---------------------------------------------------------------------------
# exact-reduce: normal forms over F_q(t) with checked witnesses
# ---------------------------------------------------------------------------

def _poly_text(rng: random.Random, q: int, deg: int) -> str:
    """Random polynomial of exactly this degree, in the library's syntax."""
    coeffs = [rng.randrange(q) for _ in range(deg)] + [rng.randrange(1, q)]
    return "+".join(_term(c, k) for k, c in reversed(list(enumerate(coeffs))) if c)


def _term(c: int, k: int) -> str:
    if k == 0:
        return str(c)
    mono = "t" if k == 1 else f"t^{k}"
    return mono if c == 1 else f"{c}*{mono}"


def _elementary(d: int, i: int, j: int, entry: str) -> list[list[str]]:
    rows = [["1" if a == b else "0" for b in range(d)] for a in range(d)]
    rows[i][j] = entry
    return rows


def _swap(d: int, i: int, j: int) -> list[list[str]]:
    perm = list(range(d))
    perm[i], perm[j] = j, i
    return [["1" if perm[a] == b else "0" for b in range(d)] for a in range(d)]


def _modular_factor(rng, q: int, d: int, kind: int) -> list[list[str]]:
    """One generator of PGL(d, F_q[t]): transvection, swap or unit scaling."""
    i, j = rng.sample(range(d), 2)
    if kind == 0:
        return _elementary(d, i, j, _poly_text(rng, q, 2))
    if kind == 1:
        return _swap(d, i, j)
    return _elementary(d, i, i, str(rng.randrange(1, q)))


def _compact_factor(rng, q: int, d: int, kind: int) -> list[list[str]]:
    """One generator of PGL(d, O): entries of valuation >= 0 at infinity."""
    i, j = rng.sample(range(d), 2)
    if kind == 0:
        return _elementary(d, i, j, f"({_poly_text(rng, q, 1)})/({_term(1, 2)})")
    if kind == 1:
        return _swap(d, i, j)
    return _elementary(d, i, i, f"({_poly_text(rng, q, 1)})/(t)")


def _product(q: int, factors) -> ProjMat:
    out = ProjMat.from_strings(q, factors[0])
    for f in factors[1:]:
        out = out @ ProjMat.from_strings(q, f)
    return out


def reduce_inputs(seed: int, count: int):
    """Seeded conjugated normal forms gamma . diag(t^m, t^n, 1) . w.

    The shape of the k-th matrix (q, size, exponents, which generators) is
    fixed by k; the seed draws positions and coefficients.  Built only from
    public constructors, so a reducer rewrite cannot change the inputs.
    Returns [(g, q, dim, m, n)], n None for dim 2, and a sha256 digest of
    the matrices' text forms.
    """
    rng = random.Random(seed)
    out = []
    digest = hashlib.sha256()
    for k in range(count):
        q = (2, 3, 5)[k % 3]
        d = 2 if k % 5 == 4 else 3
        m = (k // 3) % 5
        n = (k // 15) % (m + 1) if d == 3 else None
        gamma = [_modular_factor(rng, q, d, (k + s) % 3) for s in range(3)]
        w = [_compact_factor(rng, q, d, (k + s + 1) % 3) for s in range(3)]
        powers = [m, n, 0] if d == 3 else [m, 0]
        g = _product(q, gamma) @ ProjMat.diagonal(q, powers) @ _product(q, w)
        digest.update(f"{q}|{g}\n".encode())
        out.append((g, q, d, m, n))
    return out, digest.hexdigest()


def _reduce_op(g: ProjMat, m: int, n):
    def op(tr):
        with tr.span("reduction.reduce_matrix"):
            r = reduce_matrix(g)
        with tr.span("reduction.verify_witness"):
            ok = verify_witness(r, g)
        check(ok, "witness does not verify")
        check((r.m, r.n) == (m, n), f"exponents {(r.m, r.n)} != {(m, n)}")
    return op


def build_exact_reduce(seed: int) -> Workload:
    inputs, digest = reduce_inputs(seed, 360)
    ops = [(f"reduce.{k}.q{q}.d{d}", _reduce_op(g, m, n))
           for k, (g, q, d, m, n) in enumerate(inputs)]
    for _, op in ops[:10]:
        with contextlib.suppress(Exception):  # the measured passes count failures
            op(NULL)
    return Workload("exact-reduce", seed, ops, 2.0,
                    info={"matrices": len(inputs), "inputs_sha256": digest})


# ---------------------------------------------------------------------------
# operator-power: power iteration and Rayleigh steps on the float operators
# ---------------------------------------------------------------------------

OPERATOR_CONFIGS = ((2, 400, 24), (3, 400, 24), (2, 1600, 6), (3, 1600, 6))


def _power_step(space: L2Space, state: dict):
    k = space.q * space.q + space.q + 1

    def op(tr):
        f = state["f"]
        with tr.span("operator.apply"):
            g, _ = space.apply(+1, f)
        with tr.span("operator.apply"):
            h, _ = space.apply(-1, g)
        with tr.span("operator.inner"):
            lam = space.inner(h, f).real
        with tr.span("operator.norm"):
            nh = space.norm(h)
        check(math.isfinite(lam) and math.isfinite(nh) and nh > 0,
              f"non-finite or zero iterate (lambda {lam}, norm {nh})")
        est = math.sqrt(max(lam, 0.0))
        check(est <= k * (1 + NORM_SLACK), f"estimate {est} above {k}")
        state["f"] = GridFunction(space.depth, h.values / nh)
    return op


def _rayleigh_step(space: L2Space, state: dict):
    k = space.q * space.q + space.q + 1

    def op(tr):
        for sign in (+1, -1):
            with tr.span("operator.rayleigh"):
                r = space.rayleigh(sign, state["f"])
            check(cmath.isfinite(r), f"non-finite Rayleigh quotient {r}")
            check(abs(r) <= k * (1 + NORM_SLACK), f"|Rayleigh| {abs(r)} above {k}")
    return op


def _restart(space: L2Space, state: dict, start: np.ndarray):
    def op(tr):
        with tr.span("operator.norm"):
            nf = space.norm(GridFunction(space.depth, start))
        check(math.isfinite(nf) and nf > 0, f"start norm {nf}")
        state["f"] = GridFunction(space.depth, start / nf)
    return op


def build_operator_power(seed: int) -> Workload:
    ops = []
    for c, (q, depth, steps) in enumerate(OPERATOR_CONFIGS):
        space = L2Space(q, depth)
        rng = np.random.default_rng([seed, c])
        size = space.weights.size
        start = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        state = {}
        tag = f"q{q}.d{depth}"
        ops.append((f"start.{tag}", _restart(space, state, start)))
        ops += [(f"power.{tag}.{i}", _power_step(space, state)) for i in range(steps)]
        ops.append((f"rayleigh.{tag}", _rayleigh_step(space, state)))
        # warm-up: build both kernels and the weights of this configuration
        f = GridFunction(depth, start)
        space.apply(+1, f)
        space.apply(-1, f)
    return Workload("operator-power", seed, ops, 4.3, host_exponents={"": 0.4},
                    info={"configs": [list(c) for c in OPERATOR_CONFIGS]})


# ---------------------------------------------------------------------------
# spectral-sweep: eigenfunction grids, residual sweeps, membership, witness
# ---------------------------------------------------------------------------

def _gap_ok(s, gap: float) -> bool:
    return min(abs(s[0] - s[1]), abs(s[0] - s[2]), abs(s[1] - s[2])) >= gap


def generic_unimodular(rng, gap: float = 0.2):
    while True:
        a, b = rng.uniform(0, 2 * math.pi), rng.uniform(0, 2 * math.pi)
        s = (cmath.exp(1j * a), cmath.exp(1j * b), cmath.exp(-1j * (a + b)))
        if _gap_ok(s, gap):
            return s


def spectral_params(q: int, rng) -> dict:
    """One parameter per stratum plus the sigma1 cusp, seeded where free."""
    while True:
        p = SpectralParam.from_triple(q, *generic_unimodular(rng))
        if p.stratum is Stratum.GENERIC:
            generic = p
            break
    while True:
        th = rng.uniform(0.05, 2 * math.pi - 0.05)
        p = SpectralParam.from_triple(
            q, cmath.exp(2j * th), cmath.exp(-1j * th), cmath.exp(-1j * th))
        if p.stratum is Stratum.DOUBLE:
            double = p
            break
    w = OMEGA ** rng.randrange(3)
    r = math.sqrt(q)
    return {
        "generic": generic,
        "double": double,
        "triple": SpectralParam.from_triple(q, w, w, w),
        "trivial": SpectralParam.from_triple(q, q * w, w, w / q),
        "sigma1_cusp": SpectralParam.from_triple(q, r, 1.0, 1.0 / r),
    }


def classify_candidates(q: int, rng, count: int = 20):
    """Seeded points whose set is known by construction: [(lambda, tag)]."""
    k = q * q + q + 1
    cusp = q ** 1.5 + q + q ** 0.5
    pts = []
    for i in range(count):
        kind = i % 5
        if kind == 0:
            pts.append((k * OMEGA ** rng.randrange(3), SetTag.SIGMA0))
        elif kind == 1:
            th = rng.uniform(0, 2 * math.pi)
            lam = (q ** 1.5 + q ** 0.5) * cmath.exp(1j * th) + q * cmath.exp(-2j * th)
            pts.append((lam, SetTag.SIGMA1))
        elif kind in (2, 3):
            pts.append((q * sum(generic_unimodular(rng)), SetTag.SIGMA2_INTERIOR))
        elif i % 2:
            # on the real axis between the sigma2 cusp 3q and the sigma1 cusp
            pts.append((3 * q + (cusp - 3 * q) * rng.uniform(0.2, 0.8), SetTag.OUTSIDE))
        else:
            r = k * rng.uniform(1.1, 2.0)
            pts.append((r * cmath.exp(1j * rng.uniform(0, 2 * math.pi)), SetTag.OUTSIDE))
    return pts


def check_sweep(reports) -> None:
    for r in reports:
        vals = (r.residual_plus, r.residual_minus, r.norm, r.truncation_fraction)
        check(all(math.isfinite(v) for v in vals), f"non-finite sweep entry at eps {r.epsilon}")
        check(r.truncation_fraction < TRUNC_TOL,
              f"truncation fraction {r.truncation_fraction} at eps {r.epsilon}")
    check(is_decreasing(reports, slack=SWEEP_SLACK), "residuals do not decrease")
    last = reports[-1]
    check(max(last.residual_plus, last.residual_minus) < SWEEP_LAST_TOL,
          f"last residual {max(last.residual_plus, last.residual_minus)}")


def _witness_op(q: int):
    def op(tr):
        with tr.span("spectra.non_ramanujan_witness"):
            rep = non_ramanujan_witness(q)
        check(rep.margin > 0, f"margin {rep.margin}")
        check(not rep.in_sigma2, "witness lies in sigma2")
        check(rep.decreasing, "witness sweep does not decrease")
        check_sweep(rep.sweep)
    return op


def _sweep_op(q: int, param: SpectralParam):
    def op(tr):
        with tr.span("spectra.residual_sweep"):
            reports = residual_sweep(q, param, SWEEP_EPS)
        check_sweep(reports)
    return op


def _residual_op(q: int, param: SpectralParam, depth: int):
    def op(tr):
        with tr.span("eigen.eigenfunction_grid"):
            grid = eigenfunction_grid(q, param, depth)
        check(bool(np.isfinite(grid.values).all()), "non-finite eigenfunction grid")
        with tr.span("eigen.recurrence_residual"):
            res = recurrence_residual(q, param, depth)
        check(math.isfinite(res) and res < RESIDUAL_TOL, f"recurrence residual {res}")
    return op


def _classify_op(q: int, lam: complex, tag: SetTag):
    def op(tr):
        with tr.span("spectra.classify_point"):
            got = classify_point(q, lam).set_tag
        check(got is tag, f"classified {got.value}, expected {tag.value}")
    return op


def build_spectral_sweep(seed: int) -> Workload:
    rng = random.Random(seed)
    ops = []
    for q in SPECTRAL_QS:
        params = spectral_params(q, rng)
        center = SpectralParam.from_triple(q, 1.0, OMEGA, OMEGA * OMEGA)
        ops.append((f"witness.q{q}", _witness_op(q)))
        ops.append((f"sweep.center.q{q}", _sweep_op(q, center)))
        ops.append((f"sweep.generic.q{q}", _sweep_op(q, params["generic"])))
        ops += [(f"residual.{name}.q{q}", _residual_op(q, p, SPECTRAL_DEPTH))
                for name, p in params.items()]
        ops += [(f"classify.q{q}.{i}", _classify_op(q, lam, tag))
                for i, (lam, tag) in enumerate(classify_candidates(q, rng))]
        # warm-up: weights and both operator kernels at every depth the ops use
        for depth in {math.ceil(12.0 / eps) for eps in SWEEP_EPS} | {SPECTRAL_DEPTH}:
            L2Space(q, depth).apply(-1, GridFunction.zeros(depth))
    return Workload("spectral-sweep", seed, ops, 6.0,
                    host_exponents={"": 0.6, "classify.": 1.0})


# ---------------------------------------------------------------------------
# cli-session: in-process cli.main calls with checked output
# ---------------------------------------------------------------------------

# how Python's repr and json spell non-finite floats; no output header or
# key of the CLI contains these letters
_NONFINITE = (b"nan", b"inf", b"NaN", b"Inf")


def _reject_constant(token: str):
    raise CheckFailed(f"non-finite number {token} in JSON output")


def run_cli(argv, outdir: str, tr) -> None:
    """Run ``cli.main`` in process; check exit code, JSON (and its own
    verification flags) and output files."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with tr.span("cli.main"):
            code = cli.main(["--out", outdir, *argv])
    check(code == 0, f"exit {code}: {err.getvalue().strip()[:200]}")
    try:
        summary = json.loads(out.getvalue(), parse_constant=_reject_constant)
    except ValueError as exc:
        raise CheckFailed(f"unparsable JSON output: {exc}") from None
    for key in ("verified", "margin_exact_check"):
        check(summary.get(key) is not False, f'JSON output says "{key}": false')
    for name in _named_files(summary):
        data = Path(name).read_bytes()
        check(len(data) > 0, f"empty output file {Path(name).name}")
        if not name.endswith(".svg"):
            hit = next((t for t in _NONFINITE if t in data), None)
            check(hit is None, f"non-finite value {hit and hit.decode()} in {Path(name).name}")


def _named_files(summary: dict) -> list[str]:
    names = list(summary.get("files", []))
    for key in ("values_csv", "sweep_csv"):
        if key in summary:
            names.append(summary[key])
    return sorted(set(names))


def _cli_op(argv, outdir: str):
    return lambda tr: run_cli(argv, outdir, tr)


REDUCE_CALLS = 14


def cli_session_argv(seed: int) -> list[tuple[str, list[str]]]:
    """The session: quick reductions (most calls, so the median op is one),
    then every other subcommand at q 2/3/5/11 and depths 20/200/400/480."""
    rng = random.Random(seed)
    inputs, _ = reduce_inputs(seed, REDUCE_CALLS)
    lam = 3 * sum(generic_unimodular(rng))
    r11 = math.sqrt(11)
    return [
        *((f"reduce.{k}.q{q}.d{d}", ["--q", str(q), "reduce", "--matrix", str(g)])
          for k, (g, q, d, *_) in enumerate(inputs)),
        ("complex.csv.q3.d20", ["--q", "3", "--depth", "20", "complex"]),
        ("complex.csv.q2.d200", ["--q", "2", "--depth", "200", "complex"]),
        ("complex.json.q5.d20", ["--q", "5", "--depth", "20", "--emit", "json", "complex"]),
        ("eigen.triple.q2.d200", ["--q", "2", "--depth", "200", "eigen",
                                  "--s", "1,1,1", "--check"]),
        ("eigen.lambda.q3.d480", ["--q", "3", "--depth", "480", "eigen",
                                  f"--lambda={lam.real!r}{lam.imag:+.17g}i", "--check"]),
        ("eigen.cusp.q11.d400", ["--q", "11", "--depth", "400", "eigen",
                                 "--s", f"{r11!r},1,{1 / r11!r}", "--check"]),
        ("norm.q5.d200", ["--q", "5", "--depth", "200", "norm", "--iters", "50"]),
        ("norm.q2.d480", ["--q", "2", "--depth", "480", "norm", "--iters", "50"]),
        ("spectra.sweep.q2", ["--q", "2", "spectra", "--sweep", "--witness"]),
        ("spectra.sweep.q5", ["--q", "5", "spectra", "--sweep", "--witness"]),
        ("spectra.svg.q3", ["--q", "3", "--emit", "svg", "spectra"]),
        ("spectra.json.q11", ["--q", "11", "--emit", "json", "spectra"]),
        ("witness.q3", ["--q", "3", "witness"]),
        ("witness.q11", ["--q", "11", "witness"]),
    ]


def build_cli_session(seed: int, scratch: Path) -> Workload:
    tmp = tempfile.TemporaryDirectory(dir=scratch, prefix="cli-")
    ops = [(f"cli.{name}", _cli_op(argv, tmp.name))
           for name, argv in cli_session_argv(seed)]
    with contextlib.suppress(CheckFailed):
        run_cli(["--q", "2", "--depth", "20", "norm", "--iters", "5"], tmp.name, NULL)
    return Workload("cli-session", seed, ops, 2.5, cleanup=[tmp.cleanup])


# ---------------------------------------------------------------------------

WORKLOADS = ("exact-reduce", "operator-power", "spectral-sweep", "cli-session")


def build(name: str, seed: int, scratch: Path) -> Workload:
    if name == "exact-reduce":
        return build_exact_reduce(seed)
    if name == "operator-power":
        return build_operator_power(seed)
    if name == "spectral-sweep":
        return build_spectral_sweep(seed)
    if name == "cli-session":
        return build_cli_session(seed, scratch)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
