"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report.  Every tolerance and scale is pinned here, not configurable.
"""

import cmath
import math
import random
import time

import numpy as np
import pytest

from a2quotient.eigen import (
    SpectralParam, Stratum, eigenfunction_grid, recurrence_residual,
)
from a2quotient.operator import L2Space, apply_exact
from a2quotient.quotient import (
    Vertex, coeffs, edge_coeff_from_stabilizers, stabilizer_order,
    stabilizer_order_counted,
)
from a2quotient.reduction import (
    ProjMat, random_compact, random_modular, reduce_matrix, verify_witness,
)
from a2quotient.spectra import (
    is_decreasing, non_ramanujan_witness, norm_divergence, residual_sweep,
    sigma2_contains,
)
from oracles import Eisenstein, expected_rows, trivial_eigenfunction_exact

QS = (2, 3, 5)
EPS_SWEEP = (0.2, 0.1, 0.05, 0.025)


def _report(num, text, t0, budget):
    elapsed = time.perf_counter() - t0
    print(f"[PASS] criterion {num}: {text} ({elapsed:.2f}s)")
    assert elapsed < budget, f"criterion {num} exceeded its {budget}s budget"


def triangle(M):
    return [Vertex(m, n) for m in range(M + 1) for n in range(m + 1)]


def unimodular_generic(rng, min_gap=5e-3):
    while True:
        a, b = rng.uniform(0.05, 3.1), rng.uniform(3.2, 6.2)
        s = (cmath.exp(1j * a), cmath.exp(1j * b), cmath.exp(-1j * (a + b)))
        if min(abs(s[0] - s[1]), abs(s[0] - s[2]), abs(s[1] - s[2])) > min_gap:
            return s


def sigma1_param(q, theta):
    r = math.sqrt(q)
    return SpectralParam.from_triple(
        q, r * cmath.exp(1j * theta), cmath.exp(-2j * theta),
        cmath.exp(1j * theta) / r)


def test_criterion_1_exact_coefficient_reproduction():
    t0 = time.perf_counter()
    for q in QS:
        for v in triangle(20):
            plus, minus = expected_rows(q, v)
            assert {(t.m, t.n): c for t, c in coeffs(q, v, +1)} == plus
            assert {(t.m, t.n): c for t, c in coeffs(q, v, -1)} == minus
    _report(1, "operator rows reproduce every recurrence coefficient "
               "exactly (q in {2,3,5}, m <= 20)", t0, 1.0)


def test_criterion_2_stabilizer_cross_check():
    t0 = time.perf_counter()
    assert stabilizer_order(2, 0, 0) == 168
    assert stabilizer_order_counted(2, 0, 0) == 168
    for q in QS:
        # intersection orders behind the origin and first-shell edges
        k = q * q + q + 1
        base = q ** 3 * (q + 1) * (q - 1) ** 2
        assert stabilizer_order(q, 0, 0) // edge_coeff_from_stabilizers(
            q, Vertex(0, 0), Vertex(1, 0)) == base
        assert stabilizer_order(q, 0, 0) // edge_coeff_from_stabilizers(
            q, Vertex(0, 0), Vertex(1, 1)) == base
        assert stabilizer_order(q, 1, 0) / edge_coeff_from_stabilizers(
            q, Vertex(1, 0), Vertex(1, 1)) == q ** 4 * (q - 1) ** 2
        # the bottom-to-interior family is q+1, settled by direct counting
        for m in range(1, 21):
            assert edge_coeff_from_stabilizers(
                q, Vertex(m, 0), Vertex(m + 1, 1)) == q + 1
        # every coefficient of every row is a stabilizer index
        for u in triangle(20):
            assert stabilizer_order_counted(q, u.m, u.n) == stabilizer_order(q, u.m, u.n)
            for sign in (+1, -1):
                for v, c in coeffs(q, u, sign):
                    assert edge_coeff_from_stabilizers(q, u, v) == c
    _report(2, "stabilizer-index counting matches all rows (m <= 20, "
               "q in {2,3,5}); bottom edge resolved to q+1", t0, 1.0)


def test_criterion_3_adjointness_and_regularity():
    t0 = time.perf_counter()
    M = 50
    for q in QS:
        k = q * q + q + 1
        for v in triangle(M):
            for sign in (+1, -1):
                assert sum(c for _, c in coeffs(q, v, sign)) == k
    space = L2Space(2, M)
    assert space.adjoint_defect(trials=100, rng=random.Random(2024)) == 0
    _report(3, "exact adjointness on 100 random interior pairs at M=50; "
               "all row sums equal q^2+q+1", t0, 5.0)


def test_criterion_4_eigenfunction_closed_forms():
    t0 = time.perf_counter()
    q, M = 2, 30
    rng = random.Random(4)
    for _ in range(100):
        p = SpectralParam.from_triple(q, *unimodular_generic(rng))
        assert p.stratum is Stratum.GENERIC
        assert recurrence_residual(q, p, M) < 1e-9
    done = 0
    while done < 100:
        th = rng.uniform(0.05, 2 * math.pi - 0.05)
        p = SpectralParam.from_triple(
            q, cmath.exp(2j * th), cmath.exp(-1j * th), cmath.exp(-1j * th))
        if p.stratum is not Stratum.DOUBLE:
            continue  # angle collided with a further degeneration; redraw
        assert recurrence_residual(q, p, M) < 1e-9
        done += 1
    for _ in range(100):
        w = cmath.exp(2j * math.pi * rng.randrange(3) / 3)
        p = SpectralParam.from_triple(q, w, w, w)
        assert p.stratum is Stratum.TRIPLE
        assert recurrence_residual(q, p, M) < 1e-9
    # trivial family: exact identity in the cyclotomic rationals
    for qq in QS:
        lam = qq * qq + qq + 1
        for k in range(3):
            f = trivial_eigenfunction_exact(k, 12)
            plus, masked_p = apply_exact(qq, 12, +1, f)
            minus, masked_m = apply_exact(qq, 12, -1, f)
            wp = lam * Eisenstein.omega_power(k)
            wm = lam * Eisenstein.omega_power(-k)
            for i, val in enumerate(f):
                if not masked_p[i]:
                    assert plus[i] == wp * val
                if not masked_m[i]:
                    assert minus[i] == wm * val
    _report(4, "closed forms satisfy the recurrences to 1e-9 at M=30 "
               "(100 random s per stratum); trivial case exact", t0, 30.0)


def _fit_order(devs, deltas):
    return np.polyfit(np.log(deltas), np.log(devs), 1)[0]


def test_criterion_5_stratum_limit_consistency():
    t0 = time.perf_counter()
    q, M = 2, 10
    th = 0.9
    target = eigenfunction_grid(
        q, SpectralParam.from_triple(
            q, cmath.exp(2j * th), cmath.exp(-1j * th), cmath.exp(-1j * th)), M)
    deltas, devs = [], []
    d = 1e-2
    while d >= 1e-5:
        s2 = cmath.exp(-1j * (th - d))
        s3 = cmath.exp(-1j * (th + d))
        s1 = 1 / (s2 * s3)
        p = SpectralParam(s=(s1, s2, s3), stratum=Stratum.GENERIC)
        got = eigenfunction_grid(q, p, M)
        devs.append(np.max(np.abs(got.values - target.values)
                           / (1 + np.abs(target.values))))
        deltas.append(d)
        d /= 2
    order = _fit_order(devs, deltas)
    assert order >= 0.9, f"generic->double observed order {order}"

    target = eigenfunction_grid(q, SpectralParam.from_triple(q, 1, 1, 1), M)
    deltas, devs = [], []
    d = 1e-2
    while d >= 1e-5:
        p = SpectralParam(s=(cmath.exp(2j * d), cmath.exp(-1j * d),
                             cmath.exp(-1j * d)), stratum=Stratum.DOUBLE)
        got = eigenfunction_grid(q, p, M)
        devs.append(np.max(np.abs(got.values - target.values)
                           / (1 + np.abs(target.values))))
        deltas.append(d)
        d /= 2
    order = _fit_order(devs, deltas)
    assert order >= 0.9, f"double->triple observed order {order}"
    _report(5, "stratum limits converge at order >= 0.9 in log-log fit "
               "(delta halved from 1e-2 to 1e-5)", t0, 10.0)


def test_criterion_6_operator_norm():
    t0 = time.perf_counter()
    q = 2
    estimates = [L2Space(q, M).norm_estimate(500) for M in (25, 50, 100, 200)]
    assert abs(estimates[-1] - 7.0) <= 0.01 * 7.0
    assert all(b >= a - 1e-12 for a, b in zip(estimates, estimates[1:]))
    assert all(e <= 7.0 + 1e-9 for e in estimates)
    _report(6, f"power iteration reaches {estimates[-1]:.6f} at M=200 "
               "(within 1% of 7), monotone in M, never above 7+1e-9", t0, 60.0)


def test_criterion_7_containment_evidence():
    t0 = time.perf_counter()
    q = 2
    rng = random.Random(7)
    w = cmath.exp(2j * cmath.pi / 3)
    families = [("lambda=0", SpectralParam.from_triple(q, 1.0, w, w * w))]
    for i in range(3):
        families.append((f"sigma2_interior_{i}",
                         SpectralParam.from_triple(q, *unimodular_generic(rng))))
    for th in (0.0, 0.7, 2.1):
        families.append((f"sigma1_theta_{th}", sigma1_param(q, th)))
    for name, param in families:
        reports = residual_sweep(q, param, EPS_SWEEP)
        # every family is generic: the sums run without truncation
        assert [r.depth for r in reports] == [None] * 4, name
        assert all(r.truncation_fraction == 0.0 for r in reports), name
        assert is_decreasing(reports, slack=1.05), name
        # regression bound pinned after the first verified run (observed
        # values 0.09-0.16 at eps=0.025 across the families)
        assert reports[-1].residual_plus < 0.5, name
        assert reports[-1].residual_minus < 0.5, name
    _report(7, "residual sweeps decrease (<=5% slack) with boundary mass "
               "< 1% for the region center, 3 interior points and 3 curve "
               "points", t0, 300.0)


def test_criterion_8_non_ramanujan_witness():
    t0 = time.perf_counter()
    q = 2
    rep = non_ramanujan_witness(q, eps_list=EPS_SWEEP)
    assert rep.in_sigma2 is False
    assert not sigma2_contains(q, q ** 1.5 + q + q ** 0.5)
    assert rep.margin == pytest.approx(q ** 1.5 + q ** 0.5 - 2 * q)
    assert rep.margin == pytest.approx(0.24264068711928477)
    assert rep.margin > 0
    assert rep.decreasing
    _report(8, f"cusp value {rep.lambda_star:.6f} outside the region by "
               f"margin {rep.margin:.4f} yet passes the residual sweep", t0, 60.0)


def test_criterion_9_reduction_round_trip():
    t0 = time.perf_counter()
    rng = random.Random(9)
    successes = 0
    for trial in range(500):
        q = (2, 3)[trial % 2]
        m = rng.randrange(6)
        n = rng.randrange(m + 1)
        g = (random_modular(q, 3, rng)
             @ ProjMat.diagonal(q, [m, n, 0])
             @ random_compact(q, 3, rng))
        r = reduce_matrix(g)
        assert (r.m, r.n) == (m, n), (q, m, n)
        assert verify_witness(r, g), (q, m, n)
        successes += 1
    assert successes == 500
    _report(9, "500/500 random conjugated normal forms recovered with "
               "verified witnesses (m <= 5, q in {2,3})", t0, 30.0)


def test_criterion_10_norm_dichotomy():
    t0 = time.perf_counter()
    q = 2
    trivial_total = 8 / 7
    p = SpectralParam.from_triple(q, 2.0, 1.0, 0.5)
    partials = norm_divergence(q, p, [10, 20, 40])
    assert partials[-1] == pytest.approx(trivial_total, abs=1e-10)
    rng = random.Random(10)
    samples = [SpectralParam.from_triple(q, *unimodular_generic(rng))
               for _ in range(3)]
    samples.append(SpectralParam.from_triple(
        q, cmath.exp(1.6j), cmath.exp(-0.8j), cmath.exp(-0.8j)))
    samples.append(SpectralParam.from_triple(q, 1.0, 1.0, 1.0))
    samples.append(sigma1_param(q, 0.4))
    depths = list(range(10, 201, 10))
    for p in samples:
        partials = norm_divergence(q, p, depths)
        assert all(b > a for a, b in zip(partials, partials[1:]))
        assert partials[-1] > 10 * trivial_total
    _report(10, "trivial mass converges to 8/7 within 1e-10 by M=40; all "
                "nontrivial samples grow past 10x that by M=200", t0, 30.0)
