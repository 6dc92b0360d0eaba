import cmath
import math
import random
import re
from fractions import Fraction

import numpy as np
import pytest

from a2quotient import eigen, spectra
from a2quotient.eigen import (
    SpectralParam, Stratum, companion_roots, eigenfunction_grid, eigenvalue_pair,
)
from a2quotient.operator import L2Space, tri_size
from a2quotient.quotient import vertex_weight
from a2quotient.spectra import (
    InvalidEpsilon, ResidualReport, SetTag, classify_point, is_decreasing,
    non_ramanujan_witness, norm_divergence, render_spectra, residual_sweep,
    sigma0, sigma1_point,
    sigma2_boundary_point, sigma2_contains, validate_eps,
)
from oracles import damped_report_ref, sigma1_distance, trivial_norm_sq_limit

ROT = cmath.exp(2j * cmath.pi / 3)


def unimodular_generic(rng, min_gap=5e-3):
    while True:
        a, b = rng.uniform(0.3, 2.8), rng.uniform(3.5, 6.0)
        s = (cmath.exp(1j * a), cmath.exp(1j * b), cmath.exp(-1j * (a + b)))
        if min(abs(s[0] - s[1]), abs(s[0] - s[2]), abs(s[1] - s[2])) > min_gap:
            return s


class TestSigma0:
    @pytest.mark.parametrize("q", [2, 3, 5])
    def test_points(self, q):
        pts = sigma0(q)
        assert pts[0] == pytest.approx(q * q + q + 1)
        assert all(abs(p) == pytest.approx(q * q + q + 1) for p in pts)

    def test_matches_trivial_eigenvalues(self, q=2):
        for k, pt in enumerate(sigma0(q)):
            w = cmath.exp(2j * cmath.pi * k / 3)
            p = SpectralParam.from_triple(q, q * w, w, w / q)
            assert eigenvalue_pair(q, p).lambda_plus == pytest.approx(pt)


class TestSigma1:
    def test_cusp_value(self):
        assert sigma1_point(2, 0.0) == pytest.approx(2 ** 1.5 + 2 + 2 ** 0.5)
        assert sigma1_point(2, 0.0) == pytest.approx(6.242640687119285)

    def test_rotated_cusps(self):
        p0 = sigma1_point(2, 0.0)
        assert sigma1_point(2, 2 * math.pi / 3) == pytest.approx(p0 * ROT)

    def test_distance_on_curve(self):
        for th in (0.0, 0.7, 2.1, 4.4):
            assert sigma1_distance(2, sigma1_point(2, th)) < 1e-6

    def test_distance_off_curve(self):
        assert sigma1_distance(2, 0j) > 1


class TestSigma2:
    def test_center_and_cusp(self):
        assert sigma2_contains(2, 0j)
        assert sigma2_contains(2, 6.0)       # 3q, triple root 1
        assert sigma2_contains(2, 6.0 * ROT)

    def test_sigma1_cusp_outside(self):
        q = 2
        lam = q ** 1.5 + q + q ** 0.5
        assert not sigma2_contains(q, lam)

    @pytest.mark.parametrize("q", [2, 3])
    def test_boundary_and_scaled(self, q):
        for k in range(64):
            phi = 2 * math.pi * k / 64
            b = sigma2_boundary_point(q, phi)
            assert sigma2_contains(q, b), phi
            assert not sigma2_contains(q, 1.02 * b), phi

    def test_rotation_and_conjugation_invariance(self):
        rng = random.Random(3)
        q = 2
        for _ in range(40):
            lam = complex(rng.uniform(-8, 8), rng.uniform(-8, 8))
            base = sigma2_contains(q, lam)
            assert sigma2_contains(q, lam * ROT) == base
            assert sigma2_contains(q, lam.conjugate()) == base
            d = sigma1_distance(q, lam)
            assert sigma1_distance(q, lam * ROT) == pytest.approx(d, abs=1e-8)
            assert sigma1_distance(q, lam.conjugate()) == pytest.approx(d, abs=1e-8)

    def test_interior_images_of_random_triples(self):
        rng = random.Random(5)
        q = 2
        for _ in range(30):
            s = unimodular_generic(rng)
            lam = q * sum(s)
            assert sigma2_contains(q, lam)


class TestClassify:
    def test_tags(self):
        q = 2
        assert classify_point(q, 7.0).set_tag is SetTag.SIGMA0
        assert classify_point(q, sigma1_point(q, 0.9)).set_tag is SetTag.SIGMA1
        assert classify_point(q, 0j).set_tag is SetTag.SIGMA2_INTERIOR
        assert classify_point(q, sigma2_boundary_point(q, 1.0)).set_tag is SetTag.SIGMA2_BOUNDARY
        assert classify_point(q, 100 + 0j).set_tag is SetTag.OUTSIDE
        # between the curve and the region: no claim, hence Outside
        mid = 0.5 * (6.0 + 2 ** 1.5 + 2 + 2 ** 0.5)
        assert classify_point(q, complex(mid, 0)).set_tag is SetTag.OUTSIDE

    @pytest.mark.parametrize("q", [2, 3, 5, 7, 11])
    def test_boundary_beside_the_cusps(self, q):
        # phi = cusp +- 10^(-k/4): the roots coalesce towards the cusp and
        # their moduli drift past TOL_POINT, while the discriminant stays
        # below 1e-12 on the boundary and above 3e-8 a factor 1.001 out
        for cusp in (0.0, 2 * math.pi / 3, 4 * math.pi / 3):
            for k in range(36):
                for sign in (1, -1):
                    z = sigma2_boundary_point(q, cusp + sign * 10 ** (-k / 4))
                    for scale, tag in ((1.0, SetTag.SIGMA2_BOUNDARY),
                                       (0.999, SetTag.SIGMA2_INTERIOR),
                                       (1.001, SetTag.OUTSIDE)):
                        got = classify_point(q, scale * z).set_tag
                        assert got is tag, (cusp, k, sign, scale)
                    assert sigma2_contains(q, z) and not sigma2_contains(q, 1.001 * z)

    @pytest.mark.parametrize("q", [2, 3, 5, 11])
    def test_boundary_tag_is_the_double_and_triple_strata(self, q):
        # both rules read the smallest root gap against eigen.TOL_SING:
        # a sigma2 point is Boundary exactly where its parameter is not generic
        boundary = 0
        for k in range(400):
            z = sigma2_boundary_point(q, 2 * math.pi * k / 400)
            for delta in (0, 1e-12, 1e-10, 1e-9, 1e-8, 1e-7, 1e-6, 1e-5,
                          1e-3, 1e-2):
                lam = z * (1 - delta)
                tag = classify_point(q, lam).set_tag
                stratum = eigen.params_from_eigenvalue(q, lam).stratum
                assert tag in (SetTag.SIGMA2_BOUNDARY, SetTag.SIGMA2_INTERIOR)
                assert (tag is SetTag.SIGMA2_BOUNDARY) == (
                    stratum in (Stratum.DOUBLE, Stratum.TRIPLE)), (k, delta)
                boundary += tag is SetTag.SIGMA2_BOUNDARY
        assert 400 <= boundary < 4000  # both tags occur

    @pytest.mark.parametrize("q", [2, 3, 5, 7, 11])
    def test_sigma1_curve_points(self, q):
        r = math.sqrt(q)
        for k in range(1000):
            lam = sigma1_point(q, 2 * math.pi * k / 1000)
            moduli = [abs(z) for z in companion_roots(q, lam)]
            assert moduli == pytest.approx([r, 1.0, 1.0 / r], abs=1e-13), k
            assert classify_point(q, lam).set_tag is SetTag.SIGMA1, k

    @pytest.mark.parametrize("q", [2, 3, 5, 7, 11])
    def test_sigma1_tag_agrees_with_distance_oracle(self, q):
        # The tag compares root moduli with tol = 1e-6 and the oracle
        # measures distance.  Off the curve the largest modulus deviation
        # is 1/(q-1) to (q+1)/(q-1)^2 times the distance (3 at most at q=2,
        # 0.1 at least at q=11), so the two may disagree at distances from
        # 1e-6/3 to 1e-6/0.1; points at oracle distances in (1e-7, 1e-5)
        # are left out.
        rng = random.Random(q)
        k = 1.5 * (q * q + q + 1)
        points = [complex(rng.uniform(-k, k), rng.uniform(-k, k))
                  for _ in range(100)]
        for delta in (0.0, 1e-9, 1e-8, 1e-4, 1e-3, 1e-1):
            points += [sigma1_point(q, rng.uniform(0, 2 * math.pi))
                       + delta * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
                       for _ in range(20)]
        on_curve = 0
        for lam in points:
            d = sigma1_distance(q, lam)
            if 1e-7 < d < 1e-5:
                continue
            tagged = classify_point(q, lam).set_tag is SetTag.SIGMA1
            assert tagged == (d <= 1e-6), (lam, d)
            on_curve += tagged
        assert on_curve >= 60

    @pytest.mark.parametrize("lam,tag", [
        (0j, SetTag.SIGMA2_INTERIOR),
        (sigma2_boundary_point(2, 1.0), SetTag.SIGMA2_BOUNDARY),
    ], ids=["interior", "boundary"])
    def test_one_cubic_solve_per_point(self, monkeypatch, lam, tag):
        calls = []
        real = eigen.solve_unit_cubic

        def counted(*a):
            calls.append(a)
            return real(*a)

        monkeypatch.setattr(eigen, "solve_unit_cubic", counted)
        assert classify_point(2, lam).set_tag is tag
        assert len(calls) == 1

    @pytest.mark.parametrize("la", [complex("nan"), complex("inf"),
                                    complex(1, float("nan"))],
                             ids=["nan", "inf", "nan-imag"])
    def test_nonfinite_point_rejected(self, la):
        with pytest.raises(ValueError, match="not finite"):
            classify_point(2, la)
        with pytest.raises(ValueError, match="not finite"):
            sigma2_contains(2, la)


class TestResidualSweep:
    def test_center_family_decreasing(self):
        q = 2
        w = cmath.exp(2j * cmath.pi / 3)
        param = SpectralParam.from_triple(q, 1.0, w, w * w)  # eigenvalue 0
        reports = residual_sweep(q, param, (0.2, 0.1, 0.05))
        assert all(r.truncation_fraction == 0.0 for r in reports)
        assert is_decreasing(reports)
        ratios = [r.residual_plus for r in reports]
        assert ratios[-1] < ratios[0]

    def test_sigma1_family_decreasing(self):
        q, th = 2, 0.7
        r = math.sqrt(q)
        param = SpectralParam.from_triple(
            q, r * cmath.exp(1j * th), cmath.exp(-2j * th), cmath.exp(1j * th) / r)
        reports = residual_sweep(q, param, (0.2, 0.1, 0.05))
        assert is_decreasing(reports)
        lam = eigenvalue_pair(q, param).lambda_plus
        assert sigma1_distance(q, lam) < 1e-9

    def test_trivial_exact(self):
        q = 2
        param = SpectralParam.from_triple(q, 2.0, 1.0, 0.5)
        assert param.stratum is Stratum.TRIVIAL
        reports = residual_sweep(q, param, (0.2, 0.1))
        for r in reports:
            assert r.epsilon == 0.0
            assert r.residual_plus < 1e-12 and r.residual_minus < 1e-12

    def test_invalid_epsilon(self):
        param = SpectralParam.from_triple(2, 1.0, 1.0, 1.0)
        with pytest.raises(InvalidEpsilon):
            residual_sweep(2, param, (0.6,))
        with pytest.raises(InvalidEpsilon):
            residual_sweep(2, param, (0.0,))

    def test_every_epsilon_checked_before_any_sweep(self, monkeypatch):
        calls = []
        monkeypatch.setattr(spectra, "_closed_report", lambda *a: calls.append(a))
        for s in ((1.0, 1.0, 1.0), (1.0, ROT, ROT * ROT), (2.0, 1.0, 0.5),
                  (cmath.exp(1.4j), cmath.exp(-0.7j), cmath.exp(-0.7j))):
            param = SpectralParam.from_triple(2, *s)
            with pytest.raises(InvalidEpsilon, match="damping 0"):
                residual_sweep(2, param, (0.2, 0.0))
        assert calls == []
        assert validate_eps([0.2, 0.1]) == (0.2, 0.1)

    def test_empty_eps_list(self):
        # no damping values means no evidence: neither a sweep nor a witness
        param = SpectralParam.from_triple(2, 1.0, 1.0, 1.0)
        with pytest.raises(InvalidEpsilon, match="empty"):
            residual_sweep(2, param, [])
        with pytest.raises(InvalidEpsilon, match="empty"):
            non_ramanujan_witness(2, [])

    def test_slack_detector(self):
        q = 2
        w = cmath.exp(2j * cmath.pi / 3)
        param = SpectralParam.from_triple(q, 1.0, w, w * w)
        reports = residual_sweep(q, param, (0.05, 0.2))  # wrong order: increasing
        assert not is_decreasing(reports)

    def test_growing_minus_ratio_alone_is_not_decreasing(self):
        def report(plus, minus):
            return ResidualReport(epsilon=0.1, residual_plus=plus,
                                  residual_minus=minus, norm=1.0,
                                  truncation_fraction=0.0)

        assert is_decreasing([report(0.5, 0.5), report(0.2, 0.52)])  # within 5%
        assert not is_decreasing([report(0.5, 0.5), report(0.2, 0.6)])


LADDER = (0.2, 0.1, 0.05, 0.025)


def sigma1_param(q, th):
    r = math.sqrt(q)
    return SpectralParam.from_triple(
        q, r * cmath.exp(1j * th), cmath.exp(-2j * th), cmath.exp(1j * th) / r)


class TestClosedForm:
    """Every sweep runs on geometric sums over the expansion of its
    stratum, with no grid; the allocating float sweep is their oracle (for
    the double and triple strata in test_eigen)."""

    @staticmethod
    def families(q):
        rng = random.Random(26)
        out = {"cusp": spectra.sigma1_cusp(q),
               "sigma2_centre": SpectralParam.from_triple(q, 1.0, ROT, ROT * ROT),
               "sigma1_0.7": sigma1_param(q, 0.7),
               "sigma1_2.1": sigma1_param(q, 2.1)}
        for k in range(3):
            # well-separated roots: near a double root both routes lose
            # digits to the large B_ij, and that is not what this checks
            out[f"generic_{k}"] = SpectralParam.from_triple(
                q, *unimodular_generic(rng, min_gap=0.2))
        return out

    @pytest.mark.parametrize("q", [2, 3])
    def test_matches_the_float_oracle(self, q):
        for name, p in self.families(q).items():
            assert p.stratum is Stratum.GENERIC, name
            for eps, r in zip(LADDER, residual_sweep(q, p, LADDER)):
                want = damped_report_ref(q, p, eps, math.ceil(12 / eps))
                ratio_tol = norm_tol = 1e-9
                if (q, eps) == (3, 0.025):
                    # the oracle's float weights 3^(-2m) underflow to 0 from
                    # m = 340 on, so its grid drops the mass r^(2m) beyond:
                    # about 3e-7 of the squared norm of the unimodular
                    # points, less of their ratios
                    ratio_tol, norm_tol = 1e-7, 1e-6
                got = (r.residual_plus, r.residual_minus, r.norm)
                for g, w, tol in zip(got, want, (ratio_tol, ratio_tol, norm_tol)):
                    assert g == pytest.approx(w, rel=tol), (name, eps)
                assert (r.epsilon, r.truncation_fraction) == (eps, 0.0)

    @pytest.mark.parametrize("q", [2, 3, 5, 11])
    def test_trivial_norm_is_the_exact_limit(self, q):
        param = SpectralParam.from_triple(q, q * ROT, ROT, ROT / q)
        assert param.stratum is Stratum.TRIVIAL
        for r in residual_sweep(q, param, (0.2, 0.025)):
            assert (r.epsilon, r.truncation_fraction) == (0.0, 0.0)
            assert (r.residual_plus, r.residual_minus) == (0.0, 0.0)
            assert r.norm ** 2 == pytest.approx(float(trivial_norm_sq_limit(q)),
                                                rel=1e-14)

    def test_route_per_stratum(self, monkeypatch):
        # one route: the sums, one report per eps with the residual steps of
        # both signs (one undamped, without steps, for trivial)
        routes = []
        real = spectra._closed_report

        def counted(q, terms, steps, eps):
            routes.append((len(steps), eps))
            return real(q, terms, steps, eps)

        monkeypatch.setattr(spectra, "_closed_report", counted)
        params = {
            Stratum.GENERIC: SpectralParam.from_triple(2, 1.0, ROT, ROT * ROT),
            Stratum.TRIVIAL: SpectralParam.from_triple(2, 2.0, 1.0, 0.5),
            Stratum.DOUBLE: SpectralParam.from_triple(
                2, cmath.exp(1.4j), cmath.exp(-0.7j), cmath.exp(-0.7j)),
            Stratum.TRIPLE: SpectralParam.from_triple(2, ROT, ROT, ROT),
        }
        for stratum, p in params.items():
            assert p.stratum is stratum
            routes.clear()
            reports = residual_sweep(2, p, (0.2, 0.1))
            calls = ([(0, 0.0)] if stratum is Stratum.TRIVIAL
                     else [(2, 0.2), (2, 0.1)])
            assert routes == calls, stratum
            assert [r.truncation_fraction for r in reports] == [0.0] * 2, stratum

    def test_divergent_pair_raises(self):
        # a generic point off sigma1 whose largest root has modulus 1.8:
        # none of its B_ij vanishes, and r^2 1.8^2 > 1 for these eps
        q, rho, a = 2, 1.8, 0.3
        p = SpectralParam.from_triple(q, rho * cmath.exp(1j * a),
                                      cmath.exp(-2j * a), cmath.exp(1j * a) / rho)
        assert p.stratum is Stratum.GENERIC
        with pytest.raises(spectra.NotSquareSummable, match=r"\|P\|"):
            residual_sweep(q, p, (0.2,))
        # the boundary |P| = 1 and a NaN ratio raise too, never a continuation
        for x in (1.0, complex("nan")):
            with pytest.raises(spectra.NotSquareSummable):
                spectra._closed_masses(q, [({(0, 0): 1.0}, x, 1.0)], 1.0, ())

    def test_default_ladder(self):
        assert spectra.default_ladder(2) == LADDER
        assert spectra.default_ladder(3) == LADDER
        for q in (5, 11, 101):
            ladder = spectra.default_ladder(q)
            assert ladder[0] == pytest.approx(0.2 * (3 / q) ** 1.5)
            assert all(b == a / 2 for a, b in zip(ladder, ladder[1:]))

    @pytest.mark.parametrize("q", [2, 3, 5, 7, 11, 13, 31, 101])
    def test_double_and_triple_scan(self, q):
        # the boundary and the cusps of sigma2 on the default ladder
        params = [SpectralParam.from_triple(
            q, cmath.exp(2j * th), cmath.exp(-1j * th), cmath.exp(-1j * th))
            for th in (0.7, 2.0)]
        params += [SpectralParam.from_triple(q, w, w, w)
                   for w in (1.0, ROT, ROT * ROT)]
        for p in params:
            assert p.stratum in (Stratum.DOUBLE, Stratum.TRIPLE), p.s
            reports = residual_sweep(q, p, spectra.default_ladder(q))
            ratios = [(r.residual_plus, r.residual_minus) for r in reports]
            assert all(math.isfinite(x) for r in reports
                       for x in (r.residual_plus, r.residual_minus, r.norm)), p.s
            assert all(b[0] < a[0] and b[1] < a[1]
                       for a, b in zip(ratios, ratios[1:])), p.s
            assert max(ratios[-1]) < 0.5, p.s

    @pytest.mark.parametrize("q", [2, 3, 5, 7, 11, 13, 31, 101])
    def test_witness_scan(self, q):
        rep = non_ramanujan_witness(q)
        assert [r.epsilon for r in rep.sweep] == list(spectra.default_ladder(q))
        ratios = [(r.residual_plus, r.residual_minus) for r in rep.sweep]
        assert all(math.isfinite(x) for pair in ratios for x in pair)
        assert all(b[0] < a[0] and b[1] < a[1] for a, b in zip(ratios, ratios[1:]))
        assert max(ratios[-1]) < 0.5
        assert rep.decreasing and not rep.in_sigma2 and rep.margin > 0


class TestNormDivergence:
    def test_trivial_converges(self):
        q = 2
        param = SpectralParam.from_triple(q, 2.0, 1.0, 0.5)
        partials = norm_divergence(q, param, [10, 20, 40])
        assert partials[-1] == pytest.approx(float(trivial_norm_sq_limit(2)), abs=1e-10)
        assert partials[-1] == pytest.approx(8 / 7, abs=1e-10)

    def test_generic_linear_growth(self):
        q = 2
        rng = random.Random(11)
        param = SpectralParam.from_triple(q, *unimodular_generic(rng))
        depths = list(range(20, 201, 20))
        partials = norm_divergence(q, param, depths)
        assert all(b > a for a, b in zip(partials, partials[1:]))
        # roughly linear: positive slope fit of partial vs depth
        slope = np.polyfit(depths, partials, 1)[0]
        assert slope > 0.1
        assert partials[-1] > 10 * 8 / 7

    def test_triple_polynomial_growth(self):
        q = 2
        param = SpectralParam.from_triple(q, 1.0, 1.0, 1.0)
        depths = [25, 50, 100, 200]
        partials = norm_divergence(q, param, depths)
        logs = np.log(partials)
        slope = np.polyfit(np.log(depths), logs, 1)[0]
        assert slope >= 3

    @pytest.mark.parametrize("q", [2, 3])
    def test_matches_exact_weight_sum(self, q):
        # the partial sums against exact vertex weights times the float
        # values' exact squared moduli, and bit for bit against the prefix
        # sums of w |f| |f|, formed and summed as the one mass pass does
        param = SpectralParam.from_triple(q, *unimodular_generic(random.Random(4)))
        depths = [0, 1, 3, 5, 7, 10, 12]
        f = eigenfunction_grid(q, param, depths[-1])
        a = np.abs(f.values)
        mass = L2Space(q, depths[-1]).weights * a
        mass *= a
        for d, got in zip(depths, norm_divergence(q, param, depths)):
            want = sum(vertex_weight(q, m, n) * (Fraction(f[(m, n)].real) ** 2
                                                 + Fraction(f[(m, n)].imag) ** 2)
                       for m in range(d + 1) for n in range(m + 1))
            assert got == pytest.approx(float(want), rel=1e-14)
            assert got == mass[:tri_size(d)].sum()

    def test_sums_in_the_order_asked(self):
        param = SpectralParam.from_triple(2, 1.0, ROT, ROT * ROT)
        ordered = norm_divergence(2, param, [10, 20, 40])
        assert norm_divergence(2, param, [40, 10, 20]) == \
            [ordered[2], ordered[0], ordered[1]]

    def test_no_depths(self):
        param = SpectralParam.from_triple(2, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError, match="depth"):
            norm_divergence(2, param, [])

    @pytest.mark.parametrize("shallow", [[0], [1], [0, 1]])
    def test_shallow_depths_alone(self, shallow):
        # below the smallest space the sums are still prefixes of a deeper grid
        param = SpectralParam.from_triple(2, *unimodular_generic(random.Random(4)))
        deep = norm_divergence(2, param, [*shallow, 10])
        assert norm_divergence(2, param, shallow) == deep[:len(shallow)]

    @pytest.mark.parametrize("depths", [[-1, 10], [-5, 10], [3, -2]])
    def test_negative_depth_named(self, depths):
        param = SpectralParam.from_triple(2, 1.0, ROT, ROT * ROT)
        bad = [d for d in depths if d < 0]
        with pytest.raises(ValueError, match=re.escape(str(bad))):
            norm_divergence(2, param, depths)


class TestWitness:
    def test_q2(self):
        rep = non_ramanujan_witness(2, eps_list=(0.2, 0.1, 0.05))
        assert not rep.in_sigma2
        assert rep.margin == pytest.approx(2 ** 1.5 + 2 ** 0.5 - 4)
        assert rep.margin == pytest.approx(0.24264068711928477)
        assert rep.decreasing

    def test_q3_margin(self):
        rep = non_ramanujan_witness(3, eps_list=(0.25, 0.2))
        assert rep.margin == pytest.approx(3 * math.sqrt(3) + math.sqrt(3) - 6)
        assert rep.margin == pytest.approx(0.9282032302755088)
        assert rep.margin > 0

    def test_margin_positive_all_q(self):
        for q in (2, 3, 5, 7, 11, 13):
            assert q ** 1.5 + q ** 0.5 - 2 * q > 0


class TestRender:
    def test_svg_structure(self, tmp_path):
        out = tmp_path / "spec.svg"
        render_spectra(2, out)
        text = out.read_text()
        assert text.count("<circle") == 3
        paths = [ln for ln in text.splitlines() if ln.startswith("<path")]
        assert len(paths) == 2
        filled = [p for p in paths if 'fill="none"' not in p]
        empty = [p for p in paths if 'fill="none"' in p]
        assert len(filled) == 1 and len(empty) == 1
        assert filled[0].count("Z") == 1 and empty[0].count("Z") == 1

    @pytest.mark.parametrize("samples", [0, -3])
    def test_nonpositive_samples_rejected(self, tmp_path, samples):
        out = tmp_path / "spec.svg"
        with pytest.raises(ValueError, match="samples"):
            render_spectra(2, out, samples=samples)
        assert not out.exists()

    def test_cusp_marker_angles(self, tmp_path):
        import re
        out = tmp_path / "spec.svg"
        render_spectra(2, out)
        text = out.read_text()
        centers = [(float(m.group(1)), float(m.group(2)))
                   for m in re.finditer(r'<circle cx="([-\d.]+)" cy="([-\d.]+)"', text)]
        angles = sorted((math.atan2(-(y - 320), x - 320)) % (2 * math.pi)
                        for x, y in centers)
        for got, want in zip(angles, [0, 2 * math.pi / 3, 4 * math.pi / 3]):
            assert got == pytest.approx(want, abs=1e-2)

    def test_outer_curve_strictly_encloses(self):
        q = 2
        dists = []
        for k in range(64):
            th = 2 * math.pi * k / 64
            pt = sigma1_point(q, th)
            assert not sigma2_contains(q, pt)
            dists.append(min(abs(pt - sigma2_boundary_point(q, 2 * math.pi * j / 512))
                             for j in range(512)))
        assert min(dists) > 0.01
