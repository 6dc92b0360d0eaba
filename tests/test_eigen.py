import cmath
import math
import random
import sys
import threading
from fractions import Fraction

import numpy as np
import pytest

from a2quotient.eigen import (
    NotInS, SpectralParam, Stratum, b_coefficients, eigenfunction_grid,
    eigenfunction_value, eigenvalue_pair, params_from_eigenvalue,
    recurrence_residual, solve_unit_cubic,
)
from a2quotient import eigen, operator
from a2quotient.operator import (
    GridFunction, L2Space, _grid_mn, apply_exact, tri_size,
)
from a2quotient.spectra import norm_divergence, residual_sweep
from oracles import (
    Eisenstein, closed_form_ref, damped_ref, damped_report_ref, forward_solve,
    grid_residual_ref, same_bits, traced_peak, trivial_eigenfunction_exact,
)


def unimodular_generic(rng, min_gap=5e-3):
    while True:
        a, b = rng.uniform(0.3, 2.8), rng.uniform(3.5, 6.0)
        s = (cmath.exp(1j * a), cmath.exp(1j * b), cmath.exp(-1j * (a + b)))
        gaps = [abs(s[0] - s[1]), abs(s[0] - s[2]), abs(s[1] - s[2])]
        if min(gaps) > min_gap:
            return s


def unimodular_double(theta):
    return (cmath.exp(2j * theta), cmath.exp(-1j * theta), cmath.exp(-1j * theta))


def triple_root(k):
    w = cmath.exp(2j * cmath.pi * k / 3)
    return (w, w, w)


def trivial_triple(q, k):
    w = cmath.exp(2j * cmath.pi * k / 3)
    return (q * w, w, w / q)


def sigma1_triple(q, theta):
    r = math.sqrt(q)
    return (r * cmath.exp(1j * theta), cmath.exp(-2j * theta),
            cmath.exp(1j * theta) / r)


class TestMembershipAndStrata:
    def test_not_in_s(self):
        with pytest.raises(NotInS):
            SpectralParam.from_triple(2, 2.0, 1.0, 1.0)  # product != 1
        with pytest.raises(NotInS):
            # product is 1 but the conjugate-symmetry constraint fails
            SpectralParam.from_triple(2, 1.1j, 1.0, 1 / 1.1j)
        with pytest.raises(NotInS, match="zero component"):
            SpectralParam.from_triple(2, 0, 1, 1)
        p = SpectralParam.from_triple(2, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError, match=r"need 0 <= n <= m"):
            eigenfunction_value(2, p, 1, 2)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_nonfinite_component_named(self, k):
        s = [1.0, 1.0, 1.0]
        s[k - 1] = float("nan")
        with pytest.raises(NotInS, match=f"s{k} = .*not finite"):
            SpectralParam.from_triple(2, *s)

    def test_strata(self):
        assert SpectralParam.from_triple(2, *unimodular_generic(random.Random(1))).stratum is Stratum.GENERIC
        assert SpectralParam.from_triple(2, *unimodular_double(0.9)).stratum is Stratum.DOUBLE
        assert SpectralParam.from_triple(2, *triple_root(1)).stratum is Stratum.TRIPLE
        assert SpectralParam.from_triple(2, *trivial_triple(2, 2)).stratum is Stratum.TRIVIAL

    @pytest.mark.parametrize("q", [2, 3])
    def test_close_pair_is_generic_and_accurate(self, q):
        # a pair 5e-4 apart, within ten times TOL_SING: three distinct roots
        # take the generic formula, which reads ~1e-10 here at depth 480
        # (the double formula reads ~1e-5)
        th = 0.8
        s2 = cmath.exp(-1j * (th + 2.5e-4))
        s3 = cmath.exp(-1j * (th - 2.5e-4))
        s1 = 1 / (s2 * s3)
        p = SpectralParam.from_triple(q, s1, s2, s3)
        assert p.stratum is Stratum.GENERIC
        assert recurrence_residual(q, p, 480) < 1e-9


class TestEigenvalues:
    def test_examples_q2(self):
        p = SpectralParam.from_triple(2, 2, 1, 0.5)
        assert eigenvalue_pair(2, p).lambda_plus == pytest.approx(7)
        p = SpectralParam.from_triple(2, 1, 1, 1)
        assert eigenvalue_pair(2, p).lambda_plus == pytest.approx(6)
        r = math.sqrt(2)
        p = SpectralParam.from_triple(2, r, 1, 1 / r)
        assert eigenvalue_pair(2, p).lambda_plus == pytest.approx(2 * (r + 1 + 1 / r))
        assert eigenvalue_pair(2, p).lambda_plus == pytest.approx(2 ** 1.5 + 2 + 2 ** 0.5)

    def test_pair_conjugate(self):
        rng = random.Random(3)
        for _ in range(50):
            p = SpectralParam.from_triple(2, *unimodular_generic(rng))
            pair = eigenvalue_pair(2, p)
            assert pair.lambda_minus == pytest.approx(pair.lambda_plus.conjugate())


class TestCubicInversion:
    def test_triple_at_3q(self):
        p = params_from_eigenvalue(2, 6.0)
        assert p.stratum is Stratum.TRIPLE
        assert all(abs(s - 1) < 1e-10 for s in p.s)

    def test_zero_gives_cube_roots(self):
        p = params_from_eigenvalue(2, 0.0)
        assert p.stratum is Stratum.GENERIC
        assert sorted(abs(s) for s in p.s) == pytest.approx([1, 1, 1])
        assert abs(p.s[0] * p.s[1] * p.s[2] - 1) < 1e-12

    def test_trivial_point(self):
        q = 2
        p = params_from_eigenvalue(q, q * q + q + 1)
        assert p.stratum is Stratum.TRIVIAL
        assert p.s[0] == pytest.approx(q)
        assert p.s[1] == pytest.approx(1)
        assert p.s[2] == pytest.approx(1 / q)

    def test_roundtrip(self):
        rng = random.Random(7)
        for q in (2, 3):
            for _ in range(100):
                s = unimodular_generic(rng)
                p = SpectralParam.from_triple(q, *s)
                lam = eigenvalue_pair(q, p).lambda_plus
                back = params_from_eigenvalue(q, lam)
                got = sorted(back.s, key=lambda z: (round(z.real, 8), round(z.imag, 8)))
                want = sorted(s, key=lambda z: (round(z.real, 8), round(z.imag, 8)))
                for a, b in zip(got, want):
                    assert abs(a - b) < 1e-10

    @pytest.mark.parametrize("lam", [complex("nan"), complex("inf"),
                                     complex(0, float("-inf"))],
                             ids=["nan", "inf", "-inf-imag"])
    def test_nonfinite_eigenvalue_rejected(self, lam):
        with pytest.raises(ValueError, match="not finite"):
            params_from_eigenvalue(2, lam)

    def test_deterministic_ordering(self):
        r1 = solve_unit_cubic(0.3 + 0.1j, 0.3 - 0.1j)
        r2 = solve_unit_cubic(0.3 + 0.1j, 0.3 - 0.1j)
        assert r1 == r2
        assert sorted(r1, key=lambda z: (-abs(z), cmath.phase(z))) == list(r1)


class TestCoefficients:
    def test_b_sum_is_one(self):
        rng = random.Random(13)
        for _ in range(1000):
            s = unimodular_generic(rng)
            total = sum(b_coefficients(2, s).values())
            assert abs(total - 1) < 1e-9

    def test_b_row_sums(self):
        # row sums of B recover the bottom-row coefficients
        # A_i0 = (s_i - q s_j)(s_i - q s_k) / [(s_i - s_j)(s_i - s_k)(q^2+q+1)]
        rng = random.Random(17)
        q = 3
        for _ in range(100):
            s = unimodular_generic(rng)
            bs = b_coefficients(q, s)
            for i in range(3):
                j, k = [x for x in range(3) if x != i]
                a0 = ((s[i] - q * s[j]) * (s[i] - q * s[k])
                      / ((s[i] - s[j]) * (s[i] - s[k]) * (q * q + q + 1)))
                assert abs(bs[(i, j)] + bs[(i, k)] - a0) < 1e-10


class TestClosedFormsAgainstRecurrence:
    """The forward solve from f(v00)=1 is the independent oracle."""

    def check(self, q, s, depth=8, tol=1e-9):
        p = SpectralParam.from_triple(q, *s)
        pair = eigenvalue_pair(q, p)
        oracle = forward_solve(q, pair.lambda_plus, pair.lambda_minus, depth)
        grid = eigenfunction_grid(q, p, depth)
        for (m, n), want in oracle.items():
            got = grid[(m, n)]
            assert abs(got - want) <= tol * (1 + abs(want)), (q, s, m, n)

    def test_generic(self):
        rng = random.Random(21)
        for q in (2, 3, 5):
            for _ in range(10):
                self.check(q, unimodular_generic(rng))

    def test_double(self):
        for q in (2, 3, 5, 7, 11, 13):
            for th in (0.4, 1.1, 2.7):
                self.check(q, unimodular_double(th))

    def test_triple(self):
        for q in (2, 3, 5, 7, 11, 13):
            for k in range(3):
                self.check(q, triple_root(k))

    @pytest.mark.parametrize("q", [2, 3, 5, 7])
    def test_triple_against_the_exact_solve(self, q):
        # w = 1: lambda+ = lambda- = 3q, solved in Fractions; the float
        # coefficients of the expansion leave each shell within 1e-13 of
        # its largest exact value
        depth = 12
        grid = eigenfunction_grid(q, SpectralParam.from_triple(q, 1, 1, 1), depth)
        oracle = forward_solve(q, Fraction(3 * q), Fraction(3 * q), depth)
        for m in range(depth + 1):
            top = max(abs(oracle[(m, n)]) for n in range(m + 1))
            for n in range(m + 1):
                assert abs(grid[(m, n)] - oracle[(m, n)]) <= 1e-13 * top, (q, m, n)

    def test_sigma1_family(self):
        for th in (0.0, 0.7, 2.1):
            self.check(2, sigma1_triple(2, th))

    def test_real_nonunimodular_family(self):
        # the only real triples in the parameter set are the inverse-closed
        # ones (c, 1, 1/c); off the unit circle they are generic unless c=q
        for q in (2, 3):
            for c in (3.0, 1.7, 0.4):
                if abs(c - q) < 1e-9:
                    continue
                p = SpectralParam.from_triple(q, c, 1.0, 1.0 / c)
                assert p.stratum is Stratum.GENERIC
                self.check(q, (c, 1.0, 1.0 / c), depth=6, tol=1e-8)

    def test_rotated_pairing_family(self):
        # (sqrt(q) e^{ia}, e^{-2ia}, e^{ia}/sqrt(q)) rotated by a cube root
        # of unity stays in the parameter set
        q, th = 2, 0.45
        w = cmath.exp(2j * cmath.pi / 3)
        s = tuple(w * z for z in sigma1_triple(q, th))
        self.check(q, s, depth=7)

    def test_normalization_and_first_shell(self):
        rng = random.Random(31)
        q = 2
        for _ in range(25):
            s = unimodular_generic(rng)
            p = SpectralParam.from_triple(q, *s)
            assert eigenfunction_value(q, p, 0, 0) == pytest.approx(1.0)
            want = q * sum(s) / (q * q + q + 1)
            assert eigenfunction_value(q, p, 1, 0) == pytest.approx(want)

    def test_triple_value_frozen(self):
        # q=2 value at (2,1), frozen from the forward-solve oracle: 8/21
        p = SpectralParam.from_triple(2, 1, 1, 1)
        assert eigenfunction_value(2, p, 2, 1) == pytest.approx(8 / 21, abs=1e-12)
        oracle = forward_solve(2, Fraction(6), Fraction(6), 3)
        assert oracle[(2, 1)] == Fraction(8, 21)

    def test_permutation_symmetry(self):
        q = 2
        s = unimodular_generic(random.Random(37))
        perms = [(0, 1, 2), (1, 2, 0), (2, 0, 1), (1, 0, 2)]
        base = eigenfunction_grid(q, SpectralParam.from_triple(q, *s), 6)
        for pidx in perms[1:]:
            sp = tuple(s[i] for i in pidx)
            other = eigenfunction_grid(q, SpectralParam.from_triple(q, *sp), 6)
            assert np.allclose(base.values, other.values)


    @pytest.mark.parametrize("q", [2, 3])
    def test_double_root_position_is_irrelevant(self, q):
        # the repeated root first, second or third: each picks another
        # branch of _split_double, and the grids agree bit for bit
        a, b = cmath.exp(1.4j), cmath.exp(-0.7j)
        orders = [(a, b, b), (b, a, b), (b, b, a)]
        assert {eigen._split_double(s) for s in orders} == {(a, b)}
        grids = []
        for s in orders:
            p = SpectralParam.from_triple(q, *s)
            assert p.stratum is Stratum.DOUBLE
            grids.append(eigenfunction_grid(q, p, 40).values.tobytes())
        assert grids[0] == grids[1] == grids[2]


def stratum_params(q):
    """One parameter per stratum, plus the sigma1 cusp (a generic parameter
    with three structural-zero B coefficients)."""
    params = {
        "generic": unimodular_generic(random.Random(5)),
        "double": unimodular_double(0.7),
        "triple": triple_root(1),
        "trivial": trivial_triple(q, 2),
        "sigma1_cusp": sigma1_triple(q, 0.0),
    }
    return {k: SpectralParam.from_triple(q, *s) for k, s in params.items()}


class TestEvaluator:
    """The closed forms run through one evaluator over index arrays; powers
    are gathered from one table per base."""

    @pytest.mark.parametrize("q", [2, 3, 5])
    def test_value_is_the_grid_entry(self, q):
        depth = 40
        points = [(0, 0), (1, 0), (1, 1), (2, 1), (17, 0), (17, 9), (17, 17),
                  (depth, 0), (depth, 23), (depth, depth)]
        params = stratum_params(q)
        assert {p.stratum for p in params.values()} == set(Stratum)
        for name, p in params.items():
            grid = eigenfunction_grid(q, p, depth)
            for m, n in points:
                assert eigenfunction_value(q, p, m, n) == grid[(m, n)], (name, m, n)

    @pytest.mark.parametrize("q", [2, 3, 5, 11])
    def test_expansion_is_the_closed_form(self, q):
        # the residual sums' expansion q^m sum_t p_t(m - n, n) x_t^m y_t^n
        # against the term tables, in every stratum
        degree = {Stratum.GENERIC: 0, Stratum.TRIVIAL: 0, Stratum.DOUBLE: 1,
                  Stratum.TRIPLE: 3}
        points = [(0, 0), (1, 0), (1, 1), (2, 1), (17, 0), (17, 9), (17, 17),
                  (40, 23), (60, 60)]
        for name, p in stratum_params(q).items():
            terms = eigen._expansion(q, p)
            assert max(a + b for poly, _, _ in terms for a, b in poly) == degree[
                p.stratum], name
            for m, n in points:
                k = m - n
                got = q ** m * sum(
                    sum(c * k ** a * n ** b for (a, b), c in poly.items())
                    * x ** m * y ** n for poly, x, y in terms)
                want = eigenfunction_value(q, p, m, n)
                assert got == pytest.approx(want, rel=1e-12), (name, m, n)

    @pytest.mark.parametrize("depth", [30, 400])
    def test_gathered_powers_are_bit_identical(self, depth):
        m, n = _grid_mn(depth)
        s = sigma1_triple(11, 0.3)
        # 11^m overflows to inf from m = 296
        with np.errstate(over="ignore", invalid="ignore"):
            for x in (*s, cmath.exp(2.1j), 11.0, 2.0, 0.95):
                for e in (m, n, m + n):
                    table = np.power(x, np.arange(e.max() + 1))
                    got, want = table[e], np.power(x, e)
                    assert got.tobytes() == want.tobytes(), x

    def test_negative_depth_names_the_depth(self):
        p = SpectralParam.from_triple(2, *triple_root(0))
        with pytest.raises(ValueError, match="depth"):
            eigenfunction_grid(2, p, -1)


class TestAgainstOracles:
    """The closed forms and residuals gather their term tables and must
    reproduce the allocating oracles bit for bit, non-finite grids
    included; nothing they return changes under later calls."""

    @staticmethod
    def params(q):
        w = cmath.exp(2j * cmath.pi / 3)
        centre = SpectralParam.from_triple(q, 1.0, w, w * w)
        return {**stratum_params(q), "sigma2_centre": centre}

    # the deepest grid on which q^depth is finite
    DEEPEST = {2: 1023, 3: 646, 5: 441, 11: 296}

    @pytest.mark.parametrize("q", [2, 3, 5, 11])
    def test_grids_match_the_allocating_oracle(self, q):
        with np.errstate(all="ignore"):
            # the triple's tables and w^m from the 3-cycle, to the last
            # depth at which q^m is finite
            depth = self.DEEPEST[q]
            finite = np.isfinite(np.power(float(q), [depth, depth + 1]))
            assert finite.tolist() == [True, False]
            for k in range(3):
                p = SpectralParam.from_triple(q, *triple_root(k))
                want = closed_form_ref(q, p, *_grid_mn(depth)).tobytes()
                got = eigenfunction_grid(q, p, depth).values.tobytes()
                assert got == want, ("triple", k, depth)
            for name, p in self.params(q).items():
                # 480 is above numpy's temporary-elision size (256 KiB,
                # depth >= 180), where a complex x * tmp is computed as
                # tmp * x and differs from the oracle in the last bit
                for depth in (0, 1, 2, 30, 61, 480):
                    want = closed_form_ref(q, p, *_grid_mn(depth)).tobytes()
                    got = eigenfunction_grid(q, p, depth).values.tobytes()
                    assert got == want, (name, depth)
                    if depth >= 2:
                        want = grid_residual_ref(q, p, damped_ref(q, p, 0.0, depth))
                        assert recurrence_residual(q, p, depth) == want, (name, depth)
                # eigenfunction_value evaluates length-1 index arrays
                for m, n in ((0, 0), (5, 3), (61, 17), (480, 480)):
                    index = np.array([m]), np.array([n])
                    got = np.array([eigenfunction_value(q, p, m, n)]).tobytes()
                    assert got == closed_form_ref(q, p, *index).tobytes(), (name, m, n)

    @pytest.mark.parametrize("q, eps_list, depth", [
        (2, (0.2, 0.1, 0.05), 530), (3, (0.2, 0.1), 300), (5, (0.2, 0.1), 225)],
        ids=["2", "3", "5"])
    def test_sweep_matches_the_allocating_oracle(self, q, eps_list, depth):
        # the double and triple sums against the float sweep on a grid deep
        # enough that its masked shell and its underflowing weights q^(-2m)
        # drop no more than rounding (the generic gate is in test_spectra)
        params = [SpectralParam.from_triple(q, *unimodular_double(th))
                  for th in (0.7, 2.0)]
        params += [SpectralParam.from_triple(q, *triple_root(k)) for k in range(3)]
        for p in params:
            assert p.stratum in (Stratum.DOUBLE, Stratum.TRIPLE), p.s
            for eps, r in zip(eps_list, residual_sweep(q, p, eps_list)):
                want = damped_report_ref(q, p, eps, depth)
                assert not isinstance(want, float), (p.s, eps)  # not truncated
                got = (r.residual_plus, r.residual_minus, r.norm)
                assert got == pytest.approx(want[:3], rel=1e-12), (p.s, eps)
                assert r.truncation_fraction == 0.0

    def test_results_are_fresh_arrays(self):
        """Returned grids are fresh arrays: later calls leave them as they
        were."""
        q = 5
        kept = {}
        with np.errstate(all="ignore"):
            for name, p in self.params(q).items():
                grid = eigenfunction_grid(q, p, 30)
                kept[name] = (grid, grid.values.tobytes())
            # later calls at other depths and strata
            for p in self.params(q).values():
                for depth in (2, 61, 480):
                    recurrence_residual(q, p, depth)
            residual_sweep(2, self.params(2)["sigma1_cusp"], [0.2, 0.1])
            norm_divergence(3, self.params(3)["generic"], [10, 40])
        for name, (grid, grid_bytes) in kept.items():
            assert grid.values.tobytes() == grid_bytes, name

    def test_threads_keep_their_own_blocks(self):
        """Concurrent threads get the single-threaded results: numpy
        releases the interpreter lock inside take and the ufuncs, so
        intermediates shared between calls would be overwritten."""
        params = list(self.params(2).values())
        want = [(eigenfunction_grid(2, p, 61).values.tobytes(),
                 recurrence_residual(2, p, 61)) for p in params]
        errors = []

        def work(offset):
            for k in range(3 * len(params)):
                i = (k + offset) % len(params)
                got = (eigenfunction_grid(2, params[i], 61).values.tobytes(),
                       recurrence_residual(2, params[i], 61))
                if got != want[i]:
                    errors.append(i)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=work, args=(k,)) for k in range(4)]
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(w.is_alive() for w in workers)
        assert errors == []


class TestBlocks:
    """The closed forms and residuals at block sizes that end
    blocks inside every grid (see test_operator.TestBlocks), against the
    allocating oracles; NaN matches NaN (``same_bits``)."""

    @pytest.fixture(params=[1, 2, 7, 64])
    def block(self, request, monkeypatch):
        monkeypatch.setattr(operator, "_BLOCK", request.param)
        return request.param

    @pytest.mark.parametrize("q", [2, 3, 11])
    def test_grids_damping_and_residuals(self, block, q):
        params = {**TestAgainstOracles.params(q),
                  "cube_root": SpectralParam.from_triple(q, *triple_root(2))}
        for name, p in params.items():
            for depth in (2, 23):
                want = closed_form_ref(q, p, *_grid_mn(depth))
                got = eigenfunction_grid(q, p, depth).values
                assert same_bits(got, want), (name, depth)
                want = grid_residual_ref(q, p, damped_ref(q, p, 0.0, depth))
                assert recurrence_residual(q, p, depth) == want, (name, depth)
            for m, n in ((0, 0), (5, 3), (23, 17)):
                index = np.array([m]), np.array([n])
                got = np.array([eigenfunction_value(q, p, m, n)])
                assert same_bits(got, closed_form_ref(q, p, *index)), (name, m, n)

    @pytest.mark.parametrize("q", [2, 11])
    def test_residual_of_nonfinite_grids(self, block, q):
        # a NaN row makes its direction's maximum NaN, over blocks as over
        # all rows, and max(worst, nan) then drops it, as in the oracle
        # (ROADMAP item 1's defect)
        rng = np.random.default_rng(block)
        depth = 23
        space = L2Space(q, depth)
        for name, p in TestAgainstOracles.params(q).items():
            values = eigenfunction_grid(q, p, depth).values.copy()
            values[rng.integers(0, values.size, 9)] = [
                np.nan, np.inf, -np.inf, 1j * np.inf, complex(np.nan, 1.0),
                complex(0.0, np.nan), 1e308, -1e308, 0.0]
            f = GridFunction(depth, values)
            with np.errstate(all="ignore"):
                want = grid_residual_ref(q, p, f)
                assert eigen._grid_residual(space, p, f) == want, name

    def test_temporaries_are_block_sized(self, monkeypatch):
        # a grid, and for the residual its image, are the only T-length
        # arrays; the rest is O(_BLOCK) plus O(depth) tables and fix rows
        block, depth = 1024, 480
        monkeypatch.setattr(operator, "_BLOCK", block)
        size = tri_size(depth)
        slack = 4 * 16 * block + 512 * depth
        assert slack < 8 * size
        for name, p in TestAgainstOracles.params(3).items():
            grid = traced_peak(lambda: eigenfunction_grid(3, p, depth))
            residual = traced_peak(lambda: recurrence_residual(3, p, depth))
            assert grid <= 16 * size + slack, name
            assert residual <= 32 * size + slack, name


class TestResidualContract:
    def test_depth_30_below_1e9(self):
        rng = random.Random(41)
        q = 2
        for _ in range(5):
            p = SpectralParam.from_triple(q, *unimodular_generic(rng))
            assert recurrence_residual(q, p, 30) < 1e-9
        p = SpectralParam.from_triple(q, *unimodular_double(0.6))
        assert recurrence_residual(q, p, 30) < 1e-9
        p = SpectralParam.from_triple(q, *triple_root(0))
        assert recurrence_residual(q, p, 30) < 1e-9

    @pytest.mark.parametrize("q", [2, 3])
    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_triple_depth_480(self, q, k):
        # w^(m+n) comes from the 3-cycle (1, w, w^2); per-exponent powers of
        # the rounded w read 5.7e-10 (q=2) and 2.3e-9 (q=3) for w != 1
        p = SpectralParam.from_triple(q, *triple_root(k))
        assert p.stratum is Stratum.TRIPLE
        assert recurrence_residual(q, p, 480) < 1e-10

    @pytest.mark.parametrize("q", [2, 3])
    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_trivial_depth_480(self, q, k):
        # the same 3-cycle; per-exponent powers read 1.4e-13 for w != 1
        p = SpectralParam.from_triple(q, *trivial_triple(q, k))
        assert p.stratum is Stratum.TRIVIAL
        assert recurrence_residual(q, p, 480) < 1e-14


class TestStratumLimits:
    def test_generic_to_double(self):
        q, th = 2, 0.8
        target = eigenfunction_grid(2, SpectralParam.from_triple(q, *unimodular_double(th)), 10)
        previous = None
        for delta in (1e-2, 1e-3, 1e-4):
            s2 = cmath.exp(-1j * (th - delta))
            s3 = cmath.exp(-1j * (th + delta))
            s1 = 1 / (s2 * s3)
            p = SpectralParam(s=(s1, s2, s3), stratum=Stratum.GENERIC)
            got = eigenfunction_grid(q, p, 10)
            dev = np.max(np.abs(got.values - target.values) / (1 + np.abs(target.values)))
            if previous is not None:
                assert dev < previous / 5  # O(delta) decay across decades
            previous = dev

    def test_double_to_triple(self):
        q = 2
        target = eigenfunction_grid(q, SpectralParam.from_triple(q, 1, 1, 1), 10)
        previous = None
        for th in (1e-2, 1e-3, 1e-4):
            p = SpectralParam(s=unimodular_double(th), stratum=Stratum.DOUBLE)
            got = eigenfunction_grid(q, p, 10)
            dev = np.max(np.abs(got.values - target.values) / (1 + np.abs(target.values)))
            if previous is not None:
                assert dev < previous / 5
            previous = dev


class TestDamped:
    def test_bound_by_b_sum(self):
        q = 2
        s = unimodular_generic(random.Random(43))
        p = SpectralParam.from_triple(q, *s)
        bsum = sum(abs(b) for b in b_coefficients(q, s).values())
        f = eigenfunction_grid(q, p, 25)
        m = np.concatenate([np.full(m + 1, m) for m in range(26)])
        bound = float(q) ** m * bsum
        assert np.all(np.abs(f.values) <= bound * (1 + 1e-9))

    def test_norm_grows_as_eps_shrinks(self):
        q = 2
        p = SpectralParam.from_triple(q, *unimodular_generic(random.Random(47)))
        norms = [r.norm for r in residual_sweep(q, p, (0.4, 0.2, 0.1, 0.05))]
        assert all(b > a for a, b in zip(norms, norms[1:]))


class TestExactTrivial:
    def test_eisenstein_ring(self):
        w = Eisenstein.omega_power(1)
        assert w * w == Eisenstein.omega_power(2)
        assert w * w * w == 1
        assert w.conjugate() == Eisenstein.omega_power(2)
        assert (w + w.conjugate()) == -1
        assert w * w.conjugate() == 1
        assert (Fraction(3, 2) * w) / 3 == Eisenstein(0, Fraction(1, 2))

    @pytest.mark.parametrize("q", [2, 3])
    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_exact_eigen_identity(self, q, k):
        depth = 8
        f = trivial_eigenfunction_exact(k, depth)
        lam_p = (q * q + q + 1) * Eisenstein.omega_power(k)
        lam_m = (q * q + q + 1) * Eisenstein.omega_power(-k)
        plus, masked_p = apply_exact(q, depth, +1, f)
        minus, masked_m = apply_exact(q, depth, -1, f)
        for i, val in enumerate(f):
            if not masked_p[i]:
                assert plus[i] == lam_p * val
            if not masked_m[i]:
                assert minus[i] == lam_m * val

    @pytest.mark.parametrize("q", [2, 3, 5])
    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_exact_forward_solve_matches(self, q, k):
        # the trivial closed form against the exact-arithmetic oracle; the
        # float oracle is too ill-conditioned here (growth modes ~ (q^2+q+1)^m)
        lam_p = (q * q + q + 1) * Eisenstein.omega_power(k)
        lam_m = (q * q + q + 1) * Eisenstein.omega_power(-k)
        oracle = forward_solve(q, lam_p, lam_m, 6)
        for (m, n), val in oracle.items():
            assert val == Eisenstein.omega_power(k * (m + n))
        p = SpectralParam.from_triple(q, *trivial_triple(q, k))
        assert p.stratum is Stratum.TRIVIAL
        grid = eigenfunction_grid(q, p, 6)
        for (m, n), val in oracle.items():
            assert abs(grid[(m, n)] - complex(val)) < 1e-12
