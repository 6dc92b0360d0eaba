import random
from fractions import Fraction

import numpy as np
import pytest

from a2quotient.operator import (
    DimensionMismatch, GridFunction, L2Space, ZeroFunction, apply_exact,
    inner_exact, tri_size, vertex_index,
)
from a2quotient.quotient import Vertex, vertex_weight
from oracles import expected_rows, trivial_norm_sq_limit, weight_of


class TestGridFunction:
    def test_indexing(self):
        f = GridFunction.indicator(4, Vertex(2, 1))
        assert f[(2, 1)] == 1.0
        assert f[(2, 0)] == 0.0
        with pytest.raises(KeyError):
            f[(5, 0)]

    def test_depth_check(self):
        with pytest.raises(DimensionMismatch):
            GridFunction(3, np.zeros(5))

    def test_packing_order(self):
        assert vertex_index(0, 0) == 0
        assert vertex_index(1, 0) == 1
        assert vertex_index(1, 1) == 2
        assert vertex_index(3, 2) == 8
        assert tri_size(3) == 10

    def test_dict_roundtrip(self):
        f = GridFunction.indicator(3, Vertex(2, 1))
        d = f.to_dict()
        assert len(d) == tri_size(3)
        assert d[Vertex(2, 1)] == 1.0
        g = GridFunction.from_dict(3, d)
        assert np.array_equal(f.values, g.values)


class TestApply:
    def test_indicator_example(self):
        # raising operator picks up the v10 mass at v00 with weight 7
        space = L2Space(2, 4)
        f = GridFunction.indicator(4, Vertex(1, 0))
        af, mask = space.apply(+1, f)
        assert af[(0, 0)] == pytest.approx(7.0)
        assert not mask[vertex_index(0, 0)]

    def test_zero(self):
        space = L2Space(2, 5)
        af, _ = space.apply(+1, GridFunction.zeros(5))
        assert np.all(af.values == 0)

    def test_constant_function_is_trivial_eigenfunction(self):
        q, M = 2, 30
        space = L2Space(q, M)
        ones = GridFunction(M, np.ones(tri_size(M)))
        af, mask = space.apply(+1, ones)
        assert np.allclose(af.values[~mask], 7.0)
        am, mask2 = space.apply(-1, ones)
        assert np.allclose(am.values[~mask2], 7.0)

    def test_mask_is_last_shell(self):
        space = L2Space(3, 6)
        _, mask = space.apply(-1, GridFunction.zeros(6))
        ms = np.nonzero(mask)[0]
        assert set(ms) == set(range(vertex_index(6, 0), tri_size(6)))

    def test_linearity(self):
        rng = np.random.default_rng(5)
        space = L2Space(3, 8)
        a = GridFunction(8, rng.normal(size=tri_size(8)) + 1j * rng.normal(size=tri_size(8)))
        b = GridFunction(8, rng.normal(size=tri_size(8)))
        z = 0.7 - 2.1j
        lhs, _ = space.apply(+1, GridFunction(8, a.values * z + b.values))
        ra, _ = space.apply(+1, a)
        rb, _ = space.apply(+1, b)
        assert np.allclose(lhs.values, z * ra.values + rb.values)

    def test_matches_exact_rows(self):
        q, M = 3, 7
        space = L2Space(q, M)
        rng = random.Random(11)
        fd = {Vertex(m, n): rng.randrange(-5, 6)
              for m in range(M + 1) for n in range(m + 1)}
        f = GridFunction.from_dict(M, fd)
        for sign in (+1, -1):
            got, _ = space.apply(sign, f)
            want, _ = apply_exact(q, M, sign, fd)
            for v, val in want.items():
                assert got[(v.m, v.n)] == pytest.approx(val)

    @pytest.mark.parametrize("q", [2, 3, 5])
    @pytest.mark.parametrize("sign", [+1, -1])
    def test_indicator_columns_match_literal_table(self, q, sign):
        # (A e_u)(v) is the coefficient of u in the row at v, so the images
        # of all indicators are the columns of the truncated table
        M = 6
        space = L2Space(q, M)
        verts = [Vertex(m, n) for m in range(M + 1) for n in range(m + 1)]
        table = np.zeros((len(verts), len(verts)))
        for i, v in enumerate(verts):
            row = expected_rows(q, v)[0 if sign == +1 else 1]
            for (m, n), c in row.items():
                if m <= M:
                    table[i, vertex_index(m, n)] = c
        for j, u in enumerate(verts):
            image, mask = space.apply(sign, GridFunction.indicator(M, u))
            assert np.array_equal(image.values, table[:, j]), u
            assert np.array_equal(np.nonzero(mask)[0],
                                  np.arange(vertex_index(M, 0), len(verts)))


class TestInner:
    def test_indicator_weight(self):
        space = L2Space(2, 3)
        f = GridFunction.indicator(3, Vertex(0, 0))
        assert space.inner(f, f) == pytest.approx(1 / 7)
        assert space.norm(f) == pytest.approx((1 / 7) ** 0.5)

    def test_disjoint_supports(self):
        space = L2Space(2, 3)
        f = GridFunction.indicator(3, Vertex(1, 0))
        g = GridFunction.indicator(3, Vertex(2, 0))
        assert space.inner(f, g) == 0

    def test_weights_match_exact(self):
        for q in (2, 3, 5):
            space = L2Space(q, 12)
            for m in range(13):
                for n in range(m + 1):
                    f = GridFunction.indicator(12, Vertex(m, n))
                    assert space.inner(f, f) == pytest.approx(
                        float(weight_of(q, m, n)), rel=1e-14)
                    assert weight_of(q, m, n) == vertex_weight(q, m, n)

    def test_constant_norm_limit(self):
        # total mass of the constant function tends to 8/7 at q=2
        q, M = 2, 40
        space = L2Space(q, M)
        ones = GridFunction(M, np.ones(tri_size(M)))
        assert space.norm(ones) ** 2 == pytest.approx(8 / 7, abs=1e-12)
        assert trivial_norm_sq_limit(2) == Fraction(8, 7)

    def test_dimension_mismatch(self):
        space = L2Space(2, 4)
        with pytest.raises(DimensionMismatch):
            space.inner(GridFunction.zeros(4), GridFunction.zeros(5))


class TestAdjointness:
    def test_exact_zero(self):
        space = L2Space(2, 12)
        assert space.adjoint_defect(trials=20, rng=random.Random(1)) == 0
        space3 = L2Space(3, 10)
        assert space3.adjoint_defect(trials=20, rng=random.Random(2)) == 0

    def test_float_small(self):
        space = L2Space(2, 20)
        d = space.adjoint_defect(trials=25, rng=random.Random(3), exact=False)
        assert d < 1e-12

    def test_origin_indicator(self):
        space = L2Space(2, 4)
        f = GridFunction.indicator(4, Vertex(0, 0))
        af, _ = space.apply(+1, f)
        ag, _ = space.apply(-1, f)
        assert space.inner(af, f) == 0
        assert space.inner(ag, f) == 0


class TestNormBoundAndCommutation:
    @pytest.mark.parametrize("q", [2, 3])
    def test_operator_norm_bound(self, q):
        rng = np.random.default_rng(17)
        space = L2Space(q, 25)
        bound = q * q + q + 1
        for _ in range(20):
            f = GridFunction(25, rng.normal(size=tri_size(25))
                             + 1j * rng.normal(size=tri_size(25)))
            for sign in (+1, -1):
                af, _ = space.apply(sign, f)
                assert space.norm(af) <= bound * space.norm(f) * (1 + 1e-12)

    def test_commutator_vanishes_on_interior(self):
        q, M = 2, 14
        space = L2Space(q, M)
        rng = random.Random(23)
        fd = {Vertex(m, n): Fraction(rng.randrange(-9, 10))
              for m in range(M - 1) for n in range(m + 1)}
        pm, _ = apply_exact(q, M, -1, apply_exact(q, M, +1, fd)[0])
        mp, _ = apply_exact(q, M, +1, apply_exact(q, M, -1, fd)[0])
        for v in set(pm) | set(mp):
            assert pm.get(v, Fraction(0)) == mp.get(v, Fraction(0))


class TestNormEstimate:
    def test_small_depth_below_bound(self):
        space = L2Space(2, 2)
        assert space.norm_estimate(50) <= 7 + 1e-9

    def test_converges_to_bound(self):
        est = L2Space(2, 60).norm_estimate(60)
        assert est == pytest.approx(7.0, rel=1e-6)
        assert est <= 7 + 1e-9

    def test_monotone_in_depth(self):
        vals = [L2Space(2, M).norm_estimate(40) for M in (4, 8, 16, 32)]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_q3(self):
        assert L2Space(3, 40).norm_estimate(40) == pytest.approx(13.0, rel=1e-4)


class TestRayleigh:
    def test_trivial(self):
        q, M = 2, 25
        space = L2Space(q, M)
        ones = GridFunction(M, np.ones(tri_size(M)))
        assert space.rayleigh(+1, ones) == pytest.approx(7.0, rel=1e-10)

    def test_damped_triple_family_approaches_3q(self):
        from a2quotient.eigen import SpectralParam, damped_grid
        q = 2
        p = SpectralParam.from_triple(q, 1, 1, 1)
        gaps = []
        for eps in (0.2, 0.1, 0.05):
            M = int(12 / eps)
            rq = L2Space(q, M).rayleigh(+1, damped_grid(q, p, eps, M))
            gaps.append(abs(rq - 3 * q))
        assert all(b < a for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] < 0.2

    def test_single_vertex_no_self_loop(self):
        space = L2Space(2, 6)
        f = GridFunction.indicator(6, Vertex(3, 1))
        assert space.rayleigh(+1, f) == 0

    def test_zero_function(self):
        space = L2Space(2, 4)
        with pytest.raises(ZeroFunction):
            space.rayleigh(+1, GridFunction.zeros(4))


class TestExactHelpers:
    def test_inner_exact_weights(self):
        f = {Vertex(0, 0): Fraction(1)}
        assert inner_exact(2, f, f) == Fraction(1, 7)

    def test_apply_exact_masks(self):
        q, M = 2, 3
        f = {Vertex(3, 1): Fraction(1)}
        out, masked = apply_exact(q, M, +1, f)
        assert all(v.m <= M for v in out)
        assert all(v.m == M for v in masked)
