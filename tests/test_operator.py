import random
import threading
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from a2quotient import eigen, operator
from a2quotient.operator import (
    DimensionMismatch, GridFunction, L2Space, ZeroFunction, apply_exact,
    inner_exact, tri_size, vertex_index,
)
from a2quotient.quotient import Vertex, vertex_weight
from oracles import (
    Eisenstein, expected_rows, gather_ref, trivial_norm_sq_limit, weight_of,
)


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
        fd = np.array([rng.randrange(-5, 6) for _ in range(tri_size(M))],
                      dtype=object)
        f = GridFunction(M, fd)
        for sign in (+1, -1):
            got, mask = space.apply(sign, f)
            want, want_mask = apply_exact(q, M, sign, fd)
            assert np.array_equal(mask, want_mask)
            for i, val in enumerate(want):
                assert got.values[i] == pytest.approx(val)

    def test_kernel_cache_is_bounded(self):
        pairs = [(q, depth) for q in (2, 3, 5) for depth in range(2, 24)][:65]
        for q, depth in pairs:
            operator._kernel(q, depth, +1)
        assert operator._kernel.cache_info().currsize <= 64
        for cache in (operator._grid_mn, operator._weights, vertex_weight):
            assert cache.cache_info().maxsize is not None
        # the scratch pool: a fresh thread starts from an empty one; sweeps
        # to depth 480 keep a fixed set of blocks of at most
        # tri_size(480) + 1 complex entries
        from a2quotient.eigen import OMEGA, SpectralParam
        from a2quotient.spectra import non_ramanujan_witness, residual_sweep

        def sweeps():
            non_ramanujan_witness(2)
            first = {k: v.nbytes for k, v in vars(operator._POOL).items()}
            centre = SpectralParam.from_triple(3, 1.0, OMEGA, OMEGA * OMEGA)
            residual_sweep(3, centre, (0.2, 0.1, 0.05, 0.025))
            non_ramanujan_witness(3)
            sizes.append(first)
            sizes.append({k: v.nbytes for k, v in vars(operator._POOL).items()})

        sizes = []
        worker = threading.Thread(target=sweeps)
        worker.start()
        worker.join(timeout=60)
        assert not worker.is_alive()
        first, last = sizes
        assert first == last
        assert set(first) == {"padded", "index", "column", "product", "image",
                              "absolute"}
        assert max(first.values()) <= 16 * (tri_size(480) + 1)

    def test_scratch_pool_is_per_thread(self):
        blocks = []

        def grab():
            blocks.append(operator._scratch("column", 8, np.float64))

        worker = threading.Thread(target=grab)
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()
        grab()
        assert not np.shares_memory(*blocks)

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


def seeded_values(rng, size):
    """Complex data whose parts are 30% signed zeros, 1% infinities and
    1% NaN, set part by part so that -0.0 survives."""
    z = np.empty(size, dtype=np.complex128)
    for part in ("real", "imag"):
        x = rng.standard_normal(size)
        u = rng.random(size)
        x[u < 0.15] = -0.0
        x[(u >= 0.15) & (u < 0.30)] = 0.0
        x[(u >= 0.30) & (u < 0.305)] = np.inf
        x[(u >= 0.305) & (u < 0.31)] = -np.inf
        x[(u >= 0.31) & (u < 0.32)] = np.nan
        setattr(z, part, x)
    return z


class TestGather:
    @pytest.mark.parametrize("q", [2, 3, 5, 7, 11])
    @pytest.mark.parametrize("depth", [2, 3, 10, 40])
    def test_bit_identical_to_row_major_reference(self, q, depth):
        rng = np.random.default_rng(100 * q + depth)
        space = L2Space(q, depth)
        for sign in (+1, -1):
            f = GridFunction(depth, seeded_values(rng, tri_size(depth)))
            with np.errstate(invalid="ignore", over="ignore"):
                got, _ = space.apply(sign, f)
                want = gather_ref(q, depth, sign, f.values)
                pooled = eigen._apply_into(
                    q, depth, sign, f.values, np.empty(tri_size(depth), complex))
            assert got.values.tobytes() == want.tobytes()
            assert pooled.tobytes() == want.tobytes()
            exact = [Fraction(int(a), int(b)) for a, b in zip(
                rng.integers(-50, 50, tri_size(depth)),
                rng.integers(1, 9, tri_size(depth)))]
            got_exact, _ = apply_exact(q, depth, sign, exact)
            want_exact = gather_ref(q, depth, sign, np.array(exact, dtype=object))
            assert [(type(x), x) for x in got_exact] == \
                [(type(x), x) for x in want_exact]

    def test_three_negative_zero_products_sum_to_plus_zero(self):
        # c * (-0.0 + 1j) has real part -0.0 for every coefficient c
        M = 6
        f = GridFunction(M, np.full(tri_size(M), complex(-0.0, 1.0)))
        for sign in (+1, -1):
            got, _ = L2Space(2, M).apply(sign, f)
            assert not np.signbit(got.values.real).any()

    @pytest.mark.parametrize("sign", [+1, -1])
    def test_absent_slots_read_a_true_zero(self, sign):
        # a slot pointing at the origin with coefficient 0 would give
        # 0 * inf = NaN in every row with an absent slot
        q, M = 3, 12
        values = np.random.default_rng(4).standard_normal(tri_size(M)) + 0j
        values[0] = np.inf
        with np.errstate(invalid="ignore"):
            got, _ = L2Space(q, M).apply(sign, GridFunction(M, values))
        reads_origin = np.array([
            (0, 0) in expected_rows(q, Vertex(m, n))[0 if sign == +1 else 1]
            for m in range(M + 1) for n in range(m + 1)])
        assert reads_origin.sum() == 1
        assert np.isfinite(got.values[~reads_origin]).all()

    def test_int32_guard_names_the_limit(self, monkeypatch):
        def no_grid(depth):
            raise AssertionError(f"grid of depth {depth} allocated")

        monkeypatch.setattr(operator, "_grid_mn", no_grid)
        with pytest.raises(ValueError, match="int32"):
            L2Space(2, 70_000)
        with pytest.raises(ValueError, match="int32"):
            apply_exact(2, 70_000, +1, [])
        operator._check_space(2, 65_534)  # 2147450880 vertices + sentinel
        with pytest.raises(ValueError, match="2147483647"):
            operator._check_space(2, 65_535)


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

    def test_weight_first_survives_huge_values(self):
        # 3^m reaches 1e229 at depth 480 and its square overflows from
        # m = 323, while each w(v) |f(v)|^2 stays of order one
        q, M = 3, 480
        space = L2Space(q, M)
        m, _ = operator._grid_mn(M)
        powers = np.power(3.0, np.arange(M + 1))
        f = GridFunction(M, powers[m])
        # exact sum over the stored float weights and values
        pairs = Counter(zip(m.tolist(), space.weights.tolist()))
        want = float(sum(k * Fraction(w) * Fraction(powers[mm]) ** 2
                         for (mm, w), k in pairs.items()))
        assert want > 1
        assert space.norm(f) ** 2 == pytest.approx(want, rel=1e-12)
        assert space.inner(f, f) == pytest.approx(want, rel=1e-12)
        assert space.inner(f, GridFunction(M, 1j * f.values)) == pytest.approx(
            -1j * want, rel=1e-12)

    @pytest.mark.parametrize("q", [2, 3, 11])
    @pytest.mark.parametrize("depth", [2, 3, 40])
    def test_interior_is_the_unmasked_prefix(self, q, depth):
        space = L2Space(q, depth)
        for sign in (+1, -1):
            _, mask = space.apply(sign, GridFunction.zeros(depth))
            assert np.array_equal(np.arange(tri_size(depth))[space.interior],
                                  np.flatnonzero(~mask))

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

    @pytest.mark.parametrize("q", [2, 3])
    def test_exact_zero_at_depth_400(self, q):
        assert L2Space(q, 400).adjoint_defect(trials=2, rng=random.Random(q)) == 0

    def test_exact_check_reads_the_kernel(self, monkeypatch):
        # one coefficient of the A+ kernel off by one must show as a defect
        real = operator._kernel

        def bent(q, depth, sign):
            idx, coef, mask = real(q, depth, sign)
            if sign == +1:
                coef = coef.copy()
                coef[0, vertex_index(3, 1)] += 1
            return idx, coef, mask

        real.cache_clear()
        monkeypatch.setattr(operator, "_kernel", bent)
        assert L2Space(2, 12).adjoint_defect(trials=3, rng=random.Random(5)) != 0

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
        fd = np.full(tri_size(M), Fraction(0), dtype=object)
        fd[:tri_size(M - 2)] = [Fraction(rng.randrange(-9, 10))
                                for _ in range(tri_size(M - 2))]
        pm, _ = apply_exact(q, M, -1, apply_exact(q, M, +1, fd)[0])
        mp, _ = apply_exact(q, M, +1, apply_exact(q, M, -1, fd)[0])
        assert list(pm) == list(mp)


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


def exact_indicator(depth, v):
    f = np.full(tri_size(depth), Fraction(0), dtype=object)
    f[vertex_index(*v)] = Fraction(1)
    return f


class TestExactHelpers:
    def test_inner_exact_weights(self):
        f = exact_indicator(2, (0, 0))
        assert inner_exact(2, 2, f, f) == Fraction(1, 7)

    def test_apply_exact_masks(self):
        q, M = 2, 3
        f = exact_indicator(M, (3, 1))
        out, masked = apply_exact(q, M, +1, f)
        assert out.shape == (tri_size(M),)
        assert np.array_equal(np.flatnonzero(masked),
                              np.arange(vertex_index(M, 0), tri_size(M)))

    @pytest.mark.parametrize("q", [2, 3, 5])
    def test_inner_exact_matches_vertex_weights(self, q):
        M = 9
        rng = random.Random(q)
        verts = [(m, n) for m in range(M + 1) for n in range(m + 1)]

        def frac():
            return Fraction(rng.randrange(-20, 21), rng.randrange(1, 8))

        def eis():
            return Eisenstein(frac(), frac())

        for draw in (frac, eis):
            f = np.array([draw() for _ in verts], dtype=object)
            g = np.array([draw() for _ in verts], dtype=object)
            want = sum((f[i] * g[i].conjugate() * vertex_weight(q, m, n)
                        for i, (m, n) in enumerate(verts)), Fraction(0))
            assert inner_exact(q, M, f, g) == want

    def test_wrong_length_rejected(self):
        f = exact_indicator(4, (1, 0))
        with pytest.raises(DimensionMismatch):
            apply_exact(2, 5, +1, f)
        with pytest.raises(DimensionMismatch):
            inner_exact(2, 5, f, f)
        with pytest.raises(DimensionMismatch):
            inner_exact(2, 4, f, f[:-1])
