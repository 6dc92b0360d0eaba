import random
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from a2quotient import operator
from a2quotient.operator import (
    DimensionMismatch, GridFunction, L2Space, ZeroFunction, apply_exact,
    inner_exact, tri_size, vertex_index,
)
from a2quotient.quotient import (
    Vertex, stratum, table, vertex_weight, weight_factors,
)
from oracles import (
    Eisenstein, damped_ref, expected_rows, gather_ref, same_bits, shape_ref,
    traced_peak, trivial_norm_sq_limit, weight_of,
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

    @pytest.mark.parametrize("depth", [2, 3, 10, 400])
    def test_grid_mn_matches_a_per_shell_loop(self, depth):
        ms, ns = operator._grid_mn(depth)
        want_m = np.concatenate([np.full(m + 1, m, dtype=np.int64)
                                 for m in range(depth + 1)])
        want_n = np.concatenate([np.arange(m + 1, dtype=np.int64)
                                 for m in range(depth + 1)])
        for got, want in ((ms, want_m), (ns, want_n)):
            assert got.dtype == np.int64 and not got.flags.writeable
            assert got.tobytes() == want.tobytes()

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


def check_gather(q, depth, rng, same):
    """apply on seeded_values against gather_ref, compared by same, and
    apply_exact on Fractions against it exactly, in both directions."""
    space = L2Space(q, depth)
    for sign in (+1, -1):
        f = GridFunction(depth, seeded_values(rng, tri_size(depth)))
        with np.errstate(invalid="ignore", over="ignore"):
            got, _ = space.apply(sign, f)
            want = gather_ref(q, depth, sign, f.values)
        assert same(got.values, want), sign
        exact = [Fraction(int(a), int(b)) for a, b in zip(
            rng.integers(-50, 50, tri_size(depth)),
            rng.integers(1, 9, tri_size(depth)))]
        got_exact, _ = apply_exact(q, depth, sign, exact)
        want_exact = gather_ref(q, depth, sign, np.array(exact, dtype=object))
        assert [(type(x), x) for x in got_exact] == \
            [(type(x), x) for x in want_exact]


class TestGather:
    # depth 120 runs the interior slots, the slice slot and the SIMD tails
    # over many long shells
    @pytest.mark.parametrize("depth, q", [
        (depth, q) for depth in (2, 3, 4, 10, 40) for q in (2, 3, 5, 7, 11)
    ] + [(120, 2), (120, 3)])
    def test_bit_identical_to_row_major_reference(self, q, depth):
        check_gather(q, depth, np.random.default_rng(100 * q + depth),
                     lambda got, want: got.tobytes() == want.tobytes())

    @pytest.mark.parametrize("sign", [+1, -1])
    def test_kernel_stores_one_integer_per_interior_slot(self, sign):
        # two intp index arrays over the T rows, a shift for the same-shell
        # slot, and full rows only for the O(depth) fix rows
        q, depth = 3, 400
        size = tri_size(depth)
        reads, *fix_rows = operator._shape(depth, sign)
        cs, coef = operator._kernel(q, depth, sign)
        arrays = [read for read in reads if isinstance(read, np.ndarray)]
        arrays += fix_rows + [coef]
        assert [type(c) for c in cs] == [int] * 3
        assert sum(isinstance(read, int) for read in reads) == 1
        assert all(a.shape != (3, size) for a in arrays)
        assert sum(a.nbytes for a in arrays) <= 16 * size + 256 * depth

    @pytest.mark.parametrize("sign", [+1, -1])
    def test_primes_share_one_shape(self, sign):
        # the index arrays are built once per (depth, sign): every prime
        # gathers through the same objects
        depth = 37
        before = operator._shape.cache_info().misses
        shapes = []
        for q in (2, 3, 5):
            L2Space(q, depth).apply(sign, GridFunction.zeros(depth))
            shapes.append(operator._shape(depth, sign))
        assert operator._shape.cache_info().misses - before <= 1
        reads, *fix_rows = shapes[0]
        for other_reads, *other_fix_rows in shapes[1:]:
            assert all(a is b for a, b in zip(reads, other_reads))
            assert all(a is b for a, b in zip(fix_rows, other_fix_rows))

    @pytest.mark.parametrize("sign", [+1, -1])
    def test_second_prime_allocates_only_coefficients(self, sign):
        # at a depth whose shape is built, a new prime's kernel is its
        # (3, F) int64 coefficients, 72 depth bytes; the bound, with 8 KiB
        # for small objects, is below the T bytes of a bool mask over the
        # grid
        depth = 400
        operator._kernel(2, depth, sign)
        operator._kernel.cache_clear()
        bound = 72 * depth + 8192
        assert bound < tri_size(depth)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            operator._kernel(3, depth, sign)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= bound

    @pytest.mark.parametrize("sign", [+1, -1])
    def test_table_steps_do_not_depend_on_q(self, sign):
        steps = {q: [[(dm, dn) for dm, dn, _ in row] for row in table(q, sign)]
                 for q in (2, 3, 5, 7, 11, 101)}
        assert all(rows == steps[2] for rows in steps.values())

    @pytest.mark.parametrize("sign", [+1, -1])
    def test_shape_matches_the_per_vertex_reference(self, sign):
        # the shape built from the wall rows equals the one built from the
        # coordinates and stratum of every vertex, array for array
        for depth in [*range(2, 41), 120, 400]:
            got, want = operator._shape(depth, sign), shape_ref(depth, sign)
            assert len(got[0]) == len(want[0]) == 3
            for a, b in zip([*got[0], *got[1:]], [*want[0], *want[1:]]):
                if isinstance(b, int):
                    assert type(a) is int and a == b, depth
                    continue
                assert (a.dtype, a.shape) == (b.dtype, b.shape), depth
                assert not a.flags.writeable and not b.flags.writeable
                assert np.array_equal(a, b), depth

    @pytest.mark.parametrize("depth", [400, 1600])
    @pytest.mark.parametrize("sign", [+1, -1])
    def test_cold_shape_allocates_one_index_array_beyond_its_own(self, depth,
                                                                 sign):
        # beside the arrays it keeps, a build holds at most one T-length
        # intp temporary and O(depth) for the wall rows; a pass over the
        # coordinates of all T vertices holds 16 T bytes more
        operator._shape.cache_clear()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            reads, *fix_rows = operator._shape(depth, sign)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        kept = sum(a.nbytes for a in [*reads, *fix_rows]
                   if isinstance(a, np.ndarray))
        assert peak <= kept + 8 * tri_size(depth) + 512 * depth

    def test_operator_builds_no_coordinates(self, monkeypatch):
        def no_grid(depth):
            raise AssertionError(f"grid of depth {depth} allocated")

        for cache in (operator._shape, operator._kernel, operator._weights):
            cache.cache_clear()
        monkeypatch.setattr(operator, "_grid_mn", no_grid)
        q, depth = 3, 400
        space = L2Space(q, depth)
        f = GridFunction(depth, np.ones(tri_size(depth)))
        for sign in (+1, -1):
            g, _ = space.apply(sign, f)
            assert np.isfinite(g.values).all()
        assert space.inner(f, f).real > 0 and space.norm(f) > 0
        ones = np.ones(tri_size(depth), dtype=object)
        assert inner_exact(q, depth, ones, ones) > 0
        assert 0 < space.norm_estimate(2) <= (q * q + q + 1) * (1 + 1e-9)

    def test_shape_cache_holds_every_workload_depth(self):
        # one entry per (depth, sign), whatever the primes: five depths and
        # both signs, the most one benchmark workload uses, fit
        operator._shape.cache_clear()
        for depth in range(2, 7):
            for sign in (+1, -1):
                for q in (2, 3):
                    L2Space(q, depth).apply(sign, GridFunction.zeros(depth))
        info = operator._shape.cache_info()
        assert (info.currsize, info.misses) == (10, 10)

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


class TestBlocks:
    """The float kernels run over blocks of ``operator._BLOCK`` entries.  At
    depth 120 and below the production block never ends inside the grid,
    so these tests shrink it: every kernel then crosses many block
    boundaries, and blocks of one entry meet numpy's different rounding of
    an in-place complex product of length 1.  Blocks shorter than a vector
    run numpy's scalar loops, which pick another NaN than its vector loops
    when two meet, so NaN matches NaN here (``same_bits``)."""

    @pytest.fixture(params=[1, 2, 7, 64])
    def block(self, request, monkeypatch):
        monkeypatch.setattr(operator, "_BLOCK", request.param)
        return request.param

    @pytest.mark.parametrize("q, depth", [(2, 10), (3, 23), (7, 4)])
    def test_gather_matches_the_row_major_reference(self, block, q, depth):
        check_gather(q, depth, np.random.default_rng(7 * block + depth),
                     same_bits)

    @pytest.mark.parametrize("q, depth", [(2, 10), (3, 23), (11, 3)])
    def test_inner_mass_and_norm_match_the_allocating_formulas(self, block, q,
                                                               depth):
        # over the full space, the interior and each single vertex: a sum
        # of many products can hide a last-bit change in one of them
        rng = np.random.default_rng(11 * block + depth)
        space = L2Space(q, depth)
        size = tri_size(depth)
        special = [seeded_values(rng, size) for _ in range(2)]
        finite = [rng.standard_normal(size) + 1j * rng.standard_normal(size)
                  for _ in range(2)]
        wheres = [slice(None), space.interior]
        wheres += [slice(k, k + 1) for k in range(size)]
        with np.errstate(invalid="ignore", over="ignore"):
            for f, g in (special, finite):
                f, g = GridFunction(depth, f), GridFunction(depth, g)
                for where in wheres:
                    w, fv = space.weights[where], f.values[where]
                    prod = np.multiply(np.multiply(w, fv),
                                       np.conjugate(g.values[where]))
                    a = np.abs(fv)
                    mass = np.multiply(np.multiply(w, a), a)
                    got = [space.inner(f, g, where), space.norm(f, where)]
                    want = [complex(prod.sum()), float(np.sqrt(mass.sum()))]
                    assert same_bits(np.array(got), np.array(want)), where
                    assert same_bits(space.mass(f, where), mass), where

    @pytest.mark.parametrize("block", [1024, 2048])
    def test_temporaries_are_block_sized(self, monkeypatch, block):
        # beside the array it returns, each kernel allocates O(_BLOCK) plus
        # O(depth) for the fix rows: a T-length float temporary alone
        # (8 T = 645 KB at depth 400) exceeds that slack
        monkeypatch.setattr(operator, "_BLOCK", block)
        depth = 400
        size = tri_size(depth)
        space = L2Space(3, depth)
        f = GridFunction(depth, np.random.default_rng(1).standard_normal(size))
        slack = 4 * 16 * block + 512 * depth
        assert slack < 8 * size
        assert traced_peak(lambda: space.apply(+1, f)) <= 16 * size + slack
        assert traced_peak(lambda: space.apply(-1, f)) <= 16 * size + slack
        # inner keeps its one T-length product, for numpy's pairwise sum
        assert traced_peak(lambda: space.inner(f, f)) <= 16 * size + slack
        assert traced_peak(lambda: space.mass(f)) <= 8 * size + slack
        assert traced_peak(lambda: space.norm(f, space.interior)) <= \
            8 * size + slack


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

    @pytest.mark.parametrize("q", [2, 3, 5, 7, 11, 101])
    def test_weights_gather_the_per_vertex_powers(self, q):
        # q^(-2m) from a table over m and the factor of the wall rows
        # written over the interior one, bit for bit, into the subnormals
        factor = np.array([float(c) for c in weight_factors(q)])
        for depth in (480, 1600):
            m, n = operator._grid_mn(depth)
            want = factor[stratum(m, n)] * np.power(float(q), -2.0 * m)
            got = L2Space(q, depth).weights
            assert not got.flags.writeable
            assert got.tobytes() == want.tobytes()

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
        # one coefficient of the A+ kernel off by one must show as a
        # defect: an interior slot's, or the diagonal row's at (3, 3)
        real = operator._kernel

        def bent(q, depth, sign):
            cs, coef = real(q, depth, sign)
            if sign == +1 and bend == "interior":
                cs = (cs[0] + 1, *cs[1:])
            elif sign == +1:
                fix = operator._shape(depth, sign)[1]
                coef = coef.copy()
                coef[0, np.searchsorted(fix, vertex_index(3, 3))] += 1
            return cs, coef

        real.cache_clear()
        monkeypatch.setattr(operator, "_kernel", bent)
        for bend in ("interior", "diagonal"):
            space = L2Space(2, 12)
            assert space.adjoint_defect(trials=3, rng=random.Random(5)) != 0, bend

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
        from a2quotient.eigen import SpectralParam
        q = 2
        p = SpectralParam.from_triple(q, 1, 1, 1)
        gaps = []
        for eps in (0.2, 0.1, 0.05):
            M = int(12 / eps)
            rq = L2Space(q, M).rayleigh(+1, damped_ref(q, p, eps, M))
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
        with pytest.raises(ValueError, match="depth must be >= 2"):
            L2Space(2, 1)
        space = L2Space(2, 4)
        with pytest.raises(ValueError, match="at least one trial"):
            space.adjoint_defect(0)
        with pytest.raises(ValueError, match="at least one iteration"):
            space.norm_estimate(0)
