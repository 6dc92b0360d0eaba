import gc
import weakref
from fractions import Fraction

import pytest

from a2quotient.quotient import (
    CoeffRow, NotAdjacent, QuotientComplex, Vertex, coeffs, color,
    edge_coeff_from_stabilizers, is_adjacent, neighbors, stabilizer_order,
    stabilizer_order_counted, stratum, table, vertex_weight, weight_factors,
)

QS = [2, 3, 5]


def triangle(M):
    return [Vertex(m, n) for m in range(M + 1) for n in range(m + 1)]


class TestVertexBasics:
    def test_invariant(self):
        with pytest.raises(ValueError):
            Vertex(2, -1)
        with pytest.raises(ValueError):
            Vertex(1, 2)

    def test_colors(self):
        assert color(Vertex(0, 0)) == 0
        assert color(Vertex(1, 0)) == 1
        assert color(Vertex(1, 1)) == 2
        assert color(Vertex(2, 1)) == 0


class TestStabilizers:
    def test_known_orders_q2(self):
        assert stabilizer_order(2, 0, 0) == 168  # full projective group order
        assert stabilizer_order(2, 1, 0) == 2 ** 5 * 3 * 1 == 96
        assert stabilizer_order(2, 2, 1) == 2 ** 7 == 128

    @pytest.mark.parametrize("q", QS)
    def test_counted_matches_closed_form(self, q):
        for v in triangle(8):
            assert stabilizer_order_counted(q, v.m, v.n) == stabilizer_order(q, v.m, v.n)

    def test_weights_q2(self):
        assert vertex_weight(2, 0, 0) == Fraction(1, 7)
        assert vertex_weight(2, 2, 1) == Fraction(3, 16)
        assert vertex_weight(2, 3, 3) == Fraction(1, 64)

    @pytest.mark.parametrize("func", [vertex_weight, stabilizer_order])
    @pytest.mark.parametrize("q, m, n", [(2, -1, 0), (2, 1, 2), (4, 1, 0)],
                             ids=["negative-m", "n-above-m", "composite-q"])
    def test_rejects_bad_input(self, func, q, m, n):
        # a negative m would make the weight a float, not a Fraction
        with pytest.raises(ValueError):
            func(q, m, n)

    @pytest.mark.parametrize("q", QS)
    def test_weights_in_unit_interval(self, q):
        for v in triangle(10):
            w = vertex_weight(q, v.m, v.n)
            assert 0 < w <= 1

    @pytest.mark.parametrize("q", QS)
    def test_weight_factors_match_stabilizers(self, q):
        # the counted stabilizers, not the closed form derived from the factors
        for v in triangle(10):
            assert vertex_weight(q, v.m, v.n) == (
                weight_factors(q)[stratum(v.m, v.n)] / q ** (2 * v.m)) == (
                Fraction(q ** 3 * (q + 1) * (q - 1) ** 2,
                         stabilizer_order_counted(q, v.m, v.n)))


class TestAdjacency:
    def test_origin_and_interior(self):
        assert is_adjacent(Vertex(0, 0), Vertex(1, 0))
        assert is_adjacent(Vertex(0, 0), Vertex(1, 1))
        assert is_adjacent(Vertex(3, 1), Vertex(4, 2))
        assert not is_adjacent(Vertex(2, 0), Vertex(4, 0))

    def test_malformed_vertex_rejected(self):
        with pytest.raises(ValueError):
            Vertex(2, -1)

    def test_symmetric(self):
        verts = triangle(12)
        vset = set(verts)
        for u in verts:
            for v in neighbors(u):
                if v in vset:
                    assert is_adjacent(v, u)

    def test_neighbor_counts(self):
        assert len(neighbors(Vertex(0, 0))) == 2
        assert len(neighbors(Vertex(4, 0))) == 4
        assert len(neighbors(Vertex(4, 4))) == 4
        assert len(neighbors(Vertex(4, 2))) == 6


class TestCoefficientRows:
    def test_displayed_examples_q2(self):
        assert coeffs(2, Vertex(0, 0), +1) == [(Vertex(1, 0), 7)]
        assert coeffs(2, Vertex(0, 0), -1) == [(Vertex(1, 1), 7)]
        assert sorted(coeffs(2, Vertex(1, 0), +1)) == [(Vertex(1, 1), 6), (Vertex(2, 0), 1)]
        assert sorted(coeffs(2, Vertex(1, 0), -1)) == [(Vertex(0, 0), 4), (Vertex(2, 1), 3)]
        assert sorted(coeffs(2, Vertex(1, 1), +1)) == [(Vertex(0, 0), 4), (Vertex(2, 1), 3)]
        assert sorted(coeffs(2, Vertex(1, 1), -1)) == [(Vertex(1, 0), 6), (Vertex(2, 2), 1)]

    @pytest.mark.parametrize("q", QS)
    def test_row_sums_regularity(self, q):
        k = q * q + q + 1
        for v in triangle(20):
            for sign in (+1, -1):
                assert sum(c for _, c in coeffs(q, v, sign)) == k

    @pytest.mark.parametrize("q", QS)
    def test_color_step(self, q):
        for v in triangle(12):
            for tgt, _ in coeffs(q, v, +1):
                assert color(tgt) == (color(v) + 1) % 3
            for tgt, _ in coeffs(q, v, -1):
                assert color(tgt) == (color(v) - 1) % 3

    @pytest.mark.parametrize("q", QS)
    def test_targets_are_neighbors(self, q):
        for v in triangle(12):
            nb = set(neighbors(v))
            for sign in (+1, -1):
                for tgt, c in coeffs(q, v, sign):
                    assert tgt in nb and c > 0

    @pytest.mark.parametrize("q", QS)
    def test_adjointness_data_identity(self, q):
        # c+(u,v) w(u) == c-(v,u) w(v) exactly, for every raising edge
        for u in triangle(15):
            wu = vertex_weight(q, u.m, u.n)
            for v, cuv in coeffs(q, u, +1):
                wv = vertex_weight(q, v.m, v.n)
                back = dict(coeffs(q, v, -1))
                assert u in back, (u, v)
                assert cuv * wu == back[u] * wv


class TestStabilizerCrossCheck:
    def test_displayed_intersection_values(self):
        # index at v00 -> v10 is q^2+q+1 (intersection order q^3(q+1)(q-1)^2)
        for q in QS:
            idx = edge_coeff_from_stabilizers(q, Vertex(0, 0), Vertex(1, 0))
            assert idx == q * q + q + 1
            assert stabilizer_order(q, 0, 0) // idx == q ** 3 * (q + 1) * (q - 1) ** 2
            idx = edge_coeff_from_stabilizers(q, Vertex(0, 0), Vertex(1, 1))
            assert stabilizer_order(q, 0, 0) // idx == q ** 3 * (q + 1) * (q - 1) ** 2
            # |G_10 ∩ G_11| = q^4 (q-1)^2
            idx = edge_coeff_from_stabilizers(q, Vertex(1, 0), Vertex(1, 1))
            assert idx == q * q + q
            assert stabilizer_order(q, 1, 0) // idx == q ** 4 * (q - 1) ** 2

    @pytest.mark.parametrize("q", QS)
    def test_horizontal_intersections(self, q):
        # |G_{m,n-1} ∩ G_{m,n}| = (q-1)^2 q^(2m+2); the n-step coefficient is q
        for m in range(2, 8):
            for n in range(2, m):
                idx = edge_coeff_from_stabilizers(q, Vertex(m, n - 1), Vertex(m, n))
                inter = stabilizer_order(q, m, n - 1) / idx
                assert inter == (q - 1) ** 2 * q ** (2 * m + 2)

    def test_bottom_to_interior_edge_is_q_plus_1(self):
        # v_{m,0} -> v_{m+1,1} carries q+1, not 1: the intersection drops the
        # lower-block freedom of the bottom stabilizer
        for q in QS:
            for m in range(1, 8):
                idx = edge_coeff_from_stabilizers(q, Vertex(m, 0), Vertex(m + 1, 1))
                assert idx == q + 1

    @pytest.mark.parametrize("q", QS)
    def test_every_row_coefficient(self, q):
        for u in triangle(20):
            for sign in (+1, -1):
                for v, c in coeffs(q, u, sign):
                    assert edge_coeff_from_stabilizers(q, u, v) == c

    def test_not_adjacent_error(self):
        with pytest.raises(NotAdjacent):
            edge_coeff_from_stabilizers(2, Vertex(0, 0), Vertex(2, 0))


class TestQuotientComplex:
    def test_truncation_mask(self):
        cx = QuotientComplex(2, 4)
        row = cx.row(Vertex(4, 2), +1)
        assert isinstance(row, CoeffRow)
        assert all(t.m <= 4 for t, _ in row.terms)
        assert row.masked and all(t.m == 5 for t, _ in row.masked)
        assert cx.row(Vertex(4, 2), +1).masked
        assert not cx.row(Vertex(3, 1), +1).masked
        # nothing dropped: terms + masked rebuild the full row
        full = sorted(row.terms + row.masked)
        assert full == sorted(coeffs(2, Vertex(4, 2), +1))

    def test_validation(self):
        with pytest.raises(ValueError):
            QuotientComplex(4, 10)
        with pytest.raises(ValueError):
            QuotientComplex(2, 1)
        cx = QuotientComplex(2, 3)
        with pytest.raises(ValueError):
            cx.row(Vertex(5, 0), +1)
        with pytest.raises(ValueError, match="sign must be"):
            table(2, 0)

    @pytest.mark.parametrize("q", QS)
    @pytest.mark.parametrize("depth", [2, 3, 7])
    def test_shells_agree_with_rows(self, q, depth):
        # the stratum view lists every vertex once, in (m, n) order, with
        # its weight, stabilizer order and both rows split as row() splits
        # them; only the last shell has masked steps, in both directions
        cx = QuotientComplex(q, depth)
        seen = []
        for m, strata in cx.shells():
            for ns, w, order, rows in strata:
                assert [label for label, _, _ in rows] == ["plus", "minus"]
                for n in ns:
                    v = Vertex(m, n)
                    seen.append(v)
                    assert w == vertex_weight(q, m, n)
                    assert order == stabilizer_order(q, m, n)
                    for (_, inside, masked), sign in zip(rows, (+1, -1)):
                        row = cx.row(v, sign)
                        for steps, want in ((inside, row.terms), (masked, row.masked)):
                            got = [(Vertex(m + dm, n + dn), c) for dm, dn, c in steps]
                            assert got == list(want), (v, sign)
                        assert bool(masked) == (m == depth), (v, sign)
        assert seen == cx.vertices()

    def test_vertex_listing(self):
        cx = QuotientComplex(3, 3)
        vs = cx.vertices()
        assert len(vs) == 10
        assert vs[0] == Vertex(0, 0) and vs[-1] == Vertex(3, 3)

    def test_rows_do_not_pin_the_complex(self):
        cx = QuotientComplex(2, 5)
        for v in cx.vertices():
            cx.row(v, +1)
            cx.row(v, -1)
        ref = weakref.ref(cx)
        del cx
        gc.collect()
        assert ref() is None
