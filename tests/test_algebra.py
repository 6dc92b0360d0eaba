import math
import random

import pytest

from a2quotient.algebra import (
    Poly, RatFunc, parse_poly, parse_ratfunc, poly_gcd, validate_q,
)
from oracles import brute_expand_power, nth_root

QS = [2, 3, 5]


def rp(q, rng, max_deg=6, monic=False):
    deg = rng.randrange(0, max_deg + 1)
    coeffs = [rng.randrange(q) for _ in range(deg + 1)]
    if monic:
        coeffs[-1] = 1
    elif coeffs[-1] == 0:
        coeffs[-1] = rng.randrange(1, q)
    return Poly(q, coeffs)


def rr(q, rng, max_deg=5):
    num = rp(q, rng, max_deg)
    den = rp(q, rng, max_deg)
    return RatFunc(num, den)


class TestFieldAxioms:
    @pytest.mark.parametrize("q", QS)
    def test_exhaustive_triples(self, q):
        # constants embed F_q; associativity/distributivity over all triples
        elems = [Poly.const(q, c) for c in range(q)]
        for a in elems:
            for b in elems:
                assert a + b == b + a
                assert a * b == b * a
                for c in elems:
                    assert (a + b) + c == a + (b + c)
                    assert (a * b) * c == a * (b * c)
                    assert a * (b + c) == a * b + a * c

    @pytest.mark.parametrize("q", QS)
    def test_inverses(self, q):
        one = RatFunc.one(q)
        for c in range(1, q):
            x = RatFunc.const(q, c)
            assert x * x.inverse() == one

    def test_validate_q(self):
        for q in QS:
            assert validate_q(q) == q
        for bad in (0, 1, 4, 6, 9):
            with pytest.raises(ValueError):
                validate_q(bad)


class TestValuation:
    def test_examples(self):
        q = 3
        t2 = RatFunc(Poly.monomial(q, 2))
        assert t2.valuation() == -2
        inv_t = RatFunc.t_power(q, -1)
        assert inv_t.valuation() == 1
        f = parse_ratfunc(q, "(t+1)/(t^3)")
        assert f.valuation() == 2

    def test_zero_sentinel(self):
        z = RatFunc.zero(5)
        assert z.valuation() == math.inf
        assert not isinstance(z.valuation(), int)

    @pytest.mark.parametrize("q", QS)
    def test_multiplicativity_and_ultrametric(self, q):
        rng = random.Random(100 + q)
        for _ in range(200):
            f, g = rr(q, rng), rr(q, rng)
            if f.is_zero or g.is_zero:
                continue
            assert (f * g).valuation() == f.valuation() + g.valuation()
            s = f + g
            lo = min(f.valuation(), g.valuation())
            assert s.valuation() >= lo
            if f.valuation() != g.valuation():
                assert s.valuation() == lo


class TestPolynomialPart:
    """The polynomial part of num/den is the Euclidean quotient num // den."""

    def test_examples(self):
        q = 5
        f = parse_ratfunc(q, "(t^2+1)/(t)")
        assert f.num // f.den == Poly.t(q)
        p = parse_poly(q, "t^3+2*t+1")
        assert p // Poly.one(q) == p
        assert (Poly.one(q) // Poly.t(q)).is_zero

    @pytest.mark.parametrize("q", QS)
    def test_remainder_valuation(self, q):
        rng = random.Random(7 * q)
        for _ in range(100):
            f = rr(q, rng)
            quo, rem = divmod(f.num, f.den)
            frac = f - RatFunc(quo)
            assert frac == RatFunc(rem, f.den)
            assert frac.is_zero or frac.valuation() >= 1


class TestRoots:
    """The exact d-th root the membership oracles in oracles.py rest on."""

    def test_trivial_examples(self):
        q = 5
        assert nth_root(Poly.monomial(q, 3), 3) == Poly.t(q)
        assert nth_root(Poly.t(q), 3) is None  # degree not divisible by 3

    def test_f2_cube_candidate(self):
        # (t+1)^3 over F_2 expanded by brute force: decides the answer
        expansion = brute_expand_power([1, 1], 3, 2)
        target = Poly(2, [1, 0, 0, 1])  # t^3 + 1
        assert Poly(2, expansion) != target
        assert nth_root(target, 3) is None
        # and the actual cube does come back
        assert nth_root(Poly(2, expansion), 3) == Poly(2, [1, 1])

    @pytest.mark.parametrize("q", QS)
    def test_cube_root_roundtrip(self, q):
        rng = random.Random(29 * q)
        for _ in range(200):
            b = rp(q, rng, max_deg=10, monic=True)
            assert nth_root(b ** 3, 3) == b

    @pytest.mark.parametrize("q", QS)
    def test_square_root_roundtrip(self, q):
        rng = random.Random(31 * q)
        for _ in range(100):
            b = rp(q, rng, max_deg=8, monic=True)
            assert nth_root(b ** 2, 2) == b

    @pytest.mark.parametrize("q", QS)
    def test_non_powers_rejected(self, q):
        rng = random.Random(37 * q)
        hits = 0
        for _ in range(200):
            a = rp(q, rng, max_deg=9, monic=True)
            r = nth_root(a, 3)
            if r is None:
                hits += 1
            else:
                assert r ** 3 == a
        assert hits > 0


class TestCanonicalForm:
    @pytest.mark.parametrize("q", QS)
    def test_lowest_terms_monic_den(self, q):
        rng = random.Random(41 * q)
        for _ in range(100):
            f = rr(q, rng)
            assert f.den.is_monic
            if not f.is_zero:
                assert poly_gcd(f.num, f.den).degree == 0
            lam = RatFunc.const(q, rng.randrange(1, q))
            assert (f * lam) / lam == f


class TestParsing:
    def test_roundtrip(self):
        rng = random.Random(5)
        for q in QS:
            for _ in range(50):
                f = rr(q, rng)
                assert parse_ratfunc(q, str(f)) == f

    def test_rejects_large_coefficients(self):
        with pytest.raises(ValueError):
            parse_poly(2, "t^3+2*t+1")
        assert parse_poly(3, "t^3+2*t+1") == Poly(3, [1, 2, 0, 1])

    def test_minus_is_field_negation(self):
        assert parse_poly(2, "t-1") == Poly(2, [1, 1])
        assert parse_poly(5, "t-1") == Poly(5, [4, 1])

    def test_garbage_rejected(self):
        for bad in ("", "t^", "x+1", "1++t", "t/1/t", "1/0", "t/(t+2*t)"):
            with pytest.raises(ValueError):
                parse_ratfunc(3, bad)
