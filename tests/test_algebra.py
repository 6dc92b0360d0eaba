import itertools
import math
import operator
import random
from fractions import Fraction

import pytest

from a2quotient.algebra import (
    MAX_EXPONENT, DegenerateInput, Poly, RatFunc, parse_poly, parse_ratfunc,
    poly_gcd, validate_q,
)
from oracles import (
    add_ref, brute_expand_power, divmod_ref, entry_ref, monic_ref, mul_ref,
    neg_ref, nth_root, scale_ref, shifted_ref, sub_ref, traced_peak,
)

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
        one = RatFunc(Poly.one(q))
        for c in range(1, q):
            x = RatFunc(Poly.const(q, c))
            assert x * (one / x) == one

    def test_validate_q(self):
        for q in QS:
            assert validate_q(q) == q
        for bad in (0, 1, 4, 6, 9):
            with pytest.raises(ValueError):
                validate_q(bad)


class TestPolyAgainstOracle:
    """Every Poly operation equals the coefficient-list oracle and returns
    canonical residues: each in [0, q), no trailing zero."""

    @staticmethod
    def operands(q, rng):
        """Zero, every nonzero constant, and random polynomials."""
        return ([Poly.zero(q)] + [Poly.const(q, c) for c in range(1, q)]
                + [rp(q, rng, max_deg=5) for _ in range(10)])

    @staticmethod
    def check(p, q, ref):
        assert isinstance(p.coeffs, tuple) and p.q == q
        assert p.coeffs == ref
        assert all(isinstance(c, int) and 0 <= c < q for c in p.coeffs)
        assert not p.coeffs or p.coeffs[-1] != 0

    @pytest.mark.parametrize("q", [2, 3, 5, 7])
    def test_binary(self, q):
        ps = self.operands(q, random.Random(53 * q))
        for a in ps:
            for b in ps:
                x, y = a.coeffs, b.coeffs
                self.check(a + b, q, add_ref(q, x, y))
                self.check(a - b, q, sub_ref(q, x, y))
                self.check(a * b, q, mul_ref(q, x, y))
                if b.is_zero:
                    with pytest.raises(ZeroDivisionError):
                        divmod(a, b)
                    continue
                quo, rem = divmod(a, b)
                ref_quo, ref_rem = divmod_ref(q, x, y)
                self.check(quo, q, ref_quo)
                self.check(rem, q, ref_rem)
                self.check(a // b, q, ref_quo)
                self.check(a % b, q, ref_rem)

    @pytest.mark.parametrize("q", [2, 3, 5, 7])
    def test_unary(self, q):
        for a in self.operands(q, random.Random(59 * q)):
            x = a.coeffs
            self.check(-a, q, neg_ref(q, x))
            if a.is_zero:
                with pytest.raises(DegenerateInput):
                    a.monic()
            else:
                self.check(a.monic(), q, monic_ref(q, x))
            for c in (0, 1, q - 1, q + 1, -1, 3 * q):
                self.check(a.scale(c), q, scale_ref(q, x, c))
                for k in (0, 1, 3):
                    self.check(a.shifted(k, c), q, shifted_ref(q, x, k, c))
            with pytest.raises(ValueError):
                a.shifted(-1)

    def test_mixed_fields_rejected(self):
        a, b = Poly(2, [1, 1]), Poly(3, [1, 1])
        for op in (operator.add, operator.sub, operator.mul, divmod,
                   operator.floordiv, operator.mod):
            with pytest.raises(ValueError, match="mixed field sizes"):
                op(a, b)
            with pytest.raises(ValueError, match="mixed field sizes"):
                op(b, a)
        f, g = RatFunc(a), RatFunc(b)
        for op in (operator.add, operator.sub, operator.mul, operator.truediv):
            with pytest.raises(ValueError, match="mixed field sizes"):
                op(f, g)
        with pytest.raises(ValueError, match="mixed field sizes"):
            RatFunc(Poly(2, [1]), Poly(3, [1]))
        with pytest.raises(ZeroDivisionError, match="zero denominator"):
            RatFunc(Poly(2, [1]), Poly(2))
        with pytest.raises(ZeroDivisionError, match="division by zero rational"):
            f / RatFunc(Poly(2))
        with pytest.raises(ValueError, match="monomial exponent"):
            Poly.monomial(3, -1)

    def test_rejects_non_prime_q(self):
        # with q = 4, Poly(4, [1, 2]).monic() used to return the zero polynomial
        for q in (0, 1, 4, 6, 9, 2.0, "3"):
            with pytest.raises(ValueError):
                Poly(q, [1, 2])
        with pytest.raises(ValueError):
            Poly.const(4, 1)

    def test_rejects_non_integer_coefficients(self):
        # Poly(3, [1.5]) * Poly(3, [2]) used to print 0
        for bad in (1.5, 2.0, Fraction(1, 2), "1", None):
            with pytest.raises(TypeError):
                Poly(3, [1, bad])
            with pytest.raises(TypeError):
                Poly(3, [1, 2]).scale(bad)
            with pytest.raises(TypeError):
                Poly(3, [1, 2]).shifted(1, bad)
        assert Poly(5, [-1, 7, True]) == Poly(5, [4, 2, 1])


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
        z = RatFunc(Poly.zero(5))
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
        assert f.num // f.den == Poly.monomial(q, 1)
        p = parse_poly(q, "t^3+2*t+1")
        assert p // Poly.one(q) == p
        assert (Poly.one(q) // Poly.monomial(q, 1)).is_zero

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
        assert nth_root(Poly.monomial(q, 3), 3) == Poly.monomial(q, 1)
        assert nth_root(Poly.monomial(q, 1), 3) is None  # degree not divisible by 3

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
            assert nth_root(b * b * b, 3) == b

    @pytest.mark.parametrize("q", QS)
    def test_square_root_roundtrip(self, q):
        rng = random.Random(31 * q)
        for _ in range(100):
            b = rp(q, rng, max_deg=8, monic=True)
            assert nth_root(b * b, 2) == b

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
                assert r * r * r == a
        assert hits > 0


class TestCanonicalForm:
    @pytest.mark.parametrize("q", QS)
    def test_lowest_terms_monic_den(self, q):
        rng = random.Random(41 * q)
        for _ in range(100):
            f = rr(q, rng)
            assert f.den.lc() == 1
            if not f.is_zero:
                assert poly_gcd(f.num, f.den).degree == 0
            lam = RatFunc(Poly.const(q, rng.randrange(1, q)))
            assert (f * lam) / lam == f


    def test_constant_and_monic_denominators(self):
        # a constant denominator is divided into the numerator; a monic one
        # keeps its common factor with the numerator cancelled
        assert RatFunc(Poly(5, [1, 2]), Poly.const(5, 3)) == RatFunc(Poly(5, [2, 4]))
        f = RatFunc(Poly(5, [1, 2, 1]), Poly(5, [1, 1]))
        assert (f.num, f.den) == (Poly(5, [1, 1]), Poly.one(5))
        f = RatFunc(Poly(5, [3]), Poly(5, [0, 2]))
        assert (f.num, f.den) == (Poly(5, [4]), Poly.monomial(5, 1))


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
        # a digit run is read after its leading zeros, and one longer than
        # its bound's is rejected by that bound, not by int()'s 4300-digit limit
        assert parse_ratfunc(2, "0" * 5000 + "1") == parse_ratfunc(2, "1")
        assert parse_poly(11, "0" * 5000 + "10*t") == Poly(11, [0, 10])
        for text in ("9" * 5000, "9" * 5000 + "*t", "0" * 5000 + "12"):
            with pytest.raises(ValueError, match=r"^coefficient \d+ not reduced "
                                                 r"mod q=11$"):
                parse_ratfunc(11, text)

    def test_minus_is_field_negation(self):
        assert parse_poly(2, "t-1") == Poly(2, [1, 1])
        assert parse_poly(5, "t-1") == Poly(5, [4, 1])

    def test_garbage_rejected(self):
        for bad in ("", "t^", "x+1", "1++t", "t/1/t", "1/0", "t/(t+2*t)"):
            with pytest.raises(ValueError):
                parse_ratfunc(3, bad)
        # a run of signs is rejected wherever it stands, also at the end;
        # one leading sign is fine
        for bad in ("-+t", "--t", "+-t", "t+-1", "t/--t", "t+-"):
            with pytest.raises(ValueError, match="dangling operator"):
                parse_ratfunc(3, bad)
        assert parse_ratfunc(3, "-t") == parse_ratfunc(3, "2*t")
        assert parse_ratfunc(3, "+t") == parse_ratfunc(3, "t")
        # a '*' only joins a coefficient to t
        for bad in ("2*", "1*+t", "(2*)/(t)"):
            with pytest.raises(ValueError, match=r"cannot parse term '\d\*'"):
                parse_ratfunc(3, bad)

    def test_exponent_bound(self):
        assert parse_poly(2, f"t^{MAX_EXPONENT}") == Poly.monomial(2, MAX_EXPONENT)
        assert parse_ratfunc(2, "t^" + "0" * 20000 + "7") == parse_ratfunc(2, "t^7")
        for text in (f"t+t^{MAX_EXPONENT + 1}", "t^9999999999", "t^" + "9" * 5000):
            with pytest.raises(ValueError, match=rf"exponent in term 't\^\d+' "
                                                 rf"is above {MAX_EXPONENT}"):
                parse_ratfunc(2, text)

        # rejected before a coefficient list of that length exists
        def ten_digit():
            with pytest.raises(ValueError):
                parse_ratfunc(2, "t^9999999999")
        assert traced_peak(ten_digit) < 2 ** 20

    @pytest.mark.parametrize("q, accepted", [(2, 277), (3, 678)])
    def test_grammar_matches_the_oracle(self, q, accepted):
        # every string of up to 5 characters over the grammar's alphabet:
        # the parser accepts exactly what the README grammar accepts, with
        # the same value
        seen = 0
        for k in range(1, 6):
            for chars in itertools.product("t12^*+-()/", repeat=k):
                text = "".join(chars)
                want = entry_ref(q, text)
                try:
                    f = parse_ratfunc(q, text)
                except ValueError:
                    assert want is None, text
                    continue
                assert want is not None, text
                num, den = want
                assert mul_ref(q, num, f.den.coeffs) == mul_ref(q, f.num.coeffs, den), text
                seen += 1
        assert seen == accepted
