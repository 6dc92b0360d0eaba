"""Exact arithmetic over F_q, F_q[t] and F_q(t).

Polynomials are coefficient tuples over a prime field F_q, little-endian with
no trailing zeros (the zero polynomial is the empty tuple, degree -1 by
convention).  Rational functions are kept canonical: denominator monic,
fraction in lowest terms, so equality and hashing are structural.

The valuation is the one attached to the place at infinity of F_q(t),

    nu(g/h) = deg(h) - deg(g),        nu(0) = +infinity,

so that the absolute value is q^(-nu).  The local ring O consists of the
rational functions with nu >= 0 (power series in 1/t).

Besides ring arithmetic the module provides exact perfect-power roots of
monic polynomials by top-down coefficient matching, used by the projective
group-membership tests.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction


class DegenerateInput(ValueError):
    """Raised when an operation is undefined for the given input."""


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def validate_q(q: int) -> int:
    """Check that q is a prime >= 2 and return it."""
    if not isinstance(q, int) or not is_prime(q):
        raise ValueError(f"q must be a prime >= 2, got {q!r}")
    return q


def _inv_mod(c: int, q: int) -> int:
    if c % q == 0:
        raise ZeroDivisionError("inverse of 0 in F_q")
    return pow(c, q - 2, q)


class Poly:
    """Immutable polynomial over F_q (q prime)."""

    __slots__ = ("q", "coeffs")

    def __init__(self, q: int, coeffs=()):
        self.q = q
        cs = [c % q for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    # -- constructors -------------------------------------------------
    @classmethod
    def zero(cls, q: int) -> "Poly":
        return cls(q, ())

    @classmethod
    def one(cls, q: int) -> "Poly":
        return cls(q, (1,))

    @classmethod
    def const(cls, q: int, c: int) -> "Poly":
        return cls(q, (c,))

    @classmethod
    def t(cls, q: int) -> "Poly":
        return cls(q, (0, 1))

    @classmethod
    def monomial(cls, q: int, k: int, c: int = 1) -> "Poly":
        if k < 0:
            raise ValueError("monomial exponent must be >= 0")
        return cls(q, (0,) * k + (c,))

    # -- basic queries -------------------------------------------------
    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, i: int) -> int:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def lc(self) -> int:
        """Leading coefficient (0 only for the zero polynomial)."""
        return self.coeffs[-1] if self.coeffs else 0

    @property
    def is_monic(self) -> bool:
        return self.lc() == 1

    def monic(self) -> "Poly":
        if self.is_zero:
            raise DegenerateInput("zero polynomial has no monic form")
        inv = _inv_mod(self.lc(), self.q)
        return Poly(self.q, [c * inv for c in self.coeffs])

    # -- arithmetic ----------------------------------------------------
    def _check(self, other: "Poly") -> None:
        if self.q != other.q:
            raise ValueError("mixed field sizes")

    def __add__(self, other: "Poly") -> "Poly":
        self._check(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = (out[i] + c) % self.q
        return Poly(self.q, out)

    def __neg__(self) -> "Poly":
        return Poly(self.q, [-c for c in self.coeffs])

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        self._check(other)
        if self.is_zero or other.is_zero:
            return Poly.zero(self.q)
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return Poly(self.q, out)

    def scale(self, c: int) -> "Poly":
        return Poly(self.q, [c * a for a in self.coeffs])

    def __pow__(self, k: int) -> "Poly":
        if k < 0:
            raise ValueError("negative power of a polynomial")
        result = Poly.one(self.q)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __divmod__(self, other: "Poly"):
        self._check(other)
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        q_, rem = [], list(self.coeffs)
        dlead = _inv_mod(other.lc(), self.q)
        dd = other.degree
        for k in range(len(rem) - 1 - dd, -1, -1):
            c = (rem[k + dd] * dlead) % self.q
            if c:
                for i, b in enumerate(other.coeffs):
                    rem[k + i] = (rem[k + i] - c * b) % self.q
            q_.append(c)
        q_.reverse()
        return Poly(self.q, q_), Poly(self.q, rem[:dd] if dd > 0 else [])

    def __floordiv__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[0]

    def __mod__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[1]

    def __eq__(self, other) -> bool:
        return (isinstance(other, Poly) and self.q == other.q
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.q, self.coeffs))

    def __bool__(self) -> bool:
        return not self.is_zero

    # -- text ------------------------------------------------------------
    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        terms = []
        for k in range(self.degree, -1, -1):
            c = self.coeff(k)
            if not c:
                continue
            if k == 0:
                terms.append(str(c))
            elif k == 1:
                terms.append("t" if c == 1 else f"{c}*t")
            else:
                terms.append(f"t^{k}" if c == 1 else f"{c}*t^{k}")
        return "+".join(terms)

    def __repr__(self) -> str:
        return f"Poly(q={self.q}, {self!s})"


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd; gcd(0, 0) = 0."""
    while not b.is_zero:
        a, b = b, a % b
    return a.monic() if not a.is_zero else a


class RatFunc:
    """Rational function over F_q in canonical form.

    Invariants: denominator monic and nonzero, gcd(num, den) = 1, and the
    zero element is 0/1.  Equality is therefore structural.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly | None = None):
        if den is None:
            den = Poly.one(num.q)
        if num.q != den.q:
            raise ValueError("mixed field sizes")
        if den.is_zero:
            raise ZeroDivisionError("zero denominator")
        if num.is_zero:
            num, den = Poly.zero(num.q), Poly.one(num.q)
        else:
            g = poly_gcd(num, den)
            if g.degree > 0:
                num, den = num // g, den // g
            inv = _inv_mod(den.lc(), den.q)
            num, den = num.scale(inv), den.scale(inv)
        self.num = num
        self.den = den

    # -- constructors ---------------------------------------------------
    @classmethod
    def zero(cls, q: int) -> "RatFunc":
        return cls(Poly.zero(q))

    @classmethod
    def one(cls, q: int) -> "RatFunc":
        return cls(Poly.one(q))

    @classmethod
    def const(cls, q: int, c: int) -> "RatFunc":
        return cls(Poly.const(q, c))

    @classmethod
    def from_poly(cls, p: Poly) -> "RatFunc":
        return cls(p)

    @classmethod
    def t_power(cls, q: int, k: int) -> "RatFunc":
        """t^k for any integer k."""
        if k >= 0:
            return cls(Poly.monomial(q, k))
        return cls(Poly.one(q), Poly.monomial(q, -k))

    # -- queries ----------------------------------------------------------
    @property
    def q(self) -> int:
        return self.num.q

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    @property
    def is_polynomial(self) -> bool:
        return self.den.degree == 0

    @property
    def is_constant(self) -> bool:
        return self.den.degree == 0 and self.num.degree <= 0

    def valuation(self):
        """deg(den) - deg(num); +inf (float sentinel) for 0."""
        if self.is_zero:
            return math.inf
        return self.den.degree - self.num.degree

    # -- arithmetic ---------------------------------------------------------
    def _check(self, other: "RatFunc") -> None:
        if self.q != other.q:
            raise ValueError("mixed field sizes")

    def __add__(self, other: "RatFunc") -> "RatFunc":
        self._check(other)
        return RatFunc(self.num * other.den + other.num * self.den,
                       self.den * other.den)

    def __neg__(self) -> "RatFunc":
        return RatFunc(-self.num, self.den)

    def __sub__(self, other: "RatFunc") -> "RatFunc":
        return self + (-other)

    def __mul__(self, other: "RatFunc") -> "RatFunc":
        self._check(other)
        return RatFunc(self.num * other.num, self.den * other.den)

    def __truediv__(self, other: "RatFunc") -> "RatFunc":
        self._check(other)
        if other.is_zero:
            raise ZeroDivisionError("division by zero rational function")
        return RatFunc(self.num * other.den, self.den * other.num)

    def inverse(self) -> "RatFunc":
        return RatFunc.one(self.q) / self

    def __pow__(self, k: int) -> "RatFunc":
        if k < 0:
            return self.inverse() ** (-k)
        return RatFunc(self.num ** k, self.den ** k)

    def __eq__(self, other) -> bool:
        return (isinstance(other, RatFunc) and self.num == other.num
                and self.den == other.den)

    def __hash__(self):
        return hash((self.num, self.den))

    def __bool__(self) -> bool:
        return not self.is_zero

    # -- text -----------------------------------------------------------
    def __str__(self) -> str:
        if self.is_polynomial:
            return str(self.num)
        return f"({self.num})/({self.den})"

    def __repr__(self) -> str:
        return f"RatFunc(q={self.q}, {self!s})"


# ---------------------------------------------------------------------------
# text syntax:  "t^3+2*t+1",  "(t^2+1)/(t)",  coefficients are decimal digits
# and must be < q; '-' is the field negation.
# ---------------------------------------------------------------------------

_TERM = re.compile(r"^(?:(\d+)\*?)?(t(?:\^(\d+))?)?$")


def parse_poly(q: int, text: str) -> Poly:
    s = text.replace(" ", "")
    if s.startswith("(") and s.endswith(")") and _balanced(s[1:-1]):
        s = s[1:-1]
    if not s:
        raise ValueError("empty polynomial")
    coeffs: dict[int, int] = {}
    for sign, body in _signed_terms(s):
        m = _TERM.match(body)
        if not m or (m.group(1) is None and m.group(2) is None):
            raise ValueError(f"cannot parse term {body!r}")
        c = int(m.group(1)) if m.group(1) is not None else 1
        if c >= q:
            raise ValueError(f"coefficient {c} not reduced mod q={q}")
        k = 0
        if m.group(2):
            k = int(m.group(3)) if m.group(3) else 1
        coeffs[k] = (coeffs.get(k, 0) + sign * c) % q
    deg = max(coeffs) if coeffs else 0
    return Poly(q, [coeffs.get(i, 0) for i in range(deg + 1)])


def parse_ratfunc(q: int, text: str) -> RatFunc:
    s = text.replace(" ", "")
    cut = _top_level_slash(s)
    if cut is None:
        return RatFunc(parse_poly(q, s))
    den = parse_poly(q, s[cut + 1:])
    if den.is_zero:
        raise ValueError(f"zero denominator in {text!r}")
    return RatFunc(parse_poly(q, s[:cut])) / RatFunc(den)


def _balanced(s: str) -> bool:
    depth = 0
    for ch in s:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                return False
    return depth == 0


def _top_level_slash(s: str) -> int | None:
    depth = 0
    for i, ch in enumerate(s):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "/" and depth == 0:
            return i
    return None


def _signed_terms(s: str):
    out = []
    sign, buf = 1, []
    for ch in s:
        if ch in "+-":
            if buf:
                out.append((sign, "".join(buf)))
                buf = []
            elif out:
                raise ValueError(f"dangling operator in {s!r}")
            sign = 1 if ch == "+" else -1
        else:
            buf.append(ch)
    if not buf:
        raise ValueError(f"trailing operator in {s!r}")
    out.append((sign, "".join(buf)))
    return out


def fraction_str(x: Fraction) -> dict:
    """JSON form of an exact rational: string numerator/denominator pair."""
    return {"num": str(x.numerator), "den": str(x.denominator)}
