"""Exact arithmetic over F_q, F_q[t] and F_q(t).

Polynomials are coefficient tuples over a prime field F_q, little-endian with
no trailing zeros (the zero polynomial is the empty tuple, degree -1 by
convention).  Rational functions are kept canonical: denominator monic,
fraction in lowest terms, so equality and hashing are structural.

Every coefficient is a residue: a Python int in [0, q).  The public
``Poly(q, coeffs)`` (and ``zero``, ``one``, ``const``, ``monomial``, which
call it) is where outside values enter, so it checks them: q must be a
prime (``validate_q``, else ValueError) and each coefficient an integer
(else TypeError); it reduces them mod q and trims.  ``scale`` and
``shifted`` check their multiplier the same way.  Arithmetic results are
built by the private ``_poly``, which takes residues already in [0, q) and
only trims them: ``+``, ``-`` (direct, no negated temporary), ``*``
(reduced once, after the convolution), ``divmod``, ``monic``, ``scale``
and ``shifted`` (c t^k p, the pivot step of the normal-form reduction).
``RatFunc`` skips the gcd when the denominator is constant and the rescale
when it is already monic.

The valuation is the one attached to the place at infinity of F_q(t),

    nu(g/h) = deg(h) - deg(g),        nu(0) = +infinity,

so that the absolute value is q^(-nu).  The local ring O consists of the
rational functions with nu >= 0 (power series in 1/t).
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from operator import index


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


def _poly(q: int, cs: list) -> "Poly":
    """The polynomial with residues ``cs``, each already in [0, q), trimmed of
    trailing zeros; ``q`` is taken as already checked."""
    while cs and not cs[-1]:
        cs.pop()
    p = object.__new__(Poly)
    p.q = q
    p.coeffs = tuple(cs)
    return p


class Poly:
    """Immutable polynomial over F_q (q prime)."""

    __slots__ = ("q", "coeffs")

    def __init__(self, q: int, coeffs=()):
        validate_q(q)
        cs = [index(c) % q for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.q = q
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

    def monic(self) -> "Poly":
        if self.is_zero:
            raise DegenerateInput("zero polynomial has no monic form")
        q = self.q
        inv = _inv_mod(self.lc(), q)
        if inv == 1:
            return self
        return _poly(q, [c * inv % q for c in self.coeffs])

    # -- arithmetic ----------------------------------------------------
    def _check(self, other: "Poly") -> None:
        if self.q != other.q:
            raise ValueError("mixed field sizes")

    def __add__(self, other: "Poly") -> "Poly":
        self._check(other)
        q, a, b = self.q, self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = [(x + y) % q for x, y in zip(a, b)]
        out += a[len(b):]
        return _poly(q, out)

    def __neg__(self) -> "Poly":
        q = self.q
        return _poly(q, [-c % q for c in self.coeffs])

    def __sub__(self, other: "Poly") -> "Poly":
        self._check(other)
        q, a, b = self.q, self.coeffs, other.coeffs
        out = [(x - y) % q for x, y in zip(a, b)]
        if len(a) >= len(b):
            out += a[len(b):]
        else:
            out += [-y % q for y in b[len(a):]]
        return _poly(q, out)

    def __mul__(self, other: "Poly") -> "Poly":
        self._check(other)
        q, a, b = self.q, self.coeffs, other.coeffs
        if not a or not b:
            return _poly(q, [])
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b, i):
                    out[j] += x * y
        return _poly(q, [c % q for c in out])

    def scale(self, c: int) -> "Poly":
        q = self.q
        c = index(c) % q
        return _poly(q, [c * a % q for a in self.coeffs] if c else [])

    def shifted(self, k: int, c: int = 1) -> "Poly":
        """c t^k times this polynomial, for k >= 0."""
        if k < 0:
            raise ValueError("monomial exponent must be >= 0")
        q = self.q
        c = index(c) % q
        if not c or not self.coeffs:
            return _poly(q, [])
        cs = self.coeffs if c == 1 else [c * a % q for a in self.coeffs]
        return _poly(q, [0] * k + list(cs))

    def __divmod__(self, other: "Poly"):
        self._check(other)
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        q = self.q
        q_, rem = [], list(self.coeffs)
        dlead = _inv_mod(other.lc(), q)
        dd = other.degree
        for k in range(len(rem) - 1 - dd, -1, -1):
            c = (rem[k + dd] * dlead) % q
            if c:
                for i, b in enumerate(other.coeffs):
                    rem[k + i] = (rem[k + i] - c * b) % q
            q_.append(c)
        q_.reverse()
        return _poly(q, q_), _poly(q, rem[:dd] if dd > 0 else [])

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
        q = num.q
        if den is None:
            den = _poly(q, [1])
        if q != den.q:
            raise ValueError("mixed field sizes")
        if den.is_zero:
            raise ZeroDivisionError("zero denominator")
        if num.is_zero:
            den = _poly(q, [1])
        else:
            if den.degree > 0:
                g = poly_gcd(num, den)
                if g.degree > 0:
                    num, den = num // g, den // g
            if den.lc() != 1:
                inv = _inv_mod(den.lc(), q)
                num, den = num.scale(inv), den.scale(inv)
        self.num = num
        self.den = den

    # -- constructors ---------------------------------------------------
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
# text syntax (the grammar is in the README, "Matrix entries"): "t^3+2*t+1",
# "(t^2+1)/(t)"; coefficients are decimal digits and must be < q, '-' is the
# field negation and a '*' only joins a coefficient to t.  A body splits at
# its signs; every sign needs a term after it, and all but the first one before.
# ---------------------------------------------------------------------------

MAX_EXPONENT = 10_000   # the largest exponent of t an entry may hold

_TERM = re.compile(r"^(?:(\d+)(?:\*(?=t))?)?(t(?:\^(\d+))?)?$")
_SIGNS = re.compile(r"([+-])")


def parse_poly(q: int, text: str) -> Poly:
    s = text.replace(" ", "")
    if s.startswith("(") and s.endswith(")"):
        s = s[1:-1]
    if not s:
        raise ValueError("empty polynomial")
    parts = _SIGNS.split(s)  # bodies at even places, each after its sign
    if "" in parts[2:-1:2]:
        raise ValueError(f"dangling operator in {s!r}")
    if not parts[-1]:
        raise ValueError(f"trailing operator in {s!r}")
    coeffs: dict[int, int] = {}
    for sign, body in zip(["+", *parts[1::2]], parts[::2]):
        if not body:  # an empty first body: one leading sign
            continue
        m = _TERM.match(body)
        if not m:
            raise ValueError(f"cannot parse term {body!r}")
        coef, t, exp = m.groups()
        # a digit run is read after its leading zeros; one with more digits
        # than its bound is over that bound, and never goes to int()
        run = (coef or "1").lstrip("0")
        c = int(run or "0") if len(run) <= len(str(q)) else q
        if c >= q:
            raise ValueError(f"coefficient {run} not reduced mod q={q}")
        run = (exp or "1").lstrip("0") if t else ""
        k = int(run or "0") if len(run) <= len(str(MAX_EXPONENT)) else MAX_EXPONENT + 1
        if k > MAX_EXPONENT:
            raise ValueError(f"exponent in term {body!r} is above {MAX_EXPONENT}")
        coeffs[k] = (coeffs.get(k, 0) + (c if sign == "+" else -c)) % q
    deg = max(coeffs)
    return Poly(q, [coeffs.get(i, 0) for i in range(deg + 1)])


def parse_ratfunc(q: int, text: str) -> RatFunc:
    top, slash, bottom = text.replace(" ", "").partition("/")
    if not slash:
        return RatFunc(parse_poly(q, top))
    den = parse_poly(q, bottom)
    if den.is_zero:
        raise ValueError(f"zero denominator in {text!r}")
    return RatFunc(parse_poly(q, top), den)


def fraction_str(x: Fraction) -> dict:
    """JSON form of an exact rational: string numerator/denominator pair."""
    return {"num": str(x.numerator), "den": str(x.denominator)}
