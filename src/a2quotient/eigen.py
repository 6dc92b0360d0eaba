"""Spectral parameters and closed-form simultaneous eigenfunctions.

A parameter is a triple s = (s1, s2, s3) with s1 s2 s3 = 1 and
conj(s1 + s2 + s3) = 1/s1 + 1/s2 + 1/s3; the attached eigenvalue pair is

    lambda+ = q (s1 + s2 + s3),      lambda- = q (1/s1 + 1/s2 + 1/s3),

mutually conjugate on the parameter set.  Conversely a given lambda+
determines s as the root triple of X^3 - (lambda+/q) X^2 +
(conj(lambda+)/q) X - 1.

The multiplicity pattern of the triple selects the evaluation formula
(normalized to f(v00) = 1 in every stratum):

* generic (distinct roots):
      f(v_mn) = sum_{i != j} B_ij q^m s_i^m s_j^n,
      B_ij = (s_i - q s_j)(s_i - q s_k)(s_j - q s_k)
             / [(s_i - s_j)(s_i - s_k)(s_j - s_k)(q+1)(q^2+q+1)];

* double root (s1 isolated, s2 = s3), the limit of the generic sum:
      f(v_mn) = q^m / [(s1-s2)^2 (q+1)(q^2+q+1)] * [
          (s1 - q s2)^2 ((1-q) n + (q+1)) s1^m s2^n
        + (s2 - q s1)^2 ((1-q)(m-n) + (q+1)) s2^(m+n)
        + ( m (q-1)(s1 - q s2)(s2 - q s1)
            + (q+1)(q (s1^2 + s2^2) - 2 (q^2 - q + 1) s1 s2) ) s1^n s2^m ];

* triple root s1 = s2 = s3 = w (w^3 = 1):
      f(v_mn) = w^(m+n) q^m [ 2(q+1)(q^2+q+1) - 3 m (q-1)(q+1)^2
                + (q-1)^2 (q+1)(m^2 + 2 m n - 2 n^2)
                - (q-1)^3 (m^2 n - m n^2) ] / (2 (q+1)(q^2+q+1));

* trivial, s = w (q, 1, 1/q):  f(v_mn) = w^(m+n), the only L2 case.

The singular formulas were obtained as on-variety limits of the generic
sum and verified symbolically against a forward solve of the recurrences;
both are exercised against that oracle in the test suite.

Every closed form is evaluated over index arrays (m, n), and each power
x^m is gathered from one table x^0 .. x^max(m) per base, which equals the
per-vertex power bit for bit.

Stability note: coefficients B_ij with |B_ij| below 1e-12 of the total are
treated as structural zeros.  On the cusped-curve parameter family
(sqrt(q) e^{i a}, e^{-2 i a}, e^{i a}/sqrt(q)) three of the six products
vanish identically but evaluate to rounding noise ~1e-16 in doubles, and
q^m |s_1|^m would amplify that noise catastrophically at sweep depths.
"""

from __future__ import annotations

import cmath
import enum
import warnings
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .algebra import validate_q
from .operator import GridFunction, L2Space, _grid_mn

TOL_S = 1e-10        # membership in the parameter set
TOL_SING = 1e-4      # stratum dispatch on pairwise root distances
_B_ZERO = 1e-12      # structural-zero threshold for B coefficients

OMEGA = cmath.exp(2j * cmath.pi / 3)


class NotInS(ValueError):
    """Triple violates the product or conjugate-symmetry constraint."""


class NearSingularWarning(UserWarning):
    """Roots close enough to collide that the generic formula is unstable."""


class Stratum(enum.Enum):
    GENERIC = "generic"
    DOUBLE = "double"
    TRIPLE = "triple"
    TRIVIAL = "trivial"


@dataclass(frozen=True)
class EigenPair:
    lambda_plus: complex
    lambda_minus: complex


@dataclass(frozen=True)
class SpectralParam:
    s: tuple[complex, complex, complex]
    stratum: Stratum

    @classmethod
    def from_triple(cls, q: int, s1, s2, s3, tol_s: float = TOL_S,
                    tol_sing: float = TOL_SING) -> "SpectralParam":
        s = (complex(s1), complex(s2), complex(s3))
        _check_membership(s, tol_s)
        return cls(s=s, stratum=classify_stratum(q, s, tol_sing))

    def __iter__(self):
        return iter(self.s)


def _check_membership(s, tol_s: float) -> None:
    s1, s2, s3 = s
    if min(abs(s1), abs(s2), abs(s3)) == 0.0:
        raise NotInS("zero component")
    if abs(s1 * s2 * s3 - 1) > tol_s:
        raise NotInS(f"product {s1 * s2 * s3} differs from 1")
    e1, e2 = s1 + s2 + s3, 1 / s1 + 1 / s2 + 1 / s3
    if abs(e1.conjugate() - e2) > tol_s * max(1.0, abs(e1)):
        raise NotInS("conjugate-symmetry constraint fails")


def classify_stratum(q: int, s, tol_sing: float = TOL_SING) -> Stratum:
    s1, s2, s3 = s
    scale = max(abs(s1), abs(s2), abs(s3), 1.0)
    # trivial: some rotation of (q, 1, 1/q)
    by_mod = sorted(s, key=abs, reverse=True)
    if (abs(by_mod[0] - q * by_mod[1]) <= tol_sing * q * scale
            and abs(by_mod[1] - q * by_mod[2]) <= tol_sing * q * scale
            and abs(by_mod[1] ** 3 - 1) <= 10 * tol_sing):
        return Stratum.TRIVIAL
    gaps = sorted([abs(s1 - s2), abs(s1 - s3), abs(s2 - s3)])
    distinct = sum(1 for g in gaps if g > tol_sing * scale)
    if distinct == 3:
        if gaps[0] <= 10 * tol_sing * scale:
            warnings.warn("smallest root gap within 10x of the dispatch "
                          "tolerance; using the stable singular formula",
                          NearSingularWarning, stacklevel=3)
            return Stratum.DOUBLE
        return Stratum.GENERIC
    if distinct == 0:
        return Stratum.TRIPLE
    return Stratum.DOUBLE


def eigenvalue_pair(q: int, param: SpectralParam) -> EigenPair:
    """lambda+ = q e1(s), lambda- = q e2(s)."""
    validate_q(q)
    s1, s2, s3 = param.s
    return EigenPair(lambda_plus=q * (s1 + s2 + s3),
                     lambda_minus=q * (1 / s1 + 1 / s2 + 1 / s3))


def solve_unit_cubic(alpha: complex, beta: complex):
    """Roots of X^3 - alpha X^2 + beta X - 1, deterministically ordered by
    (modulus descending, argument ascending), Cardano plus one Newton step."""
    a2, a1, a0 = -alpha, beta, -1.0 + 0j
    p = a1 - a2 * a2 / 3.0
    qq = 2.0 * a2 ** 3 / 27.0 - a2 * a1 / 3.0 + a0
    shift = -a2 / 3.0
    if abs(p) < 1e-14 and abs(qq) < 1e-14:
        roots = [shift, shift, shift]
    else:
        disc = cmath.sqrt(qq * qq / 4.0 + p ** 3 / 27.0)
        u3 = -qq / 2.0 + disc
        if abs(u3) < abs(-qq / 2.0 - disc):
            u3 = -qq / 2.0 - disc
        u = u3 ** (1.0 / 3.0)
        roots = []
        for k in range(3):
            uk = u * OMEGA ** k
            vk = -p / (3.0 * uk) if uk != 0 else 0j
            roots.append(uk + vk + shift)
    def value(x):
        return ((x - alpha) * x + beta) * x - 1.0

    polished = []
    for x in roots:
        fx = value(x)
        dfx = (3.0 * x - 2.0 * alpha) * x + beta
        # one Newton step, kept only when it helps (near multiple roots the
        # quotient is 0/0 noise and must not be trusted)
        if dfx != 0:
            cand = x - fx / dfx
            if abs(value(cand)) < abs(fx):
                x = cand
        polished.append(x)
    polished.sort(key=lambda z: (-abs(z), cmath.phase(z)))
    return tuple(polished)


def params_from_eigenvalue(q: int, lam: complex, tol_sing: float = TOL_SING) -> SpectralParam:
    """Invert lambda+ to its root triple (with lambda- = conj(lambda+))."""
    validate_q(q)
    lam = complex(lam)
    s = solve_unit_cubic(lam / q, lam.conjugate() / q)
    return SpectralParam(s=s, stratum=classify_stratum(q, s, tol_sing))


# ---------------------------------------------------------------------------
# closed-form evaluation
# ---------------------------------------------------------------------------

def b_coefficients(q: int, s) -> dict[tuple[int, int], complex]:
    """The six generic expansion coefficients B_ij, i != j."""
    s = tuple(map(complex, s))
    k7 = (q + 1) * (q * q + q + 1)
    out = {}
    for i in range(3):
        for j in range(3):
            if i == j:
                continue
            k = 3 - i - j
            si, sj, sk = s[i], s[j], s[k]
            num = (si - q * sj) * (si - q * sk) * (sj - q * sk)
            den = (si - sj) * (si - sk) * (sj - sk) * k7
            out[(i, j)] = num / den
    return out


def _split_double(s):
    """Order a double triple as (isolated, repeated); the repeated value is
    averaged over its pair."""
    d12, d13, d23 = abs(s[0] - s[1]), abs(s[0] - s[2]), abs(s[1] - s[2])
    closest = min(d12, d13, d23)
    if closest == d23:
        return s[0], (s[1] + s[2]) / 2
    if closest == d13:
        return s[1], (s[0] + s[2]) / 2
    return s[2], (s[0] + s[1]) / 2


def _trivial_omega(s):
    by_mod = sorted(s, key=abs, reverse=True)
    w = by_mod[1]
    return w / abs(w)


def _powers(x, e: np.ndarray) -> np.ndarray:
    """x ** e for each entry of the index array e, gathered from one table
    x ** 0 .. x ** max(e); each entry is the np.power(x, e) value bit for bit."""
    return np.power(x, np.arange(e.max() + 1))[e]


def _closed_form(q: int, param: SpectralParam, m: np.ndarray,
                 n: np.ndarray) -> np.ndarray:
    """f(v_mn) at each index pair of the arrays m, n."""
    s = param.s
    if param.stratum is Stratum.TRIVIAL:
        return _powers(_trivial_omega(s), m + n)

    mf = m.astype(np.float64)
    nf = n.astype(np.float64)
    qm = _powers(float(q), m)

    if param.stratum is Stratum.TRIPLE:
        w = sum(s) / 3
        w /= abs(w)
        poly = (2 * (q + 1) * (q * q + q + 1)
                - 3 * mf * (q - 1) * (q + 1) ** 2
                + (q - 1) ** 2 * (q + 1) * (mf * mf + 2 * mf * nf - 2 * nf * nf)
                - (q - 1) ** 3 * (mf * mf * nf - mf * nf * nf))
        return (_powers(w, m + n) * qm * poly
                / (2 * (q + 1) * (q * q + q + 1)))

    if param.stratum is Stratum.DOUBLE:
        s1, s2 = _split_double(s)
        den = (s1 - s2) ** 2 * (q + 1) * (q * q + q + 1)
        p1m, p2m = _powers(s1, m), _powers(s2, m)
        p1n, p2n = _powers(s1, n), _powers(s2, n)
        t1 = (s1 - q * s2) ** 2 * ((1 - q) * nf + (q + 1)) * p1m * p2n
        t2 = (s2 - q * s1) ** 2 * ((1 - q) * (mf - nf) + (q + 1)) * p2m * p2n
        t3 = ((q - 1) * (s1 - q * s2) * (s2 - q * s1) * mf
              + (q + 1) * (q * (s1 * s1 + s2 * s2)
                           - 2 * (q * q - q + 1) * s1 * s2)) * p1n * p2m
        return qm * (t1 + t2 + t3) / den

    bs = b_coefficients(q, s)
    cutoff = _B_ZERO * sum(abs(b) for b in bs.values())
    powers_m = [_powers(si, m) for si in s]
    powers_n = [_powers(si, n) for si in s]
    vals = np.zeros(m.shape, dtype=np.complex128)
    for (i, j), b in bs.items():
        if abs(b) <= cutoff:
            continue  # structural zero; see module docstring
        vals += b * powers_m[i] * powers_n[j]
    return qm * vals


def eigenfunction_grid(q: int, param: SpectralParam, depth: int) -> GridFunction:
    """Closed-form values on the full depth-M triangle, f(v00) = 1."""
    validate_q(q)
    if depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth}")
    return GridFunction(depth, _closed_form(q, param, *_grid_mn(depth)))


def eigenfunction_value(q: int, param: SpectralParam, m: int, n: int) -> complex:
    """Single closed-form value f(v_mn)."""
    if not 0 <= n <= m:
        raise ValueError("need 0 <= n <= m")
    validate_q(q)
    index = np.array([m], dtype=np.int64), np.array([n], dtype=np.int64)
    return complex(_closed_form(q, param, *index)[0])


def damped_grid(q: int, param: SpectralParam, eps: float, depth: int) -> GridFunction:
    """(1 - eps)^m times the eigenfunction; square-summable for eps > 0."""
    if not 0 <= eps < 0.5:
        raise ValueError("damping must lie in [0, 1/2)")
    f = eigenfunction_grid(q, param, depth)
    if eps == 0.0:
        return f
    m, _ = _grid_mn(depth)
    return GridFunction(depth, f.values * _powers(1.0 - eps, m))


def recurrence_residual(q: int, param: SpectralParam, depth: int) -> float:
    """max over unmasked vertices and both directions of
    |A f - lambda f| / (1 + |lambda| |f|) for the closed-form f."""
    space = L2Space(q, depth)
    return _grid_residual(space, param, eigenfunction_grid(q, param, depth))


def _grid_residual(space: L2Space, param: SpectralParam, f: GridFunction) -> float:
    """recurrence_residual for the grid f of param, already evaluated."""
    pair = eigenvalue_pair(space.q, param)
    worst = 0.0
    for sign, lam in ((+1, pair.lambda_plus), (-1, pair.lambda_minus)):
        af, mask = space.apply(sign, f)
        resid = np.abs(af.values - lam * f.values)
        scale = 1.0 + abs(lam) * np.abs(f.values)
        worst = max(worst, float((resid / scale)[~mask].max()))
    return worst


# ---------------------------------------------------------------------------
# exact arithmetic in the rationals adjoined a primitive cube root of unity
# ---------------------------------------------------------------------------

class Eisenstein:
    """a + b w with rational a, b and w^2 = -1 - w (primitive cube root).

    Just enough ring structure for exact eigenfunction identities: +, -, *,
    integer/Fraction scaling, conjugation and equality.
    """

    __slots__ = ("a", "b")

    def __init__(self, a=0, b=0):
        self.a = Fraction(a)
        self.b = Fraction(b)

    @classmethod
    def omega_power(cls, k: int) -> "Eisenstein":
        return (cls(1, 0), cls(0, 1), cls(-1, -1))[k % 3]

    def __add__(self, other):
        other = self._coerce(other)
        return Eisenstein(self.a + other.a, self.b + other.b)

    __radd__ = __add__

    def __neg__(self):
        return Eisenstein(-self.a, -self.b)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        other = self._coerce(other)
        # (a1 + b1 w)(a2 + b2 w), w^2 = -1 - w
        a = self.a * other.a - self.b * other.b
        b = self.a * other.b + self.b * other.a - self.b * other.b
        return Eisenstein(a, b)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Eisenstein):
            return self * other.inverse()
        return Eisenstein(self.a / other, self.b / other)

    def inverse(self) -> "Eisenstein":
        nrm = self.a * self.a - self.a * self.b + self.b * self.b
        if nrm == 0:
            raise ZeroDivisionError("inverse of zero")
        return Eisenstein((self.a - self.b) / nrm, -self.b / nrm)

    def conjugate(self) -> "Eisenstein":
        return Eisenstein(self.a - self.b, -self.b)

    @staticmethod
    def _coerce(x) -> "Eisenstein":
        if isinstance(x, Eisenstein):
            return x
        if isinstance(x, (int, Fraction)):
            return Eisenstein(x, 0)
        raise TypeError(f"cannot coerce {type(x).__name__} to Eisenstein")

    def __eq__(self, other):
        try:
            other = self._coerce(other)
        except TypeError:
            return NotImplemented
        return self.a == other.a and self.b == other.b

    def __hash__(self):
        return hash((self.a, self.b))

    def __complex__(self):
        return complex(self.a) + complex(self.b) * OMEGA

    def __repr__(self):
        return f"Eisenstein({self.a}, {self.b})"

    def __pow__(self, k: int):
        out, base = Eisenstein(1, 0), self
        if k < 0:
            base, k = base.inverse(), -k
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out


def trivial_eigenfunction_exact(k: int, depth: int) -> np.ndarray:
    """The k-th trivial eigenfunction w^(k (m+n)) as exact Eisenstein
    values, packed in ``vertex_index`` order in an object array."""
    m, n = _grid_mn(depth)
    return np.array([Eisenstein.omega_power(k * s) for s in (m + n).tolist()],
                    dtype=object)
