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

Every closed form is a table of terms over index arrays (m, n): a term is
a product of factors table[index], each table over 0 .. max(m) with the
scalar and per-m, per-n or per-(m-n) factors folded in as the formulas
above multiply, so each value is the per-vertex one bit for bit.
``_sum_of_products`` sums the terms of a stratum before its final q^m
factor or divisor.  Generic: one term (B_ij s_i^k)[m] (s_j^k)[n] per B_ij
that is not a structural zero.  Double: the three terms of the bracket.
Triple: the bracket as A[m] + B[m] n + C[m] n^2, where
    A = 2(q+1)(q^2+q+1) - 3(q-1)(q+1)^2 m + (q-1)^2 (q+1) m^2,
    B = 2(q-1)^2 (q+1) m - (q-1)^3 m^2,    C = (q-1)^3 m - 2(q-1)^2 (q+1);
entries, products and partial sums are integers below 2^53 wherever q^m
is finite for q < 2000 (and to depth 20000 for q <= 11), so the summation
order changes no bit.  The cube root of unity w of the triple and trivial
strata is sum(s)/3 scaled to modulus 1, and w^(m+n) is read off the
3-cycle (1, w, w^2), so it carries no rounding that grows with m+n.

The pool blocks of ``operator._scratch`` are named here alone: "padded"
of T + 1 complex entries, "column", "product" and "image" of T, "index"
and "absolute" of T 8-byte entries, 80 T bytes (9.3 MB at depth 480).  A
function uses a block only while no callee uses it; nothing a public
function returns aliases the pool.

Stability note: coefficients B_ij with |B_ij| below 1e-12 of the total are
treated as structural zeros.  On the cusped-curve parameter family
(sqrt(q) e^{i a}, e^{-2 i a}, e^{i a}/sqrt(q)) three of the six products
vanish identically but evaluate to rounding noise ~1e-16 in doubles, and
q^m |s_1|^m would amplify that noise catastrophically at sweep depths.
"""

from __future__ import annotations

import cmath
import enum
from dataclasses import dataclass

import numpy as np

from .algebra import validate_q
from .operator import (
    GridFunction, L2Space, _grid_mn, _kernel, _scratch, _take,
)

TOL_S = 1e-10        # membership in the parameter set
TOL_SING = 1e-4      # stratum dispatch on pairwise root distances
_B_ZERO = 1e-12      # structural-zero threshold for B coefficients

OMEGA = cmath.exp(2j * cmath.pi / 3)


class NotInS(ValueError):
    """Triple violates the product or conjugate-symmetry constraint."""


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
    def from_triple(cls, q: int, s1, s2, s3) -> "SpectralParam":
        s = (complex(s1), complex(s2), complex(s3))
        _check_membership(s)
        return cls(s=s, stratum=classify_stratum(q, s))

    def __iter__(self):
        return iter(self.s)


def _check_membership(s) -> None:
    for k, z in enumerate(s, 1):
        if not cmath.isfinite(z):
            raise NotInS(f"component s{k} = {z} is not finite")
    s1, s2, s3 = s
    if min(abs(s1), abs(s2), abs(s3)) == 0.0:
        raise NotInS("zero component")
    if abs(s1 * s2 * s3 - 1) > TOL_S:
        raise NotInS(f"product {s1 * s2 * s3} differs from 1")
    e1, e2 = s1 + s2 + s3, 1 / s1 + 1 / s2 + 1 / s3
    if abs(e1.conjugate() - e2) > TOL_S * max(1.0, abs(e1)):
        raise NotInS("conjugate-symmetry constraint fails")


def classify_stratum(q: int, s) -> Stratum:
    """Trivial first; otherwise three root gaps above TOL_SING mean generic."""
    s1, s2, s3 = s
    scale = max(abs(s1), abs(s2), abs(s3), 1.0)
    # trivial: some rotation of (q, 1, 1/q)
    by_mod = sorted(s, key=abs, reverse=True)
    if (abs(by_mod[0] - q * by_mod[1]) <= TOL_SING * q * scale
            and abs(by_mod[1] - q * by_mod[2]) <= TOL_SING * q * scale
            and abs(by_mod[1] ** 3 - 1) <= 10 * TOL_SING):
        return Stratum.TRIVIAL
    gaps = (abs(s1 - s2), abs(s1 - s3), abs(s2 - s3))
    distinct = sum(1 for g in gaps if g > TOL_SING * scale)
    if distinct == 3:
        return Stratum.GENERIC
    return Stratum.TRIPLE if distinct == 0 else Stratum.DOUBLE


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


def companion_roots(q: int, lam: complex):
    """The root triple of X^3 - (lam/q) X^2 + (conj(lam)/q) X - 1, in
    solve_unit_cubic's order (largest modulus first)."""
    validate_q(q)
    lam = complex(lam)
    if not cmath.isfinite(lam):
        raise ValueError(f"eigenvalue {lam} is not finite")
    return solve_unit_cubic(lam / q, lam.conjugate() / q)


def params_from_eigenvalue(q: int, lam: complex) -> SpectralParam:
    """Invert lambda+ to its root triple (with lambda- = conj(lambda+))."""
    s = companion_roots(q, lam)
    return SpectralParam(s=s, stratum=classify_stratum(q, s))


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


def _cycle(s, top: int) -> np.ndarray:
    """w^0 .. w^top for the cube root of unity w near sum(s)/3, read off the
    3-cycle (1, w, w^2)."""
    w = sum(s) / 3
    w /= abs(w)
    return np.resize(np.array([1, w, w * w]), top + 1)


def _sum_of_products(terms, out, spare) -> np.ndarray:
    """Set out to the sum, from the first term on, of the left-to-right
    products of each term's factors table[index], all of out's dtype.
    Factors are gathered into "column" and partial products alternate
    between "product" and spare: numpy rounds a complex product that lands
    in one of its own factors differently at length 1."""
    for k, ((table, index), *factors) in enumerate(terms):
        x = _take(table, index, "product")
        for table, index in factors:
            into = spare if x is not spare else _scratch("product", out.size, out.dtype)
            x = np.multiply(x, _take(table, index, "column"), out=into)
        if k:
            out += x
        else:
            out[...] = x
    return out


def _closed_form(q: int, param: SpectralParam, m: np.ndarray,
                 n: np.ndarray) -> np.ndarray:
    """f(v_mn) at each index pair of the arrays m, n, as a fresh array: the
    stratum's term table (see the module docstring), then its final factor."""
    s = param.s
    size = m.size
    out = np.empty(size, dtype=np.complex128)
    top = int(m.max())
    index = _scratch("index", size, np.intp)
    if param.stratum is Stratum.TRIVIAL:
        # clip: every index is in range (see operator._take)
        return np.take(_cycle(s, 2 * top), np.add(m, n, out=index), out=out,
                       mode="clip")

    k = np.arange(top + 1)
    kf = k.astype(np.float64)
    qk = np.power(float(q), k)

    if param.stratum is Stratum.TRIPLE:
        scale = 2 * (q + 1) * (q * q + q + 1)
        u, v = (q - 1) ** 2 * (q + 1), (q - 1) ** 3
        bracket = [[(scale - 3 * (q - 1) * (q + 1) ** 2 * kf + u * kf * kf, m)],
                   [(2 * u * kf - v * kf * kf, m), (kf, n)],
                   [(v * kf - 2 * u, m), (kf * kf, n)]]
        acc = _sum_of_products(bracket, _scratch("absolute", size, np.float64),
                               _scratch("image", size, np.float64))
        cycle = _take(_cycle(s, 2 * top), np.add(m, n, out=index), "image")
        x = np.multiply(cycle, _take(qk, m, "column"),
                        out=_scratch("product", size, np.complex128))
        x = np.multiply(x, acc, out=_scratch("column", size, np.complex128))
        return np.divide(x, scale, out=out)

    acc = _scratch("image", size, np.complex128)
    if param.stratum is Stratum.DOUBLE:
        s1, s2 = _split_double(s)
        den = (s1 - s2) ** 2 * (q + 1) * (q * q + q + 1)
        p1, p2 = np.power(s1, k), np.power(s2, k)
        lin = (1 - q) * kf + (q + 1)
        c3 = ((q - 1) * (s1 - q * s2) * (s2 - q * s1) * kf
              + (q + 1) * (q * (s1 * s1 + s2 * s2)
                           - 2 * (q * q - q + 1) * s1 * s2))
        bracket = [[((s1 - q * s2) ** 2 * lin, n), (p1, m), (p2, n)],
                   [((s2 - q * s1) ** 2 * lin, np.subtract(m, n, out=index)),
                    (p2, m), (p2, n)],
                   [(c3, m), (p1, n), (p2, m)]]
        _sum_of_products(bracket, acc, out)
        x = np.multiply(_take(qk, m, "product"), acc,
                        out=_scratch("column", size, np.complex128))
        return np.divide(x, den, out=out)

    bs = b_coefficients(q, s)
    cutoff = _B_ZERO * sum(abs(b) for b in bs.values())
    powers = [np.power(si, k) for si in s]
    # structural zeros are left out (see the module docstring), NaN kept
    terms = [[(b * powers[i], m), (powers[j], n)]
             for (i, j), b in bs.items() if not abs(b) <= cutoff]
    _sum_of_products(terms, acc, out)
    return np.multiply(_take(qk, m, "column"), acc, out=out)


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
    # real factors: an in-place product rounds as a fresh one does
    f.values *= _take(np.power(1.0 - eps, np.arange(depth + 1)), m, "absolute")
    return f


def recurrence_residual(q: int, param: SpectralParam, depth: int) -> float:
    """max over unmasked vertices and both directions of
    |A f - lambda f| / (1 + |lambda| |f|) for the closed-form f."""
    space = L2Space(q, depth)
    return _grid_residual(space, param, eigenfunction_grid(q, param, depth))


def _grid_residual(space: L2Space, param: SpectralParam, f: GridFunction) -> float:
    """recurrence_residual for the grid f of param, already evaluated."""
    pair = eigenvalue_pair(space.q, param)
    size = f.values.size
    abs_f = np.abs(f.values, out=_scratch("absolute", size, np.float64))
    worst = 0.0
    for sign, lam in ((+1, pair.lambda_plus), (-1, pair.lambda_minus)):
        ratio = np.abs(_residual(space, sign, lam, f.values),
                       out=_scratch("column", size, np.float64))
        scale = np.multiply(abs(lam), abs_f, out=_scratch("product", size, np.float64))
        scale += 1.0
        ratio /= scale
        worst = max(worst, float(ratio[space.interior].max()))
    return worst


def _residual(space: L2Space, sign: int, lam: complex, values) -> np.ndarray:
    """A f - lam f for the packed values f, in the pool block "image"."""
    image = _apply_into(space.q, space.depth, sign, values,
                        _scratch("image", values.size, np.complex128))
    image -= np.multiply(lam, values, out=_scratch("column", values.size, np.complex128))
    return image


def _apply_into(q: int, depth: int, sign: int, values, out):
    """``operator._gather``'s image of complex packed values, bit for bit,
    written into out over "padded", "index", "column" and "product"."""
    idx, coef, _ = _kernel(q, depth, sign)
    padded = _scratch("padded", values.size + 1, np.complex128)
    padded[:-1] = values
    padded[-1] = 0
    # np.take copies int32 indices to intp; copying into a block maps nothing
    index = _scratch("index", values.size, np.intp)
    product = _scratch("product", values.size, np.complex128)
    out[...] = 0
    for slot in range(3):
        np.copyto(index, idx[slot])
        out += np.multiply(coef[slot], _take(padded, index, "column"), out=product)
    return out


def _mass(space: L2Space, values) -> np.ndarray:
    """w |v|^2 per leading packed value v, as ``L2Space.norm`` forms it."""
    size = values.size
    a = np.abs(values, out=_scratch("absolute", size, np.float64))
    mass = np.multiply(space.weights[:size], a, out=_scratch("product", size, np.float64))
    mass *= a
    return mass
