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

The grids and the residual sums read one expansion of these formulas,
``_expansion``: f(v_mn) = q^m sum_t p_t(k, n) x_t^m y_t^n with k = m - n,
a polynomial p_t per root pair.  ``_closed_form`` evaluates its terms over
index arrays (m, n) from tables over 0 .. max(m), a power x^m gathered from
one table x^0 .. x^max(m).  The cube root of unity w of the triple and
trivial strata is sum(s)/3 scaled to modulus 1, and its powers are read off
the 3-cycle (1, w, w^2), so they carry no rounding that grows with m+n.

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
from .operator import GridFunction, L2Space, _blocks, _grid_mn

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


def _closed_form(q: int, param: SpectralParam, m: np.ndarray,
                 n: np.ndarray) -> np.ndarray:
    """f(v_mn) at each index pair of the arrays m, n, block by block:
    _expansion's terms x_t^m y_t^n p_t(k, n), k = m - n, from tables over
    0 .. max(m), then the final factor q^m.  A constant p_t folds into x_t's
    table, the part of p_t free of k into y_t's; the rest, sum_b K_b(k) n^b,
    is summed per block, times y_t^n, before the k-free part joins it and
    x_t^m multiplies both.  Trivial reads w^(m+n) off the 3-cycle: its term
    q^m (w/q)^m is inf * 0 past m ~ 1023 at q=2."""
    s, top = param.s, int(m.max())
    out = np.empty(m.shape, dtype=np.complex128)
    if param.stratum is Stratum.TRIVIAL:
        cycle = _cycle(s, 2 * top)
        for b in _blocks(m.size):
            out[b] = cycle[m[b] + n[b]]
        return out

    k = np.arange(top + 1)
    kf = k.astype(np.float64)
    qk = np.power(float(q), k)
    terms = _expansion(q, param)
    triple = param.stratum is Stratum.TRIPLE  # w^k off the 3-cycle, as _expansion's w
    powers = {z: _cycle(s, top) if triple else np.power(z, k)
              for z in {z for _, x, y in terms for z in (x, y)}}
    tables = []  # per term: x_t, y_t times p_t's k-free part, y_t, {b: K_b}
    for p, x, y in terms:
        if list(p) == [(0, 0)]:
            tables.append((p[0, 0] * powers[x], powers[y], None, {}))
            continue
        free = sum(c * kf ** b for (a, b), c in p.items() if not a)
        kpart = {b: sum(c * kf ** a for (a, b2), c in p.items() if a and b2 == b)
                 for b in sorted({b for a, b in p if a})}
        tables.append((powers[x], free * powers[y], powers[y], kpart))

    for b in _blocks(m.size):
        mb, nb = m[b], n[b]
        total = None
        for x, free, y, kpart in tables:
            if kpart:
                diff, nf = mb - nb, kf[nb] if any(kpart) else None
                ksum = None
                for power, table in kpart.items():
                    product = table[diff]
                    for _ in range(power):
                        # not product * nf: from 256 KiB numpy elides a
                        # temporary nf and computes nf * product into it,
                        # and its complex product is not bitwise commutative
                        product = np.multiply(product, nf)
                    ksum = product if ksum is None else np.add(ksum, product, out=ksum)
                term = np.multiply(y[nb], ksum)
                term += free[nb]
            term = np.multiply(x[mb], term if kpart else free[nb])
            total = term if total is None else np.add(total, term, out=total)
        out[b] = np.multiply(qk[mb], total)
    return out


def _expansion(q: int, param: SpectralParam) -> list[tuple[dict, complex, complex]]:
    """The formulas above as terms (p_t, x_t, y_t) of f(v_mn) = q^m sum_t
    p_t(m - n, n) x_t^m y_t^n, p_t = {(a, b): c} for sum c k^a n^b on monomials
    closed under lowering a or b (so shifts keep them): generic B_ij at (s_i, s_j)
    without structural zeros, NaN kept; trivial (1, w/q, w); double at (s1, s2),
    (s2, s2), (s2, s1); triple at (w, w), with m^2 + 2mn - 2n^2 = k^2 + 4kn + n^2
    and m^2 n - m n^2 = k^2 n + k n^2 (m = k + n).  The grids
    (``_closed_form``) and the residual sums (``spectra``) both read these
    terms."""
    s = param.s
    if param.stratum in (Stratum.TRIVIAL, Stratum.TRIPLE):
        w = complex(_cycle(s, 1)[-1])
        if param.stratum is Stratum.TRIVIAL:
            return [({(0, 0): 1.0}, w / q, w)]
        scale = 2 * (q + 1) * (q * q + q + 1)
        lin = -3 * (q - 1) * (q + 1) ** 2 / scale
        u, v = (q - 1) ** 2 * (q + 1) / scale, -(q - 1) ** 3 / scale
        return [({(0, 0): 1.0, (1, 0): lin, (0, 1): lin, (2, 0): u,
                  (1, 1): 4 * u, (0, 2): u, (2, 1): v, (1, 2): v}, w, w)]
    if param.stratum is Stratum.DOUBLE:
        s1, s2 = _split_double(s)
        den = (s1 - s2) ** 2 * (q + 1) * (q * q + q + 1)
        a1, a2 = (s1 - q * s2) ** 2 / den, (s2 - q * s1) ** 2 / den
        c1 = (q - 1) * (s1 - q * s2) * (s2 - q * s1) / den
        c0 = (q + 1) * (q * (s1 * s1 + s2 * s2) - 2 * (q * q - q + 1) * s1 * s2) / den
        return [({(0, 0): (q + 1) * a1, (0, 1): (1 - q) * a1}, s1, s2),
                ({(0, 0): (q + 1) * a2, (1, 0): (1 - q) * a2}, s2, s2),
                ({(0, 0): c0, (1, 0): c1, (0, 1): c1}, s2, s1)]
    bs = b_coefficients(q, s)
    cutoff = _B_ZERO * sum(abs(b) for b in bs.values())
    return [({(0, 0): b}, s[i], s[j]) for (i, j), b in bs.items()
            if not abs(b) <= cutoff]


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
        image = space.apply(sign, f)[0].values
        maxima = [np.max(np.abs(image[b] - np.multiply(lam, f.values[b]))
                         / (abs(lam) * np.abs(f.values[b]) + 1.0))
                  for b in _blocks(space.interior.stop)]
        del image  # freed before the next apply, so its memory is reused
        # np.max keeps a NaN block maximum, as one max over the rows does
        worst = max(worst, float(np.max(maxima)))
    return worst
