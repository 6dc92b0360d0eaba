"""The weighted quotient complex on the vertex triangle {0 <= n <= m}.

Vertices v_{m,n} stand for the classes of diag(t^m, t^n, 1).  The module
carries everything exact: colors mod 3, stabilizer orders, vertex weights,
the adjacency rule, and the coefficient rows of the two colored operators

    (A+ f)(v) = sum c+(v, v') f(v'),      (A- f)(v) = sum c-(v, v') f(v'),

where the coefficient on an edge is the entering degree w(edge)/w(source).
Rows always sum to q^2 + q + 1 in both directions.

Each vertex falls in one of four strata (``stratum``): the origin v00,
the bottom row n = 0, the diagonal n = m, and the interior.  A row depends
only on the stratum.  ``table(q, sign)`` is the one copy of the integer
coefficients in the package: the rows here and the operator kernel in
:mod:`a2quotient.operator` both read it, and ``weight_factors(q)`` holds
the per-stratum weight factors from which the vertex weights, the
stabilizer orders and both inner products derive.  ``QuotientComplex``
owns the truncation at depth M: ``row`` splits one vertex's row into the
terms within the depth and the masked ones, and ``shells`` gives the same
split shell by shell and stratum by stratum, the view the ``complex``
subcommand writes.  Displayed:

    A+ : v00 -> (v10, q^2+q+1)
         v_m0 -> (v_{m+1,0}, 1), (v_m1, q^2+q)
         v_mm -> (v_{m-1,m-1}, q^2), (v_{m+1,m}, q+1)
         interior -> (v_{m-1,n-1}, q^2), (v_{m,n+1}, q), (v_{m+1,n}, 1)

    A- : v00 -> (v11, q^2+q+1)
         v_m0 -> (v_{m-1,0}, q^2), (v_{m+1,1}, q+1)
         v_mm -> (v_{m,m-1}, q^2+q), (v_{m+1,m+1}, 1)
         interior -> (v_{m-1,n}, q^2), (v_{m,n-1}, q), (v_{m+1,n+1}, 1)

An independent cross-check recomputes each coefficient as a stabilizer
index |G_u| / |G_u ∩ G_v| by exact counting from the degree-bound
parametrization of the stabilizers (upper-triangular-type groups whose
entries are polynomials of bounded degree).  Note the index on the edge
v_{m,0} -> v_{m+1,1} is q+1: the intersection there loses the lower 2x2
block freedom of the bottom-row stabilizer, so it is strictly smaller than
the full stabilizer even though the degree bounds alone would not shrink.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .algebra import validate_q


class NotAdjacent(ValueError):
    """The two vertices do not span an edge."""


@dataclass(frozen=True, order=True)
class Vertex:
    m: int
    n: int

    def __post_init__(self):
        if not (0 <= self.n <= self.m):
            raise ValueError(f"vertex requires 0 <= n <= m, got ({self.m}, {self.n})")

    def __iter__(self):
        return iter((self.m, self.n))

    def __str__(self):
        return f"v({self.m},{self.n})"


def color(v: Vertex) -> int:
    """Color in Z/3; the raising operator steps color by +1."""
    return (v.m + v.n) % 3


def stratum(m, n):
    """Vertex type: 0 the origin v00, 1 the bottom row n = 0, 2 the
    diagonal n = m, 3 the interior.  Only comparisons and integer
    arithmetic, so it evaluates ints and numpy index arrays alike."""
    return 2 * (n > 0) + (m > n)


@lru_cache(maxsize=64)
def weight_factors(q: int) -> tuple[Fraction, ...]:
    """Per stratum the factor F of the vertex weight w(v_mn) = F q^(-2m);
    ``stabilizer_order_counted`` recomputes it independently."""
    return (Fraction(1, q * q + q + 1), Fraction(1), Fraction(1),
            Fraction(q + 1))


def _factor(q: int, m: int, n: int) -> Fraction:
    """The weight factor F of v_mn, for a prime q and 0 <= n <= m."""
    validate_q(q)
    if not 0 <= n <= m:
        raise ValueError("need 0 <= n <= m")
    return weight_factors(q)[stratum(m, n)]


def stabilizer_order(q: int, m: int, n: int) -> int:
    """Exact order q^(2m+3)(q+1)(q-1)^2 / F of the stabilizer of
    diag(t^m, t^n, 1), for the weight factor F of its stratum."""
    f = _factor(q, m, n)
    # F is 1/(q^2+q+1), 1 or q+1, so the quotient is an integer
    return q ** (2 * m + 3) * ((q + 1) * (q - 1) ** 2 * f.denominator // f.numerator)


@lru_cache(maxsize=1 << 15)
def vertex_weight(q: int, m: int, n: int) -> Fraction:
    """Weight F q^(-2m) = q^3(q+1)(q-1)^2 / |stabilizer|, in lowest terms."""
    return _factor(q, m, n) / q ** (2 * m)


@lru_cache(maxsize=64)
def table(q: int, sign: int) -> tuple[tuple[tuple[int, int, int], ...], ...]:
    """The coefficient rows of A+ (sign +1) or A- (sign -1), one per
    stratum, each a tuple of steps (dm, dn, coefficient) in slot order:
    the row at v_mn has the term c on v_{m+dm, n+dn}.  This is the only
    copy of the table in the package; the steps do not depend on q."""
    k = q * q + q + 1
    if sign == +1:
        return (((1, 0, k),),
                ((1, 0, 1), (0, 1, q * q + q)),
                ((-1, -1, q * q), (1, 0, q + 1)),
                ((-1, -1, q * q), (0, 1, q), (1, 0, 1)))
    if sign == -1:
        return (((1, 1, k),),
                ((-1, 0, q * q), (1, 1, q + 1)),
                ((0, -1, q * q + q), (1, 1, 1)),
                ((-1, 0, q * q), (0, -1, q), (1, 1, 1)))
    raise ValueError("sign must be +1 or -1")


def neighbors(v: Vertex) -> list[Vertex]:
    """All vertices joined to v by an edge (no truncation): the targets of
    the two operator rows at v, whose steps are the same for every q."""
    return [t for sign in (+1, -1) for t, _ in coeffs(2, v, sign)]


def is_adjacent(u: Vertex, v: Vertex) -> bool:
    return v in neighbors(u)


def coeffs(q: int, v: Vertex, sign: int) -> list[tuple[Vertex, int]]:
    """Row of the color-raising (+1) or color-lowering (-1) operator at v
    (untruncated)."""
    m, n = v.m, v.n
    return [(Vertex(m + dm, n + dn), c)
            for dm, dn, c in table(q, sign)[stratum(m, n)]]


# ---------------------------------------------------------------------------
# stabilizer counting from degree bounds (the independent route)
# ---------------------------------------------------------------------------

def _degree_bounds(m: int, n: int) -> tuple[tuple[int | None, ...], ...]:
    """Entry (i, j) may be any polynomial of degree <= e_i - e_j, where
    e = (m, n, 0); a negative bound forces the entry to vanish."""
    e = (m, n, 0)
    return tuple(tuple(e[i] - e[j] if e[i] - e[j] >= 0 else None
                       for j in range(3)) for i in range(3))


def _meet(a, b):
    return tuple(tuple(None if x is None or y is None else min(x, y)
                       for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def _gl_order(q: int, d: int) -> int:
    out = 1
    for i in range(d):
        out *= q ** d - q ** i
    return out


def _count_pattern(q: int, pat) -> int:
    """Number of invertible matrices over F_q[t] respecting the degree
    bounds, with determinant a nonzero constant, divided by the q-1 scalars.

    The bounded entries split into a constant part and free higher
    coefficients; for every pattern that arises from vertices and edges the
    determinant only sees the constants, whose support is one of: upper
    triangular, an upper or lower 2x2 block, or everything.
    """
    lower = {(i, j) for i in range(3) for j in range(3)
             if i > j and pat[i][j] is not None}
    upper_consts = [(i, j) for i in range(3) for j in range(3)
                    if i < j and pat[i][j] is not None]
    if lower == {(1, 0), (2, 0), (2, 1)}:
        g0 = _gl_order(q, 3)
        block = {(0, 1), (0, 2), (1, 2)}
    elif lower == {(1, 0)}:
        g0 = _gl_order(q, 2) * (q - 1)
        block = {(0, 1)}
    elif lower == {(2, 1)}:
        g0 = (q - 1) * _gl_order(q, 2)
        block = {(1, 2)}
    elif not lower:
        g0 = (q - 1) ** 3
        block = set()
    else:
        raise ValueError(f"unexpected constant support {lower}")
    free_consts = sum(1 for ij in upper_consts if ij not in block)
    higher = sum(pat[i][j] for i in range(3) for j in range(3)
                 if pat[i][j] is not None)
    return g0 * q ** free_consts * q ** higher // (q - 1)


def stabilizer_order_counted(q: int, m: int, n: int) -> int:
    """Stabilizer order recomputed by counting; must match the closed form."""
    validate_q(q)
    return _count_pattern(q, _degree_bounds(m, n))


def edge_coeff_from_stabilizers(q: int, u: Vertex, v: Vertex) -> Fraction:
    """Operator coefficient on the edge u -> v as the index
    |G_u| / |G_u ∩ G_v|, counted exactly from the degree bounds."""
    if not is_adjacent(u, v):
        raise NotAdjacent(f"{u} and {v} are not adjacent")
    pat = _meet(_degree_bounds(u.m, u.n), _degree_bounds(v.m, v.n))
    return Fraction(stabilizer_order_counted(q, u.m, u.n), _count_pattern(q, pat))


# ---------------------------------------------------------------------------
# truncated complex
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CoeffRow:
    """One operator row at a vertex of the truncated complex.

    ``terms`` lie inside the truncation; ``masked`` lists the coefficients
    whose target falls beyond the depth, so boundary error stays visible
    instead of being silently dropped.
    """

    terms: tuple[tuple[Vertex, int], ...]
    masked: tuple[tuple[Vertex, int], ...]


def _split(steps, m: int, depth: int) -> tuple[list, list]:
    """The steps (dm, dn, c) of a row on shell m as (in range, masked),
    each in slot order: a step is masked when m + dm > depth."""
    inside, masked = [], []
    for step in steps:
        (masked if m + step[0] > depth else inside).append(step)
    return inside, masked


class QuotientComplex:
    """Truncated weighted complex at prime q, depth M >= 2."""

    def __init__(self, q: int, depth: int):
        validate_q(q)
        if depth < 2:
            raise ValueError("depth must be >= 2")
        self.q = q
        self.depth = depth

    def vertices(self) -> list[Vertex]:
        return [Vertex(m, n) for m in range(self.depth + 1) for n in range(m + 1)]

    def weight(self, v: Vertex) -> Fraction:
        return vertex_weight(self.q, v.m, v.n)

    def row(self, v: Vertex, sign: int) -> CoeffRow:
        if v.m > self.depth:
            raise ValueError("vertex beyond truncation depth")
        m, n = v
        terms, masked = (tuple((Vertex(m + dm, n + dn), c) for dm, dn, c in part)
                         for part in _split(table(self.q, sign)[stratum(m, n)],
                                            m, self.depth))
        return CoeffRow(terms=terms, masked=masked)

    def shells(self):
        """The complex shell by shell, built per stratum and never per
        vertex: for each m, the strata of shell m in n order, each as its
        range of n, exact weight, stabilizer order and the steps (dm, dn, c)
        of A+ and A- as (label, in range, masked), split as ``row`` splits
        them."""
        q, depth = self.q, self.depth
        tables = [(label, table(q, sign))
                  for sign, label in ((+1, "plus"), (-1, "minus"))]
        for m in range(depth + 1):
            strata = []
            # n = 0, the interior 0 < n < m, n = m (the same vertex at m = 0)
            for ns in filter(None, (range(1), range(1, m), range(max(m, 1), m + 1))):
                n = ns[0]
                rows = [(label, *_split(tab[stratum(m, n)], m, depth))
                        for label, tab in tables]
                strata.append((ns, vertex_weight(q, m, n),
                               stabilizer_order(q, m, n), rows))
            yield m, strata
