"""Normal forms for projective matrix classes over F_q(t).

Every invertible 2x2 or 3x3 matrix class g over F_q(t) factors as

    g  =  gamma . diag(t^m, t^n, 1) . w        (projectively)

with gamma in the modular group PGL(d, F_q[t]), w in the maximal compact
PGL(d, O) (entries of valuation >= 0, determinant of valuation 0), and a
unique exponent pair m >= n >= 0 (a single exponent for d = 2).  The
reduction is constructive and returns both witness factors exactly, so
results carry a certificate that ``verify_witness`` checks independently.

The exponents are the row degrees k_0 >= ... >= k_{d-1} of a row-reduced
basis R of the F_q[t]-lattice spanned by the rows of g (A. K. Lenstra,
JCSS 30, 1985), shifted so the last is 0.  ``reduce_matrix`` clears
denominators once and runs the pivot loop of Mulders and Storjohann
(J. Symbolic Comput. 35, 2003) on the polynomial rows.  The pivot of a row
is the rightmost column that attains its degree.  While some row has, in the
pivot column of another row, an entry of at least that row's degree, it
loses c t^k times the other row, which cancels the entry's top term.  A
step on a shared pivot lowers the row degree or moves the pivot left; any
other step keeps both and trades the entry's top term for smaller terms, so
the loop ends, in Popov form.  The rows then have distinct pivots, so their
leading coefficients form an invertible matrix and w = diag(t^-k_i) R lies
in PGL(d, O).  gamma is the inverse of the row transform, built up by the
matching column updates.  A singular input shows up as a zero row.

The checks clear denominators once and then test degrees over F_q[t].  With
P the cleared matrix, D = det P and c the gcd of P's entries, the class lies
in PGL(d, F_q[t]) iff D != 0 and deg D = d deg c (P/c is its only polynomial
representative up to a constant), and in PGL(d, O) iff D != 0 and
deg D = d max deg P_ij.  ``verify_witness`` compares the polynomial product
of the witnesses with P projectively, cross-multiplying against one pivot.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

from .algebra import Poly, RatFunc, poly_gcd


class Singular(ValueError):
    """Input matrix has determinant zero."""


@dataclass(frozen=True)
class ProjMat:
    """Invertible d x d matrix over F_q(t) taken modulo scalars (d in {2, 3})."""

    entries: tuple[tuple[RatFunc, ...], ...]

    def __post_init__(self):
        d = len(self.entries)
        if d not in (2, 3) or any(len(row) != d for row in self.entries):
            raise ValueError("entries must form a 2x2 or 3x3 matrix")

    @property
    def dim(self) -> int:
        return len(self.entries)

    @property
    def q(self) -> int:
        return self.entries[0][0].q

    @classmethod
    def from_rows(cls, rows) -> "ProjMat":
        return cls(tuple(tuple(row) for row in rows))

    @classmethod
    def identity(cls, q: int, dim: int) -> "ProjMat":
        one, zero = RatFunc.one(q), RatFunc.zero(q)
        return cls.from_rows([[one if i == j else zero for j in range(dim)]
                              for i in range(dim)])

    @classmethod
    def diagonal(cls, q: int, powers) -> "ProjMat":
        """diag(t^k) for a list of integer exponents."""
        dim = len(powers)
        zero = RatFunc.zero(q)
        return cls.from_rows([[RatFunc.t_power(q, powers[i]) if i == j else zero
                               for j in range(dim)] for i in range(dim)])

    @classmethod
    def from_strings(cls, q: int, rows) -> "ProjMat":
        from .algebra import parse_ratfunc
        return cls.from_rows([[parse_ratfunc(q, e) for e in row] for row in rows])

    def __matmul__(self, other: "ProjMat") -> "ProjMat":
        return ProjMat.from_rows(_matmul(self.entries, other.entries))

    def scaled(self, lam: RatFunc) -> "ProjMat":
        return ProjMat.from_rows([[lam * e for e in row] for row in self.entries])

    def det(self) -> RatFunc:
        return _det(self.entries)

    def __str__(self) -> str:
        return ";".join(",".join(str(e) for e in row) for row in self.entries)


def _matmul(A, B):
    d = len(A)
    return [[sum((A[i][k] * B[k][j] for k in range(1, d)),
                 start=A[i][0] * B[0][j]) for j in range(d)] for i in range(d)]


def _det(E):
    if len(E) == 2:
        return E[0][0] * E[1][1] - E[0][1] * E[1][0]
    a, b, c = E[0]
    d, e, f = E[1]
    g, h, i = E[2]
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


@dataclass(frozen=True)
class ReductionResult:
    """Normal-form exponents plus the two verified group witnesses.

    For dim 2 the single exponent lives in ``m`` and ``n`` is None.
    The defining relation, checked by ``verify_witness``, is
    input = gamma . diag(t^m, t^n, 1) . w  as projective classes.
    """

    m: int
    n: int | None
    gamma: ProjMat
    w: ProjMat

    def normal_form(self, q: int) -> ProjMat:
        if self.n is None:
            return ProjMat.diagonal(q, [self.m, 0])
        return ProjMat.diagonal(q, [self.m, self.n, 0])


# ---------------------------------------------------------------------------
# group membership tests
# ---------------------------------------------------------------------------

def _cleared(entries) -> list[list[Poly]]:
    """The entries times the lcm of their denominators: a matrix over F_q[t]
    in the same projective class."""
    den = Poly.one(entries[0][0].q)
    for row in entries:
        for e in row:
            if e.den.degree and den % e.den:
                den = den // poly_gcd(den, e.den) * e.den
    return [[e.num * (den // e.den if e.den.degree else den) for e in row]
            for row in entries]


def _modular(P: list[list[Poly]]) -> bool:
    k = _det(P).degree
    if k <= 0:  # deg det(P/c) = k - d deg c >= 0, so k = 0 forces deg c = 0
        return k == 0
    return k == len(P) * reduce(poly_gcd, (p for row in P for p in row)).degree


def _compact(P: list[list[Poly]]) -> bool:
    k = _det(P).degree
    return k >= 0 and k == len(P) * max(p.degree for row in P for p in row)


def in_modular_group(g: ProjMat) -> bool:
    """Does the class contain a matrix over F_q[t] with unit determinant?"""
    return _modular(_cleared(g.entries))


def in_maximal_compact(g: ProjMat) -> bool:
    """Does the class contain a matrix with all valuations >= 0 and
    determinant of valuation 0?"""
    return _compact(_cleared(g.entries))


def _proj_eq(A: list[list[Poly]], B: list[list[Poly]]) -> bool:
    """Is B = lambda A for a nonzero scalar lambda (and A nonzero)?"""
    pairs = [(a, b) for ra, rb in zip(A, B) for a, b in zip(ra, rb) if a or b]
    if not pairs or not all(a and b for a, b in pairs):  # zero patterns differ
        return False
    pa, pb = pairs[0]
    return all(a * pb == b * pa for a, b in pairs[1:])


# ---------------------------------------------------------------------------
# the reduction engine
# ---------------------------------------------------------------------------

def _pivot(row: list[Poly]) -> tuple[int, int]:
    """(degree, pivot) of a polynomial row; the pivot is the rightmost column
    that attains the row degree."""
    k = max(p.degree for p in row)
    if k < 0:
        raise Singular("determinant is zero: the rows are linearly dependent")
    return k, max(j for j, p in enumerate(row) if p.degree == k)


def reduce_matrix(g: ProjMat) -> ReductionResult:
    """Normal form diag(t^m, t^n, 1), m >= n >= 0, of an invertible 3x3
    class, or diag(t^m, 1) of a 2x2 class, with witnesses."""
    q, d = g.q, g.dim
    rows = _cleared(g.entries)
    gamma = [[Poly.one(q) if i == j else Poly.zero(q) for j in range(d)]
             for i in range(d)]
    piv = [_pivot(row) for row in rows]
    while red := [(a, b) for a in range(d) for b in range(d)
                  if a != b and rows[a][piv[b][1]].degree >= piv[b][0]]:
        a, b = red[0]
        kb, j = piv[b]
        top = rows[a][j]
        s = Poly.monomial(q, top.degree - kb, top.lc() * pow(rows[b][j].lc(), -1, q))
        rows[a] = [x - s * y for x, y in zip(rows[a], rows[b])]
        for row in gamma:  # gamma <- gamma . E_ab(s): col b += s * col a
            row[b] = row[b] + s * row[a]
        piv[a] = _pivot(rows[a])
    order = sorted(range(d), key=lambda i: -piv[i][0])
    k = [piv[i][0] for i in order]
    return ReductionResult(
        m=k[0] - k[-1], n=k[1] - k[-1] if d == 3 else None,
        gamma=ProjMat.from_rows([[RatFunc(row[i]) for i in order] for row in gamma]),
        w=ProjMat.from_rows([[RatFunc(p, Poly.monomial(q, ki)) for p in rows[i]]
                             for i, ki in zip(order, k)]))


def verify_witness(result: ReductionResult, g: ProjMat) -> bool:
    """Certificate check: witnesses lie in their groups and reassemble g."""
    gamma, w = _cleared(result.gamma.entries), _cleared(result.w.entries)
    powers = [result.m, 0] if result.n is None else [result.m, result.n, 0]
    if not (len(gamma) == len(w) == len(powers) == g.dim):
        return False
    if not (_modular(gamma) and _compact(w)):
        return False
    low = min(powers)  # diag(t^k) is taken modulo scalars
    tw = [[Poly.monomial(g.q, k - low) * p for p in row] for k, row in zip(powers, w)]
    return _proj_eq(_matmul(gamma, tw), _cleared(g.entries))


# ---------------------------------------------------------------------------
# constructive random sampling of the two groups (membership by construction)
# ---------------------------------------------------------------------------

SAMPLE_STEPS = 6   # elementary factors per sampled matrix
SAMPLE_DEG = 2     # degree bound of a sampled polynomial


def random_poly(q: int, rng) -> Poly:
    return Poly(q, [rng.randrange(q) for _ in range(rng.randrange(SAMPLE_DEG + 1) + 1)])


def random_modular(q: int, dim: int, rng) -> ProjMat:
    """Random product of elementary matrices over F_q[t]."""
    g = [[Poly.one(q) if i == j else Poly.zero(q) for j in range(dim)]
         for i in range(dim)]
    for _ in range(SAMPLE_STEPS):
        kind = rng.randrange(3)
        i, j = rng.sample(range(dim), 2)
        if kind == 1:
            for row in g:
                row[i], row[j] = row[j], row[i]
            continue
        p = (random_poly(q, rng) if kind == 0
             else Poly.const(q, rng.randrange(1, q)))
        for row in g:
            row[j] = row[j] - p * row[i]
    return ProjMat.from_rows([[RatFunc(e) for e in row] for row in g])


def random_compact(q: int, dim: int, rng) -> ProjMat:
    """Random product of elementaries with valuations >= 0 and unit diagonal."""
    w = [list(row) for row in ProjMat.identity(q, dim).entries]
    for _ in range(SAMPLE_STEPS):
        kind = rng.randrange(3)
        i, j = rng.sample(range(dim), 2)
        if kind == 0:
            p = random_poly(q, rng)
            c = RatFunc(p) / RatFunc.t_power(q, max(p.degree, 0) + rng.randrange(3))
            w[j] = [a - c * b for a, b in zip(w[j], w[i])]
        elif kind == 1:
            w[i], w[j] = w[j], w[i]
        else:
            p = random_poly(q, rng)
            if p.is_zero:
                p = Poly.one(q)
            u = RatFunc.t_power(q, p.degree) / RatFunc(p)
            w[i] = [u * e for e in w[i]]
    return ProjMat.from_rows(w)
