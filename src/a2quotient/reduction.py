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
JCSS 30, 1985), shifted so the last is 0.  ``reduce_matrix`` runs the pivot
loop of Mulders and Storjohann (J. Symbolic Comput. 35, 2003) on the rows of
g's polynomial representative.  The pivot of a row
is the rightmost column that attains its degree.  While some row has, in the
pivot column of another row, an entry of at least that row's degree, it
loses c t^k times the other row, which cancels the entry's top term.  A
step on a shared pivot lowers the row degree or moves the pivot left; any
other step keeps both and trades the entry's top term for smaller terms, so
the loop ends, in Popov form.  The rows then have distinct pivots, so their
leading coefficients form an invertible matrix and w = diag(t^-k_i) R, held
as diag(t^(k_0-k_i)) R, lies in PGL(d, O).  gamma is the inverse of the row transform, built up by the
matching column updates.  A singular input shows up as a zero row.

A class is stored as its canonical representative: the one polynomial
matrix P in it whose entries have gcd 1 and whose first nonzero entry, in
row-major order, is monic.  Denominators are cleared once, at input, and
projective equality is ``==``.  ``ProjMat.of`` first divides out the least
power of t that every entry carries, by slicing, then takes the content gcd
starting from a nonzero entry of least degree, which the content divides,
and stops as soon as the gcd is a constant; so a matrix with a constant
entry needs no Euclid at all.  Any polynomial matrix with unit determinant
is primitive, so the class lies in PGL(d, F_q[t]) iff deg det P = 0, and in
PGL(d, O) iff det P != 0 and deg det P = d max deg P_ij.  ``verify_witness``
canonicalizes the polynomial product of the witnesses and compares it with
the input's representative.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import Poly, RatFunc, _inv_mod, _poly, parse_ratfunc, poly_gcd


class Singular(ValueError):
    """Input matrix has determinant zero."""


def _eye(q: int, d: int) -> list[list[Poly]]:
    one, zero = Poly.one(q), Poly.zero(q)
    return [[one if i == j else zero for j in range(d)] for i in range(d)]


@dataclass(frozen=True)
class ProjMat:
    """Invertible d x d matrix over F_q(t) taken modulo scalars (d in {2, 3}),
    held as its canonical polynomial representative."""

    rows: tuple[tuple[Poly, ...], ...]

    @classmethod
    def of(cls, P) -> "ProjMat":
        """The class of a polynomial matrix: divided by the monic gcd of its
        entries, then by the leading coefficient of its first nonzero entry.
        The zero matrix stays as it is."""
        d = len(P)
        if d not in (2, 3) or any(len(row) != d for row in P):
            raise ValueError("entries must form a 2x2 or 3x3 matrix")
        nonzero = [p for row in P for p in row if p]
        if not nonzero:
            return cls(tuple(tuple(row) for row in P))
        # the least power of t in every entry is sliced off first, so what
        # is left of the content has a nonzero constant term
        low = min(next(i for i, a in enumerate(p.coeffs) if a) for p in nonzero)
        if low:
            q = nonzero[0].q
            P = [[_poly(q, list(p.coeffs[low:])) for p in row] for row in P]
            nonzero = [p for row in P for p in row if p]
        c = min(nonzero, key=lambda p: p.degree)
        for p in nonzero:
            if c.degree == 0:
                break
            if p is not c:
                c = poly_gcd(p, c)
        if c.degree > 0:
            P = [[p // c for p in row] for row in P]
        inv = _inv_mod(next(p for row in P for p in row if p).lc(), c.q)
        return cls(tuple(tuple(p.scale(inv) if inv != 1 else p for p in row)
                         for row in P))

    @property
    def dim(self) -> int:
        return len(self.rows)

    @property
    def q(self) -> int:
        return self.rows[0][0].q

    @property
    def entries(self) -> tuple[tuple[RatFunc, ...], ...]:
        """The representative's entries as rational functions."""
        return tuple(tuple(RatFunc(p) for p in row) for row in self.rows)

    @classmethod
    def from_rows(cls, rows) -> "ProjMat":
        """The class of a matrix of RatFunc entries, its denominators cleared
        by their lcm."""
        den = Poly.one(rows[0][0].q)
        for row in rows:
            for e in row:
                if e.den.degree and den % e.den:
                    den = den // poly_gcd(den, e.den) * e.den
        return cls.of([[e.num * (den // e.den) for e in row] for row in rows])

    @classmethod
    def identity(cls, q: int, dim: int) -> "ProjMat":
        return cls.of(_eye(q, dim))

    @classmethod
    def diagonal(cls, q: int, powers) -> "ProjMat":
        """diag(t^k) for a list of integer exponents."""
        low, d = min(powers), len(powers)
        return cls.of([[Poly.monomial(q, k - low) if i == j else Poly.zero(q)
                        for j in range(d)] for i, k in enumerate(powers)])

    @classmethod
    def from_strings(cls, q: int, rows) -> "ProjMat":
        return cls.from_rows([[parse_ratfunc(q, e) for e in row] for row in rows])

    def __matmul__(self, other: "ProjMat") -> "ProjMat":
        return ProjMat.of(_matmul(self.rows, other.rows))

    def __str__(self) -> str:
        return ";".join(",".join(str(p) for p in row) for row in self.rows)


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


# ---------------------------------------------------------------------------
# group membership tests
# ---------------------------------------------------------------------------

def in_modular_group(g: ProjMat) -> bool:
    """Does the class contain a matrix over F_q[t] with unit determinant?"""
    return _det(g.rows).degree == 0


def in_maximal_compact(g: ProjMat) -> bool:
    """Does the class contain a matrix with all valuations >= 0 and
    determinant of valuation 0?"""
    k = _det(g.rows).degree
    return k >= 0 and k == g.dim * max(p.degree for row in g.rows for p in row)


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
    rows = [list(row) for row in g.rows]
    gamma = _eye(q, d)
    piv = [_pivot(row) for row in rows]
    while pair := next(((a, b) for a in range(d) for b in range(d)
                        if a != b and rows[a][piv[b][1]].degree >= piv[b][0]),
                       None):
        a, b = pair
        kb, j = piv[b]
        top = rows[a][j]
        k, c = top.degree - kb, top.lc() * _inv_mod(rows[b][j].lc(), q)
        rows[a] = [x - y.shifted(k, c) for x, y in zip(rows[a], rows[b])]
        for row in gamma:  # gamma <- gamma . E_ab(c t^k): col b += c t^k col a
            row[b] = row[b] + row[a].shifted(k, c)
        piv[a] = _pivot(rows[a])
    order = sorted(range(d), key=lambda i: -piv[i][0])
    k = [piv[i][0] for i in order]
    return ReductionResult(
        m=k[0] - k[-1], n=k[1] - k[-1] if d == 3 else None,
        gamma=ProjMat.of([[row[i] for i in order] for row in gamma]),
        w=ProjMat.of([[p.shifted(k[0] - ki) for p in rows[i]]
                      for i, ki in zip(order, k)]))


def verify_witness(result: ReductionResult, g: ProjMat) -> bool:
    """Certificate check: witnesses lie in their groups and reassemble g."""
    gamma, w = result.gamma, result.w
    powers = [result.m, 0] if result.n is None else [result.m, result.n, 0]
    if not (gamma.dim == w.dim == len(powers) == g.dim):
        return False
    if not (in_modular_group(gamma) and in_maximal_compact(w)):
        return False
    low = min(powers)  # diag(t^k) is taken modulo scalars
    tw = [[p.shifted(k - low) for p in row] for k, row in zip(powers, w.rows)]
    return ProjMat.of(_matmul(gamma.rows, tw)) == g


# ---------------------------------------------------------------------------
# constructive random sampling of the two groups (membership by construction)
# ---------------------------------------------------------------------------

SAMPLE_STEPS = 6   # elementary factors per sampled matrix
SAMPLE_DEG = 2     # degree bound of a sampled polynomial


def random_poly(q: int, rng) -> Poly:
    return Poly(q, [rng.randrange(q) for _ in range(rng.randrange(SAMPLE_DEG + 1) + 1)])


def random_modular(q: int, dim: int, rng) -> ProjMat:
    """Random product of elementary matrices over F_q[t]."""
    g = _eye(q, dim)
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
    return ProjMat.of(g)


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
