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
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import Poly, RatFunc, nth_root, poly_gcd


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

    def min_valuation(self):
        return min(e.valuation() for row in self.entries for e in row)

    def proj_eq(self, other: "ProjMat") -> bool:
        """Equality as projective classes: other = lambda * self."""
        if self.dim != other.dim:
            return False
        lam = None
        for i in range(self.dim):
            for j in range(self.dim):
                a, b = self.entries[i][j], other.entries[i][j]
                if a.is_zero != b.is_zero:
                    return False
                if not a.is_zero:
                    r = b / a
                    if lam is None:
                        lam = r
                    elif r != lam:
                        return False
        return lam is not None

    def __str__(self) -> str:
        return ";".join(",".join(str(e) for e in row) for row in self.entries)


def _matmul(A, B):
    d = len(A)
    return [[sum((A[i][k] * B[k][j] for k in range(1, d)),
                 start=A[i][0] * B[0][j]) for j in range(d)] for i in range(d)]


def _det(E) -> RatFunc:
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

def in_modular_group(g: ProjMat) -> bool:
    """Does the class contain a matrix over F_q[t] with unit determinant?

    Any qualifying rescaling lambda satisfies lambda^d = det(g) up to a
    constant, so the reduced determinant's numerator and denominator must
    both be d-th powers; the candidate lambda is then unique up to constants
    and the rescaled entries are checked directly.
    """
    d = g.det()
    if d.is_zero:
        return False
    r = g.dim
    a, b = d.num.monic(), d.den  # den already monic
    a1, b1 = nth_root(a, r), nth_root(b, r)
    if a1 is None or b1 is None:
        return False
    lam = RatFunc(b1, a1)  # rescale by b1/a1, i.e. divide by a1/b1
    h = g.scaled(lam)
    if any(not e.is_polynomial for row in h.entries for e in row):
        return False
    return h.det().is_constant and not h.det().is_zero


def in_maximal_compact(g: ProjMat) -> bool:
    """Does the class contain a matrix with all valuations >= 0 and
    determinant of valuation 0?

    Normalizing the minimal entry valuation to 0 is the only scalar freedom,
    so a single candidate decides membership.
    """
    if g.det().is_zero:
        return False
    mu = g.min_valuation()
    h = g.scaled(RatFunc.t_power(g.q, int(mu)))
    return h.det().valuation() == 0


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
    den = Poly.one(q)
    for row in g.entries:
        for e in row:
            den = den // poly_gcd(den, e.den) * e.den
    rows = [[e.num * (den // e.den) for e in row] for row in g.entries]
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


def reduce2(g: ProjMat) -> ReductionResult:
    """Normal form diag(t^m, 1) of an invertible 2x2 class, with witnesses."""
    if g.dim != 2:
        raise ValueError("reduce2 expects a 2x2 matrix")
    return reduce_matrix(g)


def reduce3(g: ProjMat) -> ReductionResult:
    """Normal form diag(t^m, t^n, 1), m >= n >= 0, of an invertible 3x3 class."""
    if g.dim != 3:
        raise ValueError("reduce3 expects a 3x3 matrix")
    return reduce_matrix(g)


def verify_witness(result: ReductionResult, g: ProjMat) -> bool:
    """Certificate check: witnesses lie in their groups and reassemble g."""
    if not in_modular_group(result.gamma):
        return False
    if not in_maximal_compact(result.w):
        return False
    product = result.gamma @ result.normal_form(g.q) @ result.w
    return product.proj_eq(g)


# ---------------------------------------------------------------------------
# constructive random sampling of the two groups (membership by construction)
# ---------------------------------------------------------------------------

def random_poly(q: int, rng, max_deg: int = 2) -> Poly:
    return Poly(q, [rng.randrange(q) for _ in range(rng.randrange(max_deg + 1) + 1)])


def random_modular(q: int, dim: int, rng, steps: int = 6, max_deg: int = 2) -> ProjMat:
    """Random product of elementary matrices over F_q[t]."""
    g = [[Poly.one(q) if i == j else Poly.zero(q) for j in range(dim)]
         for i in range(dim)]
    for _ in range(steps):
        kind = rng.randrange(3)
        i, j = rng.sample(range(dim), 2)
        if kind == 1:
            for row in g:
                row[i], row[j] = row[j], row[i]
            continue
        p = (random_poly(q, rng, max_deg) if kind == 0
             else Poly.const(q, rng.randrange(1, q)))
        for row in g:
            row[j] = row[j] - p * row[i]
    return ProjMat.from_rows([[RatFunc(e) for e in row] for row in g])


def random_compact(q: int, dim: int, rng, steps: int = 6, max_deg: int = 2) -> ProjMat:
    """Random product of elementaries with valuations >= 0 and unit diagonal."""
    w = [list(row) for row in ProjMat.identity(q, dim).entries]
    for _ in range(steps):
        kind = rng.randrange(3)
        i, j = rng.sample(range(dim), 2)
        if kind == 0:
            p = random_poly(q, rng, max_deg)
            c = RatFunc(p) / RatFunc.t_power(q, max(p.degree, 0) + rng.randrange(3))
            w[j] = [a - c * b for a, b in zip(w[j], w[i])]
        elif kind == 1:
            w[i], w[j] = w[j], w[i]
        else:
            p = random_poly(q, rng, max_deg)
            if p.is_zero:
                p = Poly.one(q)
            u = RatFunc.t_power(q, p.degree) / RatFunc(p)
            w[i] = [u * e for e in w[i]]
    return ProjMat.from_rows(w)
