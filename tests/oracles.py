"""Independent oracles used by the test suite.

These deliberately do not import coefficient tables or closed-form
evaluators from the package: ``expected_rows`` restates the two operator
tables literally, and the recurrence solver below is written directly
from the eigenfunction equations and steps shell by shell from f(v00) = 1,
so it can cross-check both the operator rows and the closed forms.  The
group-membership references decide membership from the determinant over
F_q(t) by exact d-th roots (``nth_root``, tested on its own in
test_algebra), independently of the degree tests in the package; they scale
their own RatFunc entry lists and take determinants with ``det_ref``.
``sigma1_distance`` measures the distance to the cusped curve by sampling
it, independently of the companion cubic that classifies points.
``gather_ref`` applies an operator row-major from ``expected_rows``, the
layout and summation the package's gather must reproduce bit for bit.
``shape_ref`` is the operator's index layout built vertex by vertex from
the coordinates of every vertex; unlike the oracles above it reads the
package's ``table`` steps and ``stratum``, since it checks where rows read,
not what the table says (``expected_rows`` checks that).
``Eisenstein`` is exact arithmetic in Q(w), w a primitive cube root of
unity, and ``trivial_eigenfunction_exact`` packs the trivial eigenfunctions
w^(k(m+n)) in it, so the trivial eigenvalues (q^2+q+1) w^k are checked
exactly through ``apply_exact`` and ``forward_solve``.
``closed_form_ref`` is an allocating closed-form evaluator written per
formula, with its two power rules: the package's term-table evaluator must
reproduce it bit for bit, NaN and inf included.  Its double and triple
branches write the formulas of the eigen module docstring out by hand in
k = m - n and n, in the evaluator's arithmetic order: per term x^m times
(P(n) y^n + y^n K(k, n)), P the part free of k.  It shares only the
coefficient helpers (``b_coefficients``, ``_split_double``, ``_B_ZERO``)
with the package.  ``damped_ref``,
``grid_residual_ref`` and ``damped_report_ref`` are the allocating damping,
recurrence residual and sweep report on its grids, computed through the
public ``L2Space.apply`` and ``L2Space.norm``.
``add_ref`` through ``shifted_ref`` are F_q[t] arithmetic on plain
coefficient lists (the product a convolution reduced mod q once, division
schoolbook from the top term), with no ``Poly`` in them, for checking every
``Poly`` operation.  ``projmat_of_ref`` is the canonical representative the
way ``ProjMat.of`` took it before it started its content gcd at the
lowest-degree entry: a sequential gcd over the entries in row-major order,
from the zero polynomial, stopped at the first constant.
``entry_ref`` reads a matrix entry by the grammar the README states, as
one regular expression over the whole text, and evaluates its terms
itself, for checking ``parse_ratfunc``.
``same_bits`` compares float or complex arrays bit for bit, except that any
NaN matches any NaN.
``traced_peak`` is the peak of the memory a call allocates, numpy arrays
included, as tracemalloc sees it.
``complex_files_ref`` restates the three files of the ``complex``
subcommand vertex by vertex from the package's per-vertex objects
(``coeffs``, ``vertex_weight``, ``stabilizer_order``); it checks the
layout of the shell-by-shell writer, while ``expected_rows`` and
``weight_of`` check the numbers.
"""

import cmath
import json
import math
import operator
import re
import tracemalloc
from collections import namedtuple
from fractions import Fraction
from functools import reduce

import numpy as np

from a2quotient.algebra import DegenerateInput, Poly, RatFunc
from a2quotient.eigen import (
    _B_ZERO, Stratum, _split_double, b_coefficients, eigenvalue_pair,
)
from a2quotient.operator import GridFunction, L2Space, _grid_mn, vertex_index
from a2quotient.quotient import (
    Vertex, coeffs, stabilizer_order, stratum, table, vertex_weight,
)

_Vertex = namedtuple("_Vertex", "m n")

# the largest mass fraction on the masked last shell that damped_report_ref
# accepts as a truncation of the infinite sums
TRUNC_LIMIT = 0.01


def forward_solve(q, lam_plus, lam_minus, depth):
    """Solve the simultaneous eigenfunction equations outward from f(v00)=1.

    Works over any field containing the lambdas (complex, Fraction, or an
    exact cyclotomic type with / by int); returns {(m, n): value} on the
    full triangle 0 <= n <= m <= depth.
    """
    f = {(0, 0): lam_plus ** 0}  # multiplicative one of the value type
    f[(1, 0)] = lam_plus / (q * q + q + 1)
    f[(1, 1)] = lam_minus / (q * q + q + 1)
    for m in range(1, depth):
        f[(m + 1, 0)] = lam_plus * f[(m, 0)] - (q * q + q) * f[(m, 1)]
        for n in range(1, m):
            f[(m + 1, n)] = (lam_plus * f[(m, n)] - q * q * f[(m - 1, n - 1)]
                             - q * f[(m, n + 1)])
        f[(m + 1, m)] = (lam_plus * f[(m, m)] - q * q * f[(m - 1, m - 1)]) / (q + 1)
        f[(m + 1, m + 1)] = lam_minus * f[(m, m)] - (q * q + q) * f[(m, m - 1)]
    return f


def brute_expand_power(coeffs, r, q):
    """(sum c_i t^i)^r over F_q by repeated convolution; little-endian list."""
    out = [1]
    for _ in range(r):
        nxt = [0] * (len(out) + len(coeffs) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(coeffs):
                nxt[i + j] = (nxt[i + j] + a * b) % q
        out = nxt
    while out and out[-1] == 0:
        out.pop()
    return out


def expected_rows(q, v):
    """The recurrence coefficient tables, restated literally."""
    m, n = v.m, v.n
    if m == 0:
        plus = {(1, 0): q * q + q + 1}
        minus = {(1, 1): q * q + q + 1}
    elif n == 0:
        plus = {(m + 1, 0): 1, (m, 1): q * q + q}
        minus = {(m - 1, 0): q * q, (m + 1, 1): q + 1}
    elif n == m:
        plus = {(m - 1, m - 1): q * q, (m + 1, m): q + 1}
        minus = {(m, m - 1): q * q + q, (m + 1, m + 1): 1}
    else:
        plus = {(m - 1, n - 1): q * q, (m, n + 1): q, (m + 1, n): 1}
        minus = {(m - 1, n): q * q, (m, n - 1): q, (m + 1, n + 1): 1}
    return plus, minus


def gather_ref(q, depth, sign, values):
    """Row-major operator application on values packed m(m+1)/2 + n: a
    (T, 3) table of neighbor positions and coefficients from
    ``expected_rows`` in slot order, absent slots (missing from the row or
    beyond the depth) reading zero, and per row (coef * padded).sum(axis=1).
    """
    size = (depth + 1) * (depth + 2) // 2
    pos = np.full((size, 3), -1, dtype=np.int64)
    coef = np.zeros((size, 3), dtype=np.int64)
    row = 0
    for m in range(depth + 1):
        for n in range(m + 1):
            terms = expected_rows(q, _Vertex(m, n))[0 if sign == +1 else 1]
            for slot, ((m2, n2), c) in enumerate(terms.items()):
                if m2 <= depth:
                    pos[row, slot] = m2 * (m2 + 1) // 2 + n2
                    coef[row, slot] = c
            row += 1
    padded = np.asarray(values)[pos]
    padded[pos < 0] = 0
    return (coef * padded).sum(axis=1)


def shape_ref(depth, sign):
    """``operator._shape`` built vertex by vertex: the interior rows found
    by ``stratum`` over the coordinates of all T vertices, their reads by
    ``vertex_index`` on those rows, and the fix rows as the rest."""
    m, n = _grid_mn(depth)
    rows = table(2, sign)
    inner = (stratum(m, n) == 3) & (m < depth)
    reads = [dn for _, dn, _ in rows[3]]
    for slot, (dm, dn, _) in enumerate(rows[3]):
        if dm:
            # a fix row reads its own value here; its image is overwritten
            reads[slot] = read = np.arange(m.size, dtype=np.intp)
            read[inner] = vertex_index(m[inner] + dm, n[inner] + dn)
            read.setflags(write=False)

    fix = np.flatnonzero(~inner)
    fm, fn = m[fix], n[fix]
    strata = stratum(fm, fn)
    pos = np.full((3, fix.size), m.size, dtype=np.intp)
    for s, row in enumerate(rows):
        for slot, (dm, dn, _) in enumerate(row):
            # slots falling beyond the depth stay absent: position T
            hit = np.flatnonzero((strata == s) & (fm <= depth - dm))
            pos[slot, hit] = vertex_index(fm[hit] + dm, fn[hit] + dn)
    # the origin's one-slot row puts T in pos, last in touch: the compact zero
    touch, local = np.unique(pos, return_inverse=True)
    touch, local = touch[:-1], local.reshape(pos.shape)
    for a in (fix, touch, local, strata):
        a.setflags(write=False)
    return tuple(reads), fix, touch, local, strata


def complex_files_ref(q, depth, seed):
    """{file name: text} of complex_vertices.csv, complex_rows.csv and
    complex.json, one Vertex and one row split at a time: vertices in
    (m, n) order, plus before minus, and in each direction the targets
    within the depth before the masked ones, each in slot order."""
    head = f"# seed={seed} q={q} depth={depth}\n"
    vlines = [head, "m,n,color,weight_num,weight_den,stabilizer_order\n"]
    rlines = [head, "m,n,direction,target_m,target_n,coefficient,masked\n"]
    vertices = []
    for m in range(depth + 1):
        for n in range(m + 1):
            v = Vertex(m, n)
            w, order = vertex_weight(q, m, n), stabilizer_order(q, m, n)
            vlines.append(f"{m},{n},{(m + n) % 3},{w.numerator},"
                          f"{w.denominator},{order}\n")
            rows = {}
            for sign, label in ((+1, "plus"), (-1, "minus")):
                row = coeffs(q, v, sign)
                inside = [(t, c) for t, c in row if t.m <= depth]
                masked = [(t, c) for t, c in row if t.m > depth]
                for flag, part in ((0, inside), (1, masked)):
                    rlines += [f"{m},{n},{label},{t.m},{t.n},{c},{flag}\n"
                               for t, c in part]
                rows[label] = {key: [{"m": t.m, "n": t.n, "coefficient": c}
                                     for t, c in part]
                               for key, part in (("terms", inside),
                                                 ("masked", masked))}
            vertices.append({
                "m": m, "n": n, "color": (m + n) % 3,
                "weight": {"num": str(w.numerator), "den": str(w.denominator)},
                "stabilizer_order": order, "rows": rows})
    payload = {"seed": seed, "q": q, "depth": depth, "vertices": vertices}
    return {"complex_vertices.csv": "".join(vlines),
            "complex_rows.csv": "".join(rlines),
            "complex.json": json.dumps(payload, indent=2) + "\n"}


def weight_of(q, m, n):
    """Vertex weight, written out case by case."""
    if m == 0 and n == 0:
        return Fraction(1, q * q + q + 1)
    if n == 0 or n == m:
        return Fraction(1, q ** (2 * m))
    return Fraction(q + 1, q ** (2 * m))


def trivial_norm_sq_limit(q):
    """Closed form of sum |omega^(m+n)|^2 w(v_mn): 1/(q^2+q+1) + 2*sum q^-2m
    + (q+1)*sum (m-1) q^-2m, summed exactly."""
    a = Fraction(1, q * q + q + 1)
    # sum_{m>=1} x^m = x/(1-x); sum_{m>=1} (m-1)x^m = x^2/(1-x)^2, x = q^-2
    x = Fraction(1, q * q)
    return a + 2 * x / (1 - x) + (q + 1) * x * x / (1 - x) ** 2


def nth_root(a, r):
    """Monic b with b**r == a, or None.

    Decided by coefficient matching from the top degree, no factorization.
    When the field characteristic divides r the power map is coefficientwise
    (Frobenius), so the root is read off directly from every r-th slot.
    The candidate is always verified by one exact multiplication.
    """
    if a.is_zero or a.lc() != 1:
        raise DegenerateInput("nth_root expects a monic nonzero polynomial")
    if r < 1:
        raise ValueError("root order must be >= 1")
    if a.degree % r:
        return None
    q, k = a.q, a.degree // r
    if q % r == 0:
        # x -> x^r is additive here; exponents must be multiples of r and
        # in a prime field c^r = c, so coefficients carry over unchanged.
        if any(c and (i % r) for i, c in enumerate(a.coeffs)):
            return None
        b = Poly(q, [a.coeff(i * r) for i in range(k + 1)])
    else:
        rinv = pow(r, -1, q)
        bc = [0] * (k + 1)
        bc[k] = 1
        for j in range(1, k + 1):
            cur = reduce(operator.mul, [Poly(q, bc)] * r)
            delta = (a.coeff(r * k - j) - cur.coeff(r * k - j)) % q
            bc[k - j] = (delta * rinv) % q
        b = Poly(q, bc)
    return b if reduce(operator.mul, [b] * r) == a else None


def det_ref(E):
    """Determinant of a square matrix of RatFunc entries, by Laplace
    expansion along the first row."""
    if len(E) == 1:
        return E[0][0]
    out = RatFunc(Poly.zero(E[0][0].q))
    for j, e in enumerate(E[0]):
        minor = det_ref([row[:j] + row[j + 1:] for row in E[1:]])
        out = out - e * minor if j % 2 else out + e * minor
    return out


def _canon_ref(q, cs):
    """Residues mod q of an integer list, trailing zeros dropped."""
    out = [c % q for c in cs]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def add_ref(q, a, b):
    n = max(len(a), len(b))
    a, b = list(a) + [0] * (n - len(a)), list(b) + [0] * (n - len(b))
    return _canon_ref(q, [x + y for x, y in zip(a, b)])


def neg_ref(q, a):
    return _canon_ref(q, [-x for x in a])


def sub_ref(q, a, b):
    n = max(len(a), len(b))
    a, b = list(a) + [0] * (n - len(a)), list(b) + [0] * (n - len(b))
    return _canon_ref(q, [x - y for x, y in zip(a, b)])


def mul_ref(q, a, b):
    """The convolution of the two coefficient lists, reduced mod q."""
    out = [0] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _canon_ref(q, out)


def divmod_ref(q, a, b):
    """Schoolbook division: cancel the remainder's top term until its degree
    drops below deg b."""
    b, rem = _canon_ref(q, b), _canon_ref(q, a)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    inv = pow(b[-1], -1, q)
    quo = [0] * max(len(rem) - len(b) + 1, 0)
    while len(rem) >= len(b):
        k, c = len(rem) - len(b), rem[-1] * inv
        quo[k] = c
        rem = sub_ref(q, rem, [0] * k + [c * y for y in b])
    return _canon_ref(q, quo), rem


def scale_ref(q, a, c):
    return _canon_ref(q, [c * x for x in a])


def monic_ref(q, a):
    return scale_ref(q, a, pow(a[-1], -1, q))


def shifted_ref(q, a, k, c):
    return mul_ref(q, [0] * k + [c], a)


def gcd_ref(q, a, b):
    """Monic gcd by Euclid; gcd(0, 0) = 0."""
    while b:
        a, b = b, divmod_ref(q, a, b)[1]
    return monic_ref(q, a) if a else a


_TERM_REF = r"(?:\d+\*?t(?:\^\d+)?|\d+|t(?:\^\d+)?)"
_BODY_REF = rf"[+-]?{_TERM_REF}(?:[+-]{_TERM_REF})*"
_POLY_REF = rf"(?:\({_BODY_REF}\)|{_BODY_REF})"
ENTRY_REF = re.compile(rf"({_POLY_REF})(?:/({_POLY_REF}))?")


def entry_ref(q, text):
    """A matrix entry as (numerator, denominator) coefficient tuples, or
    None if the grammar rejects it, a coefficient is not below q or the
    denominator is zero mod q.  Spaces are ignored."""
    m = ENTRY_REF.fullmatch(text.replace(" ", ""))
    if m is None:
        return None
    num, den = (_poly_ref(q, side) for side in (m.group(1), m.group(2) or "1"))
    if num is None or not den:
        return None
    return num, den


def _poly_ref(q, text):
    """A side the grammar accepted: signed terms c*t^k summed mod q; None if
    a coefficient is not below q."""
    out = {}
    for sign, c, t, k in re.findall(r"([+-]?)(\d*)\*?(t?)\^?(\d*)", text.strip("()")):
        if not (c or t):
            continue  # the empty match at the end
        c = int(c) if c else 1
        if c >= q:
            return None
        k = int(k) if k else int(bool(t))
        out[k] = out.get(k, 0) + (-c if sign == "-" else c)
    return _canon_ref(q, [out.get(i, 0) for i in range(max(out) + 1)])


def projmat_of_ref(P):
    """The canonical representative of a square ``Poly`` matrix, as
    coefficient tuples: the entries divided by their monic gcd, taken in
    row-major order from 0 and stopped at the first constant, then by the
    leading coefficient of the first nonzero entry.  The zero matrix stays
    as it is."""
    q = P[0][0].q
    rows = [[p.coeffs for p in row] for row in P]
    c = ()
    for a in (a for row in rows for a in row):
        c = gcd_ref(q, c, a)
        if len(c) == 1:
            break
    if not c:
        return tuple(tuple(row) for row in rows)
    if len(c) > 1:
        rows = [[divmod_ref(q, a, c)[0] for a in row] for row in rows]
    inv = pow(next(a for row in rows for a in row if a)[-1], -1, q)
    return tuple(tuple(scale_ref(q, a, inv) for a in row) for row in rows)


def in_modular_group_ref(g):
    """Is the ProjMat class in PGL(d, F_q[t])?  Any polynomial representative
    with unit determinant is lambda g with lambda^d = det(g) up to a
    constant, so numerator and denominator of det(g) must be d-th powers;
    the candidate lambda is then unique up to constants and checked.  Works
    on g's RatFunc entries, never on its stored representative."""
    E = [list(row) for row in g.entries]
    det = det_ref(E)
    if det.is_zero:
        return False
    a, b = nth_root(det.num.monic(), len(E)), nth_root(det.den, len(E))
    if a is None or b is None:
        return False
    lam = RatFunc(b, a)
    h = [[lam * e for e in row] for row in E]
    if any(not e.is_polynomial for row in h for e in row):
        return False
    det = det_ref(h)
    return det.is_polynomial and det.num.degree == 0


def in_maximal_compact_ref(g):
    """Is the ProjMat class in PGL(d, O)?  Scaling the least entry valuation
    to 0 is the only freedom, so one candidate decides."""
    E = [list(row) for row in g.entries]
    if det_ref(E).is_zero:
        return False
    mu = min(e.valuation() for row in E for e in row)
    lam = RatFunc.t_power(g.q, int(mu))
    return det_ref([[lam * e for e in row] for row in E]).valuation() == 0


def sigma1_distance(q, la, samples=4096):
    """min over a of |la - sigma1(a)| on the curve
    (q^{3/2}+q^{1/2}) e^{ia} + q e^{-2ia}: a grid of samples, then
    golden-section refinement around the best sample."""
    la = complex(la)

    def dist(a):
        return np.abs(la - ((q ** 1.5 + q ** 0.5) * np.exp(1j * a)
                            + q * np.exp(-2j * a)))

    thetas = np.linspace(0.0, 2 * np.pi, samples, endpoint=False)
    best = thetas[int(np.argmin(dist(thetas)))]
    span = 2 * np.pi / samples
    phi = (math.sqrt(5) - 1) / 2
    a, b = best - span, best + span
    c, d = b - phi * (b - a), a + phi * (b - a)
    for _ in range(80):
        if dist(c) < dist(d):
            b, d = d, c
            c = b - phi * (b - a)
        else:
            a, c = c, d
            d = a + phi * (b - a)
    return float(dist((a + b) / 2))


# ---------------------------------------------------------------------------
# exact arithmetic in the rationals adjoined a primitive cube root of unity
# ---------------------------------------------------------------------------

_OMEGA = cmath.exp(2j * cmath.pi / 3)


class Eisenstein:
    """a + b w with rational a, b and w^2 = -1 - w (primitive cube root).

    Just enough ring structure for exact eigenfunction identities: +, -, *,
    division by integers and Fractions, non-negative powers, conjugation
    and equality.
    """

    __slots__ = ("a", "b")

    def __init__(self, a=0, b=0):
        self.a = Fraction(a)
        self.b = Fraction(b)

    @classmethod
    def omega_power(cls, k):
        return (cls(1, 0), cls(0, 1), cls(-1, -1))[k % 3]

    def __add__(self, other):
        other = self._coerce(other)
        return Eisenstein(self.a + other.a, self.b + other.b)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        return Eisenstein(self.a - other.a, self.b - other.b)

    def __mul__(self, other):
        other = self._coerce(other)
        # (a1 + b1 w)(a2 + b2 w), w^2 = -1 - w
        a = self.a * other.a - self.b * other.b
        b = self.a * other.b + self.b * other.a - self.b * other.b
        return Eisenstein(a, b)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return Eisenstein(self.a / other, self.b / other)

    def __pow__(self, k):
        out = Eisenstein(1, 0)
        for _ in range(k):
            out = out * self
        return out

    def conjugate(self):
        return Eisenstein(self.a - self.b, -self.b)

    @staticmethod
    def _coerce(x):
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

    def __complex__(self):
        return complex(self.a) + complex(self.b) * _OMEGA

    def __repr__(self):
        return f"Eisenstein({self.a}, {self.b})"


def trivial_eigenfunction_exact(k, depth):
    """The k-th trivial eigenfunction w^(k(m+n)) as exact Eisenstein values,
    packed m(m+1)/2 + n in an object array."""
    return np.array([Eisenstein.omega_power(k * (m + n))
                     for m in range(depth + 1) for n in range(m + 1)],
                    dtype=object)


def _powers(x, e):
    """x ** e for each entry of the index array e, gathered from one table
    x ** 0 .. x ** max(e)."""
    return np.power(x, np.arange(e.max() + 1))[e]


def _cycle_powers(s, e):
    """w ** e for the cube root of unity w near sum(s)/3, read off (1, w, w^2)."""
    w = sum(s) / 3
    w /= abs(w)
    return np.resize(np.array([1, w, w * w]), e.max() + 1)[e]


def closed_form_ref(q, param, m, n):
    """f(v_mn) at each index pair of the arrays m, n."""
    s = param.s
    if param.stratum is Stratum.TRIVIAL:
        return _cycle_powers(s, m + n)

    mf = m.astype(np.float64)
    nf = n.astype(np.float64)
    qm = _powers(float(q), m)

    if param.stratum is Stratum.TRIPLE:
        # m^2 + 2mn - 2n^2 = k^2 + 4kn + n^2, m^2 n - m n^2 = k^2 n + k n^2
        scale = 2 * (q + 1) * (q * q + q + 1)
        lin = -3 * (q - 1) * (q + 1) ** 2 / scale
        u, v = (q - 1) ** 2 * (q + 1) / scale, -(q - 1) ** 3 / scale
        kf = mf - nf
        k0, k1, k2 = lin * kf + u * kf ** 2, 4 * u * kf + v * kf ** 2, v * kf
        wm, wn = _cycle_powers(s, m), _cycle_powers(s, n)
        kpart = k0 + k1 * nf + k2 * nf * nf
        inner = (1.0 + lin * nf + u * nf ** 2) * wn + wn * kpart
        total = wm * inner
        return qm * total

    if param.stratum is Stratum.DOUBLE:
        s1, s2 = _split_double(s)
        den = (s1 - s2) ** 2 * (q + 1) * (q * q + q + 1)
        a1, a2 = (s1 - q * s2) ** 2 / den, (s2 - q * s1) ** 2 / den
        c1 = (q - 1) * (s1 - q * s2) * (s2 - q * s1) / den
        c0 = (q + 1) * (q * (s1 * s1 + s2 * s2) - 2 * (q * q - q + 1) * s1 * s2) / den
        p1m, p2m = _powers(s1, m), _powers(s2, m)
        p1n, p2n = _powers(s1, n), _powers(s2, n)
        kf = mf - nf
        # terms (s1, s2), (s2, s2), (s2, s1), each x^m (P(n) y^n + y^n K(k))
        # with P its part free of k; named operands, as numpy elides a
        # temporary right operand and multiplies it first
        kpart2, kpart3 = (1 - q) * a2 * kf, c1 * kf
        inner1 = ((q + 1) * a1 + (1 - q) * a1 * nf) * p2n
        inner2 = (q + 1) * a2 * p2n + p2n * kpart2
        inner3 = (c0 + c1 * nf) * p1n + p1n * kpart3
        total = p1m * inner1
        total += p2m * inner2
        total += p2m * inner3
        return qm * total

    bs = b_coefficients(q, s)
    cutoff = _B_ZERO * sum(abs(b) for b in bs.values())
    powers_m = [_powers(si, m) for si in s]
    powers_n = [_powers(si, n) for si in s]
    vals = np.zeros(m.shape, dtype=np.complex128)
    for (i, j), b in bs.items():
        if abs(b) <= cutoff:
            continue  # structural zero; see the eigen module docstring
        vals += b * powers_m[i] * powers_n[j]
    return qm * vals


def damped_ref(q, param, eps, depth):
    """(1 - eps)^m times the closed_form_ref grid, as a GridFunction."""
    m, n = _grid_mn(depth)
    f = closed_form_ref(q, param, m, n)
    if eps != 0.0:
        f = f * _powers(1.0 - eps, m)
    return GridFunction(depth, f)


def grid_residual_ref(q, param, f):
    """max over unmasked vertices and both directions of
    |A f - lambda f| / (1 + |lambda| |f|) for the grid f."""
    space = L2Space(q, f.depth)
    pair = eigenvalue_pair(q, param)
    worst = 0.0
    for sign, lam in ((+1, pair.lambda_plus), (-1, pair.lambda_minus)):
        af, _ = space.apply(sign, f)
        resid = np.abs(af.values - lam * f.values)
        scale = 1.0 + abs(lam) * np.abs(f.values)
        worst = max(worst, float((resid / scale)[space.interior].max()))
    return worst


def damped_report_ref(q, param, eps, depth):
    """(residual_plus, residual_minus, norm, truncation_fraction) of the
    damped grid, or the truncation fraction when it reaches TRUNC_LIMIT."""
    space = L2Space(q, depth)
    f = damped_ref(q, param, eps, depth)
    pair = eigenvalue_pair(q, param)
    total_sq = space.norm(f) ** 2
    kept = space.norm(f, where=space.interior)
    frac = 1.0 - kept ** 2 / total_sq if total_sq > 0 else 1.0
    if frac >= TRUNC_LIMIT:
        return frac
    ratios = []
    for sign, lam in ((+1, pair.lambda_plus), (-1, pair.lambda_minus)):
        af, _ = space.apply(sign, f)
        resid = GridFunction(depth, af.values - lam * f.values)
        ratios.append(space.norm(resid, where=space.interior) / kept)
    return ratios[0], ratios[1], math.sqrt(total_sq), frac


def same_bits(got, want):
    """Bitwise equality of two float or complex arrays, except that a NaN
    matches any NaN: IEEE 754 leaves the sign and payload of a NaN result
    open, and numpy's vector loops and the scalar loop that ends a call
    (every entry of a call shorter than a vector) pick them differently."""
    a = np.ascontiguousarray(got).view(np.float64)
    b = np.ascontiguousarray(want).view(np.float64)
    nan = np.isnan(a)
    return (a.shape == b.shape and np.array_equal(nan, np.isnan(b))
            and a[~nan].tobytes() == b[~nan].tobytes())


def traced_peak(call):
    """Bytes above the starting level at the peak of call(), made after one
    untraced warm-up call that fills the caches it reads."""
    call()
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        if not was_tracing:
            tracemalloc.stop()
