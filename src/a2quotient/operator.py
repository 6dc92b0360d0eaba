"""Matrix-free application of the weighted adjacency operators.

Both paths read the one coefficient table, ``quotient.table``, and the
vertex-type switch ``quotient.stratum``.

The float path packs the triangle {0 <= n <= m <= M} into flat numpy
arrays indexed by m(m+1)/2 + n and gathers each operator row from at most
three neighbor slots, filled stratum by stratum from the table; rows that
reference depth M+1 are flagged in a boundary mask and evaluate the
missing neighbor as zero (the compression to the truncated space).  Inner
products carry the vertex weights; sums are taken over pre-scaled values
f * sqrt(w) so no intermediate overflows for unimodular spectral data at
any practical depth.

A- is built from its own table rows, not as the weighted transpose
w(u)/w(v) of A+: the float weights underflow to exactly 0 from m = 538 at
q = 2 (m = 340 at q = 3), where that ratio is 0/0, and the exact
adjointness check would compare A+ with itself.

The exact path works on plain {Vertex: value} mappings with the truncated
rows of :class:`a2quotient.quotient.QuotientComplex` and supports any
value ring with +, * and scalar integer multiples (Fractions, complex, the
Eisenstein rationals from :mod:`a2quotient.eigen`).
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .algebra import validate_q
from .quotient import QuotientComplex, Vertex, stratum, table, vertex_weight


class DimensionMismatch(ValueError):
    """Grid functions live on different truncations."""


class ZeroFunction(ValueError):
    """Operation undefined for the zero function."""


def tri_size(depth: int) -> int:
    return (depth + 1) * (depth + 2) // 2


def vertex_index(m, n):
    return m * (m + 1) // 2 + n


@lru_cache(maxsize=None)
def _grid_mn(depth: int):
    ms = np.concatenate([np.full(m + 1, m, dtype=np.int64)
                         for m in range(depth + 1)])
    ns = np.concatenate([np.arange(m + 1, dtype=np.int64)
                         for m in range(depth + 1)])
    ms.setflags(write=False)
    ns.setflags(write=False)
    return ms, ns


class GridFunction:
    """Complex-valued function on the depth-M triangle, flat-packed."""

    __slots__ = ("depth", "values")

    def __init__(self, depth: int, values):
        values = np.asarray(values, dtype=np.complex128)
        if values.shape != (tri_size(depth),):
            raise DimensionMismatch(
                f"expected {tri_size(depth)} values for depth {depth}")
        self.depth = depth
        self.values = values

    @classmethod
    def zeros(cls, depth: int) -> "GridFunction":
        return cls(depth, np.zeros(tri_size(depth), dtype=np.complex128))

    @classmethod
    def indicator(cls, depth: int, v: Vertex) -> "GridFunction":
        data = np.zeros(tri_size(depth), dtype=np.complex128)
        data[vertex_index(v.m, v.n)] = 1.0
        return cls(depth, data)

    @classmethod
    def from_dict(cls, depth: int, mapping) -> "GridFunction":
        data = np.zeros(tri_size(depth), dtype=np.complex128)
        for v, val in mapping.items():
            data[vertex_index(v.m, v.n)] = val
        return cls(depth, data)

    def __getitem__(self, v) -> complex:
        m, n = v
        if not (0 <= n <= m <= self.depth):
            raise KeyError(v)
        return complex(self.values[vertex_index(m, n)])

    def to_dict(self) -> dict[Vertex, complex]:
        ms, ns = _grid_mn(self.depth)
        return {Vertex(int(m), int(n)): complex(z)
                for m, n, z in zip(ms, ns, self.values)}


@lru_cache(maxsize=None)
def _kernel(q: int, depth: int, sign: int):
    """Neighbor indices and coefficients for one direction, filled from
    ``quotient.table``: one slot per step of the vertex's stratum row.

    Returns (idx[T,3], coef[T,3], mask[T]): idx -1 marks an absent slot,
    mask flags vertices whose row references depth+1.
    """
    m, n = _grid_mn(depth)
    strata = stratum(m, n).astype(np.int8)
    idx = np.full((m.size, 3), -1, dtype=np.int64)
    coef = np.zeros((m.size, 3), dtype=np.float64)
    for s, row in enumerate(table(q, sign)):
        sel = strata == s
        for slot, (dm, dn, c) in enumerate(row):
            # slots falling beyond the depth keep idx -1 and coefficient 0
            hit = np.flatnonzero(sel & (m <= depth - dm))
            idx[hit, slot] = vertex_index(m[hit] + dm, n[hit] + dn)
            coef[hit, slot] = c

    mask = m == depth  # every row at the last shell references depth+1
    idx.setflags(write=False)
    coef.setflags(write=False)
    mask.setflags(write=False)
    return idx, coef, mask


@lru_cache(maxsize=None)
def _weights(q: int, depth: int):
    m, n = _grid_mn(depth)
    # per-stratum factor times q^(-2m); negative exponents underflow
    # gracefully (and stay exact for q = 2)
    factor = np.array([1.0 / (q * q + q + 1), 1.0, 1.0, float(q + 1)])
    w = factor[stratum(m, n)] * np.power(float(q), -2.0 * m.astype(np.float64))
    w.setflags(write=False)
    sw = np.sqrt(w)
    sw.setflags(write=False)
    return w, sw


class L2Space:
    """Weighted L2 machinery on the depth-M triangle at prime q."""

    def __init__(self, q: int, depth: int):
        validate_q(q)
        if depth < 2:
            raise ValueError("depth must be >= 2")
        self.q = q
        self.depth = depth
        self.weights, self.sqrt_weights = _weights(q, depth)
        self.boundary_mask = _kernel(q, depth, +1)[2]

    # -- operators ----------------------------------------------------------
    def apply(self, sign: int, f: GridFunction):
        """Apply the raising (+1) or lowering (-1) operator.

        Returns (image, mask); at masked vertices the row is incomplete and
        the missing neighbor counted as zero.
        """
        self._check(f)
        idx, coef, mask = _kernel(self.q, self.depth, sign)
        padded = f.values[idx]
        padded[idx < 0] = 0.0
        return GridFunction(self.depth, (coef * padded).sum(axis=1)), mask

    def _check(self, f: GridFunction):
        if f.depth != self.depth:
            raise DimensionMismatch("grid function depth differs from space")

    # -- inner products -------------------------------------------------------
    def inner(self, f: GridFunction, g: GridFunction, where=None) -> complex:
        self._check(f)
        self._check(g)
        a = f.values * self.sqrt_weights
        b = g.values * self.sqrt_weights
        prod = a * np.conjugate(b)
        if where is not None:
            prod = prod[where]
        return complex(prod.sum())

    def norm(self, f: GridFunction, where=None) -> float:
        self._check(f)
        a = np.abs(f.values * self.sqrt_weights) ** 2
        if where is not None:
            a = a[where]
        return float(np.sqrt(a.sum()))

    def rayleigh(self, sign: int, f: GridFunction) -> complex:
        """<A f, f> / <f, f> over the unmasked vertices."""
        keep = ~self.boundary_mask
        nf = self.norm(f, where=keep)
        if nf == 0.0:
            raise ZeroFunction("rayleigh quotient of the zero function")
        af, _ = self.apply(sign, f)
        return self.inner(af, f, where=keep) / (nf * nf)

    # -- verification helpers -------------------------------------------------
    def adjoint_defect(self, trials: int, rng=None, exact: bool = True):
        """max |<A+ f, g> - <f, A- g>| over random interior-supported pairs.

        Exact mode draws integer-valued pairs and returns a Fraction
        (contractually 0); float mode returns the defect in doubles.
        """
        if trials < 1:
            raise ValueError("need at least one trial")
        rng = rng or random.Random(0)
        worst = Fraction(0) if exact else 0.0
        if exact:  # the rows of apply_exact, built once for all trials
            plus, minus = (_exact_rows(self.q, self.depth, s) for s in (+1, -1))
        for _ in range(trials):
            if exact:
                f = self._random_interior_exact(rng)
                g = self._random_interior_exact(rng)
                lhs = inner_exact(self.q, _apply_rows(plus, f)[0], g)
                rhs = inner_exact(self.q, f, _apply_rows(minus, g)[0])
                worst = max(worst, abs(lhs - rhs))
            else:
                f = self._random_interior_float(rng)
                g = self._random_interior_float(rng)
                af, _ = self.apply(+1, f)
                ag, _ = self.apply(-1, g)
                worst = max(worst, abs(self.inner(af, g) - self.inner(f, ag)))
        return worst

    def _random_interior_exact(self, rng):
        out = {}
        for m in range(self.depth):
            for n in range(m + 1):
                out[Vertex(m, n)] = rng.randrange(-9, 10)
        return out

    def _random_interior_float(self, rng):
        data = np.zeros(tri_size(self.depth), dtype=np.complex128)
        interior = tri_size(self.depth - 1)
        re = np.array([rng.uniform(-1, 1) for _ in range(interior)])
        im = np.array([rng.uniform(-1, 1) for _ in range(interior)])
        data[:interior] = re + 1j * im
        return GridFunction(self.depth, data)

    def norm_estimate(self, iters: int) -> float:
        """Power iteration on the compression of A- A+ started at the
        constant function; returns the square root of the top-eigenvalue
        estimate.  Non-decreasing in depth, never above q^2 + q + 1."""
        if iters < 1:
            raise ValueError("need at least one iteration")
        f = GridFunction(self.depth, np.ones(tri_size(self.depth)))
        scale = 1.0 / self.norm(f)
        f = GridFunction(self.depth, f.values * scale)
        est = 0.0
        for _ in range(iters):
            g, _ = self.apply(+1, f)
            h, _ = self.apply(-1, g)
            lam = self.inner(h, f).real  # self-adjoint PSD compression
            nh = self.norm(h)
            if nh == 0.0:
                return 0.0
            f = GridFunction(self.depth, h.values / nh)
            new = np.sqrt(max(lam, 0.0))
            if abs(new - est) <= 1e-15 * max(new, 1.0):
                return float(new)
            est = new
        return float(est)


# ---------------------------------------------------------------------------
# exact path on vertex dictionaries
# ---------------------------------------------------------------------------

def apply_exact(q: int, depth: int, sign: int, values: dict):
    """Exact operator application on a {Vertex: value} mapping.

    Values may be Fractions, ints, complex, or any ring element supporting
    integer scalar multiples.  Returns (image dict on the depth triangle,
    set of masked vertices whose row referenced depth+1).
    """
    return _apply_rows(_exact_rows(q, depth, sign), values)


def _exact_rows(q: int, depth: int, sign: int):
    cx = QuotientComplex(q, depth)
    return [(v, cx.row(v, sign)) for v in cx.vertices()]


def _apply_rows(rows, values):
    out = {}
    masked = set()
    for v, row in rows:
        if row.masked:
            masked.add(v)
        acc = None
        for tgt, c in row.terms:
            val = values.get(tgt)
            if val is None:
                continue
            term = c * val
            acc = term if acc is None else acc + term
        if acc is not None:
            out[v] = acc
    return out, masked


def inner_exact(q: int, f: dict, g: dict):
    """Weighted pairing sum f(v) conj(g(v)) w(v) in exact arithmetic.

    Values with a ``conjugate`` method are conjugated; Fractions and ints
    pass through unchanged.  Terms are grouped by weight first, so the
    expensive rational multiplications happen once per weight value.
    """
    groups = {}
    for v, fv in f.items():
        gv = g.get(v)
        if gv is None:
            continue
        gc = gv.conjugate() if hasattr(gv, "conjugate") else gv
        term = fv * gc
        w = vertex_weight(q, v.m, v.n)
        prev = groups.get(w)
        groups[w] = term if prev is None else prev + term
    total = None
    for w, s in groups.items():
        term = s * w
        total = term if total is None else total + term
    return 0 if total is None else total
