"""Matrix-free application of the weighted adjacency operators.

The triangle {0 <= n <= m <= M} is packed into flat arrays indexed by
m(m+1)/2 + n.  ``_kernel`` fills, from the one coefficient table
``quotient.table`` and the vertex-type switch ``quotient.stratum``, at most
three neighbor slots per row, stored slot-major: a (3, T) int32 index array
and (3, T) integer coefficients over the T packed vertices.  An absent slot
points at index T, a zero sentinel the gather appends to the values, so the
gather is three column products with no masking.  Rows that reference depth
M+1 are flagged in a boundary mask and evaluate the missing neighbor as zero
(the compression to the truncated space).  Those rows are exactly the last
packed shell, so the complete rows are the prefix ``L2Space.interior`` =
slice(0, tri_size(M-1)).

One gather runs both operators in two arithmetics: ``L2Space.apply`` on
complex128 grid functions, ``apply_exact`` on object arrays of any exact
ring values (ints, Fractions, ...).  The exact adjointness check therefore
gates the very kernel the float work multiplies, at any depth.

Float inner products read the one weight array w and multiply by it
first: <f, g> sums (w f) conj(g), and |f|^2 sums (w |f|) |f|.  For unimodular
spectral data |f| grows like q^m while w |f|^2 stays of order one, so the
intermediate w |f| is small; squaring |f| first overflows to inf once |f|
passes 1.3e154 (m = 323 at q = 3, where depth 480 reaches 3^480 = 1e229).
``inner_exact`` scales by L = (q^2+q+1) q^(2M), which makes every L w(v) an
integer: it sums integer-scaled products per shell and reassembles the
shells with one Horner pass in q^2.

A- is built from its own table rows, not as the weighted transpose
w(u)/w(v) of A+: the float weights underflow to exactly 0 from m = 538 at
q = 2 (m = 340 at q = 3), where that ratio is 0/0, and the exact
adjointness check would compare A+ with itself.

The closed forms and residual sweeps keep their T-length intermediates in a
per-thread scratch pool: ``_scratch(name, size, dtype)`` is a [:size] view
of a named block, grown to the largest size asked for and kept, and
``_take`` gathers into one; ``eigen`` names the blocks and uses them.

The public ``apply``, ``inner``, ``norm`` and ``apply_exact`` allocate.  On
the pool (``apply`` through the pooled gather, ``norm`` through the pooled
mass), ``operator-power`` went from 451 to 520 MB peak RSS and from 2.17 to
2.43 s wall time in each of six seed pairs (2-core x86_64, numpy 2.4.6):
the pooled gather wins at depth 400 (1.7 against 2.8 ms) but loses at depth
1600 (56-61 against 51-55 ms), and would keep 72 MB of blocks.
"""

from __future__ import annotations

import random
import threading
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .algebra import validate_q
from .quotient import stratum, table, weight_factors


class DimensionMismatch(ValueError):
    """Grid functions live on different truncations."""


class ZeroFunction(ValueError):
    """Operation undefined for the zero function."""


def tri_size(depth: int) -> int:
    return (depth + 1) * (depth + 2) // 2


def vertex_index(m, n):
    return m * (m + 1) // 2 + n


@lru_cache(maxsize=16)
def _grid_mn(depth: int):
    ms = np.concatenate([np.full(m + 1, m, dtype=np.int64)
                         for m in range(depth + 1)])
    ns = np.concatenate([np.arange(m + 1, dtype=np.int64)
                         for m in range(depth + 1)])
    ms.setflags(write=False)
    ns.setflags(write=False)
    return ms, ns


def _packed(depth: int, values, dtype):
    values = np.asarray(values, dtype=dtype)
    if values.shape != (tri_size(depth),):
        raise DimensionMismatch(
            f"expected {tri_size(depth)} values for depth {depth}")
    return values


_INDEX_MAX = int(np.iinfo(np.int32).max)


def _check_space(q: int, depth: int):
    validate_q(q)
    if depth < 2:
        raise ValueError("depth must be >= 2")
    if tri_size(depth) + 1 > _INDEX_MAX:
        raise ValueError(
            f"depth {depth} is too large: its {tri_size(depth)} vertices and "
            f"the zero sentinel must be indexable in int32 (at most "
            f"{_INDEX_MAX})")


class GridFunction:
    """Complex-valued function on the depth-M triangle, flat-packed."""

    __slots__ = ("depth", "values")

    def __init__(self, depth: int, values):
        self.depth = depth
        self.values = _packed(depth, values, np.complex128)

    @classmethod
    def zeros(cls, depth: int) -> "GridFunction":
        return cls(depth, np.zeros(tri_size(depth), dtype=np.complex128))

    @classmethod
    def indicator(cls, depth: int, v) -> "GridFunction":
        data = np.zeros(tri_size(depth), dtype=np.complex128)
        data[vertex_index(*v)] = 1.0
        return cls(depth, data)

    def __getitem__(self, v) -> complex:
        m, n = v
        if not (0 <= n <= m <= self.depth):
            raise KeyError(v)
        return complex(self.values[vertex_index(m, n)])


@lru_cache(maxsize=64)
def _kernel(q: int, depth: int, sign: int):
    """Neighbor indices and coefficients for one direction, filled from
    ``quotient.table``: one slot per step of the vertex's stratum row.

    Returns (idx[3,T], coef[3,T], mask[T]), slot-major so each slot is one
    contiguous column: idx is int32 and points an absent slot at T, the
    zero sentinel ``_gather`` appends; the coefficients are int64 so both
    arithmetics read them unrounded; mask flags vertices whose row
    references depth+1.
    """
    m, n = _grid_mn(depth)
    strata = stratum(m, n).astype(np.int8)
    idx = np.full((3, m.size), m.size, dtype=np.int32)
    coef = np.zeros((3, m.size), dtype=np.int64)
    for s, row in enumerate(table(q, sign)):
        sel = strata == s
        for slot, (dm, dn, c) in enumerate(row):
            # slots falling beyond the depth keep the sentinel and coefficient 0
            hit = np.flatnonzero(sel & (m <= depth - dm))
            idx[slot, hit] = vertex_index(m[hit] + dm, n[hit] + dn)
            coef[slot, hit] = c

    mask = m == depth  # every row at the last shell references depth+1
    idx.setflags(write=False)
    coef.setflags(write=False)
    mask.setflags(write=False)
    return idx, coef, mask


def _gather(q: int, depth: int, sign: int, values: np.ndarray):
    """Apply one operator to packed values of any dtype: per row the sum
    of coef * values[idx] over the slots, absent slots reading the zero
    sentinel.

    Returns (image, mask).
    """
    idx, coef, mask = _kernel(q, depth, sign)
    padded = np.zeros(values.size + 1, dtype=values.dtype)
    padded[:-1] = values
    # the sum starts from 0, as a row-wise sum does: three -0.0 products
    # then add up to +0.0, not -0.0
    image = 0 + coef[0] * padded.take(idx[0])
    image += coef[1] * padded.take(idx[1])
    image += coef[2] * padded.take(idx[2])
    return image, mask


_POOL = threading.local()


def _scratch(name: str, size: int, dtype) -> np.ndarray:
    """A [:size] view, as dtype, of this thread's pool block name; the block
    grows to the largest byte count asked for and is kept."""
    dtype = np.dtype(dtype)
    nbytes = size * dtype.itemsize
    block = vars(_POOL).get(name)
    if block is None or block.size < nbytes:
        block = vars(_POOL)[name] = np.empty(nbytes, dtype=np.uint8)
    return block[:nbytes].view(dtype)


def _take(table, index, name: str) -> np.ndarray:
    """table[index] in the pool block name."""
    # np.take(out=) in its default mode="raise" buffers the output: 0.59 ms
    # against 0.17 ms with mode="clip" at depth 480.  "clip" is exact here:
    # every index is in range by construction.
    out = _scratch(name, index.size, table.dtype)
    return np.take(table, index, out=out, mode="clip")


@lru_cache(maxsize=32)
def _weights(q: int, depth: int):
    m, n = _grid_mn(depth)
    # per-stratum factor times q^(-2m); negative exponents underflow
    # gracefully (and stay exact for q = 2)
    factor = np.array([float(c) for c in weight_factors(q)])
    w = factor[stratum(m, n)] * np.power(float(q), -2.0 * m.astype(np.float64))
    w.setflags(write=False)
    return w


class L2Space:
    """Weighted L2 machinery on the depth-M triangle at prime q."""

    def __init__(self, q: int, depth: int):
        _check_space(q, depth)
        self.q = q
        self.depth = depth
        self.weights = _weights(q, depth)
        # the vertices whose rows are complete: all but the last shell
        self.interior = slice(0, tri_size(depth - 1))

    # -- operators ----------------------------------------------------------
    def apply(self, sign: int, f: GridFunction):
        """Apply the raising (+1) or lowering (-1) operator.

        Returns (image, mask); at masked vertices the row is incomplete and
        the missing neighbor counted as zero.
        """
        self._check(f)
        image, mask = _gather(self.q, self.depth, sign, f.values)
        return GridFunction(self.depth, image), mask

    def _check(self, f: GridFunction):
        if f.depth != self.depth:
            raise DimensionMismatch("grid function depth differs from space")

    # -- inner products (weight first; see the module docstring) -------------
    def inner(self, f: GridFunction, g: GridFunction,
              where=slice(None)) -> complex:
        self._check(f)
        self._check(g)
        prod = self.weights[where] * f.values[where]
        prod *= np.conjugate(g.values[where])
        return complex(prod.sum())

    def norm(self, f: GridFunction, where=slice(None)) -> float:
        self._check(f)
        a = np.abs(f.values[where])
        mass = self.weights[where] * a
        mass *= a
        return float(np.sqrt(mass.sum()))

    def rayleigh(self, sign: int, f: GridFunction) -> complex:
        """<A f, f> / <f, f> over the interior vertices."""
        nf = self.norm(f, where=self.interior)
        if nf == 0.0:
            raise ZeroFunction("rayleigh quotient of the zero function")
        af, _ = self.apply(sign, f)
        return self.inner(af, f, where=self.interior) / (nf * nf)

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
        q, depth = self.q, self.depth
        for _ in range(trials):
            if exact:
                f = self._random_interior_exact(rng)
                g = self._random_interior_exact(rng)
                lhs = inner_exact(q, depth, apply_exact(q, depth, +1, f)[0], g)
                rhs = inner_exact(q, depth, f, apply_exact(q, depth, -1, g)[0])
                worst = max(worst, abs(lhs - rhs))
            else:
                f = self._random_interior_float(rng)
                g = self._random_interior_float(rng)
                af, _ = self.apply(+1, f)
                ag, _ = self.apply(-1, g)
                worst = max(worst, abs(self.inner(af, g) - self.inner(f, ag)))
        return worst

    def _random_interior_exact(self, rng):
        data = np.zeros(tri_size(self.depth), dtype=object)
        size = self.interior.stop
        data[self.interior] = [rng.randrange(-9, 10) for _ in range(size)]
        return data

    def _random_interior_float(self, rng):
        data = np.zeros(tri_size(self.depth), dtype=np.complex128)
        size = self.interior.stop
        re = np.array([rng.uniform(-1, 1) for _ in range(size)])
        im = np.array([rng.uniform(-1, 1) for _ in range(size)])
        data[self.interior] = re + 1j * im
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
# exact path on packed object arrays
# ---------------------------------------------------------------------------

def apply_exact(q: int, depth: int, sign: int, values):
    """Exact operator application on values packed in ``vertex_index``
    order: any exact ring values supporting integer scalar multiples
    (ints, Fractions, ...).

    Returns (image, mask) as for ``L2Space.apply``, the image an object
    array; at masked vertices the row referenced depth+1.
    """
    _check_space(q, depth)
    return _gather(q, depth, sign, _packed(depth, values, object))


def inner_exact(q: int, depth: int, f, g):
    """Weighted pairing sum f(v) conj(g(v)) w(v) in exact arithmetic, on
    values packed in ``vertex_index`` order.

    Values are conjugated through their ``conjugate`` method (ints and
    Fractions return themselves).  With L = (q^2+q+1) q^(2M) every L w(v)
    is an integer, so the integer-scaled products are summed per shell and
    one Horner pass in q^2 gives L <f, g>.
    """
    _check_space(q, depth)
    f, g = _packed(depth, f, object), _packed(depth, g, object)
    k = q * q + q + 1
    scale = np.array([int(k * c) for c in weight_factors(q)])
    m, n = _grid_mn(depth)
    terms = scale[stratum(m, n)] * f * np.conjugate(g)
    total = 0
    for shell in np.add.reduceat(terms, vertex_index(np.arange(depth + 1), 0)):
        total = total * q * q + shell
    return total * Fraction(1, k * q ** (2 * depth))
