"""Matrix-free application of the weighted adjacency operators.

The triangle {0 <= n <= m <= M} is packed into flat arrays indexed by
m(m+1)/2 + n.  The operator of one direction comes from the one
coefficient table ``quotient.table`` and the vertex-type switch
``quotient.stratum``, in two halves.  The table's steps are the same for
every q, so ``_shape(depth, sign)`` holds where each row reads, once for
all primes; ``_kernel(q, depth, sign)`` holds the integer coefficients,
O(M) of them.  Away from the walls every row is the table's interior row,
so the kernel keeps one integer per interior slot: a same-shell step
(dm = 0) is a constant shift of the packed index, read as a slice of the
values, and every other slot keeps one intp index array in the shape, 16
bytes per vertex in all.  The other rows (the origin, the bottom row, the
diagonal and the last shell, 3M of them) keep their full rows and read a
compact copy of the values they touch followed by one zero, so an absent
slot reads a true zero.  Rows that reference depth M+1 are flagged
in a boundary mask and evaluate the missing neighbor as zero (the
compression to the truncated space).  Those rows are exactly the last
packed shell, so the complete rows are the prefix ``L2Space.interior`` =
slice(0, tri_size(M-1)).  The shape and the weights are built from these
3M wall rows (``_walls``), with no per-vertex stratum pass: the rest of
the triangle is a per-shell constant.  ``_grid_mn``, the coordinates of
every vertex, is read only by the closed forms in ``eigen``.

One gather, ``_gather``, runs both operators in two arithmetics:
``L2Space.apply`` on complex128 grid functions, ``apply_exact`` on object
arrays of any exact ring values (ints, Fractions, ...).  The exact adjointness
check therefore gates the very kernel the float work multiplies, at any
depth.  Each row is summed from 0 in slot order and every coefficient is
an integer, so each product component is one rounding whatever numpy loop
computes it: the image is the row-major sum bit for bit, infinities and
signed zeros included, and NaN where it is NaN (which of two NaNs
survives depends on the numpy loop).

The float kernels (the gather, ``inner``, ``mass``; in ``eigen`` the closed
forms and residuals) run over blocks of ``_BLOCK`` = 2^14 entries,
256 KiB of complex128, that stay in the L2 cache: only what they return is
T long.  ``inner`` keeps one T-length product and sums it once, so numpy's
pairwise summation gives the unblocked sum.  Complex products go to a
distinct ``out=``: in place, numpy rounds a length-1 product differently.

Float inner products read the one weight array w and multiply by it
first: <f, g> sums (w f) conj(g), and ``L2Space.mass`` forms w |f|^2 as
(w |f|) |f|, which ``norm`` and the residual sweeps sum.  For unimodular
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
"""

from __future__ import annotations

import random
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
    """The int64 m and n of every packed vertex: 16 T bytes an entry.  The
    operator reads none of them; the closed forms in ``eigen`` do."""
    shells = np.arange(depth + 1, dtype=np.int64)
    ms = np.repeat(shells, shells + 1)
    ns = np.arange(tri_size(depth), dtype=np.int64)
    ns -= np.repeat(vertex_index(shells, 0), shells + 1)
    ms.setflags(write=False)
    ns.setflags(write=False)
    return ms, ns


def _walls(depth: int):
    """The wall rows, the rows that are not complete interior rows: the
    origin, (m, 0) and (m, m) on every shell 0 < m < M, and the last shell,
    3M in all.  Returns their int64 packed positions, increasing, and their
    m and n."""
    ms = np.arange(1, depth, dtype=np.int64)
    fm = np.concatenate(([0], np.repeat(ms, 2), np.full(depth + 1, depth)))
    fn = np.concatenate(([0], np.stack((0 * ms, ms), 1).ravel(),
                         np.arange(depth + 1)))
    return vertex_index(fm, fn), fm, fn


def _by_stratum(depth: int, factor, shell):
    """factor[stratum(m, n)] * shell[m] at every packed vertex: the
    interior factor repeated over each shell, the 3M wall rows then
    overwritten with their own."""
    fix, fm, fn = _walls(depth)
    out = np.repeat(factor[3] * shell, np.arange(1, depth + 2))
    out[fix] = factor[stratum(fm, fn)] * shell[fm]
    return out


def _packed(depth: int, values, dtype):
    values = np.asarray(values, dtype=dtype)
    if values.shape != (tri_size(depth),):
        raise DimensionMismatch(
            f"expected {tri_size(depth)} values for depth {depth}")
    return values


_INDEX_MAX = int(np.iinfo(np.int32).max)
_BLOCK = 1 << 14  # see the module docstring


def _check_space(q: int, depth: int):
    validate_q(q)
    if depth < 2:
        raise ValueError("depth must be >= 2")
    # _shape's positions run to T, its mark for an absent slot of a fix
    # row; they are intp, and the int32 bound stays the depth limit
    if tri_size(depth) + 1 > _INDEX_MAX:
        raise ValueError(
            f"depth {depth} is too large: its {tri_size(depth)} vertices and "
            f"the absent-slot position must be indexable in int32 (at most "
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


@lru_cache(maxsize=16)
def _last_shell(depth: int):
    """The boundary mask: the rows of the last shell, which reference
    depth+1.  T bytes an entry."""
    mask = np.zeros(tri_size(depth), dtype=bool)
    mask[vertex_index(depth, 0):] = True
    mask.setflags(write=False)
    return mask


@lru_cache(maxsize=16)
def _shape(depth: int, sign: int):
    """The q-free half of one direction's operator: where each row reads.
    The steps of ``quotient.table`` are the same for every q, so they are
    read at q = 2.

    Returns (reads, fix, touch, local, strata).  reads is the interior row
    in slot order: the shift dn of a same-shell step (dm = 0), read as a
    slice of the values, else an intp index array over all T rows, the
    packed index v plus a per-shell shift: v + m + 1 + dn (dm = +1) or
    v - m + dn (dm = -1).  The first slot of either row steps off the
    shell, so it covers every row.  The wall rows (``_walls``: the origin,
    the bottom row, the diagonal and the last shell; F = 3M of them) are
    listed in fix and keep their own rows, of the types in strata: local
    (3, F) indexes the compact values[touch] followed by one zero, which
    an absent slot reads.

    An entry holds 16 T bytes of index arrays and at most 192 M bytes of
    fix rows (20.8 MB in all at M = 1600); its build holds one T-length
    temporary beyond that.  Its 16 entries hold every (depth, sign) of a
    benchmark workload, five depths at most.
    """
    fix, fm, fn = _walls(depth)
    size, shells = tri_size(depth), np.arange(depth + 1, dtype=np.intp)
    rows = table(2, sign)
    reads = [dn for _, dn, _ in rows[3]]
    for slot, (dm, dn, _) in enumerate(rows[3]):
        if dm:
            # a fix row reads its own value here; its image is overwritten
            step = shells + 1 + dn if dm > 0 else dn - shells
            reads[slot] = read = np.repeat(step, shells + 1)
            read += np.arange(size, dtype=np.intp)
            read[fix] = fix
            read.setflags(write=False)

    strata = stratum(fm, fn)
    pos = np.full((3, fix.size), size, dtype=np.intp)
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


@lru_cache(maxsize=64)
def _kernel(q: int, depth: int, sign: int):
    """The q half of one direction's operator, beside ``_shape``, read
    from ``quotient.table``: (cs, coef), the int coefficients of the
    interior row in slot order and the int64 coefficients (3, F) of the
    fix rows, each its stratum's row padded with 0 (an absent slot reads
    the compact zero whatever its coefficient).  An entry holds
    24 F = 72 M bytes (115 KB at M = 1600).
    """
    rows = [[c for *_, c in r] + [0] * (3 - len(r)) for r in table(q, sign)]
    coef = np.array(rows, np.int64)[_shape(depth, sign)[4]].T
    coef.setflags(write=False)
    return tuple(rows[3]), coef


def _blocks(size: int):
    """Slices of at most _BLOCK entries tiling range(size), in order."""
    for lo in range(0, size, _BLOCK):
        yield slice(lo, min(lo + _BLOCK, size))


def _gather(q: int, depth: int, sign: int, values):
    """Apply one operator to packed values of any dtype: out[v] is the sum,
    from 0 and in slot order, of coefficient times value over the row at
    v, absent slots reading zero.  Returns out, a fresh array of values'
    size and dtype."""
    out = np.empty_like(values)
    reads, fix, touch, local, _ = _shape(depth, sign)
    cs, coef = _kernel(q, depth, sign)
    for block in _blocks(values.size):
        for k, (c, read) in enumerate(zip(cs, reads)):
            if isinstance(read, int):
                rows = slice(max(block.start, -read),
                             min(block.stop, values.size - read))
                part = values[rows.start + read:rows.stop + read]
            else:
                rows, part = block, np.take(values, read[block])
            product = np.multiply(part, c)
            if k:
                out[rows] += product
            else:
                # the sum starts from 0, as a row-wise sum does: three -0.0
                # products then add up to +0.0, not -0.0
                np.add(0, product, out=out[rows])
    compact = np.append(values[touch], 0)
    fixed = 0 + coef[0] * compact[local[0]]
    fixed += coef[1] * compact[local[1]]
    fixed += coef[2] * compact[local[2]]
    out[fix] = fixed
    return out


@lru_cache(maxsize=32)
def _weights(q: int, depth: int):
    """The float weight of every packed vertex, from the wall rows (see
    ``_by_stratum``): 8 T bytes an entry."""
    # per-stratum factor times q^(-2m) from a table over m; negative
    # exponents underflow gracefully (and stay exact for q = 2)
    factor = np.array([float(c) for c in weight_factors(q)])
    shell = np.power(float(q), -2.0 * np.arange(depth + 1))
    w = _by_stratum(depth, factor, shell)
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
        image = _gather(self.q, self.depth, sign, f.values)
        return GridFunction(self.depth, image), _last_shell(self.depth)

    def _check(self, f: GridFunction):
        if f.depth != self.depth:
            raise DimensionMismatch("grid function depth differs from space")

    # -- inner products (weight first; see the module docstring) -------------
    def inner(self, f: GridFunction, g: GridFunction,
              where=slice(None)) -> complex:
        self._check(f)
        self._check(g)
        w, fv, gv = self.weights[where], f.values[where], g.values[where]
        prod = np.empty_like(fv)
        for b in _blocks(fv.size):
            np.multiply(np.multiply(w[b], fv[b]), np.conjugate(gv[b]),
                        out=prod[b])
        return complex(prod.sum())

    def mass(self, f: GridFunction, where=slice(None)) -> np.ndarray:
        """w |f|^2 at the vertices of where, formed as (w |f|) |f|."""
        self._check(f)
        w, fv = self.weights[where], f.values[where]
        mass = np.empty(fv.shape)
        for b in _blocks(fv.size):
            a = np.abs(fv[b])
            np.multiply(np.multiply(w[b], a), a, out=mass[b])
        return mass

    def norm(self, f: GridFunction, where=slice(None)) -> float:
        return float(np.sqrt(self.mass(f, where).sum()))

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
        estimate.  Non-decreasing in depth, at most q^2 + q + 1 up to
        rounding (it reads 13.000000000000002 at q = 3)."""
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
    image = _gather(q, depth, sign, _packed(depth, values, object))
    return image, _last_shell(depth)


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
    scale = _by_stratum(depth, scale, np.ones(depth + 1, dtype=np.int64))
    terms = scale * f * np.conjugate(g)
    total = 0
    for shell in np.add.reduceat(terms, vertex_index(np.arange(depth + 1), 0)):
        total = total * q * q + shell
    return total * Fraction(1, k * q ** (2 * depth))
