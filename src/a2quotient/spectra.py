"""The three spectrum sets, residual experiments, and the witness.

For prime q the relevant subsets of the complex plane are

    sigma0 : the three points (q^2+q+1) e^{2 pi i k/3},
    sigma1 : the cusped curve (q^{3/2}+q^{1/2}) e^{i a} + q e^{-2 i a},
    sigma2 : the filled cusped region { q(s1+s2+s3) : |s_i| = 1, s1 s2 s3 = 1 }.

Membership in sigma1 and sigma2 reduces to one companion cubic,
X^3 - (lambda/q) X^2 + (conj(lambda)/q) X - 1 (eigen.companion_roots):
lambda lies in the region iff every root is unimodular (for unimodular
roots with product one the linear coefficient is forced to be the
conjugate of the quadratic one, so the single cubic is exhaustive), that is
iff the cubic's discriminant D(lambda/q) = |z|^4 - 8 Re z^3 + 18 |z|^2 - 27
is at most 0, and on the curve iff the root moduli are (sqrt q, 1,
1/sqrt q), as the root set is closed under s -> 1/conj(s).  The curve test
bounds root moduli by TOL_POINT, the region test D by TOL_DELTOID (see
classify_point).
The cusp value q^{3/2} + q + q^{1/2} of sigma1 exceeds the sigma2 cusp 3q
for every q >= 2, which is the non-Ramanujan margin; the residual sweep
certifies that the same point is an approximate eigenvalue.

A sweep needs no grid.  With r = 1 - eps the damped eigenfunction is
r^m q^m sum_t p_t(k, n) x_t^m y_t^n, k = m - n (eigen._expansion), and the
weight F_s q^(-2m) cancels q^(2m) of its squared modulus.  Its residual
under the row of the stratum s has the amplitudes sum c (r^dm - 1) q^dm
x^dm y^dn p_t(k + dm - dn, n + dn) over the row's steps (dm, dn, c), as f
itself is exact.  As P^m Q^n = P^k (PQ)^n for P = r^2 x_t conj(x_u),
Q = y_t conj(y_u), each weighted squared sum pairs a_t conj(a_u) with
moments sum_(j >= 1) j^a X^j: the (0, 0) coefficient at the origin, of P in
k on the bottom row, of PQ in n on the diagonal, their product inside.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum

from .algebra import validate_q
from .eigen import (
    TOL_SING, SpectralParam, Stratum, _expansion, companion_roots,
    eigenfunction_grid,
)
from .operator import L2Space, tri_size
from .quotient import table, weight_factors


TOL_POINT = 1e-6      # sigma1 root moduli and the sigma0 distance of a point
TOL_DELTOID = 1e-9    # largest discriminant D(lambda/q) of a sigma2 point


class InvalidEpsilon(ValueError):
    """Damping parameter outside (0, 1/2)."""


class NotSquareSummable(ValueError):
    """A damped term pair has a geometric ratio of modulus >= 1, so its
    weighted squared sum diverges."""


class SetTag(Enum):
    SIGMA0 = "Sigma0"
    SIGMA1 = "Sigma1"
    SIGMA2_BOUNDARY = "Sigma2Boundary"
    SIGMA2_INTERIOR = "Sigma2Interior"
    OUTSIDE = "Outside"


@dataclass(frozen=True)
class SpectrumPoint:
    """A point's tag; a wrapper while perfbench's ``_classify_op`` reads it."""
    set_tag: SetTag


# ---------------------------------------------------------------------------
# the sets
# ---------------------------------------------------------------------------

def sigma0(q: int) -> list[complex]:
    """The three rotations of q^2 + q + 1."""
    validate_q(q)
    k = q * q + q + 1
    return [k * cmath.exp(2j * cmath.pi * j / 3) for j in range(3)]


def sigma1_point(q: int, theta: float) -> complex:
    validate_q(q)
    return ((q ** 1.5 + q ** 0.5) * cmath.exp(1j * theta)
            + q * cmath.exp(-2j * theta))


def sigma2_contains(q: int, la: complex) -> bool:
    """The closed region: D(la/q) = |z|^4 - 8 Re z^3 + 18 |z|^2 - 27, the
    discriminant of the companion cubic, is at most TOL_DELTOID."""
    validate_q(q)
    z = complex(la) / q
    if not cmath.isfinite(z):
        raise ValueError(f"eigenvalue {la} is not finite")
    size = abs(z) ** 2
    return size * size - 8 * (z * z * z).real + 18 * size - 27 <= TOL_DELTOID


def sigma2_boundary_point(q: int, phi: float) -> complex:
    """Boundary parametrization q(2 e^{i phi} + e^{-2 i phi})."""
    return q * (2 * cmath.exp(1j * phi) + cmath.exp(-2j * phi))


def curve_samples(q: int, samples: int):
    """The sigma1 curve and the sigma2 boundary sampled at 2 pi k / samples:
    (thetas, sigma1 points, sigma2 boundary points)."""
    validate_q(q)
    if samples < 1:
        raise ValueError("samples must be at least 1")
    thetas = [2 * math.pi * k / samples for k in range(samples)]
    return (thetas, [sigma1_point(q, th) for th in thetas],
            [sigma2_boundary_point(q, th) for th in thetas])


def classify_point(q: int, la: complex) -> SpectrumPoint:
    """Tag a point; membership in neither set is reported as Outside
    (the classification makes no claim about such points).

    Sigma0 means within distance TOL_POINT of a sigma0 point.  Sigma1 means
    each root modulus of the companion cubic within TOL_POINT of
    (sqrt q, 1, 1/sqrt q).  Near sigma1 the largest modulus deviation is
    1/(q-1) to (q+1)/(q-1)^2 times the distance from the curve, so the bound
    1e-6 tags points up to 3e-7..1e-6 from it at q=2 and 8e-6..1e-5 at q=11.
    Sigma2 means sigma2_contains, D(lambda/q) <= TOL_DELTOID = 1e-9, and
    Boundary that two roots lie within eigen.TOL_SING, the gap below which
    the parameter's stratum is double or triple: on sigma2 two roots
    coincide exactly on its boundary.  There D is at most about 1e-13 in
    floats, while moving 0.1% out raises it to 3.8e-8 or more even beside a
    cusp (where D vanishes to third order), so any bound in [1e-12, 1e-9]
    separates the two; a root-modulus test cannot, as beside a cusp the
    three roots coalesce and each modulus drifts by more than TOL_POINT.
    """
    la = complex(la)
    if min(abs(la - p) for p in sigma0(q)) <= TOL_POINT:
        return SpectrumPoint(SetTag.SIGMA0)
    roots = companion_roots(q, la)
    moduli = [abs(z) for z in roots]
    r = math.sqrt(q)
    if all(abs(m - t) <= TOL_POINT for m, t in zip(moduli, (r, 1.0, 1.0 / r))):
        return SpectrumPoint(SetTag.SIGMA1)
    if sigma2_contains(q, la):
        a, b, c = roots
        near = min(abs(a - b), abs(a - c), abs(b - c)) <= TOL_SING
        return SpectrumPoint(SetTag.SIGMA2_BOUNDARY if near
                             else SetTag.SIGMA2_INTERIOR)
    return SpectrumPoint(SetTag.OUTSIDE)


# ---------------------------------------------------------------------------
# residual experiments
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ResidualReport:
    """One damped residual experiment.  truncation_fraction is always 0.0,
    as every sweep sums over the whole triangle; perfbench's check_sweep
    still reads it."""
    epsilon: float
    residual_plus: float
    residual_minus: float
    norm: float
    truncation_fraction: float


def _shifted(p: dict, dk: int, dn: int, i: int, j: int):
    """The coefficient of k^i n^j in p(k + dk, n + dn)."""
    return sum(c * math.comb(a, i) * dk ** (a - i) * math.comb(b, j) * dn ** (b - j)
               for (a, b), c in p.items() if a >= i and b >= j)


def _residual_steps(q: int, terms, sign: int):
    """Per term, monomial of p and stratum the coefficients (A_1, A_-1) in
    sum c q^dm x^dm y^dn p(k + dm - dn, n + dn) over the row's steps with
    dm = 1 and dm = -1: the residual amplitude is (r - 1) A_1 + (1/r - 1) A_-1."""
    return [[tuple(tuple(sum(c * q ** dm * x ** dm * y ** dn
                             * _shifted(p, dm - dn, dn, *key)
                             for dm, dn, c in row if dm == side)
                         for side in (1, -1)) for row in table(q, sign))
             for key in p] for p, x, y in terms]


def _moments(x: complex, top: int) -> list[complex]:
    """sum_(j >= 1) j^a x^j for a = 0 .. top <= 4: x/(1 - x), then sum_i
    i! S(a, i) x^i/(1 - x)^(i+1), S(a, i) the Stirling numbers of the 2nd kind."""
    z = x / (1 - x)
    return [z] + [sum(c * z ** i for i, c in enumerate(row, 1)) / (1 - x)
                  for row in ((1,), (1, 2), (1, 6, 6), (1, 14, 36, 24))[:top]]


def _closed_masses(q: int, terms, r: float, residuals=()) -> list[float]:
    """sum_v w(v) |r^m q^m sum_t a_t(m - n, n) x_t^m y_t^n|^2 over the whole
    triangle for a_t = p_t, then per residual set (per term, monomial, stratum)."""
    top = 2 * max(max(key) for p, _, _ in terms for key in p)
    amplitudes = [[[(c,) * 4 for c in p.values()] for p, _, _ in terms],
                  *residuals]
    conjugates = [[[tuple(a.conjugate() for a in strata) for strata in term]
                   for term in amps] for amps in amplitudes]
    factors = [float(f) for f in weight_factors(q)]
    origin = [1] + [0] * top  # the one j = 0 of sum j^a x^j
    sums = [0j] * len(amplitudes)
    for t, (pt, xt, yt) in enumerate(terms):
        for u in range(t, len(terms)):
            pu, xu, yu = terms[u]
            p = r * r * xt * xu.conjugate()
            pq = p * yt * yu.conjugate()
            if not (abs(p) < 1 and abs(pq) < 1):
                raise NotSquareSummable(
                    f"damped ratios |P| = {abs(p):.6g}, |PQ| = {abs(pq):.6g} "
                    f"reach 1 at r = {r}")
            twice = 1 if u == t else 2  # (u, t) adds the conjugate; real parts count
            kp, npq = _moments(p, top), _moments(pq, top)
            # k- and n-moments over the origin, bottom row, diagonal, interior
            strata = ((origin, origin), (kp, origin), (origin, npq), (kp, npq))
            for i, (a1, b1) in enumerate(pt):
                for j, (a2, b2) in enumerate(pu):
                    g = [twice * f * gk[a1 + a2] * gn[b1 + b2]
                         for f, (gk, gn) in zip(factors, strata)]
                    for k, (amps, conj) in enumerate(zip(amplitudes, conjugates)):
                        a, c = amps[t][i], conj[u][j]
                        sums[k] += (a[0] * c[0] * g[0] + a[1] * c[1] * g[1]
                                    + a[2] * c[2] * g[2] + a[3] * c[3] * g[3])
    return [acc.real for acc in sums]


def _closed_report(q: int, terms, steps, eps: float) -> ResidualReport:
    """The report at eps; no steps (residuals 0.0) for an exact trivial s."""
    r = 1.0 - eps
    up, down = r - 1, r ** -1 - 1
    mass, *squares = _closed_masses(q, terms, r, [
        [[tuple(up * a + down * b for a, b in strata) for strata in term]
         for term in table_steps] for table_steps in steps])
    ratios = [math.sqrt(sq / mass) for sq in squares] or [0.0, 0.0]
    return ResidualReport(epsilon=eps, residual_plus=ratios[0],
                          residual_minus=ratios[1], norm=math.sqrt(mass),
                          truncation_fraction=0.0)


def validate_eps(eps_list) -> tuple[float, ...]:
    """The damping values as a tuple, once all are checked: an empty list
    or any value outside (0, 1/2) raises InvalidEpsilon before any work."""
    eps_list = tuple(eps_list)
    if not eps_list:
        raise InvalidEpsilon("empty damping list")
    for eps in eps_list:
        if not 0 < eps < 0.5:
            raise InvalidEpsilon(f"damping {eps} outside (0, 1/2)")
    return eps_list


def residual_sweep(q: int, param: SpectralParam, eps_list) -> list[ResidualReport]:
    """Damped-family residual ratios for each eps, summed over the whole triangle;
    trivial s (square-summable and exact) is reported undamped, with epsilon 0."""
    validate_q(q)
    eps_list = validate_eps(eps_list)
    terms = _expansion(q, param)
    if param.stratum is Stratum.TRIVIAL:
        return [_closed_report(q, terms, (), 0.0)] * len(eps_list)
    steps = [_residual_steps(q, terms, sign) for sign in (+1, -1)]
    return [_closed_report(q, terms, steps, eps) for eps in eps_list]


def is_decreasing(reports, slack: float = 1.05) -> bool:
    """No residual ratio grows by more than the factor slack along the sweep."""
    for a, b in zip(reports, reports[1:]):
        if b.residual_plus > slack * a.residual_plus:
            return False
        if b.residual_minus > slack * a.residual_minus:
            return False
    return True


def norm_divergence(q: int, param: SpectralParam, depths) -> list[float]:
    """Partial sums of the squared norm of the undamped eigenfunction, one
    per requested depth in the order asked for (strictly increasing in the
    depth; bounded only for trivial s)."""
    validate_q(q)
    depths = list(depths)
    if not depths:
        raise ValueError("norm_divergence needs at least one depth")
    if min(depths) < 0:
        raise ValueError(f"depths must be >= 0, got {[d for d in depths if d < 0]}")
    # L2Space needs depth >= 2; the shallower sums are prefixes of its grid
    top = max(2, *depths)
    mass = L2Space(q, top).mass(eigenfunction_grid(q, param, top))
    return [float(mass[:tri_size(d)].sum()) for d in depths]


def sigma1_cusp(q: int) -> SpectralParam:
    """The parameter (sqrt q, 1, 1/sqrt q), whose eigenvalue is the sigma1
    cusp q^{3/2} + q + q^{1/2}."""
    r = math.sqrt(q)
    return SpectralParam.from_triple(q, r, 1.0, 1.0 / r)


# the witness holds only if the last ratio of its sweep falls below this
WITNESS_LAST_RATIO = 0.5


@dataclass(frozen=True)
class WitnessReport:
    lambda_star: float
    in_sigma2: bool
    margin: float
    sweep: list
    decreasing: bool

    @property
    def holds(self) -> bool:
        """The verdict: outside sigma2 by a positive margin, a decreasing
        sweep, and its last ratio below WITNESS_LAST_RATIO."""
        last = self.sweep[-1]
        return (not self.in_sigma2 and self.margin > 0 and self.decreasing
                and max(last.residual_plus, last.residual_minus) < WITNESS_LAST_RATIO)


def default_ladder(q: int) -> tuple[float, ...]:
    """0.2 2^-k min(1, (3/q)^(3/2)) for k = 0..3: (0.2, 0.1, 0.05, 0.025)
    for q <= 3.  The cusp ratio is about K(q) eps with K(q) growing like
    q^(3/2), so the last value shrinks with it (last ratio below 0.1)."""
    validate_q(q)
    scale = min(1.0, (3 / q) ** 1.5)
    return tuple(0.2 * 0.5 ** k * scale for k in range(4))


def non_ramanujan_witness(q: int, eps_list=None) -> WitnessReport:
    """The cusp of sigma1 sits outside sigma2 by margin q^{3/2}+q^{1/2}-2q > 0
    yet passes the residual sweep: an approximate eigenvalue beyond the
    region, so the quotient fails the Ramanujan property.  eps_list defaults
    to default_ladder(q)."""
    validate_q(q)
    lam = q ** 1.5 + q + q ** 0.5
    margin = q ** 1.5 + q ** 0.5 - 2 * q
    if eps_list is None:
        eps_list = default_ladder(q)
    sweep = residual_sweep(q, sigma1_cusp(q), eps_list)
    return WitnessReport(lambda_star=lam,
                         in_sigma2=sigma2_contains(q, lam),
                         margin=margin, sweep=sweep,
                         decreasing=is_decreasing(sweep))


# ---------------------------------------------------------------------------
# figure
# ---------------------------------------------------------------------------

def render_spectra(q: int, path, samples: int = 256) -> str:
    """Write an SVG of the three sets: filled inner region, outer cusped
    curve, three point markers, with the axis-scale annotations."""
    _, outer, inner = curve_samples(q, samples)
    size = 640.0
    half = size / 2
    scale = 280.0 / (q * q + q + 1)

    def xy(z: complex) -> tuple[float, float]:
        return half + scale * z.real, half - scale * z.imag

    def path_d(points) -> str:
        coords = [xy(z) for z in points]
        head = f"M {coords[0][0]:.3f} {coords[0][1]:.3f}"
        rest = " ".join(f"L {x:.3f} {y:.3f}" for x, y in coords[1:])
        return f"{head} {rest} Z"

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size:.0f}" '
        f'height="{size:.0f}" viewBox="0 0 {size:.0f} {size:.0f}">',
        f'<line x1="0" y1="{half}" x2="{size}" y2="{half}" '
        'stroke="#888" stroke-dasharray="6,5" stroke-width="1"/>',
        f'<line x1="{half}" y1="0" x2="{half}" y2="{size}" '
        'stroke="#888" stroke-dasharray="6,5" stroke-width="1"/>',
        f'<path d="{path_d(inner)}" fill="#3a3a3a" stroke="black" stroke-width="1.2"/>',
        f'<path d="{path_d(outer)}" fill="none" stroke="black" stroke-width="1.4"/>',
    ]
    for pt in sigma0(q):
        x, y = xy(pt)
        lines.append(f'<circle cx="{x:.3f}" cy="{y:.3f}" r="4" fill="black"/>')

    def annotate(label, z, dy):
        x, y = xy(z)
        lines.append(f'<line x1="{x:.3f}" y1="{y - dy:.3f}" x2="{x:.3f}" '
                     f'y2="{y - 6:.3f}" stroke="black" stroke-width="1"/>')
        lines.append(f'<text x="{x:.3f}" y="{y - dy - 6:.3f}" font-size="15" '
                     f'text-anchor="middle">{label}</text>')

    annotate("3q", complex(3 * q, 0), 60)
    annotate("√q(q+√q+1)", complex(q ** 1.5 + q + q ** 0.5, 0), 100)
    annotate("q^2+q+1", complex(q * q + q + 1, 0), 140)
    lines.append("</svg>")
    text = "\n".join(lines) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return str(path)
