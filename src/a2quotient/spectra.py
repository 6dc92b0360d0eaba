"""The three spectrum sets, residual experiments, and the witness.

For prime q the relevant subsets of the complex plane are

    sigma0 : the three points (q^2+q+1) e^{2 pi i k/3},
    sigma1 : the cusped curve (q^{3/2}+q^{1/2}) e^{i a} + q e^{-2 i a},
    sigma2 : the filled cusped region { q(s1+s2+s3) : |s_i| = 1, s1 s2 s3 = 1 }.

Membership in sigma1 and sigma2 reduces to one companion cubic,
X^3 - (lambda/q) X^2 + (conj(lambda)/q) X - 1 (eigen.companion_roots):
lambda lies in the region iff every root is unimodular (for unimodular
roots with product one the linear coefficient is forced to be the
conjugate of the quadratic one, so the single cubic is exhaustive), and on
the curve iff the root moduli are (sqrt q, 1, 1/sqrt q), as the root set
is closed under s -> 1/conj(s).  Both tests run in floats on one solve,
and TOL_POINT bounds root moduli, not distances (see classify_point).
The cusp value q^{3/2} + q + q^{1/2} of sigma1 exceeds the sigma2 cusp 3q
for every q >= 2, which is the non-Ramanujan margin; the residual sweep
certifies that the same point is an approximate eigenvalue.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .algebra import validate_q
from .eigen import (
    SpectralParam, Stratum, _mass, _residual, companion_roots, damped_grid,
    eigenfunction_grid, eigenvalue_pair,
)
from .operator import L2Space, tri_size


TOL_POINT = 1e-6      # root moduli and the sigma0 distance of a point
TOL_BOUNDARY = 1e-4   # root gap that tags a sigma2 point Boundary
DEPTH_COEFF = 12.0    # depth rule M = ceil(12 / eps) keeps boundary mass tiny
TRUNC_LIMIT = 0.01


class InvalidEpsilon(ValueError):
    """Damping parameter outside (0, 1/2)."""


class TruncationTooCoarse(ValueError):
    """Masked boundary shell holds more than the allowed mass fraction."""


class SetTag(Enum):
    SIGMA0 = "Sigma0"
    SIGMA1 = "Sigma1"
    SIGMA2_BOUNDARY = "Sigma2Boundary"
    SIGMA2_INTERIOR = "Sigma2Interior"
    OUTSIDE = "Outside"


@dataclass(frozen=True)
class SpectrumPoint:
    lam: complex
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
    """Companion-cubic test: all three roots unimodular within TOL_POINT."""
    return all(abs(abs(r) - 1) <= TOL_POINT for r in companion_roots(q, la))


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

    Sigma0 means within distance TOL_POINT of a sigma0 point.  The other
    tags come from one solve of the companion cubic, with TOL_POINT bounding
    each root modulus: Sigma1 within it of (sqrt q, 1, 1/sqrt q), Sigma2
    within it of 1 (Boundary when two roots lie within TOL_BOUNDARY).  Near
    sigma1 the largest modulus deviation is 1/(q-1) to (q+1)/(q-1)^2 times
    the distance from the curve, so the bound 1e-6 tags points up to
    3e-7..1e-6 from it at q=2 and 8e-6..1e-5 at q=11.
    """
    la = complex(la)
    if min(abs(la - p) for p in sigma0(q)) <= TOL_POINT:
        return SpectrumPoint(la, SetTag.SIGMA0)
    roots = companion_roots(q, la)
    moduli = [abs(z) for z in roots]
    r = math.sqrt(q)
    if all(abs(m - t) <= TOL_POINT for m, t in zip(moduli, (r, 1.0, 1.0 / r))):
        return SpectrumPoint(la, SetTag.SIGMA1)
    if all(abs(m - 1) <= TOL_POINT for m in moduli):
        a, b, c = roots
        near = min(abs(a - b), abs(a - c), abs(b - c)) <= TOL_BOUNDARY
        return SpectrumPoint(la, SetTag.SIGMA2_BOUNDARY if near
                             else SetTag.SIGMA2_INTERIOR)
    return SpectrumPoint(la, SetTag.OUTSIDE)


# ---------------------------------------------------------------------------
# residual experiments
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ResidualReport:
    s: tuple[complex, complex, complex]
    epsilon: float
    depth: int
    residual_plus: float
    residual_minus: float
    norm: float
    truncation_fraction: float


def _damped_report(q: int, param: SpectralParam, eps: float, depth: int) -> ResidualReport:
    space = L2Space(q, depth)
    f = damped_grid(q, param, eps, depth)
    pair = eigenvalue_pair(q, param)
    mass = _mass(space, f.values)
    # squared as space.norm(f) ** 2 is, so the CLI sweep CSV keeps its bytes
    total_sq = float(np.sqrt(mass.sum())) ** 2
    kept = float(np.sqrt(mass[space.interior].sum()))
    frac = 1.0 - kept ** 2 / total_sq if total_sq > 0 else 1.0
    if frac >= TRUNC_LIMIT:
        raise TruncationTooCoarse(
            f"masked shell holds {frac:.3%} of the mass at depth {depth}")
    ratios = []
    for sign, lam in ((+1, pair.lambda_plus), (-1, pair.lambda_minus)):
        resid = _residual(space, sign, lam, f.values)[space.interior]
        ratios.append(float(np.sqrt(_mass(space, resid).sum())) / kept)
    return ResidualReport(s=param.s, epsilon=eps, depth=depth,
                          residual_plus=ratios[0], residual_minus=ratios[1],
                          norm=math.sqrt(total_sq),
                          truncation_fraction=frac)


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
    """Damped-family residual ratios for each eps, at depth ceil(DEPTH_COEFF/eps).

    Trivial parameters need no damping (the eigenfunction is already
    square-summable and exact); they are swept undamped at the same depths
    and reported with epsilon 0.
    """
    validate_q(q)
    reports = []
    for eps in validate_eps(eps_list):
        depth = math.ceil(DEPTH_COEFF / eps)
        used = 0.0 if param.stratum is Stratum.TRIVIAL else eps
        reports.append(_damped_report(q, param, used, depth))
    return reports


def is_decreasing(reports, slack: float = 1.05) -> bool:
    """Residual ratios decrease along the sweep, up to 5% truncation slack."""
    for a, b in zip(reports, reports[1:]):
        if b.residual_plus > slack * a.residual_plus:
            return False
        if b.residual_minus > slack * a.residual_minus:
            return False
    return True


def norm_divergence(q: int, param: SpectralParam, depths) -> list[float]:
    """Partial sums of the squared norm of the undamped eigenfunction up to
    each requested depth (strictly increasing; bounded only for trivial s)."""
    validate_q(q)
    depths = sorted(depths)
    if not depths:
        raise ValueError("norm_divergence needs at least one depth")
    if depths[0] < 0:
        raise ValueError(f"depths must be >= 0, got {[d for d in depths if d < 0]}")
    # L2Space needs depth >= 2; the shallower sums are prefixes of its grid
    top = max(depths[-1], 2)
    mass = _mass(L2Space(q, top), eigenfunction_grid(q, param, top).values)
    return [float(mass[:tri_size(d)].sum()) for d in depths]


def sigma1_cusp(q: int) -> SpectralParam:
    """The parameter (sqrt q, 1, 1/sqrt q), whose eigenvalue is the sigma1
    cusp q^{3/2} + q + q^{1/2}."""
    r = math.sqrt(q)
    return SpectralParam.from_triple(q, r, 1.0, 1.0 / r)


@dataclass(frozen=True)
class WitnessReport:
    q: int
    lambda_star: float
    in_sigma2: bool
    margin: float
    sweep: list
    decreasing: bool


def non_ramanujan_witness(q: int, eps_list=(0.2, 0.1, 0.05, 0.025)) -> WitnessReport:
    """The cusp of sigma1 sits outside sigma2 by margin q^{3/2}+q^{1/2}-2q > 0
    yet passes the residual sweep: an approximate eigenvalue beyond the
    region, so the quotient fails the Ramanujan property."""
    validate_q(q)
    lam = q ** 1.5 + q + q ** 0.5
    margin = q ** 1.5 + q ** 0.5 - 2 * q
    sweep = residual_sweep(q, sigma1_cusp(q), eps_list)
    return WitnessReport(q=q, lambda_star=lam,
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
