# The spectrum picture: three exceptional points at radius q^2+q+1, a
# cusped curve through (q^{3/2}+q+q^{1/2}) e^{2 pi i k/3}, and the filled
# cusped region of radius 3q.  Damped eigenfunction families certify that
# curve and region consist of approximate eigenvalues; the curve's cusp
# lies strictly outside the region, which is the non-Ramanujan witness.

import cmath

from a2quotient import (
    SpectralParam, classify_point, default_ladder, non_ramanujan_witness,
    norm_divergence, render_spectra, residual_sweep, sigma1_point,
    sigma2_contains,
)

q = 2

print("== membership tests ==")
for name, z in [("origin", 0j), ("region cusp 3q", complex(3 * q)),
                ("curve cusp", sigma1_point(q, 0.0)),
                ("exceptional point", complex(q * q + q + 1))]:
    tag = classify_point(q, z).set_tag.value
    print(f"  {name:>18} {z:>24.5f}: in region: {sigma2_contains(q, z)!s:>5}, "
          f"tag: {tag}")

print("\n== residual sweeps: the region's center, boundary and cusp ==")
print("  (one route for every stratum: sums over the whole triangle, no grid;")
print("  eps from default_ladder(q))")
w = cmath.exp(2j * cmath.pi / 3)
param = SpectralParam.from_triple(q, 1.0, w, w * w)
print(f"  {'q':>4} {'stratum':>8} {'eps':>9} {'residual+':>10} {'residual-':>10}")
for q_s in (q, 101):
    for s in ((1.0, w, w * w),                       # lambda = 0, the center
              (cmath.exp(1.4j), cmath.exp(-0.7j), cmath.exp(-0.7j)),  # boundary
              (w, w, w)):                            # a cusp, lambda = 3 q w
        p = SpectralParam.from_triple(q_s, *s)
        for r in residual_sweep(q_s, p, default_ladder(q_s)):
            print(f"  {q_s:>4} {p.stratum.value:>8} {r.epsilon:>9.4g} "
                  f"{r.residual_plus:>10.3e} {r.residual_minus:>10.3e}")

print("\n== norm dichotomy ==")
trivial = SpectralParam.from_triple(q, q, 1, 1 / q)
print(f"  trivial partial masses:    "
      f"{[round(x, 6) for x in norm_divergence(q, trivial, [10, 20, 40])]}"
      f"  (limit 8/7 = {8 / 7:.6f})")
print(f"  center-family partial masses: "
      f"{[round(x, 2) for x in norm_divergence(q, param, [10, 50, 100, 200])]}"
      "  (diverges)")

print("\n== the witness ==")
for q_w in (q, 101):
    rep = non_ramanujan_witness(q_w)  # eps from default_ladder(q_w)
    print(f"  q = {q_w}")
    print(f"    cusp value        : {rep.lambda_star:.6f}")
    print(f"    inside the region : {rep.in_sigma2}")
    print(f"    margin beyond 3q  : {rep.margin:.6f}")
    print(f"    sweep decreasing  : {rep.decreasing}")
    print(f"    eps ladder        : {[float(f'{r.epsilon:.4g}') for r in rep.sweep]}")
    print(f"    residual+ sequence: {[round(r.residual_plus, 4) for r in rep.sweep]}")

out = render_spectra(q, "spectra_q2.svg")
print(f"\nfigure written to {out}")
print("three markers = exceptional points; outer curve and filled region "
      "as above; the gap between their cusps is the witness margin")
