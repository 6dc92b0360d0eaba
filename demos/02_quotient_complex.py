# The weighted quotient complex lives on the triangle 0 <= n <= m.  Each
# vertex carries a color mod 3, a stabilizer order and a weight; each
# directed operator row carries integer coefficients summing to q^2+q+1.
# An independent stabilizer-index count reproduces every coefficient.

from a2quotient import (
    QuotientComplex, Vertex, coeffs, color,
    edge_coeff_from_stabilizers, stabilizer_order, vertex_weight,
)

q = 2
print(f"q = {q}: vertex data on the first shells")
print(f"{'vertex':>8} {'color':>5} {'|stab|':>8} {'weight':>8}")
for m in range(4):
    for n in range(m + 1):
        v = Vertex(m, n)
        print(f"{str(v):>8} {color(v):>5} {stabilizer_order(q, m, n):>8} "
              f"{str(vertex_weight(q, m, n)):>8}")

print("\noperator rows at a few vertices (target, coefficient):")
for v in (Vertex(0, 0), Vertex(1, 0), Vertex(2, 1), Vertex(3, 3)):
    print(f"  raising  at {v}: {[(str(t), c) for t, c in coeffs(q, v, +1)]}")
    print(f"  lowering at {v}: {[(str(t), c) for t, c in coeffs(q, v, -1)]}")

print("\nevery coefficient is a stabilizer index |G_u| / |G_u ∩ G_v|:")
checked = 0
for m in range(8):
    for n in range(m + 1):
        u = Vertex(m, n)
        for sign in (+1, -1):
            for v, c in coeffs(q, u, sign):
                assert edge_coeff_from_stabilizers(q, u, v) == c
                checked += 1
print(f"  {checked} coefficients cross-checked, all equal")

print("\nadjointness data: c+(u,v) w(u) == c-(v,u) w(v) on every raising edge")
u = Vertex(2, 0)
for v, cuv in coeffs(q, u, +1):
    back = dict(coeffs(q, v, -1))[u]
    lhs = cuv * vertex_weight(q, u.m, u.n)
    rhs = back * vertex_weight(q, v.m, v.n)
    print(f"  {u} -> {v}: {cuv} * {vertex_weight(q, u.m, u.n)} "
          f"= {back} * {vertex_weight(q, v.m, v.n)} = {lhs}")
    assert lhs == rhs

print("\ntruncated complex masks rows that look past the depth:")
cx = QuotientComplex(q, depth=4)
row = cx.row(Vertex(4, 2), +1)
print(f"  inside: {[(str(t), c) for t, c in row.terms]}")
print(f"  masked: {[(str(t), c) for t, c in row.masked]}")
