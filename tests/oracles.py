"""Independent oracles used by the test suite.

These deliberately do not import coefficient tables or closed-form
evaluators from the package: ``expected_rows`` restates the two operator
tables literally, and the recurrence solver below is written directly
from the eigenfunction equations and steps shell by shell from f(v00) = 1,
so it can cross-check both the operator rows and the closed forms.  The
group-membership references decide membership from the determinant over
F_q(t) by exact d-th roots, independently of the degree tests in the
package.
"""

from fractions import Fraction

from a2quotient.algebra import RatFunc, nth_root


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


def in_modular_group_ref(g):
    """Is the ProjMat class in PGL(d, F_q[t])?  Any polynomial representative
    with unit determinant is lambda g with lambda^d = det(g) up to a
    constant, so numerator and denominator of det(g) must be d-th powers;
    the candidate lambda is then unique up to constants and checked."""
    det = g.det()
    if det.is_zero:
        return False
    a, b = nth_root(det.num.monic(), g.dim), nth_root(det.den, g.dim)
    if a is None or b is None:
        return False
    h = g.scaled(RatFunc(b, a))
    if any(not e.is_polynomial for row in h.entries for e in row):
        return False
    return h.det().is_constant and not h.det().is_zero


def in_maximal_compact_ref(g):
    """Is the ProjMat class in PGL(d, O)?  Scaling the least entry valuation
    to 0 is the only freedom, so one candidate decides."""
    if g.det().is_zero:
        return False
    mu = min(e.valuation() for row in g.entries for e in row)
    h = g.scaled(RatFunc.t_power(g.q, int(mu)))
    return h.det().valuation() == 0
