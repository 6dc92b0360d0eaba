import hashlib
import random
from functools import reduce

import pytest

from a2quotient.algebra import Poly, RatFunc, poly_gcd
from a2quotient.reduction import (
    ProjMat, Singular, _matmul, in_maximal_compact, in_modular_group,
    random_compact, random_modular, random_poly, reduce_matrix, verify_witness,
)
from oracles import (
    det_ref, in_maximal_compact_ref, in_modular_group_ref, projmat_of_ref,
)


def diag(q, *powers):
    return ProjMat.diagonal(q, list(powers))


def scaled(g, lam):
    """lam g, built from g's RatFunc entries: the same class, so the same
    canonical representative and hash."""
    h = ProjMat.from_rows([[lam * e for e in row] for row in g.entries])
    assert h == g and hash(h) == hash(g)
    return h


class TestMembership:
    def test_identity(self):
        for q in (2, 3, 5):
            for d in (2, 3):
                eye = ProjMat.identity(q, d)
                assert in_modular_group(eye)
                assert in_maximal_compact(eye)

    def test_diag_t_in_neither(self):
        g = diag(2, 1, 0, 0)
        assert not in_modular_group(g)
        assert not in_maximal_compact(g)

    def test_scalar_class_of_identity(self):
        q = 3
        g = scaled(ProjMat.identity(q, 3), RatFunc.t_power(q, -1))
        assert in_maximal_compact(g)
        assert in_modular_group(g)  # scalar t^-1 I ~ I

    def test_modular_products(self):
        rng = random.Random(100)
        for q in (2, 3, 5):
            for _ in range(34):
                g = random_modular(q, 3, rng)
                assert in_modular_group(g)
                assert in_modular_group(scaled(g, RatFunc.t_power(q, 2)))

    def test_compact_products(self):
        rng = random.Random(0xBEEF)
        for q in (2, 3, 5):
            for _ in range(34):
                w = random_compact(q, 3, rng)
                assert in_maximal_compact(w)
                assert in_maximal_compact(scaled(w, RatFunc.t_power(q, -3)))

    def test_cross_membership_fails(self):
        # a genuinely fractional compact element is not modular and vice versa
        q = 2
        w = ProjMat.from_strings(q, [["1", "1/t"], ["0", "1"]])
        assert in_maximal_compact(w) and not in_modular_group(w)
        g = ProjMat.from_strings(q, [["1", "t"], ["0", "1"]])
        assert in_modular_group(g) and not in_maximal_compact(g)


class TestCanonicalForm:
    """A class is held as its one primitive polynomial representative whose
    first nonzero entry is monic."""

    @staticmethod
    def check(g, lam):
        flat = [p for row in g.rows for p in row]
        assert reduce(poly_gcd, flat) == Poly.one(g.q)
        assert next(p for p in flat if p).lc() == 1
        scaled(g, lam)
        assert ProjMat.from_strings(g.q, [c.split(",") for c in str(g).split(";")]) == g

    @pytest.mark.parametrize("q", [2, 3, 5])
    @pytest.mark.parametrize("d", [2, 3])
    def test_samplers_and_witnesses(self, q, d):
        rng = random.Random(900 + 10 * q + d)
        for _ in range(12):
            gamma, w = random_modular(q, d, rng), random_compact(q, d, rng)
            g = gamma @ ProjMat.diagonal(q, [rng.randrange(4) for _ in range(d)]) @ w
            r = reduce_matrix(g)
            # (t + a) / (t^2 + b t + c) has valuation 1, so it is never constant
            lam = RatFunc(Poly(q, [rng.randrange(q), 1]),
                          Poly(q, [rng.randrange(q) for _ in range(2)] + [1]))
            for h in (gamma, w, g, r.gamma, r.w):
                self.check(h, lam)

    def test_examples(self):
        q = 3
        assert str(ProjMat.from_strings(q, [["2*t", "2"], ["0", "t^2"]])) == "t,1;0,2*t^2"
        assert ProjMat.from_strings(q, [["t+1", "0"], ["0", "t+1"]]) == ProjMat.identity(q, 2)
        assert str(ProjMat.from_strings(q, [["0", "1/t"], ["1", "0"]])) == "0,1;t,0"
        assert ProjMat.diagonal(q, [-1, 0, 0]) == ProjMat.diagonal(q, [0, 1, 1])
        assert len({ProjMat.identity(q, 3), diag(q, 2, 2, 2)}) == 1

    def test_zero_matrix_is_singular(self):
        # the gcd of all-zero entries is 0: the zero matrix is kept as it is
        for d in (2, 3):
            z = ProjMat.from_rows([[RatFunc(Poly.zero(2))] * d] * d)
            assert not in_modular_group(z) and not in_maximal_compact(z)
            with pytest.raises(Singular):
                reduce_matrix(z)


class TestContentGcd:
    """ProjMat.of gives the representative of the sequential content gcd."""

    @staticmethod
    def check(P):
        g = ProjMat.of(P)
        assert tuple(tuple(p.coeffs for p in row) for row in g.rows) == projmat_of_ref(P)
        return g

    @pytest.mark.parametrize("q", [2, 3, 5])
    def test_shapes(self, q):
        rng = random.Random(61 * q)
        z, t = Poly.zero(q), Poly.monomial(q, 1)
        cubic = Poly(q, [1, 0, 1, q - 1])
        for d in (2, 3):
            self.check([[z] * d for _ in range(d)])  # the zero matrix
            for _ in range(20):
                P = [[random_poly(q, rng) for _ in range(d)] for _ in range(d)]
                lone = [[z] * d for _ in range(d)]
                lone[rng.randrange(d)][rng.randrange(d)] = cubic.scale(rng.randrange(1, q))
                self.check(lone)  # one nonzero entry
                # the only constant entry comes last
                last = [[p.shifted(2) + t for p in row] for row in P]
                last[-1][-1] = Poly.const(q, rng.randrange(1, q))
                self.check(last)
                for j in range(4):
                    factor = Poly.monomial(q, j, rng.randrange(1, q))
                    self.check([[p * factor for p in row] for row in P])  # content t^j
                    self.check([[p * cubic * factor for p in row]
                                for row in P])  # content of higher degree
                    c = rng.randrange(1, q)
                    self.check([[p.scale(c) for p in row] for row in P])  # scalar multiples
        for P in ([[z] * 4] * 4, [[z] * 3] * 2):
            with pytest.raises(ValueError, match="2x2 or 3x3"):
                ProjMat.of(P)

    @pytest.mark.parametrize("q", [2, 3, 5])
    def test_products_print_as_the_oracle(self, q):
        """gamma . diag(t^k) . w as the benchmark's inputs are built."""
        rng = random.Random(67 * q)
        for d in (2, 3):
            for _ in range(12):
                gamma, w = random_modular(q, d, rng), random_compact(q, d, rng)
                D = ProjMat.diagonal(q, [rng.randrange(5) for _ in range(d)])
                for A, B in ((gamma, D), (gamma @ D, w)):
                    P = _matmul(A.rows, B.rows)
                    ref = projmat_of_ref(P)
                    text = ";".join(",".join(str(Poly(q, a)) for a in row) for row in ref)
                    assert str(ProjMat.of(P)) == text


@pytest.mark.parametrize("q", [2, 3, 5, 7])
def test_membership_matches_reference(q):
    # the degree tests against the determinant-root definitions, on members,
    # their products with diag(t^k) and scalings by a non-constant lambda
    rng = random.Random(40 + q)
    seen = set()
    for d in (2, 3):
        for _ in range(6):
            gamma, w = random_modular(q, d, rng), random_compact(q, d, rng)
            t = ProjMat.diagonal(q, [rng.randrange(1, 4)] + [rng.randrange(2)
                                                             for _ in range(d - 1)])
            lam = RatFunc(Poly(q, [rng.randrange(q), 1]),
                          Poly(q, [rng.randrange(q) for _ in range(2)] + [1]))
            for g in (gamma, w, gamma @ t, t @ w, gamma @ t @ w):
                for h in (g, scaled(g, lam)):
                    got = (in_modular_group(h), in_maximal_compact(h))
                    assert got == (in_modular_group_ref(h), in_maximal_compact_ref(h))
                    seen.add(got)
    assert len(seen) >= 3


def test_samplers_pinned():
    # the samplers must keep returning these exact matrices: criterion 9,
    # the round-trip tests and demo 01 draw their inputs from them; the
    # digest is over the canonical polynomial text of each class
    lines = []
    for seed in range(30):
        for q in (2, 3, 5):
            for d in (2, 3):
                rng = random.Random(seed)
                lines.append(f"{random_modular(q, d, rng)}|{random_compact(q, d, rng)}")
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "36fdd8f98a1bc762cae84b038dae930493332b54a697dccedefc0fc5caa0b5ec"


class TestReduce2:
    def test_identity_and_normal_forms(self):
        q = 2
        r = reduce_matrix(ProjMat.identity(q, 2))
        assert (r.m, r.n) == (0, None)
        assert verify_witness(r, ProjMat.identity(q, 2))
        r = reduce_matrix(diag(q, 3, 0))
        assert r.m == 3
        assert verify_witness(r, diag(q, 3, 0))

    def test_inverted_diagonal(self):
        q = 3
        r = reduce_matrix(diag(q, 0, 2))  # class of diag(t^-2, 1) ~ diag(t^2,1) swapped
        assert r.m == 2

    def test_singular(self):
        q = 2
        z = RatFunc(Poly.zero(q))
        one = RatFunc(Poly.one(q))
        with pytest.raises(Singular):
            reduce_matrix(ProjMat.from_rows([[one, one], [one, one]]))
        with pytest.raises(Singular):
            reduce_matrix(ProjMat.from_rows([[z, z], [one, one]]))
        # second row is (t^2+t) times the first: no zero row until reduced
        with pytest.raises(Singular):
            reduce_matrix(ProjMat.from_strings(3, [["1/t", "1/(t+1)"], ["t+1", "t"]]))

    @pytest.mark.parametrize("q", [2, 3])
    def test_roundtrip_200(self, q):
        rng = random.Random(300 + q)
        for _ in range(100):
            k = rng.randrange(6)
            gamma = random_modular(q, 2, rng)
            w = random_compact(q, 2, rng)
            g = gamma @ diag(q, k, 0) @ w
            r = reduce_matrix(g)
            assert r.m == k
            assert verify_witness(r, g)


class TestReduce3:
    def test_normal_forms_idempotent(self):
        q = 2
        for m in range(0, 7):
            for n in range(0, m + 1):
                r = reduce_matrix(diag(q, m, n, 0))
                assert (r.m, r.n) == (m, n)
                assert verify_witness(r, diag(q, m, n, 0))

    def test_identity(self):
        r = reduce_matrix(ProjMat.identity(3, 3))
        assert (r.m, r.n) == (0, 0)

    def test_unsorted_diagonal(self):
        q = 2
        r = reduce_matrix(diag(q, 0, 2, 1))
        assert (r.m, r.n) == (2, 1)
        r = reduce_matrix(diag(q, -1, 0, 0))  # ~ diag(1, t, t) ~ diag(t, t, 1) -> (1,1)
        assert (r.m, r.n) == (1, 1)

    def test_singular(self):
        q = 2
        one = RatFunc(Poly.one(q))
        with pytest.raises(Singular):
            reduce_matrix(ProjMat.from_rows([[one] * 3, [one] * 3, [one] * 3]))
        # rank 2 (row 2 = row 0 + t * row 1) with no zero row
        with pytest.raises(Singular):
            reduce_matrix(ProjMat.from_strings(3, [["1", "t", "0"], ["0", "1", "t"],
                                             ["1", "2*t", "t^2"]]))

    def test_scalar_invariance(self):
        q = 3
        rng = random.Random(77)
        for _ in range(20):
            gamma = random_modular(q, 3, rng)
            w = random_compact(q, 3, rng)
            g = gamma @ diag(q, 3, 1, 0) @ w
            lam = RatFunc(Poly(q, [rng.randrange(1, q), 1]))  # t + c
            r1, r2 = reduce_matrix(g), reduce_matrix(scaled(g, lam))
            assert (r1.m, r1.n) == (r2.m, r2.n) == (3, 1)

    def test_orbit_invariance(self):
        rng = random.Random(88)
        for q in (2, 3):
            base = diag(q, 2, 1, 0)
            for _ in range(25):
                gamma = random_modular(q, 3, rng)
                w = random_compact(q, 3, rng)
                r = reduce_matrix(gamma @ base @ w)
                assert (r.m, r.n) == (2, 1)
                assert verify_witness(r, gamma @ base @ w)

    @pytest.mark.parametrize("q", [2, 3])
    def test_roundtrip_batch(self, q):
        rng = random.Random(500 + q)
        for _ in range(50):
            m = rng.randrange(6)
            n = rng.randrange(m + 1)
            gamma = random_modular(q, 3, rng)
            w = random_compact(q, 3, rng)
            g = gamma @ diag(q, m, n, 0) @ w
            r = reduce_matrix(g)
            assert (r.m, r.n) == (m, n)
            assert verify_witness(r, g)


class TestFuzzArbitraryMatrices:
    """Random rational-entry matrices, not built from group factors: every
    invertible class must reduce with a valid witness."""

    @staticmethod
    def random_entry(q, rng):
        num = Poly(q, [rng.randrange(q) for _ in range(rng.randrange(4) + 1)])
        den = Poly(q, [rng.randrange(q) for _ in range(rng.randrange(3))] + [1])
        return RatFunc(num, den)

    @pytest.mark.parametrize("q", [2, 3])
    def test_fuzz_3x3(self, q):
        rng = random.Random(600 + q)
        done = 0
        while done < 60:
            g = ProjMat.from_rows(
                [[self.random_entry(q, rng) for _ in range(3)] for _ in range(3)])
            if det_ref(g.entries).is_zero:
                continue
            r = reduce_matrix(g)
            assert r.m >= r.n >= 0
            assert verify_witness(r, g)
            done += 1

    @pytest.mark.parametrize("q", [2, 3, 5])
    def test_fuzz_2x2(self, q):
        rng = random.Random(700 + q)
        done = 0
        while done < 60:
            g = ProjMat.from_rows(
                [[self.random_entry(q, rng) for _ in range(2)] for _ in range(2)])
            if det_ref(g.entries).is_zero:
                continue
            r = reduce_matrix(g)
            assert r.m >= 0
            assert verify_witness(r, g)
            done += 1

    def test_uniqueness_against_double_reduction(self):
        # reducing the assembled normal form again returns the same exponents
        rng = random.Random(71)
        q = 2
        for _ in range(20):
            g = ProjMat.from_rows(
                [[self.random_entry(q, rng) for _ in range(3)] for _ in range(3)])
            if det_ref(g.entries).is_zero:
                continue
            r = reduce_matrix(g)
            again = reduce_matrix(r.gamma @ ProjMat.diagonal(q, [r.m, r.n, 0]) @ r.w)
            assert (again.m, again.n) == (r.m, r.n)


class TestVerifyWitness:
    def test_tampered_gamma(self):
        q = 2
        rng = random.Random(9)
        g = random_modular(q, 3, rng) @ diag(q, 2, 1, 0) @ random_compact(q, 3, rng)
        r = reduce_matrix(g)
        assert verify_witness(r, g)
        rows = [list(row) for row in r.gamma.entries]
        rows[0][1] = rows[0][1] + RatFunc(Poly.one(q))  # perturb one entry
        bad = type(r)(m=r.m, n=r.n, gamma=ProjMat.from_rows(rows), w=r.w)
        assert not verify_witness(bad, g)

    def test_wrong_exponents(self):
        q = 2
        g = diag(q, 2, 1, 0)
        r = reduce_matrix(g)
        bad = type(r)(m=r.m + 1, n=r.n, gamma=r.gamma, w=r.w)
        assert not verify_witness(bad, g)
        # a 2x2 normal form cannot certify a 3x3 class
        assert not verify_witness(type(r)(m=r.m, n=None, gamma=r.gamma, w=r.w), g)

    @staticmethod
    def reduced(q=3, seed=11):
        rng = random.Random(seed)
        g = random_modular(q, 3, rng) @ diag(q, 3, 1, 0) @ random_compact(q, 3, rng)
        r = reduce_matrix(g)
        assert verify_witness(r, g)
        return q, g, r

    def test_w_entry_raised_by_t(self):
        q, g, r = self.reduced()
        t = RatFunc.t_power(q, 1)
        for i in range(3):
            for j in range(3):
                if r.w.entries[i][j].is_zero:
                    continue
                rows = [list(row) for row in r.w.entries]
                rows[i][j] = rows[i][j] * t
                bad = type(r)(m=r.m, n=r.n, gamma=r.gamma, w=ProjMat.from_rows(rows))
                assert not verify_witness(bad, g), (i, j)

    def test_factor_times_diag_t(self):
        # w loses det valuation 0; gamma stays polynomial but loses its unit det
        q, g, r = self.reduced()
        t = diag(q, 1, 0, 0)
        assert not verify_witness(type(r)(m=r.m, n=r.n, gamma=r.gamma, w=r.w @ t), g)
        assert not verify_witness(type(r)(m=r.m, n=r.n, gamma=r.gamma @ t, w=r.w), g)

    def test_projective_scaling_accepted(self):
        q, g, r = self.reduced()
        lam = RatFunc(Poly(q, [1, 1]), Poly(q, [2, 0, 1]))  # (t+1)/(t^2+2)
        assert verify_witness(type(r)(m=r.m, n=r.n, gamma=r.gamma,
                                      w=scaled(r.w, lam)), g)
        assert verify_witness(type(r)(m=r.m, n=r.n, gamma=scaled(r.gamma, lam),
                                      w=r.w), scaled(g, lam))

    def test_factor_moved_out_of_its_group(self):
        # gamma A and N^-1 A^-1 N w reassemble g for any A, so only the
        # membership checks can reject these (g has m, n = 3, 1)
        q, g, r = self.reduced()
        n_inv = diag(q, -r.m, -r.n, 0)

        def unipotent(x):
            return ProjMat.from_strings(q, [["1", x, "0"], ["0", "1", "0"],
                                            ["0", "0", "1"]])

        for a, gamma_ok, w_ok in (("1/t", False, True), ("t^3", True, False)):
            gamma = r.gamma @ unipotent(a)
            w = n_inv @ unipotent("-" + a) @ ProjMat.diagonal(q, [r.m, r.n, 0]) @ r.w
            assert (in_modular_group(gamma), in_maximal_compact(w)) == (gamma_ok, w_ok)
            assert not verify_witness(type(r)(m=r.m, n=r.n, gamma=gamma, w=w), g)
