import random
from fractions import Fraction

from thmc.exactla import (
    IntegerLattice,
    independent_rows,
    mat_rank,
    nullspace_int,
    primitive,
    simplex_standard,
)
from thmc.polytope import dd_pointed_cone
from oracles import fraction_nullspace, fraction_rref, in_convex_hull


class TestRank:
    def test_identity(self):
        I6 = [[1 if i == j else 0 for j in range(6)] for i in range(6)]
        assert mat_rank(I6) == 6

    def test_zero(self):
        assert mat_rank([[0, 0], [0, 0]]) == 0

    def test_tight_vectors_rank_five(self):
        k = 2
        vecs = [
            [k, 0, k, 0, 0, 0],
            [0, 0, 0, k, 0, k],
            [k - 1, 1, k, 0, 0, 0],
            [0, 1, 0, k - 1, 0, k],
            [k, 0, k - 1, 0, 1, 0],
        ]
        assert mat_rank(vecs) == 5

    def test_rank_equals_transpose_rank(self):
        rng = random.Random(5)
        for _ in range(30):
            r, c = rng.randint(1, 5), rng.randint(1, 5)
            M = [[rng.randint(-3, 3) for _ in range(c)] for _ in range(r)]
            Mt = [[M[i][j] for i in range(r)] for j in range(c)]
            assert mat_rank(M) == mat_rank(Mt)

    def test_fractions(self):
        M = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), Fraction(2, 1)]]
        assert mat_rank(M) == 2


class TestNullspace:
    def test_kernel_vectors_annihilate(self):
        rng = random.Random(11)
        for _ in range(25):
            r, c = rng.randint(1, 4), rng.randint(2, 6)
            M = [[rng.randint(-4, 4) for _ in range(c)] for _ in range(r)]
            basis = nullspace_int(M)
            assert len(basis) == c - mat_rank(M)
            for v in basis:
                for row in M:
                    assert sum(a * b for a, b in zip(row, v)) == 0

    def test_nullspace_int_primitive(self):
        M = [[2, 4, 6]]
        for v in nullspace_int(M):
            from math import gcd

            g = 0
            for e in v:
                g = gcd(g, e)
            assert g == 1
            assert sum(a * b for a, b in zip(M[0], v)) == 0


class TestIntegerLattice:
    def test_contains_generators_and_combos(self):
        rng = random.Random(9)
        for _ in range(20):
            dim = rng.randint(2, 6)
            gens = [
                [rng.randint(-4, 4) for _ in range(dim)] for _ in range(rng.randint(1, 5))
            ]
            lat = IntegerLattice(dim)
            for g in gens:
                lat.add(g)
            for g in gens:
                assert g in lat
            combo = [0] * dim
            for g in gens:
                coef = rng.randint(-3, 3)
                combo = [a + coef * b for a, b in zip(combo, g)]
            assert combo in lat

    def test_rejects_outside(self):
        lat = IntegerLattice(2)
        lat.add([2, 0])
        lat.add([0, 2])
        assert [1, 1] not in lat
        assert [2, 2] in lat

    def test_rank(self):
        lat = IntegerLattice(3)
        lat.add([1, 2, 3])
        lat.add([2, 4, 6])
        assert len(lat.rows) == 1
        lat.add([0, 1, 0])
        assert len(lat.rows) == 2


class TestSimplex:
    def test_cone_membership(self):
        cols = [(1, 0), (1, 1)]
        assert simplex_standard(cols, (3, 1)) is not None
        assert simplex_standard(cols, (0, 1)) is None
        w = simplex_standard(cols, (2, 2))
        assert w is not None
        recon = [sum(cols[j][i] * c for j, c in w.items()) for i in range(2)]
        assert recon == [2, 2]

    def test_convex_hull_membership(self):
        cols = [(0, 0), (1, 0), (0, 1)]
        assert in_convex_hull(cols, (Fraction(1, 3), Fraction(1, 3))) is not None
        assert in_convex_hull(cols, (1, 1)) is None
        assert in_convex_hull(cols, (0, 0)) is not None

    def test_np_fast_path_matches(self):
        # many columns, combinations with large weights and shifted targets
        rng = random.Random(2)
        cols = [tuple(rng.randint(0, 4) for _ in range(4)) for _ in range(60)]
        for _ in range(25):
            coefs = [rng.randint(0, 2) for _ in cols]
            x = tuple(sum(c[i] * f for c, f in zip(cols, coefs)) for i in range(4))
            assert simplex_standard(cols, x) is not None
            bad = tuple(v + 1 for v in x[:1]) + x[1:]
            w = simplex_standard(cols, bad)
            if w is not None:
                recon = [sum(cols[j][i] * c for j, c in w.items()) for i in range(4)]
                assert recon == list(bad) and all(c >= 0 for c in w.values())


class TestHelpers:
    def test_primitive(self):
        assert primitive([Fraction(1, 2), Fraction(1, 3)]) == (3, 2)
        assert primitive([2, 4, 6]) == (1, 2, 3)
        assert primitive([-2, 4]) == (-1, 2)
        assert primitive([0, 0, 0]) == (0, 0, 0)
        assert primitive([Fraction(0), Fraction(0)]) == (0, 0)
        # mixed ints and Fractions: the lcm of the denominators clears them
        assert primitive([2, Fraction(1, 3), Fraction(-3, 4), 0]) == (24, 4, -9, 0)
        assert primitive([Fraction(4), 6]) == (2, 3)
        # negative Fractions: a positive scale keeps every sign
        assert primitive([Fraction(-1, 2), Fraction(-1, 3)]) == (-3, -2)
        assert primitive([Fraction(-2, 3), Fraction(4, 9)]) == (-3, 2)
        assert all(type(e) is int for e in primitive([Fraction(-5, 6), 1]))

    def test_independent_rows(self):
        M = [[1, 0], [2, 0], [0, 1]]
        assert independent_rows(M) == [0, 2]

    def test_independent_rows_is_the_greedy_scan(self):
        # a row is kept exactly when it raises the rank of the rows kept so far
        rng = random.Random(13)
        for _ in range(40):
            r, c = rng.randint(1, 7), rng.randint(1, 5)
            M = [[rng.randint(-2, 2) for _ in range(c)] for _ in range(r)]
            M.insert(rng.randint(0, r), list(rng.choice(M)))
            greedy: list[int] = []
            for i, row in enumerate(M):
                if mat_rank([M[j] for j in greedy] + [row]) > len(greedy):
                    greedy.append(i)
            assert independent_rows(M) == greedy


def _random_matrices(seed, count):
    """Seeded integer and Fraction matrices, half of them rank-deficient by
    construction (a row combining two others, a zero row or a zero column)."""
    rng = random.Random(seed)
    for trial in range(count):
        r, c = rng.randint(1, 6), rng.randint(1, 7)
        if trial % 2:
            M = [[Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(c)]
                 for _ in range(r)]
        else:
            M = [[rng.randint(-5, 5) for _ in range(c)] for _ in range(r)]
        kind = trial % 6
        if kind == 1 and r > 2:
            M[2] = [2 * a - 3 * b for a, b in zip(M[0], M[1])]
        elif kind == 3:
            M[rng.randrange(r)] = [0] * c
        elif kind == 5:
            zero = rng.randrange(c)
            M = [row[:zero] + [0] + row[zero + 1 :] for row in M]
        yield M


class TestAgainstFractionElimination:
    """The integer elimination against Gauss-Jordan in Fractions."""

    def test_rank_kernel_and_independent_rows(self):
        for M in _random_matrices(23, 120):
            _, pivots = fraction_rref(M)
            assert mat_rank(M) == len(pivots)
            assert nullspace_int(M) == [primitive(v) for v in fraction_nullspace(M)]
            assert independent_rows(M) == fraction_rref(list(zip(*M)))[1]

    def test_integer_rows_are_multiples_of_the_reduced_rows(self):
        from thmc.exactla import rref

        for M in _random_matrices(29, 120):
            rows, pivots = rref(M)
            reduced, fraction_pivots = fraction_rref(M)
            assert pivots == fraction_pivots
            assert all(type(e) is int for row in rows for e in row)
            for row, c, red in zip(rows, pivots, reduced):
                assert [Fraction(a, row[c]) for a in row] == red

    def test_base_rays_are_the_inverse_columns(self):
        # a simplicial cone is its own base: its rays are the primitive
        # columns of the inverse, each tight on every other inequality
        rng = random.Random(31)
        for _ in range(60):
            dim = rng.randint(1, 6)
            B = [tuple(rng.randint(-6, 6) for _ in range(dim)) for _ in range(dim)]
            if mat_rank(B) < dim:
                continue
            unit = [tuple(int(i == j) for j in range(dim)) for i in range(dim)]
            inverse, _ = fraction_rref([b + e for b, e in zip(B, unit)])
            full = (1 << dim) - 1
            expected = sorted(
                (primitive([row[dim + j] for row in inverse]), full & ~(1 << j))
                for j in range(dim)
            )
            assert dd_pointed_cone(B, dim) == expected
