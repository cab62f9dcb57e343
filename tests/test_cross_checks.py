"""Independent-route cross-checks of the exact engines.

The double description hull is compared against qhull, exact elimination
against sympy's reduced row echelon form, lattice membership against sympy's
Hermite normal form, and simplex feasibility against the HiGHS LP solver.  Floating-point oracles are only trusted on inputs with a
comfortable margin; the exact side is the reference everywhere else.
"""

import random
from fractions import Fraction
from itertools import chain

import numpy as np
from scipy.optimize import linprog
from scipy.spatial import ConvexHull
from sympy import Matrix, Rational
from sympy.matrices.normalforms import hermite_normal_form as sympy_hnf

from thmc.design import get_design
from thmc.exactla import IntegerLattice, rref, simplex_standard
from thmc.polytope import convex_hull, vertex_enumeration


class TestHullAgainstQhull:
    def test_random_3d_point_sets(self):
        rng = random.Random(2024)
        for trial in range(8):
            pts = sorted(
                {
                    tuple(rng.randint(0, 50) for _ in range(3))
                    for _ in range(rng.randint(8, 20))
                }
            )
            arr = np.array(pts, dtype=float)
            if np.linalg.matrix_rank(arr - arr[0]) < 3:
                continue  # qhull needs full-dimensional input
            qh = ConvexHull(arr)
            expected = {pts[i] for i in qh.vertices}
            V = vertex_enumeration(convex_hull(pts))
            got = {tuple(int(c) for c in v) for v in V.vertices}
            assert got == expected, (trial, sorted(got), sorted(expected))

    def test_model_polytope_vertices_match_qhull(self):
        # project out the fixed coordinate sum so qhull sees a full-dim body
        for T in (4, 5, 6):
            cols = get_design(3, T).distinct_columns()
            arr = np.array([c[:5] for c in cols], dtype=float)
            qh = ConvexHull(arr)
            expected = {cols[i] for i in qh.vertices}
            V = vertex_enumeration(convex_hull(cols))
            got = {tuple(int(c) for c in v) for v in V.vertices}
            assert got == expected


class TestEliminationAgainstSympy:
    SHAPES = [(7, 3), (3, 7), (5, 5), (1, 4), (4, 1), (6, 6)]

    def _rational_inputs(self):
        rng = random.Random(31)
        for trial in range(60):
            r, c = self.SHAPES[trial % len(self.SHAPES)]
            M = [
                [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(c)]
                for _ in range(r)
            ]
            if r > 2 and rng.random() < 0.5:  # rank-deficient: a row combines two others
                M[2] = [2 * a - Fraction(1, 3) * b for a, b in zip(M[0], M[1])]
            if rng.random() < 0.3:
                M[rng.randrange(r)] = [Fraction(0)] * c
            if rng.random() < 0.3:
                zero = rng.randrange(c)
                M = [row[:zero] + [Fraction(0)] + row[zero + 1 :] for row in M]
            yield M

    def _integer_inputs(self):
        # plain ints, every third matrix with entries near 10^15; trials cycle
        # through full, rank-deficient, zero-row and zero-column cases
        rng = random.Random(37)
        for trial in range(60):
            r, c = self.SHAPES[trial % len(self.SHAPES)]
            bound = 10**15 if trial % 3 == 0 else 9
            M = [[rng.randint(-bound, bound) for _ in range(c)] for _ in range(r)]
            if r > 2 and trial % 4 == 1:  # rank-deficient: a row combines two others
                M[2] = [3 * a - 5 * b for a, b in zip(M[0], M[1])]
            if trial % 4 == 2:
                M[rng.randrange(r)] = [0] * c
            if trial % 4 == 3:
                zero = rng.randrange(c)
                M = [row[:zero] + [0] + row[zero + 1 :] for row in M]
            yield M
        yield [[0] * 4 for _ in range(3)]

    def test_rref_matches(self):
        for M in chain(self._rational_inputs(), self._integer_inputs()):
            rows, pivots = rref(M)
            R, sympy_pivots = Matrix([[Rational(e) for e in row] for row in M]).rref()
            assert pivots == list(sympy_pivots)
            # each integer row divided by its pivot is the reduced row
            reduced = [[Fraction(a, row[c]) for a in row] for row, c in zip(rows, pivots)]
            assert reduced == [
                [Fraction(int(e.p), int(e.q)) for e in R.row(i)]
                for i in range(len(pivots))
            ]


class TestLatticeAgainstSympy:
    def test_membership_agreement(self):
        rng = random.Random(7)
        for _ in range(25):
            dim = rng.randint(2, 5)
            gens = [
                [rng.randint(-5, 5) for _ in range(dim)]
                for _ in range(rng.randint(2, 6))
            ]
            lat = IntegerLattice(dim)
            for g in gens:
                lat.add(g)
            H = sympy_hnf(Matrix(gens).T)
            # membership via sympy: solve H y = x over the rationals and
            # check integrality (H columns form a basis of the span)
            Hm = Matrix(H)
            for _ in range(12):
                if rng.random() < 0.5 and gens:
                    x = [0] * dim
                    for g in gens:
                        k = rng.randint(-2, 2)
                        x = [a + k * b for a, b in zip(x, g)]
                else:
                    x = [rng.randint(-6, 6) for _ in range(dim)]
                ours = x in lat
                sol = Hm.solve_least_squares(Matrix(x)) if Hm.cols else None
                if Hm.cols:
                    fit = Hm * sol
                    theirs = all(e == v for e, v in zip(fit, x)) and all(
                        c.is_integer for c in sol
                    )
                else:
                    theirs = not any(x)
                assert ours == bool(theirs), (gens, x)

    def test_lattice_index_matches(self):
        # for full-rank generator sets the pivot product (lattice index)
        # must agree with sympy's Hermite normal form determinant
        rng = random.Random(3)
        checked = 0
        for _ in range(30):
            dim = rng.randint(2, 4)
            gens = [[rng.randint(-4, 4) for _ in range(dim)] for _ in range(dim + 1)]
            lat = IntegerLattice(dim)
            for g in gens:
                lat.add(g)
            if len(lat.rows) != dim:
                continue
            ours = 1
            for i, row in enumerate(lat.rows):
                piv = next(e for e in row if e)
                ours *= abs(piv)
            H = sympy_hnf(Matrix(gens).T)
            theirs = abs(Matrix(H).det())
            assert ours == theirs
            checked += 1
        assert checked > 10


class TestSimplexAgainstHighs:
    def test_cone_feasibility_agreement(self):
        rng = random.Random(11)
        agreements = 0
        for _ in range(40):
            k = rng.randint(2, 4)
            m = rng.randint(3, 8)
            cols = [tuple(rng.randint(0, 5) for _ in range(k)) for _ in range(m)]
            if rng.random() < 0.5:
                lam = [rng.randint(0, 3) for _ in range(m)]
                x = tuple(sum(c[i] * l for c, l in zip(cols, lam)) for i in range(k))
            else:
                x = tuple(rng.randint(0, 12) for _ in range(k))
            exact = simplex_standard(cols, x) is not None
            res = linprog(
                c=[0.0] * m,
                A_eq=np.array(cols, dtype=float).T,
                b_eq=np.array(x, dtype=float),
                bounds=[(0, None)] * m,
                method="highs",
            )
            approx = res.status == 0
            # trust the float verdict only when it is clean; the exact side
            # is authoritative on the rest
            if res.status in (0, 2):
                assert exact == approx, (cols, x)
                agreements += 1
        assert agreements > 20

    def test_witnesses_reconstruct_target(self):
        rng = random.Random(13)
        for _ in range(30):
            k = rng.randint(2, 4)
            cols = [tuple(rng.randint(0, 4) for _ in range(k)) for _ in range(6)]
            lam = [rng.randint(0, 2) for _ in cols]
            x = tuple(sum(c[i] * l for c, l in zip(cols, lam)) for i in range(k))
            w = simplex_standard(cols, x)
            assert w is not None
            recon = [sum(cols[j][i] * v for j, v in w.items()) for i in range(k)]
            assert recon == list(x)
            assert all(v >= 0 for v in w.values())

    def test_optimum_agreement(self):
        # feasibility on rational data with negative targets and one
        # equation repeated as a scaled copy: HiGHS status 0 (optimal) must
        # mean a witness that rebuilds x exactly, status 2 (infeasible) None
        rng = random.Random(17)
        seen = {"feasible": 0, "infeasible": 0}
        for _ in range(120):
            k = rng.randint(2, 4)
            m = rng.randint(3, 7)
            cols = [
                [Fraction(rng.randint(-2, 4), rng.randint(1, 3)) for _ in range(k)]
                for _ in range(m)
            ]
            if rng.random() < 0.7:
                lam = [Fraction(rng.randint(0, 3), rng.randint(1, 2)) for _ in range(m)]
                x = [sum(c[i] * l for c, l in zip(cols, lam)) for i in range(k)]
            else:
                x = [Fraction(rng.randint(-3, 6), rng.randint(1, 2)) for _ in range(k)]
            row, f = rng.randrange(k), Fraction(rng.choice([-3, 1, 2]), rng.randint(1, 3))
            cols = [c + [f * c[row]] for c in cols]
            x = x + [f * x[row]]
            exact = simplex_standard(cols, x)
            res = linprog(
                c=[0.0] * m,
                A_eq=np.array([[float(c[i]) for c in cols] for i in range(k + 1)]),
                b_eq=np.array([float(e) for e in x]),
                bounds=[(0, None)] * m,
                method="highs",
            )
            if res.status not in (0, 2):
                continue
            expected = "feasible" if res.status == 0 else "infeasible"
            assert (exact is not None) == (expected == "feasible"), (cols, x)
            seen[expected] += 1
            if exact is not None:
                recon = [sum(cols[j][i] * v for j, v in exact.items()) for i in range(k + 1)]
                assert recon == x and all(v > 0 for v in exact.values()), (cols, x, exact)
        assert min(seen.values()) > 0 and seen["feasible"] > 30, seen
