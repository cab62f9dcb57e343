import hashlib
import json
import random
from fractions import Fraction
from itertools import combinations, product

import pytest

import thmc.polytope
from oracles import contains, in_convex_hull, membership, recession_rays
from thmc.design import column_table, get_design
from thmc.facets import LOOP_RAYS, model_hull, q_polyhedron, q_vertices
from thmc.exactla import nullspace_int
from thmc.polytope import (
    HPolyhedron,
    InfeasibleSystemError,
    VPolyhedron,
    _drop_midpoints,
    affine_equations,
    canonical_equation,
    canonical_inequality,
    cone_extreme_rays,
    convex_hull,
    vertex_enumeration,
)


class TestCanonical:
    def test_inequality_scaling_keeps_orientation(self):
        assert canonical_inequality((2, 4), 6) == ((1, 2), 3)
        assert canonical_inequality((-2, 4), 6) == ((-1, 2), 3)
        assert canonical_inequality((Fraction(1, 2), 0), 1) == ((1, 0), 2)

    def test_equation_sign_normalized(self):
        assert canonical_equation((-2, 4), 6) == ((1, -2), -3)


class TestConeRays:
    def test_orthant(self):
        rays = cone_extreme_rays([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
        assert sorted(rays) == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]

    def test_halfline(self):
        assert cone_extreme_rays([(1,)]) == [(1,)]

    def test_line_detected(self):
        with pytest.raises(ValueError):
            cone_extreme_rays([(1, 0)])  # free second coordinate
        with pytest.raises(ValueError):
            # the line x1 = x2 = t, x0 = 0 survives the equation
            cone_extreme_rays([(1, 0, 0)], eqs=[(0, 1, -1)])

    def test_planar_cone(self):
        # {x >= 0, x + y >= 0}: boundary rays (0,1) and (1,-1)
        rays = cone_extreme_rays([(1, 0), (1, 1)])
        assert sorted(rays) == [(0, 1), (1, -1)]

    def test_with_equation(self):
        # {x >= 0} intersect {x1 = x2} in 3-d
        rays = cone_extreme_rays(
            [(1, 0, 0), (0, 1, 0), (0, 0, 1)], eqs=[(1, -1, 0)]
        )
        assert sorted(rays) == [(0, 0, 1), (1, 1, 0)]


class TestHull:
    def test_unit_simplex_in_plane(self):
        pts = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
        H = convex_hull(pts)
        assert len(H.inequalities) == 3
        assert len(H.equations) == 1
        assert H.equations[0] == ((1, 1, 1), 1)
        for p in pts:
            assert contains(H, p)
        assert contains(H, (Fraction(1, 3), Fraction(1, 3), Fraction(1, 3)))
        assert not contains(H, (1, 1, -1))

    def test_square(self):
        pts = [(0, 0), (1, 0), (0, 1), (1, 1), (Fraction(1, 2), Fraction(1, 2))]
        H = convex_hull(pts)
        assert len(H.inequalities) == 4
        assert not H.equations

    def test_single_point(self):
        H = convex_hull([(3, 4)])
        assert not H.inequalities
        assert len(H.equations) == 2
        assert contains(H, (3, 4)) and not contains(H, (3, 5))

    def test_facets_tight_on_dim_many_points(self):
        rng = random.Random(6)
        pts = [tuple(rng.randint(0, 4) for _ in range(3)) for _ in range(30)]
        H = convex_hull(pts)
        d = 3 - len(H.equations)
        from thmc.exactla import mat_rank

        for normal, rhs in H.inequalities:
            tight = [
                p for p in set(pts) if sum(a * c for a, c in zip(normal, p)) == rhs
            ]
            # affine rank: translate by first tight point
            base = tight[0]
            diffs = [[a - b for a, b in zip(p, base)] for p in tight[1:]]
            assert mat_rank(diffs) == d - 1


class TestVertexEnumeration:
    def test_cube(self):
        ineqs = []
        for i in range(3):
            e = [0, 0, 0]
            e[i] = 1
            ineqs.append((tuple(e), 0))  # x_i >= 0
            e2 = [0, 0, 0]
            e2[i] = -1
            ineqs.append((tuple(e2), -1))  # x_i <= 1
        H = HPolyhedron.make(3, ineqs)
        V = vertex_enumeration(H)
        assert len(V.vertices) == 8
        assert not V.rays
        assert set(V.vertices) == set(
            tuple(map(Fraction, p)) for p in product((0, 1), repeat=3)
        )

    def test_halfline(self):
        H = HPolyhedron.make(1, [((1,), 0)])
        V = vertex_enumeration(H)
        assert V.vertices == ((Fraction(0),),)
        assert V.rays == ((1,),)

    def test_infeasible(self):
        H = HPolyhedron.make(1, [((1,), 1), ((-1,), 0)])
        with pytest.raises(InfeasibleSystemError):
            vertex_enumeration(H)

    # the rays of a vertex enumeration against the oracle's separate
    # double description of the recession cone
    def test_recession_of_bounded_is_empty(self):
        H = convex_hull([(0, 0), (1, 0), (0, 1)])
        assert vertex_enumeration(H).rays == ()
        assert recession_rays(H) == []

    def test_recession_halfline(self):
        H = HPolyhedron.make(1, [((1,), 0)])
        assert vertex_enumeration(H).rays == ((1,),)
        assert recession_rays(H) == [(1,)]


class TestRoundtrip:
    @pytest.mark.parametrize("seed", range(6))
    def test_hull_then_vertices_recovers_extremes(self, seed):
        rng = random.Random(seed)
        dim = rng.randint(2, 4)
        pts = [tuple(rng.randint(-3, 3) for _ in range(dim)) for _ in range(12)]
        H = convex_hull(pts)
        V = vertex_enumeration(H)
        assert not V.rays
        # every recovered vertex is an input point; every input point is a
        # convex combination of recovered vertices
        vset = set(V.vertices)
        pset = set(tuple(map(Fraction, p)) for p in pts)
        assert vset <= pset
        for p in pset:
            assert membership(p, V)
        # extremality: no vertex is in the hull of the others
        for v in vset:
            others = VPolyhedron(
                dim, tuple(u for u in V.vertices if u != v), ()
            )
            if others.vertices:
                assert not membership(v, others)

    def test_design_polytope_roundtrip_small_T(self):
        for T in (3, 4, 5, 6):
            A = get_design(3, T)
            pts = A.distinct_columns()
            H = convex_hull(pts)
            V = vertex_enumeration(H)
            assert not V.rays
            vset = set(V.vertices)
            assert vset <= set(tuple(map(Fraction, p)) for p in pts)
            for p in pts:
                assert contains(H, p)

    def test_membership_agrees_with_H(self):
        rng = random.Random(3)
        pts = [tuple(rng.randint(0, 3) for _ in range(3)) for _ in range(10)]
        H = convex_hull(pts)
        V = vertex_enumeration(H)
        for _ in range(40):
            q = tuple(Fraction(rng.randint(0, 6), 2) for _ in range(3))
            assert contains(H, q) == membership(q, V)


class TestSerialization:
    def test_json(self):
        import json

        H = convex_hull([(0, 0), (1, 0), (0, 1)])
        doc = json.loads(H.to_json())
        assert len(doc["inequalities"]) == 3


class TestRayMembership:
    def test_vertex_minus_ray_exits(self):
        # walking backwards along a ray from a vertex leaves the polyhedron
        from thmc.facets import q_polyhedron, q_vertices

        V = q_vertices(1)
        H = q_polyhedron(1)
        origin = tuple([Fraction(0)] * 6)
        assert origin in V.vertices
        ray = V.rays[0]
        outside = tuple(o - r for o, r in zip(origin, ray))
        assert not membership(outside, V)
        assert not contains(H, outside)
        inside = tuple(o + r for o, r in zip(origin, ray))
        assert membership(inside, V) and contains(H, inside)


def _column_sets():
    """The hull inputs of the model: the distinct columns at S = 3 (with
    their k-prefixes, lower-dimensional point sets), S = 2 and S = 4."""
    sets = {}
    for T in range(3, 13):
        for k in (1, 2, 3, 4, 6):
            sets[f"S3-T{T}-k{k}"] = sorted({c[:k] for c in column_table(3, T)})
    for T in range(3, 9):
        sets[f"S2-T{T}"] = sorted(column_table(2, T))
    for T in range(3, 6):
        sets[f"S4-T{T}"] = sorted(column_table(4, T))
    return [pytest.param(name, points, id=name) for name, points in sets.items()]


class TestMidpointSieve:
    @pytest.mark.parametrize("name, points", _column_sets())
    def test_drops_only_midpoints_and_keeps_every_vertex(self, name, points):
        kept = _drop_midpoints(points)
        dropped = sorted(set(points) - set(kept))
        assert kept == [p for p in points if p not in dropped]
        # each dropped point is the midpoint of two other points, found by a
        # plain pair scan in Python integers
        present = set(points)
        for p in dropped:
            assert any(
                tuple(2 * c - d for c, d in zip(p, a)) in present
                for a in points
                if a != p
            ), p
        if name.startswith("S4") and name != "S4-T3":
            # vertex enumeration of these 11-polytopes ran past ten minutes
            # at T = 4: decide each dropped point by an LP over the others
            for p in dropped:
                assert in_convex_hull([a for a in points if a != p], p) is not None
        else:
            V = vertex_enumeration(convex_hull(points))
            assert set(V.vertices) <= {tuple(map(Fraction, p)) for p in kept}

    @pytest.mark.parametrize(
        "T, survivors", [(6, 24), (7, 41), (8, 42), (9, 45), (12, 54), (24, 54), (36, 54)]
    )
    def test_three_state_survivors_are_the_vertices(self, T, survivors):
        assert len(_drop_midpoints(sorted(column_table(3, T)))) == survivors

    @pytest.mark.parametrize("r", range(6))
    def test_residue_polyhedron_from_rational_vertices_and_loops(self, r):
        V = q_vertices(r)
        assert convex_hull(V.vertices, rays=LOOP_RAYS.values()) == q_polyhedron(r)

    @pytest.mark.parametrize("seed", range(8))
    def test_added_midpoints_leave_the_hull_unchanged(self, seed, monkeypatch):
        rng = random.Random(seed)
        dim = rng.randint(2, 5)
        pts = [tuple(rng.randint(-4, 4) for _ in range(dim)) for _ in range(10)]
        # midpoints of random pairs, rational where the pair's sum is odd
        mids = [
            tuple(Fraction(a + b, 2) for a, b in zip(p, q))
            for p, q in rng.sample(list(combinations(pts, 2)), 15)
        ]
        rays = [tuple(rng.randint(0, 2) for _ in range(dim))] if seed % 2 else []
        H = convex_hull(pts, rays)
        assert convex_hull(pts + mids, rays).to_json() == H.to_json()
        # and with no sieve at all
        monkeypatch.setattr(thmc.polytope, "_drop_midpoints", lambda points: points)
        assert convex_hull(pts + mids, rays).to_json() == H.to_json()
        assert convex_hull(pts, rays) == H

    def test_keys_past_int64(self):
        pts = [(0, 5), (2**62, 5), (2**63, 5), (2**63, 2**70)]
        assert _drop_midpoints(pts) == [(0, 5), (2**63, 5), (2**63, 2**70)]


class TestAffineEquations:
    """The kernel of the Gram matrix G^T G is the kernel of the generator
    matrix G, basis vector for basis vector."""

    @staticmethod
    def _same_as_the_generator_kernel(gens):
        basis, equations = affine_equations(gens)
        assert basis == nullspace_int(gens)
        assert equations == [(y[1:], -y[0]) for y in basis]

    @pytest.mark.parametrize(
        "S,T",
        [(2, T) for T in range(3, 10)] + [(3, T) for T in range(3, 19)]
        + [(4, T) for T in range(3, 6)],
    )
    def test_column_tables(self, S, T):
        self._same_as_the_generator_kernel([(1, *x) for x in column_table(S, T)])

    @pytest.mark.parametrize("seed", range(12))
    def test_points_rays_and_duplicates(self, seed):
        rng = random.Random(seed)
        dim = rng.randint(1, 6)
        # a few points on a random affine subspace, so that equations remain
        spans = [[rng.randint(-3, 3) for _ in range(dim)] for _ in range(rng.randint(1, dim))]
        base = [rng.randint(-5, 5) for _ in range(dim)]
        points = [
            (1, *(b + sum(rng.randint(-2, 2) * s[i] for s in spans) for i, b in enumerate(base)))
            for _ in range(rng.randint(1, 8))
        ]
        rays = [(0, *[rng.randint(0, 2) for _ in range(dim)]) for _ in range(rng.randint(0, 2))]
        gens = points + rays
        gens += rng.choices(gens, k=3)
        rng.shuffle(gens)
        self._same_as_the_generator_kernel(gens)

    def test_gram_entries_past_int64(self):
        # entries near 2^40 square to about 2^80 in G^T G; the points and the
        # ray keep x3 = x1 + x2
        big = 2**40 + 3
        gens = [(1, big, 0, big), (1, 0, big, big), (1, big, big, 2 * big), (0, 1, 1, 2)]
        assert max(sum(g[i] * g[i] for g in gens) for i in range(4)) > 2**63
        self._same_as_the_generator_kernel(gens)
        self._same_as_the_generator_kernel(gens[:2] * 3)


def _digest(chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk.encode() + b"\n")
    return h.hexdigest()


class TestHullRegression:
    """sha256 digests of the model's hulls, computed before the midpoint sieve
    and the double-description rewrite: both must leave every byte as it was."""

    def test_model_hulls(self):
        digest = _digest(model_hull(T, 3).to_json() for T in range(3, 26))
        assert digest == "e1b3efc6a201d09c573c0d4961cd169ff5f6a0c657559841d2b231c8db745f5f"

    def test_residue_vertices(self):
        digest = _digest(
            json.dumps([[[str(c) for c in v] for v in V.vertices], V.rays])
            for V in map(q_vertices, range(6))
        )
        assert digest == "1e9115fc38f338120b64b93f4169b2395cb4451886a6586303000381454b7d77"
