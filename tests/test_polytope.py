import random
from fractions import Fraction
from itertools import product

import pytest

from oracles import contains, membership, recession_rays
from thmc.design import get_design
from thmc.polytope import (
    HPolyhedron,
    InfeasibleSystemError,
    VPolyhedron,
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
