"""Exact polyhedral computations in small dimension.

Double description over the integers drives everything: V-to-H (convex hull
by dualization) and H-to-V (vertices and the rays of the recession cone, by
homogenization, from one run).  Rays and facet normals are kept as primitive
integer vectors; vertices as rational tuples.  Inequalities are a.x >= b and
are scaled only by positive rationals, so orientation is preserved;
equations e.x = f are sign-normalized to a positive leading entry.

Before a hull, a midpoint sieve drops every input point p with 2p = a + b
for two other input points a != b.  Such a p is interior to the segment
from a to b, so it is never extreme in conv(points) + cone(rays).  The
points kept include every vertex and span the same affine hull, so the
facets and the equations come out the same, in the same canonical order.
Double description inserts one dual inequality per generator; for the
three-state model the sieve leaves just the vertices (45 of 123 distinct
columns at T = 9, 54 of 5,328 at T = 36).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm, prod
from operator import mul
from typing import Sequence

from .exactla import independent_rows, nullspace_int, primitive, rref
from .words import CapExceededError

IntVec = tuple[int, ...]
FracVec = tuple[Fraction, ...]

# candidate ray pairs one double description may test: model_hull(6, 4) needs 55.0M
DD_PAIR_CAP = 60_000_000


class InfeasibleSystemError(ValueError):
    """The inequality/equation system has no solution."""


def canonical_inequality(
    normal: Sequence[int | Fraction], rhs: int | Fraction
) -> tuple[IntVec, int | Fraction]:
    """Scale (normal, rhs) by a positive rational to primitive integer form."""
    joint = primitive(tuple(normal) + (rhs,))
    if not any(joint[:-1]):
        raise ValueError("zero normal vector")
    return joint[:-1], joint[-1]


def canonical_equation(
    normal: Sequence[int | Fraction], rhs: int | Fraction
) -> tuple[IntVec, int | Fraction]:
    vec, off = canonical_inequality(normal, rhs)
    lead = next(e for e in vec if e)
    if lead < 0:
        vec = tuple(-e for e in vec)
        off = -off
    return vec, off


@dataclass(frozen=True)
class HPolyhedron:
    """Intersection of half-spaces a.x >= b plus equations e.x = f."""

    dim: int
    inequalities: tuple[tuple[IntVec, int], ...]
    equations: tuple[tuple[IntVec, int], ...] = ()

    @classmethod
    def make(cls, dim, inequalities, equations=()) -> "HPolyhedron":
        ineqs = sorted(set(canonical_inequality(a, b) for a, b in inequalities))
        eqs = sorted(set(canonical_equation(e, f) for e, f in equations))
        return cls(dim, tuple(ineqs), tuple(eqs))

    def to_json(self) -> str:
        return json.dumps(
            {
                "equations": [
                    {"normal": [str(e) for e in n], "offset": str(f)}
                    for n, f in self.equations
                ],
                "inequalities": [
                    {"normal": [str(e) for e in n], "offset": str(b)}
                    for n, b in self.inequalities
                ],
            }
        )


def in_dilation(H: HPolyhedron, x: Sequence[int | Fraction], n: int) -> bool:
    """True iff x lies in nH: a.x >= n*b for every inequality and e.x = n*f
    for every equation, in exact arithmetic."""

    def dot(normal: IntVec) -> int | Fraction:
        return sum(a * v for a, v in zip(normal, x))

    return all(dot(a) >= n * b for a, b in H.inequalities) and all(
        dot(e) == n * f for e, f in H.equations
    )


@dataclass(frozen=True)
class VPolyhedron:
    """Convex hull of vertices plus nonnegative span of rays."""

    dim: int
    vertices: tuple[FracVec, ...]
    rays: tuple[IntVec, ...]


# ---------------------------------------------------------------------------
# Double description core


def dd_pointed_cone(ineqs: list[IntVec], dim: int) -> list[tuple[IntVec, int]]:
    """Extreme rays of the pointed cone {x : a.x >= 0 for a in ineqs}.

    Raises ValueError unless rank(ineqs) == dim (pointedness).  Returns (ray,
    tight_mask) pairs where bit j of tight_mask marks a.x = 0 for ineqs[j].
    The inequalities are inserted in their given order; a positive and a
    negative ray combine when they share dim - 2 tight inequalities and no
    third ray is tight on all of them (the combinatorial adjacency test).
    """
    base_idx = independent_rows(ineqs)
    if len(base_idx) < dim:
        raise ValueError("cone is not pointed (it contains a line)")
    # rays of the simplicial base cone: columns of base^{-1}, read off the
    # reduced row echelon form [I | base^{-1}] of [base | I]; rref's row i is
    # that row times its pivot p_i, so L // p_i (L the lcm of the |p_i|)
    # scales column j to L times column j of base^{-1}
    unit = [tuple(int(i == j) for j in range(dim)) for i in range(dim)]
    inverse, _ = rref([ineqs[i] + e for i, e in zip(base_idx, unit)])
    L = lcm(*(row[i] for i, row in enumerate(inverse)))
    scales = [L // row[i] for i, row in enumerate(inverse)]
    base_mask = sum(1 << i for i in base_idx)
    rays = [
        (
            primitive([row[dim + j] * s for row, s in zip(inverse, scales)]),
            base_mask & ~(1 << i),
        )
        for j, i in enumerate(base_idx)
    ]
    base_set = set(base_idx)
    pairs = 0
    for t, a in enumerate(ineqs):
        if t in base_set:
            continue
        bit = 1 << t
        pos, zero, neg = [], [], []
        for r, m in rays:
            v = sum(map(mul, a, r))
            if v > 0:
                pos.append((r, m, v))
            elif v < 0:
                neg.append((r, m, v))
            else:
                zero.append((r, m | bit))
        if neg:
            pairs += len(pos) * len(neg)
            if pairs > DD_PAIR_CAP:
                raise CapExceededError(f"{pairs} candidate ray pairs exceeds cap {DD_PAIR_CAP}")
            masks = [m for _, m in rays]
            for rp, mp, vp in pos:
                for rn, mn, vn in neg:
                    common = mp & mn
                    if common.bit_count() < dim - 2:
                        continue
                    for m in masks:
                        if m & common == common and m != mp and m != mn:
                            break
                    else:
                        combo = [vp * bn - vn * bp for bp, bn in zip(rp, rn)]
                        g = gcd(*combo)
                        zero.append((tuple(c // g for c in combo), common | bit))
        rays = [(r, m) for r, m, _ in pos] + zero
    return sorted(rays)


def cone_extreme_rays(
    ineqs: Sequence[Sequence[int | Fraction]],
    eqs: Sequence[Sequence[int | Fraction]] = (),
) -> list[IntVec]:
    """Extreme rays of {x : a.x >= 0, e.x = 0}; raises if the cone has lines."""
    ineqs = [primitive(a) if any(a) else tuple(int(e) for e in a) for a in ineqs]
    ineqs = [a for a in ineqs if any(a)]
    dim = len(eqs[0]) if eqs else (len(ineqs[0]) if ineqs else 0)
    if eqs:
        basis = nullspace_int(eqs)  # columns of the solution space
        if not basis:
            return []
        reduced = [
            tuple(sum(a[i] * bv[i] for i in range(dim)) for bv in basis)
            for a in ineqs
        ]
        sub = cone_extreme_rays(reduced)
        out = []
        for u in sub:
            ray = tuple(
                sum(u[j] * basis[j][i] for j in range(len(basis))) for i in range(dim)
            )
            out.append(primitive(ray))
        return sorted(out)
    if not ineqs:
        if dim:
            raise ValueError("cone is all of space (has lines)")
        return []
    return [r for r, _ in dd_pointed_cone(ineqs, len(ineqs[0]))]


# ---------------------------------------------------------------------------
# Hull and vertex enumeration


def _drop_midpoints(points: list[tuple]) -> list[tuple]:
    """The distinct, lexicographically sorted points less every p with
    2p = a + b for two other points a != b (module docstring), in order.

    The points are scaled by their common denominator to integers, and a
    vector is one integer key in mixed radix 3w_i + 1, w_i the spread of
    coordinate i.  Coordinate i of 2p - a and of every point lies in one
    window of 3w_i + 1 integers, so 2k_p - k_a, the key of 2p - a, is the
    key of a point b only if 2p - a = b.  Of a pair with a + b = 2p, one of
    a and b comes before p, so p is tested against the points before it,
    nearest first, and the test stops at the first pair.
    """
    den = lcm(*(c.denominator for p in points for c in p))
    scaled = [[int(c * den) for c in p] for p in points]
    radix = [3 * (max(col) - min(col)) + 1 for col in zip(*scaled)]
    weights = [prod(radix[i + 1 :]) for i in range(len(radix))]
    keys = [sum(map(mul, weights, x)) for x in scaled]
    present = set(keys)
    return [
        p
        for i, (p, k) in enumerate(zip(points, keys))
        if present.isdisjoint(map((2 * k).__sub__, reversed(keys[:i])))
    ]


def affine_equations(
    gens: Sequence[IntVec],
) -> tuple[list[IntVec], list[tuple[IntVec, int]]]:
    """The affine hull of homogenized generators (1, p) and (0, r): the
    kernel of the generator matrix G, a primitive integer basis, and each
    kernel vector y read as the equation y[1:].x = -y[0].

    The kernel is taken of the Gram matrix G^T G, one row and column per
    coordinate, in exact integers, so the elimination does not grow with
    the number of generators.  G^T G y = 0 gives |G y|^2 = 0, so the two
    kernels are equal; the row spaces are then equal too, and a row space
    has one reduced row echelon form, from which `nullspace_int` reads the
    same basis."""
    columns = list(zip(*gens))
    basis = nullspace_int([[sum(map(mul, a, b)) for b in columns] for a in columns])
    return basis, [(y[1:], -y[0]) for y in basis]


def convex_hull(
    points: Sequence[Sequence[int | Fraction]],
    rays: Sequence[Sequence[int | Fraction]] = (),
) -> HPolyhedron:
    """Facet inequalities plus affine-hull equations of conv(points) + cone(rays)."""
    if not points:
        raise ValueError("need at least one point")
    dim = len(points[0])
    uniq_rays = sorted(set(primitive(r) for r in rays))
    # homogenized generators (1, p) and (0, r), scaled to integers row-wise;
    # a midpoint of two other points is never extreme
    kept = _drop_midpoints(sorted(set(map(tuple, points))))
    gens = [primitive((1, *p)) for p in kept]
    gens += [(0,) + r for r in uniq_rays]
    # the pointed part of the dual cone {y : g.y >= 0} lives in the
    # orthogonal complement of the equations' kernel
    eq_basis, equations = affine_equations(gens)
    # a lone point has no facets: its one dual ray is the point itself
    duals = cone_extreme_rays(gens, eq_basis) if len(gens) > 1 else []
    # y = (1, 0, ..., 0) is the homogenization artifact x0 >= 0, trivial on P
    inequalities = [(y[1:], -y[0]) for y in duals if any(y[1:])]
    return HPolyhedron.make(dim, inequalities, equations)


def vertex_enumeration(H: HPolyhedron) -> VPolyhedron:
    """All vertices and extreme rays of an H-polyhedron (double description)."""
    hom_ineqs: list[tuple[int, ...]] = []
    for normal, rhs in H.inequalities:
        hom_ineqs.append((-rhs,) + tuple(normal))
    hom_ineqs.append((1,) + (0,) * H.dim)  # homogenizing coordinate >= 0
    hom_eqs = [(-rhs,) + tuple(normal) for normal, rhs in H.equations]
    rays = cone_extreme_rays(hom_ineqs, hom_eqs)
    vertices: list[FracVec] = []
    rec_rays: list[IntVec] = []
    for r in rays:
        if r[0] > 0:
            vertices.append(tuple(Fraction(c, r[0]) for c in r[1:]))
        elif r[0] == 0:
            rec_rays.append(primitive(r[1:]))
        else:  # pragma: no cover - excluded by the x0 >= 0 inequality
            raise AssertionError("negative homogenizing coordinate")
    if not vertices:
        raise InfeasibleSystemError("polyhedron is empty")
    return VPolyhedron(H.dim, tuple(sorted(vertices)), tuple(sorted(rec_rays)))
