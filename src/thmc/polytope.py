"""Exact polyhedral computations in small dimension.

Double description over the integers drives everything: V-to-H (convex hull
by dualization) and H-to-V (vertices and the rays of the recession cone, by
homogenization, from one run).  Rays and facet normals are kept as primitive
integer vectors; vertices as rational tuples.  Inequalities are a.x >= b and
are scaled only by positive rationals, so orientation is preserved;
equations e.x = f are sign-normalized to a positive leading entry.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .exactla import independent_rows, nullspace_int, primitive, rref

IntVec = tuple[int, ...]
FracVec = tuple[Fraction, ...]


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


def _popcount(x: int) -> int:
    return bin(x).count("1")


def dd_pointed_cone(ineqs: list[IntVec], dim: int) -> list[tuple[IntVec, int]]:
    """Extreme rays of the pointed cone {x : a.x >= 0 for a in ineqs}.

    Raises ValueError unless rank(ineqs) == dim (pointedness).  Returns (ray,
    tight_mask) pairs where bit j of tight_mask marks a.x = 0 for ineqs[j].
    """
    base_idx = independent_rows(ineqs)
    if len(base_idx) < dim:
        raise ValueError("cone is not pointed (it contains a line)")
    # rays of the simplicial base cone: columns of base^{-1}, read off the
    # reduced row echelon form [I | base^{-1}] of [base | I]
    unit = [tuple(int(i == j) for j in range(dim)) for i in range(dim)]
    inverse, _ = rref([ineqs[i] + e for i, e in zip(base_idx, unit)])
    cols = [primitive([row[dim + j] for row in inverse]) for j in range(dim)]
    base_set = set(base_idx)
    rays: list[tuple[IntVec, int]] = []
    for j, ray in enumerate(cols):
        mask = 0
        for pos, i in enumerate(base_idx):
            if pos != j:
                mask |= 1 << i
        rays.append((ray, mask))
    for t, a in enumerate(ineqs):
        if t in base_set:
            continue
        vals = [sum(ai * ri for ai, ri in zip(a, r)) for r, _ in rays]
        if all(v >= 0 for v in vals):
            rays = [
                (r, m | (1 << t) if v == 0 else m)
                for (r, m), v in zip(rays, vals)
            ]
            continue
        pos = [(r, m, v) for (r, m), v in zip(rays, vals) if v > 0]
        zero = [(r, m | (1 << t)) for (r, m), v in zip(rays, vals) if v == 0]
        neg = [(r, m, v) for (r, m), v in zip(rays, vals) if v < 0]
        masks = [m for _, m in rays]
        new: list[tuple[IntVec, int]] = []
        for rp, mp, vp in pos:
            for rn, mn, vn in neg:
                common = mp & mn
                if _popcount(common) < dim - 2:
                    continue
                if any(
                    (m & common) == common and m != mp and m != mn for m in masks
                ):
                    continue
                combo = primitive(
                    tuple(vp * bn - vn * bp for bp, bn in zip(rp, rn))
                )
                new.append((combo, common | (1 << t)))
        rays = [(r, m) for r, m, _ in pos] + zero + new
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


def convex_hull(
    points: Sequence[Sequence[int | Fraction]],
    rays: Sequence[Sequence[int | Fraction]] = (),
) -> HPolyhedron:
    """Facet inequalities plus affine-hull equations of conv(points) + cone(rays)."""
    if not points:
        raise ValueError("need at least one point")
    dim = len(points[0])
    uniq_rays = sorted(set(primitive(r) for r in rays))
    # homogenized generators (1, p) and (0, r), scaled to integers row-wise
    gens = [primitive((1, *p)) for p in sorted(set(map(tuple, points)))]
    gens += [(0,) + r for r in uniq_rays]
    # equations of the hull = kernel of the generator matrix; the pointed
    # part of the dual cone {y : g.y >= 0} lives in its orthogonal complement
    eq_basis = nullspace_int(gens)
    equations = [(y[1:], -y[0]) for y in eq_basis]
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
