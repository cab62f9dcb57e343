"""Brute-force oracles for the tests: an H-form and a V-form polyhedron
check, convex-hull membership by LP, and a recursive composition generator.

The library tests H-membership with `polytope.in_dilation` and never asks
whether a point lies in the hull of given vertices and rays; the V-form and
hull checks here put the cone LP (`exactla.simplex_standard`) behind both
questions, so the tests can compare the two descriptions with each other
and with the design matrix's columns.  The library enumerates compositions
in int64 blocks (stars and bars); the tests compare that against the plain
recursion below.
"""

from fractions import Fraction
from typing import Iterator, Optional, Sequence

from thmc.exactla import simplex_standard
from thmc.polytope import HPolyhedron, VPolyhedron


def contains(H: HPolyhedron, x: Sequence[int | Fraction]) -> bool:
    """True iff x satisfies every inequality and every equation of H."""
    xs = [Fraction(e) for e in x]
    return all(
        sum(a * v for a, v in zip(normal, xs)) >= rhs
        for normal, rhs in H.inequalities
    ) and all(
        sum(a * v for a, v in zip(normal, xs)) == rhs
        for normal, rhs in H.equations
    )


def membership(x: Sequence[int | Fraction], V: VPolyhedron) -> bool:
    """True iff x = convex combination of vertices + nonneg combination of rays."""
    cols: list[tuple[Fraction, ...]] = []
    for v in V.vertices:
        cols.append((Fraction(1),) + tuple(Fraction(c) for c in v))
    for r in V.rays:
        cols.append((Fraction(0),) + tuple(Fraction(c) for c in r))
    target = (Fraction(1),) + tuple(Fraction(c) for c in x)
    return simplex_standard(cols, target) is not None


def in_convex_hull(
    columns: Sequence[Sequence[int]], x: Sequence[int | Fraction]
) -> Optional[dict[int, Fraction]]:
    """Witness of x in conv(columns) (convex combination), else None."""
    return simplex_standard([tuple(col) + (1,) for col in columns], tuple(x) + (1,))


def compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """All nonnegative integer vectors of given length summing to total,
    in lexicographic order."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in compositions(total - head, parts - 1):
            yield (head,) + tail
