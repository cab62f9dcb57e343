"""Brute-force oracles for the tests: an H-form and a V-form polyhedron
check, convex-hull membership by LP, a recession cone by its own double
description, a recursive composition generator, and the exact test on
sorted tables, each changed table scored in full.

The library tests H-membership with `polytope.in_dilation` and never asks
whether a point lies in the hull of given vertices and rays; the V-form and
hull checks here put the cone LP (`exactla.simplex_standard`) behind both
questions, so the tests can compare the two descriptions with each other
and with the design matrix's columns.  The library reads a recession cone
off the homogenized vertex enumeration (`VPolyhedron.rays`);
`recession_rays` runs a second double description on the cone
{x : a.x >= 0, e.x = 0} alone.  The library lists the lattice points of
nP coordinate by coordinate from bounds read off the hull's rows, and its
four-state probe scans compositions by stars and bars; the tests compare
both against the plain recursion below, the points after filtering every
composition by the hull.  The library's fiber walk and exact test step a count vector and
update the statistic from each accepted move; `tuple_walk` and
`rescored_test` apply each move to the sorted table with `Move.apply` and
score every changed kept table in full.  The library eliminates
fraction-free and reads ranks, kernels and inverses off integer rows;
`fraction_rref` and `fraction_nullspace` are the textbook Gauss-Jordan
over `Fraction`s, each pivot scaled to 1 before it eliminates.  The
library's loop peeling compares each facet slack of Q^r with an integer
multiple of the loop's rate on it; `max_loop_coefficients` computes the
exact largest loop coefficients as `Fraction` ratios, so the tests can
check the integer rule against them and against a floating LP.  The
library builds one move per support-disjoint pair of tables of a fiber;
`all_pair_moves` builds a move from every pair of every fiber and drops the
repeats through a set.  The library reads each weak component's edges and
positive imbalance off one union-find scan of a count vector's support;
`bfs_component_budgets` finds the components by breadth-first search over
the support and counts each edge at its tail.
"""

import math
import random
from array import array
from collections import Counter, defaultdict
from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from typing import Iterator, Optional, Sequence

from thmc.design import DesignMatrix
from thmc.facets import LOOP_RAYS, q_polyhedron
from thmc.exactla import simplex_standard
from thmc.markov import Move, marginal_of
from thmc.mcmc import TestResult, WalkConfig, _FittedModel, as_table
from thmc.polytope import HPolyhedron, VPolyhedron, cone_extreme_rays


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


def recession_rays(H: HPolyhedron) -> list[tuple[int, ...]]:
    """Extreme rays of the recession cone {x : a.x >= 0, e.x = 0} of H."""
    ineqs = [normal for normal, _ in H.inequalities]
    eqs = [normal for normal, _ in H.equations]
    return cone_extreme_rays(ineqs, eqs)


def in_convex_hull(
    columns: Sequence[Sequence[int]], x: Sequence[int | Fraction]
) -> Optional[dict[int, Fraction]]:
    """Witness of x in conv(columns) (convex combination), else None."""
    return simplex_standard([tuple(col) + (1,) for col in columns], tuple(x) + (1,))


def fraction_rref(
    M: Sequence[Sequence[int | Fraction]],
) -> tuple[list[list[Fraction]], list[int]]:
    """Nonzero rows of the reduced row echelon form of M and their pivot
    columns, by Gauss-Jordan elimination in Fractions."""
    rows = [[Fraction(e) for e in row] for row in M]
    pivots: list[int] = []
    for col in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        piv = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        rows[r] = [e / rows[r][col] for e in rows[r]]
        for i, row in enumerate(rows):
            if i != r and row[col]:
                rows[i] = [a - row[col] * b for a, b in zip(row, rows[r])]
        pivots.append(col)
    return rows[: len(pivots)], pivots


def fraction_nullspace(
    M: Sequence[Sequence[int | Fraction]],
) -> list[tuple[Fraction, ...]]:
    """Basis of the right kernel of M: one vector per non-pivot column fc of
    the reduced form, 1 at fc and minus the reduced rows' entries at fc on
    the pivot columns."""
    if not M:
        return []
    rows, pivots = fraction_rref(M)
    basis = []
    for fc in range(len(M[0])):
        if fc in pivots:
            continue
        v = [Fraction(0)] * len(M[0])
        v[fc] = Fraction(1)
        for row, pc in zip(rows, pivots):
            v[pc] = -row[fc]
        basis.append(tuple(v))
    return basis


def compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """All nonnegative integer vectors of given length summing to total,
    in lexicographic order."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in compositions(total - head, parts - 1):
            yield (head,) + tail


def bfs_component_budgets(x: Sequence[int], S: int) -> list[tuple[int, int]]:
    """(edges, positive imbalance) of each weak component of G(x) that has
    an edge, the components found by breadth-first search in order of
    their least state."""
    pairs = [(i, j) for i in range(1, S + 1) for j in range(1, S + 1) if i != j]
    support = [(i, j, c) for (i, j), c in zip(pairs, x) if c]
    out = []
    seen: set[int] = set()
    for start in sorted({i for i, _, _ in support} | {j for _, j, _ in support}):
        if start in seen:
            continue
        comp, queue = {start}, [start]
        for v in queue:
            for i, j, _ in support:
                for a, b in ((i, j), (j, i)):
                    if a == v and b not in comp:
                        comp.add(b)
                        queue.append(b)
        seen |= comp
        edges = sum(c for i, _, c in support if i in comp)
        delta = {v: 0 for v in comp}
        for i, j, c in support:
            if i in comp:
                delta[i] += c
                delta[j] -= c
        out.append((edges, sum(d for d in delta.values() if d > 0)))
    return out


def max_loop_coefficients(x: Sequence[int], n: int, r: int) -> tuple[Fraction, ...]:
    """For each loop of LOOP_RAYS, in order, its largest coefficient over
    decompositions x = n*(point of conv of the residue-polytope vertices) +
    sum alpha_i e_i.

    The recession cone of Q^r is the cone of the five loops, so Q^r is that
    vertex hull plus the cone (Minkowski-Weyl), and x - alpha*e stays in n*Q^r
    exactly while alpha is at most every ratio (c.x - n*a) / c.e over the
    facets c.y >= a of Q^r with c.e > 0.  Q^r has no equations, so the
    slacks c.x - n*a, computed once, also decide that x is in n*Q^r.
    """
    dot = lambda u, v: sum(a * b for a, b in zip(u, v))
    ineqs = q_polyhedron(r).inequalities
    slacks = [dot(c, x) - n * a for c, a in ineqs]
    if min(slacks) < 0:
        raise ValueError("point is outside the dilated residue polyhedron")
    return tuple(
        min(Fraction(s, dot(c, e)) for s, (c, _) in zip(slacks, ineqs) if dot(c, e) > 0)
        for e in LOOP_RAYS.values()
    )


def all_pair_moves(A: DesignMatrix, max_degree: int) -> list[Move]:
    """The difference of every pair of tables of every fiber of degree <=
    max_degree, common words cancelled, up to sign; collected in a set and
    sorted as `enumerate_moves` sorts."""
    found: set[Move] = set()
    for d in range(1, max_degree + 1):
        fibers: dict[tuple[int, ...], list[tuple[int, ...]]] = defaultdict(list)
        for ms in combinations_with_replacement(range(len(A.columns)), d):
            fibers[marginal_of(A, ms)].append(ms)
        for members in fibers.values():
            for u, v in combinations(members, 2):
                found.add(Move.from_multisets(u, v))
    return sorted(found, key=lambda z: (z.degree, z.entries))


def tuple_walk(
    u0, moves: Sequence[Move], cfg: WalkConfig, A: DesignMatrix
) -> Iterator[tuple[int, ...]]:
    """The fiber walk on sorted word-index tuples: one Move.apply per
    proposal, the current table again (same object) on a rejection."""
    if not moves:
        raise ValueError("need a nonempty move set")
    table = as_table(u0, A)
    rng = random.Random(cfg.seed)
    signed = [*moves, *(z.negated() for z in moves)]
    for _ in range(cfg.steps):
        nxt = signed[rng.randrange(len(signed))].apply(table)
        if nxt is not None:
            table = nxt
        yield table


def _score(model: _FittedModel, table: tuple[int, ...], statistic: str):
    """Pearson (a Fraction) or G2 (a float) of table, in full."""
    if statistic == "pearson":
        stat = model.N * (model.total_mass - 2)
        for j, u_j in Counter(table).items():
            e = model.expected(j)
            if e == 0:
                raise AssertionError("observed word with zero fitted mass")
            stat += u_j * u_j / e
        return stat
    total = 0.0
    for j, u_j in Counter(table).items():
        total += 2.0 * u_j * math.log(u_j / float(model.expected(j)))
    return total


def rescored_test(
    u_obs, A: DesignMatrix, moves: Sequence[Move], cfg: WalkConfig, statistic: str
) -> TestResult:
    """The exact test over tuple_walk's kept tables, each one that differs
    from the kept table before it scored in full."""
    table = as_table(u_obs, A)
    model = _FittedModel(table, A)
    observed = _score(model, table, statistic)
    values = array("d")
    n_ge = 0
    prev, val = table, observed
    for step, state in enumerate(tuple_walk(table, moves, cfg, A)):
        if step < cfg.burn_in or (step - cfg.burn_in) % cfg.thinning:
            continue
        if state != prev:
            prev, val = state, _score(model, state, statistic)
        n_ge += val >= observed
        values.append(float(val))
    n = len(values)
    p = (1 + n_ge) / (1 + n)
    return TestResult(
        statistic=statistic,
        observed=float(observed),
        observed_exact=str(observed) if isinstance(observed, Fraction) else None,
        p_value=p,
        std_error=math.sqrt(p * (1 - p) / n),
        samples=n,
        sample_min=min(values),
        sample_max=max(values),
        sample_mean=sum(values) / n,
        values=values,
    )
