"""Exact rational and integer linear algebra.

Everything here is arbitrary precision: rationals are `fractions.Fraction`,
matrices are plain lists of rows.  No floating point.  One Gaussian
elimination, `rref`, answers every question about rank, kernels, independent
rows and inverses; it scales rows to integers, eliminates fraction-free and
returns integer rows, each a multiple of its reduced row, so it makes no
rationals at all.  Integer lattices keep their Hermite normal form.  The one
linear program is cone membership, a feasibility question answered by
`simplex_standard`, phase 1 of a fraction-free integer tableau simplex.  The
library certifies cone membership by words instead; the simplex serves the
test oracles and the benchmark harness.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Optional, Sequence

Vec = Sequence[int | Fraction]


def _integer_row(row: Iterable[int | Fraction]) -> list[int]:
    """row scaled by the lcm of its denominators; a row of ints as it is."""
    row = list(row)
    if all(type(e) is int for e in row):
        return row
    den = lcm(*(e.denominator for e in row))
    if den == 1:
        return [int(e) for e in row]
    return [int(e.numerator) * (den // int(e.denominator)) for e in row]


def rref(M: Iterable[Vec]) -> tuple[list[list[int]], list[int]]:
    """Nonzero rows of the reduced row echelon form of M, each an integer
    multiple of its reduced row, and their pivot columns, by fraction-free
    Gauss-Jordan elimination.

    Each row is scaled to integers by the lcm of its denominators, which does
    not change the reduced form.  Eliminating a column sets every other row to
    p*row - f*pivot_row, p the pivot and f the row's entry, and divides the
    result by the gcd of its entries.  Every value is an integer: row i is
    its reduced row times its pivot row_i[pivots[i]], which need not be 1.
    """
    rows = [_integer_row(row) for row in M]
    pivots: list[int] = []
    for col in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        if r == len(rows):
            break
        piv = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        prow = rows[r]
        p = prow[col]
        for i, row in enumerate(rows):
            f = row[col]
            if f and i != r:
                new = [p * a - f * b for a, b in zip(row, prow)]
                g = gcd(*new)
                rows[i] = [a // g for a in new] if g > 1 else new
        pivots.append(col)
    return rows[: len(pivots)], pivots


def mat_rank(M: Iterable[Vec]) -> int:
    """Exact rank over the rationals."""
    return len(rref(M)[1])


def primitive(v: Sequence[int | Fraction]) -> tuple[int, ...]:
    """Scale v by a positive rational to a primitive integer vector."""
    ints = _integer_row(v)
    g = gcd(*ints)
    return tuple(e // g for e in ints) if g > 1 else tuple(ints)


def nullspace_int(M: Iterable[Vec]) -> list[tuple[int, ...]]:
    """Integer primitive basis of the right kernel {x : M x = 0}: one vector
    per non-pivot column fc of the reduced row echelon form, with x_fc = 1
    and x_pc = -(reduced row's entry at fc) at each pivot column pc.

    That vector is scaled by L, the lcm of the |pivots| of `rref`'s integer
    rows, so entry pc is -row[fc] * (L // pivot); a positive scale leaves
    the primitive vector unchanged.
    """
    M = list(M)
    if not M:
        return []
    rows, pivots = rref(M)
    heads = [row[c] for row, c in zip(rows, pivots)]
    L = lcm(*heads)
    basis = []
    for fc in range(len(M[0])):
        if fc in pivots:
            continue
        v = [0] * len(M[0])
        v[fc] = L
        for row, pc, p in zip(rows, pivots, heads):
            v[pc] = -row[fc] * (L // p)
        basis.append(primitive(v))
    return basis


def independent_rows(M: Sequence[Vec]) -> list[int]:
    """Indices of the greedy maximal linearly independent subset of rows: row
    i is kept when it is outside the span of rows 0..i-1, that is, when column
    i of the transpose is a pivot column."""
    return rref(zip(*M))[1]


class IntegerLattice:
    """Lattice spanned by integer vectors, with exact membership tests.

    `rows` is the lattice's Hermite normal form: pivot columns increase, each
    pivot is positive and every entry above it lies in [0, pivot).  The form
    is unique, so it does not depend on the order of the `add` calls.
    """

    def __init__(self, dim: int):
        self.dim = dim
        self.rows: list[list[int]] = []

    def add(self, vec: Sequence[int]) -> None:
        """Unless vec is a member, rerun the normal form on the rows and vec:
        column by column, Euclid on the rows that reach the column leaves one
        pivot row, made positive, and the entries above it go into [0, pivot)."""
        v = list(map(int, vec))
        if len(v) != self.dim:
            raise ValueError("dimension mismatch")
        if v in self:
            return
        rest, self.rows = [v] + self.rows, []
        for col in range(self.dim):
            reach = [r for r in rest if r[col]]
            while len(reach) > 1:
                piv = min(reach, key=lambda r: abs(r[col]))
                rest = [_reduce(r, piv, col) if r[col] and r is not piv else r for r in rest]
                reach = [r for r in rest if r[col]]
            if reach:
                piv = reach[0] if reach[0][col] > 0 else [-a for a in reach[0]]
                self.rows = [_reduce(r, piv, col) for r in self.rows] + [piv]
                rest = [r for r in rest if not r[col] and any(r)]

    def __contains__(self, vec: Sequence[int]) -> bool:
        v = list(map(int, vec))
        for row in self.rows:
            p = next(c for c, e in enumerate(row) if e)
            v = _reduce(v, row, p)
            if v[p]:
                return False
        return not any(v)


def _reduce(r: list[int], piv: list[int], col: int) -> list[int]:
    """r less q * piv for q = r[col] // piv[col], leaving r[col] between 0 and piv[col]."""
    q = r[col] // piv[col]
    return [a - q * b for a, b in zip(r, piv)]


# ---------------------------------------------------------------------------
# Exact simplex


def simplex_standard(
    columns: Sequence[Sequence[int | Fraction]], b: Vec
) -> Optional[dict[int, Fraction]]:
    """Witness {j: x_j > 0} of sum_j x_j columns[j] = b, x >= 0, else None (exact).

    Phase 1 of a tableau simplex with fraction-free integer pivoting
    (Bareiss): every entry is held as D times its rational value, D the last
    pivot, so a pivot sets each other row to (a*p - f*b) // D, which divides
    exactly.  Each row has one implicit artificial, numbered -k..-1 so that
    they leave first; Bland's rule minimises their sum (the lowest-index
    improving column enters, and among tied rows the lowest basic variable
    leaves).  The system is feasible exactly when that sum reaches zero, and
    the real basic variables are then the witness.  Pivots are positive, so
    D stays positive, and the sum is bounded below, so a ratio row exists.
    """
    m = len(columns)
    rows = []
    for i, bi in enumerate(b):
        sign = -1 if bi < 0 else 1
        rows.append(_integer_row([sign * col[i] for col in columns] + [sign * bi]))
    basis = list(range(-len(rows), 0))
    D = 1
    # reduced-cost row of the artificial sum (times D), last entry minus its value
    obj = [-sum(row[j] for row in rows) for j in range(m + 1)]
    while True:
        c = next((j for j in range(m) if obj[j] < 0), None)
        if c is None:
            break
        r = min(
            (Fraction(row[m], row[c]), basis[i], i) for i, row in enumerate(rows) if row[c] > 0
        )[2]
        prow, p = rows[r], rows[r][c]
        for i, row in enumerate(rows):
            if i != r:
                f = row[c]
                rows[i] = [(a * p - f * e) // D for a, e in zip(row, prow)]
        f = obj[c]
        obj = [(a * p - f * e) // D for a, e in zip(obj, prow)]
        basis[r] = c
        D = p
    if obj[m]:
        return None
    return {v: Fraction(row[m], D) for v, row in zip(basis, rows) if v >= 0 and row[m]}
