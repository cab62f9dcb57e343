"""Integral closure of the transition-count semigroup, with word witnesses.

A saturation point at degree n is a point of ZA ∩ cone(A) with coordinate
sum n(T-1).  Every column sums to T-1, and changing a word's last state
(..ab -> ..ad) or first state (ba.. -> da..) puts e_ab - e_ad and
e_ba - e_da in ZA; for S >= 3 these differences link all pairs, so ZA is
{x in Z^d : (T-1) | sum(x)}.  For S = 2 the same holds at even T, and at odd
T the polytope is one point of ZA.  The saturation points of degree n are
therefore the integer points of nP, P the model polytope.  The integer
points of a polyhedron's dilations d = 1..n are listed in one walk, one
coordinate at a time in int64 arrays, with the degree d as each prefix's
leading coordinate; the range of x_k over each prefix is read off the
polyhedron's own rows, homogenized in d: the tail after x_k is nonnegative
with a known sum, so each row bounds x_k by its largest tail coefficient
times that sum.  At the last free coordinate the tail is one coordinate and
the bound is the row itself, so no vector outside is returned, and the
points are re-checked against the rows.
The degree-n part of the semigroup is the n-fold sumset S_n of the columns,
so the semigroup is normal at degree n exactly when S_n is all of
nP ∩ Z^d; `check_normality` compares the two by counting int64 keys, and
degrees up to dim P - 1 decide every degree.  At S = 3 it lists nQ, Q the
paper's 24 facet rows on the columns' affine hull, instead of nP, at every
T, and needs no double description unless a point of nQ is missed: every
column is looked up among Q's degree-1 points, so P ⊆ Q is checked; when
every point of nQ is reached, nQ ∩ Z^d = S_n ⊆ nP, and a point missed is
decided against the double-description hull of P.  Each key sum finds its
point through an open-addressing hash table over the points' keys (Knuth,
TAOCP Vol. 3, Sec. 6.4).  The hash only picks where a probe starts; a probe
stops at an equal full key, or raises AssertionError at an empty slot, so a
sum is matched to its point exactly and a sum outside the listed points
never passes.
For long chains a loop-peeling induction reduces T by 6 per step before the
exhaustive trail search takes over.  Every witness is re-checked exactly:
one read off the sumset by its one link, in int64 blocks of points (the
point less its column's recounted counts is its parent, whose witness
passed one degree down), and one glued by the induction on its own
(`words.check_split`).
The four-state probe scans one stream of candidates, compositions in
stars-and-bars order at degree 1 and then on pairs of disjoint 2-cycles at
degree 2, and stops at the first point x of the cone that splits into no
words.  The trail search's component budget filters the candidates, and
the same search certifies both halves: no split of x into words, and a
split of k*x for some k, which puts x in the cone.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import chain, combinations
from operator import mul
from typing import Iterator, Optional, Sequence

import numpy as np

from .design import column_table
from .facets import LOOP_RAYS, model_hull, q_polyhedron
from .polytope import HPolyhedron, affine_equations, in_dilation
from .words import (
    CapExceededError,
    Word,
    check_split,
    component_budgets,
    decompose_into_paths,
    degree_imbalances,
    pair_index,
    state_graph,
    transition_counts,
)

DEFAULT_POINT_CAP = 2_000_000


def _rows(H: HPolyhedron) -> list[tuple[tuple[int, ...], int]]:
    """H's rows as a.x >= b: its inequalities, then each equation e.x = f
    read as e.x >= f and -e.x >= -f."""
    return [
        *H.inequalities,
        *H.equations,
        *((tuple(-e for e in normal), -rhs) for normal, rhs in H.equations),
    ]


def _int64_rows(rows, width: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows a.x >= b as a read-only int64 normal matrix and offset vector."""
    normals = np.array([a for a, _ in rows], dtype=np.int64).reshape(-1, width)
    offsets = np.array([b for _, b in rows], dtype=np.int64)
    normals.flags.writeable = offsets.flags.writeable = False
    return normals, offsets


def _prefix_bounds(hull: HPolyhedron, T: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """For k = 1..dim-1, the rows a'.(y, t) >= n*b' that bound t = x_k over
    the prefix y = x_{<k} of a point x of nP, P = hull, as an int64 normal
    matrix with k columns and an offset vector; every row's last entry, the
    coefficient of t, is nonzero.

    Each comes from one row a.x >= b of P, or from x_dim >= 0.  The tail
    x_{>k} is nonnegative and sums to r = n(T-1) - sum(y) - t, so
    a.x <= a_{<=k}.(y, t) + r*M, M the largest entry of a_{>k}, and
    a.x >= n*b gives a' = a_{<=k} - M and b' = b - M(T-1).  From x_dim >= 0
    this reads t <= n(T-1) - sum(y).  At k = dim-1 the tail is x_dim alone
    and r*M = a_dim*x_dim, so the rows are P's own with x_dim = n(T-1) -
    sum(y, t) substituted: the last level is exact.  A row whose t
    coefficient is 0 is the same row as at level k-1, which the prefix
    already passed (down to 0 >= n*b' at k = 1, true since P is not empty),
    so it is dropped.
    """
    dim = hull.dim
    normals, offsets = _int64_rows([*_rows(hull), ((0,) * (dim - 1) + (1,), 0)], dim)
    levels = []
    for k in range(1, dim):
        top = normals[:, k:].max(axis=1)
        keep = normals[:, k - 1] != top
        top = top[keep]
        rows = np.column_stack(
            (normals[keep, :k] - top[:, None], offsets[keep] - top * (T - 1))
        )
        # divided by the gcd of all its entries, each row keeps its points
        rows //= np.gcd.reduce(rows, axis=1)[:, None]
        levels.append((rows[:, :-1], rows[:, -1]))
    return levels


def saturation_points(T: int, n: int, hull: HPolyhedron) -> np.ndarray:
    """All nonnegative integer points of d*hull with coordinate sum d(T-1),
    for every degree d = 1..n, as the rows of one int64 array: degree-major,
    and each degree's rows in lexicographic order.  A row's degree is its
    coordinate sum over T-1.

    With hull = `model_hull(T, S)` these are the members of ZA ∩ cone(A) of
    degree d <= n, since ZA holds every integer vector of that sum (module
    docstring); `check_normality` may pass a polyhedron Q ⊇ P instead.  One
    walk lists every degree: the degree is the prefix's leading coordinate,
    so each level row a'.(y, t) >= d*b' of `_prefix_bounds` is read as
    (-b', a').(d, y, t) >= 0, and the walk starts from the n prefixes (1),
    ..., (n).  The points grow one coordinate at a time: each prefix (d, y)
    takes every integer t = x_k in [0, n(T-1)] that passes the level's rows,
    read off as exact integer ceilings and floors, and the sum d(T-1) fixes
    the last coordinate.  Each row bounds the nonnegative tail after x_k by
    its largest coefficient times the tail's sum, so no point of d*hull is
    lost; at the last free coordinate the tail is one coordinate, the bound
    is the row itself, and the points are exactly those of d*hull.  The
    ranges come from one int64 product of a block of prefixes with the
    level's rows, the blocks sized so that no temporary holds more than
    about 2^15 entries, and each level is filled one column at a time into
    one array.  Every point x of degree d is re-checked against the hull's
    inequalities and equations in int64, one product per block of a
    degree's rows with the normals set against d times the offsets, so a
    wrong bound raises AssertionError and never returns a point outside
    d*hull.
    The cap `DEFAULT_POINT_CAP`, read at each call, bounds the prefixes of
    every level, counted over all degrees d <= n, so it bounds the points:
    a level that would exceed it raises CapExceededError before it is built.
    A degree whose row products could overflow int64 raises CapExceededError
    before any product.
    """
    if n < 1:
        raise ValueError("degree must be >= 1")
    levels = _prefix_bounds(hull, T)
    total = n * (T - 1)
    dim = hull.dim
    normals, offsets = _int64_rows(_rows(hull), dim)
    largest = max(
        int(np.abs(M).max(initial=0)) for M in (normals, offsets, *chain(*levels))
    )
    # every coordinate lies in [0, total] and d <= n <= total, so
    # |a.y| <= largest * total and |d * b| <= largest * total at every level
    # and in the final check, and each difference is at most twice that:
    # every int64 entry below is exact.  The level rows, P's entries shifted
    # by at most P's largest times T-1 <= total, stayed exact under the same
    # bound.
    if largest * total * dim >= 2**62:
        raise CapExceededError(
            f"facet product bound {largest}*{total}*{dim} exceeds cap 2^62 of int64"
        )
    # the prefixes (d, y), stored with the degree in the last column; the
    # last level puts x_dim = d(T-1) - sum(y, t) there instead
    X = np.arange(1, n + 1, dtype=np.int64)[:, None]
    for k, (A, b) in enumerate(levels, 1):
        # (y, d) @ (-a'_y, b') is d*b' - a'_y.y, the rest that a'_t * t must
        # reach; t starts in [0, total], and one product per block of
        # prefixes with no more than about 2^15 entries reads off its range
        G = np.column_stack((-A[:, :-1], b))
        up, down = A[:, -1] > 0, A[:, -1] < 0
        lo = np.empty(len(X), dtype=np.int64)
        hi = np.empty(len(X), dtype=np.int64)
        step = max(1, 2**15 // len(A))
        for s in range(0, len(X), step):
            rest = X[s : s + step] @ G.T
            lo[s : s + step] = (-(-rest[:, up] // A[up, -1])).max(axis=1, initial=0)
            hi[s : s + step] = (rest[:, down] // A[down, -1]).min(axis=1, initial=total)
        width = np.maximum(hi - lo + 1, 0)
        rows = int(width.sum())
        if rows > DEFAULT_POINT_CAP:
            raise CapExceededError(
                f"{rows} prefixes of length {k} within the bounds of dP, d <= {n}: "
                f"a level that exceeds cap {DEFAULT_POINT_CAP}"
            )
        # each prefix repeated once per value of its range, the values
        # ascending, one column at a time
        Y = np.empty((rows, k + 1), dtype=np.int64)
        for j in range(k - 1):
            Y[:, j] = np.repeat(X[:, j], width)
        t = Y[:, k - 1]
        t[:] = np.arange(rows)
        t -= np.repeat(np.cumsum(width) - width - lo, width)
        if k < dim - 1:
            Y[:, k] = np.repeat(X[:, -1], width)
        else:
            # each degree's row count, for the re-check below
            counts = np.zeros(n + 1, dtype=np.int64)
            np.add.at(counts, X[:, -1], width)
            Y[:, k] = np.repeat(X[:, -1] * (T - 1) - X[:, :-1].sum(axis=1), width)
            Y[:, k] -= t
        X = Y
    step = max(1, 2**15 // len(normals))
    end = 0
    for d, count in enumerate(counts.tolist()):
        start, end = end, end + count
        for s in range(start, end, step):
            if (X[s : min(s + step, end)] @ normals.T < d * offsets).any():
                raise AssertionError(f"the bounds of {d}P let a point outside {d}P through")
    return X


# the odd integer nearest 2^64 / golden ratio, Knuth's multiplier for
# multiplicative hashing (TAOCP Vol. 3, Sec. 6.4), as a wrapping int64
_HASH_MULTIPLIER = np.int64(0x9E3779B97F4A7C15 - 2**64)


def _home_slots(keys: np.ndarray, bits: int) -> np.ndarray:
    """Each key's home slot in a table of 2^bits: the top bits of the key
    times _HASH_MULTIPLIER, wrapped mod 2^64 (the shift copies the sign
    bit, which the mask clears)."""
    slots = keys * _HASH_MULTIPLIER
    slots >>= 64 - bits
    slots &= 2**bits - 1
    return slots


def _point_index(point_keys: np.ndarray) -> tuple[np.ndarray, int]:
    """An open-addressing table over distinct int64 keys, and its bits b:
    2^b int32 slots, b the bit length of 4*len(point_keys), so at most a
    quarter are full, each holding a key's index or -1 when empty (int32 suffices:
    2^31 points would take over 100 GB of int64 rows).  A key sits at
    the first free slot from its home slot on (linear probing).  Each round
    puts every waiting key into its slot if the slot is free, one key per
    slot; the others move one slot on.  A slot once filled stays full, so
    every slot from a key's home to its own is full."""
    bits = (4 * len(point_keys)).bit_length()
    mask = 2**bits - 1
    table = np.full(mask + 1, -1, dtype=np.int32)
    waiting = np.arange(len(point_keys), dtype=np.int32)
    slots = _home_slots(point_keys, bits)
    while len(waiting):
        free = table[slots] < 0
        table[slots[free]] = waiting[free]
        left = table[slots] != waiting
        waiting, slots = waiting[left], (slots[left] + 1) & mask
    return table, bits


def _point_indices(
    block: np.ndarray, point_keys: np.ndarray, table: np.ndarray, bits: int
) -> np.ndarray:
    """Each key of block's index in point_keys, read off `_point_index`'s
    table.  The probe from a key's home slot compares the full key at each
    full slot, so an index is returned only for an equal key, and a key
    that reaches an empty slot is no point: AssertionError.  The keys still
    probing after k steps recompute their home slots, so no slot array is
    kept beside the indices."""
    mask = 2**bits - 1
    at = table[_home_slots(block, bits)]
    left = np.flatnonzero(point_keys[at] != block)
    step = 0
    while len(left):
        if (at[left] < 0).any():
            raise AssertionError("a sum of columns lies outside nP")
        step += 1
        at[left] = table[(_home_slots(block[left], bits) + step) & mask]
        left = left[point_keys[at[left]] != block[left]]
    return at


def check_normality(
    T: int,
    n_max: int,
    S: int = 3,
    keep_witnesses: bool = False,
) -> dict:
    """Compare the semigroup's degree-n part, the n-fold sumset S_n of the
    columns, with the saturation points nP ∩ Z^dim, for every n <= n_max.

    The failures are the points of nP missing from S_n, in point order.
    The points are listed over a polyhedron Q: at S = 3, for every T, the
    24 affine facet rows of `q_polyhedron(T % 6)` with the equations of the
    columns' affine hull (`affine_equations`), which also give dim P; at
    every other S, Q is `model_hull(T, S)`.  The facet theorem is not
    assumed.  Degree 1 looks up every column among Q's points, so a column
    outside Q raises, and P, the hull of the columns, lies in Q.  Then
    S_n ⊆ nP ⊆ nQ: when every point of nQ is reached, its points are S_n
    and those of nP.  A point of nQ that no sum reaches is decided against
    `model_hull(T, S)`, the one double description left at S = 3, built
    only then; a point outside nP is neither checked nor a failure.  So the
    points, the verdict and the witnesses are those of nP.  A
    vector is one int64 key in base n_max(T-1)+1: no coordinate reaches the
    base, so the key of a sum is the sum of the keys and key order is point
    order.  One `saturation_points` walk lists dQ for every d <= n_max,
    degree-major and each degree in that order; each degree reads its own
    slice, its bounds counted off the rows' sums.  Every key sum of S_{n-1}
    and a column must lie in nQ.  A hash table over the degree's point keys
    (`_point_index`, linear probing, at most a quarter full) maps each sum
    to its point: a probe compares the full key at every slot it visits, so
    only an equal key is matched, and a sum that reaches an empty slot is
    no point's key and raises AssertionError.  Each point keeps the least
    flat index i*C + c of a sum that reaches it, i a key of S_{n-1} and c
    one of the C columns: its parent and its column.  S_n is the points
    reached, already sorted, and the least index is the first occurrence,
    so the parents are those of a sorted unique of the sums.
    A point's witness is its column's word on its parent's witness.
    `column_table` gives each column its least word without listing words;
    each is recounted once, its transition counts and its length.  Every
    link is checked in int64, a block of the degree's points at a time: the
    point less its column's counts must be its parent, a point of S_{n-1}
    kept from the degree below, and the word must have length T.  The
    parent's witness passed the same check one degree down, down to the
    empty witness of the zero point, so by induction every witness is n
    words of length T whose counts sum to the point, one subtraction per
    point.  A wrong word or a sum sent to the wrong point raises
    AssertionError naming the point, never a pass.  The witnesses' column
    lists, and the word lists, are built only when keep_witnesses asks for
    them.

    With d = dim P, every lattice point of (c+1)P is one of cP plus one of P
    once c >= d-1 (Bruns, Gubeladze & Trung 1997, J. reine angew. Math. 485,
    Thm 1.3.3), so n_max >= max(1, d-1) decides every degree and the report
    says `exact`; otherwise it covers n <= n_max only, and n_max < 1 raises
    ValueError rather than pass with nothing checked.  Keys that would
    overflow int64 raise CapExceededError before any hull work, and every
    degree's points are listed before any sumset, so the point cap
    `DEFAULT_POINT_CAP`, counted over all degrees <= n_max, trips before
    the costly work.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    dim = S * (S - 1)
    base = n_max * (T - 1) + 1
    if base**dim >= 2**63:
        raise CapExceededError(
            f"key range {base}^{dim} exceeds cap 2^63 of the int64 normality keys"
        )
    table = column_table(S, T)
    _, equations = affine_equations([(1, *x) for x in table])
    d = dim - len(equations)
    enough = max(1, d - 1)
    # at S = 3 the paper's 24 facet rows, checked by degree 1's lookups, not
    # assumed
    if S == 3:
        Q = HPolyhedron.make(dim, q_polyhedron(T % 6).inequalities, equations)
    else:
        Q = model_hull(T, S)
    # every degree in one listing, degree-major; a row's degree is its sum
    # over T-1, so each degree's rows are one slice
    points = saturation_points(T, n_max, Q)
    ends = np.cumsum(np.bincount(points.sum(axis=1) // (T - 1), minlength=n_max + 1))
    weights = base ** np.arange(dim - 1, -1, -1, dtype=np.int64)
    # the distinct columns' keys, in column order (so ascending), and each
    # one's least word, recounted once: its transition counts and its length
    col_keys = np.array(list(table), dtype=np.int64).reshape(-1, dim) @ weights
    col_words = [word for _, word in table.values()]
    col_counts = np.array(
        [transition_counts(w, S) for w in col_words], dtype=np.int64
    ).reshape(-1, dim)
    col_wrong_length = np.array([len(w) != T for w in col_words])
    # S_{n-1}'s sorted keys, and its points, the rows `reached` of `below`
    # (S_0 is the zero point); with keep_witnesses, the column indices of
    # each one's witness
    keys = np.zeros(1, dtype=np.int64)
    below, reached = np.zeros((1, dim), dtype=np.int64), np.zeros(1, dtype=np.int64)
    picks = np.zeros((1, 0), dtype=np.int64)
    failures = []
    witnesses = {}
    points_checked = sums = 0
    C = len(col_keys)
    for n in range(1, n_max + 1):
        X = points[ends[n - 1] : ends[n]]
        points_checked += len(X)
        point_keys = X @ weights
        # each point's least flat index i*C + c over the key sums of S_{n-1}'s
        # i-th key and column c, 2^15 sums at a time; no sum has an index of
        # len(keys) * C, which marks the points that no sum reaches
        unreached = len(keys) * C
        first = np.full(len(X), unreached, dtype=np.int64)
        table, bits = _point_index(point_keys)
        step = max(1, 2**15 // C)
        for r in range(0, len(keys), step):
            block = (keys[r : r + step, None] + col_keys).ravel()
            at = _point_indices(block, point_keys, table, bits)
            np.minimum.at(first, at, np.arange(r * C, r * C + len(block)))
        sums += len(keys) * C
        hit = first != unreached
        parent, column = np.divmod(first[hit], C)
        # every link, about 2^15 entries at a time: the point less its
        # column's recounted counts is its parent, a point of S_{n-1} whose
        # witness passed one degree down, and the column's word has length
        # T; so every witness is n words of length T summing to its point
        rows = np.flatnonzero(hit)
        step = max(1, 2**15 // dim)
        for s in range(0, len(rows), step):
            links = slice(s, s + step)
            less = X[rows[links]] - col_counts[column[links]]
            bad = (less != below[reached[parent[links]]]).any(axis=1)
            bad |= col_wrong_length[column[links]]
            if bad.any():
                i = s + int(np.argmax(bad))
                raise AssertionError(
                    f"word {col_words[column[i]].text} on the witness of "
                    f"{below[reached[parent[i]]].tolist()} does not split {X[rows[i]].tolist()}"
                )
        holes = X[~hit].tolist()
        if holes:
            # Q may hold points outside nP; only those inside are holes
            hull = model_hull(T, S)
            inside = [x for x in holes if in_dilation(hull, x, n)]
            points_checked -= len(holes) - len(inside)
            holes = inside
        failures += [{"x": x, "n": n} for x in holes]
        if keep_witnesses:
            picks = np.column_stack((column, picks[parent]))
            witnesses.update(
                (tuple(x), [col_words[c] for c in row])
                for x, row in zip(X[hit].tolist(), picks.tolist())
            )
        keys, below, reached = point_keys[hit], X, rows
    report = {
        "S": S,
        "T": T,
        "n_max": n_max,
        "polytope_dim": d,
        "exact": n_max >= enough,
        "scope": (
            f"dim P = {d}, so n <= {enough} decides every degree "
            "(Bruns-Gubeladze-Trung 1997, Thm 1.3.3)"
            if n_max >= enough
            else f"degrees n <= {n_max} only; n <= {enough} would decide every degree"
        ),
        "points_checked": points_checked,
        "sums": sums,
        "failures": failures,
        "ok": not failures,
    }
    if keep_witnesses:
        report["witnesses"] = witnesses
    return report


# ---------------------------------------------------------------------------
# Inductive witness construction

# at or below this length the direct search splits a point without peeling
BASE_T = 12


@lru_cache(maxsize=8)
def _loop_rates(r: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """For each loop of LOOP_RAYS, in order, the pairs (facet index, c.e)
    over the facets c.y >= a of Q^r with c.e > 0."""
    normals = [c for c, _ in q_polyhedron(r).inequalities]
    return tuple(
        tuple((i, rate) for i, c in enumerate(normals) if (rate := sum(map(mul, c, e))) > 0)
        for e in LOOP_RAYS.values()
    )


def _peel(x: Sequence[int], n: int, r: int) -> Optional[tuple]:
    """The first loop of LOOP_RAYS, as (ray, cycle, copies), whose largest
    coefficient over decompositions x = n*q + sum alpha_j e_j, q in the
    vertex hull of Q^r, exceeds copies = 6/k*n for its k-cycle; None if no
    loop's does.

    The recession cone of Q^r is the cone of the five loops, so Q^r is that
    vertex hull plus the cone (Minkowski-Weyl), and x - alpha*e stays in n*Q^r
    exactly while alpha is at most every ratio s_i / c_i.e, s_i = c_i.x - n*a_i,
    over the facets c_i.y >= a_i of Q^r with c_i.e > 0 (Q^r is pointed, so
    there is one).  Each rate c_i.e is positive, so the least ratio exceeds
    copies exactly when s_i > copies * c_i.e on each: an integer test.  Q^r
    has no equations, so the slacks also decide that x is in n*Q^r.
    """
    slacks = [sum(map(mul, c, x)) - n * a for c, a in q_polyhedron(r).inequalities]
    if min(slacks) < 0:
        raise ValueError("point is outside the dilated residue polyhedron")
    for (loop, ray), rates in zip(LOOP_RAYS.items(), _loop_rates(r)):
        # the peeling cycle is the loop word without its closing state
        cycle = tuple(map(int, loop[:-1]))
        copies = 6 // len(cycle) * n
        if all(slacks[i] > copies * rate for i, rate in rates):
            return ray, cycle, copies
    return None


def _glue(w: Word, cycle: tuple[int, ...]) -> Word:
    """w with six steps around the state cycle glued on: appended when w ends
    on the cycle, else prepended.  The counts grow by 6/len(cycle) copies of
    the cycle's loop ray.

    A word whose endpoints both avoid a two-loop starts and ends on the third
    state, so it is a closed trail; it is first rotated to start on the loop.
    """
    seq = list(w)
    k = len(cycle)
    if seq[-1] in cycle:
        at = cycle.index(seq[-1])
        return Word(seq + [cycle[(at + s) % k] for s in range(1, 7)])
    if seq[0] not in cycle:
        if seq[0] != seq[-1]:
            raise ValueError("two distinct endpoints cannot both avoid the loop")
        seq = seq[1:] + seq[1:2]
    at = cycle.index(seq[0])
    return Word([cycle[(at - s) % k] for s in range(6, 0, -1)] + seq)


def witness_by_induction(x: Sequence[int], T: int) -> list[Word]:
    """Split x into words of length T by loop peeling plus direct search.

    While T exceeds BASE_T, take the first loop whose largest coefficient in
    a Minkowski decomposition exceeds 6/k*n for its k-cycle (two-loops 3n,
    three-loops 2n), decided in integers off the facets of the residue
    polyhedron (`_peel`), strip that many copies, recurse at T-6, and glue
    six steps around the cycle onto each witness word.  The result passes
    check_split: a wrong word count, length or count vector raises
    AssertionError.  x must have the six counts of three states.
    """
    x = tuple(int(c) for c in x)
    if T < 2 or len(x) != 6:
        raise ValueError(f"need T >= 2 and six counts, got T={T} and {len(x)} counts")
    total = sum(x)
    if total % (T - 1):
        raise ValueError("coordinate sum not a multiple of T-1")
    n = total // (T - 1)
    if n == 0:
        return []
    peel = _peel(x, n, T % 6) if T > BASE_T else None
    if peel is None:
        out = decompose_into_paths(x, n, T)
        if out is None:
            raise ValueError(f"decomposition not found for {x} at T={T}")
    else:
        ray, cycle, copies = peel
        reduced = tuple(c - copies * f for c, f in zip(x, ray))
        if any(c < 0 for c in reduced):
            raise ValueError("loop peeling produced a negative count")
        out = [_glue(w, cycle) for w in witness_by_induction(reduced, T - 6)]
    check_split(out, x, n, T, 3)
    return out


# ---------------------------------------------------------------------------
# Four-state probe


def _compositions(total: int, parts: int) -> Iterator[list[int]]:
    """All nonnegative integer vectors of length parts summing to total, in
    lexicographic order.

    Stars and bars: the sorted bar positions c_1 < ... < c_{parts-1} among
    total + parts - 1 slots give the parts as the gaps between bars, and
    combinations() lists them in the order that makes the parts ascend
    lexicographically.
    """
    end = total + parts - 1
    for bars in combinations(range(end), parts - 1):
        yield [b - a - 1 for a, b in zip((-1, *bars), (*bars, end))]


def s4_nonnormality_probe() -> dict:
    """Evaluate the quoted four-state half-sum at T = 8 and search for a
    genuine point of ZA ∩ cone(A) outside the semigroup.

    Every integer vector of coordinate sum n(T-1) lies in ZA (module
    docstring), so a candidate needs only the cone and the word search.
    One bounded, deterministic stream yields the candidates, each with its
    scan key: every degree-1 vector, then every degree-2 vector supported
    on two disjoint 2-cycles (the natural disconnection family), each in
    `_compositions` order.  A candidate x of degree n is a witness when it
    fits the budget of `component_budgets`, splits into no n words, and k*x
    splits into k*n words for some k in 2..T-1, re-checked by
    `check_split`; that split writes x/n as the mean of k*n columns, so x
    is in the cone.  The scan counts every candidate under its key and
    stops at the first witness; either it or the exhausted stream is
    reported.
    """
    S, T = 4, 8
    idx = pair_index(S)
    w1, w2 = (Word(([a, b] * T)[:T]) for a, b in ((1, 2), (3, 4)))
    # the doubled combination is integral; it splits into the two words
    doubled = state_graph([w1, w2], S)
    half_sum = [Fraction(c, 2) for c in doubled]
    report: dict = {
        "S": S,
        "T": T,
        "half_sum": [str(c) for c in half_sum],
        "half_sum_integral": all(c.denominator == 1 for c in half_sum),
        "doubled_in_semigroup": decompose_into_paths(doubled, 2, T) is not None,
    }

    def candidates() -> Iterator[tuple[str, tuple[int, ...], int]]:
        for x in _compositions(T - 1, len(idx)):
            yield "degree1", tuple(x), 1
        for (a, b), (c, d) in (((1, 2), (3, 4)), ((1, 3), (2, 4)), ((1, 4), (2, 3))):
            slots = (idx[a, b], idx[b, a], idx[c, d], idx[d, c])
            for comp in _compositions(2 * (T - 1), 4):
                x = [0] * len(idx)
                for s, v in zip(slots, comp):
                    x[s] = v
                yield "degree2_two_cycle_pairs", tuple(x), 2

    def in_cone_not_semigroup(x: tuple[int, ...], n: int) -> bool:
        # every cone member is a nonnegative word-column mix, so each weak
        # component keeps its word budget; the edges sum to n(T-1), so the
        # budget also bounds every |imbalance| by n
        delta = degree_imbalances(x)
        if any(
            positive * (T - 1) > edges for edges, positive in component_budgets(x, delta)
        ):
            return False
        if decompose_into_paths(x, n, T) is not None:
            return False
        for k in range(2, T):
            kx = tuple(k * c for c in x)
            split = decompose_into_paths(kx, k * n, T)
            if split is not None:
                check_split(split, kx, k * n, T, S)
                return True
        return False

    scanned = {"degree1": 0, "degree2_two_cycle_pairs": 0}
    witness = None
    for key, x, n in candidates():
        scanned[key] += 1
        if in_cone_not_semigroup(x, n):
            witness = dict(x=list(x), n=n, in_lattice=True, in_cone=True, in_semigroup=False)
            break
    report["scanned"] = scanned
    report["witness"] = witness
    report["witness_found"] = witness is not None
    return report
