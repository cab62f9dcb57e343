"""Kernel moves of the design matrix, fibers, and Markov-basis machinery.

A move is an integer vector in the kernel of the design matrix with equal
positive and negative word mass; fibers are the sets of data tables sharing
a marginal.  Moves are enumerated degree by degree by grouping word
multisets with a common marginal; connectivity of every bounded-degree fiber
under a move set is the desk-scale Markov-basis check, and the bound is part
of every report because full verification is ideal generation in disguise.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, combinations_with_replacement
from math import comb
from typing import Iterable, Iterator, Optional, Sequence

from .design import DesignMatrix
from .words import CapExceededError, Word

DEFAULT_MULTISET_CAP = 2_000_000
MOVE_CAP = 2_000_000
DEFAULT_FIBER_CAP = 100_000


@dataclass(frozen=True)
class Move:
    """Sparse kernel vector: sorted (word index, coefficient) pairs."""

    entries: tuple[tuple[int, int], ...]

    @property
    def degree(self) -> int:
        return sum(c for _, c in self.entries if c > 0)

    @property
    def plus(self) -> tuple[int, ...]:
        out = []
        for j, c in self.entries:
            if c > 0:
                out.extend([j] * c)
        return tuple(out)

    @property
    def minus(self) -> tuple[int, ...]:
        out = []
        for j, c in self.entries:
            if c < 0:
                out.extend([j] * (-c))
        return tuple(out)

    def negated(self) -> "Move":
        return Move(tuple((j, -c) for j, c in self.entries))

    @classmethod
    def from_multisets(
        cls, plus: Sequence[int], minus: Sequence[int]
    ) -> Optional["Move"]:
        """Support-disjoint canonical move from two word-index multisets."""
        coeff = Counter(plus)
        coeff.subtract(Counter(minus))
        entries = tuple(sorted((j, c) for j, c in coeff.items() if c))
        if not entries:
            return None
        if entries[-1][1] < 0:  # sign: largest-index entry positive
            entries = tuple((j, -c) for j, c in entries)
        return cls(entries)

    def apply(self, table: tuple[int, ...]) -> Optional[tuple[int, ...]]:
        """table + move as sorted word-index multisets; None if it goes negative."""
        counts = Counter(table)
        for j, c in self.entries:
            counts[j] += c
            if counts[j] < 0:
                return None
        out = []
        for j in sorted(counts):
            out.extend([j] * counts[j])
        return tuple(out)


@dataclass(frozen=True)
class Fiber:
    marginal: tuple[int, ...]
    degree: int
    members: tuple[tuple[int, ...], ...]  # sorted word-index multisets


def marginal_of(A: DesignMatrix, multiset: Sequence[int]) -> tuple[int, ...]:
    """The sum of A's columns over a word-index multiset."""
    b = [0] * A.dim
    for j in multiset:
        for i, c in enumerate(A.columns[j]):
            b[i] += c
    return tuple(b)


def _multisets_by_marginal(
    A: DesignMatrix, degree: int, cap: int
) -> dict[tuple[int, ...], list[tuple[int, ...]]]:
    m = len(A.columns)
    count = comb(m + degree - 1, degree)
    if count > cap:
        raise CapExceededError(
            f"{count} multisets of degree {degree} over {m} words exceeds cap {cap}"
        )
    buckets: dict[tuple[int, ...], list[tuple[int, ...]]] = defaultdict(list)
    for ms in combinations_with_replacement(range(m), degree):
        buckets[marginal_of(A, ms)].append(ms)
    return buckets


def _fibers(
    A: DesignMatrix, max_degree: int, multiset_cap: int
) -> Iterator[tuple[int, tuple[int, ...], list[tuple[int, ...]]]]:
    """(degree, marginal, members) of every fiber of degree 1..max_degree
    with at least two members, degree by degree.  Lazy: a degree is bucketed
    only once every fiber of the degree below has been consumed."""
    for d in range(1, max_degree + 1):
        for marginal, members in _multisets_by_marginal(A, d, multiset_cap).items():
            if len(members) > 1:
                yield d, marginal, members


def enumerate_moves(
    A: DesignMatrix,
    max_degree: int,
    multiset_cap: int = DEFAULT_MULTISET_CAP,
) -> list[Move]:
    """All support-disjoint kernel moves of degree <= max_degree, up to sign.

    Each pair of tables of one fiber that share no word gives one move, and
    no move repeats: a pair with common words cancels to a disjoint pair of
    the fiber lighter by those words, which `_fibers` yields (it has two
    members or more), and two different disjoint pairs are two different
    moves, up to sign, since a move's two sides are its pair.
    """
    moves: list[Move] = []
    for _, _, members in _fibers(A, max_degree, multiset_cap):
        for (u, words), (v, _) in combinations([(u, set(u)) for u in members], 2):
            if words.isdisjoint(v):
                moves.append(Move.from_multisets(u, v))
                if len(moves) > MOVE_CAP:
                    raise CapExceededError(f"move count exceeds cap {MOVE_CAP}")
    return sorted(moves, key=lambda z: (z.degree, z.entries))


def verify_kernel(A: DesignMatrix, moves: Iterable[Move]) -> bool:
    """Every move must have zero marginal (A z = 0): its two sides share one."""
    return all(marginal_of(A, z.plus) == marginal_of(A, z.minus) for z in moves)


def fiber_enumerate(
    b: Sequence[int], A: DesignMatrix, cap: int = DEFAULT_FIBER_CAP
) -> Fiber:
    """All tables with marginal b, by backtracking over word multisets."""
    b = tuple(int(e) for e in b)
    total = sum(b)
    if total % (A.T - 1):
        return Fiber(b, 0, ())
    n = total // (A.T - 1)
    if n == 0:
        return Fiber(b, 0, ((),) if not any(b) else ())
    m = len(A.columns)
    members: list[tuple[int, ...]] = []

    def rec(start: int, remaining: list[int], left: int, chosen: list[int]) -> None:
        if left == 0:
            if not any(remaining):
                members.append(tuple(chosen))
                if len(members) > cap:
                    raise CapExceededError(f"fiber size exceeds cap {cap}")
            return
        for j in range(start, m):
            col = A.columns[j]
            if all(r >= c for r, c in zip(remaining, col)):
                chosen.append(j)
                rec(j, [r - c for r, c in zip(remaining, col)], left - 1, chosen)
                chosen.pop()

    rec(0, list(b), n, [])
    return Fiber(b, n, tuple(members))


def _minus_index(moves: Iterable[Move]) -> dict[tuple[int, ...], list[Move]]:
    index: dict[tuple[int, ...], list[Move]] = defaultdict(list)
    for z in moves:
        index[z.minus].append(z)
    return index


@lru_cache(maxsize=200_000)
def _submultisets(table: tuple[int, ...]):
    """Nonempty sub-multisets of a sorted word-index tuple."""
    items = sorted(Counter(table).items())
    subs: list[tuple[int, ...]] = [()]
    for j, mult in items:
        subs = [s + (j,) * k for s in subs for k in range(mult + 1)]
    return tuple(s for s in subs if s)


def _fiber_components(
    members: Sequence[tuple[int, ...]],
    index: dict[tuple[int, ...], list[Move]],
) -> list[tuple[int, ...]]:
    """Least member of each component of one fiber under an indexed move set
    (union-find; a root is always the least position in its component)."""
    pos = {u: i for i, u in enumerate(members)}
    parent = list(range(len(members)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for iu, u in enumerate(members):
        for s in _submultisets(u):
            for z in index.get(s, ()):
                ru, rv = find(iu), find(pos[z.apply(u)])
                if ru != rv:
                    parent[max(ru, rv)] = min(ru, rv)
    return [u for i, u in enumerate(members) if find(i) == i]


def is_markov_basis(
    moves: Sequence[Move],
    A: DesignMatrix,
    n_max: int,
    multiset_cap: int = DEFAULT_MULTISET_CAP,
) -> tuple[bool, Optional[dict]]:
    """Connectivity of every fiber of degree <= n_max under the move set.

    Moves of degree above n_max can never apply inside such fibers and are
    ignored.  Bounded verification only: connectivity here does not certify
    connectivity at higher degrees.
    """
    index = _minus_index(moves)
    for d, marginal, members in _fibers(A, n_max, multiset_cap):
        if len(_fiber_components(members, index)) != 1:
            return False, {
                "marginal": list(marginal),
                "degree": d,
                "fiber_size": len(members),
            }
    return True, None


def minimal_markov_basis(
    A: DesignMatrix,
    max_degree: int,
    n_max: int,
    multiset_cap: int = DEFAULT_MULTISET_CAP,
) -> list[Move]:
    """Minimal moves of degree <= max_degree connecting every fiber of degree
    <= n_max, built degree by degree (Takemura & Aoki 2004).

    Each degree-d fiber gets one move from its least member to the least
    member of every other component under the lower-degree moves.  Tables in
    different components share no word, so each move has degree exactly d and
    applies only inside its own fiber: dropping any move disconnects that
    fiber, so the basis is inclusion-minimal.  ValueError, naming the fiber's
    marginal, degree and size, if a fiber of degree above max_degree is
    disconnected.
    """
    basis: list[Move] = []
    degree = 0
    for d, marginal, members in _fibers(A, n_max, multiset_cap):
        if d != degree:
            degree, index = d, _minus_index(basis)
        first, *rest = _fiber_components(members, index)
        if rest and d > max_degree:
            raise ValueError(
                f"moves of degree <= {max_degree} do not connect the fiber with "
                f"marginal {list(marginal)}, degree {d}, fiber size {len(members)}"
            )
        basis.extend(Move.from_multisets(first, rep) for rep in rest)
    return sorted(basis, key=lambda z: (z.degree, z.entries))


# ---------------------------------------------------------------------------
# Moves file format


def moves_to_text(moves: Iterable[Move], A: DesignMatrix) -> str:
    text = lru_cache(maxsize=None)(lambda j: A.words[j].text)  # each word once
    lines = []
    for z in moves:
        plus = " ".join(f"+{text(j)}" for j in z.plus)
        minus = " ".join(f"-{text(j)}" for j in z.minus)
        lines.append(f"{plus} | {minus}")
    return "\n".join(lines) + ("\n" if lines else "")


def moves_from_text(text: str, A: DesignMatrix) -> list[Move]:
    """Parse the moves text format; a word outside A raises ValueError."""

    def index(tok: str) -> int:
        j = A.word_index.get(Word.from_text(tok))
        if j is None:
            raise ValueError(f"{tok} is not a word of the S={A.S}, T={A.T} design")
        return j

    moves = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        left, _, right = line.partition("|")
        plus = [index(tok.lstrip("+")) for tok in left.split()]
        minus = [index(tok.lstrip("-")) for tok in right.split()]
        z = Move.from_multisets(plus, minus)
        if z is not None:
            moves.append(z)
    return moves


def moves_to_json_dict(moves: Iterable[Move], A: DesignMatrix) -> list[dict]:
    out = []
    for z in moves:
        out.append(
            {
                "degree": z.degree,
                "plus": dict(Counter(A.words[j].text for j in z.plus)),
                "minus": dict(Counter(A.words[j].text for j in z.minus)),
            }
        )
    return out
