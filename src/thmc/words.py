"""Self-loop-free words, transition counts, state multigraphs, trail decompositions.

A word is a sequence of states from {1,..,S} of length T >= 2 in which
consecutive states differ.  Its transition-count vector lists, for every
ordered pair (i,j) with i != j in lexicographic pair order, how often the
step i->j occurs.  For S=3 the pair order is

    [(1,2), (1,3), (2,1), (2,3), (3,1), (3,2)]

so count vectors are 6-tuples [x12, x13, x21, x23, x31, x32].  Count vectors
double as edge multiplicities of a directed multigraph on the states (the
state graph); words are trails in that graph.  Relabelling the states and
reversing a word act on words and, as permutations of the pair slots, on
count vectors (`symmetry_group`).  Words of length T split a weak
component of the state graph only if its positive imbalance (out-degree
minus in-degree) is at most edges/(T-1), one unit per word; the trail
search and the four-state probe both test this budget (`component_budgets`).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations
from typing import Iterable, Optional, Sequence

DEFAULT_WORD_CAP = 2**20
# search nodes one trail decomposition may visit
NODE_CAP = 20_000_000


class CapExceededError(RuntimeError):
    """An enumeration would exceed its configured resource cap."""


class Word(bytes):
    """A self-loop-free state sequence, stored as one byte per state label."""

    __slots__ = ()

    def __new__(cls, states: Iterable[int], S: Optional[int] = None) -> "Word":
        w = super().__new__(cls, bytes(states))
        if len(w) < 2:
            raise ValueError(f"word must have length >= 2, got {len(w)}")
        for a, b in zip(w, w[1:]):
            if a == b:
                raise ValueError(f"self-loop {a}->{b} in word {w.text}")
        lo, hi = min(w), max(w)
        if lo < 1 or (S is not None and hi > S):
            raise ValueError(f"state labels of {list(w)} outside 1..{S}")
        return w

    @classmethod
    def from_text(cls, text: str, S: Optional[int] = None) -> "Word":
        text = text.strip()
        if not (text.isascii() and text.isdigit()):
            raise ValueError(f"word {text!r} is not a string of state digits")
        return cls((int(ch) for ch in text), S=S)

    @property
    def text(self) -> str:
        return "".join(str(s) for s in self)

    def __repr__(self) -> str:
        return f"Word({self.text})"


def pair_list(S: int) -> list[tuple[int, int]]:
    """Ordered state pairs (i,j), i != j, in lexicographic order."""
    return [(i, j) for i in range(1, S + 1) for j in range(1, S + 1) if i != j]


@lru_cache(maxsize=None)
def pair_index(S: int) -> dict[tuple[int, int], int]:
    return {p: k for k, p in enumerate(pair_list(S))}


def states_for_dim(dim: int) -> int:
    """Number of states S with S*(S-1) == dim."""
    S = round((1 + (1 + 4 * dim) ** 0.5) / 2)
    if S * (S - 1) != dim:
        raise ValueError(f"{dim} is not S*(S-1) for any integer S")
    return S


def word_count(S: int, T: int) -> int:
    return S * (S - 1) ** (T - 1)


def enumerate_words(S: int, T: int, cap: int = DEFAULT_WORD_CAP) -> list[Word]:
    """All self-loop-free words of length T over {1..S}, lexicographic."""
    if S < 2 or T < 2:
        raise ValueError(f"need S >= 2 and T >= 2, got S={S}, T={T}")
    total = word_count(S, T)
    if total > cap:
        raise CapExceededError(f"{total} words for S={S}, T={T} exceeds cap {cap}")
    labels = range(1, S + 1)
    out: list[Word] = []
    prefix = bytearray(T)

    def extend(pos: int) -> None:
        if pos == T:
            out.append(bytes.__new__(Word, bytes(prefix)))
            return
        prev = prefix[pos - 1] if pos else 0
        for s in labels:
            if s != prev:
                prefix[pos] = s
                extend(pos + 1)

    extend(0)
    return out


def transition_counts(w: Sequence[int], S: int) -> tuple[int, ...]:
    """Count vector of a word: entry (i,j) = number of steps i->j."""
    idx = pair_index(S)
    counts = [0] * (S * (S - 1))
    for a, b in zip(w, w[1:]):
        counts[idx[(a, b)]] += 1
    return tuple(counts)


@dataclass(frozen=True)
class Symmetry:
    """Relabel states by sigma, then optionally reverse the word.

    Such a map sends words to words, and a step i->j to the step
    sigma_i->sigma_j (or sigma_j->sigma_i after reversal), so on count
    vectors it permutes the S(S-1) pair slots: image[m] = x[source[m]].
    """

    sigma: tuple[int, ...]  # sigma[i-1] is the new label of state i
    reverse: bool
    source: tuple[int, ...]

    def vector(self, x: Sequence) -> tuple:
        """Image of a count vector (or of any vector over the pair slots)."""
        return tuple(x[k] for k in self.source)


@lru_cache(maxsize=None)
def symmetry_group(S: int) -> tuple[Symmetry, ...]:
    """The S! relabellings times reversal, identity first.

    Every element preserves the design matrix's column set, so it preserves
    the lattice, the cone, every fiber and word-decomposability.
    """
    idx = pair_index(S)
    group = []
    for sigma in permutations(range(1, S + 1)):
        for reverse in (False, True):
            source = [0] * len(idx)
            for (i, j), k in idx.items():
                a, b = sigma[i - 1], sigma[j - 1]
                source[idx[(b, a) if reverse else (a, b)]] = k
            group.append(Symmetry(sigma, reverse, tuple(source)))
    return tuple(group)


def state_graph(multiset: Counter | Iterable[Word], S: int) -> tuple[int, ...]:
    """Summed transition counts of a word multiset (edge multiplicities of G(W))."""
    if not isinstance(multiset, Counter):
        multiset = Counter(multiset)
    if not multiset:
        raise ValueError("empty multiset has no state graph")
    total = [0] * (S * (S - 1))
    for w, mult in multiset.items():
        if mult < 0:
            raise ValueError("negative multiplicity")
        for k, c in enumerate(transition_counts(w, S)):
            total[k] += mult * c
    return tuple(total)


def degree_imbalances(x: Sequence[int]) -> list[int]:
    """out-degree minus in-degree per vertex of the multigraph G(x)."""
    S = states_for_dim(len(x))
    delta = [0] * (S + 1)
    for (i, j), k in pair_index(S).items():
        delta[i] += x[k]
        delta[j] -= x[k]
    return delta[1:]


def component_budgets(
    counts: Sequence[int], delta: Sequence[int]
) -> list[tuple[int, int]]:
    """(edges, positive imbalance) of each weak component of G(counts) that
    has an edge, with delta the degree_imbalances of counts, from one scan
    of the support: a union-find over the S states carries each component's
    edge count to its root.  A word of length T stays in one component and
    starts at most one unit of its positive imbalance."""
    S = len(delta)
    root = list(range(S + 1))
    edges = [0] * (S + 1)
    positive = [0] * (S + 1)
    for (i, j), k in pair_index(S).items():
        if counts[k]:
            while root[i] != i:
                i = root[i]
            while root[j] != j:
                j = root[j]
            if i != j:
                root[i] = j
                edges[j] += edges[i]
            edges[j] += counts[k]
    for v, d in enumerate(delta, 1):
        if d > 0:
            while root[v] != v:
                v = root[v]
            positive[v] += d
    return [
        (edges[v], positive[v]) for v in range(1, S + 1) if root[v] == v and edges[v]
    ]


def decompose_into_paths(x: Sequence[int], n: int, T: int) -> Optional[list[Word]]:
    """Split x into n words of length T, or None if impossible.

    Exhaustive depth-first backtracking over edge assignments with dead-state
    memoization; this is the brute-force semigroup-membership oracle, so
    completeness matters more than speed.
    """
    if n < 0 or T < 2:
        raise ValueError("need n >= 0 and T >= 2")
    if sum(x) != n * (T - 1):
        raise ValueError(f"sum(x)={sum(x)} != n(T-1)={n * (T - 1)}")
    if any(c < 0 for c in x):
        raise ValueError("negative transition count")
    if n == 0:
        return []
    S = states_for_dim(len(x))
    idx = pair_index(S)
    targets = {i: [j for j in range(1, S + 1) if j != i] for i in range(1, S + 1)}
    counts = list(x)
    dead: set[tuple[tuple[int, ...], int]] = set()
    paths: list[list[int]] = []
    current: list[int] = []
    nodes = 0

    def search(k: int, cur: int) -> bool:
        # cur == 0 encodes the boundary before starting path k.
        nonlocal nodes
        nodes += 1
        if nodes > NODE_CAP:
            raise CapExceededError(f"decomposition search exceeded {NODE_CAP} nodes")
        if k == n:
            return True
        key = (tuple(counts), cur)
        if key in dead:
            return False
        if cur == 0:
            # necessary for the rest to split into words of T-1 edges: per
            # weak component, a multiple of T-1 edges and the word budget
            delta = degree_imbalances(counts)
            if any(
                edges % (T - 1) or positive > edges // (T - 1)
                for edges, positive in component_budgets(counts, delta)
            ):
                dead.add(key)
                return False
            cands = sorted(
                (v for v in range(1, S + 1) if any(counts[idx[(v, j)]] for j in targets[v])),
                key=lambda v: (-delta[v - 1], v),
            )
            for v in cands:
                current.append(v)
                if search(k, v):
                    return True
                current.pop()
            dead.add(key)
            return False
        if len(current) == T:
            paths.append(current.copy())
            current.clear()
            if search(k + 1, 0):
                return True
            current.extend(paths.pop())
            dead.add(key)
            return False
        for j in targets[cur]:
            e = idx[(cur, j)]
            if counts[e] > 0:
                counts[e] -= 1
                current.append(j)
                if search(k, j):
                    return True
                current.pop()
                counts[e] += 1
        dead.add(key)
        return False

    if search(0, 0):
        return [Word(p) for p in paths]
    return None


def check_split(
    words: Sequence[Word], x: Sequence[int], n: int, T: int, S: int
) -> None:
    """Re-check a split in exact integers: n words of length T whose
    transition counts sum to x.  Anything else raises AssertionError."""
    if (
        len(words) != n
        or any(len(w) != T for w in words)
        or state_graph(words, S) != tuple(x)
    ):
        raise AssertionError(
            f"witness {[w.text for w in words]} does not split {list(x)}"
        )


def read_words(lines: Iterable[str], S: Optional[int] = None) -> Counter:
    """Parse the word text format: one word per line, '#' comments, blanks skipped."""
    multiset: Counter = Counter()
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if line:
            try:
                multiset[Word.from_text(line, S=S)] += 1
            except ValueError as exc:
                raise ValueError(f"line {lineno}: {exc}") from None
    return multiset
