"""Exact conditional goodness-of-fit testing on fibers.

The walk is the classic symmetric fiber random walk: propose a uniformly
drawn signed move, stay put when it would go negative.  Its stationary law
on a connected fiber is uniform, so the fraction of sampled tables whose
statistic reaches the observed one estimates the p-value under the uniform
law on the fiber (observed table included on both sides of the ratio: the
usual conservative Monte Carlo convention).  That is not the exact
conditional p-value of multinomial or Poisson data, whose law given the
marginal is proportional to 1/prod_j u_j! (Diaconis & Sturmfels 1998,
Ann. Statist. 26): on the 9-table fiber of {1212, 1321, 1321} at T = 4 the
uniform-law p-value is 0.333 and the conditional one 0.200.  Sampling the
conditional law is item 1 of ROADMAP.md.

The walk steps a vector of counts by word index: a proposal reads and
writes only the move's entries, and `walk` builds the sorted table only
after an accepted move.  Each proposal index is drawn in the stepping loop
from `getrandbits`, by the rejection rule `random.Random.randrange` uses, so
a seed gives the stream that `randrange` would.  The test is one pass over
the same steps.  One scorer per statistic scores the observed table in
full, then updates its statistic from each accepted move's entries, and
keeps each sample's statistic: the summary fields and the CLI's trace are
read off these.

Tables and moves stay exact integers; the default Pearson statistic is
exact against the time-homogeneous fit (empirical transition frequencies
of the pooled data): a rational for the observed table, one integer over a
common denominator along the walk.  The likelihood-ratio alternative uses
floats for its logarithms, so its ties are float ties: on a fiber G2 is
2 sum_j u_j log u_j - 2K, K fixed by the marginal, so tables with equal
prod_j u_j^u_j (permuted counts, say) tie exactly and rounding breaks them.
"""

from __future__ import annotations

import itertools
import math
import random
from array import array
from collections import Counter
from dataclasses import dataclass, field, fields
from fractions import Fraction
from typing import Iterator, Optional, Sequence

from .design import DesignMatrix
from .markov import Move, marginal_of
from .words import Word, pair_index


@dataclass(frozen=True)
class WalkConfig:
    seed: int
    steps: int
    burn_in: int = 0
    thinning: int = 1

    def __post_init__(self):
        if self.burn_in < 0:
            raise ValueError("burn_in must be >= 0")
        if self.steps <= self.burn_in:
            raise ValueError("steps must exceed burn_in")
        if self.thinning < 1:
            raise ValueError("thinning must be >= 1")


@dataclass(frozen=True)
class TestResult:
    __test__ = False  # not a pytest class, despite the name

    statistic: str
    observed: float
    observed_exact: Optional[str]
    p_value: float
    std_error: float
    samples: int
    sample_min: float
    sample_max: float
    sample_mean: float
    values: array = field(repr=False)  # the statistic of each kept sample, in walk order

    def to_dict(self) -> dict:
        """Every field but the per-sample values, in field order."""
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "values"}


def as_table(u, A: DesignMatrix) -> tuple[int, ...]:
    """Normalize data (Counter of words or word-index multiset) to a sorted
    word-index tuple."""
    if isinstance(u, Counter):
        out = []
        for w, mult in u.items():
            j = A.word_index[w if isinstance(w, Word) else Word.from_text(str(w))]
            out.extend([j] * mult)
        return tuple(sorted(out))
    return tuple(sorted(int(j) for j in u))


class _FittedModel:
    """Per-fiber cache of the time-homogeneous fit: expected counts depend
    only on the marginal, which the walk preserves."""

    def __init__(self, table: tuple[int, ...], A: DesignMatrix):
        if not table:
            raise ValueError("empty data")
        self.A = A
        self.N = len(table)
        idx = pair_index(A.S)
        b = marginal_of(A, table)
        out_total = [0] * (A.S + 1)
        for (i, _), k in idx.items():
            out_total[i] += b[k]
        self.phat: dict[tuple[int, int], Fraction] = {}
        for (i, j), k in idx.items():
            self.phat[(i, j)] = (
                Fraction(b[k], out_total[i]) if out_total[i] else Fraction(0)
            )
        # total fitted mass over all words, via the transfer matrix
        S = A.S
        M = [[self.phat.get((i, j), Fraction(0)) for j in range(1, S + 1)] for i in range(1, S + 1)]
        vec = [Fraction(1)] * S
        for _ in range(A.T - 1):
            vec = [
                sum(M[i][j] * vec[j] for j in range(S)) for i in range(S)
            ]
        self.total_mass = sum(vec)
        self._expected: dict[int, Fraction] = {}
        self._g2_terms: dict[tuple[int, int], float] = {}

    def expected(self, j: int) -> Fraction:
        """Fitted expected count of word j: N times its fitted mass."""
        e = self._expected.get(j)
        if e is None:
            w = self.A.words[j]
            e = Fraction(self.N)
            for a, b in zip(w, w[1:]):
                e *= self.phat[(a, b)]
            self._expected[j] = e
        return e

    def g2_term(self, j: int, u_j: int) -> float:
        """The term 2 u_j log(u_j/e_j) of word j at count u_j, cached."""
        term = self._g2_terms.get((j, u_j))
        if term is None:
            term = 2.0 * u_j * math.log(u_j / float(self.expected(j)))
            self._g2_terms[j, u_j] = term
        return term


class _PearsonRun:
    """Pearson X^2 of the walk's counts, kept as C + S/D in integers.

    C = N*(total_mass - 2) and S = sum_j u_j^2 w_j with w_j = D/e_j, where D
    is the lcm of the numerators of e_j over the observed words and the move
    words of positive fitted mass, so every w_j is an integer.  This is
    sum_j (u_j - e_j)^2 / e_j, as the u_j sum to N and the e_j of all words to
    N*total_mass.  A move with entries (j, c) adds sum (2 u_j c + c^2) w_j,
    u_j the count before it.  The observed table is scored once, in full, as
    the exact rational `observed`.
    """

    def __init__(self, table: tuple[int, ...], A: DesignMatrix, moves: Sequence[Move]):
        model = _FittedModel(table, A)
        observed = Counter(table)
        words = set(observed).union(j for z in moves for j, _ in z.entries)
        expected = {j: e for j in words if (e := model.expected(j))}
        if observed.keys() - expected.keys():
            raise AssertionError("observed word with zero fitted mass")
        D = math.lcm(*(e.numerator for e in expected.values()))
        self.weight = {j: D // e.numerator * e.denominator for j, e in expected.items()}
        C = model.N * (model.total_mass - 2)
        # X^2 = (C.numerator*D + C.denominator*S) / (C.denominator*D)
        self.scale = C.denominator
        self.offset = C.numerator * D
        self.denominator = C.denominator * D
        self.S = sum(u * u * self.weight[j] for j, u in observed.items())
        self.observed_S = self.S
        self.observed = Fraction(self.offset + self.scale * self.S, self.denominator)

    def moved(self, counts: dict[int, int], entries) -> None:
        """Follow the move just written into counts."""
        for j, c in entries:
            w = self.weight.get(j)
            if w is None:
                raise AssertionError("observed word with zero fitted mass")
            # u_j = counts[j] - c before the move: 2 u_j c + c^2 = 2 counts[j] c - c^2
            self.S += (2 * counts.get(j, 0) * c - c * c) * w

    def sample(self, counts: dict[int, int]) -> tuple[float, bool]:
        """The statistic as a float (int true division rounds correctly, as
        float(Fraction) does) and whether it reaches the observed one."""
        return (self.offset + self.scale * self.S) / self.denominator, self.S >= self.observed_S


class _G2Run:
    """G2 = 2 sum_j u_j log(u_j/e_j) in floats, so exact ties (module
    docstring) are left to rounding: the cached terms summed over the support
    in ascending word order at every sample; `observed` sums the observed table."""

    def __init__(self, table: tuple[int, ...], A: DesignMatrix, moves: Sequence[Move]):
        self.model = _FittedModel(table, A)
        self.observed = self._total(Counter(table))

    def _total(self, counts: dict[int, int]) -> float:
        total = 0.0
        for j in sorted(counts):
            total += self.model.g2_term(j, counts[j])
        return total

    def moved(self, counts: dict[int, int], entries) -> None:
        pass

    def sample(self, counts: dict[int, int]) -> tuple[float, bool]:
        total = self._total(counts)
        return total, total >= self.observed


def chi_square_statistic(u, A: DesignMatrix) -> Fraction:
    """Pearson X^2 of a data multiset against its own homogeneous fit."""
    return _PearsonRun(as_table(u, A), A, ()).observed


def g2_statistic(u, A: DesignMatrix) -> float:
    return _G2Run(as_table(u, A), A, ()).observed


_SCORERS = {"pearson": _PearsonRun, "g2": _G2Run}
STATISTICS = tuple(_SCORERS)


def _steps(
    table: tuple[int, ...],
    moves: Sequence[Move],
    cfg: WalkConfig,
) -> Iterator[tuple[dict[int, int], Optional[tuple[tuple[int, int], ...]]]]:
    """The walk's stepping, on counts: after each of the cfg.steps proposals,
    the live dict of positive counts by word index and the accepted move's
    entries, or None for a rejected proposal.

    Draw k of range(n), n = 2 * len(moves), proposes moves[k] for
    k < len(moves), else the negation of moves[k - len(moves)].  k is drawn
    as random.Random(cfg.seed).randrange(n) draws it: getrandbits of
    n.bit_length() bits, drawn again while it is >= n.  That is the same
    stream, without the two Python calls randrange makes per step.  The
    proposal is rejected when one of its negative entries exceeds the count
    it lowers; otherwise its entries are written into the counts in place.
    """
    if not moves:
        raise ValueError("need a nonempty move set")
    getrandbits = random.Random(cfg.seed).getrandbits
    signed = [z.entries for z in moves] + [z.negated().entries for z in moves]
    n = len(signed)
    bits = n.bit_length()
    counts = dict(Counter(table))
    for _ in range(cfg.steps):
        k = getrandbits(bits)
        while k >= n:
            k = getrandbits(bits)
        entries = signed[k]
        for j, c in entries:
            if c < 0 and counts.get(j, 0) < -c:
                yield counts, None
                break
        else:
            for j, c in entries:
                u = counts.get(j, 0) + c
                if u:
                    counts[j] = u
                else:
                    del counts[j]
            yield counts, entries


def walk(
    u0,
    moves: Sequence[Move],
    cfg: WalkConfig,
    A: DesignMatrix,
) -> Iterator[tuple[int, ...]]:
    """Symmetric fiber walk: emits the table after each of the cfg.steps
    proposals; u0 is not emitted before the first.

    A rejected proposal (one that would go negative) emits the current table
    again, as the same object; the sorted table is built only after an
    accepted move.  Every emitted table has the marginal of u0; identical
    seeds give identical streams.
    """
    table = as_table(u0, A)
    for counts, move in _steps(table, moves, cfg):
        if move is not None:
            table = tuple(j for j in sorted(counts) for _ in range(counts[j]))
        yield table


def kept_tables(
    u0,
    moves: Sequence[Move],
    cfg: WalkConfig,
    A: DesignMatrix,
) -> Iterator[tuple[int, ...]]:
    """The walk's sampled tables: after cfg.burn_in steps, every
    cfg.thinning-th, at the steps range(cfg.burn_in, cfg.steps, cfg.thinning)."""
    return itertools.islice(walk(u0, moves, cfg, A), cfg.burn_in, None, cfg.thinning)


def exact_test(
    u_obs,
    A: DesignMatrix,
    moves: Sequence[Move],
    cfg: WalkConfig,
    statistic: str = "pearson",
) -> TestResult:
    """Monte Carlo exact test of time-homogeneity on the observed fiber.

    The scorer scores the observed table once, in full.  After that the
    statistic follows the walk's counts: Pearson's integer S takes each
    accepted move's entries, and a kept sample is evaluated only when the
    walk has moved since the sample before it (the first one since the
    observed table).
    """
    if statistic not in STATISTICS:
        raise ValueError(f"statistic must be one of {STATISTICS}")
    table = as_table(u_obs, A)
    run = _SCORERS[statistic](table, A, moves)
    observed = run.observed
    values = array("d")
    n_ge = 0
    val, ge = float(observed), True
    moved = False
    next_kept = cfg.burn_in
    for step, (counts, move) in enumerate(_steps(table, moves, cfg)):
        if move is not None:
            run.moved(counts, move)
            moved = True
        if step == next_kept:
            next_kept += cfg.thinning
            if moved:
                val, ge = run.sample(counts)
                moved = False
            n_ge += ge
            values.append(val)
    n = len(values)  # >= 1, since WalkConfig asks steps > burn_in
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
