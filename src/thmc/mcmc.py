"""Exact conditional goodness-of-fit testing on fibers.

The walk is the classic symmetric fiber random walk: propose a uniformly
drawn signed move, stay put when it would go negative.  Its stationary law
on a connected fiber is uniform, so the fraction of sampled tables whose
statistic reaches the observed one estimates the exact conditional p-value
(observed table included on both sides of the ratio: the usual conservative
Monte Carlo convention).

The test is one pass over the walk's kept steps.  It scores a kept table
only when it differs from the previous one, and keeps each sample's
statistic: the summary fields and the CLI's trace are read off these.

Tables and moves stay exact integers; the default Pearson statistic is
computed in exact rational arithmetic against the time-homogeneous fit
(empirical transition frequencies of the pooled data), the likelihood-ratio
alternative uses floats for its logarithms.
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
from .markov import Move
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
        b = [0] * A.dim
        for j in table:
            for i, c in enumerate(A.columns[j]):
                b[i] += c
        self.marginal = tuple(b)
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

    def pearson(self, table: tuple[int, ...]) -> Fraction:
        """Pearson chi-square against the fitted homogeneous model, exact:
        sum_j (u_j - e_j)^2 / e_j = sum_{u_j>0} u_j^2 / e_j + N*total_mass - 2N,
        as the u_j sum to N and the e_j of all words to N*total_mass."""
        stat = self.N * (self.total_mass - 2)
        for j, u_j in Counter(table).items():
            e = self.expected(j)
            if e == 0:
                raise AssertionError("observed word with zero fitted mass")
            stat += u_j * u_j / e
        return stat

    def g2(self, table: tuple[int, ...]) -> float:
        """Likelihood-ratio statistic 2 sum u log(u/e), floating point."""
        total = 0.0
        for j, u_j in Counter(table).items():
            total += 2.0 * u_j * math.log(u_j / float(self.expected(j)))
        return total


def chi_square_statistic(u, A: DesignMatrix) -> Fraction:
    """Pearson X^2 of a data multiset against its own homogeneous fit."""
    table = as_table(u, A)
    return _FittedModel(table, A).pearson(table)


def g2_statistic(u, A: DesignMatrix) -> float:
    table = as_table(u, A)
    return _FittedModel(table, A).g2(table)


STATISTICS = ("pearson", "g2")


def walk(
    u0,
    moves: Sequence[Move],
    cfg: WalkConfig,
    A: DesignMatrix,
) -> Iterator[tuple[int, ...]]:
    """Symmetric fiber walk: emits the table after each of the cfg.steps
    proposals; u0 is not emitted before the first.

    A rejected proposal (one that would go negative) emits the current table
    again, as the same object.  Every emitted table has the marginal of u0;
    identical seeds give identical streams.
    """
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
    """Monte Carlo exact test of time-homogeneity on the observed fiber."""
    if statistic not in STATISTICS:
        raise ValueError(f"statistic must be one of {STATISTICS}")
    table = as_table(u_obs, A)
    model = _FittedModel(table, A)
    evaluate = model.pearson if statistic == "pearson" else model.g2
    observed = evaluate(table)
    values = array("d")
    n_ge = 0
    prev, val = table, observed
    for state in kept_tables(table, moves, cfg, A):
        if state != prev:
            prev, val = state, evaluate(state)
        n_ge += val >= observed
        values.append(float(val))
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
