"""Design matrices for the no-self-loop homogeneous chain model.

The design matrix for S states at time T has one row per ordered state pair
(lexicographic) and one column per word of length T (lexicographic); the
column of a word is its transition-count vector.  The sufficient statistic
b = A.u of a data multiset is its state graph (`words.state_graph`); the
int64 `np_columns` and ZA, the `lattice` of the columns, are cached.  The
geometry reads only the distinct columns (1,704 for 25,165,824 words at
T = 24), from `column_table`, a DP that lists no words.
"""

from __future__ import annotations

import csv
import json
from functools import cached_property, lru_cache
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .exactla import IntegerLattice
from .words import (
    DEFAULT_WORD_CAP,
    Word,
    enumerate_words,
    pair_index,
    pair_list,
    transition_counts,
)


@lru_cache(maxsize=64)
def endpoint_table(S: int, T: int) -> Mapping:
    """(start, end, counts) -> (word count, lexicographically least word)
    over the words of length T, built from length T-1 by appending a state."""
    if S < 2 or T < 2:
        raise ValueError(f"need S >= 2 and T >= 2, got S={S}, T={T}")
    idx = pair_index(S)
    prev = endpoint_table(S, T - 1) if T > 2 else {
        (s, s, (0,) * len(idx)): (1, bytes((s,))) for s in range(1, S + 1)
    }
    table: dict = {}
    for (start, end, counts), (count, word) in prev.items():
        for j in range(1, S + 1):
            if j != end:
                step = list(counts)
                step[idx[(end, j)]] += 1
                key, longer = (start, j, tuple(step)), bytes.__new__(Word, word + bytes((j,)))
                total, least = table.get(key, (0, longer))
                table[key] = (total + count, min(least, longer))
    return MappingProxyType(table)


@lru_cache(maxsize=64)
def column_table(S: int, T: int) -> Mapping:
    """Distinct column -> (word count, least word), in column order."""
    table: dict = {}
    for (_, _, counts), (count, word) in endpoint_table(S, T).items():
        total, least = table.get(counts, (0, word))
        table[counts] = (total + count, min(least, word))
    return MappingProxyType(dict(sorted(table.items())))


class DesignMatrix:
    """Word-indexed transition-count matrix, columns in lexicographic order.

    Duplicate columns are kept: distinct words may share a count vector, and
    the word-indexed structure is what moves and fibers live on.
    """

    def __init__(self, S: int, T: int, cap: int = DEFAULT_WORD_CAP):
        self.S = S
        self.T = T
        self.pairs = pair_list(S)
        self.words: list[Word] = enumerate_words(S, T, cap=cap)
        self.columns: list[tuple[int, ...]] = [
            transition_counts(w, S) for w in self.words
        ]
        self.word_index: dict[Word, int] = {w: j for j, w in enumerate(self.words)}

    @property
    def dim(self) -> int:
        return len(self.pairs)

    @cached_property
    def np_columns(self) -> np.ndarray:
        """dim x m integer matrix (int64; entries are at most T-1)."""
        return np.array(self.columns, dtype=np.int64).T

    def distinct_columns(self) -> list[tuple[int, ...]]:
        return list(column_table(self.S, self.T))

    # -- membership ---------------------------------------------------------

    @cached_property
    def lattice(self) -> IntegerLattice:
        lat = IntegerLattice(self.dim)
        for col in self.distinct_columns():
            lat.add(col)
        return lat

    # -- export -------------------------------------------------------------

    def write_csv(self, fh) -> None:
        """Streaming CSV write (row at a time; fine for large T)."""
        writer = csv.writer(fh)
        writer.writerow(["pair"] + [w.text for w in self.words])
        for i, (a, b) in enumerate(self.pairs):
            writer.writerow([f"{a}{b}"] + [col[i] for col in self.columns])

    def to_json(self) -> str:
        return json.dumps(
            {
                "S": self.S,
                "T": self.T,
                "row_order": [f"{a}{b}" for a, b in self.pairs],
                "columns": [
                    {"word": w.text, "counts": list(col)}
                    for w, col in zip(self.words, self.columns)
                ],
            }
        )


@lru_cache(maxsize=32)
def get_design(S: int, T: int, cap: int = DEFAULT_WORD_CAP) -> DesignMatrix:
    """Cached design matrices (they are immutable after construction)."""
    return DesignMatrix(S, T, cap=cap)
