"""Design matrices for the no-self-loop homogeneous chain model.

The design matrix for S states at time T has one row per ordered state pair
(lexicographic) and one column per word of length T (lexicographic); the
column of a word is its transition-count vector.  Data multisets map to
sufficient statistics b = A.u; the matrix also holds the integer lattice ZA
of its columns.
"""

from __future__ import annotations

import csv
import json
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Optional

import numpy as np

from .exactla import IntegerLattice
from .words import (
    DEFAULT_WORD_CAP,
    Word,
    enumerate_words,
    pair_list,
    transition_counts,
)


@dataclass(frozen=True)
class Marginal:
    """Summed transition counts of a data multiset, with its degree n."""

    b: tuple[int, ...]
    n: int


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
        self._np: Optional[np.ndarray] = None
        self._lattice: Optional[IntegerLattice] = None
        self._distinct: Optional[list[tuple[int, ...]]] = None

    @property
    def dim(self) -> int:
        return len(self.pairs)

    @property
    def np_columns(self) -> np.ndarray:
        """dim x m integer matrix (int64; entries are at most T-1)."""
        if self._np is None:
            self._np = np.array(
                [[col[i] for col in self.columns] for i in range(self.dim)],
                dtype=np.int64,
            )
        return self._np

    def distinct_columns(self) -> list[tuple[int, ...]]:
        if self._distinct is None:
            self._distinct = sorted(set(self.columns))
        return self._distinct

    # -- statistics ---------------------------------------------------------

    def sufficient_statistics(self, multiset: Counter | Iterable[Word]) -> Marginal:
        """Marginal b = A.u and degree n = |W| of a word multiset."""
        if not isinstance(multiset, Counter):
            multiset = Counter(multiset)
        b = [0] * self.dim
        n = 0
        for w, mult in multiset.items():
            if len(w) != self.T:
                raise ValueError(f"word {w.text} has length {len(w)}, matrix has T={self.T}")
            j = self.word_index.get(w)
            if j is None:
                raise ValueError(f"word {w.text} not over 1..{self.S}")
            n += mult
            for i, c in enumerate(self.columns[j]):
                b[i] += mult * c
        return Marginal(tuple(b), n)

    # -- membership ---------------------------------------------------------

    @property
    def lattice(self) -> IntegerLattice:
        if self._lattice is None:
            lat = IntegerLattice(self.dim)
            for col in self.distinct_columns():
                lat.add(col)
            self._lattice = lat
        return self._lattice

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
