import csv
import io
import json
import random
from collections import Counter

import pytest

from thmc.design import DesignMatrix, column_table, endpoint_table, get_design
from thmc.exactla import simplex_standard
from thmc.words import (
    CapExceededError,
    Word,
    enumerate_words,
    state_graph,
    transition_counts,
)


class TestBuild:
    def test_shape_3_4(self):
        A = get_design(3, 4)
        assert len(A.columns) == 24
        assert all(sum(col) == 3 for col in A.columns)
        assert A.words == sorted(A.words)

    def test_shape_3_3(self):
        A = get_design(3, 3)
        assert len(A.columns) == 12
        assert all(sum(col) == 2 for col in A.columns)

    def test_shape_2_3(self):
        A = DesignMatrix(2, 3)
        assert [w.text for w in A.words] == ["121", "212"]
        assert A.columns == [(1, 1), (1, 1)]

    def test_cap(self):
        with pytest.raises(CapExceededError):
            DesignMatrix(3, 15, cap=1000)

    def test_duplicate_columns_kept(self):
        A = get_design(3, 5)
        assert len(A.columns) == 48
        assert len(A.distinct_columns()) < 48

    def test_tables_match_word_list(self):
        # the transfer DP against the word list: each (start, end, counts)
        # class and each distinct column with its word count and its
        # lexicographically least word, the columns in sorted order
        sizes = [(3, T) for T in range(2, 13)]
        sizes += [(4, T) for T in range(2, 9)] + [(2, T) for T in range(2, 11)]
        for S, T in sizes:
            classes, columns = {}, {}
            for w in enumerate_words(S, T):  # lexicographic: first is least
                x = transition_counts(w, S)
                for table, key in ((classes, (w[0], w[-1], x)), (columns, x)):
                    count, least = table.get(key, (0, w))
                    table[key] = (count + 1, least)
            assert endpoint_table(S, T) == classes, (S, T)
            assert list(column_table(S, T).items()) == sorted(columns.items()), (S, T)


class TestSufficientStatistics:
    """The marginal b = A.u of a word multiset is its state graph."""

    def test_pair(self):
        W = Counter([Word.from_text("12132"), Word.from_text("12321")])
        assert state_graph(W, 3) == (2, 1, 2, 1, 0, 2)

    def test_empty(self):
        # an empty data set has no marginal; `thmc stats` rejects it first
        with pytest.raises(ValueError):
            state_graph(Counter(), 3)

    def test_singleton_matches_column(self):
        A = get_design(3, 4)
        w = Word.from_text("1212")
        assert state_graph([w], 3) == A.columns[A.word_index[w]] == (2, 0, 1, 0, 0, 0)

    def test_matches_state_graph(self):
        # two independent routes to the same marginal: the state graph, and
        # the design matrix's columns summed over the multiset
        A = get_design(3, 6)
        rng = random.Random(4)
        for _ in range(20):
            W = Counter(rng.choices(A.words, k=3))
            columns = [A.columns[A.word_index[w]] for w in W.elements()]
            assert tuple(map(sum, zip(*columns))) == state_graph(W, 3)


class TestLattice:
    def test_columns_in_lattice(self):
        A = get_design(3, 5)
        for col in A.distinct_columns():
            assert list(col) in A.lattice

    def test_sum_obstruction(self):
        A = get_design(3, 5)
        assert [1, 1, 1, 1, 1, 1] not in A.lattice

    def test_difference_closure(self):
        A = get_design(3, 5)
        rng = random.Random(8)
        for _ in range(20):
            c1, c2 = rng.sample(A.distinct_columns(), 2)
            diff = [a - b for a, b in zip(c1, c2)]
            assert diff in A.lattice

    @pytest.mark.parametrize(
        "S,T", [(3, T) for T in range(2, 13)] + [(4, T) for T in range(2, 9)]
    )
    def test_index_is_T_minus_1(self, S, T):
        # ZA lies in L = {x : (T-1) | sum(x)}, which has index T-1 in Z^d; a
        # full-rank ZA of index T-1 is therefore all of L, the fact that lets
        # the saturation points skip a lattice test
        lat = get_design(S, T).lattice
        assert len(lat.rows) == S * (S - 1)
        index = 1
        for row in lat.rows:
            index *= next(e for e in row if e)
        assert index == T - 1


class TestCone:
    def test_nonneg_combinations(self):
        A = get_design(3, 5)
        rng = random.Random(2)
        cols = A.distinct_columns()
        for _ in range(10):
            c1, c2 = rng.sample(cols, 2)
            x = tuple(2 * a + b for a, b in zip(c1, c2))
            assert simplex_standard(cols, x) is not None
            assert simplex_standard(cols, tuple(2 * a for a in c1)) is not None

    def test_negative_coordinate_outside(self):
        A = get_design(3, 5)
        assert simplex_standard(A.distinct_columns(), (-1, 0, 0, 0, 0, 0)) is None


class TestExport:
    def test_csv_header_and_rows(self):
        A = get_design(3, 4)
        out = io.StringIO()
        A.write_csv(out)
        out.seek(0)
        rows = list(csv.reader(out))
        assert rows[0][0] == "pair" and rows[0][1] == "1212"
        assert [r[0] for r in rows[1:]] == ["12", "13", "21", "23", "31", "32"]
        assert rows[1][1] == "2"

    def test_json_envelope(self):
        A = get_design(2, 3)
        doc = json.loads(A.to_json())
        assert doc["S"] == 2 and doc["T"] == 3
        assert doc["row_order"] == ["12", "21"]
        assert doc["columns"][0] == {"word": "121", "counts": [1, 1]}


class TestSaturationShapeInvariant:
    def test_lattice_cone_members_obey_degree_bounds(self):
        # every lattice-and-cone vector has coordinate sum n(T-1) and vertex
        # imbalances bounded by n
        from thmc.facets import model_hull
        from thmc.normality import saturation_points
        from thmc.words import degree_imbalances

        for T, n in ((5, 2), (6, 2), (7, 1)):
            # the listing holds every degree d = 1..n, each row under its own
            for x in saturation_points(T, n, model_hull(T, 3)).tolist():
                d, r = divmod(sum(x), T - 1)
                assert r == 0 and 1 <= d <= n
                assert all(abs(e) <= d for e in degree_imbalances(x))


class TestColumnHullMembership:
    def test_column_in_own_hull(self):
        from oracles import in_convex_hull

        A = get_design(3, 4)
        col = A.columns[A.word_index[Word.from_text("1212")]]
        assert in_convex_hull(A.distinct_columns(), col) is not None
