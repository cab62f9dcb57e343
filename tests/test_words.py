import random
from collections import Counter

import pytest

from oracles import bfs_component_budgets, compositions
from thmc.words import (
    CapExceededError,
    Word,
    component_budgets,
    decompose_into_paths,
    degree_imbalances,
    enumerate_words,
    read_words,
    state_graph,
    symmetry_group,
    transition_counts,
    word_count,
)


def counts3(text):
    return transition_counts(Word.from_text(text), 3)


def act(g, w):
    """The word map of a symmetry: relabel state s as g.sigma[s-1], then
    reverse the word when g.reverse."""
    t = [g.sigma[s - 1] for s in w]
    return Word(t[::-1] if g.reverse else t, S=len(g.sigma))


class TestWord:
    def test_rejects_self_loops(self):
        with pytest.raises(ValueError):
            Word([1, 1, 2])

    def test_rejects_short_and_bad_labels(self):
        with pytest.raises(ValueError):
            Word([1])
        with pytest.raises(ValueError):
            Word([0, 1])
        with pytest.raises(ValueError):
            Word([1, 4], S=3)

    def test_label_error_names_its_bound(self):
        with pytest.raises(ValueError, match=r"\[1, 2, 0, 1\] must be at least 1$"):
            Word([1, 2, 0, 1])
        with pytest.raises(ValueError, match=r"\[1, 2, 0, 1\] outside 1\.\.3$"):
            Word([1, 2, 0, 1], S=3)

    def test_text_roundtrip(self):
        w = Word.from_text("12132")
        assert w.text == "12132"
        assert len(w) == 5

    def test_reverse(self):
        reversal = symmetry_group(3)[1]
        assert act(reversal, Word.from_text("12132")).text == "23121"
        assert act(reversal, Word.from_text("121")).text == "121"


class TestEnumeration:
    def test_3_4(self):
        words = enumerate_words(3, 4)
        assert len(words) == 24
        assert words[0].text == "1212"
        assert words[-1].text == "3232"
        assert len(set(words)) == 24

    def test_3_5_count(self):
        assert len(enumerate_words(3, 5)) == 48

    def test_2_3_alternating(self):
        assert [w.text for w in enumerate_words(2, 3)] == ["121", "212"]

    @pytest.mark.parametrize("T", range(2, 15))
    def test_cardinality_3_states(self, T):
        assert len(enumerate_words(3, T)) == 3 * 2 ** (T - 1) == word_count(3, T)

    def test_lexicographic_no_duplicates(self):
        words = enumerate_words(3, 6)
        assert words == sorted(words)
        assert len(set(words)) == len(words)

    def test_cap(self):
        with pytest.raises(CapExceededError):
            enumerate_words(3, 12, cap=100)


class TestTransitionCounts:
    def test_printed_columns(self):
        assert counts3("1212") == (2, 0, 1, 0, 0, 0)
        assert counts3("1213") == (1, 1, 1, 0, 0, 0)
        assert counts3("3232") == (0, 0, 0, 1, 0, 2)

    def test_sum_is_T_minus_1(self):
        for w in enumerate_words(3, 7):
            assert sum(transition_counts(w, 3)) == 6

    def test_imbalances_at_most_one(self):
        for w in enumerate_words(3, 8):
            assert all(abs(d) <= 1 for d in degree_imbalances(transition_counts(w, 3)))

    def test_reverse_transposes_counts(self):
        reversal = symmetry_group(3)[1]
        assert reversal.sigma == (1, 2, 3) and reversal.reverse
        assert counts3("1213") == (1, 1, 1, 0, 0, 0)
        assert counts3("3121") == (1, 0, 1, 0, 1, 0)
        assert reversal.vector(counts3("1213")) == counts3("3121")
        for w in enumerate_words(3, 6):
            assert transition_counts(Word(w[::-1]), 3) == reversal.vector(
                transition_counts(w, 3)
            )


class TestSymmetry:
    @pytest.mark.parametrize("S,T", [(3, 5), (4, 4)])
    def test_counts_commute_with_the_action(self, S, T):
        group = symmetry_group(S)
        assert len(group) == 2 * len({g.sigma for g in group}) == 2 * {3: 6, 4: 24}[S]
        for w in enumerate_words(S, T):
            x = transition_counts(w, S)
            for g in group:
                assert transition_counts(act(g, w), S) == g.vector(x)

    def test_identity_first_and_actions_distinct(self):
        group = symmetry_group(3)
        assert group[0].sigma == (1, 2, 3) and not group[0].reverse
        assert group[0].vector(counts3("12132")) == counts3("12132")
        assert len({g.source for g in group}) == 12


class TestStateGraph:
    def test_pair_of_words(self):
        W = Counter([Word.from_text("12132"), Word.from_text("12321")])
        assert state_graph(W, 3) == (2, 1, 2, 1, 0, 2)

    def test_equal_graphs_for_companion_multiset(self):
        W = Counter([Word.from_text("12132"), Word.from_text("12321")])
        V = Counter([Word.from_text("13212"), Word.from_text("21232")])
        assert state_graph(W, 3) == state_graph(V, 3)

    def test_singleton(self):
        assert state_graph([Word.from_text("1212")], 3) == (2, 0, 1, 0, 0, 0)

    def test_multiplicity(self):
        W = Counter({Word.from_text("121"): 3})
        assert state_graph(W, 3) == (3, 0, 3, 0, 0, 0)

    def test_same_graph_multisets_share_all_decompositions(self):
        # multisets with equal summed counts induce the same multigraph, so
        # any one of them can be recovered as a trail decomposition of it
        rng = random.Random(7)
        words = enumerate_words(3, 5)
        for _ in range(50):
            A = Counter(rng.choices(words, k=2))
            x = state_graph(A, 3)
            paths = decompose_into_paths(x, 2, 5)
            assert paths is not None and state_graph(Counter(paths), 3) == x


def single_word(x):
    """The one-word split of x by the trail-decomposition oracle, or None."""
    paths = decompose_into_paths(x, 1, sum(x) + 1)
    return None if paths is None else paths[0]


class TestEulerian:
    """A count vector is one word's exactly when G(x) has a trail through
    every edge; the trail-decomposition oracle at n = 1 finds it."""

    def test_simple_cases(self):
        assert single_word((1, 0, 1, 0, 0, 0)) is not None
        assert single_word((2, 0, 0, 0, 0, 0)) is None
        assert single_word((0, 2, 0, 0, 0, 0)) is None

    def test_every_word_graph_has_trail(self):
        for T in (3, 5, 8):
            for w in enumerate_words(3, T):
                x = transition_counts(w, 3)
                v = single_word(x)
                assert v is not None and transition_counts(v, 3) == x

    def test_balanced_connected_vectors_have_trail(self):
        # every x with sum T-1 has a trail iff its support is connected and
        # |out-in| <= 1 everywhere with at most one start (Euler's condition)
        T = 6
        from itertools import product

        for x in product(range(T), repeat=6):
            if sum(x) != T - 1:
                continue
            delta = degree_imbalances(x)
            euler = (
                all(abs(d) <= 1 for d in delta)
                and delta.count(1) <= 1
                and len(component_budgets(x, delta)) == 1
            )
            w = single_word(x)
            assert (w is not None) == euler, x
            assert w is None or transition_counts(w, 3) == x

    def test_specific_paths(self):
        assert single_word((2, 0, 1, 0, 0, 0)).text == "1212"
        w = single_word((1, 0, 0, 1, 1, 0))
        assert w is not None and transition_counts(w, 3) == (1, 0, 0, 1, 1, 0)
        assert single_word((0, 2, 0, 0, 0, 0)) is None

    def test_disconnected_balanced_vector(self):
        # S=4, two disjoint 2-cycles 1<->2 and 3<->4: balanced but disconnected
        x = [0] * 12
        x[0], x[3], x[8], x[11] = 1, 1, 1, 1
        assert single_word(x) is None


class TestComponentBudgets:
    """`component_budgets` against the breadth-first oracle, and the bound
    the four-state probe relies on."""

    @staticmethod
    def budgets(x):
        return sorted(component_budgets(x, degree_imbalances(x)))

    def test_every_small_vector_at_three_states(self):
        for total in range(7):
            for x in compositions(total, 6):
                assert self.budgets(x) == sorted(bfs_component_budgets(x, 3)), x

    def test_two_disjoint_two_cycles_at_four_states(self):
        # pair order for S=4: 12,13,14,21,23,24,31,32,34,41,42,43
        for slots in ((0, 3, 8, 11), (1, 6, 5, 10), (2, 9, 4, 7)):
            for total in range(7):
                for comp in compositions(total, 4):
                    x = [0] * 12
                    for s, v in zip(slots, comp):
                        x[s] = v
                    assert self.budgets(x) == sorted(bfs_component_budgets(x, 4)), x

    @pytest.mark.parametrize("S,T,n", [(3, 3, 1), (3, 3, 3), (3, 4, 2), (3, 5, 2), (4, 8, 1)])
    def test_budget_bounds_every_imbalance(self, S, T, n):
        # within a component the imbalances sum to zero, so one of size > n
        # puts more than n positive imbalance in its component, beyond the
        # budget edges/(T-1) <= n
        unbalanced = 0
        for x in compositions(n * (T - 1), S * (S - 1)):
            delta = degree_imbalances(x)
            if any(abs(d) > n for d in delta):
                unbalanced += 1
                assert any(
                    positive * (T - 1) > edges
                    for edges, positive in component_budgets(x, delta)
                ), x
        assert unbalanced


class TestDecompose:
    def test_figure_pair(self):
        W = Counter([Word.from_text("12132"), Word.from_text("12321")])
        x = state_graph(W, 3)
        paths = decompose_into_paths(x, 2, 5)
        assert paths is not None and len(paths) == 2
        assert state_graph(Counter(paths), 3) == x

    def test_single_column_is_word_itself(self):
        for w in enumerate_words(3, 6):
            x = transition_counts(w, 3)
            paths = decompose_into_paths(x, 1, 6)
            assert paths is not None and len(paths) == 1
            assert transition_counts(paths[0], 3) == x

    def test_four_state_disjoint_components(self):
        x = [0] * 12
        # pair order for S=4: 12,13,14,21,23,24,31,32,34,41,42,43
        x[0], x[3], x[8], x[11] = 4, 3, 4, 3
        paths = decompose_into_paths(x, 2, 8)
        assert paths is not None
        assert sorted(p.text for p in paths) == ["12121212", "34343434"]

    def test_impossible_split(self):
        # 8 edges in one component, 6 in the other: no 7+7 split
        x = [0] * 12
        x[0], x[3], x[8], x[11] = 4, 4, 3, 3
        x2 = list(x)
        x2[0], x2[3], x2[8], x2[11] = 4, 4, 4, 2
        assert decompose_into_paths(x2, 2, 8) is None

    def test_precondition(self):
        with pytest.raises(ValueError):
            decompose_into_paths((1, 0, 0, 0, 0, 0), 2, 5)

    def test_zero(self):
        assert decompose_into_paths((0,) * 6, 0, 5) == []

    def test_random_multisets_roundtrip(self):
        rng = random.Random(12)
        words = enumerate_words(3, 7)
        for _ in range(25):
            n = rng.randint(1, 3)
            W = Counter(rng.choices(words, k=n))
            x = state_graph(W, 3)
            paths = decompose_into_paths(x, n, 7)
            assert paths is not None
            assert state_graph(Counter(paths), 3) == x


class TestWordIO:
    def test_roundtrip(self):
        W = Counter(
            {Word.from_text("12132"): 2, Word.from_text("12321"): 1}
        )
        text = "".join(f"{w.text}\n" * m for w, m in W.items())
        assert read_words(text.splitlines()) == W

    def test_comments_and_blanks(self):
        W = read_words(["# header", "", "121  ", "121", "# x", "212"])
        assert W == Counter({Word.from_text("121"): 2, Word.from_text("212"): 1})
