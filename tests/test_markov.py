import random
from collections import Counter
from itertools import combinations

import pytest

from thmc.design import get_design
from thmc.markov import (
    Move,
    _multisets_by_marginal,
    enumerate_moves,
    fiber_enumerate,
    is_markov_basis,
    minimal_markov_basis,
    moves_from_text,
    moves_to_json_dict,
    moves_to_text,
    verify_kernel,
)
from thmc.words import CapExceededError, Word, state_graph

from oracles import all_pair_moves


def widx(A, *texts):
    return [A.word_index[Word.from_text(t)] for t in texts]


class TestMove:
    def test_sign_canonicalization(self):
        z = Move.from_multisets((0, 1), (2, 3))
        assert z.entries[-1][1] > 0
        assert z.negated().entries[-1][1] < 0

    def test_common_words_cancel(self):
        z = Move.from_multisets((0, 1), (1, 2))
        assert z is not None
        assert dict(z.entries) in ({0: 1, 2: -1}, {0: -1, 2: 1})

    def test_identical_multisets_give_none(self):
        assert Move.from_multisets((3, 5), (5, 3)) is None

    def test_apply(self):
        z = Move.from_multisets((0,), (1,))
        plus, minus = (z.plus[0], z.minus[0])
        table = (minus, minus, 7)
        out = z.apply(table)
        assert out == tuple(sorted((plus, minus, 7)))
        assert z.apply((plus, 7)) is None or minus in (plus, 7)

    def test_degree(self):
        z = Move.from_multisets((0, 0, 1), (2, 3, 4))
        assert z.degree == 3


class TestEnumerateMoves:
    def test_kernel_property(self):
        A = get_design(3, 4)
        moves = enumerate_moves(A, 2)
        assert moves and verify_kernel(A, moves)

    def test_figure_pair_move_found(self):
        A = get_design(3, 5)
        moves = set(enumerate_moves(A, 2))
        z = Move.from_multisets(
            widx(A, "13212", "21232"), widx(A, "12132", "12321")
        )
        assert z in moves or z.negated() in moves

    def test_degree_one_moves_are_duplicate_columns(self):
        A = get_design(3, 5)
        ones = [z for z in enumerate_moves(A, 1)]
        assert ones  # duplicate columns exist from T=5 on
        for z in ones:
            (j1, c1), (j2, c2) = z.entries
            assert {c1, c2} == {1, -1}
            assert A.columns[j1] == A.columns[j2]

    def test_degree_one_move_count_matches_duplicate_classes(self):
        # degree-1 moves pair up words sharing a column (e.g. rotations of a
        # 3-cycle at T=4); their count is the sum of pairs per class
        from collections import defaultdict
        from math import comb

        A = get_design(3, 4)
        classes = defaultdict(int)
        for col in A.columns:
            classes[col] += 1
        expected = sum(comb(k, 2) for k in classes.values() if k > 1)
        assert expected > 0
        assert len(enumerate_moves(A, 1)) == expected

    def test_support_disjoint(self):
        A = get_design(3, 4)
        for z in enumerate_moves(A, 3):
            assert all(c != 0 for _, c in z.entries)
            assert z.degree == sum(-c for _, c in z.entries if c < 0)

    def test_cap(self):
        A = get_design(3, 5)
        with pytest.raises(CapExceededError):
            enumerate_moves(A, 4, multiset_cap=1000)

    @pytest.mark.parametrize("T, max_degree", [(3, 5), (4, 3), (5, 2)])
    def test_equals_all_pairs_oracle(self, T, max_degree):
        A = get_design(3, T)
        assert enumerate_moves(A, max_degree) == all_pair_moves(A, max_degree)

    def test_pairs_with_common_words_add_no_move(self):
        # at T=4 every degree-2 fiber pair sharing a word cancels to a
        # degree-1 move already listed, and no move is listed twice
        A = get_design(3, 4)
        moves = enumerate_moves(A, 2)
        listed = set(moves)
        assert len(listed) == len(moves)
        shared = 0
        for members in _multisets_by_marginal(A, 2, 10_000).values():
            for u, v in combinations(members, 2):
                if set(u) & set(v):
                    shared += 1
                    z = Move.from_multisets(u, v)
                    assert z.degree == 1 and z in listed
        assert shared > 0


class TestFiber:
    def test_figure_fiber_contains_both_multisets(self):
        A = get_design(3, 5)
        W = Counter([Word.from_text("12132"), Word.from_text("12321")])
        b = state_graph(W, 3)
        fib = fiber_enumerate(b, A)
        members = set(fib.members)
        assert tuple(sorted(widx(A, "12132", "12321"))) in members
        assert tuple(sorted(widx(A, "13212", "21232"))) in members

    def test_single_column_fiber(self):
        A = get_design(3, 5)
        col = A.columns[0]
        fib = fiber_enumerate(col, A)
        expected = {(j,) for j, c in enumerate(A.columns) if c == col}
        assert set(fib.members) == expected

    def test_cap_counts_members(self):
        A = get_design(3, 5)
        W = Counter([Word.from_text("12132"), Word.from_text("12321")])
        b = state_graph(W, 3)
        size = len(fiber_enumerate(b, A).members)
        assert len(fiber_enumerate(b, A, cap=size).members) == size
        with pytest.raises(CapExceededError, match=f"^fiber size exceeds cap {size - 1}$"):
            fiber_enumerate(b, A, cap=size - 1)

    def test_unreachable_marginal_empty(self):
        A = get_design(3, 5)
        assert fiber_enumerate((1, 1, 1, 1, 1, 1), A).members == ()

    def test_members_have_correct_marginal(self):
        A = get_design(3, 4)
        rng = random.Random(5)
        words = A.words
        for _ in range(10):
            W = Counter(rng.choices(words, k=3))
            b = state_graph(W, 3)
            fib = fiber_enumerate(b, A)
            assert tuple(sorted(A.word_index[w] for w in W.elements())) in set(
                fib.members
            )
            for member in fib.members:
                got = [0] * 6
                for j in member:
                    for i, c in enumerate(A.columns[j]):
                        got[i] += c
                assert tuple(got) == b


class TestMarkovBasis:
    def test_empty_moves_fail_on_multielement_fiber(self):
        A = get_design(3, 4)
        ok, ce = is_markov_basis([], A, 2)
        assert not ok and ce is not None

    def test_degree2_moves_connect_T4(self):
        A = get_design(3, 4)
        moves = enumerate_moves(A, 2)
        ok, ce = is_markov_basis(moves, A, 3)
        assert ok, ce

    def test_degree2_moves_connect_T3_and_T5(self):
        for T in (3, 5):
            A = get_design(3, T)
            ok, ce = is_markov_basis(enumerate_moves(A, 2), A, 2)
            assert ok, (T, ce)

    def test_high_degree_moves_never_apply_in_low_fibers(self):
        A = get_design(3, 4)
        moves = enumerate_moves(A, 3)
        high = [z for z in moves if z.degree > 2]
        for z in high[:50]:
            for member in fiber_enumerate(
                [2 * c for c in A.columns[0]], A
            ).members:
                assert z.apply(member) is None

    def test_minimal_basis_T3(self):
        A = get_design(3, 3)
        mb = minimal_markov_basis(A, 6, 3)
        assert len(mb) == 6
        assert max(z.degree for z in mb) == 2
        ok, _ = is_markov_basis(mb, A, 3)
        assert ok

    def test_minimal_basis_is_inclusion_minimal(self):
        for T, max_degree in ((3, 6), (4, 3)):
            A = get_design(3, T)
            mb = minimal_markov_basis(A, max_degree, 3)
            for i in range(len(mb)):
                reduced = mb[:i] + mb[i + 1 :]
                ok, _ = is_markov_basis(reduced, A, 3)
                assert not ok, f"T={T}: move {mb[i]} is redundant"

    def test_minimal_basis_T4_degree2(self):
        A = get_design(3, 4)
        mb = minimal_markov_basis(A, 3, 3)
        assert max(z.degree for z in mb) == 2

    @pytest.mark.parametrize(
        "T, profile", [(3, {1: 3, 2: 3}), (4, {1: 4, 2: 72}), (5, {1: 18, 2: 210})]
    )
    def test_minimal_basis_degree_profile(self, T, profile):
        A = get_design(3, T)
        mb = minimal_markov_basis(A, 2, 2)
        assert Counter(z.degree for z in mb) == profile
        assert is_markov_basis(mb, A, 2)[0]

    def test_minimal_basis_rejects_too_low_max_degree(self):
        # degree-2 fibers at T=4 need degree-2 moves; the error names the
        # first disconnected fiber as is_markov_basis reports it
        A = get_design(3, 4)
        with pytest.raises(ValueError) as err:
            minimal_markov_basis(A, 1, 2)
        ok, fiber = is_markov_basis(minimal_markov_basis(A, 1, 1), A, 2)
        assert not ok
        assert fiber == {"marginal": [2, 2, 1, 0, 1, 0], "degree": 2, "fiber_size": 2}
        assert str(err.value) == (
            "moves of degree <= 1 do not connect the fiber with "
            "marginal [2, 2, 1, 0, 1, 0], degree 2, fiber size 2"
        )


class TestMovesIO:
    def test_text_roundtrip(self):
        A = get_design(3, 5)
        moves = enumerate_moves(A, 2)[:20]
        text = moves_to_text(moves, A)
        back = moves_from_text(text, A)
        assert sorted(back, key=lambda z: z.entries) == sorted(
            moves, key=lambda z: z.entries
        )

    def test_text_format_shape(self):
        A = get_design(3, 5)
        z = Move.from_multisets(
            widx(A, "13212", "21232"), widx(A, "12132", "12321")
        )
        line = moves_to_text([z], A).strip()
        left, _, right = line.partition("|")
        assert all(tok.startswith("+") for tok in left.split())
        assert all(tok.startswith("-") for tok in right.split())

    def test_json_dict(self):
        A = get_design(3, 5)
        z = Move.from_multisets(
            widx(A, "13212", "21232"), widx(A, "12132", "12321")
        )
        doc = moves_to_json_dict([z], A)[0]
        assert doc["degree"] == 2
        assert set(doc["plus"]) | set(doc["minus"]) == {
            "13212",
            "21232",
            "12132",
            "12321",
        }
