import functools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from oracles import rescored_test, tuple_walk

from thmc.design import get_design
from thmc.markov import Move, enumerate_moves, fiber_enumerate, minimal_markov_basis
from thmc.mcmc import (
    TestResult,
    WalkConfig,
    _FittedModel,
    _G2Run,
    _PearsonRun,
    as_table,
    chi_square_statistic,
    exact_test,
    g2_statistic,
    walk,
)
from thmc.words import Word, pair_index


def wtable(A, *texts):
    return as_table(Counter(Word.from_text(t) for t in texts), A)


def marginal(table, A):
    return tuple(sum(A.columns[j][i] for j in table) for i in range(A.dim))


def direct_expected(table, A):
    """Expected count N * prod phat of every word under the pooled transition
    fit of table, reimplemented from the definition."""
    b = marginal(table, A)
    out = {s: 0 for s in range(1, A.S + 1)}
    for (i, j), k in pair_index(A.S).items():
        out[i] += b[k]
    phat = {
        (i, j): Fraction(b[k], out[i]) if out[i] else Fraction(0)
        for (i, j), k in pair_index(A.S).items()
    }
    expected = []
    for w in A.words:
        mass = Fraction(1)
        for a, bb in zip(w, w[1:]):
            mass *= phat[(a, bb)]
        expected.append(len(table) * mass)
    return expected


def direct_pearson(table, A):
    """sum (u - e)^2 / e term by term over every word of positive fitted mass."""
    counts = Counter(table)
    stat = Fraction(0)
    for j, e in enumerate(direct_expected(table, A)):
        if e == 0:
            assert counts.get(j, 0) == 0
            continue
        stat += (counts.get(j, 0) - e) ** 2 / e
    return stat


def direct_g2(table, A):
    expected = direct_expected(table, A)
    total = 0.0
    for j, u_j in Counter(table).items():
        total += 2.0 * u_j * math.log(u_j / float(expected[j]))
    return total


DIRECT = {"pearson": direct_pearson, "g2": direct_g2}


def kept_by_filter(t0, moves, cfg, A):
    """The sampled tables, picked out of the whole walk one step at a time."""
    return [
        state
        for step, state in enumerate(walk(t0, moves, cfg, A))
        if step >= cfg.burn_in and (step - cfg.burn_in) % cfg.thinning == 0
    ]


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            WalkConfig(seed=1, steps=10, burn_in=10)
        with pytest.raises(ValueError):
            WalkConfig(seed=1, steps=10, thinning=0)
        with pytest.raises(ValueError):
            WalkConfig(seed=1, steps=10, burn_in=-1)


class TestStatistic:
    def test_single_word_finite(self):
        A = get_design(3, 5)
        val = chi_square_statistic(Counter([Word.from_text("12132")]), A)
        assert val >= 0

    def test_exactly_fitted_data_scores_zero(self):
        # expected counts N*phat_w match the table exactly when the fitted
        # mass concentrates where the data sits: both steps out of state 1,
        # once each, fit phat = 1/2 both ways and expect 1 = observed
        A = get_design(3, 2)
        u = Counter([Word.from_text("12"), Word.from_text("13")])
        assert chi_square_statistic(u, A) == 0

    def test_full_word_multiset_statistic_value(self):
        # one copy of every word at T=4: the fit is uniform 1/2 per step, so
        # every word has expected count 24/8 = 3 and the statistic is
        # 24*(1-3)^2/3 = 32 exactly
        A = get_design(3, 4)
        val = chi_square_statistic(Counter(A.words), A)
        assert val == Fraction(32)

    @pytest.mark.parametrize("T", range(3, 7))
    def test_total_mass_is_the_sum_of_word_masses(self, T):
        # Pearson's off-support term reads the fitted mass of all words from
        # a transfer-matrix product; summed word by word it must agree, and
        # with every state left at least once each start state carries mass 1
        A = get_design(3, T)
        rng = random.Random(T)
        table = tuple(sorted(rng.randrange(len(A.words)) for _ in range(7)))
        model = _FittedModel(table, A)
        expected = [model.expected(j) for j in range(len(A.words))]
        assert model.N * model.total_mass == sum(expected)
        assert expected == direct_expected(table, A)
        assert model.total_mass == 3

    def test_exact_value_against_direct_formula(self):
        A = get_design(3, 5)
        table = wtable(A, "12132", "12321")
        assert chi_square_statistic(Counter({Word.from_text("12132"): 1, Word.from_text("12321"): 1}), A) == direct_pearson(table, A)

    @pytest.mark.parametrize(
        "T, texts",
        [
            (4, ("1212", "1321", "1321")),
            (4, ("1231", "1321", "2132")),
            (5, ("12132", "12321", "13212")),
            (5, ("12121", "12131", "31212", "21213")),
        ],
    )
    def test_closed_form_on_whole_fibers(self, T, texts):
        # the closed form sum u^2/e + N*total_mass - 2N against the term-by-term
        # sum (u-e)^2/e on every table of the fiber, each scored by a scorer
        # built on its own counts; all but the second marginal have a zero
        # transition, so some words have zero fitted mass
        A = get_design(3, T)
        t0 = wtable(A, *texts)
        members = fiber_enumerate(marginal(t0, A), A).members
        assert len(members) > 1
        for m in members:
            assert _PearsonRun(m, A, ()).observed == direct_pearson(m, A)
            assert _G2Run(m, A, ()).observed == direct_g2(m, A)

    def test_observed_word_of_zero_fitted_mass_raises(self, monkeypatch):
        # real data cannot do this (an observed transition has a positive
        # fitted frequency); the scorer must refuse the word, not drop it
        A = get_design(3, 5)
        table = wtable(A, "12132", "12321")
        expected = _FittedModel.expected
        monkeypatch.setattr(
            _FittedModel,
            "expected",
            lambda self, j: Fraction(0) if j == table[0] else expected(self, j),
        )
        with pytest.raises(AssertionError, match="zero fitted mass"):
            chi_square_statistic(table, A)

    def test_g2_nonnegative_ish(self):
        A = get_design(3, 5)
        val = g2_statistic(Counter([Word.from_text("12132"), Word.from_text("12321")]), A)
        assert math.isfinite(val)


class TestWalk:
    def test_requires_moves(self):
        A = get_design(3, 5)
        cfg = WalkConfig(seed=1, steps=5)
        with pytest.raises(ValueError):
            list(walk(wtable(A, "12132"), [], cfg, A))

    def test_fiber_preservation_and_nonnegativity(self):
        A = get_design(3, 5)
        moves = enumerate_moves(A, 2)
        t0 = wtable(A, "12132", "12321", "13212")
        b0 = [0] * 6
        for j in t0:
            for i, c in enumerate(A.columns[j]):
                b0[i] += c
        cfg = WalkConfig(seed=9, steps=2000)
        for state in walk(t0, moves, cfg, A):
            assert len(state) == len(t0)
            b = [0] * 6
            for j in state:
                for i, c in enumerate(A.columns[j]):
                    b[i] += c
            assert b == b0

    def test_reproducibility(self):
        A = get_design(3, 5)
        moves = enumerate_moves(A, 2)
        t0 = wtable(A, "12132", "12321")
        cfg = WalkConfig(seed=123, steps=500)
        s1 = list(walk(t0, moves, cfg, A))
        s2 = list(walk(t0, moves, cfg, A))
        assert s1 == s2
        s3 = list(walk(t0, moves, WalkConfig(seed=124, steps=500), A))
        assert s1 != s3

    def test_visits_figure_companion(self):
        from thmc.markov import minimal_markov_basis

        A = get_design(3, 5)
        moves = minimal_markov_basis(A, 2, 2)
        t0 = wtable(A, "12132", "12321")
        companion = wtable(A, "13212", "21232")
        cfg = WalkConfig(seed=5, steps=30_000)
        assert companion in set(walk(t0, moves, cfg, A))

    def test_signed_draw_matches_two_branch_choice(self):
        # the walk draws index k of 2 * len(moves) and applies moves[k] for
        # k < len(moves), else the negation of moves[k - len(moves)]
        A = get_design(3, 5)
        moves = enumerate_moves(A, 2)
        t0 = wtable(A, "12132", "12321", "13212")
        cfg = WalkConfig(seed=17, steps=5000)
        rng = random.Random(cfg.seed)
        nm = len(moves)
        table = t0
        expected = []
        for _ in range(cfg.steps):
            k = rng.randrange(2 * nm)
            z = moves[k % nm] if k < nm else moves[k % nm].negated()
            nxt = z.apply(table)
            if nxt is not None:
                table = nxt
            expected.append(table)
        assert list(walk(t0, moves, cfg, A)) == expected

    @pytest.mark.parametrize("size", [1, 2, 3, 4])
    def test_draw_matches_randrange_oracle(self, size):
        # 1, 2 and 4 moves give 2, 4 and 8 signed proposals, where half of
        # the getrandbits draws are rejected; 3 moves give 6.  Starting from
        # both sides of every move, each signed proposal applies at first.
        A = get_design(3, 5)
        basis = minimal_markov_basis(A, 2, 2)
        for seed in range(1, 6):
            moves = basis[seed * size:(seed + 1) * size]
            t0 = tuple(sorted(j for z in moves for j in z.plus + z.minus))
            cfg = WalkConfig(seed=seed, steps=2000)
            stream = list(walk(t0, moves, cfg, A))
            assert stream == list(tuple_walk(t0, moves, cfg, A))
            assert len(set(stream)) > 1

    def test_steps_make_no_randrange_call(self, monkeypatch):
        # each proposal is drawn from getrandbits in the stepping loop itself
        def randrange(*args):
            raise AssertionError("the walk called randrange")

        A = get_design(3, 5)
        moves = minimal_markov_basis(A, 2, 2)
        t0 = wtable(A, "12132", "12321", "13212")
        cfg = WalkConfig(seed=3, steps=500, burn_in=50)
        monkeypatch.setattr(random.Random, "randrange", randrange)
        assert len(list(walk(t0, moves, cfg, A))) == cfg.steps
        for statistic in ("pearson", "g2"):
            assert exact_test(t0, A, moves, cfg, statistic=statistic).samples == 450

    def test_uniform_stationary_distribution(self):
        # fully enumerated small fiber: empirical visit frequencies approach
        # uniform; total variation within 0.05 under the minimal basis
        from thmc.markov import _multisets_by_marginal, minimal_markov_basis

        A = get_design(3, 4)
        moves = minimal_markov_basis(A, 2, 3)
        members = next(
            ms
            for ms in _multisets_by_marginal(A, 2, 10**6).values()
            if len(ms) == 15
        )
        t0 = members[0]
        counts = Counter()
        cfg = WalkConfig(seed=31, steps=400_000, burn_in=2000)
        for step, state in enumerate(walk(t0, moves, cfg, A)):
            if step >= cfg.burn_in:
                counts[state] += 1
        n = sum(counts.values())
        f = len(members)
        tv = 0.5 * sum(abs(counts.get(m, 0) / n - 1 / f) for m in members)
        assert set(counts) <= set(members)
        assert tv <= 0.05, tv


class TestExactTest:
    def test_single_table_fiber_pvalue_one(self):
        A = get_design(3, 4)
        # a marginal reached by exactly one table: three copies of one word
        t0 = wtable(A, "1212", "1212", "1212")
        fib = fiber_enumerate(
            tuple(sum(A.columns[j][i] for j in t0) for i in range(6)), A
        )
        assert len(fib.members) == 1
        moves = enumerate_moves(A, 2)
        res = exact_test(t0, A, moves, WalkConfig(seed=3, steps=500))
        assert res.p_value == 1.0

    def test_extreme_tables_of_enumerated_fiber(self):
        A = get_design(3, 5)
        moves = enumerate_moves(A, 2)
        t0 = wtable(A, "12132", "12321")
        fib = fiber_enumerate(marginal(t0, A), A)
        stats = {m: chi_square_statistic(m, A) for m in fib.members}
        lo = min(fib.members, key=lambda m: (stats[m], m))
        hi = max(fib.members, key=lambda m: (stats[m], m))
        cfg = WalkConfig(seed=11, steps=30_000, burn_in=500)
        res_lo = exact_test(lo, A, moves, cfg)
        # minimizer: every sampled table scores >= it, p near 1
        assert res_lo.p_value > 0.9
        res_hi = exact_test(hi, A, moves, cfg)
        # maximizer: p approaches (multiplicity of max) / fiber size
        mult = sum(1 for m in fib.members if stats[m] == stats[hi])
        target = mult / len(fib.members)
        assert abs(res_hi.p_value - target) < 0.05
        assert res_hi.std_error < 0.01

    def test_result_fields(self):
        A = get_design(3, 5)
        moves = enumerate_moves(A, 2)
        t0 = wtable(A, "12132", "12321", "32131")
        res = exact_test(
            t0, A, moves, WalkConfig(seed=7, steps=2000, burn_in=100, thinning=4)
        )
        assert res.samples == (2000 - 100 + 3) // 4
        assert 0 <= res.p_value <= 1
        assert res.sample_min <= res.sample_mean <= res.sample_max
        assert res.observed_exact is not None
        doc = res.to_dict()
        assert doc["statistic"] == "pearson"

    @pytest.mark.parametrize("statistic", ["pearson", "g2"])
    def test_one_pass_against_stepwise_rescoring(self, statistic):
        # every kept step of an independent re-walk, scored from scratch by the
        # direct formula, gives the test's values and every summary field
        A = get_design(3, 5)
        moves = enumerate_moves(A, 2)
        t0 = wtable(A, "12132", "12321", "32131")
        cfg = WalkConfig(seed=7, steps=3000, burn_in=100, thinning=3)
        res = exact_test(t0, A, moves, cfg, statistic=statistic)
        direct = DIRECT[statistic]
        observed = direct(t0, A)
        stats = [direct(state, A) for state in kept_by_filter(t0, moves, cfg, A)]
        floats = [float(v) for v in stats]
        total = 0.0
        for v in floats:
            total += v
        assert list(res.values) == floats
        assert res.samples == len(stats) == len(range(cfg.burn_in, cfg.steps, cfg.thinning))
        assert res.p_value == (1 + sum(v >= observed for v in stats)) / (1 + len(stats))
        assert res.sample_min == min(floats)
        assert res.sample_max == max(floats)
        assert res.sample_mean == total / len(floats)
        assert "values" not in res.to_dict()

    @pytest.mark.parametrize("statistic", ["pearson", "g2"])
    def test_scores_each_visited_table_once(self, statistic, monkeypatch):
        # the observed table is scored in full, once, when the scorer is
        # built; after that the running statistic takes every accepted move
        # and is read at each kept step the walk has moved since the kept
        # step before it (the first kept step is compared with the observed
        # table)
        A = get_design(3, 5)
        moves = enumerate_moves(A, 2)
        t0 = wtable(A, "12132", "12321", "32131")
        cfg = WalkConfig(seed=7, steps=3000, burn_in=100, thinning=3)
        scored, moved, sampled = [], [], []
        run = {"pearson": _PearsonRun, "g2": _G2Run}[statistic]
        build, update, sample = run.__init__, run.moved, run.sample

        def counted(self, table, A, moves):
            scored.append(table)
            return build(self, table, A, moves)

        def counted_update(self, counts, entries):
            moved.append(entries)
            return update(self, counts, entries)

        def counted_sample(self, counts):
            sampled.append(dict(counts))
            return sample(self, counts)

        monkeypatch.setattr(run, "__init__", counted)
        monkeypatch.setattr(run, "moved", counted_update)
        monkeypatch.setattr(run, "sample", counted_sample)
        res = exact_test(t0, A, moves, cfg, statistic=statistic)
        accepted = changed = 0
        prev, since = t0, False
        kept = []
        for step, state in enumerate(tuple_walk(t0, moves, cfg, A)):
            if state != prev:  # a move is nonzero: accepted iff the table changes
                accepted += 1
                prev, since = state, True
            if step >= cfg.burn_in and (step - cfg.burn_in) % cfg.thinning == 0:
                if since:
                    kept.append(state)
                changed += since
                since = False
        assert scored == [t0]
        assert len(moved) == accepted
        assert len(sampled) == changed
        assert [Counter(state) for state in kept] == sampled
        assert 0 < changed < res.samples

    def test_return_to_observed_counts_as_a_tie(self):
        # one move between two tables of the fiber: the walk leaves the
        # observed table and comes back; each return must read the observed
        # X^2 = 277/27, which no float equals, and count in the tail
        A = get_design(3, 4)
        t0 = wtable(A, "1213", "1232", "2323")
        t1 = wtable(A, "1232", "1323", "2123")
        moves = [Move.from_multisets(t1, t0)]
        assert chi_square_statistic(t1, A) < chi_square_statistic(t0, A) == Fraction(277, 27)
        cfg = WalkConfig(seed=3, steps=200)
        res = exact_test(t0, A, moves, cfg)
        states = list(walk(t0, moves, cfg, A))
        returns = [k for k in range(1, len(states)) if states[k] == t0 != states[k - 1]]
        assert returns
        observed = float(chi_square_statistic(t0, A))
        assert [res.values[k] for k in returns] == [observed] * len(returns)
        assert res.p_value == (1 + states.count(t0)) / (1 + len(states))

    def test_g2_variant_runs(self):
        A = get_design(3, 5)
        moves = enumerate_moves(A, 2)
        t0 = wtable(A, "12132", "12321")
        res = exact_test(t0, A, moves, WalkConfig(seed=2, steps=1000), statistic="g2")
        assert 0 <= res.p_value <= 1
        assert res.observed_exact is None

    def test_unknown_statistic(self):
        A = get_design(3, 5)
        with pytest.raises(ValueError):
            exact_test(
                wtable(A, "12132"),
                A,
                enumerate_moves(A, 2),
                WalkConfig(seed=1, steps=10),
                statistic="wilks",
            )


ORACLE_GRID = [
    (T, basis, N, statistic, burn_in, thinning, seed)
    for T in (4, 5, 6)
    for basis in ("minimal", "enumerated")
    for N in (2, 3, 10, 30)
    for statistic in ("pearson", "g2")
    for burn_in, thinning in ((0, 1), (0, 3), (100, 1), (100, 3))
    for seed in (1, 2)
]


@functools.lru_cache(maxsize=None)
def basis_moves(T, basis):
    A = get_design(3, T)
    return minimal_markov_basis(A, 2, 2) if basis == "minimal" else enumerate_moves(A, 2)


class TestAgainstRescoringOracle:
    """The count-vector walk and the move-by-move statistic against the walk
    on sorted tuples with each changed kept table scored in full, on a seeded
    subset of the grid above."""

    @pytest.mark.parametrize(
        "case", random.Random(19).sample(ORACLE_GRID, 24), ids=lambda c: "-".join(map(str, c))
    )
    def test_same_stream_and_result(self, case):
        T, basis, N, statistic, burn_in, thinning, seed = case
        A = get_design(3, T)
        moves = basis_moves(T, basis)
        rng = random.Random(100 * T + N)
        t0 = tuple(sorted(rng.randrange(len(A.words)) for _ in range(N)))
        cfg = WalkConfig(seed=seed, steps=1500, burn_in=burn_in, thinning=thinning)
        assert list(walk(t0, moves, cfg, A)) == list(tuple_walk(t0, moves, cfg, A))
        res = exact_test(t0, A, moves, cfg, statistic=statistic)
        ref = rescored_test(t0, A, moves, cfg, statistic)
        assert res.to_dict() == ref.to_dict()
        assert list(res.values) == list(ref.values)
