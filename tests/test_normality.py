import hashlib
import json
import random
import sys
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

import thmc.normality
from oracles import max_loop_coefficients
from thmc.cli import main
from thmc.design import column_table, get_design
from thmc.exactla import simplex_standard
from thmc.facets import LOOP_RAYS, model_hull, q_polyhedron, q_vertices
from thmc.normality import (
    _compositions,
    _glue,
    _home_slots,
    _peel,
    _point_index,
    _point_indices,
    _prefix_bounds,
    check_normality,
    s4_nonnormality_probe,
    saturation_points,
    witness_by_induction,
)
from thmc.polytope import HPolyhedron, affine_equations
from thmc.words import (
    CapExceededError,
    Word,
    check_split,
    decompose_into_paths,
    state_graph,
    symmetry_group,
    transition_counts,
)


def degree_rows(T, n, hull):
    """The degree-n slice of `saturation_points`, which lists every degree
    1..n: the rows of coordinate sum n(T-1)."""
    X = saturation_points(T, n, hull)
    return X[X.sum(axis=1) == n * (T - 1)]


def point_tuples(T, n, S=3):
    return [tuple(x) for x in degree_rows(T, n, model_hull(T, S)).tolist()]


class TestSaturationPoints:
    @pytest.mark.parametrize("T", range(4, 9))
    def test_degree_one_equals_distinct_columns(self, T):
        pts = sorted(point_tuples(T, 1))
        assert pts == get_design(3, T).distinct_columns()

    def test_T3_no_exceptional_points(self):
        # the lattice-point identity is only claimed from T=4 up, but the
        # enumeration shows no exceptional degree-1 points at T=3 either
        pts = sorted(point_tuples(3, 1))
        assert pts == get_design(3, 3).distinct_columns()

    def test_degree_two_contains_pairwise_sums(self):
        T = 5
        pts = set(point_tuples(T, 2))
        cols = get_design(3, T).distinct_columns()
        rng = random.Random(1)
        for _ in range(50):
            c1, c2 = rng.choice(cols), rng.choice(cols)
            assert tuple(a + b for a, b in zip(c1, c2)) in pts

    def test_cap(self, monkeypatch):
        monkeypatch.setattr(thmc.normality, "DEFAULT_POINT_CAP", 10)
        with pytest.raises(CapExceededError, match="exceeds cap 10"):
            saturation_points(10, 3, model_hull(10, 3))

    def test_int64_overflow_raises_cap(self):
        # 4 * 10^17 * 6 times the largest facet entry passes 2^62: an explicit
        # raise, so the guard holds under python -O too
        with pytest.raises(CapExceededError, match="exceeds cap 2\\^62 of int64"):
            saturation_points(5, 10**17, model_hull(5, 3))

    def test_one_hull_per_T(self):
        # the facet check and the saturation filter read the same cached hull
        from thmc.facets import hull_facets_homogeneous

        model_hull.cache_clear()
        hull_facets_homogeneous(7)
        saturation_points(7, 1, model_hull(7, 3))
        assert model_hull.cache_info().misses == 1

    @pytest.mark.parametrize(
        "S,T,n_max,hulls",
        [(3, 3, 4, 0), (3, 4, 4, 0), (3, 7, 3, 0), (4, 4, 2, 1)],
        ids=["3-3-4", "3-4-4", "3-7-3", "4-4-2"],
    )
    def test_one_hull_per_check(self, S, T, n_max, hulls, monkeypatch):
        # every degree's bounds are read off the listed polyhedron's own
        # rows: at S = 3 the 24 facet rows, for every T, which need no double
        # description while every point is reached; elsewhere the model hull
        calls = []
        for module in [m for name, m in sys.modules.items() if name.startswith("thmc")]:
            if hasattr(module, "convex_hull"):
                real = module.convex_hull
                monkeypatch.setattr(
                    module, "convex_hull",
                    lambda *args, real=real, **kwargs: calls.append(args) or real(*args, **kwargs),
                )
        model_hull.cache_clear()
        check_normality(T, n_max, S=S)
        assert len(calls) == hulls

    @pytest.mark.parametrize(
        "T,count,total",
        [(12, 84_582, 111_864), (18, 298_092, 391_527)],
        ids=["12-84582", "18-298092"],
    )
    def test_point_counts_at_degree_four(self, T, count, total, monkeypatch):
        # the cap bounds points over all degrees <= 4, not the C(4(T-1)+5, 5)
        # compositions
        hull = model_hull(T, 3)
        monkeypatch.setattr(thmc.normality, "DEFAULT_POINT_CAP", total)
        X = saturation_points(T, 4, hull)
        assert len(X) == total
        assert (X.sum(axis=1) == 4 * (T - 1)).sum() == count
        monkeypatch.setattr(thmc.normality, "DEFAULT_POINT_CAP", total - 1)
        with pytest.raises(CapExceededError, match="exceeds cap"):
            saturation_points(T, 4, hull)

    def test_cap_counts_every_degree(self, monkeypatch):
        # the degree-4 points alone fit the cap, the listing of degrees
        # 1..4 does not
        monkeypatch.setattr(thmc.normality, "DEFAULT_POINT_CAP", 84_582)
        with pytest.raises(CapExceededError, match="exceeds cap 84582"):
            saturation_points(12, 4, model_hull(12, 3))

    @pytest.mark.parametrize("S,T,n", [(3, 9, 3), (3, 12, 2), (2, 6, 3), (4, 4, 2)])
    def test_rows_strictly_increase(self, S, T, n):
        # each row's first difference from the row before it is positive
        steps = np.diff(degree_rows(T, n, model_hull(T, S)), axis=0)
        first = (steps != 0).argmax(axis=1)
        assert (steps[np.arange(len(steps)), first] > 0).all()

    @pytest.mark.parametrize("S,T,n", [(3, 9, 3), (3, 12, 2), (2, 6, 3), (4, 4, 2)])
    def test_rows_strictly_increase_in_degree_then_point(self, S, T, n):
        # the rows prefixed by their degrees: every degree 1..n, degree-major,
        # each row's first difference from the row before it positive
        X = saturation_points(T, n, model_hull(T, S))
        degree = X.sum(axis=1) // (T - 1)
        assert (X.sum(axis=1) == degree * (T - 1)).all()
        assert set(degree.tolist()) == set(range(1, n + 1))
        steps = np.diff(np.column_stack((degree, X)), axis=0)
        first = (steps != 0).argmax(axis=1)
        assert (steps[np.arange(len(steps)), first] > 0).all()

    @pytest.mark.parametrize("S,T,n", [(3, 5, 2), (3, 8, 3), (4, 4, 1)])
    def test_tampered_projection_row_raises(self, S, T, n, monkeypatch):
        # the last level, P's rows with x_dim substituted (the projection of
        # P on its first dim-1 coordinates), loosened by one in every row
        # lets points outside nP through; the exact re-check must raise,
        # never return them
        import thmc.normality

        def loose(hull, T):
            *levels, (A, b) = _prefix_bounds(hull, T)
            return [*levels, (A, b - 1)]

        monkeypatch.setattr(thmc.normality, "_prefix_bounds", loose)
        with pytest.raises(AssertionError, match="outside"):
            saturation_points(T, n, model_hull(T, S))

    # sha256 digests of the rows at degrees 1..4, computed while the ranges
    # were still read off the facets of P's projections
    ROW_DIGESTS = {
        (3, 3): "04e905a1c316ea45aaf061892c915e08500ce8d1f26e92935ee7bdb49b9be4e8",
        (3, 4): "0c7aebcd4a8e001b0e3945518a03dd0b19b652d7f0004f5fdb2311e56499db60",
        (3, 5): "024d2128433cd90dabafcf6a5f964fb074eb2aee3ddd041a51495632b247b0c4",
        (3, 6): "58eec146639d2b736163be2ad726bd7e50c81fbbfe4043ad3376d4e0e9392a75",
        (3, 7): "946bbda105eb227f83802f29929b1cd20c4f14c32601497e25cd3e804bb1ea62",
        (3, 8): "26c3d3aae3512c0d13e01933ddb09da7b2ec8e65d58de05cedcc0b346971c480",
        (3, 9): "9fc73917b924e68332434abd23eab2df653ce52b55ccd26756cd5480cd38c2c7",
        (3, 10): "b7ae1f124c9efa95b978d7eb183a5243a4cac520011048069c5ec63c7ac7cc39",
        (3, 11): "d0e4aba9d1faa50c4cb53d7e0d7cf9485b78673ab63f3f3e030d04848638ce25",
        (3, 12): "16b84faf4c406a908ac88bf019e9e954a7fa010577217ebfbc9646250a6e7b45",
        (2, 3): "b70f4fc84bb92af80b9aef76a39bfd800e129b32777e81e9decaff3b4dee1b41",
        (2, 4): "73dc00db3e8012b884eb494d8a89b488db53521999eb1cd26b385a9e780fa4f7",
        (2, 5): "93b14d7d8507aaa0451d4aa7dcf52c5ae21e04b64e91b90f049d4c5a5f8da9b4",
        (2, 6): "bd1b490d821aa85da4ab3ee8f9b6bc96c86d07e35398601505d7dd14b8a93bc8",
        (2, 7): "63da1602a8311d3e796667cdb7e9b8a6260b52eef7d6083449469a36a2d20fb4",
        (2, 8): "b24ce4bc7293551d8eacb446647fea5320b473b5754bff30cc38daa904c01671",
        (2, 9): "c33aefed3a8b990507473d5e66db33ab41f6a196420f54325835f830dbbdf3a7",
    }
    FOUR_STATE_DIGESTS = {
        (3, (1, 2)): "5bf5bcdc14fee43e9740302688eebe45408ada2c2bec834fb6b75fc564357ad6",
        (4, (1, 2)): "4f9e024cf26ed55b2c4ea5514dad11822e1c962bb646d5ee67eee92395be983d",
        (5, (1,)): "0427393f34090b5d61e5deeac89785fab5fbcc6f4e5b39f3eefe9de5a30d6158",
    }

    @staticmethod
    def _row_digest(T, S, degrees):
        h = hashlib.sha256()
        for n in degrees:
            X = degree_rows(T, n, model_hull(T, S))
            h.update(f"{n}:{X.shape}\n".encode())
            h.update(X.astype("<i8").tobytes())
        return h.hexdigest()

    @pytest.mark.parametrize("S,T", list(ROW_DIGESTS))
    def test_rows_are_pinned(self, S, T):
        assert self._row_digest(T, S, (1, 2, 3, 4)) == self.ROW_DIGESTS[S, T]

    @pytest.mark.parametrize("T,degrees", list(FOUR_STATE_DIGESTS))
    def test_four_state_rows_are_pinned(self, T, degrees):
        assert self._row_digest(T, 4, degrees) == self.FOUR_STATE_DIGESTS[T, degrees]

    def test_rows_are_pinned_at_T18(self):
        assert self._row_digest(18, 3, (4,)) == (
            "87c297e10533fa0eafcb2da0c6d60a37d5ad824110c233eb1fbf5cd2ba49f7a1"
        )

    @pytest.mark.parametrize(
        "S,T,n",
        [(3, T, n) for T in range(3, 9) for n in (1, 2, 3)]
        + [(4, 3, 1), (4, 3, 2), (4, 4, 1)]
        # at odd T the S = 2 polytope is one point, cut out by equations only
        + [(2, T, n) for T in range(3, 8) for n in (1, 2, 3)],
    )
    def test_equals_brute_force_filter(self, S, T, n):
        # the reference: every composition, the exact lattice test, then the
        # hull's inequalities
        from thmc.polytope import in_dilation
        from oracles import compositions

        A = get_design(S, T)
        hull = model_hull(T, S)
        expected = [
            x
            for x in compositions(n * (T - 1), A.dim)
            if list(x) in A.lattice and in_dilation(hull, x, n)
        ]
        got = degree_rows(T, n, hull)
        assert got.dtype == np.int64 and got.shape == (len(expected), A.dim)
        assert got.tolist() == [list(x) for x in expected]

    @pytest.mark.parametrize("S,T,n", [(3, 5, 2), (3, 6, 2), (3, 7, 1), (4, 3, 2)])
    def test_group_maps_points_onto_themselves(self, S, T, n):
        points = set(point_tuples(T, n, S=S))
        for g in symmetry_group(S):
            assert {g.vector(x) for x in points} == points

    def test_dilation_identity(self):
        # integer points of the cone on the sum-n(T-1) slice are exactly the
        # n-dilated polytope points; cross-check the inequality route against
        # LP membership in the V-form, both directions, on a drawn sample
        from oracles import compositions, membership
        from thmc.polytope import convex_hull, in_dilation, vertex_enumeration

        rng = random.Random(17)
        for T, n in ((5, 2), (5, 3), (6, 2), (7, 2), (8, 2)):
            A = get_design(3, T)
            V = vertex_enumeration(convex_hull(A.distinct_columns()))
            hull = model_hull(T, 3)
            cands = [
                x
                for x in compositions(n * (T - 1), 6)
                if rng.random() < 0.02
            ]
            inside = outside = 0
            for x in cands:
                scaled = tuple(Fraction(c, n) for c in x)
                in_by_ineq = in_dilation(hull, x, n)
                if in_by_ineq:
                    inside += 1
                else:
                    outside += 1
                if inside > 20 and outside > 20:
                    break
                assert in_by_ineq == membership(scaled, V)
            assert inside and outside


class TestCheckNormality:
    @pytest.mark.parametrize("T,n_max", [(3, 3), (5, 3), (8, 2)])
    def test_normal_at_desk_scale(self, T, n_max):
        rep = check_normality(T, n_max)
        assert rep["ok"]
        assert rep["failures"] == []
        assert rep["points_checked"] > 0

    def test_witnesses_reproduce_counts(self):
        rep = check_normality(4, 2, keep_witnesses=True)
        assert rep["ok"]
        for x, paths in rep["witnesses"].items():
            assert state_graph(Counter(paths), 3) == x
            assert all(len(w) == 4 for w in paths)

    # the sumset's holes are the points the exhaustive trail search cannot split
    @pytest.mark.parametrize(
        "S,T,n_max", [(3, T, 2) for T in range(3, 7)] + [(4, 4, 2)]
    )
    def test_agrees_with_path_oracle(self, S, T, n_max):
        rep = check_normality(T, n_max, S=S)
        holes = {(tuple(f["x"]), f["n"]) for f in rep["failures"]}
        points = [(x, n) for n in range(1, n_max + 1) for x in point_tuples(T, n, S=S)]
        assert rep["points_checked"] == len(points)
        for x, n in points:
            assert ((x, n) in holes) == (decompose_into_paths(x, n, T) is None), (x, n)

    def test_four_state_holes_are_failures(self):
        # S = 4 is not normal: holes at degree 2 for T = 4, at degree 1 for T = 5
        rep = check_normality(4, 2, S=4)
        assert not rep["ok"] and {f["n"] for f in rep["failures"]} == {2}
        assert {"x": [0, 0, 1, 0, 2, 0, 0, 2, 0, 1, 0, 0], "n": 2} in rep["failures"]
        rep = check_normality(5, 1, S=4)
        assert rep["failures"] == [
            {"x": [0, 0, 1, 0, 1, 0, 0, 1, 0, 1, 0, 0], "n": 1},
            {"x": [0, 1, 0, 0, 0, 1, 1, 0, 0, 0, 1, 0], "n": 1},
            {"x": [1, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 1], "n": 1},
        ]

    def test_runs_no_path_search(self, monkeypatch):
        # no trail search and no per-witness check_split: the witnesses are
        # re-checked all at once, and each one passes check_split afterwards
        import thmc.normality

        def decompose(*args):
            raise AssertionError("check_normality ran the trail search")

        def per_witness(*args):
            raise AssertionError("check_normality re-checked one witness at a time")

        monkeypatch.setattr(thmc.normality, "decompose_into_paths", decompose)
        monkeypatch.setattr(thmc.normality, "check_split", per_witness)
        rep = check_normality(5, 3, keep_witnesses=True)
        assert rep["ok"] and len(rep["witnesses"]) == rep["points_checked"]
        for x, words in rep["witnesses"].items():
            check_split(words, x, sum(x) // 4, 5, 3)

    def test_builds_no_composition(self, monkeypatch):
        # the points come from the hull's prefix bounds; only the four-state
        # probe scans compositions
        import thmc.normality

        def compositions(*args):
            raise AssertionError("check_normality built a composition")

        monkeypatch.setattr(thmc.normality, "_compositions", compositions)
        for S, T, n_max in ((3, 5, 3), (2, 6, 2), (4, 4, 2)):
            assert check_normality(T, n_max, S=S)["points_checked"] > 0

    @pytest.mark.parametrize(
        "S,T,n_max,dim,exact",
        [(3, 5, 3, 5, False), (3, 5, 4, 5, True), (3, 3, 4, 5, True),
         # at odd T the S = 2 polytope is one point, so degree 1 decides
         (2, 5, 1, 0, True)],
    )
    def test_exact_from_the_polytope_dimension(self, S, T, n_max, dim, exact):
        rep = check_normality(T, n_max, S=S)
        assert rep["polytope_dim"] == dim and rep["exact"] is exact
        if exact:
            assert "Bruns-Gubeladze-Trung 1997, Thm 1.3.3" in rep["scope"]
        else:
            assert rep["scope"].startswith(f"degrees n <= {n_max} only")

    @pytest.mark.parametrize("n_max", [0, -1])
    def test_no_degree_raises(self, n_max):
        # a check of no degree would read ok with nothing checked
        with pytest.raises(ValueError, match="n_max must be >= 1"):
            check_normality(5, n_max)
        with pytest.raises(ValueError, match="degree must be >= 1"):
            saturation_points(5, n_max, model_hull(5, 3))

    def test_key_overflow_raises_before_hull_work(self, monkeypatch):
        # 5^42 >= 2^63: the keys of a 42-coordinate vector would wrap
        import thmc.normality

        def hull(*args):
            raise AssertionError("hull computed before the overflow guard")

        monkeypatch.setattr(thmc.normality, "model_hull", hull)
        with pytest.raises(CapExceededError, match="exceeds cap 2\\^63"):
            check_normality(3, 2, S=7)

    # sha256 digests computed before the sumset was indexed by the points:
    # the reports, the witness words and the four-state holes stay the same
    REPORT_DIGESTS = {
        3: "7db3c9394cb051ca771453ecc380779e7985c960f877e621ce07c044f02989c2",
        4: "8cde6741358f7db024f1ca93b001cc26d78252c6adbe6da71d23428c15aafd81",
        5: "4df030fe4c7156dfb5ee3233a4c08071d7fbe200978c31ced5f89249069714f0",
        6: "60b83f57b4c849c5287fbfcc152b788f2dfd6ad9210556a2d79da32d419b0e15",
        7: "99164ac7599605fd2fd8ce2d53bc5c802f37cb7f00e7b019ae4d97d830e0d809",
        8: "468d0838632cb49f6f7cc80ec4705429a9a735bd8e0cbb100c621ba801ac1566",
        9: "bc255ae4b8f73a157511b5c5dd4d499bf503f807da70034eff7fe1130b6424fe",
        10: "18e29dc1f90278d61b7b9015c346961f743d7a50f7ae10d748017a90dc98eb43",
        11: "ea7cb0fd3ecc01a547e5c55415db2dd7fe37b31105bafcc10ce0af51fa761d09",
        12: "b2a62d81a4201f8d985a2109d7dfa7d568a51015867a7350adaf3b17fdbc45ff",
    }
    WORDS_DIGESTS = {
        5: "54fc01f74dce0c6de3716ed0ab5da58f28e9ac5123922689f6e045a209aada66",
        8: "8f665abfea3385004ded8c7210a9c08248a226a0ec4a28a1e5eb8812da66317c",
        12: "4c9c024f567cf4944f784a2470fb63ba85d9d1b42dfcf2f36136dbe78e3bf737",
    }

    @pytest.mark.parametrize("T", range(3, 13))
    def test_report_bytes_are_pinned(self, T):
        text = json.dumps(check_normality(T, 4), sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == self.REPORT_DIGESTS[T]

    @pytest.mark.parametrize("T", [5, 8, 12])
    def test_witness_words_are_pinned(self, T, tmp_path):
        args = ["normality", "-T", str(T), "--n-max", "4", "--witnesses"]
        assert main(args + ["--out-dir", str(tmp_path)]) == 0
        data = (tmp_path / f"normality-witnesses-T{T}.words").read_bytes()
        assert hashlib.sha256(data).hexdigest() == self.WORDS_DIGESTS[T]

    def test_four_state_failures_are_pinned(self):
        text = json.dumps(check_normality(4, 2, S=4)["failures"], sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "9067c1986ea874fbe0e2bf909c830490255bbe6b0b62b198a0e2dfc76bcab49e"
        )

    def test_report_bytes_are_pinned_at_T18(self):
        # 391,527 points and 72 million key sums through the hash index
        rep = check_normality(18, 4)
        assert (rep["points_checked"], rep["sums"], rep["ok"]) == (391_527, 72_319_464, True)
        text = json.dumps(rep, sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "dea480572bee45bc84248ee19533e3575fe139955f8876f9e1224fc72064551e"
        )

    @pytest.mark.parametrize("S,T,n_max", [(3, 7, 4), (2, 6, 3), (4, 4, 2)])
    def test_one_listing_per_check(self, S, T, n_max, monkeypatch):
        # one walk lists every degree; each degree reads its own slice
        import thmc.normality

        calls = []
        real = thmc.normality.saturation_points
        monkeypatch.setattr(
            thmc.normality, "saturation_points",
            lambda *args, **kwargs: calls.append(args) or real(*args, **kwargs),
        )
        rep = check_normality(T, n_max, S=S)
        assert [(t, n) for t, n, _ in calls] == [(T, n_max)]
        assert rep["points_checked"] == sum(
            len(degree_rows(T, n, model_hull(T, S))) for n in range(1, n_max + 1)
        )

    def test_makes_no_binary_search(self, monkeypatch):
        # every key sum is found by the hash index, none by np.searchsorted
        def searchsorted(*args, **kwargs):
            raise AssertionError("check_normality ran a binary search")

        monkeypatch.setattr(np, "searchsorted", searchsorted)
        rep = check_normality(6, 3)
        assert rep["ok"] and rep["sums"] > 0

    @staticmethod
    def _patch_columns(monkeypatch, T, table):
        # the columns change, the hull of P (built from the true columns)
        # does not
        import thmc.normality

        hull = model_hull(T, 3)
        monkeypatch.setattr(thmc.normality, "model_hull", lambda T, S: hull)
        monkeypatch.setattr(thmc.normality, "column_table", lambda S, T: table)

    @pytest.mark.parametrize("where", ["past-the-last-point", "between-two-points"])
    def test_column_outside_P_raises(self, where, monkeypatch):
        # a sum outside nP must raise the sumset's own AssertionError, not an
        # IndexError from an index past the last point
        from oracles import compositions

        T = 5
        table = dict(column_table(3, T))
        points = point_tuples(T, 1)
        if where == "past-the-last-point":
            x = (T - 1, 0, 0, 0, 0, 0)
            assert x > points[-1]
        else:
            x = next(x for x in compositions(T - 1, 6) if points[0] < x < points[-1]
                     and x not in table)
        table[x] = next(iter(table.values()))
        self._patch_columns(monkeypatch, T, table)
        with pytest.raises(AssertionError, match="a sum of columns lies outside nP"):
            check_normality(T, 2)

    @pytest.mark.parametrize("drop", [0, 7, -1])
    def test_dropped_column_leaves_holes(self, drop, monkeypatch):
        # without one column the sumset misses points; the holes come back
        # in point order, exactly the points no n remaining columns sum to,
        # and every other point keeps a witness of the remaining words
        T, n_max = 5, 3
        table = dict(column_table(3, T))
        gone = list(table)[drop]
        del table[gone]
        sums = {(0,) * 6}
        expected = []
        for n in range(1, n_max + 1):
            sums = {tuple(map(sum, zip(s, c))) for s in sums for c in table}
            expected += [{"x": list(x), "n": n} for x in point_tuples(T, n) if x not in sums]
        self._patch_columns(monkeypatch, T, table)
        rep = check_normality(T, n_max, keep_witnesses=True)
        assert rep["failures"] == expected
        assert {"x": list(gone), "n": 1} in rep["failures"]
        # the trail search still splits every hole, and only with the
        # dropped column
        for hole in rep["failures"]:
            split = decompose_into_paths(tuple(hole["x"]), hole["n"], T)
            assert gone in {transition_counts(w, 3) for w in split}
        assert len(rep["witnesses"]) + len(expected) == rep["points_checked"]
        words = {word for _, word in table.values()}
        for x, split in rep["witnesses"].items():
            assert set(split) <= words
            check_split(split, x, len(split), T, 3)

    @pytest.mark.parametrize("wrong", ["other-column", "wrong-length"])
    def test_wrong_column_word_is_caught(self, wrong, monkeypatch):
        # a column mapped to a word without its counts must fail the
        # re-check of the witness, never count as a pass
        import thmc.normality

        table = dict(column_table(3, 4))
        first, (count, _) = next(iter(table.items()))
        last_word = list(table.values())[-1][1]
        table[first] = (count, last_word if wrong == "other-column" else Word.from_text("12121"))
        monkeypatch.setattr(thmc.normality, "column_table", lambda S, T: table)
        with pytest.raises(AssertionError, match="does not split"):
            check_normality(4, 2)

    @pytest.mark.parametrize(
        "T,n_max,degree", [(4, 2, 1), (4, 2, 2), (5, 3, 1), (5, 3, 2), (5, 3, 3)]
    )
    def test_misdirected_sum_is_caught(self, T, n_max, degree, monkeypatch):
        # the first lookup block of one degree sends its first sum to the
        # next point's index: that point's link to its parent must fail the
        # re-check, never count as a pass
        import thmc.normality

        real = thmc.normality._point_indices
        degrees = []

        def misdirect(block, point_keys, table, bits):
            at = real(block, point_keys, table, bits)
            if not any(keys is point_keys for keys in degrees):
                degrees.append(point_keys)
                if len(degrees) == degree:
                    at[0] = (at[0] + 1) % len(point_keys)
            return at

        monkeypatch.setattr(thmc.normality, "_point_indices", misdirect)
        with pytest.raises(AssertionError, match="does not split"):
            check_normality(T, n_max)
        assert len(degrees) == degree


class TestFacetRows:
    """At S = 3 the points are listed over the paper's 24 facet rows on the
    columns' affine hull, for every T; the answers must not lean on those
    rows."""

    @staticmethod
    def _patch_rows(monkeypatch, rows):
        import thmc.normality

        monkeypatch.setattr(
            thmc.normality, "q_polyhedron", lambda r: HPolyhedron(6, tuple(rows))
        )

    @staticmethod
    def _facet_rows(T, rows):
        _, equations = affine_equations([(1, *x) for x in column_table(3, T)])
        return HPolyhedron.make(6, rows, equations)

    @pytest.mark.parametrize("T", [5, 7, 9])
    @pytest.mark.parametrize("row", [0, 5, 23])
    def test_dropped_row_gives_the_same_report(self, T, row, monkeypatch):
        # without one row the listing holds points outside nP; each one is
        # reached by no sum, decided against the model hull and dropped
        rows = q_polyhedron(T % 6).inequalities
        rows = rows[:row] + rows[row + 1 :]
        looser = saturation_points(T, 3, self._facet_rows(T, rows))
        assert len(looser) > len(saturation_points(T, 3, model_hull(T, 3)))
        expected = check_normality(T, 3, keep_witnesses=True)
        self._patch_rows(monkeypatch, rows)
        assert check_normality(T, 3, keep_witnesses=True) == expected

    @pytest.mark.parametrize("T", [5, 7, 9])
    @pytest.mark.parametrize("row", [0, 5, 23])
    def test_tightened_row_raises(self, T, row, monkeypatch):
        # a row tightened by one cuts off the columns tight on it: degree 1's
        # lookup must raise, never pass
        rows = list(q_polyhedron(T % 6).inequalities)
        normal, rhs = rows[row]
        rows[row] = (normal, rhs + 1)
        self._patch_rows(monkeypatch, rows)
        with pytest.raises(AssertionError, match="a sum of columns lies outside nP"):
            check_normality(T, 2)

    def test_reports_need_no_double_description(self, monkeypatch):
        def convex_hull(*args, **kwargs):
            raise AssertionError("check_normality ran a double description")

        for module in [m for name, m in sys.modules.items() if name.startswith("thmc")]:
            if hasattr(module, "convex_hull"):
                monkeypatch.setattr(module, "convex_hull", convex_hull)
        model_hull.cache_clear()
        for T in range(3, 13):
            text = json.dumps(check_normality(T, 4), sort_keys=True)
            digest = hashlib.sha256(text.encode()).hexdigest()
            assert digest == TestCheckNormality.REPORT_DIGESTS[T]

    @pytest.mark.parametrize("T", [*range(2, 14), 18])
    def test_facet_rows_list_the_points_of_nP(self, T):
        # the paper's 24-facet theorem on lattice points, independent of the
        # sumset: the listing over the rows is the listing over the hull
        Q = self._facet_rows(T, q_polyhedron(T % 6).inequalities)
        assert Q.equations == (((1,) * 6, T - 1),)
        hull = model_hull(T, 3)
        for n in (1, 2, 3):
            assert np.array_equal(degree_rows(T, n, Q), degree_rows(T, n, hull))


class TestPointIndex:
    @staticmethod
    def _sorted_keys(rng, size, high):
        return np.unique(rng.integers(0, high, size, dtype=np.int64))

    @pytest.mark.parametrize("size", [1, 2, 3, 100, 5_000])
    @pytest.mark.parametrize("high", [10_000, 2**62])
    def test_agrees_with_binary_search(self, size, high):
        rng = np.random.default_rng(size)
        keys = self._sorted_keys(rng, size, high)
        table, bits = _point_index(keys)
        # at most a quarter full, and every key's index held exactly once
        assert table.dtype == np.int32 and len(table) == 2**bits > 4 * len(keys)
        assert sorted(table[table >= 0].tolist()) == list(range(len(keys)))
        queries = rng.choice(keys, 3 * len(keys))
        got = _point_indices(queries, keys, table, bits)
        assert got.tolist() == np.searchsorted(keys, queries).tolist()

    @pytest.mark.parametrize("high", [10_000, 2**62])
    def test_absent_keys_raise(self, high):
        rng = np.random.default_rng(7)
        keys = self._sorted_keys(rng, 400, high)
        table, bits = _point_index(keys)
        absent = [k for k in (-1, 0, keys[0] - 1, keys[-1] + 1, high) if k not in keys]
        absent += [int(k) + 1 for k in keys if k + 1 not in keys][:20]
        for key in absent:
            # alone, and hidden among keys that are present
            for block in ([key], [*keys[:50], key, *keys[50:100]]):
                with pytest.raises(AssertionError, match="a sum of columns lies outside nP"):
                    _point_indices(np.array(block, dtype=np.int64), keys, table, bits)

    @staticmethod
    def _one_home_slot(monkeypatch):
        # multiplier 0: every key's home slot is slot 0, so each probe walks
        # the one chain that holds every key
        import thmc.normality

        monkeypatch.setattr(thmc.normality, "_HASH_MULTIPLIER", np.int64(0))
        keys = np.arange(1, 200, 3, dtype=np.int64)
        assert not _home_slots(keys, 9).any()

    @pytest.mark.parametrize("T", [3, 4, 5])
    def test_one_home_slot_gives_the_same_report(self, T, monkeypatch):
        expected = check_normality(T, 3, keep_witnesses=True)
        self._one_home_slot(monkeypatch)
        assert check_normality(T, 3, keep_witnesses=True) == expected

    @pytest.mark.parametrize("where", ["past-the-last-point", "between-two-points"])
    def test_one_home_slot_still_catches_a_column_outside_P(self, where, monkeypatch):
        self._one_home_slot(monkeypatch)
        TestCheckNormality().test_column_outside_P_raises(where, monkeypatch)


def random_counts(rng, T, n):
    """The counts of n uniform random words of length T without self-loops,
    drawn one state at a time."""
    x = [0] * 6
    for _ in range(n):
        w = [rng.randint(1, 3)]
        while len(w) < T:
            w.append(rng.choice([s for s in (1, 2, 3) if s != w[-1]]))
        x = [a + b for a, b in zip(x, transition_counts(Word(w), 3))]
    return tuple(x)


def plus_loops(x, copies, ray):
    return tuple(a + copies * e for a, e in zip(x, ray))


class TestWitnessByInduction:
    @staticmethod
    def workload_points(seed):
        # the perfbench normality workload's 18 witness points: three random
        # words at each T = 13..30, all drawn from one seeded generator
        rng = random.Random(seed)
        return [(random_counts(rng, T, 3), T) for T in range(13, 31)]

    @staticmethod
    def class_points():
        # the points this class splits below, in the order of its tests
        counts = lambda text: transition_counts(Word.from_text(text), 3)
        pair = [Word.from_text("1213212"), Word.from_text("2321312")]
        points = [
            (counts("121321"), 6),
            (plus_loops(counts("1213212"), 3, (1, 0, 1, 0, 0, 0)), 13),
            (plus_loops(counts("1232121"), 2, (1, 0, 0, 1, 1, 0)), 13),
            (plus_loops(counts("3123123"), 3, (1, 0, 1, 0, 0, 0)), 13),
            ((7, 10, 6, 8, 10, 7), 17),
            (plus_loops(state_graph(pair, 3), 6, (0, 1, 0, 0, 1, 0)), 13),
        ]
        rng = random.Random(3)
        words = get_design(3, 13).words
        points += [
            (state_graph([rng.choice(words) for _ in range(2)], 3), 13) for _ in range(5)
        ]
        return points

    # sha256 digests of the witness words, computed before the peel test
    # became an integer comparison
    WORDS_DIGESTS = {
        1: "a922477c98c2398db5d6f3b7490df344bbd9a0c375a2e7d6ddf0cd1b1411c6c6",
        2: "382fe3bae2f010587c07d5e4c10b97932bda61f51977c9caa44962286efde7c0",
        3: "6f46f6a9bfd397924efa5fab7a1b0b3714a4529bbe87d73afd0470463340021f",
        "class": "90e90c3e0db4ee7894841622a1493f029237263565fb3d610106385aa2a66436",
    }

    @classmethod
    def pinned_points(cls, key):
        return cls.class_points() if key == "class" else cls.workload_points(key)

    @pytest.mark.parametrize("key", [1, 2, 3, "class"])
    def test_witness_words_are_pinned(self, key):
        words = [
            [w.text for w in witness_by_induction(x, T)]
            for x, T in self.pinned_points(key)
        ]
        digest = hashlib.sha256(json.dumps(words).encode()).hexdigest()
        assert digest == self.WORDS_DIGESTS[key]

    def test_peeling_makes_no_fraction(self, monkeypatch):
        # the peel decision compares integers; the witnesses stay the same
        import thmc.normality

        def fraction(*args):
            raise AssertionError("witness_by_induction made a Fraction")

        monkeypatch.setattr(thmc.normality, "Fraction", fraction)
        for key in (1, "class"):
            for x, T in self.pinned_points(key):
                assert state_graph(witness_by_induction(x, T), 3) == x

    @pytest.mark.parametrize("T", [1, 0, -5])
    def test_short_words_raise(self, T):
        # no division by T - 1 before the check
        with pytest.raises(ValueError, match=f"need T >= 2 and six counts, got T={T} "):
            witness_by_induction((0, 0, 0, 0, 0, 0), T)

    @pytest.mark.parametrize("x", [(1, 0, 1, 0, 0), tuple([1, 0] * 6)])
    def test_not_three_state_raises(self, x):
        # a four-state vector has 12 counts; the peeling is three-state only
        with pytest.raises(ValueError, match=f"six counts, got T=3 and {len(x)} counts"):
            witness_by_induction(x, 3)

    def test_single_word(self):
        w = Word.from_text("121321")
        x = transition_counts(w, 3)
        out = witness_by_induction(x, 6)
        assert state_graph(out, 3) == x

    def test_loop_heavy_point_reduces_from_13(self):
        base = transition_counts(Word.from_text("1213212"), 3)
        x = tuple(b + 3 * e for b, e in zip(base, (1, 0, 1, 0, 0, 0)))
        out = witness_by_induction(x, 13)
        assert len(out) == 1
        assert state_graph(out, 3) == x
        assert all(len(w) == 13 for w in out)

    def test_three_loop_direction(self):
        base = transition_counts(Word.from_text("1232121"), 3)
        x = tuple(b + 2 * e for b, e in zip(base, (1, 0, 0, 1, 1, 0)))
        out = witness_by_induction(x, 13)
        assert state_graph(out, 3) == x

    def test_cycle_rotation_case(self):
        # base word is a 3-3 cycle avoiding the peeled pair at both ends
        w = Word.from_text("3123123")  # starts and ends at 3
        x3 = transition_counts(w, 3)
        x = tuple(b + 3 * e for b, e in zip(x3, (1, 0, 1, 0, 0, 0)))
        out = witness_by_induction(x, 13)
        assert state_graph(out, 3) == x

    @pytest.mark.parametrize("text", ["3123123", "3213213"])
    def test_two_loop_glued_onto_cycle(self, text):
        # both endpoints avoid the loop states 1, 2; the rotated word starts
        # with 1 or 2, and the glued block must not end on that state
        w = Word.from_text(text)
        out = _glue(w, (1, 2))
        assert len(out) == len(w) + 6
        before, after = transition_counts(w, 3), transition_counts(out, 3)
        assert tuple(a - b for a, b in zip(after, before)) == (3, 0, 3, 0, 0, 0)

    def test_seeded_point_through_cycle_branch(self):
        # peeling at T=17 glues a two-loop onto a cycle word of the T=11 witness
        x = (7, 10, 6, 8, 10, 7)
        out = witness_by_induction(x, 17)
        assert len(out) == 3 and all(len(w) == 17 for w in out)
        assert state_graph(out, 3) == x

    def test_multiword(self):
        words = [Word.from_text("1213212"), Word.from_text("2321312")]
        x7 = state_graph(words, 3)
        x = tuple(b + 6 * e for b, e in zip(x7, (0, 1, 0, 0, 1, 0)))
        out = witness_by_induction(x, 13)
        assert len(out) == 2
        assert state_graph(out, 3) == x

    def test_agrees_with_direct_search(self):
        rng = random.Random(3)
        words = get_design(3, 13).words
        for _ in range(5):
            W = [rng.choice(words) for _ in range(2)]
            x = state_graph(W, 3)
            out = witness_by_induction(x, 13)
            direct = decompose_into_paths(x, 2, 13)
            assert out is not None and direct is not None
            assert state_graph(out, 3) == x

    @pytest.mark.parametrize(
        "valid, wrong",
        [
            # right counts and word count, lengths 5 and 7 instead of 6, 6
            (["121212", "212121"], ["12121", "2121212"]),
            # right counts, two words where one is due
            (["121321"], ["121", "1321"]),
        ],
    )
    def test_wrong_split_is_caught(self, valid, wrong, monkeypatch):
        # a split with the right transition counts but the wrong shape must
        # fail the re-check, never come back as a witness
        import thmc.normality

        x = state_graph([Word.from_text(w) for w in valid], 3)
        split = [Word.from_text(w) for w in wrong]
        assert state_graph(split, 3) == x
        monkeypatch.setattr(thmc.normality, "decompose_into_paths", lambda *a: split)
        with pytest.raises(AssertionError, match="does not split"):
            witness_by_induction(x, 6)


class TestGlue:
    @pytest.mark.parametrize("loop", list(LOOP_RAYS))
    def test_adds_the_loop_block_to_every_short_word(self, loop):
        # the gluing lemma, checked over every endpoint pair up to length 5:
        # six steps around a k-cycle add exactly 6/k copies of its loop ray
        cycle = tuple(map(int, loop[:-1]))
        copies = 6 // len(cycle)
        for T in range(2, 6):
            for w in get_design(3, T).words:
                out = _glue(w, cycle)
                assert len(out) == T + 6
                grown = [
                    a - b
                    for a, b in zip(transition_counts(out, 3), transition_counts(w, 3))
                ]
                assert grown == [copies * e for e in LOOP_RAYS[loop]], (w, loop)

    def test_distinct_endpoints_off_the_cycle_raise(self):
        # no three-state word has this shape; a fourth state gives one
        with pytest.raises(ValueError, match="cannot both avoid the loop"):
            _glue(Word([3, 1, 4]), (1, 2))


class TestMaxLoopCoefficient:
    """The oracle's loop coefficients read off the 24 facets of Q^r, against
    an LP over the vertices of Q^r and the loop rays, and against their own
    certificates; the library's integer peel test against the oracle."""

    @staticmethod
    def points(count=60):
        rng = random.Random(29)
        for _ in range(count):
            T, n = rng.randint(13, 40), rng.randint(1, 5)
            yield random_counts(rng, T, n), n, T % 6

    @staticmethod
    def oracle_rule(x, n, r, exceeds=lambda alpha, copies: alpha > copies):
        # the first loop whose largest coefficient exceeds its copies, as
        # _peel returns it: (ray, cycle, copies)
        for (loop, ray), alpha in zip(LOOP_RAYS.items(), max_loop_coefficients(x, n, r)):
            cycle = tuple(map(int, loop[:-1]))
            copies = 6 // len(cycle) * n
            if exceeds(alpha, copies):
                return ray, cycle, copies
        return None

    def test_agrees_with_highs(self):
        import numpy as np
        from scipy.optimize import linprog

        for x, n, r in self.points():
            verts = q_vertices(r).vertices
            cols = [[float(n * c) for c in v] + [1.0] for v in verts]
            cols += [list(map(float, e)) + [0.0] for e in LOOP_RAYS.values()]
            alphas = max_loop_coefficients(x, n, r)
            for k, loop in enumerate(LOOP_RAYS):
                cost = [0.0] * len(cols)
                cost[len(verts) + k] = -1.0
                res = linprog(
                    c=cost,
                    A_eq=np.array(cols).T,
                    b_eq=np.array(list(map(float, x)) + [1.0]),
                    bounds=[(0, None)] * len(cols),
                    method="highs",
                )
                assert res.status == 0, (x, n, r, loop)
                alpha = alphas[k]
                assert abs(float(alpha) + res.fun) <= 1e-9, (x, n, r, loop, alpha, res.fun)

    def test_exact_certificate(self):
        # x - alpha*e stays in n*Q^r, and a facet the loop leaves through is tight
        dot = lambda c, v: sum(p * q for p, q in zip(c, v))
        for x, n, r in self.points():
            ineqs = q_polyhedron(r).inequalities
            alphas = max_loop_coefficients(x, n, r)
            for alpha, e in zip(alphas, LOOP_RAYS.values()):
                assert type(alpha) is Fraction
                y = [a - alpha * b for a, b in zip(x, e)]
                assert all(dot(c, y) >= n * a for c, a in ineqs)
                assert any(dot(c, e) > 0 and dot(c, y) == n * a for c, a in ineqs)

    # the second point breaks only facets with c.e = 0 for the loop 232
    @pytest.mark.parametrize(
        "x, loop", [((12, 0, 0, 0, 0, 0), "121"), ((-1, 3, 3, 2, 2, 3), "232")]
    )
    def test_outside_raises(self, x, loop):
        with pytest.raises(ValueError, match="outside the dilated residue polyhedron"):
            max_loop_coefficients(x, 1, 13 % 6)[list(LOOP_RAYS).index(loop)]
        with pytest.raises(ValueError, match="outside the dilated residue polyhedron"):
            _peel(x, 1, 13 % 6)

    def test_peel_agrees_with_the_oracle_rule(self):
        chosen = Counter()
        for x, n, r in self.points():
            peel = _peel(x, n, r)
            assert peel == self.oracle_rule(x, n, r), (x, n, r)
            chosen[peel and peel[1]] += 1
        # the points reach every loop and the search base
        assert len(chosen) == len(LOOP_RAYS) + 1, chosen

    # n words of length T whose counts y are tight on a facet the loop
    # leaves; x = y + copies*e, read at T + 6, has that loop's largest
    # coefficient equal to copies, and the rule ">=" would peel it there
    @pytest.mark.parametrize(
        "loop, texts",
        [
            ("121", ["3232312"]),
            ("121", ["23231323", "23132321"]),
            ("131", ["232121321213"]),
            ("131", ["12121212", "23121232"]),
            ("232", ["3232312"]),
            ("232", ["1212132", "1313212"]),
            ("1231", ["3232312"]),
            ("1231", ["23231323", "23132321"]),
            ("1321", ["3232312"]),
            ("1321", ["23231323", "23132321"]),
        ],
    )
    def test_peel_refuses_a_coefficient_equal_to_copies(self, loop, texts):
        words = [Word.from_text(t) for t in texts]
        n, T = len(words), len(words[0]) + 6
        copies = 6 // (len(loop) - 1) * n
        x = plus_loops(state_graph(words, 3), copies, LOOP_RAYS[loop])
        k = list(LOOP_RAYS).index(loop)
        assert max_loop_coefficients(x, n, T % 6)[k] == copies
        at_least = lambda alpha, copies: alpha >= copies
        assert self.oracle_rule(x, n, T % 6, at_least)[0] == LOOP_RAYS[loop]
        peel = _peel(x, n, T % 6)
        assert peel is None or peel[0] != LOOP_RAYS[loop]
        assert peel == self.oracle_rule(x, n, T % 6)
        assert state_graph(witness_by_induction(x, T), 3) == x


class TestS4Probe:
    @pytest.mark.parametrize("total,parts", [(0, 3), (3, 1), (4, 6), (14, 4)])
    def test_compositions_match_the_recursion(self, total, parts):
        from oracles import compositions

        got = [tuple(c) for c in _compositions(total, parts)]
        assert got == list(compositions(total, parts))

    def test_report(self):
        rep = s4_nonnormality_probe()
        assert rep["half_sum_integral"] is False
        # quoted combination has x12 = 2 but x21 = 3/2
        assert rep["half_sum"][0] == "2" and rep["half_sum"][3] == "3/2"
        assert rep["doubled_in_semigroup"] is True
        assert rep["witness_found"]
        w = rep["witness"]
        assert w["in_lattice"] and w["in_cone"] and not w["in_semigroup"]
        # both scans walk the compositions in lexicographic order and stop at
        # the first witness
        assert rep["scanned"] == {"degree1": 31824, "degree2_two_cycle_pairs": 141}
        assert w["x"] == [1, 0, 0, 1, 0, 0, 0, 0, 6, 0, 0, 6] and w["n"] == 2

    def test_witness_verified_independently(self):
        rep = s4_nonnormality_probe()
        x = tuple(rep["witness"]["x"])
        n = rep["witness"]["n"]
        A = get_design(4, 8)
        assert list(x) in A.lattice
        assert simplex_standard(A.distinct_columns(), x) is not None
        assert decompose_into_paths(x, n, 8) is None

    def test_cone_is_certified_without_a_linear_program(self, monkeypatch):
        def no_lp(*args):
            raise AssertionError("the probe solved a linear program")

        # every thmc module that bound the simplex, the defining one included
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "thmc" and hasattr(module, "simplex_standard"):
                monkeypatch.setattr(module, "simplex_standard", no_lp)
        rep = s4_nonnormality_probe()
        assert rep["witness"] == {
            "x": [1, 0, 0, 1, 0, 0, 0, 0, 6, 0, 0, 6],
            "n": 2,
            "in_lattice": True,
            "in_cone": True,
            "in_semigroup": False,
        }

    def test_wrong_cone_split_is_not_trusted(self, monkeypatch):
        import thmc.normality

        real = thmc.normality.decompose_into_paths
        unsplit = []
        wrong_word = Word(([1, 2] * 8)[:8])

        # the real search, except that for a point x it left unsplit, the
        # split of k*x (k >= 2) comes back as words of another vector
        def wrong(x, n, T):
            for y, m in unsplit:
                if n > m and n % m == 0 and list(x) == [n // m * c for c in y]:
                    assert state_graph([wrong_word] * n, 4) != tuple(x)
                    return [wrong_word] * n
            split = real(x, n, T)
            if split is None:
                unsplit.append((tuple(x), n))
            return split

        monkeypatch.setattr(thmc.normality, "decompose_into_paths", wrong)
        with pytest.raises(AssertionError, match="does not split"):
            s4_nonnormality_probe()
        assert unsplit == [((1, 0, 0, 1, 0, 0, 0, 0, 6, 0, 0, 6), 2)]

    def test_word_searches_are_counted(self, monkeypatch):
        import thmc.normality

        real = thmc.normality.decompose_into_paths
        calls = Counter()

        def counted(x, n, T):
            calls[n] += 1
            return real(x, n, T)

        monkeypatch.setattr(thmc.normality, "decompose_into_paths", counted)
        s4_nonnormality_probe()
        # the cheap cone conditions leave 2,304 of the 31,824 degree-1
        # candidates to a word search; at n = 2 the doubled half-sum and four
        # candidates; then k*x of the witness for k = 2..7, and the scan stops
        assert dict(calls) == {1: 2304, 2: 5, 4: 1, 6: 1, 8: 1, 10: 1, 12: 1, 14: 1}
        assert sum(calls.values()) == 2315

    def test_report_bytes_are_pinned(self, tmp_path):
        # sha256 of s4-probe.json from `thmc normality -T 8 --probe-s4`, the
        # bytes the probe wrote when it decided the cone by a linear program
        assert main(["normality", "-T", "8", "--probe-s4", "--out-dir", str(tmp_path)]) == 0
        digest = hashlib.sha256((tmp_path / "s4-probe.json").read_bytes()).hexdigest()
        assert digest == "78cce2b55bdafccb1aec496f10d85a02d554d229c318da220c53c07cc07a6074"


class TestLoopExtensionConsistency:
    def test_decomposable_plus_loop_block_decomposes_six_later(self):
        # if x splits into n words at T, then x + 3n copies of a two-loop
        # touching an endpoint state still splits at T+6
        rng = random.Random(6)
        words = get_design(3, 7).words
        for _ in range(8):
            n = rng.randint(1, 2)
            W = [rng.choice(words) for _ in range(n)]
            x = state_graph(W, 3)
            # loop through the last state of the first word: always appendable
            i = W[0][-1]
            j = 1 if i != 1 else 2
            from thmc.words import pair_index

            idx = pair_index(3)
            x2 = list(x)
            x2[idx[(i, j)]] += 3 * n
            x2[idx[(j, i)]] += 3 * n
            paths = decompose_into_paths(tuple(x2), n, 13)
            assert paths is not None
            assert state_graph(Counter(paths), 3) == tuple(x2)
