import hashlib
import json
import random
import sys
from fractions import Fraction

import pytest

from oracles import recession_rays
from thmc.design import get_design
from thmc.exactla import mat_rank, primitive
from thmc.facets import (
    LOOP_RAYS,
    _slack_classes,
    affine_facet_rows,
    certify_all,
    certify_facet,
    extend_vertex_along_ray,
    homogeneous_facet_vectors,
    hull_facets_homogeneous,
    q_polyhedron,
    q_vertices,
    symmetry_orbit,
    verify_facet_completeness,
    verify_known_vertices,
    verify_window_inequalities,
)
from thmc.words import Word, enumerate_words, symmetry_group, transition_counts


class TestFamilies:
    def test_rejects_small_T(self):
        with pytest.raises(ValueError):
            homogeneous_facet_vectors(4)

    def test_T7_includes_mod3_row(self):
        vecs = {f.c for f in homogeneous_facet_vectors(7)}
        assert (2, -1, -1, -1, 2, 2) in vecs

    def test_T8_even_row(self):
        vecs = {f.c for f in homogeneous_facet_vectors(8)}
        assert (11, 4, -3, -3, -3, 4) in vecs

    def test_T9_mod6_row(self):
        vecs = {f.c for f in homogeneous_facet_vectors(9)}
        assert (7, 3, -5, -1, -1, 3) in vecs

    def test_always_four_rows(self):
        for T in range(5, 20):
            forms = homogeneous_facet_vectors(T)
            assert len(forms) == 4
            fams = {f.family for f in forms}
            assert "coordinate" in fams and "imbalance" in fams


def closed_form(family: str, T: int) -> tuple[int, ...]:
    """The paper's homogeneous facet normals, written out per family."""
    if family == "coordinate":
        return (1, 0, 0, 0, 0, 0)
    if family == "imbalance":
        return (T, T, -(T - 2), 1, -(T - 2), 1)
    if family == "odd":
        return (1, 1, -1, -1, 1, 1)
    if family == "even":
        k = T // 2
        return (3 * k - 1, k, -k + 1, -k + 1, -k + 1, k)
    if family == "mod3-1":
        return (2, -1, -1, -1, 2, 2)
    if family == "mod3-2":
        k = (T - 2) // 3
        return (2 * k + 1, -k, -k, -k, 2 * k + 1, 2 * k + 1)
    if family == "mod6-3":
        k = (T - 3) // 6
        return (5 * k + 2, 2 * k + 1, -4 * k - 1, -k, -k, 2 * k + 1)
    assert family == "mod6-0"
    k = T // 6
    return (10 * k - 1, 4 * k, -8 * k + 2, -2 * k + 1, -2 * k + 1, 4 * k)


class TestInhomogenize:
    """The homogeneous normals are derived from the affine table; the paper's
    closed forms are the reference they must reproduce."""

    def test_imbalance_row(self):
        for T in (5, 6, 9, 12):
            form = next(
                f for f in homogeneous_facet_vectors(T) if f.family == "imbalance"
            )
            assert (form.ctilde, form.a) == ((1, 1, -1, 0, -1, 0), -1)
            assert form.c == closed_form("imbalance", T)

    def test_coordinate_row(self):
        form = next(
            f for f in homogeneous_facet_vectors(6) if f.family == "coordinate"
        )
        assert (form.ctilde, form.a) == ((1, 0, 0, 0, 0, 0), 0)
        assert form.c == (1, 0, 0, 0, 0, 0)

    def test_even_row(self):
        form = next(f for f in homogeneous_facet_vectors(8) if f.family == "even")
        assert (form.ctilde, form.a) == ((3, 1, -1, -1, -1, 1), -1)
        assert form.c == closed_form("even", 8)

    def test_derived_normals_match_closed_forms(self):
        for T in range(5, 41):
            forms = homogeneous_facet_vectors(T)
            assert [f.c for f in forms] == [closed_form(f.family, T) for f in forms]

    def test_same_tight_columns(self):
        # homogeneous and affine shapes support the same face of the polytope
        for T in (5, 6, 7, 8, 9):
            A = get_design(3, T)
            for form in homogeneous_facet_vectors(T):
                hom_tight = {
                    col
                    for col in A.distinct_columns()
                    if sum(c * e for c, e in zip(form.c, col)) == 0
                }
                aff_tight = {
                    col
                    for col in A.distinct_columns()
                    if sum(c * e for c, e in zip(form.ctilde, col)) == form.a
                }
                assert hom_tight == aff_tight


def relabel_orbit(c):
    """Orbit of c under the six relabellings alone (no reversal)."""
    return {primitive(g.vector(c)) for g in symmetry_group(3) if not g.reverse}


class TestOrbits:
    def test_unit_vector_orbit(self):
        e = (1, 0, 0, 0, 0, 0)
        units = {tuple(1 if i == k else 0 for i in range(6)) for k in range(6)}
        assert relabel_orbit(e) == units
        assert symmetry_orbit(e) == units  # reversal adds nothing

    def test_imbalance_row_orbit_sizes(self):
        T = 7
        c = (T, T, -(T - 2), 1, -(T - 2), 1)
        assert len(relabel_orbit(c)) == 3
        assert len(symmetry_orbit(c)) == 6

    def test_reversal_matches_word_reversal(self):
        w = Word.from_text("121321")
        x = transition_counts(w, 3)
        reversal = symmetry_group(3)[1]
        assert reversal.vector(x) == transition_counts(Word(w[::-1]), 3)

    def test_permutation_action_is_group_action(self):
        v = (1, 2, 3, 4, 5, 6)
        group = symmetry_group(3)
        images = {g.vector(v) for g in group if not g.reverse}
        assert len(images) == 6
        assert v in images
        # closed under composition: every g.h is again an element
        actions = {g.source for g in group}
        for g in group:
            for h in group:
                assert tuple(g.source[k] for k in h.source) in actions


class TestCertification:
    @pytest.mark.parametrize("T", range(5, 13))
    def test_all_applicable_rows_certify(self, T):
        for cert in certify_all(T):
            assert cert.valid, (T, cert.c, cert.min_value, cert.tight_rank)

    def test_odd_row_tight_at_alternating_word(self):
        cert = certify_facet((1, 1, -1, -1, 1, 1), 5)
        assert cert.min_value == 0
        assert "12121" in cert.sample_tight_words or any(
            transition_counts(Word.from_text(w), 3) == (2, 0, 2, 0, 0, 0)
            for w in cert.sample_tight_words
        )

    def test_certificate_matches_word_scan(self):
        # minimum, rank, tight count and first tight words from the column
        # table and the pruned word search equal a scan of the word list; the
        # random vectors cover tight words below a negative minimum and none
        rng = random.Random(3)
        for T in (5, 8, 11):
            words = enumerate_words(3, T)
            cols = [transition_counts(w, 3) for w in words]
            vectors = [form.c for form in homogeneous_facet_vectors(T)]
            vectors += [tuple(rng.randint(-3, 3) for _ in range(6)) for _ in range(30)]
            for c in vectors:
                vals = [sum(a * b for a, b in zip(c, x)) for x in cols]
                tight = [j for j, v in enumerate(vals) if v == 0]
                cert = certify_facet(c, T)
                assert cert.min_value == min(vals), (T, c)
                assert cert.tight_count == len(tight), (T, c)
                assert cert.tight_rank == mat_rank({cols[j] for j in tight}), (T, c)
                assert cert.sample_tight_words == tuple(words[j].text for j in tight[:5])

    def test_all_ones_not_a_facet(self):
        cert = certify_facet((1, 1, 1, 1, 1, 1), 5)
        assert cert.min_value == 4
        assert not cert.valid

    def test_orbit_members_certify_too(self):
        for c in symmetry_orbit((7, 7, -5, 1, -5, 1)):
            assert certify_facet(c, 7).valid

    def test_odd_row_proof_vectors(self):
        # the five path-count vectors quoted alongside the odd-T facet: the
        # first three are tight for c itself; the last two are reversals of
        # tight paths, hence tight for the reversal-image facet instead
        from thmc.exactla import mat_rank

        c = (1, 1, -1, -1, 1, 1)
        c_rev = symmetry_group(3)[1].vector(c)
        for T in (5, 7, 9, 11, 13):
            k = (T - 1) // 2
            quoted = [
                (k, 0, k, 0, 0, 0),
                (0, 0, 0, k, 0, k),
                (k - 1, 1, k, 0, 0, 0),
                (0, 1, 0, k - 1, 0, k),
                (k, 0, k - 1, 0, 1, 0),
            ]
            for v in quoted:
                assert sum(v) == T - 1
            dots = [sum(ci * vi for ci, vi in zip(c, v)) for v in quoted]
            assert dots == [0, 0, 0, 2, 2]
            rev_dots = [sum(ci * vi for ci, vi in zip(c_rev, v)) for v in quoted]
            assert rev_dots[3] == 0 and rev_dots[4] == 0
            assert mat_rank(quoted) == 5
            # the machine certificate pins tight-rank 5 for c; the three
            # correctly-quoted vectors must be realized by tight columns
            cert = certify_facet(c, T)
            assert cert.valid
            A = get_design(3, T)
            tight_cols = {
                col
                for col in A.distinct_columns()
                if sum(ci * e for ci, e in zip(c, col)) == 0
            }
            for v in quoted[:3]:
                assert v in tight_cols


class TestResiduePolyhedra:
    @pytest.mark.parametrize("r", range(6))
    def test_24_inequalities(self, r):
        assert len(q_polyhedron(r).inequalities) == 24

    @pytest.mark.parametrize("r", range(6))
    def test_recession_cone_is_loop_cone(self, r):
        # the rays come from the vertex enumeration; the oracle runs a
        # second double description on the recession cone alone
        rays = list(q_vertices(r).rays)
        assert rays == sorted(LOOP_RAYS.values())
        assert rays == recession_rays(q_polyhedron(r))

    def test_origin_vertex_of_q1(self):
        assert (Fraction(0),) * 6 in q_vertices(1).vertices

    def test_loop_vectors_are_word_counts(self):
        for name, vec in LOOP_RAYS.items():
            assert transition_counts(Word.from_text(name), 3) == vec


class TestKnownVertices:
    def test_residues_1_and_3_match_stated_convention(self):
        for r in (1, 3):
            rep = verify_known_vertices(r)
            assert rep["ok"]
            assert rep["convention_matched"] == "x12,x21,x13,x31,x23,x32"

    def test_other_residues_characterized(self):
        # the published lists for these residues solve the variant system
        # with the even / 3k+2 rows at +1; the report pins that down exactly
        for r in (0, 2, 4, 5):
            rep = verify_known_vertices(r)
            assert not rep["ok"]
            rhs = rep["published_system"]["base_row_rhs"]
            for fam, vals in rhs.items():
                if fam in ("even", "mod3-2"):
                    assert vals == {"table_rhs": -1, "published_rhs": 1}
                else:
                    assert vals["table_rhs"] == vals["published_rhs"]

    def test_published_max_l1_is_17(self):
        assert max(
            int(Fraction(verify_known_vertices(r)["published_max_l1_norm"]))
            for r in range(6)
        ) == 17

    def test_true_max_l1_is_9(self):
        assert max(
            int(Fraction(verify_known_vertices(r)["max_l1_norm"])) for r in range(6)
        ) == 9


class TestExtension:
    def test_example_point(self):
        p = extend_vertex_along_ray((Fraction(0),) * 6, (1, 0, 1, 0, 0, 0), 7)
        assert p == (3, 0, 3, 0, 0, 0)

    def test_lands_on_hyperplane(self):
        for v in q_vertices(3).vertices[:10]:
            for e in LOOP_RAYS.values():
                p = extend_vertex_along_ray(v, e, 15)
                assert sum(p) == 14

    def test_degenerate_ray_guarded(self):
        with pytest.raises(ValueError):
            extend_vertex_along_ray((Fraction(0),) * 6, (0, 0, 0, 0, 0, 0), 7)

    def test_zero_stretch(self):
        v = tuple(map(Fraction, (2, 0, 2, 0, 0, 0)))
        p = extend_vertex_along_ray(v, (1, 0, 1, 0, 0, 0), 5)
        assert p == v


class TestCompleteness:
    def test_T5_and_T6(self):
        for T in (5, 6):
            rep = verify_facet_completeness(T)
            assert rep["ok"]
            assert rep["hull_facets"] == 24
            assert rep["hull_equals_expansion"]
            assert rep["all_extensions_inside"]

    # sha256 of json.dumps(report, indent=1, default=str) + "\n", the bytes
    # of `thmc facets --action verify24`'s verify24-T{T}.json
    REPORT_SHA256 = {
        5: "bfbbfb56fd38a7fb636c86e34a302d7ebc9d7cb762b1d2d1ba78d624d860f46c",
        6: "678d271225b0c3bcb4bb663b667661736e3eaa50443676c54ac0929e87b23be1",
        7: "c31654f412049bd71600c750c69ce0d3677f1c04aaafde3aa032cf4ebb2e5982",
        8: "eb74068adeb06ad66eccc8825994b4ae7a9263ec07b8427b3af81df001b17f4e",
        9: "ae0c2cd8dd2116fd53b7e1922ade7964b6fe75ecee841b4861d370425ffd822d",
        10: "7f192c072f456b8896a8c57b334e934af53163050bfe86adb1f4184c02652aa8",
        11: "3db61d5e81f7fc9510d5f95c2938b70320be743af3899cd27b5f03a61d6281d2",
        12: "679ad4b615343acb4a36d0d3cc2f15a9f708a952e947cb3b836e5f28e9b82d79",
    }

    @pytest.mark.parametrize("T", sorted(REPORT_SHA256))
    def test_report_bytes_are_pinned(self, T):
        text = json.dumps(verify_facet_completeness(T), indent=1, default=str) + "\n"
        assert hashlib.sha256(text.encode()).hexdigest() == self.REPORT_SHA256[T]

    @pytest.mark.parametrize("T", [2, 4])
    def test_below_five_raises(self, T):
        with pytest.raises(ValueError, match=f"^facet description starts at T=5, got T={T}$"):
            verify_facet_completeness(T)

    def test_wrong_split_is_not_trusted(self, monkeypatch):
        import thmc.facets

        # k words of length T, but their counts are not k times the point
        def wrong(x, k, T):
            return [Word(([1, 2] * T)[:T])] * k

        monkeypatch.setattr(thmc.facets, "decompose_into_paths", wrong)
        with pytest.raises(AssertionError):
            verify_facet_completeness(5)

    def test_hull_decides_when_the_words_miss(self, monkeypatch):
        import thmc.facets

        expected = verify_facet_completeness(6)
        monkeypatch.setattr(thmc.facets, "decompose_into_paths", lambda x, k, T: None)
        rep = verify_facet_completeness(6)
        assert rep["ok"] and rep["all_extensions_inside"]
        got = rep["extensions"]
        assert [e["in_polytope"] for e in got] == [
            e["in_polytope"] for e in expected["extensions"]
        ]
        integral = [e for e in got if e["integral"]]
        assert integral
        assert all(e["induction_witness_word"] is None for e in integral)

    def test_point_outside_reads_outside(self, monkeypatch):
        import thmc.facets

        T = 7
        real = thmc.facets.extend_vertex_along_ray
        calls = []

        def inject(v, e, T):
            calls.append(1)
            if len(calls) == 1:
                return (Fraction(T - 1),) + (Fraction(0),) * 5
            return real(v, e, T)

        monkeypatch.setattr(thmc.facets, "extend_vertex_along_ray", inject)
        rep = verify_facet_completeness(T)
        first = rep["extensions"][0]
        assert first["point"] == [str(T - 1)] + ["0"] * 5
        assert first["integral"] and not first["in_polytope"]
        assert "induction_witness_word" not in first
        assert all(e["in_polytope"] for e in rep["extensions"][1:])
        assert not rep["all_extensions_inside"] and not rep["ok"]

    def test_runs_no_lp(self, monkeypatch):
        def no_lp(*args):
            raise AssertionError("the completeness pipeline ran an LP")

        # every thmc module that bound the simplex, the defining one included
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "thmc" and hasattr(module, "simplex_standard"):
                monkeypatch.setattr(module, "simplex_standard", no_lp)
        assert verify_facet_completeness(7)["ok"]

    def test_T4_hull_has_12_facets(self):
        assert len(hull_facets_homogeneous(4)) == 12

    def test_T3_hull_has_12_facets(self):
        assert len(hull_facets_homogeneous(3)) == 12

    def test_remaining_residue_classes(self):
        # criterion 6 covers residues 1, 3, 5, 0 (T = 7, 9, 11, 12); these
        # two complete the sweep over all classes of T mod 6
        for T in (8, 16):
            rep = verify_facet_completeness(T)
            assert rep["ok"] and rep["hull_facets"] == 24

    def test_integral_extension_points_carry_word_witness(self):
        rep = verify_facet_completeness(6)
        integral = [e for e in rep["extensions"] if e["integral"]]
        assert integral
        for e in integral:
            assert e["induction_witness_word"]
            w = Word.from_text(e["induction_witness_word"])
            assert list(transition_counts(w, 3)) == [int(c) for c in e["point"]]

    @pytest.mark.parametrize("T", range(5, 10))
    def test_witness_word_is_least_word_with_those_counts(self, T):
        # the trail search tries the largest out-surplus start, then the
        # smallest next state, so it meets the lexicographically least word
        # first; enumerate_words lists words in that order
        least = {}
        for w in enumerate_words(3, T):
            least.setdefault(transition_counts(w, 3), w.text)
        rep = verify_facet_completeness(T)
        witnessed = [e for e in rep["extensions"] if "induction_witness_word" in e]
        assert witnessed
        for e in witnessed:
            point = tuple(int(c) for c in e["point"])
            assert e["induction_witness_word"] == least[point]


class TestWindows:
    def test_all_checks_pass(self):
        rep = verify_window_inequalities(max_k=3)
        assert rep["ok"]
        names = {c["name"] for c in rep["checks"]}
        assert "3step-cover-123" in names
        assert "len19-123" in names
        assert "even-len18" in names

    def test_equality_paths_of_asymmetric_3step(self):
        rep = verify_window_inequalities(max_k=1)
        check = next(c for c in rep["checks"] if c["name"] == "3step-asym-123")
        assert check["pass"]
        assert "2121" in check["detail"]
        assert "2321" in check["detail"]
        assert "2131" in check["detail"]

    # sha256 of json.dumps(report, indent=1, default=str) + "\n", the bytes
    # of `thmc lemmas --max-k k`'s window-lemmas-k{k}.json
    REPORT_SHA256 = {
        1: "007aeac315163b76ff5d6efcc47fdd339e94c27e09ab70eea7d890af7e1fd624",
        2: "9c4622178386b0c195e84a93fa0fbcb8af0220f45b711d91fedc506c9972339b",
        3: "1299fe69e6dad78439f3c8eaa21f5c38db5eac2be0c431af620578f282520944",
    }

    @pytest.mark.parametrize("k", sorted(REPORT_SHA256))
    def test_report_bytes_are_pinned(self, k):
        text = json.dumps(verify_window_inequalities(k), indent=1, default=str) + "\n"
        assert hashlib.sha256(text.encode()).hexdigest() == self.REPORT_SHA256[k]

    def test_slack_classes_match_word_scan(self):
        # slack -> (start, end, counts) -> (word count, least word), least
        # slack first, against every word of the length
        rng = random.Random(20)
        for T in (4, 7, 10):
            words = enumerate_words(3, T)  # lexicographic: first is least
            for _ in range(15):
                c = tuple(rng.randint(-3, 3) for _ in range(6))
                offset = rng.randint(-4, 4)
                scan: dict = {}
                for w in words:
                    x = transition_counts(w, 3)
                    group = scan.setdefault(sum(a * b for a, b in zip(c, x)) - offset, {})
                    count, least = group.get((w[0], w[-1], x), (0, w))
                    group[w[0], w[-1], x] = (count + 1, least)
                got = _slack_classes(c, offset, T)
                assert list(got) == sorted(scan), (T, c, offset)
                assert {
                    s: {(a, b, x): (n, w) for a, b, x, n, w in classes}
                    for s, classes in got.items()
                } == scan, (T, c, offset)
