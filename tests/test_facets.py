from fractions import Fraction

import pytest

from thmc.design import get_design
from thmc.exactla import primitive
from thmc.facets import (
    LOOP_RAYS,
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
from thmc.polytope import recession_rays
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
        assert sorted(recession_rays(q_polyhedron(r))) == sorted(LOOP_RAYS.values())

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

    def test_wrong_lp_witness_is_not_trusted(self, monkeypatch):
        import thmc.facets

        # convex weights, but they combine to the first column, not the point
        monkeypatch.setattr(thmc.facets, "in_convex_hull", lambda cols, p: {0: Fraction(1)})
        rep = verify_facet_completeness(5)
        assert not rep["ok"] and not rep["all_extensions_inside"]
        first = list(get_design(3, 5).distinct_columns()[0])
        for e in rep["extensions"]:
            assert e["in_polytope"] == ([Fraction(c) for c in e["point"]] == first)

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
