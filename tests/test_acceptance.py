"""Acceptance suite: one test per criterion, one printed PASS line each.

Heavy shared objects (design matrices, hulls, residue polyhedra) are cached
at module level inside the library, so criteria can run in any order.
"""

import time
from collections import Counter
from fractions import Fraction


from oracles import compositions, contains
from thmc.design import get_design
from thmc.exactla import primitive, simplex_standard
from thmc.facets import (
    LOOP_RAYS,
    certify_all,
    homogeneous_facet_vectors,
    hull_facets_homogeneous,
    model_hull,
    published_vertex_orbit,
    q_vertices,
    symmetry_orbit,
    verify_facet_completeness,
    verify_known_vertices,
    verify_window_inequalities,
)
from thmc.markov import (
    _multisets_by_marginal,
    enumerate_moves,
    is_markov_basis,
    minimal_markov_basis,
)
from thmc.mcmc import WalkConfig, walk
from thmc.normality import (
    check_normality,
    s4_nonnormality_probe,
)
from thmc.words import Word, decompose_into_paths


def report(criterion, passed, detail=""):
    line = f"criterion {criterion}: {'PASS' if passed else 'FAIL'}"
    if detail:
        line += f" - {detail}"
    print(line)
    assert passed, line


# the six-row transition-count matrix for T=4, frozen reference value
A4_REFERENCE = [
    [2, 1, 1, 1, 1, 0, 0, 0, 1, 1, 0, 0, 1, 0, 0, 0, 1, 1, 0, 0, 1, 0, 0, 0],
    [0, 1, 0, 0, 1, 2, 1, 1, 0, 0, 1, 1, 0, 1, 0, 0, 0, 0, 1, 1, 0, 1, 0, 0],
    [1, 1, 0, 0, 0, 0, 1, 0, 2, 1, 1, 1, 0, 0, 1, 0, 1, 0, 0, 0, 1, 1, 0, 0],
    [0, 0, 1, 1, 0, 0, 0, 1, 0, 1, 0, 0, 1, 1, 1, 2, 0, 1, 0, 0, 0, 0, 1, 1],
    [0, 0, 1, 0, 1, 1, 0, 0, 0, 0, 1, 0, 1, 1, 0, 0, 1, 1, 2, 1, 0, 0, 1, 0],
    [0, 0, 0, 1, 0, 0, 1, 1, 0, 0, 0, 1, 0, 0, 1, 1, 0, 0, 0, 1, 1, 1, 1, 2],
]


def test_criterion_01_design_matrix_regression():
    t0 = time.time()
    A = get_design(3, 4)
    got = [[col[i] for col in A.columns] for i in range(6)]
    elapsed = time.time() - t0
    report(
        1,
        got == A4_REFERENCE and elapsed < 1.0,
        f"6x24 matrix exact, {elapsed:.3f}s",
    )


def test_criterion_02_facet_census():
    t0 = time.time()
    counts = {}
    for T in (3, 4):
        counts[T] = len(hull_facets_homogeneous(T))
    expansion_ok = True
    for T in range(5, 26):
        hull = hull_facets_homogeneous(T)
        expansion = set()
        for form in homogeneous_facet_vectors(T):
            expansion |= {primitive(c) for c in symmetry_orbit(form.c)}
        counts[T] = len(hull)
        expansion_ok &= hull == expansion and len(hull) == 24
    passed = counts[3] == 12 and counts[4] == 12 and expansion_ok
    report(
        2,
        passed,
        f"facets {counts}, hull == reversal-augmented expansion for T=5..25, "
        f"{time.time() - t0:.1f}s",
    )


def test_criterion_03_facet_certificates():
    bad = []
    for T in range(5, 26):
        for cert in certify_all(T):
            if cert.min_value != 0 or cert.tight_rank != 5:
                bad.append((T, cert.c))
    report(3, not bad, "min=0 and tight-rank=5 for every applicable row, T=5..25")


def test_criterion_04_recession_rays():
    expected = sorted(LOOP_RAYS.values())
    ok = all(list(q_vertices(r).rays) == expected for r in range(6))
    report(4, ok, "five loop rays for every residue class")


def test_criterion_05_published_vertex_lists():
    reports = {r: verify_known_vertices(r) for r in range(6)}
    # the stated index order reproduces the lists wherever they are vertex
    # sets of the defining system (residues 1 and 3)
    matched_ok = all(
        reports[r]["convention_matched"] == "x12,x21,x13,x31,x23,x32"
        for r in (1, 3)
    )
    # the remaining lists are exactly the vertices of the variant system
    # with the even/3k+2 rows at +1; the discrepancy is reported, not hidden
    characterized_ok = True
    for r in (0, 2, 4, 5):
        rep = reports[r]
        if rep["ok"]:
            characterized_ok = False
            continue
        for fam, vals in rep["published_system"]["base_row_rhs"].items():
            expected_pub = 1 if fam in ("even", "mod3-2") else vals["table_rhs"]
            characterized_ok &= vals["published_rhs"] == expected_pub
    published_max = max(
        int(Fraction(reports[r]["published_max_l1_norm"])) for r in range(6)
    )
    computed_max = max(
        int(Fraction(reports[r]["max_l1_norm"])) for r in range(6)
    )
    l1_17_vertex_published = any(
        sum(v) == 17 for v in published_vertex_orbit(2)
    )
    passed = (
        matched_ok
        and characterized_ok
        and published_max == 17
        and l1_17_vertex_published
        and computed_max <= 17
        and computed_max == 9
    )
    report(
        5,
        passed,
        "r=1,3 match under stated order x12,x21,x13,x31,x23,x32; r=0,2,4,5 "
        "lists are vertices of the variant system (even/3k+2 rows at +1), "
        f"discrepancy reported; published max L1 = {published_max} (=17 as "
        f"printed), true max L1 = {computed_max} <= 17 so the downstream "
        "bound stands",
    )


def test_criterion_06_completeness_pipeline():
    t0 = time.time()
    ok = True
    details = []
    for T in (7, 9, 11, 12):
        rep = verify_facet_completeness(T)
        ok &= rep["all_extensions_inside"] and rep["hull_equals_expansion"]
        details.append(f"T={T}:{rep['extension_points']}pts")
    elapsed = time.time() - t0
    report(
        6,
        ok and elapsed < 600,
        f"all vertex-ray extensions inside the polytope ({', '.join(details)}), "
        f"{elapsed:.0f}s",
    )


def test_criterion_07_normality_desk_scale():
    # n <= 4 = dim P - 1 decides normality at every degree (Bruns, Gubeladze
    # & Trung 1997, Thm 1.3.3), so each T's verdict is exact
    t0 = time.time()
    failures = []
    checked = 0
    exact = True
    for T in range(3, 13):
        rep = check_normality(T, 4)
        checked += rep["points_checked"]
        failures.extend(rep["failures"])
        exact = exact and rep["exact"]
    elapsed = time.time() - t0
    report(
        7,
        not failures and exact and elapsed < 1800,
        f"normal, exact: {checked} saturation points in the column sumsets, "
        f"T=3..12, n<=4, {elapsed:.0f}s",
    )


def test_criterion_08_lattice_point_identity():
    ok = True
    for T in range(4, 11):
        A = get_design(3, T)
        H = model_hull(T, 3)
        points = sorted(
            x for x in compositions(T - 1, 6) if contains(H, x)
        )
        ok &= points == A.distinct_columns()
    report(8, ok, "integer hull points equal distinct columns, T=4..10")


def test_criterion_09_window_lemmas():
    rep = verify_window_inequalities(max_k=3)
    names = {c["name"] for c in rep["checks"]}
    coverage = (
        any(n.startswith("3step-cover") for n in names)
        and any(n.startswith("3step-asym") for n in names)
        and any(n.startswith("6step") for n in names)
        and "len19-123" in names
        and "even-len18" in names
    )
    report(
        9,
        rep["ok"] and coverage,
        f"{len(rep['checks'])} exhaustive checks: 24 three-step windows, "
        "192 six-step windows (all of them; the printed count 96 undercounts), "
        "every path length <= 19 for the parity and 6k+1 inequalities, "
        "equality classes as classified (six-step slack-1 set completed with "
        "the three stationary nets)",
    )


def test_criterion_10_markov_bases():
    t0 = time.time()
    details = []
    ok = True
    # a move of degree d > n cannot apply inside a degree-n fiber (u+z >= 0
    # forces the negative part below u), so on degree-<=3 fibers the
    # degree-<=6 move set acts exactly like its degree-<=3 subset; the full
    # degree-6 pairing is enumerated where it stays desk-sized (T=3) and the
    # equivalent degree-<=3 subset is used beyond that
    for T, full_degree in ((3, 6), (4, 3), (5, 3)):
        A = get_design(3, T)
        moves = enumerate_moves(A, full_degree)
        high = [z for z in moves if z.degree > 3]
        for z in high[:20]:
            for members in list(
                _multisets_by_marginal(A, 3, 2_000_000).values()
            )[:30]:
                assert all(z.apply(u) is None for u in members)
        connected, ce = is_markov_basis(moves, A, 3)
        ok &= connected
        basis = minimal_markov_basis(A, 3, 3)
        basis_connected, _ = is_markov_basis(basis, A, 3)
        ok &= basis_connected
        maxdeg = max(z.degree for z in basis)
        details.append(
            f"T={T}: deg<={full_degree} enumeration ({len(moves)} moves, acts "
            f"as the full deg<=6 set on deg<=3 fibers) connects all of them; "
            f"minimal basis {len(basis)} moves (connected={basis_connected}), "
            f"max degree {maxdeg} "
            f"(degree-2 claim {'consistent' if maxdeg <= 2 else 'exceeded'})"
        )
    elapsed = time.time() - t0
    report(
        10,
        ok and elapsed < 1800,
        "; ".join(details)
        + f"; bounded verification at n<=3 only, {elapsed:.0f}s",
    )


def test_criterion_11_s4_probe():
    rep = s4_nonnormality_probe()
    w = rep["witness"]
    verified = (
        not rep["half_sum_integral"]
        and rep["witness_found"]
        and w["in_lattice"]
        and w["in_cone"]
        and not w["in_semigroup"]
    )
    # independent reverification of the witness
    A = get_design(4, 8)
    x = tuple(w["x"])
    verified &= list(x) in A.lattice and simplex_standard(A.distinct_columns(), x) is not None
    verified &= decompose_into_paths(x, w["n"], 8) is None
    report(
        11,
        verified,
        f"printed half-sum non-integral (x21 = {rep['half_sum'][3]}); verified "
        f"witness x = {w['x']} at degree {w['n']}",
    )


def test_criterion_12_mcmc_properties():
    t0 = time.time()
    A5 = get_design(3, 5)
    basis5 = minimal_markov_basis(A5, 2, 2)
    table = tuple(
        sorted(
            A5.word_index[Word.from_text(t)]
            for t in ("12132", "12321", "13212")
        )
    )
    b0 = tuple(sum(A5.columns[j][i] for j in table) for i in range(6))
    cfg = WalkConfig(seed=42, steps=100_000)
    preserved = True
    for state in walk(table, basis5, cfg, A5):
        if len(state) != 3:
            preserved = False
            break
        b = [0] * 6
        for j in state:
            for i, c in enumerate(A5.columns[j]):
                b[i] += c
        if tuple(b) != b0:
            preserved = False
            break
    # identical seeds, identical traces
    s1 = list(walk(table, basis5, WalkConfig(seed=7, steps=3000), A5))
    s2 = list(walk(table, basis5, WalkConfig(seed=7, steps=3000), A5))
    reproducible = s1 == s2
    # uniformity on a fully enumerated fiber
    A4 = get_design(3, 4)
    basis4 = minimal_markov_basis(A4, 2, 3)
    members = next(
        ms for ms in _multisets_by_marginal(A4, 2, 10**6).values() if len(ms) == 15
    )
    counts = Counter()
    ucfg = WalkConfig(seed=31, steps=400_000, burn_in=2000)
    for step, state in enumerate(walk(members[0], basis4, ucfg, A4)):
        if step >= ucfg.burn_in:
            counts[state] += 1
    n = sum(counts.values())
    tv = 0.5 * sum(abs(counts.get(m, 0) / n - 1 / len(members)) for m in members)
    # single-table fiber p-value
    from thmc.markov import fiber_enumerate
    from thmc.mcmc import exact_test

    t3 = tuple(sorted([A4.word_index[Word.from_text("1212")]] * 3))
    b3 = tuple(sum(A4.columns[j][i] for j in t3) for i in range(6))
    singleton = len(fiber_enumerate(b3, A4).members) == 1
    res = exact_test(t3, A4, basis4, WalkConfig(seed=3, steps=2000))
    elapsed = time.time() - t0
    passed = (
        preserved
        and reproducible
        and tv <= 0.05
        and singleton
        and res.p_value == 1.0
        and elapsed < 300
    )
    report(
        12,
        passed,
        f"fiber preserved over 1e5 steps, traces reproducible, TV to uniform "
        f"{tv:.3f} <= 0.05 on a 15-table fiber, single-table fiber p=1, "
        f"{elapsed:.0f}s",
    )
