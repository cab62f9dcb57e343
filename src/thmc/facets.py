"""Facet description of the model polytope and its verification pipeline.

For T >= 5 the polytope conv(A^T) is cut out by 24 facet inequalities coming
from four base families: coordinate nonnegativity, vertex flow imbalance, a
parity family (odd/even T), and a T mod 3 family (split into T mod 6 classes
when 3 | T).  Each base vector expands to six facets under the order-12 group
generated by state relabelings and path reversal (reversal transposes every
count vector, so it maps the column set to itself).

Each family is tabled once, in its affine shape ctilde.x >= a*n, which
depends only on T mod 6.  On the hyperplane of coordinate sum n(T-1) it is
equivalent to the homogeneous shape c.x >= 0 with c the primitive multiple of
ctilde - a/(T-1)*(1,...,1); the same map reads the facets of the computed
hull.  The affine shapes at n=1 cut out one fixed polyhedron per residue
class; its vertices and its five loop rays drive the completeness proof:
stretch every vertex along every ray until the coordinate sum hits T-1 and
show the result lies in conv(A^T).  The certificate is the paper's own kind:
with k the least common denominator of the point p, k*p splits into k
words of length T, so p is their mean.  Normality promises such a split for
every point of conv(A^T) (k*p is an integer point of kP, and those are the
saturation points), and a split found is re-checked exactly.  The hull
reads `design.column_table`, which lists no words.

The facet certificates and the paper's window lemmas (3-step, 6-step,
length 6k+1 and even length) ask one question: over the words of length
T, which values does c.x - offset take, and at which (start, end) pairs?
Both read the answer from `_slack_classes`, which groups the classes of
`design.endpoint_table` by slack: a certificate's minimum, tight count,
tight rank and sample tight words all come from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import permutations
from math import lcm
from operator import mul
from typing import NamedTuple, Optional, Sequence

from .design import column_table, endpoint_table
from .exactla import mat_rank, primitive
from .polytope import (
    HPolyhedron,
    VPolyhedron,
    convex_hull,
    in_dilation,
    vertex_enumeration,
)
from .words import (
    Word,
    check_split,
    decompose_into_paths,
    pair_list,
    symmetry_group,
    transition_counts,
)

# the five loops without self-intersection, each keyed by its closed word
# and valued by that word's transition counts
LOOP_RAYS: dict[str, tuple[int, ...]] = {
    loop: transition_counts(Word.from_text(loop), 3)
    for loop in ("121", "131", "232", "1231", "1321")
}


@dataclass(frozen=True)
class FacetForm:
    """One base facet family member: c.x >= 0 and ctilde.x >= a*n."""

    family: str
    c: Optional[tuple[int, ...]]  # homogeneous normal (None if T not fixed)
    ctilde: tuple[int, ...]
    a: int


@dataclass(frozen=True)
class FacetCertificate:
    """Nonnegativity minimum and tight-column rank of a candidate normal."""

    c: tuple[int, ...]
    T: int
    min_value: int
    tight_count: int
    tight_rank: int
    sample_tight_words: tuple[str, ...]

    @property
    def valid(self) -> bool:
        return self.min_value == 0 and self.tight_rank == 5

    def to_dict(self) -> dict:
        return {
            "facet": list(self.c),
            "T": self.T,
            "min_value": self.min_value,
            "tight_count": self.tight_count,
            "tight_rank": self.tight_rank,
            "sample_tight_words": list(self.sample_tight_words),
            "valid": self.valid,
        }


# affine base rows (ctilde, a); they depend only on T mod 6
_FAMILIES = {
    "coordinate": ((1, 0, 0, 0, 0, 0), 0),
    "imbalance": ((1, 1, -1, 0, -1, 0), -1),
    "odd": ((1, 1, -1, -1, 1, 1), 0),
    "even": ((3, 1, -1, -1, -1, 1), -1),
    "mod3-1": ((2, -1, -1, -1, 2, 2), 0),
    "mod3-2": ((2, -1, -1, -1, 2, 2), -1),
    "mod6-3": ((5, 2, -4, -1, -1, 2), -2),
    "mod6-0": ((5, 2, -4, -1, -1, 2), -2),
}


def _families_for(T_mod_6: int) -> list[str]:
    fams = ["coordinate", "imbalance"]
    fams.append("odd" if T_mod_6 % 2 else "even")
    m3 = T_mod_6 % 3
    if m3 == 1:
        fams.append("mod3-1")
    elif m3 == 2:
        fams.append("mod3-2")
    else:
        fams.append("mod6-3" if T_mod_6 == 3 else "mod6-0")
    return fams


def _homogeneous(normal: Sequence[int], rhs: int, T: int) -> tuple[int, ...]:
    """Primitive c with c.x >= 0 equivalent to normal.x >= rhs*n on the
    hyperplane of coordinate sum n(T-1)."""
    return primitive([Fraction(c) - Fraction(rhs, T - 1) for c in normal])


def _facet_forms(r: int, T: Optional[int]) -> list[FacetForm]:
    out = []
    for fam in _families_for(r):
        ctilde, a = _FAMILIES[fam]
        c = None if T is None else _homogeneous(ctilde, a, T)
        out.append(FacetForm(fam, c, ctilde, a))
    return out


def homogeneous_facet_vectors(T: int) -> list[FacetForm]:
    """The four base facet vectors applicable at time T (T >= 5)."""
    if T < 5:
        raise ValueError(f"facet description starts at T=5, got T={T}")
    return _facet_forms(T % 6, T)


def affine_facet_rows(r: int) -> list[FacetForm]:
    """The four affine base rows for residue class r of T mod 6."""
    if not 0 <= r <= 5:
        raise ValueError("residue must be in 0..5")
    return _facet_forms(r, None)


# ---------------------------------------------------------------------------
# Symmetry action


def symmetry_orbit(c: Sequence[int]) -> set[tuple[int, ...]]:
    """Orbit of a 6-vector under label permutations and reversal,
    deduplicated after primitive positive scaling."""
    return {primitive(g.vector(c)) for g in symmetry_group(3)}


# ---------------------------------------------------------------------------
# Slacks over the endpoint classes; certification against the columns


def _slack_classes(c: Sequence[int], offset: int, T: int) -> dict[int, list[tuple]]:
    """The endpoint classes of the words of length T grouped by their slack
    c.x - offset, least slack first: slack -> [(start, end, counts, word
    count, least word)].  Every window lemma and facet certificate reads
    its slacks here."""
    groups: dict[int, list[tuple]] = {}
    for (start, end, x), (count, word) in endpoint_table(3, T).items():
        slack = sum(map(mul, c, x)) - offset
        groups.setdefault(slack, []).append((start, end, x, count, word))
    return dict(sorted(groups.items()))


def certify_facet(c: Sequence[int], T: int) -> FacetCertificate:
    """Exact minimum of c.x over the columns x, their tight rank and tight
    count in words (c.x = 0), and five sample tight words: the least word of
    each tight (start, end, counts) class, in text order, first five.  All
    of it is read off `_slack_classes`."""
    slacks = _slack_classes(c, 0, T)
    tight = slacks.get(0, [])
    return FacetCertificate(
        c=tuple(int(e) for e in c),
        T=T,
        min_value=min(slacks),
        tight_count=sum(count for *_, count, _ in tight),
        tight_rank=mat_rank(sorted({x for _, _, x, *_ in tight})),
        sample_tight_words=tuple(sorted(word.text for *_, word in tight)[:5]),
    )


def certify_all(T: int) -> list[FacetCertificate]:
    return [certify_facet(f.c, T) for f in homogeneous_facet_vectors(T)]


# ---------------------------------------------------------------------------
# Residue polyhedra Q^r and their published vertex lists


@lru_cache(maxsize=8)
def q_polyhedron(r: int) -> HPolyhedron:
    """The polyhedron cut out by the 24 affine facet inequalities at n=1."""
    ineqs = []
    for form in affine_facet_rows(r):
        for image in symmetry_orbit(form.ctilde):
            ineqs.append((image, form.a))
    H = HPolyhedron.make(6, ineqs)
    if len(H.inequalities) != 24:
        raise AssertionError(
            f"expected 24 inequalities for residue {r}, got {len(H.inequalities)}"
        )
    return H


@lru_cache(maxsize=8)
def q_vertices(r: int) -> VPolyhedron:
    return vertex_enumeration(q_polyhedron(r))


# Vertex generators of each Q^r as published, one representative per
# label-permutation orbit.  The stated coordinate order of these lists is
# x12, x21, x13, x31, x23, x32 (NOT the row order of the design matrix);
# verify_known_vertices checks both readings and reports which one matches.
_F = Fraction
KNOWN_Q_VERTEX_GENERATORS: dict[int, list[tuple[Fraction, ...]]] = {
    0: [
        (0, 1, 1, 0, 0, 1),
        (0, 1, 2, _F(1, 2), 1, _F(3, 2)),
        (0, 1, _F(3, 2), 1, _F(1, 2), 2),
        (0, 2, 2, 0, 1, 2),
        (0, 2, 2, 0, 2, 5),
        (0, 2, 2, _F(2, 3), 0, _F(7, 3)),
        (0, 2, 3, 0, 2, 4),
        (0, 2, 4, 2, 0, 3),
        (0, 2, _F(3, 2), 0, 0, _F(3, 2)),
        (0, 2, _F(7, 3), 0, _F(2, 3), 2),
        (0, 3, 4, 0, 0, 4),
        (0, _F(6, 5), _F(8, 5), _F(4, 5), _F(2, 5), _F(11, 5)),
        (0, _F(6, 5), _F(11, 5), _F(2, 5), _F(4, 5), _F(8, 5)),
        (_F(2, 3), _F(4, 3), _F(4, 3), _F(2, 3), _F(2, 3), _F(7, 3)),
    ],
    1: [
        (0, 0, 0, 0, 0, 0),
        (0, 0, 0, 1, 3, 2),
        (0, 0, 1, 0, 2, 3),
        (0, 1, 1, 0, 1, 3),
        (0, 1, 1, 0, 2, 2),
        (0, 1, 2, 0, 1, 2),
        (0, 1, 2, 1, 0, 2),
        (0, 1, _F(1, 2), _F(1, 2), _F(1, 2), _F(1, 2)),
        (0, _F(1, 2), 0, _F(1, 2), 1, 1),
        (0, _F(1, 2), 1, 1, _F(1, 2), 0),
        (0, _F(1, 2), _F(1, 2), 1, _F(1, 2), _F(1, 2)),
        (0, _F(1, 2), _F(1, 2), _F(1, 2), 1, _F(1, 2)),
    ],
    2: [
        (0, 1, 1, 0, 1, 2),
        (0, 1, 2, _F(1, 2), 2, _F(5, 2)),
        (0, 1, 3, _F(3, 2), 1, _F(3, 2)),
        (0, 1, _F(3, 2), 1, _F(3, 2), 3),
        (0, 1, _F(5, 2), 2, _F(1, 2), 2),
        (0, 2, 2, 0, 2, 5),
        (0, 2, 2, 0, 3, 4),
        (0, 2, 2, 1, 2, 4),
        (0, 2, 3, 0, 2, 4),
        (0, 2, 4, 2, 0, 3),
        (0, 2, 4, 2, 1, 2),
        (0, 3, 4, 0, 3, 7),
        (0, 3, 7, 3, 0, 4),
        (_F(1, 3), _F(2, 3), _F(2, 3), _F(1, 3), _F(1, 3), _F(2, 3)),
        (_F(1, 3), _F(2, 3), _F(5, 3), _F(5, 6), _F(4, 3), _F(7, 6)),
        (_F(1, 3), _F(2, 3), _F(7, 6), _F(4, 3), _F(5, 6), _F(5, 3)),
        (_F(2, 3), _F(4, 3), _F(4, 3), _F(2, 3), _F(2, 3), _F(7, 3)),
        (_F(2, 3), _F(4, 3), _F(4, 3), _F(2, 3), _F(5, 3), _F(4, 3)),
    ],
    3: [
        (0, 0, 0, 0, 0, 0),
        (0, 0, 0, 1, 1, 0),
        (0, 1, 1, 0, 2, 4),
        (0, 1, 2, 0, 2, 3),
        (0, 1, 3, 2, 0, 2),
    ],
    4: [
        (0, 1, 1, 0, 0, 1),
        (0, 1, 2, _F(1, 2), 1, _F(3, 2)),
        (0, 1, _F(3, 2), 1, _F(1, 2), 2),
        (0, 2, 2, 0, 1, 4),
        (0, 2, 2, 0, 2, 3),
        (0, 2, 2, 1, 1, 3),
        (0, 2, 3, 0, 1, 3),
        (0, 2, 3, 1, 0, 3),
        (0, 2, 3, 1, 1, 2),
        (0, 3, 4, 0, 2, 6),
        (0, 3, 6, 2, 0, 4),
        (_F(1, 3), _F(5, 3), _F(5, 3), _F(1, 3), _F(1, 3), _F(8, 3)),
        (_F(1, 3), _F(5, 3), _F(5, 3), _F(1, 3), _F(4, 3), _F(5, 3)),
    ],
    5: [
        (0, 0, 0, 0, 1, 1),
        (0, 0, 0, 1, 4, 3),
        (0, 0, 1, 0, 3, 4),
        (0, 1, 1, 0, 2, 4),
        (0, 1, 1, 0, 3, 3),
        (0, 1, 2, 0, 2, 3),
        (0, 1, 3, 2, 0, 2),
        (0, 1, _F(1, 2), _F(1, 2), _F(3, 2), _F(3, 2)),
        (0, 1, _F(3, 2), _F(3, 2), _F(1, 2), _F(1, 2)),
        (0, _F(1, 2), 0, _F(1, 2), 2, 2),
        (0, _F(1, 2), 2, 2, _F(1, 2), 0),
        (0, _F(1, 2), _F(1, 2), _F(1, 2), 2, _F(3, 2)),
        (0, _F(1, 2), _F(3, 2), 2, _F(1, 2), _F(1, 2)),
        (1, 2, _F(1, 2), _F(1, 2), _F(1, 2), _F(1, 2)),
    ],
}

# index maps from the stated list order into design-matrix row order
_STATED_TO_CANONICAL = (0, 2, 1, 4, 3, 5)  # x12,x21,x13,x31,x23,x32 -> sorted pairs


def published_vertex_orbit(r: int, perm=_STATED_TO_CANONICAL) -> set:
    """Published generator list for Q^r, expanded under the six relabelings."""
    expected: set[tuple[Fraction, ...]] = set()
    for gen in KNOWN_Q_VERTEX_GENERATORS[r]:
        v = tuple(gen[p] for p in perm)
        expected |= {g.vector(v) for g in symmetry_group(3) if not g.reverse}
    return expected


def _characterize_published(r: int, orbit: set) -> dict:
    """Facet description of conv(published vertex orbit) + loop cone, matched
    against the base affine rows (reverse-engineers what system the published
    lists are actually the vertices of)."""
    H = convex_hull(sorted(orbit), rays=LOOP_RAYS.values())
    by_normal = {tuple(f.ctilde): f for f in affine_facet_rows(r)}
    rhs = {}
    for normal, b in H.inequalities:
        if normal in by_normal:
            f = by_normal[normal]
            rhs[f.family] = {"table_rhs": f.a, "published_rhs": int(b)}
    return {"facets": len(H.inequalities), "base_row_rhs": rhs}


def verify_known_vertices(r: int) -> dict:
    """Compare computed vertices of Q^r against the published generator lists.

    The published lists state one index convention but the surrounding text
    uses another; both readings are tried and the matching one is reported.
    On mismatch the published V-data is reverse-engineered to the inequality
    system it actually solves, so the discrepancy is fully characterized.
    """
    computed = set(q_vertices(r).vertices)
    stated = published_vertex_orbit(r)
    orbits = {
        "x12,x21,x13,x31,x23,x32": stated,
        "x12,x13,x21,x23,x31,x32": published_vertex_orbit(r, (0, 1, 2, 3, 4, 5)),
    }
    results = {}
    matched = None
    for name, expected in orbits.items():
        missing = sorted(expected - computed)
        extra = sorted(computed - expected)
        results[name] = {
            "expected": len(expected),
            "missing": [[str(c) for c in v] for v in missing],
            "extra": [[str(c) for c in v] for v in extra],
            "match": not missing and not extra,
        }
        if results[name]["match"] and matched is None:
            matched = name
    max_l1 = max(sum(v) for v in computed)
    published_max_l1 = max(sum(v) for v in stated)
    report = {
        "r": r,
        "computed_vertices": len(computed),
        "convention_matched": matched,
        "conventions": results,
        "max_l1_norm": str(max_l1),
        "published_max_l1_norm": str(published_max_l1),
        "ok": matched is not None,
    }
    if matched is None:
        report["published_system"] = _characterize_published(r, stated)
    return report


def extend_vertex_along_ray(
    v: Sequence[Fraction], e: Sequence[int], T: int
) -> tuple[Fraction, ...]:
    """The point v + t*e on the hyperplane of coordinate sum T-1."""
    esum = sum(e)
    if esum <= 0:
        raise ValueError("degenerate ray: coordinate sum must be positive")
    vsum = sum(Fraction(c) for c in v)
    if Fraction(T - 1) < vsum:
        raise ValueError(f"T-1={T-1} below vertex coordinate sum {vsum}")
    t = (Fraction(T - 1) - vsum) / esum
    return tuple(Fraction(c) + t * f for c, f in zip(v, e))


@lru_cache(maxsize=32)
def model_hull(T: int, S: int) -> HPolyhedron:
    """Facet description of conv(A^T): double description of its columns."""
    return convex_hull(list(column_table(S, T)))


def _homogeneous_normals(H: HPolyhedron, T: int) -> set[tuple[int, ...]]:
    return {_homogeneous(normal, rhs, T) for normal, rhs in H.inequalities}


def hull_facets_homogeneous(T: int) -> set[tuple[int, ...]]:
    """Facets of conv(A^T), each rewritten as a primitive homogeneous normal."""
    return _homogeneous_normals(model_hull(T, 3), T)


def verify_facet_completeness(T: int) -> dict:
    """Run the completeness check that the 24 known facets cut out conv(A^T).

    Two routes: (1) every vertex-ray extension point p of the residue
    polyhedron lies in conv(A^T): with k the least common denominator of p,
    the trail search splits k*p into k words of length T, and the split is
    re-checked in exact integers (a wrong one raises AssertionError).  Only
    when the words miss does route 1 lean on the double-description hull:
    p is then decided exactly against its inequalities and equations, so
    `in_polytope` is an exact verdict either way.  (2) The hull facets
    computed by double description equal the 24 affine facet inequalities of
    the residue class, both read as homogeneous normals at time T.  An
    integral point (k = 1) records its word, the lexicographically least
    one with its counts.  ValueError below T = 5, as the facet families.
    """
    if T < 5:
        raise ValueError(f"facet description starts at T=5, got T={T}")
    r = T % 6
    V = q_vertices(r)
    extensions = []
    all_inside = True
    for v in V.vertices:
        for e in V.rays:
            p = extend_vertex_along_ray(v, e, T)
            k = lcm(*(c.denominator for c in p))
            kp = tuple(int(k * c) for c in p)
            split = decompose_into_paths(kp, k, T)
            if split is None:
                inside = in_dilation(model_hull(T, 3), p, 1)
            else:
                check_split(split, kp, k, T, 3)
                inside = True
            all_inside &= inside
            integral = k == 1
            entry = {
                "vertex": [str(c) for c in v],
                "ray": list(e),
                "point": [str(c) for c in p],
                "in_polytope": inside,
                "integral": integral,
            }
            if integral and inside:
                entry["induction_witness_word"] = split[0].text if split else None
            extensions.append(entry)
    hull_set = hull_facets_homogeneous(T)
    expansion = _homogeneous_normals(q_polyhedron(r), T)
    return {
        "T": T,
        "r": r,
        "extension_points": len(extensions),
        "all_extensions_inside": all_inside,
        "hull_facets": len(hull_set),
        "expansion_facets": len(expansion),
        "hull_equals_expansion": hull_set == expansion,
        "extensions": extensions,
        "ok": all_inside and hull_set == expansion and len(hull_set) == 24,
    }


# ---------------------------------------------------------------------------
# Window inequalities over short path segments


class _Window(NamedTuple):
    """One window lemma: over the words of length T, c.x - offset >= 0, and
    the (start, end) pairs at slack 0, 1, 2 lie within `allowed` (None: any
    pair), or equal it when `exact`; `tight` asks for slack 0 to occur, and
    `paths`, when given, are exactly the words at slack 0."""

    name: str
    c: tuple[int, ...]
    offset: int
    T: int
    allowed: tuple[Optional[set], ...] = ()
    exact: bool = False
    tight: bool = False
    paths: Optional[set[str]] = None
    detail: str = ""


def _form(weights: dict[tuple[int, int], int]) -> tuple[int, ...]:
    return tuple(weights.get(pair, 0) for pair in pair_list(3))


def _windows(max_k: int) -> list[_Window]:
    triples = list(permutations((1, 2, 3)))
    stay = {(1, 1), (2, 2), (3, 3)}

    def asym(i, j, t):  # 2x_ij + x_it + x_tj - x_ji
        return _form({(i, j): 2, (i, t): 1, (t, j): 1, (j, i): -1})

    out = [
        _Window(f"3step-cover-{i}{j}{t}", _form({(i, j): 1, (j, t): 1, (i, t): 1}), 1, 4,
                tight=True)
        for i, j, t in triples
    ]
    out += [
        _Window(
            f"3step-asym-{i}{j}{t}", asym(i, j, t), 0, 4,
            (None, {(j, t), (t, i)} | stay, {(t, j), (i, t)} | stay),
            paths={f"{j}{i}{j}{i}", f"{j}{t}{j}{i}", f"{j}{i}{t}{i}"},
        )
        for i, j, t in triples
    ]
    out += [
        _Window(
            f"6step-{i}{j}{t}", asym(i, j, t), 1, 7,
            ({(j, i)}, {(j, i), (j, t), (t, i)} | stay), exact=True,
            detail="slack-1 nets = three movements + three stationary returns",
        )
        for i, j, t in triples
    ]
    out += [
        _Window(f"len{6 * k + 1}-{i}{j}{t}", asym(i, j, t), 2 * k - 1, 6 * k + 1,
                ({(s, i) for s in (1, 2, 3)},))
        for k in range(1, max_k + 1)
        for i, j, t in triples
    ]
    out += [
        _Window(f"even-len{T}", _form({(1, 2): 2, (1, 3): 1, (3, 2): 1}), T // 2 - 1, T,
                ({(s, e) for s in (1, 2, 3) for e in (1, 3)},))
        for T in range(2, 6 * max_k + 2, 2)
    ]
    return out


def _window_check(w: _Window) -> dict:
    slacks = _slack_classes(w.c, w.offset, w.T)
    ok = min(slacks) >= 0 and (0 in slacks or not w.tight)
    for s, want in enumerate(w.allowed):
        found = {(start, end) for start, end, *_ in slacks.get(s, ())}
        ok &= want is None or (found == want if w.exact else found <= want)
    detail = w.detail
    if w.paths is not None:
        tight = slacks.get(0, [])
        words = sorted(word.text for *_, word in tight)
        ok &= set(words) == w.paths and sum(count for *_, count, _ in tight) == len(words)
        detail = f"equality paths {words}"
    return {"name": w.name, "pass": ok, "detail": detail}


def verify_window_inequalities(max_k: int = 3) -> dict:
    """Exhaustively confirm the short-window count inequalities.

    Checks, for all ordered distinct state triples (i,j,t), over every word
    of the given length, read as the classes of `_slack_classes`:
      * 3 steps:  x_ij + x_jt + x_it >= 1, minimum attained;
      * 3 steps:  2x_ij + x_it + x_tj >= x_ji with the exact equality paths
        jiji, jtji, jiti; slack 1 only from j to t, from t to i or back to
        the start, slack 2 only from t to j, from i to t or back to the
        start;
      * 6 steps:  2x_ij + x_it + x_tj >= x_ji + 1, equality exactly from j
        to i; slack 1 exactly at the six endpoint pairs j->i, j->t, t->i,
        i->i, j->j and t->t, each occurring (for (i,j,t) = (1,2,3), 2132132
        returns to its start with slack 1);
      * length 6k+1: 2x_ij + x_it + x_tj >= x_ji + 2k-1, equality only
        ending at i (k <= max_k);
      * even length 2k: 2x12 + x13 + x32 >= k-1, strict when ending at 2
        (2k <= 6*max_k + 1).
    """
    checks = [_window_check(w) for w in _windows(max_k)]
    return {"ok": all(c["pass"] for c in checks), "checks": checks}
