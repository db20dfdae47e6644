"""Two-term complexes: homotopy homs, minimal forms, silting, mutation."""

from collections import Counter

import pytest

from tautilt import explorer as ex
from tautilt import linalg
from tautilt import modules as md
from tautilt import tauops as to
from tautilt import twoterm as tt
from tautilt.algebra import (
    AlgebraElement,
    BasicAlgebra,
    Quiver,
    Relation,
    compile_bound_quiver,
)
from tautilt.errors import PreconditionViolated, SearchBudgetExceeded, TautiltError
from tautilt.linalg import QQ, Field, det

from conftest import whole_complex


def P(alg, i):
    return md.projective(alg, i)


def S(alg, i):
    return md.simple(alg, i)


def pair(alg, m_parts, p_parts=()):
    return md.pair_from_summands(alg, m_parts, p_parts)


def cplx(alg, m_parts, p_parts=()):
    return whole_complex(pair(alg, m_parts, p_parts))


def free_silting(alg):
    # the algebra in degree 0, the maximal two-term silting complex
    return tt.stalk_complex(alg, list(range(alg.n)), 0)


def shifted_silting(alg):
    # the algebra in degree -1, the minimal one
    return tt.stalk_complex(alg, list(range(alg.n)), -1)


def g_matrix(t):
    # the g-vectors of the indecomposable summands, sorted
    return sorted(token[1] for token in tt.to_tau_pair(t).fingerprint())


def assert_silting(t):
    # basic two-term silting, with a g-matrix of determinant +-1
    assert tt.is_silting(t)
    assert det([list(g) for g in g_matrix(t)], QQ) in (QQ(1), QQ(-1))


# ---------------------------------------------------------------------------
# construction and validation


def test_free_silting_shape(a2):
    t = free_silting(a2)
    t.validate()
    assert t.support() == [0]
    assert t.g_vec() == (1, 1)


def test_shifted_silting_shape(a2):
    t = shifted_silting(a2)
    assert t.support() == [-1]
    assert t.g_vec() == (-1, -1)


def test_shift_moves_support(a2):
    t = free_silting(a2)
    assert t.shift(1).support() == [-1]
    assert t.shift(1).shift(-1).key() == t.key()


def test_g_vector_outside_window_rejected(a2):
    t = free_silting(a2).shift(2)
    with pytest.raises(PreconditionViolated):
        t.g_vec()


def test_differential_square_checked(a3):
    # P3 -b-> P2 -a-> P1 on linear A3: each block stays in its Peirce
    # block, and d^2 = a*b is not zero
    a, b = (a3.path_element([lbl]) for lbl in "ab")
    assert not (a * b).is_zero()
    terms = {-2: [2], -1: [1], 0: [0]}
    bad = tt.ProjectiveComplex(a3, terms, {-2: [[b]], -1: [[a]]}, check=False)
    with pytest.raises(TautiltError, match="square to zero"):
        bad.validate()


# ---------------------------------------------------------------------------
# homotopy hom spaces


def test_hom_free_free_is_algebra_dim(a2, cyc3):
    assert tt.hom_k(free_silting(a2), free_silting(a2)) == a2.dim
    assert tt.hom_k(free_silting(cyc3), free_silting(cyc3)) == cyc3.dim


def test_free_silting_is_presilting(a2):
    assert tt.hom_k(free_silting(a2), free_silting(a2), 1) == 0


def test_hom_simple_complex_endo(a2):
    c = cplx(a2, [S(a2, 0)])
    assert tt.hom_k(c, c) == 1
    assert tt.hom_k(c, c, 1) == 0


def test_hom_detects_nonrigid_pair(a2):
    # Hom(S1 + P2, tau(S1 + P2)) != 0 shows up in degree one
    c = cplx(a2, [S(a2, 0)])
    p2 = tt.stalk_complex(a2, [1])
    assert tt.hom_k(c, p2, 1) == 1
    assert tt.hom_k(p2, c, 1) == 0


def test_hom_shift_invariance(a2):
    c = cplx(a2, [S(a2, 0)])
    p2 = tt.stalk_complex(a2, [1])
    assert tt.hom_k(c.shift(1), p2.shift(1), 1) == tt.hom_k(c, p2, 1)
    assert tt.hom_k(c.shift(-2), p2.shift(-2)) == tt.hom_k(c, p2)


def test_projective_stalk_and_shift_not_presilting(a2):
    p1 = tt.stalk_complex(a2, [0])
    t = tt.direct_sum_complexes([p1, p1.shift(1)])
    assert tt.hom_k(t, t, 1) == 1
    assert not tt.is_presilting(t)


def test_sum_of_one_part_is_that_part(a2):
    p1 = tt.stalk_complex(a2, [0])
    assert tt.direct_sum_complexes([p1]) is p1


def test_presilting_requires_two_term(a2):
    three = tt.ProjectiveComplex(a2, {-2: [0], 0: [1]}, {})
    with pytest.raises(PreconditionViolated):
        tt.is_presilting(three)


def _reference_coordinates(x, y, s):
    # (i, m, k, q): basis element q in block (m, k) of f^i: x^i -> y^{i+s}
    alg = x.algebra
    return [
        (i, m, k, q)
        for i in x.support()
        for m, w in enumerate(y.term_vertices(i + s))
        for k, v in enumerate(x.term_vertices(i))
        for q in alg.peirce_basis(w, v)
    ]


def _reference_differential(x, y, s):
    # D(f) = f.d_x - (-1)^s d_y.f of every coordinate f of degree s, by
    # AlgebraElement products, as a vector over the coordinates of degree s + 1
    alg = x.algebra
    target = {c: pos for pos, c in enumerate(_reference_coordinates(x, y, s + 1))}
    sign = alg.field(1 if s % 2 == 0 else -1)
    images = []
    for i, m, k, q in _reference_coordinates(x, y, s):
        f = alg.basis_element(q)
        terms = []  # (degree, row, column, element) of the image
        if i - 1 in x.terms:
            for k2 in range(len(x.term_vertices(i - 1))):
                terms.append((i - 1, m, k2, f * x.diff(i - 1)[k][k2]))
        if i + s + 1 in y.terms:
            for m2 in range(len(y.term_vertices(i + s + 1))):
                terms.append((i, m2, k, -(y.diff(i + s)[m2][m] * f).scale(sign)))
        vec = [alg.field.zero] * len(target)
        for j, row, col, elt in terms:
            for t, c in enumerate(elt.coeffs):
                if c:
                    pos = target[j, row, col, t]  # a KeyError leaves the Peirce block
                    vec[pos] = vec[pos] + c
        images.append(vec)
    return images


def _same_span(a, b, field):
    return linalg.rank(a, field) == linalg.rank(b, field) == linalg.rank(a + b, field)


def _assert_hom_data_matches_reference(x, y):
    field = x.field
    for s in (-1, 0, 1, 2):
        chains, boundaries, layout = tt.chain_hom_data(x, y, s)
        coords = _reference_coordinates(x, y, s)
        assert [(i, m, k, q) for i, m, k, qs, _ in layout for q in qs] == coords
        assert [off for *_, off in layout] == [
            sum(len(qs) for *_, qs, _ in layout[:pos]) for pos in range(len(layout))
        ]
        if s == 2 and x.is_two_term() and y.is_two_term():
            assert not coords  # no map x^i -> y^(i+2) inside degrees -1, 0
        if not coords:
            assert chains == boundaries == []
            continue
        images = _reference_differential(x, y, s)
        # kernel of D_s: the columns of the equations are the images
        equations = linalg.mat_transpose(images)
        assert chains == linalg.right_nullspace(equations, field, cols=len(coords))
        reference = [v for v in _reference_differential(x, y, s - 1) if any(v)]
        assert _same_span(boundaries, reference, field)
        assert linalg.rank(chains + boundaries, field) == len(chains)


def _cycle4(field):
    q = Quiver(["1", "2", "3", "4"], [(f"a{i}", str(i), str(i % 4 + 1)) for i in range(1, 5)])
    rels = [Relation(q, [(1, (f"a{i}", f"a{i % 4 + 1}"))]) for i in range(1, 5)]
    return compile_bound_quiver(q, rels, field)


HOM_DATA = {
    "A3": lambda build: _linear3(QQ),
    "cyc3": lambda build: _cycle3(QQ),
    "cyc4": lambda build: _cycle4(QQ),
    "Pi(A3)": lambda build: build(3),
    "cyc3/F3": lambda build: _cycle3(Field(3)),
}


@pytest.mark.parametrize("name", sorted(HOM_DATA))
def test_chain_hom_data_matches_the_hom_complex(name, preprojective, monkeypatch):
    # every ordered pair of the parts of the nodes, and every three-term
    # cone that mutate_complex builds, checked against the Hom complex
    # assembled from AlgebraElement products
    alg = HOM_DATA[name](preprojective)
    cones = {}
    build_cone = tt.cone

    def recorded(x, y, f_blocks):
        c = build_cone(x, y, f_blocks)
        if len(c.support()) == 3:
            cones.setdefault(c.key(), c)
        return c

    monkeypatch.setattr(tt, "cone", recorded)
    graph = ex.build_exchange_graph(alg)
    parts = {c.key(): c for node in graph.node_list() for c in node.complex.parts}
    for x in parts.values():
        for y in parts.values():
            _assert_hom_data_matches_reference(x, y)
    assert cones
    ring = list(cones.values())
    for c, d in zip(ring, ring[1:] + ring[:1]):
        _assert_hom_data_matches_reference(c, c)
        if c.algebra is d.algebra:
            _assert_hom_data_matches_reference(c, d)


# ---------------------------------------------------------------------------
# minimal forms


def test_minimalize_contractible(a2):
    contr = tt.ProjectiveComplex(a2, {-1: [0], 0: [0]}, {-1: [[a2.e(0)]]})
    assert tt.minimalize(contr).is_zero()


def test_minimalize_universal_extension(a2):
    # P1 + P2 -> P1 + P1 with matrix diag(e1, a) reduces to P2 -> P1
    z = a2.zero_element()
    a = a2.basis_element(a2.names.index("a"))
    big = tt.ProjectiveComplex(
        a2, {-1: [0, 1], 0: [0, 0]}, {-1: [[a2.e(0), z], [z, a]]}
    )
    m = tt.minimalize(big)
    assert dict(m.terms) == {-1: [1], 0: [0]}
    assert tt.to_tau_pair(m).fingerprint() == pair(a2, [S(a2, 0)]).fingerprint()


def test_minimalize_keeps_minimal(a2):
    c = cplx(a2, [S(a2, 0)])
    assert tt.minimalize(c).key() == c.key()


# ---------------------------------------------------------------------------
# pair <-> complex dictionary

A2_PAIRS = [
    (["P1", "P2"], []),
    (["P1", "S1"], []),
    (["S1"], ["P2"]),
    (["P2"], ["P1"]),
    ([], ["P1", "P2"]),
]


def _named(alg, names):
    out = []
    for nm in names:
        idx = int(nm[1:]) - 1
        out.append(P(alg, idx) if nm[0] == "P" else S(alg, idx))
    return out


@pytest.mark.parametrize("m_names,p_names", A2_PAIRS)
def test_pair_complex_roundtrip_a2(a2, m_names, p_names):
    pr = pair(a2, _named(a2, m_names), _named(a2, p_names))
    t = whole_complex(pr)
    t.validate()
    assert tt.is_silting(t)
    back = tt.to_tau_pair(t)
    assert back.fingerprint() == pr.fingerprint()
    assert tt.to_tau_pair(t).fingerprint() == pr.fingerprint()


def test_pair_complex_roundtrip_cyc3(cyc3):
    rows = [
        ([P(cyc3, 0), P(cyc3, 1), P(cyc3, 2)], []),
        ([S(cyc3, 2), P(cyc3, 1), P(cyc3, 2)], []),
        ([S(cyc3, 2), P(cyc3, 2)], [P(cyc3, 1)]),
        ([S(cyc3, 2)], [P(cyc3, 1), P(cyc3, 0)]),
        ([], [P(cyc3, 0), P(cyc3, 1), P(cyc3, 2)]),
    ]
    for m_parts, p_parts in rows:
        pr = pair(cyc3, m_parts, p_parts)
        t = whole_complex(pr)
        assert tt.is_silting(t)
        assert tt.to_tau_pair(t).fingerprint() == pr.fingerprint()


def test_g_matrices_of_a2_pairs(a2):
    got = {}
    for m_names, p_names in A2_PAIRS:
        t = whole_complex(pair(a2, _named(a2, m_names), _named(a2, p_names)))
        got[(tuple(m_names), tuple(p_names))] = g_matrix(t)
    assert got[("P1", "P2"), ()] == [(0, 1), (1, 0)]
    assert got[("P1", "S1"), ()] == [(1, -1), (1, 0)]
    assert got[("S1",), ("P2",)] == [(0, -1), (1, -1)]
    assert got[("P2",), ("P1",)] == [(-1, 0), (0, 1)]
    assert got[(), ("P1", "P2")] == [(-1, 0), (0, -1)]


def test_g_vector_matches_module_g_vector(cyc3):
    for i in range(3):
        t = cplx(cyc3, [S(cyc3, i)])
        assert t.g_vec() == md.g_vector(S(cyc3, i))


# ---------------------------------------------------------------------------
# decomposition and isomorphism


def test_decompose_free(cyc3):
    parts = tt.decompose_complex(free_silting(cyc3))
    assert len(parts) == 3
    assert all(mult == 1 for _, mult in parts)


def test_decompose_zero(a2):
    assert tt.decompose_complex(tt.zero_complex(a2)) == []


@pytest.mark.parametrize("field", [QQ, Field(2), Field(3)], ids=["Q", "F2", "F3"])
def test_decompose_with_multiplicity(field):
    a2 = compile_bound_quiver(Quiver(["1", "2"], [("a", "1", "2")]), [], field)
    c = cplx(a2, [S(a2, 0)])
    t = tt.direct_sum_complexes([c, c, tt.stalk_complex(a2, [0])])
    parts = tt.decompose_complex(t)
    mults = sorted(mult for _, mult in parts)
    assert mults == [1, 2]


def test_iso_invariant_under_basis_change(a2):
    # same complex written with a scaled differential
    a = a2.basis_element(a2.names.index("a"))
    c1 = tt.ProjectiveComplex(a2, {-1: [1], 0: [0]}, {-1: [[a]]})
    c2 = tt.ProjectiveComplex(a2, {-1: [1], 0: [0]}, {-1: [[a.scale(7)]]})
    fp = tt.to_tau_pair(c1).fingerprint()
    assert fp == tt.to_tau_pair(c2).fingerprint()
    assert fp != tt.to_tau_pair(tt.stalk_complex(a2, [0])).fingerprint()


def test_isomorphic_complexes_by_their_pieces(a2):
    # the isomorphism swaps the summands; End(H^0) is not local, so the
    # pieces of H^0 decide
    a = tt.stalk_complex(a2, [0, 1])
    b = tt.stalk_complex(a2, [1, 0])
    assert md.is_isomorphic(tt.to_tau_pair(a).m, tt.to_tau_pair(b).m)
    assert tt.to_tau_pair(a).fingerprint() == tt.to_tau_pair(b).fingerprint()


def test_decompose_complex_raises_when_end_is_a_larger_field(sqrt2_module):
    t = tt.summand_complex("m", sqrt2_module)
    with pytest.raises(SearchBudgetExceeded):
        tt.decompose_complex(t)


def _linear3(field):
    q = Quiver(["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3")])
    return compile_bound_quiver(q, [], field)


def _unitriangular(alg, verts, coeff):
    """An invertible base change of the sum of the e_vA: the identity plus
    coeff times each Peirce basis element below the diagonal."""
    zero = alg.zero_element()
    scaled = [alg.basis_element(q).scale(alg.field(coeff)) for q in range(alg.dim)]
    return [
        [
            alg.e(v) if k == l
            else sum((scaled[q] for q in alg.peirce_basis(w, v)), zero) if k < l
            else zero
            for k, v in enumerate(verts)
        ]
        for l, w in enumerate(verts)
    ]


def _mat_mul(a, b, alg):
    zero = alg.zero_element()
    out = []
    for row in a:
        new = []
        for k in range(len(b[0])):
            acc = zero
            for l, x in enumerate(row):
                acc = acc + x * b[l][k]
            new.append(acc)
        out.append(new)
    return out


def _scrambled(t, coeff):
    """t with its differential d replaced by G d H and its degree -1 term
    listed backwards, for G and H unitriangular base changes of degrees 0
    and -1; isomorphic to t as a complex."""
    alg = t.algebra
    lower, upper = t.term_vertices(-1), t.term_vertices(0)
    g, h = _unitriangular(alg, upper, coeff), _unitriangular(alg, lower, coeff + 1)
    d = _mat_mul(_mat_mul(g, t.diff(-1), alg), h, alg)
    return tt.ProjectiveComplex(
        alg, {-1: lower[::-1], 0: list(upper)}, {-1: [row[::-1] for row in d]}
    )


FIELDS = [QQ, Field(2), Field(3)]


def _not_presilting_parts(alg):
    # P(S1) + P(S2)^2 + P2[1]^2 over A3: minimal and decomposable, and not
    # presilting since Hom(P2, S2) != 0
    s1, s2, p2 = S(alg, 0), S(alg, 1), P(alg, 1)
    parts = [tt.summand_complex("m", s1)] + [tt.summand_complex("m", s2)] * 2
    parts += [tt.summand_complex("p", p2)] * 2
    return parts, pair(alg, [s1, s2, s2], [p2, p2])


@pytest.mark.parametrize("field", FIELDS, ids=["Q", "F2", "F3"])
def test_decompose_complex_splits_through_h0(field):
    alg = _linear3(field)
    parts, pr = _not_presilting_parts(alg)
    t = _scrambled(tt.direct_sum_complexes(parts), 1)
    assert t.key() != tt.direct_sum_complexes(parts).key()
    assert not tt.is_presilting(t)
    assert sorted(mult for _, mult in tt.decompose_complex(t)) == [1, 2, 2]
    assert tt.to_tau_pair(t).fingerprint() == pr.fingerprint()


@pytest.mark.parametrize("field", FIELDS, ids=["Q", "F2", "F3"])
def test_complex_splits_are_two_term_only(field):
    alg = _linear3(field)
    parts, _ = _not_presilting_parts(alg)
    three = tt.direct_sum_complexes(parts + [tt.stalk_complex(alg, [0], -2)])
    with pytest.raises(PreconditionViolated):
        tt.decompose_complex(three)


# ---------------------------------------------------------------------------
# silting objects, order, mutation


def test_assert_silting_accepts_extremes(a2, cyc3):
    for alg in (a2, cyc3):
        assert_silting(free_silting(alg))
        assert_silting(shifted_silting(alg))


def test_silting_needs_full_rank(a2):
    p1 = tt.stalk_complex(a2, [0])
    assert tt.is_presilting(p1)
    assert not tt.is_silting(p1)


def test_silting_order_extremes(a2):
    free = free_silting(a2)
    shifted = shifted_silting(a2)
    mids = [cplx(a2, _named(a2, m), _named(a2, p)) for m, p in A2_PAIRS]
    assert all(tt.silting_leq(t, free) for t in mids)
    assert all(tt.silting_leq(shifted, t) for t in mids)


def test_silting_order_incomparable(a2):
    x = cplx(a2, [P(a2, 0), S(a2, 0)])
    y = cplx(a2, [P(a2, 1)], [P(a2, 0)])
    assert not tt.silting_leq(x, y)
    assert not tt.silting_leq(y, x)


def _mutation_closure(alg):
    t0 = free_silting(alg)
    seen = {tt.to_tau_pair(t0).fingerprint(): t0}
    frontier = [t0]
    while frontier:
        t = frontier.pop()
        for idx in range(len(tt.decompose_complex(t))):
            for direction in ("left", "right"):
                m = tt.mutate_complex(t, idx, direction)
                if m is None:
                    continue
                fp = tt.to_tau_pair(m).fingerprint()
                if fp not in seen:
                    seen[fp] = m
                    frontier.append(m)
    return seen


def test_mutation_closure_pentagon(a2):
    seen = _mutation_closure(a2)
    assert len(seen) == 5
    gs = sorted(g_matrix(t) for t in seen.values())
    assert gs == [
        [(-1, 0), (0, -1)],
        [(-1, 0), (0, 1)],
        [(0, -1), (1, -1)],
        [(0, 1), (1, 0)],
        [(1, -1), (1, 0)],
    ]
    assert all(tt.is_silting(t) for t in seen.values())


def test_single_mutations_of_free(a2):
    free = free_silting(a2)
    parts = tt.decompose_complex(free)
    by_g = {c.g_vec(): idx for idx, (c, _) in enumerate(parts)}
    m_at_p1 = tt.mutate_complex(free, by_g[(1, 0)], "left")
    m_at_p2 = tt.mutate_complex(free, by_g[(0, 1)], "left")
    assert tt.to_tau_pair(m_at_p1).fingerprint() == pair(
        a2, [P(a2, 1)], [P(a2, 0)]
    ).fingerprint()
    assert tt.to_tau_pair(m_at_p2).fingerprint() == pair(
        a2, [P(a2, 0), S(a2, 0)]
    ).fingerprint()
    # right mutation of the free object leaves the window
    assert tt.mutate_complex(free, 0, "right") is None


def test_mutation_expects_two_term_input(a2):
    outside = free_silting(a2).shift(-1)
    for direction in ("left", "right"):
        with pytest.raises(PreconditionViolated):
            tt.mutate_complex(outside, 0, direction)


def _cycle3(field):
    q = Quiver(["1", "2", "3"], [("a3", "1", "2"), ("a1", "2", "3"), ("a2", "3", "1")])
    paths = [("a1", "a2"), ("a2", "a3"), ("a3", "a1")]
    rels = [Relation(q, [(1, path)]) for path in paths]
    return compile_bound_quiver(q, rels, field)


def test_mutation_is_involutive(a2, a3, cyc3):
    # right mutation is the dual of left mutation, so it must undo every left
    # move at the slot of the new summand and stay over the same algebra
    for alg in (a2, a3, cyc3, _cycle3(Field(3))):
        moves = 0
        for t in _mutation_closure(alg).values():
            keys = [c.key() for c, _ in tt.decompose_complex(t)]
            for idx in range(len(keys)):
                m = tt.mutate_complex(t, idx, "left")
                if m is None:
                    continue
                new = [c.key() not in keys for c, _ in tt.decompose_complex(m)]
                assert new.count(True) == 1
                back = tt.mutate_complex(m, new.index(True), "right")
                assert back is not None
                assert back.algebra is t.algebra
                assert tt.to_tau_pair(back).fingerprint() == tt.to_tau_pair(t).fingerprint()
                moves += 1
        assert moves > 0


def test_mutation_closure_matches_pair_count_cyc3(cyc3):
    assert len(_mutation_closure(cyc3)) == 14


def test_mutation_exchanges_exactly_one_summand(a3, cyc3):
    # The cone of a minimal approximation of an indecomposable is
    # indecomposable, so every mutation keeps exactly n - 1 summands.
    for alg in (a3, cyc3):
        seen = _mutation_closure(alg)
        assert len(seen) == 14
        mutated = 0
        for t in seen.values():
            before = Counter(tt.to_tau_pair(t).fingerprint())
            for idx in range(alg.n):
                for direction in ("left", "right"):
                    m = tt.mutate_complex(t, idx, direction)
                    if m is None:
                        continue
                    after = Counter(tt.to_tau_pair(m).fingerprint())
                    assert sum(after.values()) == alg.n
                    assert sum((before & after).values()) == alg.n - 1
                    mutated += 1
        assert mutated > 0


def _cold_twin(alg):
    """The same algebra (same basis and products) with an empty cache."""
    return BasicAlgebra(
        alg.field, alg.vertex_labels, alg.names, alg.peirce, alg.mult,
        alg.words, alg.arrows,
    )


def test_carried_summands_match_a_cold_decomposition(a3, cyc3):
    # A mutation result carries the summands it was built from.  Rebuild it
    # from its terms and differentials over a cold-cache twin of the
    # algebra, where decompose_complex splits it through H^0, and compare.
    for alg in (a3, cyc3):
        twin = _cold_twin(alg)
        checked = 0
        for t in _mutation_closure(alg).values():
            for idx in range(alg.n):
                for direction in ("left", "right"):
                    m = tt.mutate_complex(t, idx, direction)
                    if m is None:
                        continue
                    carried = tt.decompose_complex(m)
                    diffs = {
                        i: [[AlgebraElement(twin, e.coeffs) for e in row] for row in blocks]
                        for i, blocks in m.diffs.items()
                    }
                    cold = tt.ProjectiveComplex(twin, m.terms, diffs)
                    found = tt.decompose_complex(cold)
                    assert len(found) == alg.n
                    assert all(mult == 1 for _, mult in found)
                    assert Counter(c.g_vec() for c, _ in found) == Counter(
                        c.g_vec() for c, _ in carried
                    )
                    checked += 1
        assert checked > 0


# ---------------------------------------------------------------------------
# completions and duality


def test_left_completion_values_a2(a2):
    u = tt.stalk_complex(a2, [0])
    expect = {
        (("P1", "P2"), ()): (["P1", "P2"], []),
        (("P1", "S1"), ()): (["P1", "S1"], []),
        (("S1",), ("P2",)): (["P1", "S1"], []),
        (("P2",), ("P1",)): (["P1", "P2"], []),
        ((), ("P1", "P2")): (["P1", "S1"], []),
    }
    for m_names, p_names in A2_PAIRS:
        t = cplx(a2, _named(a2, m_names), _named(a2, p_names))
        out = tt.left_completion_silting(u, t)
        em, ep = expect[(tuple(m_names), tuple(p_names))]
        want = pair(a2, _named(a2, em), _named(a2, ep)).fingerprint()
        assert tt.to_tau_pair(out).fingerprint() == want
        assert_silting(out)


def test_left_completion_minimal_cyc3(cyc3):
    # completing P1 against the fully shifted object picks the smallest
    # torsion class generated by P1
    u = tt.stalk_complex(cyc3, [0])
    out = tt.left_completion_silting(u, shifted_silting(cyc3))
    want = pair(cyc3, [P(cyc3, 0), S(cyc3, 0)], [P(cyc3, 2)]).fingerprint()
    assert tt.to_tau_pair(out).fingerprint() == want


def test_left_completion_bongartz_cyc3(cyc3):
    u = tt.stalk_complex(cyc3, [0])
    out = tt.left_completion_silting(u, free_silting(cyc3))
    assert tt.to_tau_pair(out).fingerprint() == pair(
        cyc3, [P(cyc3, 0), P(cyc3, 1), P(cyc3, 2)]
    ).fingerprint()


def test_right_completion_via_duality(a2):
    u = pair(a2, [P(a2, 0)])
    out = to.right_bongartz(u, pair(a2, [P(a2, 0), P(a2, 1)]))
    assert out.fingerprint() == pair(a2, [P(a2, 0), P(a2, 1)]).fingerprint()
    mid = pair(a2, [P(a2, 0), S(a2, 0)])
    assert to.right_bongartz(u, mid).fingerprint() == mid.fingerprint()


def test_completion_preconditions_enforced(a2):
    shifted_p1 = tt.stalk_complex(a2, [0]).shift(1)
    with pytest.raises(PreconditionViolated):
        tt.left_completion_silting(shifted_p1, free_silting(a2))
    with pytest.raises(PreconditionViolated):
        to.right_bongartz(pair(a2, [P(a2, 0)]), to.shifted_pair(a2))


# ---------------------------------------------------------------------------
# minimal approximations


def _summands(t):
    return [c for c, _ in tt.decompose_complex(t)]


def _product(alg, a, b, cols):
    # the element matrix a times b, for b with cols columns
    zero = alg.zero_element()
    return [[sum((row[l] * b[l][k] for l in range(len(b))), zero) for k in range(cols)] for row in a]


def _assert_chain_map(x, y, blocks):
    # f^(i+1) d_x^i = d_y^i f^i in every degree, from AlgebraElement products
    alg = x.algebra
    zero = alg.zero_element()

    def f(i):
        if i in blocks:
            return blocks[i]
        return [[zero] * len(x.term_vertices(i)) for _ in y.term_vertices(i)]

    for i in set(x.support()) | set(y.support()):
        cols = len(x.term_vertices(i))
        lhs = _product(alg, f(i + 1), x.diff(i), cols)
        rhs = _product(alg, y.diff(i), f(i), cols)
        assert [[e.coeffs for e in row] for row in lhs] == [[e.coeffs for e in row] for row in rhs]


def test_chain_map_check_rejects_a_broken_square(a3):
    # on P2 -a-> P1 the identity is a chain map; with its degree -1 block
    # set to zero it is not
    x = tt.ProjectiveComplex(a3, {-1: [1], 0: [0]}, {-1: [[a3.path_element(["a"])]]})
    _assert_chain_map(x, x, {-1: [[a3.e(1)]], 0: [[a3.e(0)]]})
    with pytest.raises(AssertionError):
        _assert_chain_map(x, x, {-1: [[a3.zero_element()]], 0: [[a3.e(0)]]})


def test_min_left_approx_split_case(a2):
    x = tt.stalk_complex(a2, [1])
    target, blocks = tt.min_left_approx(x, _summands(free_silting(a2)))
    _assert_chain_map(x, target, blocks)
    assert tt.to_tau_pair(target).fingerprint() == tt.to_tau_pair(x).fingerprint()


def test_min_left_approx_can_be_zero(a2):
    x = cplx(a2, [S(a2, 0)])
    target, _ = tt.min_left_approx(x, _summands(free_silting(a2)))
    assert target.is_zero()


def test_min_left_approx_minimal_target(a2):
    x = tt.stalk_complex(a2, [0])
    u = cplx(a2, [S(a2, 0)])
    target, blocks = tt.min_left_approx(x, _summands(u))
    _assert_chain_map(x, target, blocks)
    assert tt.to_tau_pair(target).fingerprint() == tt.to_tau_pair(u).fingerprint()
    assert len(tt.decompose_complex(target)) == 1


def test_dagger_involution(a3, cyc3):
    # exact, not up to isomorphism: daggering twice returns the same blocks
    # over the same algebra object, so carried summands and caches stay on A
    for alg in (a3, cyc3):
        for t in _mutation_closure(alg).values():
            back = tt.complex_dagger(tt.complex_dagger(t))
            assert back.algebra is t.algebra
            assert back.key() == t.key()


def test_dagger_swaps_extremes(a2):
    d = tt.complex_dagger(free_silting(a2))
    want = tt.to_tau_pair(shifted_silting(a2.opposite())).fingerprint()
    assert tt.to_tau_pair(d).fingerprint() == want


def test_dagger_transpose_on_modules(a2):
    # the dual of the complex of S1 presents the transpose Tr S1
    c = cplx(a2, [S(a2, 0)])
    d = tt.complex_dagger(c)
    pr = tt.to_tau_pair(d)
    op = a2.opposite()
    assert pr.fingerprint() == md.pair_from_summands(op, [md.simple(op, 1)], []).fingerprint()


def test_dagger_reverses_order(a2):
    free = free_silting(a2)
    mid = cplx(a2, [P(a2, 0), S(a2, 0)])
    assert tt.silting_leq(mid, free)
    assert tt.silting_leq(tt.complex_dagger(free), tt.complex_dagger(mid))


# ---------------------------------------------------------------------------
# hom_k of complexes that carry their parts


def _assembled_hom_k(x, y, shift):
    # the whole sums, assembled without parts, through one chain_hom_data
    x, y = (tt.direct_sum_complexes(list(c.parts)) if c.parts else c for c in (x, y))
    assert x.parts is None and y.parts is None
    chains, boundaries, _ = tt.chain_hom_data(x, y, shift)
    return len(chains) - linalg.rank(boundaries, x.field)


CARRIED = {
    "A3": lambda: _linear3(QQ),
    "cyc3": lambda: _cycle3(QQ),
    "cyc3/F3": lambda: _cycle3(Field(3)),
}


@pytest.mark.parametrize("name", sorted(CARRIED))
def test_hom_k_of_carried_parts_matches_the_assembled_sum(name):
    # every one-summand rigid complex against every node complex, both ways
    alg = CARRIED[name]()
    graph = ex.build_exchange_graph(alg)
    rigid = [u.complex for u in ex.rigid_subpairs(graph, 1)]
    nodes = [node.complex for node in graph.node_list()]
    assert all(t.parts is not None and len(t.parts) == alg.n for t in nodes)
    dims = Counter()
    for u in rigid:
        for t in nodes:
            for shift in (0, 1, 2):
                for x, y in ((u, t), (t, u)):
                    dim = tt.hom_k(x, y, shift)
                    assert dim == _assembled_hom_k(x, y, shift)
                    dims[dim > 0] += 1
    assert dims[True] > 0 and dims[False] > 0
