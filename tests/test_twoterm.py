"""Two-term complexes: homotopy homs, minimal forms, silting, mutation."""

from collections import Counter

import pytest

from tautilt import modules as md
from tautilt import twoterm as tt
from tautilt.algebra import AlgebraElement, BasicAlgebra
from tautilt.errors import PreconditionViolated


def P(alg, i):
    return md.projective(alg, i)


def S(alg, i):
    return md.simple(alg, i)


def pair(alg, m_parts, p_parts=()):
    return md.pair_from_summands(alg, m_parts, p_parts)


def cplx(alg, m_parts, p_parts=()):
    return tt.from_tau_pair(pair(alg, m_parts, p_parts))


# ---------------------------------------------------------------------------
# construction and validation


def test_free_silting_shape(a2):
    t = tt.free_silting(a2)
    t.validate()
    assert t.support() == [0]
    assert t.total_summands() == 2
    assert t.g_vec() == (1, 1)


def test_shifted_silting_shape(a2):
    t = tt.shifted_silting(a2)
    assert t.support() == [-1]
    assert t.g_vec() == (-1, -1)


def test_shift_moves_support(a2):
    t = tt.free_silting(a2)
    assert t.shift(1).support() == [-1]
    assert t.shift(1).shift(-1).key() == t.key()


def test_g_vector_outside_window_rejected(a2):
    t = tt.free_silting(a2).shift(2)
    with pytest.raises(PreconditionViolated):
        t.g_vec()


def test_differential_square_checked(cyc3):
    # d^2 = 0 fails for the composable pair of arrows a3: 1->2, a1: 2->3
    a3 = cyc3.basis_element(cyc3.names.index("a3"))
    a1 = cyc3.basis_element(cyc3.names.index("a1"))
    bad = tt.ProjectiveComplex(
        cyc3, {-2: [0], -1: [1], 0: [2]}, {-2: [[a3]], -1: [[a1]]}, check=False
    )
    with pytest.raises(Exception):
        bad.validate()


# ---------------------------------------------------------------------------
# homotopy hom spaces


def test_hom_free_free_is_algebra_dim(a2, cyc3):
    assert tt.hom_k(tt.free_silting(a2), tt.free_silting(a2)) == a2.dim
    assert tt.hom_k(tt.free_silting(cyc3), tt.free_silting(cyc3)) == cyc3.dim


def test_free_silting_is_presilting(a2):
    assert tt.hom_k(tt.free_silting(a2), tt.free_silting(a2), 1) == 0


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


def test_presilting_requires_two_term(a2):
    three = tt.ProjectiveComplex(a2, {-2: [0], 0: [1]}, {})
    with pytest.raises(PreconditionViolated):
        tt.is_presilting(three)


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
    assert tt.is_isomorphic_complex(m, cplx(a2, [S(a2, 0)]))


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
    t = tt.from_tau_pair(pr)
    t.validate()
    assert tt.is_silting(t)
    back = tt.to_tau_pair(t)
    assert back.fingerprint() == pr.fingerprint()
    assert tt.complex_fingerprint(t) == pr.fingerprint()


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
        t = tt.from_tau_pair(pr)
        assert tt.is_silting(t)
        assert tt.to_tau_pair(t).fingerprint() == pr.fingerprint()


def test_g_matrices_of_a2_pairs(a2):
    got = {}
    for m_names, p_names in A2_PAIRS:
        t = tt.from_tau_pair(pair(a2, _named(a2, m_names), _named(a2, p_names)))
        got[(tuple(m_names), tuple(p_names))] = tt.g_matrix(t)
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
    parts = tt.decompose_complex(tt.free_silting(cyc3))
    assert len(parts) == 3
    assert all(mult == 1 for _, mult in parts)


def test_decompose_zero(a2):
    assert tt.decompose_complex(tt.zero_complex(a2)) == []


def test_decompose_with_multiplicity(a2):
    c = cplx(a2, [S(a2, 0)])
    t = tt.direct_sum_complexes([c, c, tt.stalk_complex(a2, [0])])
    parts = tt.decompose_complex(t)
    mults = sorted(mult for _, mult in parts)
    assert mults == [1, 2]


def test_basic_complex_dedups(a2):
    c = cplx(a2, [S(a2, 0)])
    t = tt.direct_sum_complexes([c, c, c])
    b = tt.basic_complex(t)
    assert len(tt.decompose_complex(b)) == 1
    assert tt.is_isomorphic_complex(b, c)


def test_iso_invariant_under_basis_change(a2):
    # same complex written with a scaled differential
    a = a2.basis_element(a2.names.index("a"))
    c1 = tt.ProjectiveComplex(a2, {-1: [1], 0: [0]}, {-1: [[a]]})
    c2 = tt.ProjectiveComplex(a2, {-1: [1], 0: [0]}, {-1: [[a.scale(7)]]})
    assert tt.is_isomorphic_complex(c1, c2)
    assert not tt.is_isomorphic_complex(c1, tt.stalk_complex(a2, [0]))


# ---------------------------------------------------------------------------
# silting objects, order, mutation


def test_assert_silting_accepts_extremes(a2, cyc3):
    for alg in (a2, cyc3):
        tt.assert_silting(tt.free_silting(alg))
        tt.assert_silting(tt.shifted_silting(alg))


def test_silting_needs_full_rank(a2):
    p1 = tt.stalk_complex(a2, [0])
    assert tt.is_presilting(p1)
    assert not tt.is_silting(p1)


def test_silting_order_extremes(a2):
    free = tt.free_silting(a2)
    shifted = tt.shifted_silting(a2)
    mids = [cplx(a2, _named(a2, m), _named(a2, p)) for m, p in A2_PAIRS]
    assert all(tt.silting_leq(t, free) for t in mids)
    assert all(tt.silting_leq(shifted, t) for t in mids)


def test_silting_order_incomparable(a2):
    x = cplx(a2, [P(a2, 0), S(a2, 0)])
    y = cplx(a2, [P(a2, 1)], [P(a2, 0)])
    assert not tt.silting_leq(x, y)
    assert not tt.silting_leq(y, x)


def _mutation_closure(alg):
    t0 = tt.free_silting(alg)
    seen = {tt.complex_fingerprint(t0): t0}
    frontier = [t0]
    while frontier:
        t = frontier.pop()
        for idx in range(len(tt.decompose_complex(t))):
            for direction in ("left", "right"):
                m = tt.mutate_complex(t, idx, direction)
                if m is None:
                    continue
                fp = tt.complex_fingerprint(m)
                if fp not in seen:
                    seen[fp] = m
                    frontier.append(m)
    return seen


def test_mutation_closure_pentagon(a2):
    seen = _mutation_closure(a2)
    assert len(seen) == 5
    gs = sorted(tt.g_matrix(t) for t in seen.values())
    assert gs == [
        [(-1, 0), (0, -1)],
        [(-1, 0), (0, 1)],
        [(0, -1), (1, -1)],
        [(0, 1), (1, 0)],
        [(1, -1), (1, 0)],
    ]
    assert all(tt.is_silting(t) for t in seen.values())


def test_single_mutations_of_free(a2):
    free = tt.free_silting(a2)
    parts = tt.decompose_complex(free)
    by_g = {c.g_vec(): idx for idx, (c, _) in enumerate(parts)}
    m_at_p1 = tt.mutate_complex(free, by_g[(1, 0)], "left")
    m_at_p2 = tt.mutate_complex(free, by_g[(0, 1)], "left")
    assert tt.complex_fingerprint(m_at_p1) == pair(
        a2, [P(a2, 1)], [P(a2, 0)]
    ).fingerprint()
    assert tt.complex_fingerprint(m_at_p2) == pair(
        a2, [P(a2, 0), S(a2, 0)]
    ).fingerprint()
    # right mutation of the free object leaves the window
    assert tt.mutate_complex(free, 0, "right") is None


def test_mutation_is_involutive(a2):
    free = tt.free_silting(a2)
    t = tt.mutate_complex(free, 0, "left")
    moved = None
    for idx in range(len(tt.decompose_complex(t))):
        back = tt.mutate_complex(t, idx, "right")
        if back is not None and tt.complex_fingerprint(back) == tt.complex_fingerprint(free):
            moved = idx
    assert moved is not None


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
            before = Counter(tt.complex_fingerprint(t))
            for idx in range(alg.n):
                for direction in ("left", "right"):
                    m = tt.mutate_complex(t, idx, direction)
                    if m is None:
                        continue
                    after = Counter(tt.complex_fingerprint(m))
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
    # algebra, where decompose_complex has to search, and compare.
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
        assert tt.complex_fingerprint(out) == want
        tt.assert_silting(out)


def test_left_completion_minimal_cyc3(cyc3):
    # completing P1 against the fully shifted object picks the smallest
    # torsion class generated by P1
    u = tt.stalk_complex(cyc3, [0])
    out = tt.left_completion_silting(u, tt.shifted_silting(cyc3))
    want = pair(cyc3, [P(cyc3, 0), S(cyc3, 0)], [P(cyc3, 2)]).fingerprint()
    assert tt.complex_fingerprint(out) == want


def test_left_completion_bongartz_cyc3(cyc3):
    u = tt.stalk_complex(cyc3, [0])
    out = tt.left_completion_silting(u, tt.free_silting(cyc3))
    assert tt.complex_fingerprint(out) == pair(
        cyc3, [P(cyc3, 0), P(cyc3, 1), P(cyc3, 2)]
    ).fingerprint()


def test_right_completion_via_duality(a2):
    u = tt.stalk_complex(a2, [0])
    out = tt.right_completion_silting(u, tt.free_silting(a2))
    assert tt.complex_fingerprint(out) == pair(a2, [P(a2, 0), P(a2, 1)]).fingerprint()
    mid = cplx(a2, [P(a2, 0), S(a2, 0)])
    out2 = tt.right_completion_silting(u, mid)
    assert tt.complex_fingerprint(out2) == pair(a2, [P(a2, 0), S(a2, 0)]).fingerprint()


def test_completion_preconditions_enforced(a2):
    shifted_p1 = tt.stalk_complex(a2, [0]).shift(1)
    with pytest.raises(PreconditionViolated):
        tt.left_completion_silting(shifted_p1, tt.free_silting(a2))
    with pytest.raises(PreconditionViolated):
        tt.right_completion_silting(
            tt.stalk_complex(a2, [0]), tt.shifted_silting(a2)
        )


# ---------------------------------------------------------------------------
# minimal approximations


def test_min_left_approx_split_case(a2):
    x = tt.stalk_complex(a2, [1])
    f = tt.min_left_approx(x, tt.free_silting(a2))
    f.validate()
    assert tt.complex_fingerprint(f.target) == tt.complex_fingerprint(x)


def test_min_left_approx_can_be_zero(a2):
    x = cplx(a2, [S(a2, 0)])
    f = tt.min_left_approx(x, tt.free_silting(a2))
    assert f.target.is_zero()


def test_min_left_approx_minimal_target(a2):
    x = tt.stalk_complex(a2, [0])
    u = cplx(a2, [S(a2, 0)])
    f = tt.min_left_approx(x, u)
    f.validate()
    assert tt.complex_fingerprint(f.target) == tt.complex_fingerprint(u)
    assert len(tt.decompose_complex(f.target)) == 1


def test_min_right_approx_minimal_source(a2):
    x = cplx(a2, [S(a2, 0)])
    g = tt.min_right_approx(x, tt.free_silting(a2))
    g.validate()
    want = tt.complex_fingerprint(tt.stalk_complex(a2, [0]))
    assert tt.complex_fingerprint(g.source) == want


def test_dagger_involution(a2, cyc3):
    for alg in (a2, cyc3):
        for t in (tt.free_silting(alg), tt.shifted_silting(alg)):
            back = tt.complex_dagger(tt.complex_dagger(t))
            assert tt.is_isomorphic_complex(back, t)


def test_dagger_swaps_extremes(a2):
    d = tt.complex_dagger(tt.free_silting(a2))
    assert tt.is_isomorphic_complex(d, tt.shifted_silting(a2.opposite()))


def test_dagger_transpose_on_modules(a2):
    # the dual of the complex of S1 presents the transpose Tr S1
    c = cplx(a2, [S(a2, 0)])
    d = tt.complex_dagger(c)
    pr = tt.to_tau_pair(d)
    op = a2.opposite()
    assert pr.fingerprint() == md.pair_from_summands(op, [md.simple(op, 1)], []).fingerprint()


def test_dagger_reverses_order(a2):
    free = tt.free_silting(a2)
    mid = cplx(a2, [P(a2, 0), S(a2, 0)])
    assert tt.silting_leq(mid, free)
    assert tt.silting_leq(tt.complex_dagger(free), tt.complex_dagger(mid))
