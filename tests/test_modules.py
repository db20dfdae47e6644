"""Module category layer: representations, Hom, tau, decomposition.

Expected values below were derived by hand from the structure of the three
small algebras in conftest (paths, radical filtrations, AR translates of
Nakayama and hereditary algebras) and then frozen.
"""

import pytest

from tautilt import modules as M
from tautilt.algebra import Quiver, Relation, compile_bound_quiver
from tautilt.errors import (
    InvalidRepresentation,
    NotAModuleMap,
    NotProjective,
    PreconditionViolated,
    SearchBudgetExceeded,
)
from tautilt.linalg import QQ, Field


def P(alg, i):
    return M.projective(alg, i)


def S(alg, i):
    return M.simple(alg, i)


def fac(gens, xs):
    # M.fac_contains with the key set of the gens built here
    return M.fac_contains(gens, frozenset(g.key() for g in gens), xs)


def torsion_free(gen, x):
    # M.torsion_free_part with one gen and its key set built here
    return M.torsion_free_part([gen], frozenset([gen.key()]), x)


def wide(u, q, x):
    # M.in_wide of the pair (u, q) built here
    return M.in_wide(M.TauPair(u, q), x)


def free_module(alg):
    """The algebra as a right module over itself."""
    return M.sum_or_zero(alg, [P(alg, i) for i in range(alg.n)])


# -- representations and maps -------------------------------------------------


def test_projective_dims_a2(a2):
    assert P(a2, 0).dims == (1, 1)
    assert P(a2, 1).dims == (0, 1)


def test_projective_dims_cyc3(cyc3):
    assert P(cyc3, 0).dims == (1, 1, 0)
    assert P(cyc3, 1).dims == (0, 1, 1)
    assert P(cyc3, 2).dims == (1, 0, 1)


def test_free_module_total_dim(cyc3):
    assert free_module(cyc3).total_dim() == cyc3.dim


def test_rep_from_arrows_projective(cyc3):
    rep = M.rep_from_arrows(cyc3, (1, 1, 0), {"a3": [[1]], "a1": [[]], "a2": []})
    assert M.is_isomorphic(rep, P(cyc3, 0))


def test_rep_from_arrows_relation_violation(cyc3):
    with pytest.raises(InvalidRepresentation):
        M.rep_from_arrows(cyc3, (1, 1, 1), {"a3": [[1]], "a1": [[1]], "a2": [[1]]})


def test_module_map_validation(a2):
    # P2 -> P1 must use the inclusion, not an arbitrary matrix pattern
    with pytest.raises(NotAModuleMap):
        M.ModuleMap(P(a2, 0), P(a2, 0), [[[1]], [[0]]])
    f = M.ModuleMap(P(a2, 0), P(a2, 0), [[[1]], [[1]]])
    assert f.is_isomorphism()


def test_hom_dims_a2(a2):
    assert M.dim_hom(P(a2, 0), P(a2, 0)) == 1
    assert M.dim_hom(P(a2, 0), P(a2, 1)) == 0
    assert M.dim_hom(P(a2, 1), P(a2, 0)) == 1
    assert M.dim_hom(P(a2, 0), S(a2, 0)) == 1
    assert M.dim_hom(P(a2, 0), S(a2, 1)) == 0


def test_hom_dims_regular(cyc3):
    free = free_module(cyc3)
    assert M.dim_hom(free, free) == cyc3.dim


def test_hom_with_multiplicity(a2):
    two = M.sum_or_zero(a2, [P(a2, 0), P(a2, 0)])
    assert M.dim_hom(two, P(a2, 0)) == 2
    assert M.dim_hom(two, two) == 4


def test_kernel_image_cokernel(a2):
    incl = M.hom_basis(P(a2, 1), P(a2, 0))[0]
    assert incl.kernel()[0].dims == (0, 0)
    assert incl.image()[0].dims == (0, 1)
    assert incl.cokernel()[0].dims == (1, 0)
    assert M.is_isomorphic(incl.cokernel()[0], S(a2, 0))


def test_submodule_closure(a2):
    # the vertex-0 line of P1 generates all of P1
    sub, incl = M.submodule(P(a2, 0), [[[a2.field.one]], []])
    assert sub.dims == (1, 1)
    assert incl.kernel()[0].is_zero()


def test_quotient_by_socle(a2):
    q, proj = M.quotient(P(a2, 0), [[], [[a2.field.one]]])
    assert q.dims == (1, 0)
    assert proj.is_surjective()
    assert M.is_isomorphic(q, S(a2, 0))


def test_direct_sum_maps(a3):
    total = M.sum_or_zero(a3, [P(a3, 0), S(a3, 1)])
    assert total.dims == (1, 2, 1)


# -- projectives, covers, presentations --------------------------------------


def test_projective_cover_simple(a2):
    cover, f = M.projective_cover(S(a2, 0))
    assert cover.vertices == [0]
    assert f.is_surjective()


def test_is_projective(a3):
    assert M._projective_vertex(P(a3, 0)) == 0
    assert M._projective_vertex(S(a3, 2)) == 2  # S3 = P3 on the linear A3
    with pytest.raises(NotProjective):
        M._projective_vertex(S(a3, 0))


def test_presentation_of_simple(cyc3):
    pres = M.min_proj_presentation(S(cyc3, 0))
    assert pres.p0.vertices == [0]
    assert pres.p1.vertices == [1]
    blk = pres.blocks[0][0]
    assert {cyc3.peirce[k] for k in blk.support()} == {(0, 1)}


def test_projsum_block_roundtrip(cyc3):
    src = M.ProjSum(cyc3, [1])
    tgt = M.ProjSum(cyc3, [0])
    elt = cyc3.path_element(["a3"])
    f = src.block_to_map(tgt, [[elt]])
    back = src.map_to_blocks(tgt, f)
    assert back[0][0] == elt


def test_g_vectors_a3(a3):
    assert M.g_vector(P(a3, 0)) == (1, 0, 0)
    assert M.g_vector(S(a3, 0)) == (1, -1, 0)
    assert M.g_vector(S(a3, 1)) == (0, 1, -1)
    both = M.sum_or_zero(a3, [S(a3, 0), S(a3, 1)])
    assert M.g_vector(both) == (1, 0, -1)


# -- duality and the AR translate ---------------------------------------------


def test_k_dual_involution(a3):
    x = P(a3, 0)
    assert M.k_dual(M.k_dual(x)).key() == x.key()


def test_transpose_kills_projectives(a2):
    assert M.transpose(P(a2, 0)).is_zero()
    assert M.transpose(free_module(a2)).is_zero()


def test_tau_a2(a2):
    assert M.is_isomorphic(M.ar_translate(S(a2, 0)), S(a2, 1))
    assert M.ar_translate(P(a2, 0)).is_zero()
    assert M.ar_translate(P(a2, 1)).is_zero()


def test_tau_cycles_simples_cyc3(cyc3):
    assert M.is_isomorphic(M.ar_translate(S(cyc3, 0)), S(cyc3, 1))
    assert M.is_isomorphic(M.ar_translate(S(cyc3, 1)), S(cyc3, 2))
    assert M.is_isomorphic(M.ar_translate(S(cyc3, 2)), S(cyc3, 0))
    for i in range(3):
        assert M.ar_translate(P(cyc3, i)).is_zero()


def test_tau_interval_a3(a3):
    # the length-two module with top S1 translates to P2
    inter, _ = M.quotient(P(a3, 0), [[], [], [[a3.field.one]]])
    assert inter.dims == (1, 1, 0)
    assert M.is_isomorphic(M.ar_translate(inter), P(a3, 1))


def test_tau_prime_field():
    from tautilt import Field, Quiver, compile_bound_quiver
    from tautilt import modules as Mm

    alg = compile_bound_quiver(Quiver([1, 2], [("a", 1, 2)]), [], Field(5))
    assert Mm.is_isomorphic(Mm.ar_translate(Mm.simple(alg, 0)), Mm.simple(alg, 1))


# -- decomposition -------------------------------------------------------------


def test_decompose_free_module(cyc3):
    parts = M.decompose(free_module(cyc3))
    assert sorted(mult for _, mult in parts) == [1, 1, 1]
    dims = sorted(rep.dims for rep, _ in parts)
    assert dims == [(0, 1, 1), (1, 0, 1), (1, 1, 0)]


def a2_over(field):
    return compile_bound_quiver(Quiver(["1", "2"], [("a", "1", "2")]), [], field)


@pytest.mark.parametrize("field", [QQ, Field(2), Field(3)], ids=["Q", "F2", "F3"])
def test_decompose_multiplicity(field):
    a2 = a2_over(field)
    x = M.sum_or_zero(a2, [P(a2, 0), P(a2, 0), S(a2, 0)])
    parts = M.decompose(x)
    assert sorted((rep.dims, mult) for rep, mult in parts) == [
        ((1, 0), 1),
        ((1, 1), 2),
    ]


@pytest.mark.parametrize("field", [QQ, Field(3)], ids=["Q", "F3"])
def test_map_power(field):
    a2 = a2_over(field)
    x = M.sum_or_zero(a2, [P(a2, 0), P(a2, 0), S(a2, 0)])
    f = M.identity_map(x).scale(field.zero)
    for k, g in enumerate(M.hom_basis(x, x)):
        f = f + g.scale(field(k + 1))
    assert f.power(0).mats == M.identity_map(x).mats
    assert f.power(1).mats == f.mats
    assert f.power(2).mats == f.then(f).mats
    repeated = f
    for _ in range(4):
        repeated = repeated.then(f)
    assert f.power(5).mats == repeated.mats
    assert not f.power(5).is_zero() and f.power(5).mats != f.mats


def test_decompose_indecomposable(a3):
    assert M.decompose(P(a3, 0)) == [(P(a3, 0), 1)]


def test_is_isomorphic_distinguishes(a2):
    assert M.is_isomorphic(P(a2, 0), P(a2, 0))
    assert not M.is_isomorphic(P(a2, 0), S(a2, 0))
    sum1 = M.sum_or_zero(a2, [S(a2, 0), S(a2, 1)])
    assert not M.is_isomorphic(sum1, P(a2, 0))  # same dims, different action


# -- certificates from End(X) ----------------------------------------------------


def radical(x):
    return M._local_radical(M.hom_basis(x, x), M.identity_map(x))


def iso_certificate(x, y):
    return M._iso_certificate(
        M.hom_basis(x, y), M.hom_basis(y, x), M.hom_basis(x, x), M.identity_map(x), M.dim_hom(y, y)
    )


def dual_numbers(field):
    q = Quiver(["1"], [("x", "1", "1")])
    return compile_bound_quiver(q, [Relation(q, [(1, ("x", "x"))])], field)


def test_end_a_larger_field_raises(sqrt2_module):
    x = sqrt2_module
    assert M.dim_hom(x, x) == 2 and radical(x) is None
    with pytest.raises(SearchBudgetExceeded):
        M.decompose(x)
    with pytest.raises(SearchBudgetExceeded):
        M.is_brick(x)


@pytest.mark.parametrize("field", [QQ, Field(2), Field(3)], ids=["Q", "F2", "F3"])
def test_local_end_is_certified(field):
    # k[x]/(x^2) as a module over itself: End is k[x]/(x^2), radical (x)
    free = P(dual_numbers(field), 0)
    assert radical(free).rank == 1
    assert M.decompose(free) == [(free, 1)]
    assert not M.is_brick(free)


def truncated_polynomials(field, n):
    q = Quiver(["1"], [("x", "1", "1")])
    return compile_bound_quiver(q, [Relation(q, [(1, ("x",) * n)])], field)


@pytest.mark.parametrize(
    "p,n", [(3001, 2), (2, 4), (3, 3), (3, 6)], ids=["F3001", "F2-x4", "F3-x3", "F3-x6"]
)
def test_local_end_is_certified_without_a_root_search(p, n, sqrt2_module):
    # k[x]/(x^n) over itself: over F_3001 the root search refuses, and the
    # eigenvalues come from the trace; where p divides n they come from
    # the characteristic polynomial
    free = P(truncated_polynomials(Field(p), n), 0)
    assert radical(free).rank == n - 1
    assert M.decompose(free) == [(free, 1)]
    with pytest.raises(SearchBudgetExceeded):
        M.decompose(sqrt2_module)


def test_local_end_of_dimension_two(pi_a3):
    p2 = P(pi_a3, 1)
    assert M.dim_hom(p2, p2) == 2 and radical(p2).rank == 1
    assert M.decompose(p2) == [(p2, 1)]


def test_decomposable_end_is_not_local(a2):
    assert radical(M.sum_or_zero(a2, [S(a2, 0), S(a2, 0)])) is None


def test_single_eigenvalues_without_a_nilpotent_span_are_not_local(a2):
    # End(S1+S1) = M_2(k) on a basis whose elements each have one
    # eigenvalue; their shifts span E12, E21, ... which is not nilpotent
    x = M.sum_or_zero(a2, [S(a2, 0), S(a2, 0)])
    one, zero = a2.field.one, a2.field.zero
    basis = [
        M.ModuleMap(x, x, [m, []])
        for m in ([[one, zero], [zero, one]], [[zero, one], [zero, zero]],
                  [[zero, zero], [one, zero]], [[one, one], [-one, -one]])
    ]
    assert M._local_radical(basis, M.identity_map(x)) is None


def test_is_isomorphic_says_no_by_certificate(a2, pi_a3):
    # inputs where no candidate isomorphism is found: S1+S2 against P1 over
    # A2 (Hom dimensions differ), and P1, P3 and the module with top S1+S3
    # over Pi(A3), all of dimension vector (1,1,1) (local End, every g.f
    # in its radical)
    top13 = M.rep_from_arrows(
        pi_a3, (1, 1, 1), {"a1": [[1]], "a2": [[0]], "b1": [[0]], "b2": [[1]]}
    )
    sum1 = M.sum_or_zero(a2, [S(a2, 0), S(a2, 1)])
    p1, p3 = P(pi_a3, 0), P(pi_a3, 2)
    for x, y in [(sum1, P(a2, 0)), (p3, p1), (top13, p1), (top13, p3)]:
        assert x.dims == y.dims
        assert iso_certificate(x, y) is False
        assert not M.is_isomorphic(x, y)


def test_is_isomorphic_says_yes_by_certificate(a3):
    x = P(a3, 0)
    y = M.rep_from_arrows(a3, x.dims, {"a": [[2]], "b": [[3]]})
    assert iso_certificate(x, y) is True
    assert M.is_isomorphic(x, y)


def test_is_isomorphic_compares_pieces_when_end_is_not_local(a2):
    x = M.sum_or_zero(a2, [S(a2, 0), S(a2, 1)])
    y = M.sum_or_zero(a2, [S(a2, 1), S(a2, 0)])
    assert iso_certificate(x, y) is None
    assert M._same_pieces(M.decompose(x), M.decompose(y))
    assert M.is_isomorphic(x, y)
    z = M.sum_or_zero(a2, [S(a2, 0), S(a2, 0)])
    assert not M._same_pieces(M.decompose(x), M.decompose(z))


# -- torsion machinery ----------------------------------------------------------


def test_in_fac(cyc3):
    assert fac([P(cyc3, 0)], [S(cyc3, 0)])
    assert not fac([P(cyc3, 0)], [S(cyc3, 1)])
    assert fac([free_module(cyc3)], [P(cyc3, 1)])


def test_fac_contains_reads_the_rank_of_the_image_rows(a2):
    # Hom(P1 + P1, P1 + S2) has two basis maps, one from each copy onto
    # P1; at vertex 2 they give two equal nonzero rows, of rank 1 < 2, as
    # S2 is no quotient of P1
    p1, s2 = P(a2, 0), S(a2, 1)
    twice = M.sum_or_zero(a2, [p1, p1])
    x = M.sum_or_zero(a2, [p1, s2])
    assert not fac([twice], [x])
    assert fac([twice], [p1, S(a2, 0)])
    assert fac([p1, s2], [x])
    assert not fac([p1], [p1, s2])
    assert fac([], [M.zero_rep(a2)]) and not fac([], [p1])


def test_fac_contains_keys_its_gens_as_a_set_over_f_p():
    # two contents of P1 over F_3 whose keys differ only in an F_3 entry;
    # F_3 elements do not sort, and the gens in either order share an entry
    alg = compile_bound_quiver(Quiver(["1", "2"], [("a", "1", "2")]), [], Field(3))
    one, two = (M.rep_from_arrows(alg, (1, 1), {"a": [[c]]}) for c in (1, 2))
    with pytest.raises(TypeError):
        sorted([one.key(), two.key()])
    x = M.sum_or_zero(alg, [two, S(alg, 0)])
    assert fac([one, two], [x]) and fac([two, one], [x])
    assert sum(1 for key in alg.cache if key[0] == "fac") == 1


def _trace_dims(x, q):
    return tuple(d - e for d, e in zip(x.dims, q.dims))


def test_torsion_part(cyc3):
    q = torsion_free(P(cyc3, 0), S(cyc3, 1))
    assert _trace_dims(S(cyc3, 1), q) == (0, 0, 0) and q.dims == S(cyc3, 1).dims
    q2 = torsion_free(P(cyc3, 0), P(cyc3, 0))
    assert _trace_dims(P(cyc3, 0), q2) == (1, 1, 0) and q2.is_zero()


def test_torsion_part_mixed(a2):
    # trace of S1 inside P1 is zero; quotient must stay S1-free
    q = torsion_free(S(a2, 0), P(a2, 1))
    assert _trace_dims(P(a2, 1), q) == (0, 0) and q.dims == (0, 1)


def test_star_membership(a2):
    # P1 is an extension of S1 by S2, so it lies in Fac S2 * Fac S1
    assert fac([S(a2, 0)], [torsion_free(S(a2, 1), P(a2, 0))])
    assert not fac([S(a2, 0)], [P(a2, 0)])


def test_in_wide(cyc3):
    assert wide(P(cyc3, 0), M.zero_rep(cyc3), S(cyc3, 1))
    assert wide(P(cyc3, 0), M.zero_rep(cyc3), P(cyc3, 1))
    assert not wide(P(cyc3, 0), M.zero_rep(cyc3), P(cyc3, 2))
    assert not wide(P(cyc3, 0), P(cyc3, 1), P(cyc3, 1))


# -- bricks ------------------------------------------------------------------


def test_bricks(a3):
    assert M.is_brick(S(a3, 0))
    assert M.is_brick(P(a3, 0))
    two = M.sum_or_zero(a3, [S(a3, 0), S(a3, 0)])
    assert not M.is_brick(two)


# -- pairs ------------------------------------------------------------------------


def test_check_pair_roles(cyc3):
    zero = M.zero_rep(cyc3)
    tilt = M.check_pair(M.TauPair(free_module(cyc3), zero))
    assert tilt["role"] == "tilting" and tilt["rigid"]

    almost = M.check_pair(M.pair_from_summands(cyc3, [P(cyc3, 0), P(cyc3, 1)], []))
    assert almost["role"] == "almost"

    shift_all = M.check_pair(M.TauPair(zero, free_module(cyc3)))
    assert shift_all["role"] == "tilting"

    bad = M.check_pair(M.pair_from_summands(cyc3, [S(cyc3, 0)], [P(cyc3, 0)]))
    assert bad["role"] == "not_rigid"  # Hom(P1, S1) != 0


def test_check_pair_section_node(cyc3):
    # (P1 + S1 | P3) is a tau-tilting pair on the cyclic algebra
    pair = M.pair_from_summands(cyc3, [P(cyc3, 0), S(cyc3, 0)], [P(cyc3, 2)])
    report = M.check_pair(pair)
    assert report["role"] == "tilting"


def test_check_pair_requires_basic(cyc3):
    pair = M.pair_from_summands(cyc3, [P(cyc3, 0), P(cyc3, 0)], [])
    with pytest.raises(PreconditionViolated):
        M.check_pair(pair)


def test_check_pair_reports_a_non_projective_p(cyc3):
    # S1 is not projective, so (P2, S1) is no pair; the check says so
    pair = M.TauPair(P(cyc3, 1), S(cyc3, 0))
    report = M.check_pair(pair)
    assert not report["projective_ok"] and report["hom_p_m_zero"] is None
    assert report["role"] == "not_rigid" and report["self_rigid"]


def test_pair_fingerprints_distinguish(cyc3):
    zero = M.zero_rep(cyc3)
    p1 = M.TauPair(free_module(cyc3), zero)
    p2 = M.pair_from_summands(cyc3, [P(cyc3, 0), S(cyc3, 0)], [P(cyc3, 2)])
    p3 = M.TauPair(zero, free_module(cyc3))
    prints = {p1.fingerprint(), p2.fingerprint(), p3.fingerprint()}
    assert len(prints) == 3
    assert p1.fingerprint() == M.TauPair(free_module(cyc3), zero).fingerprint()


def test_describe(cyc3):
    assert M.describe_module(P(cyc3, 0)) == "P1"
    assert M.describe_module(S(cyc3, 1)) == "S2"
    assert M.describe_module(M.zero_rep(cyc3)) == "0"
    pair = M.pair_from_summands(cyc3, [P(cyc3, 0), S(cyc3, 0)], [P(cyc3, 2)])
    assert M.describe_pair(pair) == "(P1+S1 | P3)"
