"""Module category layer: representations, Hom/Ext, tau, decomposition.

Expected values below were derived by hand from the structure of the three
small algebras in conftest (paths, radical filtrations, AR translates of
Nakayama and hereditary algebras) and then frozen.
"""

import pytest

from tautilt import modules as M
from tautilt.algebra import Quiver, compile_bound_quiver
from tautilt.errors import (
    InvalidRepresentation,
    NotAModuleMap,
    PreconditionViolated,
)
from tautilt.linalg import QQ, Field


def P(alg, i):
    return M.projective(alg, i)


def S(alg, i):
    return M.simple(alg, i)


# -- representations and maps -------------------------------------------------


def test_projective_dims_a2(a2):
    assert P(a2, 0).dims == (1, 1)
    assert P(a2, 1).dims == (0, 1)


def test_projective_dims_cyc3(cyc3):
    assert P(cyc3, 0).dims == (1, 1, 0)
    assert P(cyc3, 1).dims == (0, 1, 1)
    assert P(cyc3, 2).dims == (1, 0, 1)


def test_free_module_total_dim(cyc3):
    assert M.free_module(cyc3).total_dim() == cyc3.dim


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
    free = M.free_module(cyc3)
    assert M.dim_hom(free, free) == cyc3.dim


def test_hom_with_multiplicity(a2):
    two = M.direct_sum([P(a2, 0), P(a2, 0)])[0]
    assert M.dim_hom(two, P(a2, 0)) == 2
    assert M.dim_hom(two, two) == 4


def test_kernel_image_cokernel(a2):
    incl = M.hom_basis(P(a2, 1), P(a2, 0))[0]
    parts = M.map_factorization(incl)
    assert parts["kernel"][0].dims == (0, 0)
    assert parts["image"][0].dims == (0, 1)
    assert parts["cokernel"][0].dims == (1, 0)
    assert M.is_isomorphic(parts["cokernel"][0], S(a2, 0))


def test_submodule_closure(a2):
    # the vertex-0 line of P1 generates all of P1
    sub, incl = M.submodule(P(a2, 0), [[[a2.field.one]], []])
    assert sub.dims == (1, 1)
    assert incl.is_injective()


def test_quotient_by_socle(a2):
    q, proj = M.quotient(P(a2, 0), [[], [[a2.field.one]]])
    assert q.dims == (1, 0)
    assert proj.is_surjective()
    assert M.is_isomorphic(q, S(a2, 0))


def test_direct_sum_maps(a3):
    total, injs, projs = M.direct_sum([P(a3, 0), S(a3, 1)])
    assert total.dims == (1, 2, 1)
    for inj, proj in zip(injs, projs):
        assert inj.then(proj).is_isomorphism()


# -- projectives, covers, presentations --------------------------------------


def test_projective_cover_simple(a2):
    cover, f = M.projective_cover(S(a2, 0))
    assert cover.vertices == [0]
    assert f.is_surjective()


def test_is_projective(a3):
    assert M.is_projective(P(a3, 0))
    assert M.is_projective(S(a3, 2))  # S3 = P3 on the linear A3
    assert not M.is_projective(S(a3, 0))


def test_presentation_of_simple(cyc3):
    pres = M.min_proj_presentation(S(cyc3, 0))
    assert pres.p0.vertices == [0]
    assert pres.p1.vertices == [1]
    blk = pres.blocks[0][0]
    assert blk.peirce_type() == (0, 1)


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
    both = M.direct_sum([S(a3, 0), S(a3, 1)])[0]
    assert M.g_vector(both) == (1, 0, -1)


# -- duality and the AR translate ---------------------------------------------


def test_k_dual_involution(a3):
    x = P(a3, 0)
    assert M.k_dual(M.k_dual(x)).key() == x.key()


def test_transpose_kills_projectives(a2):
    assert M.transpose(P(a2, 0)).is_zero()
    assert M.transpose(M.free_module(a2)).is_zero()


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


# -- Ext ----------------------------------------------------------------------


def test_ext_a2(a2):
    assert M.ext1_dim(S(a2, 0), S(a2, 1)) == 1
    assert M.ext1_dim(S(a2, 1), S(a2, 0)) == 0
    assert M.ext1_dim(P(a2, 0), S(a2, 1)) == 0


def test_ext_counts_arrows_cyc3(cyc3):
    expected = {(0, 1): 1, (1, 2): 1, (2, 0): 1}
    for i in range(3):
        for j in range(3):
            assert M.ext1_dim(S(cyc3, i), S(cyc3, j)) == expected.get((i, j), 0)


def test_ext_additive(a2):
    two = M.direct_sum([S(a2, 0), S(a2, 0)])[0]
    assert M.ext1_dim(two, S(a2, 1)) == 2


# -- decomposition -------------------------------------------------------------


def test_decompose_free_module(cyc3):
    parts = M.decompose(M.free_module(cyc3))
    assert sorted(mult for _, mult in parts) == [1, 1, 1]
    dims = sorted(rep.dims for rep, _ in parts)
    assert dims == [(0, 1, 1), (1, 0, 1), (1, 1, 0)]


def a2_over(field):
    return compile_bound_quiver(Quiver(["1", "2"], [("a", "1", "2")]), [], field)


@pytest.mark.parametrize("field", [QQ, Field(2), Field(3)], ids=["Q", "F2", "F3"])
def test_decompose_multiplicity(field):
    a2 = a2_over(field)
    x = M.direct_sum([P(a2, 0), P(a2, 0), S(a2, 0)])[0]
    parts = M.decompose(x)
    assert sorted((rep.dims, mult) for rep, mult in parts) == [
        ((1, 0), 1),
        ((1, 1), 2),
    ]


@pytest.mark.parametrize("field", [QQ, Field(3)], ids=["Q", "F3"])
def test_map_power(field):
    a2 = a2_over(field)
    x = M.direct_sum([P(a2, 0), P(a2, 0), S(a2, 0)])[0]
    f = M.zero_map(x, x)
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
    sum1 = M.direct_sum([S(a2, 0), S(a2, 1)])[0]
    assert not M.is_isomorphic(sum1, P(a2, 0))  # same dims, different action


# -- torsion machinery ----------------------------------------------------------


def test_in_fac(cyc3):
    assert M.in_fac(P(cyc3, 0), S(cyc3, 0))
    assert not M.in_fac(P(cyc3, 0), S(cyc3, 1))
    assert M.in_fac(M.free_module(cyc3), P(cyc3, 1))


def test_torsion_part(cyc3):
    t, incl, q, proj = M.torsion_part(P(cyc3, 0), S(cyc3, 1))
    assert t.is_zero() and q.dims == S(cyc3, 1).dims
    t2, _, q2, _ = M.torsion_part(P(cyc3, 0), P(cyc3, 0))
    assert t2.dims == (1, 1, 0) and q2.is_zero()


def test_torsion_part_mixed(a2):
    # trace of S1 inside P1 is zero; quotient must stay S1-free
    t, _, q, _ = M.torsion_part(S(a2, 0), P(a2, 1))
    assert t.is_zero() and q.dims == (0, 1)


def test_star_membership(a2):
    # P1 is an extension of S1 by S2, so it lies in Fac S2 * Fac S1
    assert M.star_membership(S(a2, 1), S(a2, 0), P(a2, 0))
    assert not M.in_fac(S(a2, 0), P(a2, 0))


def test_in_wide(cyc3):
    assert M.in_wide(P(cyc3, 0), M.zero_rep(cyc3), S(cyc3, 1))
    assert M.in_wide(P(cyc3, 0), M.zero_rep(cyc3), P(cyc3, 1))
    assert not M.in_wide(P(cyc3, 0), M.zero_rep(cyc3), P(cyc3, 2))
    assert not M.in_wide(P(cyc3, 0), P(cyc3, 1), P(cyc3, 1))


# -- bricks and filtrations ------------------------------------------------------


def test_bricks(a3):
    assert M.is_brick(S(a3, 0))
    assert M.is_brick(P(a3, 0))
    two = M.direct_sum([S(a3, 0), S(a3, 0)])[0]
    assert not M.is_brick(two)


def test_brick_shrink(a2):
    x = M.direct_sum([P(a2, 0), S(a2, 0)])[0]
    y = M.brick_shrink(x)
    assert M.is_brick(y)


def test_filt_member(a2):
    s = S(a2, 0)
    assert M.filt_member(s, M.zero_rep(a2))
    assert M.filt_member(s, s)
    two = M.direct_sum([s, s])[0]
    assert M.filt_member(s, two)
    assert not M.filt_member(s, P(a2, 0))
    assert not M.filt_member(s, S(a2, 1))


# -- pairs ------------------------------------------------------------------------


def test_check_pair_roles(cyc3):
    zero = M.zero_rep(cyc3)
    tilt = M.check_pair(M.TauPair(M.free_module(cyc3), zero))
    assert tilt["role"] == "tilting" and tilt["rigid"]

    almost = M.check_pair(M.pair_from_summands(cyc3, [P(cyc3, 0), P(cyc3, 1)], []))
    assert almost["role"] == "almost"

    shift_all = M.check_pair(M.TauPair(zero, M.free_module(cyc3)))
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


def test_pair_fingerprints_distinguish(cyc3):
    zero = M.zero_rep(cyc3)
    p1 = M.TauPair(M.free_module(cyc3), zero)
    p2 = M.pair_from_summands(cyc3, [P(cyc3, 0), S(cyc3, 0)], [P(cyc3, 2)])
    p3 = M.TauPair(zero, M.free_module(cyc3))
    prints = {p1.fingerprint(), p2.fingerprint(), p3.fingerprint()}
    assert len(prints) == 3
    assert p1.fingerprint() == M.TauPair(M.free_module(cyc3), zero).fingerprint()


def test_describe(cyc3):
    assert M.describe_module(P(cyc3, 0)) == "P1"
    assert M.describe_module(S(cyc3, 1)) == "S2"
    assert M.describe_module(M.zero_rep(cyc3)) == "0"
    pair = M.pair_from_summands(cyc3, [P(cyc3, 0), S(cyc3, 0)], [P(cyc3, 2)])
    assert M.describe_pair(pair) == "(P1+S1 | P3)"
