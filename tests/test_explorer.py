"""Exchange graphs, green sequences, reduction, and the verification suites."""

import pytest

from tautilt import explorer as ex
from tautilt import modules as md
from tautilt import tauops as to
from tautilt.algebra import is_isomorphic_algebra, Quiver, Relation, compile_bound_quiver
from tautilt.errors import (
    IncompleteGraph,
    MatchFailure,
    NotInWide,
    PreconditionViolated,
)
from tautilt.linalg import QQ, Field


def P(alg, i):
    return md.projective(alg, i)


def S(alg, i):
    return md.simple(alg, i)


def pair(alg, m_parts, p_parts=()):
    return md.pair_from_summands(alg, list(m_parts), list(p_parts))


def green_chain(cyc3):
    # ascending: 0, Fac S3, Fac(S3+P3), Fac(S3+P2+P3), mod A
    return [
        to.shifted_pair(cyc3),
        pair(cyc3, [S(cyc3, 2)], [P(cyc3, 0), P(cyc3, 1)]),
        pair(cyc3, [S(cyc3, 2), P(cyc3, 2)], [P(cyc3, 1)]),
        pair(cyc3, [S(cyc3, 2), P(cyc3, 1), P(cyc3, 2)]),
        to.free_pair(cyc3),
    ]


def descs(graph):
    return sorted(md.describe_pair(p) for p in graph.nodes.values())


@pytest.fixture(scope="module")
def g_a2(a2):
    return ex.build_exchange_graph(a2)


@pytest.fixture(scope="module")
def g_cyc3(cyc3):
    return ex.build_exchange_graph(cyc3)


@pytest.fixture(scope="module")
def rd_p1(cyc3):
    return ex.tau_reduction(md.TauPair(P(cyc3, 0), md.zero_rep(cyc3)))


# ---------------------------------------------------------------------------
# graph construction


def test_graph_point(point):
    g = ex.build_exchange_graph(point)
    assert g.complete
    assert len(g) == 2
    assert len(g.edges) == 1
    s, t, _ = g.edges[0]
    assert s == to.free_pair(point).fingerprint()
    assert t == to.shifted_pair(point).fingerprint()


def test_graph_a2_pentagon(a2, g_a2):
    assert g_a2.complete
    assert descs(g_a2) == [
        "(0 | P1+P2)",
        "(P1+P2 | 0)",
        "(P1+S1 | 0)",
        "(P2 | P1)",
        "(S1 | P2)",
    ]
    names = {fp: md.describe_pair(p) for fp, p in g_a2.nodes.items()}
    arcs = {(names[s], names[t]) for s, t, _ in g_a2.edges}
    assert arcs == {
        ("(P1+P2 | 0)", "(P1+S1 | 0)"),
        ("(P1+P2 | 0)", "(P2 | P1)"),
        ("(P1+S1 | 0)", "(S1 | P2)"),
        ("(P2 | P1)", "(0 | P1+P2)"),
        ("(S1 | P2)", "(0 | P1+P2)"),
    }
    for fp in g_a2.nodes:
        assert g_a2.incident_count(fp) == 2


def test_graph_a3_counts(a3):
    g = ex.build_exchange_graph(a3)
    assert g.complete
    assert len(g) == 14
    assert len(g.edges) == 21


def test_graph_cyc3_counts(g_cyc3):
    assert g_cyc3.complete
    assert len(g_cyc3) == 14
    assert len(g_cyc3.edges) == 21
    for fp in g_cyc3.nodes:
        assert g_cyc3.incident_count(fp) == 3


def _linear_a3(field):
    q = Quiver(["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3")])
    return compile_bound_quiver(q, [], field)


def _commutative_square(field):
    q = Quiver(
        ["1", "2", "3", "4"],
        [("a", "1", "2"), ("b", "2", "4"), ("c", "1", "3"), ("d", "3", "4")],
    )
    rel = Relation(q, [(1, ("a", "b")), (-1, ("c", "d"))])
    return compile_bound_quiver(q, [rel], field)


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize(
    "make, nodes, edges", [(_linear_a3, 14, 21), (_commutative_square, 46, 92)]
)
def test_graph_prime_field_counts(make, nodes, edges, p):
    # the counts over Q; the walk must not depend on comparing F_p elements
    g = ex.build_exchange_graph(make(Field(p)))
    assert g.complete
    assert len(g) == nodes
    assert len(g.edges) == edges


def test_graph_contains_green_chain(cyc3, g_cyc3):
    chain = green_chain(cyc3)
    edge_set = g_cyc3.edge_set()
    for low, high in zip(chain, chain[1:]):
        # edges point from larger Fac down to smaller
        assert (high.fingerprint(), low.fingerprint()) in edge_set


def test_graph_up_neighbours(a2, g_a2):
    bottom = to.shifted_pair(a2).fingerprint()
    ups = g_a2.up_neighbours(bottom)
    assert sorted(md.describe_pair(g_a2.nodes[f]) for f in ups) == [
        "(P2 | P1)",
        "(S1 | P2)",
    ]
    assert g_a2.up_neighbours(to.free_pair(a2).fingerprint()) == []


def test_graph_budget(cyc3):
    g = ex.build_exchange_graph(cyc3, budget=3)
    assert not g.complete
    assert len(g) <= 3
    with pytest.raises(PreconditionViolated):
        ex.build_exchange_graph(cyc3, budget=0)


def test_graph_dot(g_a2):
    out = ex.graph_dot(g_a2)
    assert out.startswith("digraph")
    assert out.count("->") == len(g_a2.edges)
    # brick labels are rendered as dimension vectors on the edges
    assert '[label="(1,0)"]' in out or '[label="(0,1)"]' in out
    plain = ex.graph_dot(g_a2, bricks=False)
    assert plain.count("->") == len(g_a2.edges)


# ---------------------------------------------------------------------------
# maximal green sequences


def test_mgs_a2(a2, g_a2):
    seqs = ex.maximal_green_sequences(g_a2, to.free_pair(a2))
    want = [
        [
            pair(a2, [], [P(a2, 0), P(a2, 1)]),
            pair(a2, [P(a2, 1)], [P(a2, 0)]),
            pair(a2, [P(a2, 0), P(a2, 1)]),
        ],
        [
            pair(a2, [], [P(a2, 0), P(a2, 1)]),
            pair(a2, [S(a2, 0)], [P(a2, 1)]),
            pair(a2, [P(a2, 0), S(a2, 0)]),
            pair(a2, [P(a2, 0), P(a2, 1)]),
        ],
    ]
    assert len(seqs) == 2
    for got, exp in zip(seqs, want):
        assert [p.fingerprint() for p in got] == [p.fingerprint() for p in exp]


def test_mgs_cyc3(cyc3, g_cyc3):
    seqs = ex.maximal_green_sequences(g_cyc3, to.free_pair(cyc3))
    assert len(seqs) == 9
    assert sorted(len(s) for s in seqs) == [5] * 6 + [6] * 3
    chain_fp = [p.fingerprint() for p in green_chain(cyc3)]
    assert chain_fp in [[p.fingerprint() for p in s] for s in seqs]
    bottom = to.shifted_pair(cyc3).fingerprint()
    top = to.free_pair(cyc3).fingerprint()
    edge_set = g_cyc3.edge_set()
    for s in seqs:
        assert s[0].fingerprint() == bottom
        assert s[-1].fingerprint() == top
        for low, high in zip(s, s[1:]):
            assert (high.fingerprint(), low.fingerprint()) in edge_set


def test_mgs_mid_target(cyc3, g_cyc3):
    chain = green_chain(cyc3)
    seqs = ex.maximal_green_sequences(g_cyc3, chain[2])
    assert seqs
    for s in seqs:
        assert s[-1].fingerprint() == chain[2].fingerprint()
    assert [p.fingerprint() for p in chain[:3]] in [
        [p.fingerprint() for p in s] for s in seqs
    ]


def test_mgs_trivial_bottom(a2, g_a2):
    seqs = ex.maximal_green_sequences(g_a2, to.shifted_pair(a2))
    assert len(seqs) == 1
    assert len(seqs[0]) == 1
    assert seqs[0][0].fingerprint() == to.shifted_pair(a2).fingerprint()


def test_mgs_guards(cyc3, g_cyc3):
    partial = ex.build_exchange_graph(cyc3, budget=3)
    with pytest.raises(IncompleteGraph):
        ex.maximal_green_sequences(partial, to.free_pair(cyc3))
    stray = md.TauPair(S(cyc3, 2), md.zero_rep(cyc3))  # rigid but not a node
    with pytest.raises(MatchFailure):
        ex.maximal_green_sequences(g_cyc3, stray)


# ---------------------------------------------------------------------------
# tau-reduction of the algebra


def test_reduction_zero_pair(cyc3):
    rd = ex.tau_reduction(md.TauPair(md.zero_rep(cyc3), md.zero_rep(cyc3)))
    assert rd.ideal_dim == 0
    assert rd.quotient.dim == cyc3.dim
    assert is_isomorphic_algebra(rd.quotient, cyc3)


def test_reduction_free_pair(cyc3):
    rd = ex.tau_reduction(to.free_pair(cyc3))
    assert rd.endo.dim == cyc3.dim
    assert rd.ideal_dim == rd.endo.dim
    assert rd.quotient.dim == 0
    assert rd.quotient.n == 0


def test_reduction_shifted_pair(cyc3):
    rd = ex.tau_reduction(to.shifted_pair(cyc3))
    assert rd.endo.dim == 0
    assert rd.quotient.dim == 0


def test_reduction_p1(cyc3, rd_p1):
    # quotient is the path algebra of a single arrow between the two
    # surviving vertices
    assert rd_p1.quotient.n == 2
    assert rd_p1.quotient.dim == 3
    assert rd_p1.quotient.dim == rd_p1.endo.dim - rd_p1.ideal_dim
    q = Quiver(["x", "y"], [("a", "x", "y")])
    model = compile_bound_quiver(q, [], QQ)
    assert is_isomorphic_algebra(rd_p1.quotient, model)
    assert len(rd_p1.u_slots) == 1
    assert len(rd_p1.kept_slots) == 2


def test_reduction_dim_identity(a2):
    for parts in ([P(a2, 1)], [S(a2, 0)], [P(a2, 0), P(a2, 1)]):
        rd = ex.tau_reduction(pair(a2, parts))
        assert rd.quotient.dim == rd.endo.dim - rd.ideal_dim


# ---------------------------------------------------------------------------
# reduction functor


def test_functor_zero(cyc3, rd_p1):
    y = ex.reduction_functor(rd_p1, md.zero_rep(cyc3))
    assert y.is_zero()


def test_functor_simple(cyc3, rd_p1):
    # S3 lies in the wide subcategory and maps to the simple over the
    # reduced algebra generating the one nontrivial torsion class
    y = ex.reduction_functor(rd_p1, S(cyc3, 2))
    assert sum(y.dims) == 1
    assert md.is_isomorphic(y, md.simple(rd_p1.quotient, y.dims.index(1)))


def test_functor_dims(cyc3, rd_p1):
    m = rd_p1.bongartz.m
    for x in (S(cyc3, 2), P(cyc3, 1), P(cyc3, 2)):
        if not md.in_wide(rd_p1.pair.m, rd_p1.pair.p, x):
            continue
        y = ex.reduction_functor(rd_p1, x)
        assert sum(y.dims) == md.dim_hom(m, x)


def test_functor_rejects_outside_wide(cyc3, rd_p1):
    with pytest.raises(NotInWide):
        ex.reduction_functor(rd_p1, S(cyc3, 0))


# ---------------------------------------------------------------------------
# reduction bijection


def test_reduce_pair_endpoints(cyc3, rd_p1):
    top = ex.reduce_pair(rd_p1, to.free_pair(cyc3))
    assert top.fingerprint() == to.free_pair(rd_p1.quotient).fingerprint()
    low = ex.reduce_pair(rd_p1, md.TauPair(P(cyc3, 0), md.zero_rep(cyc3)))
    assert low.fingerprint() == to.shifted_pair(rd_p1.quotient).fingerprint()


def test_reduce_pair_requires_containment(cyc3, rd_p1):
    other = pair(cyc3, [S(cyc3, 2)], [P(cyc3, 0), P(cyc3, 1)])
    with pytest.raises(PreconditionViolated):
        ex.reduce_pair(rd_p1, other)


def test_bijection_p1(rd_p1):
    rep = ex.reduction_bijection_check(rd_p1)
    assert rep["pass"]
    assert rep["ambient_count"] == 5
    assert rep["reduced_count"] == 5
    assert rep["bijective"]
    assert rep["order_preserved"]


def test_bijection_trivial(cyc3):
    zero = md.zero_rep(cyc3)
    cases = [
        (md.TauPair(zero, zero), 14),
        (to.free_pair(cyc3), 1),
        (to.shifted_pair(cyc3), 1),
    ]
    for apair, count in cases:
        rep = ex.reduction_bijection_check(ex.tau_reduction(apair))
        assert rep["pass"]
        assert rep["ambient_count"] == count
        assert rep["reduced_count"] == count


def test_bijection_two_summands(cyc3):
    rd = ex.tau_reduction(pair(cyc3, [S(cyc3, 2)], [P(cyc3, 1)]))
    assert rd.quotient.n == 1
    rep = ex.reduction_bijection_check(rd)
    assert rep["pass"]
    assert rep["ambient_count"] == 2


# ---------------------------------------------------------------------------
# transport of green sequences


def test_transport_p1(cyc3, rd_p1):
    out = ex.transport_mgs(rd_p1, green_chain(cyc3))
    assert len(out) == 3  # two steps survive after deduplication
    assert out[0].m.is_zero()
    assert out[-1].fingerprint() == to.free_pair(rd_p1.quotient).fingerprint()
    mid = out[1].m
    s3p = md.simple(rd_p1.quotient, mid.dims.index(1))
    assert md.in_fac(mid, s3p) and md.in_fac(s3p, mid)


def test_transport_identity(cyc3):
    zero = md.zero_rep(cyc3)
    rd = ex.tau_reduction(md.TauPair(zero, zero))
    chain = green_chain(cyc3)
    out = ex.transport_mgs(rd, chain)
    assert len(out) == len(chain)
    assert [sum(p.m.dims) for p in out] == [sum(p.m.dims) for p in chain]


def test_transport_zero_algebra(cyc3):
    rd = ex.tau_reduction(to.free_pair(cyc3))
    out = ex.transport_mgs(rd, green_chain(cyc3))
    assert len(out) == 1
    assert out[0].m.is_zero() and out[0].p.is_zero()


def test_transport_rejects_bad_chain(cyc3, rd_p1):
    chain = green_chain(cyc3)
    with pytest.raises(PreconditionViolated):
        ex.transport_mgs(rd_p1, chain[1:])  # does not start at (0, A)
    with pytest.raises(PreconditionViolated):
        ex.transport_mgs(rd_p1, chain[:-1])  # stops short of the window top


# ---------------------------------------------------------------------------
# connecting paths with a fixed projective summand


def test_connect_p1(cyc3):
    path = list(reversed(green_chain(cyc3)))
    rel = md.TauPair(P(cyc3, 0), md.zero_rep(cyc3))
    out = ex.connect_fixed_summand(path, rel)
    want = [
        to.free_pair(cyc3),
        pair(cyc3, [P(cyc3, 0), S(cyc3, 0), P(cyc3, 2)]),
        pair(cyc3, [P(cyc3, 0), S(cyc3, 0)], [P(cyc3, 2)]),
    ]
    assert [p.fingerprint() for p in out] == [p.fingerprint() for p in want]
    for node in out:
        assert to.contains_pair(node, rel)


def test_connect_trivial(cyc3):
    path = list(reversed(green_chain(cyc3)))
    full = ex.connect_fixed_summand(path, to.free_pair(cyc3))
    assert len(full) == 1
    assert full[0].fingerprint() == to.free_pair(cyc3).fingerprint()
    zero = md.zero_rep(cyc3)
    same = ex.connect_fixed_summand(path, md.TauPair(zero, zero))
    assert [p.fingerprint() for p in same] == [p.fingerprint() for p in path]


def test_connect_guards(cyc3):
    path = list(reversed(green_chain(cyc3)))
    with pytest.raises(PreconditionViolated):
        ex.connect_fixed_summand(path, md.TauPair(S(cyc3, 2), md.zero_rep(cyc3)))
    with pytest.raises(PreconditionViolated):
        ex.connect_fixed_summand(
            path, md.TauPair(md.zero_rep(cyc3), P(cyc3, 0))
        )


# ---------------------------------------------------------------------------
# rigid subpairs


def test_rigid_subpairs(a2, g_a2):
    small = ex.rigid_subpairs(g_a2, 1)
    assert sorted(md.describe_pair(p) for p in small) == [
        "(0 | 0)",
        "(0 | P1)",
        "(0 | P2)",
        "(P1 | 0)",
        "(P2 | 0)",
        "(S1 | 0)",
    ]
    full = ex.rigid_subpairs(g_a2, 2)
    assert len(full) == 11
    free_fp = to.free_pair(a2).fingerprint()
    assert any(p.fingerprint() == free_fp for p in full)


# ---------------------------------------------------------------------------
# verification suites


def test_verify_exchange(a2, cyc3):
    for alg in (a2, cyc3):
        rep = ex.verify_exchange(alg)
        assert rep["suite"] == "exchange"
        assert rep["pass"], rep["failures"]
        assert rep["complete"]


def test_verify_compat_a2(a2, g_a2):
    zero = md.zero_rep(a2)
    for rel in (
        md.TauPair(P(a2, 0), zero),
        md.TauPair(S(a2, 0), zero),
        md.TauPair(zero, P(a2, 1)),
    ):
        rep = ex.verify_mutation_compat(rel, g_a2)
        assert rep["pass"], rep["failures"]
        assert rep["edges_checked"] > 0


def test_verify_compat_p1(cyc3, g_cyc3):
    rel = md.TauPair(P(cyc3, 0), md.zero_rep(cyc3))
    rep = ex.verify_mutation_compat(rel, g_cyc3)
    assert rep["pass"], rep["failures"]
    assert rep["identity_steps"] > 0
    assert rep["mutation_steps"] > 0


def test_verify_silting_compat(cyc3, g_cyc3):
    rel = md.TauPair(P(cyc3, 0), md.zero_rep(cyc3))
    rep = ex.verify_silting_compat(rel, g_cyc3)
    assert rep["suite"] == "silting-compat"
    assert rep["pass"], rep["failures"]
    assert rep["mutation_steps"] + rep["identity_steps"] > 0


def test_verify_route(cyc3, g_cyc3):
    rel = md.TauPair(P(cyc3, 0), md.zero_rep(cyc3))
    rep = ex.verify_route(rel, g_cyc3)
    assert rep["pass"], rep["failures"]


def test_verify_dagger(a2, cyc3):
    for alg in (a2, cyc3):
        rep = ex.verify_dagger(alg)
        assert rep["suite"] == "dagger"
        assert rep["pass"], rep["failures"]


def test_verify_reduction_a2(a2):
    rep = ex.verify_reduction(a2)
    assert rep["suite"] == "reduction"
    assert rep["pass"], rep["failures"]
    assert rep["candidates"] >= 6


def test_verify_order_criteria_a2(a2):
    rep = ex.verify_order_criteria(a2)
    assert rep["suite"] == "order-criteria"
    assert rep["pass"], rep["failures"]
