"""Exchange graphs, green sequences, reduction, and the verification suites."""

import sys
from collections import Counter

import pytest

from tautilt import explorer as ex
from tautilt import linalg
from tautilt import modules as md
from tautilt import tauops as to
from tautilt import twoterm as tw
from tautilt.algebra import is_isomorphic_algebra, Quiver, Relation, compile_bound_quiver
from tautilt.errors import (
    CertificateFailure,
    IncompleteGraph,
    MatchFailure,
    NotInWide,
    NotProjective,
    PreconditionViolated,
)
from tautilt.linalg import QQ, Field

from conftest import cycle, image_rows, linear


def P(alg, i):
    return md.projective(alg, i)


def S(alg, i):
    return md.simple(alg, i)


def fac(gens, xs):
    # md.fac_contains with the key set of the gens built here
    return md.fac_contains(gens, frozenset(g.key() for g in gens), xs)


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


def test_graph_a3_counts(a3):
    g = ex.build_exchange_graph(a3)
    assert g.complete
    assert len(g) == 14
    assert len(g.edges) == 21


def test_graph_cyc3_counts(g_cyc3):
    assert g_cyc3.complete
    assert len(g_cyc3) == 14
    assert len(g_cyc3.edges) == 21


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


def _cycle3(field):
    q = Quiver(["1", "2", "3"], [("a3", "1", "2"), ("a1", "2", "3"), ("a2", "3", "1")])
    rels = [
        Relation(q, [(1, ("a1", "a2"))]),
        Relation(q, [(1, ("a2", "a3"))]),
        Relation(q, [(1, ("a3", "a1"))]),
    ]
    return compile_bound_quiver(q, rels, field)


@pytest.mark.parametrize("make", [_linear_a3, _cycle3])
def test_one_walk_serves_all_pairs_and_the_fan(make, monkeypatch):
    # a freshly compiled algebra, so no earlier test has warmed its cache
    alg = make(QQ)
    graph = ex.build_exchange_graph(alg)
    calls = []
    mutate_complex = tw.mutate_complex

    def counted(*args, **kwargs):
        calls.append(args)
        return mutate_complex(*args, **kwargs)

    monkeypatch.setattr(tw, "mutate_complex", counted)
    assert to.all_pairs(alg) == graph.node_list()
    u = pair(alg, [P(alg, 0)])
    for anchor in (None, to.free_pair(alg)):
        to.fan_left_completion(u, anchor)
    assert calls == []


@pytest.mark.parametrize("make", [_linear_a3, _cycle3])
def test_mutate_pair_agrees_with_the_walk(make):
    alg = make(QQ)
    graph = ex.build_exchange_graph(alg)
    edges = set(graph.edges)
    for fp, node in graph.nodes.items():
        for slot, (kind, rep) in enumerate(to.pair_summand_list(node)):
            nb, direction = to.mutate_pair(node, slot)
            nb_fp = nb.fingerprint()
            assert nb_fp in graph.nodes
            # the neighbour at this slot exchanges exactly this summand
            gone, _ = to.exchanged_summands(node, nb)
            assert gone == [md.summand_token(kind, rep)]
            assert (direction == "left") == ((fp, nb_fp, slot) in edges)
            if direction == "right":
                assert (nb_fp, fp) in graph.edge_set()


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
    assert len(rd_p1.parts) - len(rd_p1.kept_slots) == 1
    assert len(rd_p1.kept_slots) == 2


def test_u_slots_hold_the_module_summands_of_the_pair(a3, cyc3):
    # reduction_functor tests Hom(U_i, x) = 0 only on the pair's own
    # summands of U (in_wide): the completion's U slots, the parts outside
    # kept_slots, hold those summands, token for token
    slots = 0
    for alg in (a3, cyc3):
        graph = ex.build_exchange_graph(alg)
        for u in ex.rigid_subpairs(graph, alg.n):
            rd = ex.tau_reduction(u)
            u_slots = [i for i in range(len(rd.parts)) if i not in rd.kept_slots]
            got = sorted(md.summand_token("m", rd.parts[i]) for i in u_slots)
            assert got == sorted(t for t in u.tokens if t[0] == "mod")
            slots += len(u_slots)
    assert slots > 0


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
        if not md.in_wide(rd_p1.pair, x):
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


def _fac_by_maps(gen, x):
    # x lies in Fac(gen) when the images of the maps gen -> x span x at
    # every vertex
    return all(linalg.rank(rows, x.field) == d for rows, d in zip(image_rows(gen, x), x.dims))


def _whole_quotient(gen, x):
    # x modulo the trace of gen: the image rows closed into a submodule
    if gen.is_zero():
        return x
    _, incl = md.submodule(x, image_rows(gen, x))
    return md.quotient(x, incl.mats)[0]


PARTNERS = {
    "A3": lambda pre: _linear_a3(QQ),
    "cyc3": lambda pre: _cycle3(QQ),
    "cyc4": lambda pre: cycle(4, QQ),
    "cyc3/F3": lambda pre: _cycle3(Field(3)),
    "PiA3": lambda pre: pre(3),
}


@pytest.mark.parametrize("name", sorted(PARTNERS))
def test_reduced_partner_is_the_whole_module_match(name, preprojective):
    # reduce_pair reads the reduced pair in closed form from the summand
    # images; the whole-module match takes y = F(M / t_U M) of the
    # assembled M and tests Fac both ways on the sums, by image ranks,
    # against every node of all_pairs.  Both must give the same pair.
    alg = PARTNERS[name](preprojective)
    graph = ex.build_exchange_graph(alg)
    matched = 0
    for u in ex.rigid_subpairs(graph, alg.n - 1):
        rd = ex.tau_reduction(u)
        reduced = to.all_pairs(rd.quotient)
        for node in graph.node_list():
            if not to.contains_pair(node, u):
                continue
            y = ex.reduction_functor(rd, _whole_quotient(u.m, node.m))
            hits = [c for c in reduced if _fac_by_maps(c.m, y) and _fac_by_maps(y, c.m)]
            assert len(hits) == 1
            assert ex.reduce_pair(rd, node).fingerprint() == hits[0].fingerprint()
            matched += 1
    assert matched > len(graph) * alg.n


def test_transport_never_walks_the_reduced_algebra(monkeypatch):
    # every maximal green sequence up to the window top of every rigid
    # subpair of cyc3 with fewer than n summands, on fresh reductions: no
    # exchange graph of a reduced algebra is walked
    alg = _cycle3(QQ)
    graph = ex.build_exchange_graph(alg)
    walked = []
    closure = to.silting_closure

    def recorded(algebra, budget=10000):
        walked.append(algebra)
        return closure(algebra, budget)

    monkeypatch.setattr(to, "silting_closure", recorded)
    quotients, chains = [], 0
    for u in ex.rigid_subpairs(graph, alg.n - 1):
        rd = ex.tau_reduction(u)
        quotients.append(rd.quotient)
        for chain in ex.maximal_green_sequences(graph, rd.bongartz):
            ex.transport_mgs(rd, chain)
            chains += 1
    assert chains > len(quotients)
    assert not any(a is q for a in walked for q in quotients)


@pytest.mark.parametrize("name", ["A3", "cyc4", "PiA3", "cyc3/F3"])
def test_bijection_check_agrees_with_the_reduced_walk(name, preprojective):
    # the check reads closure and covers off the images; the test walks
    # the reduced algebra and compares the order on every ordered pair
    # over U, on every rigid subpair, the full ones included
    alg = PARTNERS[name](preprojective)
    graph = ex.build_exchange_graph(alg)
    subpairs = ex.rigid_subpairs(graph, alg.n)
    for u in subpairs:
        rd = ex.tau_reduction(u)
        rep = ex.reduction_bijection_check(rd)
        assert rep["pass"], (md.describe_pair(u), rep["failures"])
        walked = {c.fingerprint() for c in to.all_pairs(rd.quotient)}
        assert rep["reduced_count"] == len(walked)
        over = [p for p in graph.node_list() if to.contains_pair(p, u)]
        images = [ex.reduce_pair(rd, p) for p in over]
        assert {im.fingerprint() for im in images} == walked
        for a, x in zip(over, images):
            for b, y in zip(over, images):
                if a is not b:
                    assert to.pair_leq(a, b) == to.pair_leq(x, y)
    assert len(subpairs) > len(graph)


def test_bijection_check_never_walks_the_reduced_algebra(monkeypatch):
    # on fresh reductions at every rigid subpair of cyc3, the check walks
    # only the ambient algebra
    alg = _cycle3(QQ)
    graph = ex.build_exchange_graph(alg)
    walked = []
    closure = to.silting_closure

    def recorded(algebra, budget=10000):
        walked.append(algebra)
        return closure(algebra, budget)

    monkeypatch.setattr(to, "silting_closure", recorded)
    for u in ex.rigid_subpairs(graph, alg.n):
        assert ex.reduction_bijection_check(ex.tau_reduction(u))["pass"]
    assert walked and all(a is alg for a in walked)


def test_bijection_check_tests_the_order_once_per_interval_edge(monkeypatch):
    # at the empty pair of A4 the interval is the whole graph: one Fac
    # test per edge, not one per ordered pair of its 42 nodes
    alg = linear(4, QQ)
    graph = ex.build_exchange_graph(alg)
    zero = md.zero_rep(alg)
    rd = ex.tau_reduction(md.TauPair(zero, zero))
    calls = []
    pair_leq = to.pair_leq

    def counted(a, b):
        calls.append((a, b))
        return pair_leq(a, b)

    monkeypatch.setattr(to, "pair_leq", counted)
    rep = ex.reduction_bijection_check(rd)
    assert rep["pass"] and rep["reduced_count"] == len(graph) == 42
    assert 0 < len(calls) <= len(graph.edges) == 84


def _affine_a2():
    # the acyclic triangle 1 -> 2 -> 3, 1 -> 3: tau-tilting infinite
    q = Quiver(["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3"), ("c", "1", "3")])
    return compile_bound_quiver(q, [], QQ)


def _affine_a2_at_s2():
    # the reduction at (S2, 0) and the maximal green sequence up to its
    # Bongartz completion, built by mutation
    alg = _affine_a2()
    rd = ex.tau_reduction(pair(alg, [S(alg, 1)]))
    chain = [to.shifted_pair(alg)]
    for slot in (1, 1, 0):
        chain.append(to.mutate_pair(chain[-1], slot)[0])
    return rd, chain


def test_reduction_at_s2_of_affine_a2_is_the_kronecker_algebra():
    rd, chain = _affine_a2_at_s2()
    assert [md.describe_pair(c) for c in chain] == [
        "(0 | P1+P2+P3)",
        "(S2 | P1+P3)",
        "(P2+S2 | P1)",
        "(M(1,2,2)+P2+S2 | 0)",
    ]
    assert chain[-1].fingerprint() == rd.bongartz.fingerprint()
    q = rd.quotient
    assert q.n == 2
    blocks = Counter(q.peirce)
    assert blocks[(0, 0)] == blocks[(1, 1)] == 1
    assert sorted(c for (i, j), c in blocks.items() if i != j) == [2]
    with pytest.raises(PreconditionViolated):
        ex.reduce_pair(rd, chain[0])  # does not contain (S2, 0)
    images = [md.describe_pair(ex.reduce_pair(rd, c)) for c in chain[1:]]
    kronecker = ["(0 | P2'+PM(1,2,2)')", "(P2' | PM(1,2,2)')", "(P2'+PM(1,2,2)' | 0)"]
    assert images == kronecker
    assert [md.describe_pair(p) for p in ex.transport_mgs(rd, chain)] == kronecker


@pytest.mark.parametrize("fault", ["drop", "not-rigid", "decomposable"])
def test_reduce_pair_refuses_an_uncertified_pair(fault, monkeypatch):
    # at the top of the chain the images of P2 and M(1,2,2) are P2' and
    # PM(1,2,2)', and both vertices are in the support of PM(1,2,2)'.
    # Dropping P2' leaves one summand; the simple top of PM(1,2,2)' in
    # its place is not tau-rigid with it (Hom(PM(1,2,2)', tau S) != 0);
    # an image doubled is no indecomposable summand.
    rd, chain = _affine_a2_at_s2()
    q = rd.quotient
    image, functor = ex._summand_image, ex.reduction_functor
    top = next(v for v in range(q.n) if md.describe_module(P(q, v)) == "PM(1,2,2)'")
    swap = md.zero_rep(q) if fault == "drop" else S(q, top)

    def faulty(rd, x):
        return swap if md.describe_module(x) == "P2" else image(rd, x)

    def doubled(rd, x):
        return md.sum_or_zero(q, [functor(rd, x)] * 2)

    if fault == "decomposable":
        monkeypatch.setattr(ex, "reduction_functor", doubled)
    else:
        monkeypatch.setattr(ex, "_summand_image", faulty)
    with pytest.raises(CertificateFailure):
        ex.reduce_pair(rd, chain[-1])


def test_transport_refuses_a_skipped_step(monkeypatch):
    # the middle node reduced to the image of the top one: the image chain
    # then climbs two summands at once
    rd, chain = _affine_a2_at_s2()
    reduce = ex.reduce_pair

    def skipping(rd, apair):
        if apair.fingerprint() == chain[2].fingerprint():
            apair = chain[3]
        return reduce(rd, apair)

    monkeypatch.setattr(ex, "reduce_pair", skipping)
    with pytest.raises(CertificateFailure, match="a transported step is not a cover"):
        ex.transport_mgs(rd, chain)


# ---------------------------------------------------------------------------
# transport of green sequences


def test_transport_p1(cyc3, rd_p1):
    out = ex.transport_mgs(rd_p1, green_chain(cyc3))
    assert len(out) == 3  # two steps survive after deduplication
    assert out[0].m.is_zero()
    assert out[-1].fingerprint() == to.free_pair(rd_p1.quotient).fingerprint()
    mid = out[1].m
    s3p = md.simple(rd_p1.quotient, mid.dims.index(1))
    assert fac([mid], [s3p]) and fac([s3p], [mid])


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


def test_transport_rejects_a_right_mutation_step(cyc3):
    # up to Fac(S3+P3), down to Fac S3 and up again: one summand is
    # exchanged at every step, but step 2 goes down the order
    rd = ex.tau_reduction(md.TauPair(md.zero_rep(cyc3), md.zero_rep(cyc3)))
    c = green_chain(cyc3)
    with pytest.raises(PreconditionViolated, match="step 2 of the chain is not a left mutation"):
        ex.transport_mgs(rd, c[:3] + c[1:])


def test_transport_rejects_a_step_over_two_summands(cyc3):
    # from 0 straight to Fac(S3+P3), above it in the order
    rd = ex.tau_reduction(md.TauPair(md.zero_rep(cyc3), md.zero_rep(cyc3)))
    c = green_chain(cyc3)
    assert to.pair_leq(c[0], c[2])
    with pytest.raises(PreconditionViolated, match="step 0 of the chain is not a left mutation"):
        ex.transport_mgs(rd, [c[0]] + c[2:])


def test_transport_certifies_each_input_node_once(cyc3, monkeypatch):
    # reduce_pair certifies the images, so transport_mgs itself tests only
    # the input chain for tilting; left_bongartz's own tests are not counted
    graph = ex.build_exchange_graph(cyc3)
    require = to._require_tilting
    tested = []

    def spied(pair):
        if sys._getframe(1).f_globals["__name__"] == ex.__name__:
            tested.append(pair.fingerprint())
        return require(pair)

    monkeypatch.setattr(to, "_require_tilting", spied)
    transported = 0
    for u in ex.rigid_subpairs(graph, cyc3.n - 1):
        rd = ex.tau_reduction(u)
        for chain in ex.maximal_green_sequences(graph, rd.bongartz):
            tested.clear()
            ex.transport_mgs(rd, chain)
            assert tested == [node.fingerprint() for node in chain]
            transported += 1
    assert transported > 9


@pytest.mark.parametrize("make", [_linear_a3, _cycle3])
def test_every_mgs_transports_and_steps_are_the_graph_edges(make):
    # a fresh algebra; every maximal green sequence up to the window top of
    # every rigid subpair with fewer than n summands passes.  The reduction
    # at the zero pair is the identity, so its chains come back whole.
    alg = make(QQ)
    graph = ex.build_exchange_graph(alg)
    transported = 0
    for u in ex.rigid_subpairs(graph, alg.n - 1):
        rd = ex.tau_reduction(u)
        for chain in ex.maximal_green_sequences(graph, rd.bongartz):
            out = ex.transport_mgs(rd, chain)
            assert out[0].m.is_zero() and len(out) <= len(chain)
            if u.size() == 0:
                assert [sum(p.m.dims) for p in out] == [sum(p.m.dims) for p in chain]
            transported += 1
    assert transported > 9
    # a two-node chain lo, hi is accepted exactly when hi -> lo is an edge
    edges = graph.edge_set()
    for lo in graph.node_list():
        for hi in graph.node_list():
            try:
                ex._check_green_chain([lo, hi])
                accepted = True
            except PreconditionViolated:
                accepted = False
            assert accepted == ((hi.fingerprint(), lo.fingerprint()) in edges)


def _cones(twin_of, u, path):
    # the oracle: the left completion of u at every node of the path by
    # one cone each (left_completion_silting, read by to_tau_pair) over a
    # cold twin algebra, its pairs found by fingerprint; repeats dropped
    twin_u = twin_of[u.fingerprint()]
    out = []
    for node in path:
        cone = tw.left_completion_silting(twin_u.complex, twin_of[node.fingerprint()].complex)
        fp = tw.to_tau_pair(cone).fingerprint()
        if not out or fp != out[-1]:
            out.append(fp)
    return out


def _is_projective_pair(u):
    # (U, 0) with U projective: the pairs connect_fixed_summand accepts
    try:
        for x in u.m_parts:
            md._projective_vertex(x)
    except NotProjective:
        return False
    return not u.p_summands()


@pytest.mark.parametrize("name", sorted(PARTNERS))
def test_completions_along_a_path_are_the_cones_on_a_cold_twin(name, preprojective):
    # every maximal green sequence down from the free pair for each
    # projective (U, 0), read first so that nothing is cached for U, and
    # every one up to the window top of every rigid subpair: the
    # completions read off the next node's match one cone per node on a
    # freshly compiled copy of the algebra
    alg = PARTNERS[name](preprojective)
    graph = ex.build_exchange_graph(alg)
    twin = PARTNERS[name](preprojective)
    twin_graph = ex.build_exchange_graph(twin)
    twin_of = {p.fingerprint(): p for p in ex.rigid_subpairs(twin_graph, twin.n)}
    downs = [chain[::-1] for chain in ex.maximal_green_sequences(graph, to.free_pair(alg))]
    paths = moved = connected = 0
    for u in ex.rigid_subpairs(graph, alg.n):
        if _is_projective_pair(u):
            for path in downs:
                got = [c.fingerprint() for c in ex.connect_fixed_summand(path, u)]
                assert got == _cones(twin_of, u, path)
                connected += 1
        chains = ex.maximal_green_sequences(graph, to.right_bongartz(u))
        for chain in chains:
            got = [c.fingerprint() for c in ex._completed_path(u, chain)]
            assert got == _cones(twin_of, u, chain)
            moved += len(got) > 1
        paths += len(chains)
    assert paths > len(graph) and moved > 0 and connected > 0


def test_completions_along_the_affine_a2_chain_are_the_cones_on_a_cold_twin():
    # tau-tilting infinite: no walk, so the neighbours are built on demand
    rd, chain = _affine_a2_at_s2()
    twin = _affine_a2()
    twin_chain = [to.shifted_pair(twin)]
    for slot in (1, 1, 0):
        twin_chain.append(to.mutate_pair(twin_chain[-1], slot)[0])
    twin_of = {p.fingerprint(): p for p in twin_chain + [pair(twin, [S(twin, 1)])]}
    got = [c.fingerprint() for c in ex._completed_path(rd.pair, chain)]
    assert got == _cones(twin_of, rd.pair, chain)
    assert len(got) == 3


@pytest.mark.parametrize("make", [_linear_a3, _cycle3])
def test_transport_builds_no_cone_and_no_mutation_after_the_walk(make, monkeypatch):
    # after the walk and the reductions, the completions along every chain
    # are read from the window top and the exchange record
    alg = make(QQ)
    graph = ex.build_exchange_graph(alg)
    reductions = [ex.tau_reduction(u) for u in ex.rigid_subpairs(graph, alg.n - 1)]
    built = []
    for fn in ("left_completion_silting", "mutate_complex"):
        real = getattr(tw, fn)

        def counted(*args, _real=real, _fn=fn):
            built.append(_fn)
            return _real(*args)

        monkeypatch.setattr(tw, fn, counted)
    chains = 0
    for rd in reductions:
        for chain in ex.maximal_green_sequences(graph, rd.bongartz):
            ex.transport_mgs(rd, chain)
            chains += 1
    assert built == [] and chains > 9


def test_transport_refuses_a_neighbour_that_hides_the_completion(monkeypatch):
    # every neighbour read as the pair itself: where the completion moves,
    # no candidate passes
    alg = _cycle3(QQ)
    rd = ex.tau_reduction(md.TauPair(P(alg, 0), md.zero_rep(alg)))
    chain = green_chain(alg)
    monkeypatch.setattr(to, "_neighbour", lambda p, slot: (p, "left"))
    with pytest.raises(CertificateFailure, match="no mutation of the next completion"):
        ex.transport_mgs(rd, chain)


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


@pytest.mark.parametrize("name", sorted(PARTNERS))
def test_verify_exchange_checks_unimodularity_without_the_walk(name, preprojective, monkeypatch):
    # the sweep's determinant, over QQ by Fraction elimination, agrees with
    # the walk's integer one at every node, and the sweep passes with the
    # walk's check made unusable after the walk
    alg = PARTNERS[name](preprojective)
    graph = ex.build_exchange_graph(alg)
    for node in graph.node_list():
        g_matrix = [token[1] for token in node.tokens]
        assert linalg.det(g_matrix, QQ) == linalg.int_det(g_matrix)

    def refuse(pair):
        raise AssertionError("verify_exchange called the walk's unimodularity check")

    monkeypatch.setattr(to, "_det_pm_one", refuse)
    assert ex.verify_exchange(alg)["pass"]


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


# ---------------------------------------------------------------------------
# each report fails, with its named check, when one step is patched wrong


def _failed_checks(rep):
    return {f["check"] for f in rep["failures"]}


def _moved(u, graph):
    # whether some window node is not its own left completion; where none
    # is, completing to the node itself is right
    return any(
        to.left_bongartz(u, node).fingerprint() != node.fingerprint()
        for node in graph.node_list()
        if to.left_precondition(u, node)
    )


@pytest.mark.parametrize("make", [_linear_a3, _cycle3])
def test_compat_report_fails_on_a_wrong_completion(make, monkeypatch):
    alg = make(QQ)
    graph = ex.build_exchange_graph(alg)
    subpairs = ex.rigid_subpairs(graph, alg.n - 1)
    moved = [_moved(u, graph) for u in subpairs]
    monkeypatch.setattr(to, "left_bongartz", lambda u, node: node)
    for u, wrong in zip(subpairs, moved):
        rep = ex.verify_mutation_compat(u, graph)
        assert rep["pass"] != wrong
        assert _failed_checks(rep) <= {"identity-branch", "mutation-branch"}
    assert any(moved)


@pytest.mark.parametrize("make", [_linear_a3, _cycle3])
def test_silting_compat_report_fails_on_a_wrong_completion(make, monkeypatch):
    # the completion returns U itself, which has fewer than n summands
    alg = make(QQ)
    graph = ex.build_exchange_graph(alg)
    monkeypatch.setattr(tw, "left_completion_silting", lambda u, t: u)
    for u in ex.rigid_subpairs(graph, alg.n - 1):
        rep = ex.verify_silting_compat(u, graph)
        assert not rep["pass"]
        assert _failed_checks(rep) == {"silting"}


def _window_target(u, graph):
    # a window node that a window node mutates down to, or None
    for s, t, _ in graph.edges:
        if to.left_precondition(u, graph.nodes[s]):
            return graph.nodes[t]
    return None


def _edges_into(u, graph, target):
    # the left edges into target from window nodes
    fp = target.fingerprint()
    return sum(
        1 for s, t, _ in graph.edges if t == fp and to.left_precondition(u, graph.nodes[s])
    )


@pytest.mark.parametrize("make", [_linear_a3, _cycle3])
def test_compat_report_fails_when_the_window_tests_disagree(make, monkeypatch):
    # the complex side puts every node in the window of U: each node
    # outside the module-side window is named, and nothing else fails
    alg = make(QQ)
    graph = ex.build_exchange_graph(alg)
    hom_k = tw.hom_k
    failed = 0
    for u in ex.rigid_subpairs(graph, alg.n - 1):
        outside = [n for n in graph.node_list() if not to.left_precondition(u, n)]
        u_c = u.complex
        monkeypatch.setattr(
            tw, "hom_k", lambda x, y, shift=0: 0 if x is u_c else hom_k(x, y, shift)
        )
        rep = ex.verify_mutation_compat(u, graph)
        monkeypatch.undo()
        assert [f["node"] for f in rep["failures"]] == [md.describe_pair(n) for n in outside]
        assert _failed_checks(rep) == ({"window"} if outside else set())
        failed += bool(outside)
    assert failed > 5


@pytest.mark.parametrize("make", [_linear_a3, _cycle3])
def test_compat_report_fails_when_the_window_shrinks_along_an_edge(make, monkeypatch):
    # both window tests drop one window node t that a window node mutates
    # down to: each edge into t from the window is named, and nothing else
    alg = make(QQ)
    graph = ex.build_exchange_graph(alg)
    left_precondition, hom_k = to.left_precondition, tw.hom_k
    failed = 0
    for u in ex.rigid_subpairs(graph, alg.n - 1):
        t = _window_target(u, graph)
        if t is None:
            continue
        into = _edges_into(u, graph, t)
        monkeypatch.setattr(
            to, "left_precondition", lambda a, b: b is not t and left_precondition(a, b)
        )
        monkeypatch.setattr(
            tw, "hom_k", lambda x, y, shift=0: 1 if y is t.complex else hom_k(x, y, shift)
        )
        rep = ex.verify_mutation_compat(u, graph)
        monkeypatch.undo()
        assert [f["check"] for f in rep["failures"]] == ["window-shrink"] * into
        assert _failed_checks(rep) == {"window-shrink"}
        failed += 1
    assert failed > 5


@pytest.mark.parametrize("make", [_linear_a3, _cycle3])
def test_silting_compat_report_fails_when_the_window_shrinks_along_an_edge(make, monkeypatch):
    # the complex-side window test drops one window node t that a window
    # node mutates down to: each edge into t from the window is named
    alg = make(QQ)
    graph = ex.build_exchange_graph(alg)
    hom_k = tw.hom_k
    failed = 0
    for u in ex.rigid_subpairs(graph, alg.n - 1):
        t = _window_target(u, graph)
        if t is None:
            continue
        into = _edges_into(u, graph, t)
        u_c = u.complex
        monkeypatch.setattr(
            tw,
            "hom_k",
            lambda x, y, shift=0: 1 if x is u_c and y is t.complex else hom_k(x, y, shift),
        )
        rep = ex.verify_silting_compat(u, graph)
        monkeypatch.undo()
        assert [f["check"] for f in rep["failures"]] == ["window-shrink"] * into
        assert _failed_checks(rep) == {"window-shrink"}
        failed += 1
    assert failed > 5


@pytest.mark.parametrize("make", [_linear_a3, _cycle3])
def test_silting_compat_report_fails_on_a_reversed_order(make, monkeypatch):
    # the silting order reads the wrong way round: every step where the
    # completion moves is named, and nothing else fails
    alg = make(QQ)
    graph = ex.build_exchange_graph(alg)
    silting_leq = tw.silting_leq
    failed = 0
    for u in ex.rigid_subpairs(graph, alg.n - 1):
        moves = ex.verify_silting_compat(u, graph)["mutation_steps"]
        monkeypatch.setattr(tw, "silting_leq", lambda a, b: silting_leq(b, a))
        rep = ex.verify_silting_compat(u, graph)
        monkeypatch.undo()
        assert rep["mutation_steps"] == moves
        assert [f["check"] for f in rep["failures"]] == ["mutation-branch"] * moves
        assert _failed_checks(rep) == ({"mutation-branch"} if moves else set())
        failed += bool(moves)
    assert failed > 5


@pytest.mark.parametrize("make", [_linear_a3, _cycle3])
def test_route_report_fails_on_a_wrong_fan_search(make, monkeypatch):
    alg = make(QQ)
    graph = ex.build_exchange_graph(alg)
    subpairs = ex.rigid_subpairs(graph, alg.n - 1)
    moved = [_moved(u, graph) for u in subpairs]
    monkeypatch.setattr(to, "fan_left_completion", lambda u, node, budget: node)
    for u, wrong in zip(subpairs, moved):
        rep = ex.verify_route(u, graph)
        assert rep["pass"] != wrong
        assert _failed_checks(rep) <= {"route"}
    assert any(moved)


@pytest.mark.parametrize("make", [_linear_a3, _cycle3])
def test_reduction_report_fails_on_swapped_images(make, monkeypatch):
    # the images of two comparable pairs over U are swapped: the map stays
    # a bijection but reverses their order
    alg = make(QQ)
    graph = ex.build_exchange_graph(alg)
    reduce_pair = ex.reduce_pair
    checked = 0
    for u in ex.rigid_subpairs(graph, alg.n - 1):
        rd = ex.tau_reduction(u)
        over = [p for p in graph.node_list() if to.contains_pair(p, u)]
        comparable = [
            (a, b) for a in over for b in over if a is not b and to.pair_leq(a, b)
        ]
        if not comparable:
            continue
        a, b = comparable[0]
        swap = {a.fingerprint(): b, b.fingerprint(): a}
        monkeypatch.setattr(
            ex, "reduce_pair", lambda rd, p: reduce_pair(rd, swap.get(p.fingerprint(), p))
        )
        rep = ex.reduction_bijection_check(rd)
        monkeypatch.setattr(ex, "reduce_pair", reduce_pair)
        assert rep["bijective"] and not rep["pass"]
        assert _failed_checks(rep) == {"order"}
        checked += 1
    assert checked > 10


def test_reduction_report_fails_on_a_hidden_ambient_node(monkeypatch):
    # one node over U and its edges left out of a walk reported complete:
    # the images of the others are not closed under mutation, at every
    # rigid subpair of cyc3 and every node over it
    alg = _cycle3(QQ)
    graph = ex.build_exchange_graph(alg)
    nodes, edges, _ = to.silting_closure(alg)
    checked = 0
    for u in ex.rigid_subpairs(graph, alg.n):
        rd = ex.tau_reduction(u)
        for hide in [fp for fp, p in nodes.items() if to.contains_pair(p, u)]:
            kept = {fp: p for fp, p in nodes.items() if fp != hide}
            walk = (kept, [e for e in edges if hide not in e[:2]], True)
            monkeypatch.setattr(to, "silting_closure", lambda algebra, budget=10000: walk)
            rep = ex.reduction_bijection_check(rd)
            monkeypatch.undo()
            assert not rep["pass"] and not rep["bijective"]
            if rep["ambient_count"]:
                assert rep["reduced_count"] is None
                assert _failed_checks(rep) == {"closure"}
            else:
                assert rep["failures"] == [{"check": "empty"}]
            checked += 1
    assert checked > 98


@pytest.mark.parametrize("make", [_linear_a3, _cycle3])
def test_reduction_report_fails_on_merged_images(make, monkeypatch):
    # two pairs over U sent to one image: not injective
    alg = make(QQ)
    graph = ex.build_exchange_graph(alg)
    reduce_pair = ex.reduce_pair
    checked = 0
    for u in ex.rigid_subpairs(graph, alg.n - 1):
        rd = ex.tau_reduction(u)
        a, b = [p for p in graph.node_list() if to.contains_pair(p, u)][:2]
        monkeypatch.setattr(
            ex, "reduce_pair", lambda rd, p: reduce_pair(rd, a if p is b else p)
        )
        rep = ex.reduction_bijection_check(rd)
        monkeypatch.setattr(ex, "reduce_pair", reduce_pair)
        assert not rep["bijective"] and not rep["pass"]
        assert {"check": "injective", "pairs": rep["ambient_count"],
                "images": rep["ambient_count"] - 1} in rep["failures"]
        checked += 1
    assert checked > 10


@pytest.mark.parametrize("fault", ["dropped", "skipping"])
def test_reduction_report_fails_on_a_wrong_walked_edge(fault, monkeypatch):
    # at the empty pair of cyc3, the first walked edge s -> t left out, or
    # replaced by s -> t' for a t' below t.  The images stay closed; a
    # dropped cover leaves an exchange of the reduced algebra that no
    # cover over U maps to, and s, t' map to comparable pairs two
    # exchanges apart
    alg = _cycle3(QQ)
    rd = ex.tau_reduction(md.TauPair(md.zero_rep(alg), md.zero_rep(alg)))
    nodes, edges, _ = to.silting_closure(alg)
    s, t, slot = edges[0]
    below = next(e[1] for e in edges if e[0] == t)
    walked = edges[1:] if fault == "dropped" else [(s, below, slot)] + edges[1:]
    monkeypatch.setattr(
        to, "silting_closure", lambda algebra, budget=10000: (nodes, walked, True)
    )
    rep = ex.reduction_bijection_check(rd)
    assert rep["bijective"] and not rep["pass"] and not rep["order_preserved"]
    want = {"check": "covers", "edges": 20, "rests": 21}
    if fault == "skipping":
        names = md.describe_pair(nodes[below]), md.describe_pair(nodes[s])
        want = {"check": "order", "left": names[0], "right": names[1]}
    assert rep["failures"] == [want]


def test_reduction_report_fails_on_an_extra_preimage(monkeypatch):
    # a pair that does not hold U let into the interval and sent to an
    # image already hit: the images stay closed, but the map is not
    # injective
    alg = _cycle3(QQ)
    graph = ex.build_exchange_graph(alg)
    u = pair(alg, [P(alg, 0)])
    rd = ex.tau_reduction(u)
    over = [p for p in graph.node_list() if to.contains_pair(p, u)]
    extra = next(p for p in graph.node_list() if not to.contains_pair(p, u))
    contains_pair, reduce_pair = to.contains_pair, ex.reduce_pair
    monkeypatch.setattr(
        to, "contains_pair", lambda big, small: big is extra or contains_pair(big, small)
    )
    monkeypatch.setattr(
        ex, "reduce_pair", lambda rd, p: reduce_pair(rd, over[0] if p is extra else p)
    )
    rep = ex.reduction_bijection_check(rd)
    assert rep["ambient_count"] == len(over) + 1 and rep["reduced_count"] == len(over)
    assert not rep["bijective"] and not rep["pass"]
    assert "closure" not in _failed_checks(rep)
    assert {"check": "injective", "pairs": len(over) + 1, "images": len(over)} in rep["failures"]


@pytest.mark.parametrize("make", [_linear_a3, _cycle3])
@pytest.mark.parametrize("fault", ["swap", "merge"])
def test_dagger_report_fails_on_wrong_dual_images(make, fault, monkeypatch):
    # swapping the duals of two nodes keeps the image set but breaks the
    # involution; sending two nodes to one dual loses a node of the
    # opposite graph
    alg = make(QQ)
    graph = ex.build_exchange_graph(alg)
    ex.build_exchange_graph(alg.opposite())
    assert ex.verify_dagger(alg)["pass"]
    dagger_pair = to.dagger_pair
    a, b = graph.node_list()[:2]
    images = {a.fingerprint(): b, b.fingerprint(): b if fault == "merge" else a}

    def wrong(pair):
        if pair.algebra is alg:
            pair = images.get(pair.fingerprint(), pair)
        return dagger_pair(pair)

    monkeypatch.setattr(to, "dagger_pair", wrong)
    rep = ex.verify_dagger(alg)
    assert not rep["pass"]
    checks = _failed_checks(rep)
    if fault == "swap":
        assert "involution" in checks and "node-bijection" not in checks
    else:
        assert "node-bijection" in checks
    assert checks <= {"involution", "node-bijection", "edge-reversal", "order-reversal"}


def _graph_with(graph, nodes, edges):
    return ex.ExchangeGraph(graph.algebra, nodes, edges, graph.budget, graph.complete)


@pytest.mark.parametrize("make", [_linear_a3, _cycle3])
def test_exchange_report_fails_on_a_lost_node(make, monkeypatch):
    # without one inner node, the almost complete pairs under it have one
    # completion left, and the graph loses its shape around it
    alg = make(QQ)
    graph = ex.build_exchange_graph(alg)
    gone = graph.node_list()[1].fingerprint()
    nodes = {fp: p for fp, p in graph.nodes.items() if fp != gone}
    edges = [e for e in graph.edges if gone not in e[:2]]
    monkeypatch.setattr(
        ex, "build_exchange_graph", lambda a, budget: _graph_with(graph, nodes, edges)
    )
    rep = ex.verify_exchange(alg)
    assert not rep["pass"]
    assert "two-completions" in _failed_checks(rep)
    assert _failed_checks(rep) <= {"degree", "unique-source", "unique-sink", "two-completions"}


@pytest.mark.parametrize("make", [_linear_a3, _cycle3])
def test_exchange_report_fails_on_a_repeated_summand(make, monkeypatch):
    # a node whose first summand takes the place of its second has two
    # equal g-vectors, so its g-matrix is singular
    alg = make(QQ)
    graph = ex.build_exchange_graph(alg)
    fp, node = next(iter(graph.nodes.items()))
    rows = list(node.rows)
    nodes = dict(graph.nodes)
    nodes[fp] = md.carried_pair(alg, [rows[0], rows[0]] + rows[2:])
    monkeypatch.setattr(
        ex, "build_exchange_graph", lambda a, budget: _graph_with(graph, nodes, graph.edges)
    )
    rep = ex.verify_exchange(alg)
    assert not rep["pass"]
    assert "unimodular" in _failed_checks(rep)
    assert _failed_checks(rep) <= {"unimodular", "two-completions"}


@pytest.mark.parametrize("make", [_linear_a3, _cycle3])
def test_order_criteria_report_fails_on_a_wrong_window(make, monkeypatch):
    # a window test that always holds disagrees with the other three
    # criteria exactly where the window does not hold
    alg = make(QQ)
    graph = ex.build_exchange_graph(alg)
    outside = sum(
        not to.left_precondition(u, node)
        for u in ex.rigid_subpairs(graph, alg.n)
        for node in graph.node_list()
    )
    monkeypatch.setattr(to, "left_precondition", lambda u, node: True)
    rep = ex.verify_order_criteria(alg)
    assert _failed_checks(rep) == {"criteria"}
    assert len(rep["failures"]) == outside > 0
    assert all(f["flags"][:3] == [False] * 3 for f in rep["failures"])


@pytest.mark.parametrize(
    "make, count",
    [(lambda: linear(4, QQ), 155), (lambda: cycle(4, QQ), 127)],
    ids=["A4", "cyc4"],
)
def test_theorems_hold_on_every_proper_rigid_pair(make, count):
    # the compat, route and reduction suites on every rigid pair with at
    # most n - 1 summands, not only on the one-summand pairs of the CLI
    alg = make()
    graph = ex.build_exchange_graph(alg)
    subpairs = ex.rigid_subpairs(graph, alg.n - 1)
    assert len(subpairs) == count
    for u in subpairs:
        reports = [
            ex.verify_mutation_compat(u, graph),
            ex.verify_route(u, graph),
            ex.reduction_bijection_check(ex.tau_reduction(u)),
        ]
        for rep in reports:
            assert rep["pass"], (md.describe_pair(u), rep["failures"])


# -- the g-vector fan ------------------------------------------------------------


def _det(rows):
    # Laplace expansion along the first row, in integers; the walk's
    # certificate uses linalg.int_det, so the oracle does not
    if not rows:
        return 1
    return sum(
        (-1) ** k * a * _det([row[:k] + row[k + 1 :] for row in rows[1:]])
        for k, a in enumerate(rows[0])
        if a
    )


def _fan_failures(g_matrices, n):
    # the checks of the g-vector fan (Demonet-Iyama-Jasso, arXiv:1503.00285;
    # Asai, arXiv:1905.01148) that the nodes' g-matrices fail: (a) each is
    # unimodular; (b) each wall, the n - 1 g-vectors of a node left when
    # one is dropped, lies in exactly two nodes; (c) the two g-vectors
    # completing a wall lie on opposite sides of it; (d) theta = (1, ..., 1)
    # lies in the closed cone of the free pair and of no other node.
    # (b)-(d) make every generic theta lie in exactly one cone, so the fan
    # is complete and its cones have disjoint interiors
    failures = set()
    walls = {}
    for gs in g_matrices:
        if abs(_det(gs)) != 1:
            failures.add("unimodular")
        for k, g in enumerate(gs):
            walls.setdefault(tuple(sorted(gs[:k] + gs[k + 1 :])), []).append(g)
    for wall, ends in walls.items():
        if len(ends) != 2:
            failures.add("wall")
        elif _det(list(wall) + [ends[0]]) * _det(list(wall) + [ends[1]]) != -1:
            failures.add("sides")
    theta = (1,) * n
    holders = []
    for gs in g_matrices:
        # by Cramer's rule theta = sum c_k g_k with c_k = det(gs, g_k -> theta) / det(gs)
        d = _det(gs)
        if all(d * _det(gs[:k] + [theta] + gs[k + 1 :]) >= 0 for k in range(n)):
            holders.append(sorted(gs))
    free = sorted(tuple(int(w == v) for w in range(n)) for v in range(n))
    if holders != [free]:
        failures.add("theta")
    return failures


FAN = {
    "A3": lambda pre: linear(3, QQ),
    "A4": lambda pre: linear(4, QQ),
    "cyc4": lambda pre: cycle(4, QQ),
    "PiA3": lambda pre: pre(3),
    "cyc3/F3": lambda pre: cycle(3, Field(3)),
}


@pytest.mark.parametrize("name", sorted(FAN))
def test_g_vectors_of_the_nodes_form_a_complete_fan(name, preprojective):
    # read off the tokens the walked nodes carry, in exact integers with
    # no sampling; dropping any one node, or negating any one g-vector of
    # one node, breaks the fan
    alg = FAN[name](preprojective)
    graph = ex.build_exchange_graph(alg)
    g_matrices = [[token[1] for token in node.tokens] for node in graph.node_list()]
    assert len(g_matrices) == len(graph.nodes) > alg.n
    assert not _fan_failures(g_matrices, alg.n)
    for k in range(len(g_matrices)):
        assert "wall" in _fan_failures(g_matrices[:k] + g_matrices[k + 1 :], alg.n)
    for k, g in enumerate(g_matrices[1]):
        negated = g_matrices[1][:k] + [tuple(-c for c in g)] + g_matrices[1][k + 1 :]
        failed = _fan_failures([g_matrices[0], negated] + g_matrices[2:], alg.n)
        assert {"wall", "sides"} <= failed
