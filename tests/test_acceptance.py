"""Acceptance gate: one criterion per test, one PASS/FAIL line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.  The
torsion-class counts used as the graph oracle are recomputed here from
scratch (double-perp closure over hand-listed indecomposables) so the
exchange graph is checked against something that shares no code with it.
"""

import random
import time

import pytest

from tautilt import explorer as ex
from tautilt import linalg
from tautilt import modules as md
from tautilt import tauops as to
from tautilt import twoterm as tt
from tautilt.algebra import Quiver, compile_bound_quiver, is_isomorphic_algebra
from tautilt.linalg import QQ

from conftest import whole_complex


def _report(num, label, body):
    try:
        body()
    except BaseException:
        print(f"[FAIL] criterion {num}: {label}")
        raise
    print(f"[PASS] criterion {num}: {label}")


def P(alg, i):
    return md.projective(alg, i)


def S(alg, i):
    return md.simple(alg, i)


def fac(gens, xs):
    # md.fac_contains with the key set of the gens built here
    return md.fac_contains(gens, frozenset(g.key() for g in gens), xs)


def pair(alg, ms, ps=()):
    return md.pair_from_summands(alg, list(ms), list(ps))


def green_chain_desc(cyc3):
    """The worked five-pair chain, largest torsion class first."""
    return [
        to.free_pair(cyc3),
        pair(cyc3, [S(cyc3, 2), P(cyc3, 1), P(cyc3, 2)]),
        pair(cyc3, [S(cyc3, 2), P(cyc3, 2)], [P(cyc3, 1)]),
        pair(cyc3, [S(cyc3, 2)], [P(cyc3, 1), P(cyc3, 0)]),
        to.shifted_pair(cyc3),
    ]


@pytest.fixture(scope="module")
def graphs(a2, a3, cyc3):
    return {
        "a2": ex.build_exchange_graph(a2),
        "a3": ex.build_exchange_graph(a3),
        "cyc3": ex.build_exchange_graph(cyc3),
    }


# -- criterion 1: the worked example end to end ------------------------------


def test_criterion_1(cyc3):
    start = time.monotonic()

    def body():
        # (a) the algebra itself
        assert cyc3.dim == 6 and cyc3.n == 3

        # (b) the displayed chain arises from four left mutations
        chain = green_chain_desc(cyc3)
        cur = chain[0]
        for expected in chain[1:]:
            hits = []
            for slot in range(len(to.pair_summand_list(cur))):
                nxt, direction = to.mutate_pair(cur, slot)
                if direction == "left" and nxt.fingerprint() == expected.fingerprint():
                    hits.append(slot)
            assert hits, f"no left mutation reaches {md.describe_pair(expected)}"
            cur = expected

        # (c) relative left completion along the chain, exactly as displayed
        relu = md.TauPair(P(cyc3, 0), md.zero_rep(cyc3))
        want = [
            to.free_pair(cyc3),
            to.free_pair(cyc3),
            pair(cyc3, [P(cyc3, 0), S(cyc3, 0), P(cyc3, 2)]),
            pair(cyc3, [P(cyc3, 0), S(cyc3, 0), P(cyc3, 2)]),
            pair(cyc3, [P(cyc3, 0), S(cyc3, 0)], [P(cyc3, 2)]),
        ]
        got = [to.left_bongartz(relu, node) for node in chain]
        assert [p.fingerprint() for p in got] == [p.fingerprint() for p in want]

        # (d) the reduced algebra is the dim-3 path algebra of one arrow
        rd = ex.tau_reduction(relu)
        assert rd.quotient.dim == 3
        model = compile_bound_quiver(
            Quiver(["x", "y"], [("a", "x", "y")]), [], QQ
        )
        assert is_isomorphic_algebra(rd.quotient, model)

        # (e) the transported green sequence has exactly two steps
        out = ex.transport_mgs(rd, list(reversed(chain)))
        assert len(out) == 3
        assert out[0].m.is_zero()
        assert out[-1].fingerprint() == to.free_pair(rd.quotient).fingerprint()

        assert time.monotonic() - start < 10.0

    _report(1, "worked example end to end", body)


# -- criterion 2: graph counts against a from-scratch torsion count ----------


def _torsion_class_count(indecs):
    """Number of subsets of indecomposables fixed by S -> perp(S-perp).

    Fixed points of the double perp are exactly the torsion classes, and
    only Hom vanishing is used, nothing from the graph machinery.
    """
    n = len(indecs)
    hom = [[md.dim_hom(x, y) > 0 for y in indecs] for x in indecs]
    seen = set()
    for mask in range(1 << n):
        members = [i for i in range(n) if mask >> i & 1]
        perp = [j for j in range(n) if not any(hom[i][j] for i in members)]
        closure = frozenset(
            i for i in range(n) if not any(hom[i][j] for j in perp)
        )
        seen.add(closure)
    return seen


def _indec_lists(a2, a3, cyc3):
    m12 = None
    for k in a3.radical_indices():
        if a3.names[k] == "a":
            m12 = md.Representation(a3, (1, 1, 0), {k: [[QQ.one]]})
    return {
        "a2": [P(a2, 0), P(a2, 1), S(a2, 0)],
        "a3": [P(a3, 0), P(a3, 1), P(a3, 2), S(a3, 0), S(a3, 1), m12],
        "cyc3": [P(cyc3, i) for i in range(3)] + [S(cyc3, i) for i in range(3)],
    }


def test_criterion_2(a2, a3, cyc3, graphs):
    start = time.monotonic()

    def body():
        indecs = _indec_lists(a2, a3, cyc3)
        for name, want_nodes in (("a2", 5), ("a3", 14), ("cyc3", 14)):
            g = graphs[name]
            classes = _torsion_class_count(indecs[name])
            assert g.complete
            assert len(g) == want_nodes
            assert len(classes) == want_nodes
            # each node's Fac cuts out a distinct torsion class
            fac_sets = set()
            for node in g.nodes.values():
                fac_sets.add(
                    frozenset(
                        i
                        for i, x in enumerate(indecs[name])
                        if fac([node.m], [x])
                    )
                )
            assert fac_sets == classes

        # the pentagon: five nodes in one undirected cycle
        g2 = graphs["a2"]
        deg = {fp: 0 for fp in g2.nodes}
        for s, t, _ in g2.edges:
            deg[s] += 1
            deg[t] += 1
        assert sorted(deg.values()) == [2] * 5

        # the worked chain is a directed path in the 3-cycle graph
        chain = green_chain_desc(cyc3)
        edge_set = graphs["cyc3"].edge_set()
        for big, small in zip(chain, chain[1:]):
            assert (big.fingerprint(), small.fingerprint()) in edge_set

        assert time.monotonic() - start < 30.0

    _report(2, "exchange graph counts match the brute-force torsion count", body)


# -- criteria 3-5: edge compatibility sweeps ---------------------------------


def _sweep(graphs, algebra_name, fn):
    g = graphs[algebra_name]
    return [fn(rel, g) for rel in ex.rigid_subpairs(g, g.algebra.n)]


def test_criterion_3(graphs):
    start = time.monotonic()

    def body():
        checked = 0
        for name in ("a2", "a3", "cyc3"):
            for rep in _sweep(graphs, name, ex.verify_mutation_compat):
                assert rep["pass"], rep["failures"]
                checked += rep["edges_checked"]
        assert checked > 0
        assert time.monotonic() - start < 300.0

    _report(3, "identity-vs-mutation dichotomy along every windowed edge", body)


def test_criterion_4(graphs):
    start = time.monotonic()

    def body():
        for name in ("a2", "a3", "cyc3"):
            for rep in _sweep(graphs, name, ex.verify_route):
                assert rep["pass"], rep["failures"]
        assert time.monotonic() - start < 300.0

    _report(4, "silting route and torsion route give the same completion", body)


def test_criterion_5(graphs):
    start = time.monotonic()

    def body():
        steps = 0
        for name in ("a2", "a3", "cyc3"):
            for rep in _sweep(graphs, name, ex.verify_silting_compat):
                assert rep["pass"], rep["failures"]
                steps += rep["identity_steps"] + rep["mutation_steps"]
        assert steps > 0
        assert time.monotonic() - start < 300.0

    _report(5, "silting-side dichotomy with the n-1 common summand bound", body)


# -- criterion 6: dagger duality ---------------------------------------------


def test_criterion_6(a2, a3, cyc3):
    def body():
        for alg in (a2, a3, cyc3):
            rep = ex.verify_dagger(alg)
            assert rep["pass"], rep["failures"]

    _report(6, "dagger is an involution and reverses the exchange graph", body)


# -- criterion 7: reduction bijection ----------------------------------------


def test_criterion_7(cyc3, graphs):
    start = time.monotonic()

    def body():
        combos = ex.rigid_subpairs(graphs["cyc3"], 2)
        assert len(combos) > 10
        for u in combos:
            rd = ex.tau_reduction(u)
            rep = ex.reduction_bijection_check(rd)
            assert rep["pass"], (md.describe_pair(u), rep["failures"])
            assert rep["ambient_count"] == rep["reduced_count"]
        assert time.monotonic() - start < 300.0

    _report(7, "reduction bijection for small rigid pairs on the 3-cycle", body)


# -- criterion 8: structural invariants --------------------------------------


def test_criterion_8(a2, a3, cyc3, graphs):
    def body():
        for name, alg in (("a2", a2), ("a3", a3), ("cyc3", cyc3)):
            g = graphs[name]
            nodes = list(g.nodes.values())
            complexes = [whole_complex(p) for p in nodes]

            # higher-shift Homs vanish on 200 seeded random draws
            rng = random.Random(0)
            rigid = ex.rigid_subpairs(g, alg.n)
            rigid_cx = [whole_complex(p) for p in rigid]
            for _ in range(200):
                u = rng.choice(rigid_cx)
                t = rng.choice(complexes)
                for shift in (2, 3):
                    assert tt.hom_k(u, t, shift) == 0
                    assert tt.hom_k(t, u, shift) == 0

            # unimodular g-matrix on every node
            for c in complexes:
                mat = [list(token[1]) for token in tt.to_tau_pair(c).fingerprint()]
                det = linalg.det([[QQ(x) for x in row] for row in mat], QQ)
                assert det in (QQ(1), QQ(-1))

            # almost-pair two-completion property via the exchange suite
            rep = ex.verify_exchange(alg)
            assert rep["pass"], rep["failures"]

    _report(8, "higher Homs vanish, g-matrices unimodular, pairs exchange in twos", body)


# -- criterion 9: order criteria agree ----------------------------------------


def test_criterion_9(a2, a3, cyc3):
    def body():
        for alg in (a2, a3, cyc3):
            rep = ex.verify_order_criteria(alg)
            assert rep["pass"], rep["failures"]

    _report(9, "all order criteria agree on every presilting against silting", body)
