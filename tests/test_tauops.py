"""Pair-level operations: mutation, duality, completions, brick labels."""

import itertools
import math
import sys
from collections import Counter, deque
from fractions import Fraction

import pytest

from tautilt import explorer as ex
from tautilt import linalg
from tautilt import modules as md
from tautilt import tauops as to
from tautilt import twoterm as tt
from tautilt import workspace as wk
from tautilt.algebra import Quiver, Relation, compile_bound_quiver
from tautilt.errors import (
    CertificateFailure,
    MatchFailure,
    NotRigid,
    PreconditionViolated,
    SearchBudgetExceeded,
)
from tautilt.linalg import QQ, Field, rank

from conftest import cycle, hom_maps, image_rows, linear, preprojective_algebra, whole_complex


def P(alg, i):
    return md.projective(alg, i)


def S(alg, i):
    return md.simple(alg, i)


def fac(gens, xs):
    # md.fac_contains with the key set of the gens built here
    return md.fac_contains(gens, frozenset(g.key() for g in gens), xs)


def torsion_free(gen, x):
    # md.torsion_free_part with one gen and its key set built here
    return md.torsion_free_part([gen], frozenset([gen.key()]), x)


def pair(alg, m_parts, p_parts=()):
    return md.pair_from_summands(alg, list(m_parts), list(p_parts))


def a2_nodes(a2):
    return {
        "top": pair(a2, [P(a2, 0), P(a2, 1)]),
        "ps": pair(a2, [P(a2, 0), S(a2, 0)]),
        "s": pair(a2, [S(a2, 0)], [P(a2, 1)]),
        "p2": pair(a2, [P(a2, 1)], [P(a2, 0)]),
        "bot": pair(a2, [], [P(a2, 0), P(a2, 1)]),
    }


def cyc3_chain(cyc3):
    return [
        pair(cyc3, [P(cyc3, 0), P(cyc3, 1), P(cyc3, 2)]),
        pair(cyc3, [S(cyc3, 2), P(cyc3, 1), P(cyc3, 2)]),
        pair(cyc3, [S(cyc3, 2), P(cyc3, 2)], [P(cyc3, 1)]),
        pair(cyc3, [S(cyc3, 2)], [P(cyc3, 1), P(cyc3, 0)]),
        pair(cyc3, [], [P(cyc3, 0), P(cyc3, 1), P(cyc3, 2)]),
    ]


# ---------------------------------------------------------------------------
# order and containment


def test_pair_order(a2):
    nodes = a2_nodes(a2)
    assert to.pair_leq(nodes["ps"], nodes["top"])
    assert not to.pair_leq(nodes["top"], nodes["ps"])
    # the two middle branches are incomparable
    assert not to.pair_leq(nodes["p2"], nodes["ps"])
    assert not to.pair_leq(nodes["ps"], nodes["p2"])
    assert to.pair_leq(nodes["bot"], nodes["s"])


def test_contains_pair(a2):
    nodes = a2_nodes(a2)
    u = pair(a2, [P(a2, 0)])
    assert to.contains_pair(nodes["top"], u)
    assert to.contains_pair(nodes["ps"], u)
    assert not to.contains_pair(nodes["s"], u)
    q = pair(a2, [], [P(a2, 0)])
    assert to.contains_pair(nodes["bot"], q)
    assert to.contains_pair(nodes["p2"], q)
    assert not to.contains_pair(nodes["top"], q)


def test_containment_and_exchange_count_multiplicity(a2):
    # every pair of multisets of at most three rows among P1, S1 and P2[1],
    # against Counter inclusion and Counter difference of the tokens
    rows = [("m", P(a2, 0)), ("m", S(a2, 0)), ("p", P(a2, 1))]
    pairs = [
        pair(a2, [r for k, r in combo if k == "m"], [r for k, r in combo if k == "p"])
        for size in range(4)
        for combo in itertools.combinations_with_replacement(rows, size)
    ]
    assert len(pairs) == 20
    for big in pairs:
        for small in pairs:
            have, need = Counter(big.tokens), Counter(small.tokens)
            assert to.contains_pair(big, small) == (need <= have)
            gone, new = to.exchanged_summands(big, small)
            assert gone == sorted((have - need).elements())
            assert new == sorted((need - have).elements())


# ---------------------------------------------------------------------------
# duality


def test_dagger_involution(a2):
    for pr in a2_nodes(a2).values():
        back = to.dagger_pair(to.dagger_pair(pr))
        assert back.fingerprint() == pr.fingerprint()


def test_dagger_involution_cyc3(cyc3):
    for pr in cyc3_chain(cyc3):
        back = to.dagger_pair(to.dagger_pair(pr))
        assert back.fingerprint() == pr.fingerprint()


def test_dagger_images(a2):
    nodes = a2_nodes(a2)
    op = a2.opposite()
    want = {
        "top": pair(op, [], [P(op, 0), P(op, 1)]),
        "ps": pair(op, [S(op, 1)], [P(op, 0)]),
        "s": pair(op, [P(op, 1), S(op, 1)]),
        "p2": pair(op, [P(op, 0)], [P(op, 1)]),
        "bot": pair(op, [P(op, 0), P(op, 1)]),
    }
    for key, pr in nodes.items():
        assert to.dagger_pair(pr).fingerprint() == want[key].fingerprint()


def test_dagger_reverses_order(a2):
    nodes = a2_nodes(a2)
    assert to.pair_leq(nodes["s"], nodes["ps"])
    assert to.pair_leq(
        to.dagger_pair(nodes["ps"]), to.dagger_pair(nodes["s"])
    )


def test_dagger_preserves_tilting(cyc3):
    for pr in cyc3_chain(cyc3):
        info = md.check_pair(to.dagger_pair(pr))
        assert info["role"] == "tilting"


DUAL = {
    "A3": lambda: linear(3, QQ),
    "cyc3": lambda: cycle(3, QQ),
    "cyc4": lambda: cycle(4, QQ),
    "PiA3": lambda: preprojective_algebra(3),
    "cyc3/F3": lambda: cycle(3, Field(3)),
}


@pytest.mark.parametrize("name", sorted(DUAL))
def test_dagger_pair_matches_the_transpose(name):
    # modules.transpose as the reference: a nonprojective module row X
    # becomes the row of Tr X, and a module row P_v and a shift row P_v[1]
    # trade places; the rows follow the canonical order of the dual
    # complexes, the order of the dual's complex parts
    alg = DUAL[name]()
    op = alg.opposite()
    for node in ex.build_exchange_graph(alg).node_list():
        want = []
        for kind, rep, _ in sorted(
            node.rows, key=lambda row: tt._sort_key(tt.complex_dagger(row[2]))
        ):
            tr = md.transpose(rep)
            if kind == "m" and not tr.is_zero():
                want.append(("m", tr.key()))
            else:
                dual_kind = "m" if kind == "p" else "p"
                want.append((dual_kind, P(op, md._projective_vertex(rep)).key()))
        dual = to.dagger_pair(node)
        assert [(kind, rep.key()) for kind, rep, _ in dual.rows] == want
        assert to.dagger_pair(dual).fingerprint() == node.fingerprint()


def test_dagger_of_the_empty_pair_is_the_empty_pair(a2):
    empty = md.carried_pair(a2, [])
    dual = to.dagger_pair(empty)
    assert dual.algebra is a2.opposite()
    assert dual.rows == ()
    assert to.dagger_pair(dual) is empty


# ---------------------------------------------------------------------------
# mutation


def test_summand_slots_follow_g_vectors(a2):
    free = to.free_pair(a2)
    rows = to.pair_summand_list(free)
    assert [to.summand_g_vector(k, r) for k, r in rows] == [(0, 1), (1, 0)]
    bot = to.shifted_pair(a2)
    rows = to.pair_summand_list(bot)
    assert [to.summand_g_vector(k, r) for k, r in rows] == [(-1, 0), (0, -1)]


def test_mutations_of_extremes(a2):
    # slot order is by g-vector: the free pair lists P2 (0,1) before P1 (1,0)
    nodes = a2_nodes(a2)
    free = to.free_pair(a2)
    out0, d0 = to.mutate_pair(free, 0)
    out1, d1 = to.mutate_pair(free, 1)
    assert (out0.fingerprint(), d0) == (nodes["ps"].fingerprint(), "left")
    assert (out1.fingerprint(), d1) == (nodes["p2"].fingerprint(), "left")
    bot = to.shifted_pair(a2)
    out0, d0 = to.mutate_pair(bot, 0)
    out1, d1 = to.mutate_pair(bot, 1)
    assert (out0.fingerprint(), d0) == (nodes["s"].fingerprint(), "right")
    assert (out1.fingerprint(), d1) == (nodes["p2"].fingerprint(), "right")


def test_mutation_hits_the_other_completion(a2):
    # removing one summand leaves an almost complete pair with exactly one
    # other completion; mutating twice returns to the start
    for pr in a2_nodes(a2).values():
        rows = to.pair_summand_list(pr)
        for idx in range(len(rows)):
            out, _ = to.mutate_pair(pr, idx)
            assert out.fingerprint() != pr.fingerprint()
            kind, rep = rows[idx]
            # the shared part stays
            shared = [r for i, r in enumerate(rows) if i != idx]
            small = pair(
                a2,
                [r for k, r in shared if k == "m"],
                [r for k, r in shared if k == "p"],
            )
            assert to.contains_pair(out, small)
            back_idx = [
                i
                for i, (k2, r2) in enumerate(to.pair_summand_list(out))
                if not any(
                    k2 == k3 and md.is_isomorphic(r2, r3) for k3, r3 in shared
                )
            ]
            assert len(back_idx) == 1
            back, _ = to.mutate_pair(out, back_idx[0])
            assert back.fingerprint() == pr.fingerprint()


def test_mutate_rejects_partial_pair(a2):
    with pytest.raises(PreconditionViolated):
        to.mutate_pair(pair(a2, [P(a2, 0)]), 0)


def test_mutation_direction_matches_order(cyc3):
    chain = cyc3_chain(cyc3)
    free = chain[0]
    for idx in range(3):
        out, direction = to.mutate_pair(free, idx)
        assert direction == "left"
        assert to.pair_leq(out, free)
    # removing P1 (g-slot 2) lands on the second pair of the chain
    out, _ = to.mutate_pair(free, 2)
    assert out.fingerprint() == chain[1].fingerprint()


# ---------------------------------------------------------------------------
# the completion fan


def test_all_pairs_counts(a2, a3, cyc3):
    assert len(to.all_pairs(a2)) == 5
    assert len(to.all_pairs(a3)) == 14
    assert len(to.all_pairs(cyc3)) == 14


def test_all_pairs_are_tilting(a2):
    for pr in to.all_pairs(a2):
        assert md.check_pair(pr)["role"] == "tilting"


# ---------------------------------------------------------------------------
# left Bongartz completions


def test_left_bongartz_chain_cyc3(cyc3):
    chain = cyc3_chain(cyc3)
    u = pair(cyc3, [P(cyc3, 0)])
    want = [
        pair(cyc3, [P(cyc3, 0), P(cyc3, 1), P(cyc3, 2)]),
        pair(cyc3, [P(cyc3, 0), P(cyc3, 1), P(cyc3, 2)]),
        pair(cyc3, [P(cyc3, 0), P(cyc3, 2), S(cyc3, 0)]),
        pair(cyc3, [P(cyc3, 0), P(cyc3, 2), S(cyc3, 0)]),
        pair(cyc3, [P(cyc3, 0), S(cyc3, 0)], [P(cyc3, 2)]),
    ]
    for node, expect in zip(chain, want):
        out = to.left_bongartz(u, node)
        assert out.fingerprint() == expect.fingerprint()


def test_left_bongartz_absolute_default(a2):
    # the default anchor is (0, A); the result generates exactly Fac U
    nodes = a2_nodes(a2)
    u = pair(a2, [P(a2, 0)])
    out = to.left_bongartz(u)
    assert out.fingerprint() == nodes["ps"].fingerprint()
    explicit = to.left_bongartz(u, to.shifted_pair(a2))
    assert explicit.fingerprint() == out.fingerprint()


def test_left_bongartz_rejects_anchor_outside_window(a2):
    # tau S1 = S2 is nonzero, so the window fails against the top
    nodes = a2_nodes(a2)
    u = pair(a2, [S(a2, 0)])
    assert not to.left_precondition(u, nodes["top"])
    with pytest.raises(PreconditionViolated):
        to.left_bongartz(u, nodes["top"])


def test_left_bongartz_minimal_values(a2):
    nodes = a2_nodes(a2)
    u = pair(a2, [S(a2, 0)])
    assert to.left_bongartz(u).fingerprint() == nodes["s"].fingerprint()
    # anchors containing the input reproduce themselves
    assert (
        to.left_bongartz(u, nodes["s"]).fingerprint()
        == nodes["s"].fingerprint()
    )


def test_fan_completion_route(a2):
    # the fan route covers anchors outside the window and agrees with the
    # cone route inside it
    nodes = a2_nodes(a2)
    u = pair(a2, [S(a2, 0)])
    assert (
        to.fan_left_completion(u, nodes["top"]).fingerprint()
        == nodes["ps"].fingerprint()
    )
    assert (
        to.fan_left_completion(u, nodes["p2"]).fingerprint()
        == nodes["s"].fingerprint()
    )
    assert (
        to.fan_left_completion(u).fingerprint()
        == to.left_bongartz(u).fingerprint()
    )


def test_classic_bongartz_extension(a3):
    # the universal extension 0 -> P3 -> P2 -> S2 -> 0 appears in the
    # classical (maximal) completion of S2
    u = pair(a3, [S(a3, 1)])
    out = to.right_bongartz(u)
    want = pair(a3, [P(a3, 0), P(a3, 1), S(a3, 1)])
    assert out.fingerprint() == want.fingerprint()
    assert (
        to.fan_left_completion(u, to.free_pair(a3)).fingerprint()
        == want.fingerprint()
    )


def test_fan_completion_of_shift_summand(a2):
    # completing (0, P1) relative to the top keeps everything away from
    # vertex 1; the fan search handles the projective shift part
    nodes = a2_nodes(a2)
    u = pair(a2, [], [P(a2, 0)])
    out = to.fan_left_completion(u, nodes["top"])
    assert out.fingerprint() == nodes["p2"].fingerprint()
    assert to.left_bongartz(u).fingerprint() == nodes["bot"].fingerprint()


def test_left_bongartz_validates_input(a2):
    bad = pair(a2, [S(a2, 0), S(a2, 1)])
    with pytest.raises(NotRigid):
        to.left_bongartz(bad)
    with pytest.raises(PreconditionViolated):
        to.left_bongartz(pair(a2, [P(a2, 0)]), pair(a2, [P(a2, 0)]))


# ---------------------------------------------------------------------------
# right Bongartz completions


def test_right_bongartz_values(a2):
    nodes = a2_nodes(a2)
    u = pair(a2, [P(a2, 0)])
    # default anchor (A, 0): the classical Bongartz completion
    assert to.right_bongartz(u).fingerprint() == nodes["top"].fingerprint()
    assert (
        to.right_bongartz(u, nodes["top"]).fingerprint()
        == nodes["top"].fingerprint()
    )
    # the dual window fails against anchors whose dual torsion class sees U
    with pytest.raises(PreconditionViolated):
        to.right_bongartz(u, to.shifted_pair(a2))


def test_right_bongartz_of_simple(a2):
    nodes = a2_nodes(a2)
    u = pair(a2, [S(a2, 0)])
    assert to.right_bongartz(u).fingerprint() == nodes["ps"].fingerprint()


def test_right_bongartz_of_shift_summand(a2):
    # the maximal completion of (0, P2) supports S1 away from vertex 2
    nodes = a2_nodes(a2)
    u = pair(a2, [], [P(a2, 1)])
    assert to.right_bongartz(u).fingerprint() == nodes["s"].fingerprint()
    assert (
        to.right_bongartz(u, to.shifted_pair(a2)).fingerprint()
        == to.shifted_pair(a2).fingerprint()
    )


def test_right_bongartz_classical_cyc3(cyc3):
    # classical completion of a projective is the free pair
    u = pair(cyc3, [P(cyc3, 0)])
    assert (
        to.right_bongartz(u).fingerprint()
        == to.free_pair(cyc3).fingerprint()
    )


def test_left_and_right_agree_on_completions(a2):
    # when the input is already a full pair both completions return it
    for pr in a2_nodes(a2).values():
        if pr.m.is_zero():
            continue
        assert to.left_bongartz(pr, pr).fingerprint() == pr.fingerprint()
        assert to.right_bongartz(pr, pr).fingerprint() == pr.fingerprint()


def _contains_by_isomorphism(big, small):
    # reference for contains_pair: match summands up to isomorphism
    have = [("m", r) for r, mult in big.m_summands() for _ in range(mult)]
    have += [("p", r) for r, mult in big.p_summands() for _ in range(mult)]
    for kind, rep in to.pair_summand_list(small):
        hits = [k for k, (k2, r2) in enumerate(have) if k2 == kind and md.is_isomorphic(r2, rep)]
        if not hits:
            return False
        have.pop(hits[0])
    return True


def test_carried_completion_matches_searched_and_fan(a3, cyc3):
    # left_bongartz completes from the pairs' carried summands; the same
    # completion from freshly searched complexes and the fan search must
    # agree at every window node of every rigid subpair, the empty one too
    for alg in (a3, cyc3, cycle(3, Field(3))):
        graph = ex.build_exchange_graph(alg)
        subs = ex.rigid_subpairs(graph, alg.n - 1)
        assert subs[0].m.is_zero() and subs[0].p.is_zero()
        checked = 0
        for u in subs:
            for node in graph.node_list():
                assert to.contains_pair(node, u) == _contains_by_isomorphism(node, u)
                if not to.left_precondition(u, node):
                    continue
                carried = to.left_bongartz(u, node).fingerprint()
                searched = tt.left_completion_silting(whole_complex(u), whole_complex(node))
                assert tt.to_tau_pair(searched).fingerprint() == carried
                assert to.fan_left_completion(u, node).fingerprint() == carried
                checked += 1
        assert checked > len(subs)


def _block_product(alg, a, b, cols):
    # the element matrix a times b, for b with cols columns
    zero = alg.zero_element()
    return [[sum((row[l] * b[l][k] for l in range(len(b))), zero) for k in range(cols)] for row in a]


def _coordinates(alg, blocks, layout):
    # the coordinates of per-degree blocks on a _block_layout
    vec = [alg.field.zero] * sum(len(qs) for *_, qs, _ in layout)
    for i, m, k, qs, off in layout:
        if i in blocks:
            for p, q in enumerate(qs):
                vec[off + p] = blocks[i][m][k].coeffs[q]
    return vec


def _decode(x, y, layout, vec):
    # the per-degree blocks of the map x -> y with coordinates vec on a
    # _block_layout, each entry a sum of scaled basis elements
    alg = x.algebra
    blocks = {}
    for i, m, k, qs, off in layout:
        if i not in blocks:
            blocks[i] = [[alg.zero_element() for _ in x.term_vertices(i)] for _ in y.term_vertices(i)]
        for p, q in enumerate(qs):
            blocks[i][m][k] = blocks[i][m][k] + alg.basis_element(q).scale(vec[off + p])
    return blocks


def _stack(x, pieces):
    # the maps x -> part of the pieces stacked into one map x -> (+) part,
    # zero rows for a piece with no block in a degree
    alg = x.algebra
    if not pieces:
        return tt.zero_complex(alg), {}
    blocks = {}
    for i in x.support():
        rows = []
        for part, f in pieces:
            zero_rows = [[alg.zero_element() for _ in x.term_vertices(i)] for _ in part.term_vertices(i)]
            rows += f.get(i, zero_rows)
        if rows:
            blocks[i] = rows
    return tt.direct_sum_complexes([part for part, _ in pieces]), blocks


def _restart_greedy(x, parts):
    # reference for min_left_approx: from the same candidates, drop the
    # first one whose removal leaves a left approximation, then start over;
    # it decodes, stacks and composes maps as AlgebraElement blocks of its own
    alg = x.algebra
    candidates = []
    for part in parts:
        reps, _, layout = tt._hom_rep_basis(x, part)
        candidates += [(part, _decode(x, part, layout, v)) for v in reps]

    def approximates(pieces):
        target, blocks = _stack(x, pieces)
        for part in parts:
            chains, boundaries, layout = tt.chain_hom_data(x, part, 0)
            if not chains:
                continue
            phis, _, phi_layout = tt.chain_hom_data(target, part, 0)
            comps = list(boundaries)
            for v in phis:
                phi = _decode(target, part, phi_layout, v)
                comp = {
                    i: _block_product(alg, phi[i], blocks[i], len(x.term_vertices(i)))
                    for i in phi
                    if i in blocks
                }
                comps.append(_coordinates(alg, comp, layout))
            if rank(comps, alg.field) < rank(boundaries + chains, alg.field):
                return False
        return True

    keep = candidates
    while True:
        for idx in range(len(keep)):
            trial = keep[:idx] + keep[idx + 1:]
            if approximates(trial):
                keep = trial
                break
        else:
            return _stack(x, keep)


def _hard_approximations():
    # inputs on which wrong variants of the one pass differ from the
    # restart loop; the A3, cyc3 and cyc3/F_3 sweeps have none.  First
    # the distinct ones of the Pi(A3) walk and left_bongartz sweep with two
    # candidates into one part (x = P2, whose endomorphisms modulo homotopy
    # are e_2 and b1*a1), then the two of that sweep whose drop needs the
    # null-homotopic maps, rebuilt instead of swept.
    alg = preprojective_algebra(3)

    def stalk(v):
        return tt.stalk_complex(alg, [v])

    def two_term(lower, upper, labels):
        diff = [[alg.path_element([lbl]) for lbl in row] for row in labels]
        return tt.ProjectiveComplex(alg, {-1: lower, 0: upper}, {-1: diff})

    x = stalk(1)
    out = [
        (x, [stalk(1)]),
        (x, [stalk(1), stalk(2)]),
        (x, [stalk(0), stalk(1)]),
        (x, [two_term([0], [1], [["b1"]]), stalk(1)]),
        (x, [two_term([2], [1], [["a2"]]), stalk(1)]),
        (two_term([0, 2], [1], [["b1", "a2"]]).shift(-1), [stalk(1), stalk(2)]),
        (x, [two_term([1], [0, 2], [["a1"], ["b2"]]), stalk(2)]),
    ]
    # Hom(P_a, P_b) has the basis p1*p2, q1*q2, and the one map P_a -> P_c
    # composes with s to their sum: dropping p1*p2 must keep q1*q2
    q = Quiver(
        ["a", "b", "c", "m", "n"],
        [("p1", "b", "m"), ("p2", "m", "a"), ("q1", "b", "n"), ("q2", "n", "a"),
         ("s", "b", "c"), ("r", "c", "a")],
    )
    rel = Relation(q, [(1, ("s", "r")), (-1, ("p1", "p2")), (-1, ("q1", "q2"))])
    sum_alg = compile_bound_quiver(q, [rel], QQ)
    p_a, p_b, p_c = (tt.stalk_complex(sum_alg, [v]) for v in range(3))
    return out + [(p_a, [p_c, p_b])]


def _coefficients(blocks):
    return {i: [[e.coeffs for e in row] for row in rows] for i, rows in blocks.items()}


def test_one_pass_approximation_matches_restart_greedy(monkeypatch):
    # every approximation made by the walks and the left_bongartz sweeps,
    # and the hard inputs above
    calls = []
    one_pass = tt.min_left_approx

    def recorded(x, parts):
        f = one_pass(x, parts)
        calls.append((x, parts, f))
        return f

    monkeypatch.setattr(tt, "min_left_approx", recorded)
    for alg in (linear(3, QQ), cycle(3, QQ), cycle(3, Field(3))):
        graph = ex.build_exchange_graph(alg)
        for u in ex.rigid_subpairs(graph, alg.n - 1):
            for node in graph.node_list():
                if to.left_precondition(u, node):
                    to.left_bongartz(u, node)
    assert len(calls) > 100
    for x, parts in _hard_approximations():
        tt.min_left_approx(x, parts)
    for x, parts, (target, blocks) in calls:
        ref_target, ref_blocks = _restart_greedy(x, parts)
        assert target.key() == ref_target.key()
        assert _coefficients(blocks) == _coefficients(ref_blocks)


# ---------------------------------------------------------------------------
# the exchange-graph walk

# freshly compiled algebras, so no earlier test has cached a walk on them
FRESH = {
    "A3": lambda: linear(3, QQ),
    "cyc3": lambda: cycle(3, QQ),
    "cyc4": lambda: cycle(4, QQ),
    "A3/F3": lambda: linear(3, Field(3)),
}


def _reference_walk(alg, budget):
    # breadth-first from the free pair without the exchange record: every
    # slot of every node is mutated by mutate_pair, under the same budget rule
    top = to.free_pair(alg)
    nodes = {top.fingerprint(): top}
    edges = []
    complete = True
    queue = deque([top])
    while queue:
        node = queue.popleft()
        for slot in range(len(to.pair_summand_list(node))):
            nb, direction = to.mutate_pair(node, slot)
            fp = nb.fingerprint()
            if fp not in nodes:
                if len(nodes) >= budget:
                    complete = False
                    continue
                nodes[fp] = nb
                queue.append(nb)
            if direction == "left":
                edges.append((node.fingerprint(), fp, slot))
    return list(nodes), edges, complete


@pytest.mark.parametrize("budget", [7, 20, 10000])
@pytest.mark.parametrize("name", sorted(FRESH))
def test_walk_matches_unmemoised_reference(name, budget):
    alg = FRESH[name]()
    nodes, edges, complete = to.silting_closure(alg, budget=budget)
    assert (list(nodes), edges, complete) == _reference_walk(alg, budget)


@pytest.mark.parametrize("name", ["A3", "cyc3", "cyc4"])
def test_walk_builds_each_edge_once(name, monkeypatch):
    # the other end of an exchange reads it from the walk's record
    alg = FRESH[name]()
    calls = []
    mutate_slot = to._mutate_slot

    def counted(*args):
        calls.append(args)
        return mutate_slot(*args)

    monkeypatch.setattr(to, "_mutate_slot", counted)
    graph = ex.build_exchange_graph(alg)
    assert graph.complete
    assert len(calls) == len(graph.edges)


def test_walk_rejects_a_third_completion(monkeypatch):
    # the first exchange from the free pair returns a wrong neighbour; the
    # true neighbour then finds its almost complete pair already completed
    # by two other pairs
    alg = FRESH["A3"]()
    mutate_slot = to._mutate_slot
    calls = []

    def wrong_first(*args):
        calls.append(args)
        if len(calls) == 1:
            return to.shifted_pair(alg), "left"
        return mutate_slot(*args)

    monkeypatch.setattr(to, "_mutate_slot", wrong_first)
    with pytest.raises(CertificateFailure, match="third completion"):
        to.silting_closure(alg)


# ---------------------------------------------------------------------------
# the walk carries summands and certifies only the new one

NO_SEARCH = {
    "A5": lambda: linear(5, QQ),
    "cyc5": lambda: cycle(5, QQ),
    "PiA3": lambda: preprojective_algebra(3),
}


def _count_searches(monkeypatch):
    # the names of the decomposition and isomorphism searches, one per call
    calls = []
    for fn in ("_decompose_raw", "_fitting_split", "is_isomorphic"):
        real = getattr(md, fn)

        def counted(*args, _real=real, _fn=fn, **kwargs):
            calls.append(_fn)
            return _real(*args, **kwargs)

        monkeypatch.setattr(md, fn, counted)
    return calls


@pytest.mark.parametrize("name", sorted(NO_SEARCH))
def test_walk_makes_no_decomposition_or_isomorphism_search(name, monkeypatch):
    alg = NO_SEARCH[name]()
    calls = _count_searches(monkeypatch)
    graph = ex.build_exchange_graph(alg)
    assert graph.complete and len(graph) == {"A5": 132, "cyc5": 82, "PiA3": 24}[name]
    assert calls == []


RIGHT_WORKSPACES = {
    "A3": "vertex 1 2 3\narrow a 1 2\narrow b 2 3\n",
    "cyc3": (
        "vertex 1 2 3\narrow a3 1 2\narrow a1 2 3\narrow a2 3 1\n"
        "relation a1*a2\nrelation a2*a3\nrelation a3*a1\n"
    ),
}


@pytest.mark.parametrize("name", sorted(RIGHT_WORKSPACES))
def test_right_bongartz_carries_the_dual_summands_back(name, monkeypatch):
    # the completion over A^op carries its summands, so dualizing it back
    # and certifying it on A need no decomposition or isomorphism search.
    # Only the cones over A^op are split, through their H^0, once per
    # content; they are split before the count, at every walked rigid pair
    # that (A, 0) does not hold
    text = f"field Q\n{RIGHT_WORKSPACES[name]}pair PairP1 : M = P1 ; P = 0\n"
    ws = wk.parse_workspace(text)
    graph = ex.build_exchange_graph(ws.algebra)
    top = to.free_pair(ws.algebra)
    subs = [u for u in ex.rigid_subpairs(graph, 2) if not to.contains_pair(top, u)]
    for u in subs:
        tt.left_completion_silting(to._dual_sum(u), to._dual_sum(top))
    calls = _count_searches(monkeypatch)
    to.right_bongartz(ws.pair("PairP1"))
    for u in subs:
        to.right_bongartz(u)
    assert calls == [] and len(subs) == 24


CROSS = {
    **FRESH,
    "A4": lambda: linear(4, QQ),
    "cyc3/F3": lambda: cycle(3, Field(3)),
    "A3/F2": lambda: linear(3, Field(2)),
}


def _whole_module_rigidity(pair):
    # (self_rigid, hom_p_m_zero) from tau and Hom of the whole modules,
    # sharing no step with the summand-by-summand test of the package
    m, p = pair.m, pair.p
    tau_m = md.ar_translate(m)
    self_rigid = tau_m.is_zero() or not md.hom_basis(m, tau_m)
    return self_rigid, p.is_zero() or not md.hom_basis(p, m)


@pytest.mark.parametrize("name", sorted(CROSS))
def test_carried_tokens_match_a_fresh_decomposition(name):
    # the same (M, P) without carried summands finds its summands by
    # decompose, and is tau-tilting by a whole-module check that shares no
    # step with the walk's incremental certificate
    alg = CROSS[name]()
    graph = ex.build_exchange_graph(alg)
    assert graph.complete
    for node in graph.node_list():
        bare = md.TauPair(node.m, node.p)
        assert bare.fingerprint() == node.fingerprint()
        assert bare.size() == alg.n
        assert _whole_module_rigidity(bare) == (True, True)


def _kronecker():
    return compile_bound_quiver(Quiver(["1", "2"], [("a", "1", "2"), ("b", "1", "2")]), [], QQ)


TAU_HOM = {
    "A3": (lambda: linear(3, QQ), 10000),
    "A4": (lambda: linear(4, QQ), 10000),
    "cyc3": (lambda: cycle(3, QQ), 10000),
    "cyc4": (lambda: cycle(4, QQ), 10000),
    "PiA3": (lambda: preprojective_algebra(3), 10000),
    "cyc3/F2": (lambda: cycle(3, Field(2)), 10000),
    "cyc3/F3": (lambda: cycle(3, Field(3)), 10000),
    "Kronecker@20": (_kronecker, 20),
}


@pytest.mark.parametrize("name", sorted(TAU_HOM))
def test_hom_to_tau_from_the_presentation_matches_d_tr(name):
    # Hom(x, tau y) = 0 read off y's minimal presentation, against tau y
    # built as D Tr y and its Hom space, on every ordered pair of walked
    # module summands and simples; the Kronecker walk is capped.  The Hom
    # spaces also satisfy the Auslander-Reiten formula of the exact
    # sequence 0 -> Hom(y, x) -> Hom(P0, x) -> Hom(P1, x) -> D Hom(x, tau y)
    # -> 0 (Adachi-Iyama-Reiten, arXiv:1210.1036, Prop 2.4):
    # dim Hom(x, tau y) = dim Hom(y, x) - <g(y), dim x>
    make, budget = TAU_HOM[name]
    alg = make()
    nodes, _, _ = to.silting_closure(alg, budget)
    modules = {x.key(): x for node in nodes.values() for x in node.m_parts}
    modules.update((md.simple(alg, v).key(), md.simple(alg, v)) for v in range(alg.n))
    answers = Counter()
    for x in modules.values():
        for y in modules.values():
            tau = md.ar_translate(y)
            to_tau = len(hom_maps(x, tau))
            pairing = sum(g * d for g, d in zip(md.g_vector(y), x.dims))
            assert to_tau == len(hom_maps(y, x)) - pairing
            assert md._hom_to_tau_zero(x, y) == (to_tau == 0)
            answers[to_tau == 0] += 1
    assert answers[True] and answers[False]


SHIFTED = ("A3", "cyc3", "cyc4", "PiA3", "cyc3/F3")


@pytest.mark.parametrize("name", SHIFTED)
def test_a_shifted_slot_mutates_only_to_the_right(name):
    # at every P_v[1] of every node the left mutation leaves the two-term
    # window and the right one makes Fac grow, so the walk tries only right
    alg = TAU_HOM[name][0]()
    shifted = 0
    for node in to.all_pairs(alg):
        for kind, _, c in node.rows:
            if kind != "p":
                continue
            idx = node.complex.parts.index(c)
            assert tt.mutate_complex(node.complex, idx, "left") is None
            new = tt.to_tau_pair(tt.mutate_complex(node.complex, idx, "right"))
            assert to.pair_leq(node, new) and not to.pair_leq(new, node)
            shifted += 1
    assert shifted


SUBSETS = {
    "A3": (lambda: linear(3, QQ), 129, 85),
    "cyc3": (lambda: cycle(3, QQ), 129, 85),
    "cyc3/F3": (lambda: cycle(3, Field(3)), 129, 85),
    "A4": (lambda: linear(4, QQ), 469, 315),
}


@pytest.mark.parametrize("name", sorted(SUBSETS))
def test_check_pair_matches_the_whole_module_check(name):
    # every pair of at most three distinct summands found in the graph,
    # tau-rigid or not, is classified as the whole-module check says
    make, total, not_rigid = SUBSETS[name]
    alg = make()
    graph = ex.build_exchange_graph(alg)
    seen = {}
    for node in graph.node_list():
        for (kind, rep, _), token in zip(node.rows, node.tokens):
            seen.setdefault(token, (kind, rep))
    rows = [seen[token] for token in sorted(seen)]
    checked = failed = 0
    for size in (1, 2, 3):
        for picked in itertools.combinations(rows, size):
            sub = pair(
                alg,
                [rep for kind, rep in picked if kind == "m"],
                [rep for kind, rep in picked if kind == "p"],
            )
            report = md._check_pair(sub)
            self_rigid, hom_p_m_zero = _whole_module_rigidity(sub)
            assert (report["self_rigid"], report["hom_p_m_zero"]) == (self_rigid, hom_p_m_zero)
            assert report["rigid"] == (self_rigid and hom_p_m_zero)
            assert report["projective_ok"] and report["size"] == size
            checked += 1
            failed += not report["rigid"]
    assert (checked, failed) == (total, not_rigid)


@pytest.mark.parametrize("n", [3, 4])
def test_torsion_order_of_linear_an_counts_tamari_intervals(n):
    # the torsion classes of linear A_n form the Tamari lattice on
    # Catalan(n + 1) elements, which has 2 (4m+1)! / ((m+1)! (3m+2)!)
    # intervals with m = n + 1 (Chapoton)
    m = n + 1
    f = math.factorial
    intervals = 2 * f(4 * m + 1) // (f(m + 1) * f(3 * m + 2))
    nodes = ex.build_exchange_graph(linear(n, QQ)).node_list()
    assert sum(to.pair_leq(a, b) for a in nodes for b in nodes) == intervals
    assert intervals == {3: 68, 4: 399}[n]


@pytest.mark.parametrize("n", [3, 4])
def test_torsion_order_of_preprojective_an_is_the_weak_order(preprojective, n):
    # the support tau-tilting pairs of Pi(A_n) form the weak order on the
    # symmetric group S_(n+1) (Mizuno, arXiv:1304.0667): u <= v when every
    # inversion of u is one of v, and the Hasse edges add one inversion
    perms = itertools.permutations(range(n + 1))
    inversions = [
        {(i, j) for i, j in itertools.combinations(range(n + 1), 2) if p[i] > p[j]}
        for p in perms
    ]
    covers = sum(u < v and len(v) == len(u) + 1 for u in inversions for v in inversions)
    comparable = sum(u <= v for u in inversions for v in inversions)
    assert (len(inversions), covers, comparable) == {3: (24, 36, 151), 4: (120, 240, 1899)}[n]
    graph = ex.build_exchange_graph(preprojective(n))
    nodes = graph.node_list()
    assert (len(nodes), len(graph.edges)) == (len(inversions), covers)
    assert sum(to.pair_leq(a, b) for a in nodes for b in nodes) == comparable


@pytest.mark.parametrize("name", ["cyc3", "cyc3/F3"])
def test_torsion_order_is_reachability_along_left_mutations(name):
    # the Hasse quiver of the order is the left-mutation quiver
    # (Adachi-Iyama-Reiten, arXiv:1210.1036, Thm 2.35), so a <= b exactly
    # when a is reached from b along the walk's left-mutation edges
    graph = ex.build_exchange_graph(CROSS[name]())
    down = {fp: [] for fp in graph.nodes}
    for s, t, _ in graph.edges:
        down[s].append(t)
    below = {}
    for top in graph.nodes:
        seen, stack = {top}, [top]
        while stack:
            for t in down[stack.pop()]:
                if t not in seen:
                    seen.add(t)
                    stack.append(t)
        below[top] = seen
    comparable = 0
    for fa, a in graph.nodes.items():
        for fb, b in graph.nodes.items():
            assert to.pair_leq(a, b) == (fa in below[fb])
            comparable += fa in below[fb]
    assert comparable == 66


@pytest.mark.parametrize("name", ["A3", "A4"])
def test_check_pair_of_a_walked_node_reads_the_walk_caches(name):
    # the walk cached tau and the Hom spaces of every summand, so the
    # summand-by-summand check of its nodes computes nothing new
    alg = {"A3": lambda: linear(3, QQ), "A4": lambda: linear(4, QQ)}[name]()
    graph = ex.build_exchange_graph(alg)
    caches = (alg.cache, alg.opposite().cache)
    before = [len(c) for c in caches]
    for node in graph.node_list():
        assert md._check_pair(node)["role"] == "tilting"
    assert [len(c) for c in caches] == before


def _exchange_with(monkeypatch, pair, slot, pick):
    # mutate pair at slot with the new summand replaced by pick(rest, x),
    # rest the kept summands' complexes and x the exchanged one
    x = to._summand_rows(pair)[slot][2]
    rest = [c for c in pair.complex.parts if c is not x]

    def patched(*args, **kwargs):
        return tt.sum_of_summands(rest + [pick(rest, x)])

    monkeypatch.setattr(tt, "mutate_complex", patched)
    try:
        return to._mutate_slot(pair, slot)
    finally:
        monkeypatch.undo()


@pytest.mark.parametrize("name", ["A3", "cyc3"])
def test_exchange_certificate_rejects_a_kept_or_returned_summand(name, monkeypatch):
    alg = FRESH[name]()
    graph = ex.build_exchange_graph(alg)
    two = alg.field(2)
    repeats = 0
    for node in graph.node_list():
        for slot in range(alg.n):
            with pytest.raises(CertificateFailure, match="exactly one"):
                _exchange_with(monkeypatch, node, slot, lambda rest, x: rest[0])
            with pytest.raises(CertificateFailure, match="same pair"):
                _exchange_with(monkeypatch, node, slot, lambda rest, x: x)
            # a kept summand with its differential doubled: an isomorphic
            # complex of new content, whose token repeats a kept one
            t = node.complex
            for c in t.parts:
                if c is to._summand_rows(node)[slot][2] or -1 not in c.diffs:
                    continue
                diffs = {-1: [[e.scale(two) for e in row] for row in c.diffs[-1]]}
                copy = tt.ProjectiveComplex(alg, c.terms, diffs)
                with pytest.raises(CertificateFailure, match="distinct"):
                    _exchange_with(monkeypatch, node, slot, lambda rest, x: copy)
                repeats += 1
    assert repeats > 10


@pytest.mark.parametrize("name", ["A3", "cyc3"])
def test_exchange_certificate_rejects_a_shift_met_by_the_kept_modules(name, monkeypatch):
    alg = FRESH[name]()
    graph = ex.build_exchange_graph(alg)
    rejected = 0
    for node in graph.node_list():
        for slot in range(alg.n):
            rows = to.pair_summand_list(node)
            kept_m = [rep for k, (kind, rep) in enumerate(rows) if k != slot and kind == "m"]
            for v in range(alg.n):
                if not any(rep.dims[v] for rep in kept_m):
                    continue
                shift = tt.stalk_complex(alg, [v], -1)
                with pytest.raises(CertificateFailure, match="meets"):
                    _exchange_with(monkeypatch, node, slot, lambda rest, x: shift)
                rejected += 1
    assert rejected > 20


@pytest.mark.parametrize("name", ["A3", "cyc3", "cyc4"])
def test_exchange_certificate_rejects_a_module_not_rigid_with_the_rest(name, monkeypatch):
    # every module summand of the graph, put in as the new summand next to
    # a rest it is not tau-rigid with (as the whole-module check on the
    # bare pair says), is refused
    alg = FRESH[name]()
    graph = ex.build_exchange_graph(alg)
    modules_seen = {}
    for node in graph.node_list():
        for kind, rep in to.pair_summand_list(node):
            if kind == "m":
                modules_seen.setdefault(md.summand_token(kind, rep), rep)
    rejected = 0
    for node in graph.node_list()[::3]:
        rows = to.pair_summand_list(node)
        for slot in range(alg.n):
            rest = rows[:slot] + rows[slot + 1:]
            kept = {md.summand_token(*row) for row in rest}
            r_m = [rep for kind, rep in rest if kind == "m"]
            r_p = [rep for kind, rep in rest if kind == "p"]
            for token, y in modules_seen.items():
                if token in kept:
                    continue
                bare = md.TauPair(md.sum_or_zero(alg, r_m + [y]), md.sum_or_zero(alg, r_p))
                if all(_whole_module_rigidity(bare)):
                    continue
                y_c = tt.summand_complex("m", y)
                with pytest.raises(CertificateFailure, match="tau-rigid"):
                    _exchange_with(monkeypatch, node, slot, lambda rest, x: y_c)
                rejected += 1
    assert rejected > 20


def test_exchange_certificate_rejects_a_module_not_rigid_by_itself(monkeypatch):
    # over k[x]/(x^2) the simple S has tau S = S, so Hom(S, tau S) != 0
    q = Quiver(["1"], [("x", "1", "1")])
    alg = compile_bound_quiver(q, [Relation(q, [(1, ("x", "x"))])], QQ)
    s_c = tt.summand_complex("m", md.simple(alg, 0))
    with pytest.raises(CertificateFailure, match="tau-rigid"):
        _exchange_with(monkeypatch, to.free_pair(alg), 0, lambda rest, x: s_c)


def _searched_name(x):
    # describe_module as it was: isomorphism search against P_i, then S_i
    alg = x.algebra
    if x.is_zero():
        return "0"
    for i in range(alg.n):
        if md.is_isomorphic(x, md.projective(alg, i)):
            return f"P{alg.vertex_labels[i]}"
    for i in range(alg.n):
        if md.is_isomorphic(x, md.simple(alg, i)):
            return f"S{alg.vertex_labels[i]}"
    return "M(" + ",".join(str(d) for d in x.dims) + ")"


NAMED = {
    "A3": lambda: linear(3, QQ),
    "cyc3": lambda: cycle(3, QQ),
    "cyc4": lambda: cycle(4, QQ),
    "A4": lambda: linear(4, QQ),
    "PiA3": lambda: preprojective_algebra(3),
}


@pytest.mark.parametrize("name", sorted(NAMED))
def test_module_names_match_the_isomorphism_search(name):
    alg = NAMED[name]()
    graph = ex.build_exchange_graph(alg)
    checked = 0
    for node in graph.node_list():
        for kind, rep in to.pair_summand_list(node):
            assert md.describe_module(rep) == _searched_name(rep)
            checked += 1
    assert checked == alg.n * len(graph)


# ---------------------------------------------------------------------------
# one certified completion per window node in the compat sweeps


@pytest.mark.parametrize("name", ["A3", "cyc3"])
def test_compat_completes_each_window_node_once(name, monkeypatch):
    alg = FRESH[name]()
    graph = ex.build_exchange_graph(alg)
    calls = []
    complete = tt.left_completion_silting

    def counted(*args):
        calls.append(args)
        return complete(*args)

    # a window node that holds rel is its own completion, read with no
    # call; every other window node is completed once
    monkeypatch.setattr(tt, "left_completion_silting", counted)
    kinds = Counter()
    for rel in ex.rigid_subpairs(graph, 1):
        before = len(calls)
        rep = ex.verify_mutation_compat(rel, graph)
        assert rep["pass"], rep["failures"]
        window = [n for n in graph.node_list() if to.left_precondition(rel, n)]
        holding = [n for n in window if to.contains_pair(n, rel)]
        kinds["holds rel"] += len(holding)
        kinds["completed"] += len(window) - len(holding)
        assert len(calls) - before == len(window) - len(holding)
    assert kinds["holds rel"] > 0 and kinds["completed"] > 0


@pytest.mark.parametrize("name", ["A3", "cyc3"])
def test_left_bongartz_rejects_a_wrong_completion(name, monkeypatch):
    # the silting side returns another node that contains U; the
    # module-side certificate, which the compat sweep relies on, refuses it.
    # An anchor that holds U is read without the silting route, so only
    # the anchors that do not hold U are patched
    alg = FRESH[name]()
    graph = ex.build_exchange_graph(alg)
    rejected = 0
    for u in ex.rigid_subpairs(graph, 1):
        for anchor in graph.node_list():
            if not to.left_precondition(u, anchor) or to.contains_pair(anchor, u):
                continue
            right = to.fan_left_completion(u, anchor).fingerprint()
            for other in graph.node_list():
                if other.fingerprint() == right or not to.contains_pair(other, u):
                    continue
                wrong = other.complex
                monkeypatch.setattr(tt, "left_completion_silting", lambda *a: wrong)
                with pytest.raises(CertificateFailure):
                    to.left_bongartz(u, anchor)
                rejected += 1
    assert rejected > 100


def _whole_trace_quotient(gen, x):
    # x modulo the trace of gen: the images of the maps gen -> x closed
    # into a submodule, then x modulo it
    _, incl = md.submodule(x, image_rows(gen, x))
    return md.quotient(x, incl.mats)[0]


@pytest.mark.parametrize("name", ["A3", "cyc3", "cyc4", "PiA3", "cyc3/F3"])
def test_left_precondition_matches_the_whole_module_test(name):
    # the window test, made per summand of the anchor's M, and the window,
    # wide subcategory and torsion part of every module summand X of a
    # node and of its quotient, made per summand of U and Q, against the
    # whole modules U, Q and M, with no summand or key set
    alg = FAN[name]()
    graph = ex.build_exchange_graph(alg)
    nodes = graph.node_list()
    summands = list({rep.key(): rep for node in nodes for rep in node.m_parts}.values())
    answers = Counter()
    for u in ex.rigid_subpairs(graph, alg.n - 1):
        tau_u = md.ar_translate(u.m) if not u.m.is_zero() else md.zero_rep(alg)

        def perp(x):
            return md.dim_hom(u.p, x) == 0 and md.dim_hom(x, tau_u) == 0

        for node in nodes:
            whole = perp(node.m)
            assert to.left_precondition(u, node) == whole
            answers["window", whole] += 1
        for x in summands:
            q = _whole_trace_quotient(u.m, x)
            assert md.torsion_free_part(u.m_parts, u.m_keys, x).key() == q.key()
            for y in (x, q):
                assert md.in_perp_pair(u, y) == perp(y)
                wide = perp(y) and md.dim_hom(u.m, y) == 0
                assert md.in_wide(u, y) == wide
                answers["wide", wide] += 1
    assert all(answers[check, b] for check in ("window", "wide") for b in (True, False))


# ---------------------------------------------------------------------------
# the fan search filters the completions of (U, Q) once per rigid pair


def _fan_per_anchor(u, anchor):
    # reference: the per-anchor scan, which tests every pair of the graph
    # that contains (U, Q), summand by summand, against W and against Fac M
    # of this anchor; containment by Counter inclusion of the tokens.
    # Returns the keepers and their maximum, or None when there is none.
    anchor_parts = [rep for rep, _ in anchor.m_summands()]
    keepers = []
    for cand in to.all_pairs(u.algebra):
        if not u.token_counts <= cand.token_counts:
            continue
        ok = True
        for rep, _ in cand.m_summands():
            q = rep if u.m.is_zero() else torsion_free(u.m, rep)
            if q.is_zero():
                continue
            if not md.in_wide(u, q) or not fac(anchor_parts, [q]):
                ok = False
                break
        if ok:
            keepers.append(cand)
    top = next((c for c in keepers if all(to.pair_leq(o, c) for o in keepers)), None)
    return keepers, top


FAN = {
    "A3": lambda: linear(3, QQ),
    "cyc3": lambda: cycle(3, QQ),
    "cyc4": lambda: cycle(4, QQ),
    "cyc3/F3": lambda: cycle(3, Field(3)),
    "PiA3": lambda: preprojective_algebra(3),
}


@pytest.mark.parametrize("name", sorted(FAN))
def test_left_bongartz_reads_an_anchor_that_holds_u(name):
    # a node that holds (U, Q) lies in its window and is read as the join
    # of the parts of U and of the node, with no approximation; the
    # silting route gives the same rows, kind, content and order
    alg = FAN[name]()
    graph = ex.build_exchange_graph(alg)
    read = 0
    for u in ex.rigid_subpairs(graph, alg.n - 1):
        for node in graph.node_list():
            if not to.contains_pair(node, u):
                continue
            assert to.left_precondition(u, node)
            route = tt.to_tau_pair(tt.left_completion_silting(u.complex, node.complex))
            got = to.left_bongartz(u, node)
            assert [(k, rep.key()) for k, rep, _ in got.rows] == [
                (k, rep.key()) for k, rep, _ in route.rows
            ]
            read += 1
    assert read > len(graph)


@pytest.mark.parametrize("name", sorted(FAN))
def test_walked_pairs_carry_the_verdict_check_pair_finds(name):
    # every node the walk reached by mutation carries the verdict of its
    # exchange certificate, which is the classification check_pair makes
    # afresh; the free pair, where the walk starts, is tested instead
    nodes = to.all_pairs(FAN[name]())
    assert nodes[0]._verdict is None
    for node in nodes[1:]:
        assert node._verdict == md._check_pair(node)
        assert node._verdict["role"] == "tilting"


@pytest.mark.parametrize("name", sorted(FAN))
def test_star_quotients_of_a_completion_lie_in_w(name):
    # the fact that lets the fan search skip the W test: for a module
    # summand X of a pair C that contains (U, Q), X / t_U(X) lies in the
    # wide subcategory of (U, Q)
    alg = FAN[name]()
    graph = ex.build_exchange_graph(alg)
    tested = 0
    for u in ex.rigid_subpairs(graph, alg.n):
        for node in graph.node_list():
            if not to.contains_pair(node, u):
                continue
            for rep, _ in node.m_summands():
                q = rep if u.m.is_zero() else torsion_free(u.m, rep)
                assert md.in_wide(u, q)
                tested += 1
    assert tested > len(graph) * alg.n


@pytest.mark.parametrize("name", sorted(FAN))
def test_fan_completion_matches_the_per_anchor_scan(name):
    # every rigid subpair, complete pairs included, at every node, inside
    # the window and outside it: the same keepers in the same order, and
    # the same maximum or none
    alg = FAN[name]()
    graph = ex.build_exchange_graph(alg)
    window = outside = 0
    for u in ex.rigid_subpairs(graph, alg.n):
        for anchor in graph.node_list():
            keepers, top = _fan_per_anchor(u, anchor)
            parts = [rep for rep, _ in anchor.m_summands()]
            kept = [c for c, qs in to._fan_candidates(u, 10000) if fac(parts, qs)]
            assert [c.fingerprint() for c in kept] == [c.fingerprint() for c in keepers]
            if to.left_precondition(u, anchor):
                assert to.fan_left_completion(u, anchor).fingerprint() == top.fingerprint()
                window += 1
            elif top is None:
                with pytest.raises(CertificateFailure):
                    to.fan_left_completion(u, anchor)
            else:
                assert to.fan_left_completion(u, anchor).fingerprint() == top.fingerprint()
                outside += 1
    assert window > len(graph) * alg.n and outside > 0


@pytest.mark.parametrize("name", ["A3", "cyc3"])
def test_route_sweep_reduces_each_summand_modulo_u_once(name, monkeypatch):
    # in one verify_route sweep, the fan search reduces each summand of
    # each candidate modulo t_U at most once, however many window nodes
    # the sweep visits
    alg = FRESH[name]()
    graph = ex.build_exchange_graph(alg)
    reduced = Counter()
    star, fan = to._star_quotient, to._fan_candidates.__code__

    def counted(u, x):
        if sys._getframe(1).f_code is fan:
            reduced[u.m.key(), u.p.key(), x.key()] += 1
        return star(u, x)

    monkeypatch.setattr(to, "_star_quotient", counted)
    visits = calls = 0
    for u in ex.rigid_subpairs(graph, alg.n - 1):
        reduced.clear()
        report = ex.verify_route(u, graph)
        assert report["pass"], report["failures"]
        assert max(reduced.values(), default=0) <= 1
        visits += report["nodes_checked"]
        calls += len(reduced)
    assert calls > 0 and visits > 2 * len(ex.rigid_subpairs(graph, alg.n - 1))


def test_fan_caches_nothing_when_the_walk_hits_its_budget():
    alg = cycle(3, QQ)
    u = pair(alg, [P(alg, 0)])
    with pytest.raises(SearchBudgetExceeded):
        to.fan_left_completion(u, budget=3)
    assert not [k for k in alg.cache if isinstance(k, tuple) and k[0] == "fan"]
    assert to.fan_left_completion(u).fingerprint() == to.left_bongartz(u).fingerprint()
    # keyed by the content of the summands: the bare pair (P1, 0) shares it
    bare = md.TauPair(P(alg, 0), md.zero_rep(alg))
    assert to.fan_left_completion(bare).fingerprint() == to.left_bongartz(u).fingerprint()
    assert [k[2] for k in alg.cache if isinstance(k, tuple) and k[0] == "fan"] == [10000]


# ---------------------------------------------------------------------------
# brick labels


def test_brick_labels_a2(a2):
    nodes = a2_nodes(a2)
    d = to.brick_label(nodes["top"], nodes["ps"])
    assert d.dims == (0, 1)  # the simple at the sink
    d = to.brick_label(nodes["top"], nodes["p2"])
    assert d.dims == (1, 0)
    d = to.brick_label(nodes["ps"], nodes["s"])
    assert d.dims == (1, 1)  # the projective P1 is the label here
    d = to.brick_label(nodes["s"], nodes["bot"])
    assert d.dims == (1, 0)
    d = to.brick_label(nodes["p2"], nodes["bot"])
    assert d.dims == (0, 1)


def test_brick_labels_cyc3_chain(cyc3):
    chain = cyc3_chain(cyc3)
    want = [(1, 0, 0), (0, 1, 0), (1, 0, 1), (0, 0, 1)]
    got = [to.brick_label(a, b).dims for a, b in zip(chain, chain[1:])]
    assert got == want


def _asai_label(old, new):
    # (X, X modulo (trace of the kept module summands + rad End(X)·X)),
    # with rad End(X) spanned by the basis of End(X) shifted by the
    # eigenvalue read at one vertex, as modules._local_radical reads it
    # (Asai, arXiv:1610.05860; Demonet-Iyama-Jasso, arXiv:1503.00285)
    only_old, _ = to.exchanged_summands(old, new)
    rows = list(zip(old.rows, old.tokens))
    x = next(rep for (_, rep, _), token in rows if token == only_old[0])
    kept = [rep for (kind, rep, _), token in rows if kind == "m" and token != only_old[0]]
    field, dims = x.field, x.dims
    nonzero = [v for v, d in enumerate(dims) if d]
    v = next((v for v in nonzero if not field.char or dims[v] % field.char), nonzero[0])
    ident = md.identity_map(x)
    maps = [f for u in kept for f in md.hom_basis(u, x)]
    maps += [f - ident.scale(md._single_eigenvalue(f.mats[v], field)) for f in md.hom_basis(x, x)]
    spans = [[row for f in maps for row in f.mats[w]] for w in range(len(dims))]
    return x, md.quotient(x, spans)[0]


ASAI = {
    "A3": lambda: linear(3, QQ),
    "cyc3": lambda: cycle(3, QQ),
    "cyc4": lambda: cycle(4, QQ),
    "PiA3": lambda: preprojective_algebra(3),
    "cyc3/F3": lambda: cycle(3, Field(3)),
    # End(X) is not k for some exchanged X, so rad End(X)·X is not 0
    "k[x]/x^2": lambda: cycle(1, QQ, 2),
    "cyc2/len4/F2": lambda: cycle(2, Field(2), 4),
}


@pytest.mark.parametrize("name", sorted(ASAI))
def test_asai_label_is_the_brick_label(name):
    graph = ex.build_exchange_graph(ASAI[name]())
    shrunk = 0  # edges where X modulo the trace of the new M is not yet a brick
    for s, t, _ in graph.edges:
        old, new = graph.nodes[s], graph.nodes[t]
        label = to.brick_label(old, new)
        x, asai = _asai_label(old, new)
        assert asai.dims == label.dims and md.is_isomorphic(asai, label)
        shrunk += torsion_free(new.m, x).dims != label.dims
    assert (shrunk > 0) == (name in ("k[x]/x^2", "cyc2/len4/F2"))


@pytest.mark.parametrize("name", sorted(ASAI))
def test_brick_labels_make_no_candidate_search(name, monkeypatch):
    # the label is Asai's quotient read from rad End(X), and is_brick
    # reads dim End of the label, so no splitting candidate is drawn
    graph = ex.build_exchange_graph(ASAI[name]())

    def refused(endos, ident):
        raise AssertionError("brick label drew a splitting candidate")

    monkeypatch.setattr(md, "_splitting_candidates", refused)
    for s, t, _ in graph.edges:
        assert md.is_brick(to.brick_label(graph.nodes[s], graph.nodes[t]))


def test_brick_label_needs_left_edge(a2):
    nodes = a2_nodes(a2)
    with pytest.raises(PreconditionViolated):
        to.brick_label(nodes["ps"], nodes["top"])
    with pytest.raises(MatchFailure):
        to.brick_label(nodes["top"], nodes["bot"])


def test_brick_labels_are_bricks(cyc3):
    chain = cyc3_chain(cyc3)
    for a, b in zip(chain, chain[1:]):
        d = to.brick_label(a, b)
        assert md.is_brick(d)
        assert not md.hom_basis(b.m, d)


# ---------------------------------------------------------------------------
# a pair that carries its rows builds M, P and its complex only when read

LAZY = {
    "A3": lambda: linear(3, QQ),
    "cyc3": lambda: cycle(3, QQ),
    "cyc3/F3": lambda: cycle(3, Field(3)),
}


def _eager_walked(pair):
    # M and P of a walked node as they were built eagerly from the mutated
    # complex: the module rows summed in row order, and the ProjSum of the
    # shifted vertices in ascending order
    alg = pair.algebra
    m_parts = [rep for kind, rep, _ in pair.rows if kind == "m"]
    shift = sorted(md._projective_vertex(rep) for kind, rep, _ in pair.rows if kind == "p")
    m = md.sum_or_zero(alg, m_parts)
    p = md.ProjSum(alg, shift).rep if shift else md.zero_rep(alg)
    return m.key(), p.key()


@pytest.mark.parametrize("name", sorted(LAZY))
def test_lazy_m_and_p_match_the_eager_construction(name):
    alg = LAZY[name]()
    for node in ex.build_exchange_graph(alg).node_list():
        assert (node.m.key(), node.p.key()) == _eager_walked(node)
    projectives = md.sum_or_zero(alg, [md.projective(alg, v) for v in range(alg.n)]).key()
    zero = md.zero_rep(alg).key()
    free, shifted = to.free_pair(alg), to.shifted_pair(alg)
    assert (free.m.key(), free.p.key()) == (projectives, zero)
    assert (shifted.m.key(), shifted.p.key()) == (zero, projectives)


def test_walk_builds_no_module_sum_or_fraction_determinant(monkeypatch):
    alg = linear(4, QQ)
    calls = []
    # every module sum goes through _block_sum
    for mod, fn in ((md, "_block_sum"), (linalg, "det")):
        real = getattr(mod, fn)

        def counted(*args, _real=real, _fn=fn):
            calls.append(_fn)
            return _real(*args)

        monkeypatch.setattr(mod, fn, counted)
    graph = ex.build_exchange_graph(alg)
    assert graph.complete and len(graph) == 42
    assert calls == []


@pytest.mark.parametrize("name", ["A4", "cyc4", "PiA3"])
def test_integer_determinant_matches_the_fraction_one_on_walked_g_matrices(name):
    alg = NAMED[name]()
    for node in ex.build_exchange_graph(alg).node_list():
        mat = [list(token[1]) for token in node.tokens]
        doubled = [[2 * c for c in mat[0]]] + mat[1:]
        for m, size in ((mat, 1), (doubled, 2)):
            d = linalg.int_det(m)
            assert abs(d) == size
            assert QQ(d) == linalg.det([[QQ(c) for c in row] for row in m], QQ)


CLASSICAL = {
    "A3": lambda: linear(3, QQ),
    "cyc3": lambda: cycle(3, QQ),
    "cyc4": lambda: cycle(4, QQ),
    "A4": lambda: linear(4, QQ),
    "PiA3": lambda: preprojective_algebra(3),
    "cyc3/F3": lambda: cycle(3, Field(3)),
}


@pytest.mark.parametrize(
    "name, pairs",
    [("A3", 31), ("cyc3", 31), ("cyc4", 127), ("A4", 155), ("PiA3", 51), ("cyc3/F3", 31)],
)
def test_right_bongartz_is_the_largest_completion(name, pairs):
    # the classical Bongartz completion generates the largest torsion
    # class among the completions of (U, Q) (Adachi-Iyama-Reiten,
    # arXiv:1210.1036, Thm 2.10): found in the graph by containment and
    # the torsion order, with no duality
    alg = CLASSICAL[name]()
    graph = ex.build_exchange_graph(alg)
    subs = ex.rigid_subpairs(graph, alg.n - 1)
    for u in subs:
        completions = [node for node in graph.node_list() if to.contains_pair(node, u)]
        tops = [c for c in completions if all(to.pair_leq(d, c) for d in completions)]
        assert len(tops) == 1
        assert to.right_bongartz(u).fingerprint() == tops[0].fingerprint()
    assert len(subs) == pairs


@pytest.mark.parametrize(
    "name, completed, refused",
    [("A3", 225, 209), ("cyc3", 221, 213), ("cyc4", 1636, 2682), ("PiA3", 472, 752),
     ("cyc3/F3", 221, 213)],
)
def test_relative_right_bongartz_is_the_largest_completion_below_the_anchor(
    name, completed, refused
):
    # at every walked anchor T, the right completion of (U, Q) is the
    # largest walked node that holds U and lies below T, found by
    # containment and the torsion order, with no duality.  It is refused
    # exactly when a summand of U leaves Fac M_T, read as a whole-module
    # trace quotient, and that is exactly when no node holding U lies below T
    alg = FAN[name]()
    graph = ex.build_exchange_graph(alg)
    nodes = graph.node_list()
    counts = Counter()
    for u in ex.rigid_subpairs(graph, alg.n - 1):
        holding = [node for node in nodes if to.contains_pair(node, u)]
        for anchor in nodes:
            below = [c for c in holding if to.pair_leq(c, anchor)]
            outside = not _whole_trace_quotient(anchor.m, u.m).is_zero()
            assert outside == (not below)
            if outside:
                with pytest.raises(PreconditionViolated):
                    to.right_bongartz(u, anchor)
                counts["refused"] += 1
                continue
            tops = [c for c in below if all(to.pair_leq(d, c) for d in below)]
            assert len(tops) == 1
            assert to.right_bongartz(u, anchor) is tops[0]
            counts["completed"] += 1
    assert counts == {"completed": completed, "refused": refused}


@pytest.mark.parametrize("name", ["A3", "cyc3"])
def test_right_bongartz_rejects_a_wrong_completion(name, monkeypatch):
    # the silting side returns the dual of another walked node that holds
    # U; the certificate on A refuses it.  Below (A, 0), and below any
    # anchor above the wrong node, an up-slot of the wrong node mutates to
    # a larger completion that stays below the anchor; at an anchor not
    # above it, the order test refuses it.  An anchor that holds U is its
    # own completion, read without the silting route, so it is skipped
    alg = FRESH[name]()
    graph = ex.build_exchange_graph(alg)
    nodes = graph.node_list()
    top = to.free_pair(alg)
    rejected = Counter()
    for u in ex.rigid_subpairs(graph, alg.n - 1):
        for anchor in nodes:
            if not to.pair_leq(u, anchor) or to.contains_pair(anchor, u):
                continue
            right = to.right_bongartz(u, anchor)
            for other in nodes:
                if other is right or not to.contains_pair(other, u):
                    continue
                wrong = to._dual_sum(other)
                monkeypatch.setattr(tt, "left_completion_silting", lambda *a: wrong)
                below = to.pair_leq(other, anchor)
                message = "larger completion" if below else "leaves the anchor"
                with pytest.raises(CertificateFailure, match=message):
                    to.right_bongartz(u, anchor)
                monkeypatch.undo()
                rejected["at (A, 0)" if anchor is top else message] += 1
    assert rejected == {
        "A3": {"at (A, 0)": 40, "larger completion": 73, "leaves the anchor": 112},
        "cyc3": {"at (A, 0)": 39, "larger completion": 66, "leaves the anchor": 117},
    }[name]


def _exact_inverse(rows):
    # Gauss-Jordan over Fraction on [G | I]
    n = len(rows)
    aug = [
        [Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
        for i, row in enumerate(rows)
    ]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col])
        aug[col], aug[piv] = aug[piv], aug[col]
        lead = aug[col][col]
        aug[col] = [x / lead for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


@pytest.mark.parametrize(
    "name, edges",
    [("A3", 21), ("cyc3", 21), ("cyc4", 68), ("A4", 84), ("PiA3", 36), ("cyc3/F3", 21)],
)
def test_c_vectors_are_the_brick_labels(name, edges):
    # with G the g-vectors of a pair in slot order, the columns of G^-1
    # are its c-vectors; each is sign-coherent, and on a left mutation at a
    # slot its column is the dimension vector of the brick label (Fu,
    # "c-vectors via tau-tilting theory"; Treffinger, "On sign-coherence
    # of c-vectors")
    alg = CLASSICAL[name]()
    graph = ex.build_exchange_graph(alg)
    inverses = {}
    for fp, node in graph.nodes.items():
        g = [to.summand_g_vector(kind, rep) for kind, rep in to.pair_summand_list(node)]
        inv = _exact_inverse(g)
        assert all(x.denominator == 1 for row in inv for x in row)
        for c in zip(*inv):
            assert all(x >= 0 for x in c) or all(x <= 0 for x in c)
        inverses[fp] = inv
    for s, t, slot in graph.edges:
        column = tuple(row[slot] for row in inverses[s])
        assert column == to.brick_label(graph.nodes[s], graph.nodes[t]).dims
    assert len(graph.edges) == edges


def _isomorphic_bricks(x, y):
    # bricks of equal dimension vector are isomorphic exactly when some
    # g.f: x -> y -> x is nonzero: End(x) = k makes it invertible, so f is
    # injective, hence bijective.  Nonzero maps both ways are not enough
    if x.dims != y.dims:
        return False
    zero, backs = x.field.zero, hom_maps(y, x)
    # entry (r, c) at a vertex of the matrix of g.f, maps acting on rows
    return any(
        sum((a * g_v[l][c] for l, a in enumerate(row)), zero)
        for f in hom_maps(x, y)
        for g in backs
        for f_v, g_v in zip(f, g)
        for row in f_v
        for c in range(len(f_v))
    )


@pytest.mark.parametrize(
    "name, bricks, nodes",
    [("A3", 6, 14), ("A4", 10, 42), ("cyc4", 8, 34), ("PiA3", 11, 24), ("cyc3/F3", 6, 14)],
)
def test_brick_labels_are_semibricks_and_join_irreducibles_count_the_bricks(name, bricks, nodes):
    # the labels of the edges leaving one node, and those of the edges
    # entering it, form a semibrick, and each node is determined by either
    # set (Asai, arXiv:1610.05860); a torsion class with one lower cover,
    # a join-irreducible, is the one generated by its label, so the
    # bricks, all of which label edges, are as many as the nodes with one
    # outgoing edge (Demonet-Iyama-Reading-Reiten-Thomas, arXiv:1711.01785).
    # Bricks are compared with the hom_maps of conftest, not the package
    alg = CLASSICAL[name]()
    graph = ex.build_exchange_graph(alg)
    classes = []  # one brick per isomorphism class
    leaving = {fp: set() for fp in graph.nodes}
    entering = {fp: set() for fp in graph.nodes}
    for s, t, _ in graph.edges:
        label = to.brick_label(graph.nodes[s], graph.nodes[t])
        k = next((k for k, b in enumerate(classes) if _isomorphic_bricks(label, b)), None)
        if k is None:
            k = len(classes)
            classes.append(label)
        for sides, fp in ((leaving, s), (entering, t)):
            assert k not in sides[fp]
            sides[fp].add(k)
    for sides in (leaving, entering):
        for labels in sides.values():
            for a, b in itertools.permutations(labels, 2):
                assert not hom_maps(classes[a], classes[b])
        assert len({frozenset(labels) for labels in sides.values()}) == len(graph.nodes) == nodes
    assert len(classes) == sum(len(labels) == 1 for labels in leaving.values()) == bricks


def _below(graph):
    # the nodes reachable from each node down the walk's edges, itself included
    down = {fp: [] for fp in graph.nodes}
    for s, t, _ in graph.edges:
        down[s].append(t)
    below = {}
    for fp in graph.nodes:
        seen, stack = {fp}, [fp]
        while stack:
            for t in down[stack.pop()]:
                if t not in seen:
                    seen.add(t)
                    stack.append(t)
        below[fp] = seen
    return below


@pytest.mark.parametrize("name", sorted(FAN))
def test_window_and_completion_are_lattice_operations(name):
    # read off the walk's edges alone: the window of (U, Q) is the interval
    # below its Bongartz completion, and the left completion at a node is
    # the join of the co-Bongartz completion (Fac U) and the node
    alg = FAN[name]()
    graph = ex.build_exchange_graph(alg)
    below = _below(graph)
    windows = 0
    for u in ex.rigid_subpairs(graph, alg.n - 1):
        top = to.right_bongartz(u).fingerprint()
        bottom = to.left_bongartz(u).fingerprint()
        for fp, node in graph.nodes.items():
            inside = fp in below[top]
            assert to.left_precondition(u, node) == inside
            if not inside:
                continue
            above = [a for a in graph.nodes if bottom in below[a] and fp in below[a]]
            join = [a for a in above if all(a in below[b] for b in above)]
            assert join == [to.left_bongartz(u, node).fingerprint()]
            windows += 1
    assert windows > len(graph)


@pytest.mark.parametrize("name", ["A3", "A4", "cyc4", "PiA3", "cyc3/F3"])
def test_compatible_sets_of_walked_summands_are_the_nodes(name):
    # the flag complex: a set of walked summands is compatible when
    # Hom_K(a, b[1]) = 0 for all a, b in it, read with hom_k; the
    # compatible n-sets are exactly the walked nodes, and no n + 1
    # summands are compatible, which the walk itself never checks
    alg = linear(4, QQ) if name == "A4" else FAN[name]()
    graph = ex.build_exchange_graph(alg)
    summands = {}
    for node in graph.node_list():
        for kind, rep, c in node.rows:
            summands[md.summand_token(kind, rep)] = c
    tokens = sorted(summands)
    vanishing = {
        (a, b) for a in tokens for b in tokens if tt.hom_k(summands[a], summands[b], 1) == 0
    }

    def compatible(subset):
        return all((a, b) in vanishing for a in subset for b in subset)

    cliques = {s for s in itertools.combinations(tokens, alg.n) if compatible(s)}
    assert cliques == {node.fingerprint() for node in graph.node_list()}
    assert not any(compatible(s) for s in itertools.combinations(tokens, alg.n + 1))
