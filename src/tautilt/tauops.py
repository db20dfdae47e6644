"""Operations on support pairs: mutation, duality, completions, labels.

Everything here works on TauPair objects.  Heavy lifting happens in the
two-term complex layer; results coming back from that layer are certified
against module-level criteria before being returned, so a wrong
approximation or split cannot silently produce a wrong pair.
"""

from collections import deque

from . import linalg, modules, twoterm
from .errors import (
    CertificateFailure,
    MatchFailure,
    NotRigid,
    PreconditionViolated,
    SearchBudgetExceeded,
    TautiltError,
)


def _projective_pairs(algebra):
    """(A, 0) and (0, A), built once per algebra (family "projective_pairs")."""
    key = ("projective_pairs",)
    if key not in algebra.cache:
        ps = [modules.projective(algebra, v) for v in range(algebra.n)]
        free = modules.pair_from_summands(algebra, ps, [])
        algebra.cache[key] = (free, modules.pair_from_summands(algebra, [], ps))
    return algebra.cache[key]


def free_pair(algebra):
    """The pair (A, 0), the maximum of the support tau-tilting order."""
    return _projective_pairs(algebra)[0]


def shifted_pair(algebra):
    """The pair (0, A), the minimum of the order."""
    return _projective_pairs(algebra)[1]


def _require_tilting(pair):
    info = modules.check_pair(pair)
    if info["role"] != "tilting":
        raise PreconditionViolated(
            f"expected a support tau-tilting pair, found role {info['role']!r}"
        )
    return info


def _require_rigid(pair):
    info = modules.check_pair(pair)
    if info["role"] == "not_rigid":
        raise NotRigid("pair is not tau-rigid")
    return info


def pair_leq(a, b):
    """Order by inclusion of the generated torsion classes: Fac a <= Fac b,
    tested on the pairs' own summands and b's carried key set (see
    modules.fac_contains), so a summand of a that is one of b's lies in
    Fac b with no test."""
    return _in_fac(b, a.m_parts)


def _in_fac(pair, xs):
    """Whether every x in xs lies in Fac M of the pair, read with the
    module summands and key set the pair carries."""
    return modules.fac_contains(pair.m_parts, pair.m_keys, xs)


def contains_pair(big, small):
    """Whether every summand of small occurs among the summands of big.

    Both pairs must be tau-rigid.  Then a summand is determined by its
    g-vector (Adachi-Iyama-Reiten, arXiv:1210.1036, Thm 5.5), so the
    summands are matched as fingerprint tokens, with multiplicity.
    """
    have = big.token_counts
    return all(have[token] >= count for token, count in small.token_counts.items())


# -- duality ------------------------------------------------------------------


def dagger_pair(pair):
    """The dual pair over the opposite algebra, carrying its summands.

    The duals of the row complexes (_dual_sum) are read back as rows over
    the opposite algebra (twoterm.to_tau_pair), as right mutation does:
    P_v[1] comes back as the projective P_v, a projective P_v of M moves
    to the shift part, and the dual of the minimal presentation of a
    nonprojective summand X presents its transpose Tr X.  The rows follow
    the canonical order of the dual complexes.  Involutive, and
    order-reversing on support tau-tilting pairs.
    """
    return twoterm.to_tau_pair(_dual_sum(pair))


# -- mutation -----------------------------------------------------------------


def summand_g_vector(kind, rep):
    """g-vector of one pair summand; shift summands contribute -e_v."""
    return modules.summand_token(kind, rep)[1]


def pair_summand_list(pair):
    """Indecomposable summands as (kind, rep) rows in canonical order.

    Rows are sorted by g-vector (ascending lexicographic), which is a total
    order on the summands of any presilting pair, so mutation slots are
    stable across runs and presentations.
    """
    return [row[:2] for row in _summand_rows(pair)]


def _g_order(pair):
    """The positions of the pair's rows in g-vector order."""
    return sorted(range(len(pair.rows)), key=lambda k: pair.tokens[k][1])


def _summand_rows(pair):
    """(kind, rep, complex) per summand, in the order of pair_summand_list."""
    return [pair.rows[k] for k in _g_order(pair)]


def _det_pm_one(pair):
    """Whether the g-vectors of the pair's summands, read from their
    tokens and not from the mutation, have determinant +-1."""
    return abs(linalg.int_det([token[1] for token in pair.tokens])) == 1


def _certify_exchange(pair, new_pair, fresh):
    """Certify a mutation of a support tau-tilting pair without decomposing.

    new_pair must carry its summands, and fresh lists the positions among
    them of those not kept from pair: one new summand Y, the rest R.  R is
    tau-rigid, being part of the certified pair, so the new pair is
    tau-rigid when the tests of modules.tau_rigid_summands that involve Y
    pass: Hom(Y, tau Y), Hom(Y, tau R_M), Hom(R_M, tau Y) and Hom(R_P, Y)
    if Y is a module, or (R_M)_v if Y is P_v[1].  Each Hom into a tau is
    read off the minimal presentation of its second argument, with no
    tau built, so the certificate stays module-side, independent of the
    complex-side mutation it checks.  With n summands of
    distinct tokens it is then support tau-tilting, its summands pairwise
    non-isomorphic (Adachi-Iyama-Reiten, arXiv:1210.1036, Thm 5.5), and
    its g-matrix must be unimodular.  What stands in for decomposing M: Y
    is the cone of a minimal approximation of an indecomposable summand,
    which is indecomposable, and an indecomposable two-term presilting
    complex is P_v[1] or the minimal presentation of an indecomposable
    tau-rigid H^0 (AIR, Sect. 3), which to_tau_pair checks per summand.
    new_pair carries the verdict (TauPair._verdict) for check_pair.
    """
    if len(fresh) != 1:
        raise CertificateFailure("mutation did not exchange exactly one summand")
    rows = [row[:2] for row in new_pair.rows]
    y = rows.pop(fresh[0])
    if not all(modules.tau_rigid_summands([y], rows)):
        if y[0] == "m":
            raise CertificateFailure("the new summand is not tau-rigid with the kept ones")
        raise CertificateFailure("the new shifted P_v meets the kept modules at v")
    tokens = new_pair.fingerprint()
    if len(tokens) != pair.algebra.n or len(set(tokens)) != len(tokens):
        raise CertificateFailure("mutation did not give n distinct summands")
    if tokens == pair.fingerprint():
        raise CertificateFailure("mutation returned the same pair")
    if not _det_pm_one(new_pair):
        raise CertificateFailure("the g-vectors of the mutation are not a basis")
    new_pair._verdict = {"projective_ok": True, "rigid": True, "hom_p_m_zero": True,
                         "self_rigid": True, "role": "tilting", "size": len(tokens)}


def _mutate_slot(pair, slot):
    """Mutate a certified pair at its g-sorted slot, left first at a
    module slot: the one mutation step, shared by mutate_pair and the walk.

    At a shifted slot P_v[1] only the right mutation is tried: the other
    completion gains a module summand Y with Y_v != 0, while every summand
    of Fac M vanishes at v, so Fac grows and the left mutation there
    always leaves the two-term window.  The slot's row complex is found
    among the parts of the complex the pair carries (TauPair.complex).
    The result is certified by _certify_exchange before it is returned,
    with the direction taken.
    """
    kind, _, part = _summand_rows(pair)[slot]
    t = pair.complex
    cindex = t.parts.index(part)
    kept = {c.key() for k, c in enumerate(t.parts) if k != cindex}
    for direction in ("right",) if kind == "p" else ("left", "right"):
        out = twoterm.mutate_complex(t, cindex, direction)
        if out is None:
            continue
        new_pair = twoterm.to_tau_pair(out)
        fresh = [k for k, c in enumerate(out.parts) if c.key() not in kept]
        _certify_exchange(pair, new_pair, fresh)
        return new_pair, direction
    raise CertificateFailure("no mutation stayed in the two-term window")


def mutate_pair(pair, index):
    """Exchange one summand of a support tau-tilting pair.

    Returns (new_pair, direction) where direction is "left" when the
    torsion class shrinks.  The almost complete pair sitting under the
    chosen summand admits exactly one other completion, so the result is
    determined by the index alone.
    """
    _require_tilting(pair)
    if not 0 <= index < len(pair.rows):
        raise TautiltError("summand index out of range")
    return _mutate_slot(pair, index)


# -- the exchange graph -------------------------------------------------------


def silting_closure(algebra, budget=10000):
    """The mutation closure of the free pair: the exchange graph, walked once.

    Breadth-first from the free pair, building and certifying each edge
    once, from the end that reaches it first.  An almost complete pair is
    a summand of exactly two support tau-tilting pairs (Adachi-Iyama-Reiten,
    arXiv:1210.1036, Thm 2.18) and is determined by the tokens of its
    summands (Thm 5.5), so each exchange is recorded under the sorted
    tokens left after removing one slot.  The other end reads its
    neighbour from that record, with the direction reversed, and raises
    CertificateFailure if it is not the recorded result, since the almost
    complete pair would then have a third completion.  Every node is
    certified once, when it is first built.  Returns (nodes, edges,
    complete): nodes maps fingerprints to support tilting pairs in
    discovery order, edges lists the left mutations as (source, target,
    slot) with slot the g-sorted summand index on the source side, and
    complete is False when a new node beyond the budget was skipped.  The
    walk is cached per budget on the algebra.
    """
    key = ("closure", budget)
    if key not in algebra.cache:
        top = free_pair(algebra)
        _require_tilting(top)
        nodes = {top.fingerprint(): top}
        edges = []
        exchanges = {}
        queue = deque([top])
        complete = True
        while queue:
            pair = queue.popleft()
            src_fp = pair.fingerprint()
            tokens = [pair.tokens[k] for k in _g_order(pair)]
            for slot in range(len(tokens)):
                rest = tuple(sorted(tokens[:slot] + tokens[slot + 1:]))
                if rest in exchanges:
                    first, other, first_direction = exchanges[rest]
                    if other != src_fp:
                        raise CertificateFailure(
                            "an almost complete pair has a third completion"
                        )
                    fp = first
                    direction = "right" if first_direction == "left" else "left"
                else:
                    neighbour, direction = _mutate_slot(pair, slot)
                    fp = neighbour.fingerprint()
                    exchanges[rest] = (src_fp, fp, direction)
                    if fp not in nodes:
                        if len(nodes) >= budget:
                            complete = False
                            continue
                        nodes[fp] = neighbour
                        queue.append(neighbour)
                if direction == "left":
                    edges.append((src_fp, fp, slot))
        algebra.cache[key] = (nodes, edges, complete)
    return algebra.cache[key]


def all_pairs(algebra, budget=10000):
    """Every support tau-tilting pair of a tau-tilting finite algebra, in
    the discovery order of the exchange graph."""
    nodes, _, complete = silting_closure(algebra, budget)
    if not complete:
        raise SearchBudgetExceeded(
            "mutation walk hit the budget; the algebra may not be "
            "tau-tilting finite"
        )
    return list(nodes.values())


# -- Bongartz completions -----------------------------------------------------


def left_precondition(u_pair, anchor):
    """Fac M <= perp(tau U) ∩ perp(Q), the window where B⁻ is defined.

    Hom is additive, so each summand of M is tested against the summands
    of U and Q (modules.in_perp_pair).  The answer is cached under the
    summands of U and Q and the anchor's module key set (family
    "window"), so the sweeps and left_bongartz test each (U, anchor) once."""
    alg = u_pair.algebra
    key = ("window", u_pair.check_key, anchor.m_keys)
    if key not in alg.cache:
        alg.cache[key] = all(modules.in_perp_pair(u_pair, x) for x in anchor.m_parts)
    return alg.cache[key]


def _star_quotient(u_pair, x):
    """x modulo the torsion part for Fac(U), read from the summands of U."""
    if not u_pair.m_parts:
        return x
    return modules.torsion_free_part(u_pair.m_parts, u_pair.m_keys, x)


def _certify_left(u_pair, anchor, result):
    _require_tilting(result)
    if not contains_pair(result, u_pair):
        raise CertificateFailure("completion lost a summand of the input pair")
    if not pair_leq(anchor, result):
        raise CertificateFailure("completion does not cover the anchor torsion class")
    # x lies in Fac(U) * Fac(M) iff x / t_U(x) lies in Fac(M), U tau-rigid
    quotients = (_star_quotient(u_pair, rep) for rep in result.m_parts)
    if not _in_fac(anchor, quotients):
        raise CertificateFailure("a summand of the completion escapes Fac(U) * Fac(M)")


def left_bongartz(u_pair, anchor=None):
    """Left Bongartz completion of a tau-rigid pair relative to an anchor.

    Returns the support tau-tilting pair generating the smallest torsion
    class containing Fac U together with Fac M of the anchor; defined when
    Fac M sits inside perp(tau U) ∩ perp(Q).  anchor=None means (0, A),
    the absolute left completion with Fac equal to Fac U.  The answer is
    computed on the silting side from the complexes both pairs carry
    (TauPair.complex) and certified back on the module side.  An anchor
    holding U has Hom(t_i, u[1]) = 0 for its parts t_i, each its own cone,
    so the silting route is read as the join of their parts (_join_by_g).
    """
    alg = u_pair.algebra
    if anchor is None:
        anchor = shifted_pair(alg)
    key = ("left_bongartz", u_pair.fingerprint(), anchor.fingerprint())
    if key in alg.cache:
        return alg.cache[key]
    _require_rigid(u_pair)
    _require_tilting(anchor)
    if not left_precondition(u_pair, anchor):
        raise PreconditionViolated(
            "anchor torsion class leaves perp(tau U) ∩ perp(Q)"
        )
    if contains_pair(anchor, u_pair):
        out = twoterm._join_by_g([c for _, _, c in u_pair.rows], [c for _, _, c in anchor.rows])
    else:
        out = twoterm.left_completion_silting(u_pair.complex, anchor.complex)
    result = twoterm.to_tau_pair(out)
    _certify_left(u_pair, anchor, result)
    alg.cache[key] = result
    return result


def _fan_candidates(u_pair, budget):
    """The completions of (U, Q), each with its nonzero star quotients
    X / t_U(X), in the discovery order of all_pairs.

    Every such quotient lies in the wide subcategory W of (U, Q), so W is
    not tested: it is in U-perp by the torsion pair (Fac U, U-perp), in
    perp(tau U) as a quotient of X, and in Q-perp since X_v = 0 at the
    vertices of Q (Jasso, arXiv:1302.2709, Sect. 3).

    None of it depends on an anchor, so it is cached per content of the
    summands of U and Q and per budget (family "fan"); each distinct
    summand is reduced once.  Nothing is cached when all_pairs raises.
    """
    alg = u_pair.algebra
    key = ("fan", u_pair.check_key, budget)
    if key not in alg.cache:
        quotients = {}  # summand content -> X / t_U(X)
        fan = []
        for cand in all_pairs(alg, budget):
            if not contains_pair(cand, u_pair):
                continue
            qs = []
            for rep in cand.m_parts:
                if rep.key() not in quotients:
                    quotients[rep.key()] = _star_quotient(u_pair, rep)
                q = quotients[rep.key()]
                if not q.is_zero():
                    qs.append(q)
            fan.append((cand, tuple(qs)))
        alg.cache[key] = tuple(fan)
    return alg.cache[key]


def fan_left_completion(u_pair, anchor=None, budget=10000):
    """Left completion located inside the enumerated completion fan.

    Independent route used for cross-checks: a completion C of (U, Q) is
    kept when every summand X of its module part has X / t_U(X) inside
    Fac M of the anchor; the result is the unique maximum of the kept set.
    That quotient always lies in the wide subcategory of (U, Q): in U-perp
    by the torsion pair, in perp(tau U) as a quotient of X, and in Q-perp
    since X_v = 0 at the vertices of Q.  The completions and their
    quotients do not depend on the anchor and are read from
    _fan_candidates.  Agrees with left_bongartz on its domain but does not
    need the precondition.  Distinct support tau-tilting pairs have
    distinct torsion classes, so one pass that keeps the larger of each
    compared pair ends on the maximum when there is one; every keeper is
    then checked to lie below it, and CertificateFailure is raised when
    one does not.
    """
    alg = u_pair.algebra
    if anchor is None:
        anchor = shifted_pair(alg)
    _require_rigid(u_pair)
    _require_tilting(anchor)
    keepers = [
        cand
        for cand, qs in _fan_candidates(u_pair, budget)
        if _in_fac(anchor, qs)
    ]
    top = None
    for cand in keepers:
        if top is None or pair_leq(top, cand):
            top = cand
    if top is None or not all(pair_leq(other, top) for other in keepers):
        raise CertificateFailure("the certified completions have no maximum")
    return top


def _certify_right(u_pair, anchor, result):
    """Certify result as the largest completion of (U, Q) below the
    anchor (see right_bongartz), with Fac tests and certified mutations
    on A only.  A module summand X of result outside (U, Q) and not in Fac
    of its other module summands mutates down (Adachi-Iyama-Reiten,
    arXiv:1210.1036, Def-Prop 2.28) and passes with no mutation built;
    every other slot outside (U, Q), a module in that Fac or a P_v[1],
    mutates up, and its mutation must not lie below the anchor."""
    _require_tilting(result)
    if not contains_pair(result, u_pair):
        raise CertificateFailure("completion lost a summand of the input pair")
    if not pair_leq(result, anchor):
        raise CertificateFailure("completion leaves the anchor torsion class")
    held = u_pair.token_counts
    for slot, k in enumerate(_g_order(result)):
        kind, rep, _ = result.rows[k]
        if held[result.tokens[k]]:
            continue
        if kind == "m":
            others = result.m_keys - {rep.key()}
            gens = [r for r in result.m_parts if r.key() in others]
            if not modules.fac_contains(gens, others, [rep]):
                continue
        if pair_leq(_mutate_slot(result, slot)[0], anchor):
            raise CertificateFailure("a larger completion lies below the anchor")


def _dual_sum(pair):
    """The dual over A^op of the complex a pair carries, as the sum of the
    duals of its row complexes; the zero complex for the empty pair."""
    parts = [twoterm.complex_dagger(c) for _, _, c in pair.rows]
    if not parts:
        return twoterm.zero_complex(pair.algebra.opposite())
    return twoterm.sum_of_summands(parts)


def right_bongartz(u_pair, anchor=None):
    """Right Bongartz completion of a tau-rigid pair relative to an anchor.

    Returns the support tau-tilting pair generating the largest torsion
    class among the completions of (U, Q) that lie below the anchor;
    defined when each module summand of U lies in Fac M of the anchor.
    anchor=None means (A, 0), the classical Bongartz completion, with Fac
    equal to all of perp(tau U) ∩ perp(Q).  An anchor that holds (U, Q) is
    its own completion.  Otherwise the left completion of the duals of the
    complexes both pairs carry is taken over A^op
    (twoterm.left_completion_silting), and the duals of its parts are read
    back as the walk reads a mutation, so the result is the walked node.

    The result is certified on A, and no pair over A^op is built.  The
    completions of (U, Q) are the pairs T with Fac U <= Fac T <=
    perp(tau U) ∩ perp(Q) (Jasso, arXiv:1302.2709, Sect. 3), and a pair
    strictly below another has a right mutation that stays below it
    (Adachi-Iyama-Reiten, arXiv:1210.1036, Thm 2.35).  So a completion
    below the anchor is the largest one exactly when none of its up
    mutations at slots outside (U, Q) stays below the anchor
    (_certify_right).  Below (A, 0) every pair lies, so there a right
    answer has no such slot and no mutation is built.
    """
    alg = u_pair.algebra
    if anchor is None:
        anchor = free_pair(alg)
    _require_rigid(u_pair)
    _require_tilting(anchor)
    if not pair_leq(u_pair, anchor):
        raise PreconditionViolated("a summand of U leaves the anchor torsion class")
    if contains_pair(anchor, u_pair):
        return anchor
    out = twoterm.left_completion_silting(_dual_sum(u_pair), _dual_sum(anchor))
    back = [twoterm.complex_dagger(c) for c in out.parts]
    result = twoterm.to_tau_pair(twoterm.sum_of_summands(back))
    _certify_right(u_pair, anchor, result)
    return result


# -- brick labels -------------------------------------------------------------


def exchanged_summands(old, new):
    """The summand tokens separating two pairs (old only, new only), each
    sorted, with multiplicity."""
    old_fp, new_fp = old.token_counts, new.token_counts
    return _surplus(old_fp, new_fp), _surplus(new_fp, old_fp)


def _surplus(have, other):
    """The tokens of the multiset have beyond those of other, sorted."""
    return sorted(t for t, count in have.items() for _ in range(count - other[t]))


def brick_label(old, new):
    """The brick labelling a left mutation edge old -> new.

    For the exchange X -> Y the label is X modulo the trace of the new M
    plus rad End(X)·X (Asai, arXiv:1610.05860); it generates the
    Hom-orthogonal window between the two torsion classes.  The trace of
    the new M is that of the kept part U, since Y is a quotient of some U'
    in the exchange sequence.  Both terms are sums of images of module
    maps, so they form a submodule with no closure.  Raises
    SearchBudgetExceeded when End(X) is not certified local with residue
    field k (see modules._radical_generators).  A label is cached per
    edge, under the summands of both pairs (family "brick"); a raise is
    not cached.
    """
    alg = old.algebra
    key = ("brick", old.check_key, new.check_key)
    if key in alg.cache:
        return alg.cache[key]
    if not pair_leq(new, old) or old.fingerprint() == new.fingerprint():
        raise PreconditionViolated("brick labels live on left mutation edges")
    only_old, _ = exchanged_summands(old, new)
    if len(only_old) != 1 or only_old[0][0] != "mod":
        raise MatchFailure("edge does not exchange a single module summand")
    x = next(rep for (_, rep, _), token in zip(old.rows, old.tokens) if token == only_old[0])
    rad = modules._radical_generators(modules.hom_basis(x, x), modules.identity_map(x))
    if rad is None:
        raise SearchBudgetExceeded("End of the exchanged summand is not certified local")
    images = modules._image_rows(new.m_parts, x)
    closed = [
        linalg.row_space_basis(rows + [row for g in rad for row in g.mats[v]], x.field)
        for v, rows in enumerate(images)
    ]
    d = modules._quotient_by_basis(x, closed)[0]
    if not modules.is_brick(d):
        raise CertificateFailure("label failed the brick test")
    # Hom is additive: Hom(M, d) = 0 exactly when each Hom(M_i, d) = 0
    if any(modules._hom_vectors(part, d) for part in new.m_parts):
        raise CertificateFailure("label is not orthogonal to the new pair")
    if not _in_fac(old, [d]):
        raise CertificateFailure("label escapes the old torsion class")
    alg.cache[key] = d
    return d
