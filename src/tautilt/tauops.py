"""Operations on support pairs: mutation, duality, completions, labels.

Everything here works on TauPair objects.  Heavy lifting happens in the
two-term complex layer; results coming back from that layer are certified
against module-level criteria before being returned, so a wrong
approximation or split cannot silently produce a wrong pair.
"""

from . import modules, twoterm
from .errors import (
    CertificateFailure,
    MatchFailure,
    NotRigid,
    PreconditionViolated,
    SearchBudgetExceeded,
    TautiltError,
)


def free_pair(algebra):
    """The pair (A, 0), the maximum of the support tau-tilting order."""
    return modules.TauPair(modules.free_module(algebra), modules.zero_rep(algebra))


def shifted_pair(algebra):
    """The pair (0, A), the minimum of the order."""
    return modules.TauPair(modules.zero_rep(algebra), modules.free_module(algebra))


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
    """Order by inclusion of the generated torsion classes: Fac a <= Fac b."""
    return modules.in_fac(b.m, a.m)


def _proj_vertex_or_none(rep):
    if not modules.is_projective(rep):
        return None
    return modules._projective_vertex(rep)


def contains_pair(big, small):
    """Whether every summand of small occurs among the summands of big."""
    used = {}
    for rep, mult in small.m_summands():
        for _ in range(mult):
            for idx, (cand, cmult) in enumerate(big.m_summands()):
                if cmult - used.get(idx, 0) > 0 and modules.is_isomorphic(cand, rep):
                    used[idx] = used.get(idx, 0) + 1
                    break
            else:
                return False
    p_have = []
    for rep, mult in big.p_summands():
        p_have.extend([modules._projective_vertex(rep)] * mult)
    for rep, mult in small.p_summands():
        v = modules._projective_vertex(rep)
        for _ in range(mult):
            if v not in p_have:
                return False
            p_have.remove(v)
    return True


# -- duality ------------------------------------------------------------------


def dagger_pair(pair):
    """The dual pair over the opposite algebra.

    Shift summands come back as projective modules, projective summands of
    M move to the shift part, and nonprojective summands are replaced by
    their transposes.  Involutive, and order-reversing on support
    tau-tilting pairs.
    """
    op = pair.algebra.opposite()
    m_parts = []
    p_parts = []
    for rep, mult in pair.p_summands():
        v = modules._projective_vertex(rep)
        m_parts.extend([modules.projective(op, v)] * mult)
    for rep, mult in pair.m_summands():
        v = _proj_vertex_or_none(rep)
        if v is None:
            m_parts.extend([modules.transpose(rep)] * mult)
        else:
            p_parts.extend([modules.projective(op, v)] * mult)
    return modules.pair_from_summands(op, m_parts, p_parts)


# -- mutation -----------------------------------------------------------------


def summand_g_vector(kind, rep):
    """g-vector of one pair summand; shift summands contribute -e_v."""
    if kind == "m":
        return tuple(modules.g_vector(rep))
    v = modules._projective_vertex(rep)
    return tuple(-1 if i == v else 0 for i in range(rep.algebra.n))


def pair_summand_list(pair):
    """Indecomposable summands as (kind, rep) rows in canonical order.

    Rows are sorted by g-vector (ascending lexicographic), which is a total
    order on the summands of any presilting pair, so mutation slots are
    stable across runs and presentations.
    """
    rows = []
    for rep, mult in pair.m_summands():
        rows.extend([("m", rep)] * mult)
    for rep, mult in pair.p_summands():
        rows.extend([("p", rep)] * mult)
    rows.sort(key=lambda row: summand_g_vector(row[0], row[1]))
    return rows


def _summand_complex(pair, kind, rep):
    alg = pair.algebra
    if kind == "m":
        return twoterm.from_tau_pair(
            modules.pair_from_summands(alg, [rep], [])
        )
    return twoterm.from_tau_pair(modules.pair_from_summands(alg, [], [rep]))


def mutate_pair(pair, index, seed=0):
    """Exchange one summand of a support tau-tilting pair.

    Returns (new_pair, direction) where direction is "left" when the
    torsion class shrinks.  The almost complete pair sitting under the
    chosen summand admits exactly one other completion, so the result is
    determined by the index alone.  The complex form is assembled from the
    complexes of the pair's own summands, which it carries, so the slot is
    found by key rather than by decomposing and matching up to isomorphism.
    """
    _require_tilting(pair)
    if not pair.is_basic():
        raise PreconditionViolated("mutation expects a basic pair")
    rows = pair_summand_list(pair)
    if not 0 <= index < len(rows):
        raise TautiltError("summand index out of range")
    parts = [_summand_complex(pair, kind, rep) for kind, rep in rows]
    t = twoterm.sum_of_summands(parts, seed)
    keys = [c.key() for c, _ in twoterm.decompose_complex(t, seed)]
    cindex = keys.index(parts[index].key())
    for direction in ("left", "right"):
        out = twoterm.mutate_complex(t, cindex, direction, seed=seed)
        if out is None:
            continue
        new_pair = twoterm.to_tau_pair(out)
        _require_tilting(new_pair)
        if new_pair.fingerprint() == pair.fingerprint():
            raise CertificateFailure("mutation returned the same pair")
        return new_pair, direction
    raise CertificateFailure("no mutation stayed in the two-term window")


# -- the fan of completions ---------------------------------------------------


def silting_closure(algebra, seed=0, budget=10000):
    """All basic two-term silting complexes reachable from the free one.

    Returns (complexes, complete) where complete is False when the budget
    stopped the walk early.
    """
    key = ("closure", seed, budget)
    if key not in algebra.cache:
        t0 = twoterm.free_silting(algebra)
        seen = {twoterm.complex_fingerprint(t0, seed): t0}
        frontier = [t0]
        complete = True
        while frontier:
            if len(seen) > budget:
                complete = False
                break
            t = frontier.pop()
            for idx in range(len(twoterm.decompose_complex(t, seed))):
                for direction in ("left", "right"):
                    m = twoterm.mutate_complex(t, idx, direction, seed=seed)
                    if m is None:
                        continue
                    fp = twoterm.complex_fingerprint(m, seed)
                    if fp not in seen:
                        seen[fp] = m
                        frontier.append(m)
        algebra.cache[key] = (list(seen.values()), complete)
    return algebra.cache[key]


def all_pairs(algebra, seed=0, budget=10000):
    """Every support tau-tilting pair of a tau-tilting finite algebra."""
    key = ("allpairs", seed, budget)
    if key not in algebra.cache:
        complexes, complete = silting_closure(algebra, seed, budget)
        if not complete:
            raise SearchBudgetExceeded(
                "mutation walk hit the budget; the algebra may not be "
                "tau-tilting finite"
            )
        algebra.cache[key] = [twoterm.to_tau_pair(t) for t in complexes]
    return algebra.cache[key]


# -- Bongartz completions -----------------------------------------------------


def left_precondition(u_pair, anchor):
    """Fac M <= perp(tau U) ∩ perp(Q), the window where B⁻ is defined."""
    return modules.in_perp_pair(u_pair.m, u_pair.p, anchor.m)


def _star_quotient(u_pair, x):
    """x modulo the torsion part for Fac(U)."""
    if u_pair.m.is_zero():
        return x
    t, incl = modules.trace_submodule(u_pair.m, x)
    spans = [incl.mats[v] if t.dims[v] else [] for v in range(x.algebra.n)]
    q, _ = modules.quotient(x, spans)
    return q


def _certify_left(u_pair, anchor, result):
    _require_tilting(result)
    if not contains_pair(result, u_pair):
        raise CertificateFailure("completion lost a summand of the input pair")
    if not modules.in_fac(result.m, anchor.m):
        raise CertificateFailure("completion does not cover the anchor torsion class")
    for rep, _ in result.m_summands():
        if not modules.star_membership(u_pair.m, anchor.m, rep):
            raise CertificateFailure(
                "a summand of the completion escapes Fac(U) * Fac(M)"
            )


def left_bongartz(u_pair, anchor=None, seed=0, budget=10000):
    """Left Bongartz completion of a tau-rigid pair relative to an anchor.

    Returns the support tau-tilting pair generating the smallest torsion
    class containing Fac U together with Fac M of the anchor; defined when
    Fac M sits inside perp(tau U) ∩ perp(Q).  anchor=None means (0, A),
    the absolute left completion with Fac equal to Fac U.  The answer is
    computed on the silting side from one approximation cone and certified
    back on the module side.
    """
    alg = u_pair.algebra
    if anchor is None:
        anchor = shifted_pair(alg)
    key = ("left_bongartz", u_pair.fingerprint(), anchor.fingerprint(), seed)
    if key in alg.cache:
        return alg.cache[key]
    _require_rigid(u_pair)
    _require_tilting(anchor)
    if not left_precondition(u_pair, anchor):
        raise PreconditionViolated(
            "anchor torsion class leaves perp(tau U) ∩ perp(Q)"
        )
    t = twoterm.from_tau_pair(anchor)
    uc = twoterm.from_tau_pair(u_pair)
    out = twoterm.left_completion_silting(uc, t)
    result = twoterm.to_tau_pair(out)
    _certify_left(u_pair, anchor, result)
    alg.cache[key] = result
    return result


def fan_left_completion(u_pair, anchor=None, seed=0, budget=10000):
    """Left completion located inside the enumerated completion fan.

    Independent route used for cross-checks: a completion C of (U, Q) is
    kept when every summand X of its module part has X / t_U(X) inside the
    wide subcategory of (U, Q) and inside Fac M of the anchor; the result
    is the unique maximum of the kept set.  Agrees with left_bongartz on
    its domain but does not need the precondition.
    """
    alg = u_pair.algebra
    if anchor is None:
        anchor = shifted_pair(alg)
    _require_rigid(u_pair)
    _require_tilting(anchor)
    keepers = []
    for cand in all_pairs(alg, seed, budget):
        if not contains_pair(cand, u_pair):
            continue
        ok = True
        for rep, _ in cand.m_summands():
            q = _star_quotient(u_pair, rep)
            if q.is_zero():
                continue
            if not modules.in_wide(u_pair.m, u_pair.p, q):
                ok = False
                break
            if not modules.in_fac(anchor.m, q):
                ok = False
                break
        if ok:
            keepers.append(cand)
    for cand in keepers:
        if all(pair_leq(other, cand) for other in keepers):
            return cand
    raise CertificateFailure("the certified completions have no maximum")


def right_bongartz(u_pair, anchor=None, seed=0, budget=10000):
    """Right Bongartz completion, computed through the duality.

    anchor=None means (A, 0); that case is the classical Bongartz
    completion, with Fac equal to all of perp(tau U) ∩ perp(Q).
    """
    alg = u_pair.algebra
    if anchor is None:
        anchor = free_pair(alg)
    _require_rigid(u_pair)
    _require_tilting(anchor)
    out = left_bongartz(dagger_pair(u_pair), dagger_pair(anchor), seed, budget)
    result = dagger_pair(out)
    _require_tilting(result)
    if not contains_pair(result, u_pair):
        raise CertificateFailure("dual completion lost a summand of the input")
    return result


# -- brick labels -------------------------------------------------------------


def exchanged_summands(old, new):
    """The summand tokens separating two pairs (old only, new only)."""
    old_fp = list(old.fingerprint())
    new_fp = list(new.fingerprint())
    only_old = list(old_fp)
    for token in new_fp:
        if token in only_old:
            only_old.remove(token)
    only_new = list(new_fp)
    for token in old_fp:
        if token in only_new:
            only_new.remove(token)
    return only_old, only_new


def brick_label(old, new, seed=0):
    """The brick labelling a left mutation edge old -> new.

    For the exchange X -> Y the label is X modulo the torsion part of the
    new torsion class; it generates the Hom-orthogonal window between the
    two torsion classes.
    """
    if not pair_leq(new, old) or old.fingerprint() == new.fingerprint():
        raise PreconditionViolated("brick labels live on left mutation edges")
    only_old, _ = exchanged_summands(old, new)
    if len(only_old) != 1 or only_old[0][0] != "mod":
        raise MatchFailure("edge does not exchange a single module summand")
    token = only_old[0]
    x = None
    for rep, _ in old.m_summands():
        if ("mod", modules.g_vector(rep), rep.dims) == token:
            x = rep
            break
    if x is None:
        raise MatchFailure("exchanged summand not found in the old pair")
    t, incl = modules.trace_submodule(new.m, x)
    spans = [incl.mats[v] if t.dims[v] else [] for v in range(x.algebra.n)]
    q, _ = modules.quotient(x, spans)
    d = modules.brick_shrink(q, seed=seed)
    if not modules.is_brick(d, seed=seed):
        raise CertificateFailure("label failed the brick test")
    if modules.hom_basis(new.m, d):
        raise CertificateFailure("label is not orthogonal to the new pair")
    if not modules.in_fac(old.m, d):
        raise CertificateFailure("label escapes the old torsion class")
    return d
