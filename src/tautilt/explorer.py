"""Exchange graphs, green sequences, and reduction at a rigid pair.

The exchange graph holds every basic support tilting pair of a
tau-tilting-finite algebra together with the left-mutation order, as found
by the one cached mutation walk, tauops.silting_closure.  On top of it sit
maximal green sequence search, reduction of the ambient algebra at a rigid
pair (endomorphism algebra modulo the trace ideal), transport of green
sequences through the reduction, and the verification sweeps used by the
command line driver.
"""

from collections import Counter

from . import linalg, modules, tauops, twoterm
from .algebra import BasicAlgebra
from .errors import (
    CertificateFailure,
    IncompleteGraph,
    MatchFailure,
    NotBasic,
    NotInWide,
    NotProjective,
    PreconditionViolated,
)


# -- the exchange graph -------------------------------------------------------


class ExchangeGraph:
    """Directed graph of basic support tilting pairs under left mutation.

    Nodes are keyed by canonical fingerprint (sorted multiset of summand
    g-vectors with dimension data) and stored in discovery order.  Every
    edge (source, target, slot) points from the larger torsion class to
    the smaller one; slot is the g-sorted summand index exchanged on the
    source side.
    """

    def __init__(self, algebra, nodes, edges, budget, complete):
        self.algebra = algebra
        self.nodes = nodes
        self.edges = edges
        self.budget = budget
        self.complete = complete
        self._edge_set = None
        self._up = None
        self._index = None

    def __len__(self):
        return len(self.nodes)

    def node_list(self):
        return list(self.nodes.values())

    def node_index(self, fp):
        if self._index is None:
            self._index = {f: k for k, f in enumerate(self.nodes)}
        return self._index[fp]

    def edge_set(self):
        if self._edge_set is None:
            self._edge_set = {(s, t) for s, t, _ in self.edges}
        return self._edge_set

    def up_neighbours(self, fp):
        """Fingerprints covering fp (sources of edges into fp)."""
        if self._up is None:
            up = {f: [] for f in self.nodes}
            for s, t, _ in self.edges:
                up[t].append(s)
            for f in up:
                up[f].sort(key=self.node_index)
            self._up = up
        return self._up[fp]


def build_exchange_graph(algebra, budget=10000):
    """The exchange graph of the cached mutation walk from the free pair
    (tauops.silting_closure).

    Hitting the node budget returns the partial graph with the complete
    flag unset; no exception is raised.  A complete graph is certified
    (_certify_graph) when built.
    """
    if budget <= 0:
        raise PreconditionViolated("graph budget must be positive")
    nodes, edges, complete = tauops.silting_closure(algebra, budget)
    graph = ExchangeGraph(algebra, dict(nodes), list(edges), budget, complete)
    if complete:
        _certify_graph(graph)
    return graph


def _certify_graph(graph):
    """Structural invariants of a complete graph; raises on violation."""
    failures = _shape_failures(graph)
    if failures:
        checks = ", ".join(sorted({f["check"] for f in failures}))
        raise CertificateFailure(f"exchange graph fails its shape checks: {checks}")


def _shape_failures(graph):
    """Failure records of the graph shape: n incident edges at every node,
    the free pair as the only source and the shifted pair as the only sink."""
    alg = graph.algebra
    incoming = {fp: 0 for fp in graph.nodes}
    outgoing = {fp: 0 for fp in graph.nodes}
    for s, t, _ in graph.edges:
        outgoing[s] += 1
        incoming[t] += 1
    failures = [
        {"check": "degree", "node": modules.describe_pair(pair)}
        for fp, pair in graph.nodes.items()
        if incoming[fp] + outgoing[fp] != alg.n
    ]
    sources = [fp for fp in graph.nodes if incoming[fp] == 0]
    sinks = [fp for fp in graph.nodes if outgoing[fp] == 0]
    if sources != [tauops.free_pair(alg).fingerprint()]:
        failures.append({"check": "unique-source"})
    if sinks != [tauops.shifted_pair(alg).fingerprint()]:
        failures.append({"check": "unique-sink"})
    return failures


def maximal_green_sequences(graph, target):
    """All maximal chains of left-mutation edges from the shifted pair up
    to the target, each returned as an ascending list of pairs.

    The chain for the shifted pair itself is the single trivial chain.
    """
    if not graph.complete:
        raise IncompleteGraph("green sequence search needs a complete graph")
    tfp = target.fingerprint()
    if tfp not in graph.nodes:
        raise MatchFailure("target pair is not a node of the graph")
    bottom = tauops.shifted_pair(graph.algebra).fingerprint()
    found = []
    stack = [(bottom, (bottom,))]
    while stack:
        cur, path = stack.pop()
        if cur == tfp:
            found.append(path)
            continue
        for nxt in reversed(graph.up_neighbours(cur)):
            stack.append((nxt, path + (nxt,)))
    found.sort(key=lambda p: (len(p), tuple(graph.node_index(f) for f in p)))
    return [[graph.nodes[fp] for fp in path] for path in found]


def graph_dot(graph, bricks=True):
    """DOT rendering; node labels carry summand names and the g-matrix,
    edge labels the dimension vector of the exchange brick."""
    ids = {fp: f"n{k}" for k, fp in enumerate(graph.nodes)}
    lines = ["digraph exchange {"]
    for fp, pair in graph.nodes.items():
        rows = tauops.pair_summand_list(pair)
        gmat = ";".join(
            "(" + ",".join(str(c) for c in tauops.summand_g_vector(k, r)) + ")"
            for k, r in rows
        )
        label = f"{modules.describe_pair(pair)}\\ng=[{gmat}]"
        lines.append(f'  {ids[fp]} [label="{label}"];')
    for s, t, slot in graph.edges:
        if bricks:
            d = tauops.brick_label(graph.nodes[s], graph.nodes[t])
            dims = ",".join(str(x) for x in d.dims)
            lines.append(f'  {ids[s]} -> {ids[t]} [label="({dims})"];')
        else:
            lines.append(f"  {ids[s]} -> {ids[t]};")
    lines.append("}")
    return "\n".join(lines) + "\n"


# -- reduction at a rigid pair --------------------------------------------------


def _hom_width(src, tgt):
    return sum(src.dims[v] * tgt.dims[v] for v in range(src.algebra.n))


class ReductionData:
    """Outcome of reducing the ambient algebra at a rigid pair (U, Q).

    Carries the completion (M, P) with Fac M the largest window torsion
    class, the endomorphism algebra B = End(M), and its quotient by the
    two-sided ideal generated by the idempotent e_U projecting onto the
    U-part, with each quotient basis element realized by a module map.
    """

    def __init__(
        self, pair, bongartz, endo, ideal_dim, quotient, quotient_maps, parts, kept_slots
    ):
        self.pair = pair
        self.bongartz = bongartz
        self.endo = endo
        self.ideal_dim = ideal_dim
        self.quotient = quotient
        self.quotient_maps = quotient_maps
        self.parts = parts
        self.kept_slots = kept_slots

    def __repr__(self):
        return (
            f"ReductionData(pair={modules.describe_pair(self.pair)}, "
            f"dim B={self.endo.dim}, dim quotient={self.quotient.dim})"
        )


def _build_basic(field, labels, names, peirce, mult):
    alg = BasicAlgebra(field, labels, names, peirce, mult)
    alg.validate()
    return alg


def tau_reduction(pair):
    """Reduce the ambient algebra at a rigid pair.

    Builds B = End(M) for the maximal completion (M, P), with basis the
    identity projections of the indecomposable summands followed by a
    radical basis (see modules._radical_generators), composing each pair
    of basis maps once.  The ideal generated by e_U and the quotient
    B/<e_U> are then read from B's structure constants: the ideal is
    whole on the blocks e_i B e_j that touch U and elsewhere spanned by
    the products through a U slot, and the quotient basis keeps one basis
    element of B, with its map, per coset.
    """
    alg = pair.algebra
    field = alg.field
    bon = tauops.right_bongartz(pair)

    def tokens_of(p, kind):
        return sorted(token for token in p.tokens if token[0] == kind)

    if tokens_of(pair, "shift") != tokens_of(bon, "shift"):
        raise CertificateFailure("completion changed the projective leg of the pair")

    # the completion contains the pair (right_bongartz), both are basic, and
    # summands are determined by g-vectors (AIR Thm 5.5): slots are tokens
    tokens = tokens_of(bon, "mod")
    rep_of = {token: rep for (_, rep, _), token in zip(bon.rows, bon.tokens)}
    parts = [rep_of[token] for token in tokens]
    s = len(parts)
    u_slots = {tokens.index(t) for t in tokens_of(pair, "mod")}
    kept_slots = [i for i in range(s) if i not in u_slots]

    cells = {}
    for i in range(s):
        for j in range(s):
            cells[(i, j)] = modules.hom_basis(parts[j], parts[i])

    # basis: identity projections first, then a radical basis per block
    elements = [(i, i, modules.identity_map(parts[i])) for i in range(s)]
    for i in range(s):
        ident = modules.identity_map(parts[i])
        rad = modules._radical_generators(cells[(i, i)], ident)
        if rad is None:
            raise NotBasic("endomorphism ring of a summand is not split local")
        vecs = [modules._flat(g) for g in rad]
        kept = linalg._extend_basis([], vecs, field, _hom_width(parts[i], parts[i]))
        elements.extend((i, i, rad[t]) for t in kept)
    for i in range(s):
        for j in range(s):
            if i != j:
                elements.extend((i, j, f) for f in cells[(i, j)])

    names = [f"E{i + 1}" for i in range(s)]
    names += [f"w{t + 1}" for t in range(len(elements) - s)]
    peirce = [(i, j) for i, j, _ in elements]
    labels = [modules.describe_module(p) for p in parts]

    members = {}
    for k, (i, j, _) in enumerate(elements):
        members.setdefault((i, j), []).append(k)
    solvers = {
        key: linalg.RowSolver(
            [modules._flat(elements[k][2]) for k in idx],
            field,
            _hom_width(parts[key[1]], parts[key[0]]),
        )
        for key, idx in members.items()
    }

    mult = {}
    for a, (i, j, fa) in enumerate(elements):
        for b, (k, l, fb) in enumerate(elements):
            if j != k:
                continue
            vec = modules._flat(fb.then(fa))
            if not any(vec):
                continue
            cell = members.get((i, l))
            coeffs = solvers[(i, l)].express(vec) if cell else None
            if coeffs is None:
                raise CertificateFailure("composite escaped its hom block")
            entries = tuple((cell[t], c) for t, c in enumerate(coeffs) if c)
            if entries:
                mult[(a, b)] = entries

    endo = _build_basic(field, labels, names, peirce, mult)

    # from here on B is read from its structure constants, each element of
    # block (i, j) as its coordinates over the basis of that block
    place = {k: t for idx in members.values() for t, k in enumerate(idx)}

    def coords(entries, width):
        vec = [field.zero] * width
        for k, c in entries:
            vec[place[k]] = c
        return vec

    # B e_U B: whole on the blocks that touch U, and spanned elsewhere by
    # the products a·b through a U slot
    ideal_dim = 0
    block_ideal = {}
    for (i, j), idx in members.items():
        if i in u_slots or j in u_slots:
            ideal_dim += len(idx)
            continue
        products = [
            coords(mult.get((a, b), ()), len(idx))
            for t in u_slots
            for a in members.get((i, t), [])
            for b in members.get((t, j), [])
        ]
        block_ideal[(i, j)] = linalg.row_space_basis(products, field)
        ideal_dim += len(block_ideal[(i, j)])

    # per surviving block, the basis elements outside the ideal and the
    # elements before them, and a solver that reads a product over them
    # modulo the ideal
    chosen, reducers = {}, {}
    for key, rows in block_ideal.items():
        width = len(members[key])
        units = linalg.identity(width, field)
        kept = linalg._extend_basis(rows, units, field, width)
        chosen[key] = [members[key][t] for t in kept]
        reducers[key] = linalg.RowSolver([units[t] for t in kept] + rows, field, width)
    if any(chosen[(i, i)][:1] != [i] for i in kept_slots):
        raise CertificateFailure("reduction collapsed a non-U idempotent")

    # quotient basis: surviving idempotents, then the chosen radical elements
    q_index = kept_slots + [
        k for i in kept_slots for j in kept_slots for k in chosen.get((i, j), []) if k >= s
    ]
    q_elements = [elements[k] for k in q_index]
    q_names = [f"E{v + 1}" for v in range(len(kept_slots))]
    q_names += [f"w{t + 1}" for t in range(len(q_elements) - len(kept_slots))]
    vmap = {orig: new for new, orig in enumerate(kept_slots)}
    q_peirce = [(vmap[i], vmap[j]) for i, j, _ in q_elements]
    q_labels = []
    for i in kept_slots:
        base = labels[i]
        if base.startswith("P") and base[1:].isdigit():
            base = base[1:]  # the projective prefix is redundant on a vertex
        q_labels.append(base + "'")

    # a product of quotient elements is their product in B, modulo the ideal
    q_pos = {k: a for a, k in enumerate(q_index)}
    q_mult = {}
    for a, ka in enumerate(q_index):
        for b, kb in enumerate(q_index):
            product = mult.get((ka, kb))
            if not product:
                continue
            key = (peirce[ka][0], peirce[kb][1])
            coeffs = reducers[key].express(coords(product, len(members[key])))
            entries = tuple((q_pos[k], c) for k, c in zip(chosen[key], coeffs) if c)
            if entries:
                q_mult[(a, b)] = entries

    quotient = _build_basic(field, q_labels, q_names, q_peirce, q_mult)
    if quotient.dim != endo.dim - ideal_dim:
        raise CertificateFailure("quotient dimension disagrees with the ideal rank")

    return ReductionData(
        pair, bon, endo, ideal_dim, quotient, q_elements, parts, kept_slots
    )


def reduction_functor(rd, x):
    """Image of a wide-subcategory module over the reduced algebra.

    The underlying spaces are Hom(M_i, x) at the surviving vertices; the
    radical basis acts by precomposition.  Maps factoring through the
    U-part act as zero because x has no maps from U (in_wide; the U slots
    hold U's summands by token, Adachi-Iyama-Reiten, Thm 5.5).
    """
    pair = rd.pair
    if not modules.in_wide(pair, x):
        raise NotInWide("module lies outside the wide subcategory of the pair")
    alg = rd.quotient
    field = alg.field
    bases = [modules.hom_basis(rd.parts[i], x) for i in rd.kept_slots]
    dims = tuple(len(b) for b in bases)
    solvers = [
        linalg.RowSolver(
            [modules._flat(f) for f in bases[v]],
            field,
            _hom_width(rd.parts[rd.kept_slots[v]], x),
        )
        for v in range(alg.n)
    ]
    rad_mats = {}
    for kq in alg.radical_indices():
        i, j = alg.peirce[kq]
        g = rd.quotient_maps[kq][2]
        rows = []
        for phi in bases[i]:
            vec = modules._flat(g.then(phi))
            if not any(vec):
                rows.append([field.zero] * dims[j])
                continue
            coeffs = solvers[j].express(vec)
            if coeffs is None:
                raise CertificateFailure("image map escaped its hom space")
            rows.append(list(coeffs))
        rad_mats[kq] = rows
    return modules.Representation(alg, dims, rad_mats, check=True)


def reduce_pair(rd, apair):
    """The reduced-side pair whose torsion class is the image of Fac(apair)
    under the reduction; apair must contain the rigid pair.

    Cached per reduction on the reduced algebra, by the summands apair
    carries (TauPair.check_key)."""
    if not tauops.contains_pair(apair, rd.pair):
        raise PreconditionViolated("pair does not contain the reduction pair")
    key = ("reduce_pair", apair.check_key)
    if key not in rd.quotient.cache:
        rd.quotient.cache[key] = _reduce_pair(rd, apair)
    return rd.quotient.cache[key]


def _reduce_pair(rd, apair):
    """(sum of the nonzero y, sum of the P_v where every y vanishes), y =
    F(X/t_U X) for the summands X that apair carries: the reduction sends
    Ext-projectives to Ext-projectives (Jasso, arXiv:1302.2709, Sect. 3),
    and P of a support tau-tilting pair is the sum of the P_v where M
    vanishes (Adachi-Iyama-Reiten, arXiv:1210.1036, Prop 2.3).

    check_pair certifies the result: a tau-rigid pair has at most n
    indecomposable summands, so n tau-rigid rows of distinct tokens, each
    indecomposable (_summand_image), are its n distinct summands."""
    ys = [y for y in (_summand_image(rd, x) for x in apair.m_parts) if not y.is_zero()]
    alg = rd.quotient
    support = {v for y in ys for v, d in enumerate(y.dims) if d}
    shifted = [modules.projective(alg, v) for v in range(alg.n) if v not in support]
    out = modules.pair_from_summands(alg, ys, shifted)
    if not out.is_basic() or modules.check_pair(out)["role"] != "tilting":
        raise CertificateFailure(
            f"the reduced pair of {modules.describe_pair(apair)} is not support tau-tilting"
        )
    return out


def _summand_image(rd, x):
    """F(x/t_U x) for one summand x of a pair over the rigid pair, zero or
    certified indecomposable by a local endomorphism ring; cached per x
    content on the reduced algebra (family "reduce_image")."""
    key = ("reduce_image", x.key())
    if key not in rd.quotient.cache:
        y = reduction_functor(rd, tauops._star_quotient(rd.pair, x))
        endos = modules.hom_basis(y, y)
        if endos and modules._radical_generators(endos, modules.identity_map(y)) is None:
            raise CertificateFailure("a reduction image is not indecomposable")
        rd.quotient.cache[key] = y
    return rd.quotient.cache[key]


def reduction_bijection_check(rd, budget=10000):
    """Certify the order bijection of the reduction from its images,
    walking only the ambient algebra; returns a JSON-ready report.

    The images are support tau-tilting (reduce_pair).  An almost complete
    pair (a rest: the sorted tokens left after removing one) has exactly
    two completions (Adachi-Iyama-Reiten, arXiv:1210.1036, Thm 2.18), so
    distinct images in which every rest occurs twice are closed under
    mutation, hence all pairs (Cor 2.38).  The covers of the interval over
    the rigid pair are the walked left mutations in it (Thm 2.33); each
    must map to a left mutation, and they must be as many as the rests.
    Every failed check has a record, "empty" and "injective" included.
    """
    images = {
        p.fingerprint(): reduce_pair(rd, p)
        for p in tauops.all_pairs(rd.pair.algebra, budget=budget)
        if tauops.contains_pair(p, rd.pair)
    }
    distinct = {im.fingerprint(): im for im in images.values()}
    rests = {fp: [fp[:k] + fp[k + 1:] for k in range(len(fp))] for fp in distinct}
    count = Counter(r for rs in rests.values() for r in rs)
    closure = [
        {"check": "closure", "pair": modules.describe_pair(distinct[fp])}
        for fp, rs in rests.items()
        if any(count[r] != 2 for r in rs)
    ]
    nodes, edges, _ = tauops.silting_closure(rd.pair.algebra, budget)
    covers = [(s, t) for s, t, _ in edges if s in images and t in images]
    order = [
        {"check": "order", "left": modules.describe_pair(nodes[t]),
         "right": modules.describe_pair(nodes[s])}
        for s, t in covers
        if not _one_exchange(images[t], images[s])
        or not tauops.pair_leq(images[t], images[s])
    ]
    if not closure and len(covers) != len(count):
        order.append({"check": "covers", "edges": len(covers), "rests": len(count)})
    injective = [] if images else [{"check": "empty"}]
    if len(distinct) != len(images):
        injective.append({"check": "injective", "pairs": len(images), "images": len(distinct)})
    bijective = not closure and not injective
    return {
        "pair": modules.describe_pair(rd.pair),
        "ambient_count": len(images),
        "reduced_count": None if closure else len(distinct),
        "bijective": bijective,
        "order_preserved": not order,
        "failures": closure + injective + order,
        "pass": bijective and not order,
    }


# -- transport of green sequences ------------------------------------------------


def _one_exchange(a, b):
    """Whether two pairs differ in exactly one summand: one out, one in."""
    gone, new = tauops.exchanged_summands(a, b)
    return len(gone) == 1 and len(new) == 1


def _check_green_chain(chain):
    """Each ascending step must be a reversed left-mutation edge.

    Two support tau-tilting pairs that differ in exactly one summand are
    mutations of each other, and the order says which way
    (Adachi-Iyama-Reiten, arXiv:1210.1036, Def-Thm 2.33), so a step lo ->
    hi is certified by the exchange and by Fac lo <= Fac hi.  The pairs
    must already be certified support tau-tilting.
    """
    for k, (lo, hi) in enumerate(zip(chain, chain[1:])):
        if not _one_exchange(lo, hi) or not tauops.pair_leq(lo, hi):
            raise PreconditionViolated(f"step {k} of the chain is not a left mutation")


def _completed_path(rel_u, path):
    """Left completion of rel_u = (U, Q) at each node of a mutation path
    inside the window of rel_u, with consecutive repeats dropped.

    Only path[-1] is completed by left_bongartz (on a transport chain,
    the window top, which holds U and is its own completion, as is every
    node that holds U).  Relative left Bongartz completions are compatible
    with mutations: along one mutation in the window the completion stays
    or moves by one mutation, at a slot outside (U, Q).  So, walking back,
    each other node's completion is the next node's or a neighbour of it
    (tauops._neighbour, read by _left_bongartz_near), whichever passes
    tauops._left_failure, else CertificateFailure.  Those tests are
    complete: a result that holds U with Fac M <= Fac result contains the
    smallest torsion class T containing Fac U and Fac M; if also each
    X / t_U X lies in Fac M, every summand lies in Fac U * Fac M <= T, so
    Fac result = T, and Fac determines the pair (Adachi-Iyama-Reiten,
    arXiv:1210.1036, Thm 2.7).
    """
    out = [tauops.left_bongartz(rel_u, path[-1])]
    for node in reversed(path[:-1]):
        c = tauops._left_bongartz_near(rel_u, node, out[-1])
        if c.fingerprint() != out[-1].fingerprint():
            out.append(c)
    return out[::-1]


def transport_mgs(rd, mgs):
    """Push a maximal green sequence for the window torsion class down to
    the reduced algebra.

    Reads the left completion at each node from the one at the node
    above it (_completed_path), drops consecutive duplicates, maps the
    strict chain through the reduction bijection (reduce_pair,
    summand by summand), and certifies the image chain: it runs from the
    shifted pair to the free pair of the reduced algebra, and every step is
    a left mutation by exchange and order (_check_green_chain), so no
    reduced exchange graph is built.  The input chain is certified tilting
    here; each image already was, by reduce_pair.
    """
    alg = rd.pair.algebra
    if not mgs:
        raise PreconditionViolated("empty chain")
    if mgs[0].fingerprint() != tauops.shifted_pair(alg).fingerprint():
        raise PreconditionViolated("chain must start at the zero torsion class")
    if mgs[-1].fingerprint() != rd.bongartz.fingerprint():
        raise PreconditionViolated("chain must end at the window torsion class")
    for pair in mgs:
        tauops._require_tilting(pair)
    _check_green_chain(mgs)

    images = [reduce_pair(rd, c) for c in _completed_path(rd.pair, mgs)]
    if images[0].fingerprint() != tauops.shifted_pair(rd.quotient).fingerprint():
        raise CertificateFailure("transported chain does not start at zero")
    if images[-1].fingerprint() != tauops.free_pair(rd.quotient).fingerprint():
        raise CertificateFailure("transported chain misses the full module class")
    try:
        _check_green_chain(images)
    except PreconditionViolated as exc:
        raise CertificateFailure("a transported step is not a cover") from exc
    return images


def connect_fixed_summand(path, rel_u):
    """Rewrite a mutation path so a fixed projective pair survives it.

    rel_u must be (U, 0) with U projective; then tau U = 0, so the window
    is every pair.  The completions (_completed_path) hold rel_u; identity
    steps are removed and the result is certified to be a mutation path.
    """
    if rel_u.p_summands():
        raise PreconditionViolated("fixed summand must have the form (U, 0)")
    try:
        for rep in rel_u.m_parts:
            modules._projective_vertex(rep)
    except NotProjective as exc:
        raise PreconditionViolated("fixed summand must be projective") from exc
    tauops._require_rigid(rel_u)
    if not path:
        raise PreconditionViolated("empty path")
    for node in path:
        tauops._require_tilting(node)
    if not all(_one_exchange(a, b) for a, b in zip(path, path[1:])):
        raise PreconditionViolated("input is not a mutation path")

    out = _completed_path(rel_u, path)
    if not all(_one_exchange(a, b) for a, b in zip(out, out[1:])):
        raise CertificateFailure("rewritten path is not a mutation path")
    return out


# -- verification sweeps ----------------------------------------------------------


def verify_exchange(algebra, budget=10000):
    """Structural sweep of the exchange graph: degree counts, extremes,
    two completions per almost pair, unimodular g-matrices, and (on small
    graphs) fingerprint soundness against explicit isomorphism tests."""
    graph = build_exchange_graph(algebra, budget=budget)
    failures = []
    if not graph.complete:
        failures.append({"check": "complete"})
    failures.extend(_shape_failures(graph))
    for pair in graph.nodes.values():
        # over QQ by Fraction elimination, independent of the walk's int_det
        if abs(linalg.det([token[1] for token in pair.tokens], linalg.QQ)) != 1:
            failures.append(
                {"check": "unimodular", "node": modules.describe_pair(pair)}
            )
    buckets = {}
    for fp, pair in graph.nodes.items():
        tokens = list(pair.tokens)
        for slot in range(len(tokens)):
            key = tuple(sorted(tokens[:slot] + tokens[slot + 1 :]))
            buckets.setdefault(key, set()).add(fp)
    for key, holders in sorted(buckets.items()):
        if len(holders) != 2:
            failures.append({"check": "two-completions", "count": len(holders)})
    if len(graph.nodes) <= 24:
        pairs = graph.node_list()
        for a in range(len(pairs)):
            for b in range(a + 1, len(pairs)):
                same_m = modules.is_isomorphic(pairs[a].m, pairs[b].m)
                same_p = modules.is_isomorphic(pairs[a].p, pairs[b].p)
                if same_m and same_p:
                    failures.append({"check": "fingerprint-soundness"})
    return {
        "suite": "exchange",
        "nodes": len(graph.nodes),
        "edges": len(graph.edges),
        "complete": graph.complete,
        "failures": failures,
        "pass": not failures,
    }


def verify_mutation_compat(rel_u, graph):
    """Sweep the completion dichotomy over every left edge in the window.

    Per edge the exchange brick predicts whether the two completions
    coincide or differ by one left mutation.  Each window node is
    completed once, by left_bongartz.  A node that holds (U, Q) is its
    own completion, returned with no cone and no certificate; every other
    answer is certified against the module-side characterization (it
    contains U, covers Fac M, and its summands lie in Fac U * Fac M).
    verify_route compares each with the fan search, which tests the rule
    at the nodes that hold U.  The window itself is tested on both sides."""
    tauops._require_rigid(rel_u)
    if not graph.complete:
        raise IncompleteGraph("compatibility sweep needs a complete graph")
    u_c = rel_u.complex
    failures = []
    window = {}
    completion = {}
    for fp, node in graph.nodes.items():
        w_mod = tauops.left_precondition(rel_u, node)
        w_sil = twoterm.hom_k(u_c, node.complex, 1) == 0
        if w_mod != w_sil:
            failures.append(
                {"check": "window", "node": modules.describe_pair(node)}
            )
        window[fp] = w_mod
        if not w_mod:
            continue
        completion[fp] = tauops.left_bongartz(rel_u, node)
    identity_steps = 0
    mutation_steps = 0
    skipped = 0
    edge_set = graph.edge_set()
    for s, t, _ in graph.edges:
        if not window[s]:
            skipped += 1
            continue
        if not window[t]:
            failures.append({"check": "window-shrink"})
            continue
        src, tgt = graph.nodes[s], graph.nodes[t]
        d = tauops.brick_label(src, tgt)
        bs, bt = completion[s], completion[t]
        # Hom is additive: Hom(U, d) = 0 exactly when each Hom(U_i, d) = 0
        if not any(modules._hom_vectors(part, d) for part in rel_u.m_parts):
            mutation_steps += 1
            check = "mutation-branch"
            ok = (
                bs.fingerprint() != bt.fingerprint()
                and tauops.pair_leq(bt, bs)
                and (bs.fingerprint(), bt.fingerprint()) in edge_set
            )
        else:
            identity_steps += 1
            check = "identity-branch"
            ok = bs.fingerprint() == bt.fingerprint()
        if not ok:
            edge = f"{modules.describe_pair(src)} -> {modules.describe_pair(tgt)}"
            failures.append({"check": check, "edge": edge})
    return {
        "suite": "compat",
        "pair": modules.describe_pair(rel_u),
        "edges_checked": identity_steps + mutation_steps,
        "identity_steps": identity_steps,
        "mutation_steps": mutation_steps,
        "skipped": skipped,
        "failures": failures,
        "pass": not failures,
    }


def verify_silting_compat(rel_u, graph):
    """Left-mutation compatibility on the complex side: the completion of
    the smaller node stays silting, sits below, and shares all but at
    most one summand with the completion of the larger node.  Each window
    node is completed once, with its is_silting verdict, and an edge is
    named only in a failure record.  No shift-2 Hom is tested: between
    two-term complexes it vanishes for degree reasons, with no map
    x^i -> y^(i+2) to build it from."""
    tauops._require_rigid(rel_u)
    if not graph.complete:
        raise IncompleteGraph("compatibility sweep needs a complete graph")
    # complexes that carry their summands, so the completions read them
    u_c = rel_u.complex
    n = graph.algebra.n
    completion = {}
    for fp, node in graph.nodes.items():
        if twoterm.hom_k(u_c, node.complex, 1) == 0:
            c = twoterm.left_completion_silting(u_c, node.complex)
            # silting summands are determined by their g-vectors (AIR Thm 5.5)
            tokens = twoterm.to_tau_pair(c).token_counts if twoterm.is_silting(c) else None
            completion[fp] = c, tokens
    failures = []
    identity_steps = 0
    mutation_steps = 0
    skipped = 0
    for s, t, _ in graph.edges:
        if s not in completion:
            skipped += 1
            continue
        check = None
        if t not in completion:
            check = "window-shrink"
        else:
            (ss, fs), (st, ft) = completion[s], completion[t]
            if fs is None or ft is None:
                check = "silting"
            elif fs == ft:
                identity_steps += 1
            else:
                mutation_steps += 1
                if sum((fs & ft).values()) != n - 1 or not twoterm.silting_leq(st, ss):
                    check = "mutation-branch"
        if check:
            src, tgt = graph.nodes[s], graph.nodes[t]
            edge = f"{modules.describe_pair(src)} -> {modules.describe_pair(tgt)}"
            failures.append({"check": check, "edge": edge})
    return {
        "suite": "silting-compat",
        "pair": modules.describe_pair(rel_u),
        "identity_steps": identity_steps,
        "mutation_steps": mutation_steps,
        "skipped": skipped,
        "failures": failures,
        "pass": not failures,
    }


def verify_route(rel_u, graph):
    """The cone construction and the fan search must return the same
    completion at every node inside the window; the fan search runs under
    the graph's node budget."""
    tauops._require_rigid(rel_u)
    if not graph.complete:
        raise IncompleteGraph("route sweep needs a complete graph")
    failures = []
    checked = 0
    for fp, node in graph.nodes.items():
        if not tauops.left_precondition(rel_u, node):
            continue
        checked += 1
        via_cone = tauops.left_bongartz(rel_u, node)
        via_fan = tauops.fan_left_completion(rel_u, node, budget=graph.budget)
        if via_cone.fingerprint() != via_fan.fingerprint():
            failures.append(
                {"check": "route", "node": modules.describe_pair(node)}
            )
    return {
        "suite": "route",
        "pair": modules.describe_pair(rel_u),
        "nodes_checked": checked,
        "failures": failures,
        "pass": not failures,
    }


def verify_dagger(algebra, budget=10000):
    """The duality must map the graph to the opposite-algebra graph with
    all edges reversed and the order flipped."""
    graph = build_exchange_graph(algebra, budget=budget)
    op_graph = build_exchange_graph(algebra.opposite(), budget=budget)
    failures = []
    if not (graph.complete and op_graph.complete):
        failures.append({"check": "complete"})
    dags = {}
    for fp, pair in graph.nodes.items():
        d = tauops.dagger_pair(pair)
        dags[fp] = d
        if tauops.dagger_pair(d).fingerprint() != fp:
            failures.append(
                {"check": "involution", "node": modules.describe_pair(pair)}
            )
    image_fps = {d.fingerprint() for d in dags.values()}
    if image_fps != set(op_graph.nodes) or len(dags) != len(op_graph.nodes):
        failures.append({"check": "node-bijection"})
    op_edges = op_graph.edge_set()
    for s, t, _ in graph.edges:
        if (dags[t].fingerprint(), dags[s].fingerprint()) not in op_edges:
            failures.append({"check": "edge-reversal"})
    if len(graph.edges) != len(op_graph.edges):
        failures.append({"check": "edge-count"})
    node_list = graph.node_list()
    for a in node_list:
        for b in node_list:
            lhs = tauops.pair_leq(a, b)
            rhs = tauops.pair_leq(
                dags[b.fingerprint()], dags[a.fingerprint()]
            )
            if lhs != rhs:
                failures.append({"check": "order-reversal"})
    return {
        "suite": "dagger",
        "nodes": len(graph.nodes),
        "failures": failures,
        "pass": not failures,
    }


def rigid_subpairs(graph, max_size):
    """All rigid subpairs of graph nodes with at most max_size summands,
    one representative per fingerprint, in deterministic order."""
    out = {}
    for node in graph.node_list():
        rows = tauops.pair_summand_list(node)
        for mask in range(1 << len(rows)):
            picked = [rows[k] for k in range(len(rows)) if mask >> k & 1]
            if len(picked) > max_size:
                continue
            sub = modules.pair_from_summands(
                node.algebra,
                [r for kind, r in picked if kind == "m"],
                [r for kind, r in picked if kind == "p"],
            )
            out.setdefault(sub.fingerprint(), sub)
    return [out[fp] for fp in sorted(out)]


def verify_reduction(algebra, budget=10000):
    """Reduce at the empty pair, the free pair, and every one-summand
    rigid pair, certifying the order bijection each time."""
    graph = build_exchange_graph(algebra, budget=budget)
    if not graph.complete:
        raise IncompleteGraph("reduction sweep needs a complete graph")
    candidates = rigid_subpairs(graph, 1)
    top = tauops.free_pair(algebra)
    if top.fingerprint() not in {c.fingerprint() for c in candidates}:
        candidates.append(top)
    failures = []
    reports = []
    for cand in candidates:
        rd = tau_reduction(cand)
        rep = reduction_bijection_check(rd, budget=budget)
        reports.append({k: rep[k] for k in ("pair", "ambient_count", "reduced_count", "pass")})
        if not rep["pass"]:
            failures.append({"check": "bijection", "pair": rep["pair"]})
    return {
        "suite": "reduction",
        "candidates": len(candidates),
        "reports": reports,
        "failures": failures,
        "pass": not failures,
    }


def verify_order_criteria(algebra, budget=10000):
    """Equivalence of the window tests: vanishing of shift-1 maps against
    the node complex and against its module part, the two module side
    conditions, and the torsion class inclusion.  Maps of shift 2 and
    more between two-term complexes vanish for degree reasons, so they
    are not tested."""
    graph = build_exchange_graph(algebra, budget=budget)
    if not graph.complete:
        raise IncompleteGraph("order-criteria sweep needs a complete graph")
    subs = rigid_subpairs(graph, algebra.n)
    # the complexes the pairs carry; the one of (M, 0) is the sum of the
    # module rows' complexes, and hom_k reads every sum part by part
    part_cx = {}
    for fp, node in graph.nodes.items():
        parts = [c for kind, _, c in node.rows if kind == "m"]
        part_cx[fp] = twoterm.sum_of_summands(parts) if parts else twoterm.zero_complex(algebra)
    failures = []
    checked = 0
    for u in subs:
        u_c = u.complex
        tau_um = None if u.m.is_zero() else modules.ar_translate(u.m)
        for fp, node in graph.nodes.items():
            checked += 1
            a = twoterm.hom_k(u_c, node.complex, 1) == 0
            b = twoterm.hom_k(u_c, part_cx[fp], 1) == 0
            c = modules.dim_hom(u.p, node.m) == 0 and (
                tau_um is None
                or tau_um.is_zero()
                or modules.dim_hom(node.m, tau_um) == 0
            )
            d = tauops.left_precondition(u, node)
            if not a == b == c == d:
                failures.append(
                    {
                        "check": "criteria",
                        "pair": modules.describe_pair(u),
                        "node": modules.describe_pair(node),
                        "flags": [a, b, c, d],
                    }
                )
    return {
        "suite": "order-criteria",
        "pairs": len(subs),
        "checked": checked,
        "failures": failures,
        "pass": not failures,
    }
