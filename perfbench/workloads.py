"""Seeded inputs, timed operations and their answer checks.

Every workload is a list of operations.  An operation has an untimed
``prepare`` step that gives it a cold cache (a freshly parsed algebra, or
the cache as it stood right after the exchange graph was built, which is
what a CLI call that needs the graph starts from), a timed ``run`` step
that calls the public API, and an untimed ``check`` step that compares the
answer with oracles sharing no code with the graph walker.

The seed decides vertex order, arrow names and the order of arrow and
relation lines in the generated workspace text, the order of the algebras
in a pass, and the order of the rigid pairs.  Every seed yields isomorphic
algebras, so the expected counts do not depend on it.
"""

import random

from tautilt import explorer, modules, tauops, workspace


# -- generated workspace text ----------------------------------------------


def workspace_text(family, n, field, order, rng):
    """Workspace text for linear A_n ("A") or the radical-square-zero
    oriented n-cycle ("C"), its vertices listed in the given order, with
    seeded arrow names and seeded order of arrow and relation lines."""
    labels = [f"v{i + 1}" for i in range(n)]
    if family == "A":
        ends = [(i, i + 1) for i in range(n - 1)]
    else:
        ends = [(i, (i + 1) % n) for i in range(n)]
    names = [f"x{k}" for k in range(len(ends))]
    rng.shuffle(names)
    arrows = [f"arrow {names[k]} {labels[s]} {labels[t]}" for k, (s, t) in enumerate(ends)]
    rng.shuffle(arrows)
    relations = []
    if family == "C":
        relations = [f"relation {names[k]}*{names[(k + 1) % n]}" for k in range(n)]
        rng.shuffle(relations)
    listed = " ".join(labels[i] for i in order)
    lines = [f"field {field}", f"vertex {listed}"] + arrows + relations
    return "\n".join(lines) + "\n"


# -- oracles that share no code with the walker ----------------------------


def catalan(k):
    c = 1
    for i in range(k):
        c = c * 2 * (2 * i + 1) // (i + 2)
    return c


def torsion_class_count(indecs):
    """Number of torsion classes, as the fixed points S -> perp(S-perp) of
    the double perp on subsets of the indecomposables.  Only Hom vanishing
    between the listed modules is used."""
    hom = [[modules.dim_hom(x, y) > 0 for y in indecs] for x in indecs]
    size = len(indecs)
    seen = set()
    for mask in range(1 << size):
        members = [i for i in range(size) if mask >> i & 1]
        perp = [j for j in range(size) if not any(hom[i][j] for i in members)]
        seen.add(frozenset(i for i in range(size) if not any(hom[i][j] for j in perp)))
    return len(seen)


# Maximal green sequences from the shifted pair up to the free pair, pinned
# from the seed version of the program.
MGS_COUNTS = {("A", 2): 2, ("A", 3): 9, ("C", 3): 9, ("C", 4): 68}


def expected_nodes(family, n, text):
    """Node count of the exchange graph.  Linear A_n has Catalan C_{n+1}
    support tau-tilting pairs; the radical-square-zero n-cycle has its 2n
    indecomposables P_i and S_i, whose torsion classes are counted on a
    separately parsed copy so the timed algebra's cache stays cold."""
    if family == "A":
        return catalan(n + 1)
    alg = workspace.parse_workspace(text).algebra
    indecs = [modules.projective(alg, i) for i in range(n)]
    indecs += [modules.simple(alg, i) for i in range(n)]
    return torsion_class_count(indecs)


# -- operations --------------------------------------------------------------


class Op:
    """One timed operation: ``prepare`` (untimed), ``run`` (timed) and
    ``check`` (untimed, returns a list of failed check names)."""

    def __init__(self, key, prepare, run, check, algebras):
        self.key = key
        self.prepare = prepare
        self.run = run
        self.check = check
        self.algebras = algebras


class AlgebraCase:
    """One generated algebra: its workspace text, its expected node count,
    and the operations on it."""

    def __init__(self, family, n, field, order, tag, rng):
        self.family = family
        self.n = n
        self.field = field
        self.name = f"{'A' if family == 'A' else 'cyc'}{n}/{field.replace(' ', '')}#{tag}"
        self.text = workspace_text(family, n, field, order, rng)
        self._nodes = None

    def nodes(self):
        if self._nodes is None:
            self._nodes = expected_nodes(self.family, self.n, self.text)
        return self._nodes

    def graph_op(self):
        """build_exchange_graph, then every MGS up to the free pair, on a
        freshly parsed algebra."""
        state = {}

        def prepare():
            state["alg"] = workspace.parse_workspace(self.text).algebra

        def run():
            alg = state["alg"]
            graph = explorer.build_exchange_graph(alg)
            mgs = explorer.maximal_green_sequences(graph, tauops.free_pair(alg))
            return graph, mgs

        def check(result):
            graph, mgs = result
            bad = []
            if not graph.complete:
                bad.append("complete")
            if len(graph) != self.nodes():
                bad.append("nodes")
            if 2 * len(graph.edges) != self.n * len(graph):
                bad.append("edges")
            if len(mgs) != MGS_COUNTS[(self.family, self.n)]:
                bad.append("mgs")
            return bad

        return Op(f"graph {self.name}", prepare, run, check, lambda: [state["alg"]])

    def pair_ops(self, steps, rng):
        """One operation per rigid pair with exactly one summand, in seeded
        order.  The graph is built here, outside the timed steps, and every
        operation starts from the cache as it stood after it."""
        alg = workspace.parse_workspace(self.text).algebra
        graph = explorer.build_exchange_graph(alg)
        if not graph.complete or len(graph) != self.nodes():
            raise RuntimeError(f"exchange graph of {self.name} failed its check")
        # the walk also fills the cache of the opposite algebra
        snapshot = [(a, dict(a.cache)) for a in {alg, alg.cache.get("opposite", alg)}]
        pairs = [
            p for p in explorer.rigid_subpairs(graph, 1) if len(tauops.pair_summand_list(p)) == 1
        ]
        rng.shuffle(pairs)
        state = {}

        def prepare():
            for a, cache in snapshot:
                a.cache = dict(cache)
            state.clear()

        def make(pair):
            def run():
                return [step(pair, graph, state) for step in steps]

            def check(reports):
                return [name for rep in reports for name in rep]

            return Op(
                f"pair {self.name} {modules.describe_pair(pair)}",
                prepare,
                run,
                check,
                lambda: [alg] + [a for rd in state.values() for a in (rd.endo, rd.quotient)],
            )

        return [make(p) for p in pairs]


# Each step returns the names of the checks it failed.


def compat_step(pair, graph, state):
    rep = explorer.verify_mutation_compat(pair, graph)
    return [] if rep["pass"] else ["compat"]


def route_step(pair, graph, state):
    rep = explorer.verify_route(pair, graph)
    return [] if rep["pass"] else ["route"]


def reduction_step(pair, graph, state):
    rd = explorer.tau_reduction(pair)
    state["rd"] = rd
    rep = explorer.reduction_bijection_check(rd)
    bad = [] if rep["pass"] else ["reduction"]
    if rep["ambient_count"] != rep["reduced_count"]:
        bad.append("reduction-count")
    return bad


def transport_step(pair, graph, state):
    """Carry every MGS up to the Bongartz completion into the reduction;
    transport_mgs certifies each image chain against the reduced graph."""
    rd = state["rd"]
    chains = explorer.maximal_green_sequences(graph, rd.bongartz)
    images = [explorer.transport_mgs(rd, chain) for chain in chains]
    bad = [] if chains else ["transport-empty"]
    if any(not im or not im[0].m.is_zero() for im in images):
        bad.append("transport")
    return bad


# -- workloads ---------------------------------------------------------------

WINDOW = [compat_step, route_step]
REDUCE = [reduction_step, transport_step]
PRIME_PAIR = [compat_step, route_step, reduction_step]


def labelings(family, n, field, rng, count):
    """count copies of one algebra.  The seed draws the vertex order of
    the odd copies; each even copy lists the vertices of the copy before it
    in reverse.  The cost of the seeded searches in the program depends on
    whether the listing runs with the arrows or against them, so the pair
    sweeps, which measure many operations on each copy, take two copies."""
    cases = []
    for k in range(0, count, 2):
        order = list(range(n))
        rng.shuffle(order)
        cases.append(AlgebraCase(family, n, field, order, str(k + 1), rng))
        cases.append(AlgebraCase(family, n, field, order[::-1], str(k + 2), rng))
    return cases[:count]


def build(name, seed):
    """(cases, ops) for a workload.  Cases are the workload's generated
    algebras, whose parse time is the set-up time; ops are in seeded order."""
    rng = random.Random(seed)

    def graph_ops(specs, count=1):
        cases = [c for family, n, field in specs for c in labelings(family, n, field, rng, count)]
        return cases, [c.graph_op() for c in cases]

    def pair_ops(family, n, field, count, steps):
        cases = labelings(family, n, field, rng, count)
        return cases, [op for c in cases for op in c.pair_ops(steps, rng)]

    if name == "graph-ladder":
        cases, ops = graph_ops([("A", 3, "Q"), ("C", 3, "Q"), ("C", 4, "Q")])
    elif name == "window-sweep":
        cases, ops = pair_ops("C", 3, "Q", 2, WINDOW)
    elif name == "reduce-transport":
        cases, ops = pair_ops("C", 3, "Q", 2, REDUCE)
    elif name == "prime-field":
        graph_cases, ops = graph_ops([("C", 3, "F 2"), ("C", 3, "F 3")])
        sweep_cases, sweep = pair_ops("C", 3, "F 3", 2, PRIME_PAIR)
        cases, ops = graph_cases + sweep_cases, ops + sweep
    elif name == "known-failures":
        # Linear A3 over F_2 and F_3: the graph walk raises TypeError from
        # the canonical sort in basic_complex.  Not a benchmark workload;
        # run it by hand to see whether the prime-field crash is fixed.
        cases, ops = graph_ops([("A", 3, "F 2"), ("A", 3, "F 3")], 2)
    elif name == "smoke":
        cases, ops = graph_ops([("A", 2, "Q")])
        sweep_cases, sweep = pair_ops("C", 3, "Q", 1, WINDOW + REDUCE)
        cases, ops = cases + sweep_cases, ops + sweep[:2]
    else:
        raise ValueError(f"unknown workload {name!r}")
    rng.shuffle(ops)
    return cases, ops
