"""Content caches on the algebra: each torsion-free part, Fac membership,
pair check, per-summand completion cone, reduction image, ProjSum, Hom
basis and summand complex is computed once per content, and a warm cache
answers as a cold one does."""

import copy
import sys
from collections import Counter
from fractions import Fraction

import pytest

from tautilt import explorer as ex
from tautilt import linalg
from tautilt import modules as md
from tautilt import tauops as to
from tautilt import twoterm as tt
from tautilt import workspace as wk
from tautilt.errors import PreconditionViolated

from conftest import image_rows

TEXT = {
    "A3": "vertex 1 2 3\narrow a 1 2\narrow b 2 3\n",
    "cyc3": (
        "vertex 1 2 3\narrow a 1 2\narrow b 2 3\narrow c 3 1\n"
        "relation a*b\nrelation b*c\nrelation c*a\n"
    ),
    "cyc4": (
        "vertex 1 2 3 4\narrow a 1 2\narrow b 2 3\narrow c 3 4\narrow d 4 1\n"
        "relation a*b\nrelation b*c\nrelation c*d\nrelation d*a\n"
    ),
    "A4": "vertex 1 2 3 4\narrow a 1 2\narrow b 2 3\narrow c 3 4\n",
}


def _fresh(name, field="Q"):
    return wk.parse_workspace(f"field {field}\n" + TEXT[name]).algebra


# A3, cyc3, cyc4 and Pi(A3) over Q, and cyc3 over F_3
CHECKED = ("A3", "cyc3", "cyc4", "PiA3", "cyc3/F3")


def _checked(name, preprojective):
    if name == "PiA3":
        return preprojective(3)
    if name == "cyc3/F3":
        return _fresh("cyc3", "F 3")
    return _fresh(name)


def test_compat_sweeps_take_each_trace_once(monkeypatch):
    alg = _fresh("cyc3")
    graph = ex.build_exchange_graph(alg)
    traced, decided, identity = Counter(), Counter(), Counter()
    quotient, fills, fac = md._quotient_by_basis, md._fills, md.fac_contains

    def counted(x, closed):
        # count only the quotients that torsion_free_part builds
        caller = sys._getframe(1)
        if caller.f_code is md.torsion_free_part.__code__:
            traced[caller.f_locals["gen_keys"], x.key()] += 1
        return quotient(x, closed)

    def counted_fills(gens, x):
        # each Fac membership decided from image ranks
        decided[frozenset(g.key() for g in gens), x.key()] += 1
        return fills(gens, x)

    def counted_fac(gens, gen_keys, xs):
        # each Fac membership answered by identity: x is one of the gens
        def reached(x):
            if not x.is_zero() and x.key() in gen_keys:
                identity[gen_keys, x.key()] += 1
            return x

        return fac(gens, gen_keys, (reached(x) for x in xs))

    monkeypatch.setattr(md, "_quotient_by_basis", counted)
    monkeypatch.setattr(md, "_fills", counted_fills)
    monkeypatch.setattr(md, "fac_contains", counted_fac)
    for rel in ex.rigid_subpairs(graph, 1):
        for sweep in (ex.verify_mutation_compat, ex.verify_silting_compat):
            assert sweep(rel, graph)["pass"]
    assert len(traced) + len(decided) + len(identity) > 50
    assert max(traced.values()) == 1
    assert max(decided.values()) == 1


def test_fills_never_tests_one_of_its_gens(monkeypatch):
    # a module that is one of the gens lies in their Fac by definition, so
    # no membership reaching the rank test is one of those
    alg = _fresh("cyc3")
    graph = ex.build_exchange_graph(alg)
    fills, tested = md._fills, []

    def checked(gens, x):
        assert x.key() not in {g.key() for g in gens}
        tested.append(x)
        return fills(gens, x)

    monkeypatch.setattr(md, "_fills", checked)
    for rel in ex.rigid_subpairs(graph, 1):
        assert ex.verify_mutation_compat(rel, graph)["pass"]
        assert ex.verify_route(rel, graph)["pass"]
    assert ex.verify_reduction(alg)["pass"]
    assert len(tested) > 20


@pytest.mark.parametrize("name", ["A3", "cyc3", "cyc4"])
def test_brick_labels_are_built_once_per_edge(name, monkeypatch):
    # the compat sweep over every one-summand rigid pair and the dot
    # output label each edge; the label is built once, then read back
    alg = _fresh(name)
    graph = ex.build_exchange_graph(alg)
    built = Counter()
    radical = md._radical_generators

    def counted(endos, ident):
        caller = sys._getframe(1)
        if caller.f_code is to.brick_label.__code__:
            built[caller.f_locals["old"].fingerprint(), caller.f_locals["new"].fingerprint()] += 1
        return radical(endos, ident)

    monkeypatch.setattr(md, "_radical_generators", counted)
    for rel in ex.rigid_subpairs(graph, 1):
        assert ex.verify_mutation_compat(rel, graph)["pass"]
    ex.graph_dot(graph)
    assert built == Counter((s, t) for s, t, _ in graph.edges)


def test_transport_reads_the_bijection_images(monkeypatch):
    alg = _fresh("cyc3")
    graph = ex.build_exchange_graph(alg)
    functor = ex.reduction_functor
    armed = []

    def refuse_when_armed(rd, x):
        if armed:
            raise AssertionError("transport recomputed a reduction image")
        return functor(rd, x)

    monkeypatch.setattr(ex, "reduction_functor", refuse_when_armed)
    transported = 0
    for rel in ex.rigid_subpairs(graph, 1):
        rd = ex.tau_reduction(rel)
        assert ex.reduction_bijection_check(rd)["pass"]
        armed.append(True)
        for chain in ex.maximal_green_sequences(graph, rd.bongartz):
            assert ex.transport_mgs(rd, chain)
            transported += 1
        armed.clear()
    assert transported > 20


@pytest.mark.parametrize("name", ["A3", "cyc3"])
def test_left_bongartz_sweep_approximates_each_input_once(name, monkeypatch):
    alg = _fresh(name)
    graph = ex.build_exchange_graph(alg)
    inputs = Counter()
    approx = tt.min_left_approx

    def counted(x, parts):
        inputs[x.key(), tuple(p.key() for p in parts)] += 1
        return approx(x, parts)

    monkeypatch.setattr(tt, "min_left_approx", counted)
    for u in ex.rigid_subpairs(graph, alg.n - 1):
        for node in graph.node_list():
            if to.left_precondition(u, node):
                to.left_bongartz(u, node)
    assert len(inputs) > 50
    assert max(inputs.values()) == 1


@pytest.mark.parametrize("name", CHECKED)
def test_left_cone_shortcut_matches_the_approximated_cone(name, preprojective):
    # where Hom(t_i, u_j[1]) vanishes for every part u_j of u, the minimal
    # approximation of t_i[-1] is the zero map, so the construction spelled
    # out here gives t_i back as the one summand of its cone, as the cached
    # left_cone entry says; elsewhere there is something to approximate
    alg = _checked(name, preprojective)
    graph = ex.build_exchange_graph(alg)
    seen, kinds = set(), Counter()
    for u in ex.rigid_subpairs(graph, alg.n - 1):
        uc = u.complex
        u_parts = [c for c, _ in tt.decompose_complex(uc)]
        for node in graph.node_list():
            if not to.left_precondition(u, node):
                continue
            t = node.complex
            tt.left_completion_silting(uc, t)
            for ti, _ in tt.decompose_complex(t):
                key = ("left_cone", tuple(c.key() for c in u_parts), ti.key())
                if key in seen:
                    continue
                seen.add(key)
                x = ti.shift(-1)
                target, blocks = tt.min_left_approx(x, u_parts)
                cone = tt.minimalize(tt.cone(x, target, blocks))
                split = [c.key() for c, _ in tt.decompose_complex(cone)]
                assert [c.key() for c in alg.cache[key]] == split
                if all(tt.hom_k(ti, c, 1) == 0 for c in u_parts):
                    assert split == [ti.key()]
                    kinds["own cone"] += 1
                else:
                    assert not target.is_zero()
                    kinds["approximated"] += 1
    assert kinds["own cone"] > 0 and kinds["approximated"] > 0


@pytest.mark.parametrize("name", CHECKED)
def test_sweeps_read_the_verdict_of_walked_pairs(name, preprojective, monkeypatch):
    # the walk certifies each node support tau-tilting and the node carries
    # that verdict: after the walk, no compat or route sweep classifies a
    # pair with the summands of a walked node again
    alg = _checked(name, preprojective)
    graph = ex.build_exchange_graph(alg)
    walked = {node.check_key for node in graph.node_list()}
    classified = []
    check = md._check_pair

    def recorded(pair):
        classified.append(pair.check_key)
        return check(pair)

    monkeypatch.setattr(md, "_check_pair", recorded)
    for u in ex.rigid_subpairs(graph, alg.n - 1):
        assert ex.verify_mutation_compat(u, graph)["pass"]
        assert ex.verify_route(u, graph)["pass"]
    assert classified
    assert not walked.intersection(classified)


@pytest.mark.parametrize("name", ["A3", "cyc3", "cyc3/F3"])
def test_no_sweep_assembles_the_complex_of_a_pair(name, preprojective, monkeypatch):
    # pairs carry their complexes as sums of parts (sum_of_summands) and
    # every reader takes the parts, so the one sum ever assembled is the
    # target of an approximation
    alg = _checked(name, preprojective)
    callers = Counter()
    direct_sum = tt.direct_sum_complexes

    def recorded(parts):
        callers[sys._getframe(1).f_code.co_name] += 1
        return direct_sum(parts)

    monkeypatch.setattr(tt, "direct_sum_complexes", recorded)
    graph = ex.build_exchange_graph(alg)
    transported = 0
    for u in ex.rigid_subpairs(graph, alg.n - 1):
        assert ex.verify_mutation_compat(u, graph)["pass"]
        assert ex.verify_silting_compat(u, graph)["pass"]
        assert ex.verify_route(u, graph)["pass"]
        rd = ex.tau_reduction(u)
        assert ex.reduction_bijection_check(rd)["pass"]
        for chain in ex.maximal_green_sequences(graph, rd.bongartz):
            assert ex.transport_mgs(rd, chain)
            transported += 1
    assert transported > 9
    assert set(callers) == {"min_left_approx"}


@pytest.mark.parametrize("name", CHECKED)
def test_silting_compat_completes_each_window_node_once(name, preprojective, monkeypatch):
    # one left_completion_silting per window node, with its verdict read
    # by every edge at that node, not one per end of every window edge
    alg = _checked(name, preprojective)
    graph = ex.build_exchange_graph(alg)
    complete, anchors = tt.left_completion_silting, Counter()

    def counted(u, t):
        anchors[t.key()] += 1
        return complete(u, t)

    monkeypatch.setattr(tt, "left_completion_silting", counted)
    for u in ex.rigid_subpairs(graph, alg.n - 1):
        window = Counter(
            node.complex.key()
            for node in graph.node_list()
            if tt.hom_k(u.complex, node.complex, 1) == 0
        )
        anchors.clear()
        rep = ex.verify_silting_compat(u, graph)
        assert rep["pass"] and rep["identity_steps"] + rep["mutation_steps"] > 0
        assert anchors == window


@pytest.mark.parametrize("name", CHECKED)
def test_order_criteria_builds_no_complex_after_the_walk(name, preprojective, monkeypatch):
    # the pairs carry their complexes, and the complex of (M, 0) is the
    # sum of the module rows' complexes, so after the walk the report
    # builds no complex with a term and assembles no sum
    alg = _checked(name, preprojective)
    walked, built = [], Counter()
    walk, init, direct_sum = ex.build_exchange_graph, tt.ProjectiveComplex.__init__, tt.direct_sum_complexes

    def walk_once(algebra, budget):
        walked.append(walk(algebra, budget=budget))
        return walked[-1]

    def recorded_init(self, algebra, terms, diffs, check=True):
        if walked and any(terms.values()):
            built[sys._getframe(1).f_code.co_name] += 1
        init(self, algebra, terms, diffs, check)

    def recorded_sum(parts):
        if walked:
            built["direct_sum_complexes"] += 1
        return direct_sum(parts)

    monkeypatch.setattr(ex, "build_exchange_graph", walk_once)
    monkeypatch.setattr(tt.ProjectiveComplex, "__init__", recorded_init)
    monkeypatch.setattr(tt, "direct_sum_complexes", recorded_sum)
    rep = ex.verify_order_criteria(alg)
    assert rep["pass"] and rep["checked"] == rep["pairs"] * len(walked[0]) > 0
    assert not built


@pytest.mark.parametrize("name", ["A3", "cyc3", "cyc3/F3"])
def test_no_sweep_reads_the_sum_modules_of_a_pair(name, preprojective, monkeypatch):
    # the window, wide subcategory and torsion part of a pair (U, Q) are
    # read from the summands it carries, so no sweep builds U or Q
    alg = _checked(name, preprojective)
    readers = Counter()

    def recorded(attr):
        build = getattr(md.TauPair, attr).func

        def read(pair):
            readers[attr, sys._getframe(1).f_code.co_name] += 1
            if attr not in pair.__dict__:
                pair.__dict__[attr] = build(pair)
            return pair.__dict__[attr]

        def store(pair, value):
            pair.__dict__[attr] = value

        return property(read, store)

    for attr in ("m", "p"):
        monkeypatch.setattr(md.TauPair, attr, recorded(attr))
    graph = ex.build_exchange_graph(alg)
    projective = {md.summand_token("m", md.projective(alg, v)) for v in range(alg.n)}
    transported = connected = 0
    for u in ex.rigid_subpairs(graph, alg.n - 1):
        assert ex.verify_mutation_compat(u, graph)["pass"]
        assert ex.verify_route(u, graph)["pass"]
        rd = ex.tau_reduction(u)
        assert ex.reduction_bijection_check(rd)["pass"]
        for chain in ex.maximal_green_sequences(graph, rd.bongartz):
            assert ex.transport_mgs(rd, chain)
            transported += 1
            if set(u.tokens) <= projective:
                assert ex.connect_fixed_summand(chain, u)
                connected += 1
    assert transported > 9 and connected > 0
    assert not readers


def test_compat_sweep_approximates_only_summands_with_maps_into_u(monkeypatch):
    # after the walk, every approximation the completions of the compat
    # sweep make has a candidate, and some left_cone entries were stored
    # without one
    alg = _fresh("cyc3")
    graph = ex.build_exchange_graph(alg)
    approximated, inputs = set(), []
    approx = tt.min_left_approx
    completion = tt.left_completion_silting.__code__

    def recorded(x, parts):
        caller = sys._getframe(1)
        if caller.f_code is completion:
            approximated.add(caller.f_locals["key"])
            inputs.append((x, parts))
        return approx(x, parts)

    monkeypatch.setattr(tt, "min_left_approx", recorded)
    for rel in ex.rigid_subpairs(graph, 1):
        assert ex.verify_mutation_compat(rel, graph)["pass"]
    assert inputs
    for x, parts in inputs:
        assert any(tt.hom_k(x, c) for c in parts)
    own = [key for key in alg.cache if key[0] == "left_cone" and key not in approximated]
    assert own
    for key in own:
        assert [c.key() for c in alg.cache[key]] == [key[2]]


@pytest.mark.parametrize("name", ["A3", "cyc3"])
def test_left_bongartz_sweep_reads_the_carried_complexes(name, monkeypatch):
    # graph nodes carry the complexes of their summands from the walk, and
    # rigid subpairs from pair_from_summands, so the sweep builds none; only
    # the split of a cone, which carries no parts, builds the complex of
    # each summand of its H^0
    alg = _fresh(name)
    graph = ex.build_exchange_graph(alg)
    subs = ex.rigid_subpairs(graph, alg.n - 1)
    built, from_cones, splitting = [], [], []
    split_h0 = tt.decompose_complex
    completion = tt.left_completion_silting.__code__

    def split(t):
        cone = t.parts is None and sys._getframe(1).f_code is completion
        splitting.append(cone)
        try:
            return split_h0(t)
        finally:
            splitting.pop()

    monkeypatch.setattr(tt, "decompose_complex", split)
    summand_complex = tt.summand_complex

    def counted(*args):
        (from_cones if splitting and splitting[-1] else built).append(args)
        return summand_complex(*args)

    monkeypatch.setattr(tt, "summand_complex", counted)
    completed = 0
    for u in subs:
        for node in graph.node_list():
            if to.left_precondition(u, node):
                to.left_bongartz(u, node)
                completed += 1
    assert completed > 50
    assert built == []
    assert from_cones


FAMILIES = (
    "torsion_free", "fac", "check_pair", "left_cone", "hom_rep",
    "projsum", "hom_maps", "summand_complex",
)


def _answers(alg, reductions):
    # the answers of every new cache family over the one-summand rigid
    # pairs of the graph and its nodes; reductions are kept per algebra so
    # a second call reads the reduction images of the first
    graph = ex.build_exchange_graph(alg)
    nodes = graph.node_list()
    out = [to.pair_leq(a, b) for a in nodes for b in nodes]
    for k, u in enumerate(ex.rigid_subpairs(graph, 1)):
        if k not in reductions:
            reductions[k] = ex.tau_reduction(u)
        rd = reductions[k]
        uc = u.complex
        for node in nodes:
            q = md.torsion_free_part(u.m_parts, u.m_keys, node.m)
            maps = md.hom_basis(u.m, node.m)
            out.append((q.key(), [f.mats for f in maps], md.check_pair(node)))
            out.append([tt.summand_complex(kind, rep).key() for kind, rep, _ in node.rows])
            if to.left_precondition(u, node):
                tc = node.complex
                out.append(tt.left_completion_silting(uc, tc).key())
            if to.contains_pair(node, u):
                image = ex.reduce_pair(rd, node)
                out.append((image.fingerprint(), image.m.key(), image.p.key()))
    return out


def _entries(alg, reductions):
    families = Counter(key[0] for key in alg.cache if isinstance(key, tuple))
    reduced = Counter(key[0] for rd in reductions.values() for key in rd.quotient.cache)
    return [families[f] for f in FAMILIES] + [reduced["reduce_pair"], reduced["reduce_image"]]


def test_warm_caches_answer_as_a_cold_twin():
    warm, warm_rds = _fresh("cyc3"), {}
    _answers(warm, warm_rds)
    filled = _entries(warm, warm_rds)
    assert min(filled) > 0
    again = _answers(warm, warm_rds)
    assert _entries(warm, warm_rds) == filled  # every answer was a hit
    assert again == _answers(_fresh("cyc3"), {})


def test_walk_computes_each_chain_hom_once(monkeypatch):
    # the walk reads the Hom data of each (summand, part) and each pair of
    # parts from the content caches, over A and, for right mutations, A^op
    alg = _fresh("cyc4")
    computed = Counter()
    chain_hom_data = tt.chain_hom_data

    def counted(x, y, shift=0):
        computed[x.algebra is alg, x.key(), y.key(), shift] += 1
        return chain_hom_data(x, y, shift)

    monkeypatch.setattr(tt, "chain_hom_data", counted)
    graph = ex.build_exchange_graph(alg)
    assert len(computed) > 50
    assert max(computed.values()) == 1
    assert (len(graph), len(graph.edges)) == (34, 68)
    assert len(ex.maximal_green_sequences(graph, to.free_pair(alg))) == 68


def test_check_pair_refuses_a_non_basic_pair_on_every_call():
    alg = _fresh("cyc3")
    p1 = md.projective(alg, 0)
    twice = md.pair_from_summands(alg, [p1, p1], [])
    for _ in range(2):
        with pytest.raises(PreconditionViolated):
            md.check_pair(twice)
    once = md.pair_from_summands(alg, [p1], [])
    report = md.check_pair(once)
    report["role"] = "changed"
    assert md.check_pair(once)["role"] == "rigid"


def test_content_keys_behave_as_plain_tuples():
    alg = _fresh("cyc3")
    graph = ex.build_exchange_graph(alg)
    module_keys, complex_keys = [], []
    for node in graph.node_list():
        module_keys += [node.m.key(), node.p.key()]
        t = node.complex
        complex_keys += [t.key()] + [c.key() for c, _ in tt.decompose_complex(t)]
    for keys in (module_keys, complex_keys):
        plain = [tuple(k) for k in keys]
        for k, p in zip(keys, plain):
            assert type(p) is tuple and isinstance(k, tuple)
            assert k == p and p == k
            assert hash(k) == hash(p)  # computed
            assert hash(k) == hash(p)  # read back
        order = sorted(range(len(keys)), key=lambda i: keys[i])
        assert order == sorted(range(len(plain)), key=lambda i: plain[i])
        assert len(set(keys)) == len(set(plain))


def _misplaced_scalars(root):
    """Every float, and every Fraction with denominator 1, reachable from
    root through containers and tautilt objects."""
    bad, seen, stack = [], set(), [root]
    while stack:
        obj = stack.pop()
        if isinstance(obj, (float, Fraction)):
            if isinstance(obj, float) or obj.denominator == 1:
                bad.append(obj)
            continue
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, dict):
            stack += list(obj.items())
        elif isinstance(obj, (list, tuple, set, frozenset)):
            stack += obj
        elif type(obj).__module__.startswith("tautilt."):
            stack += vars(obj).values() if hasattr(obj, "__dict__") else []
            stack += [getattr(obj, n) for n in getattr(type(obj), "__slots__", ()) if hasattr(obj, n)]
    return bad


def test_q_scalars_are_ints_when_integral(preprojective):
    # every Hom vector, module matrix and structure constant cached by the
    # walks and the sweep holds ints where integral, and no float
    walked = [_fresh("A4"), _fresh("cyc4"), preprojective(3)]
    for alg in walked:
        assert len(to.silting_closure(alg)[0]) > 20
    alg = _fresh("cyc3")
    graph = ex.build_exchange_graph(alg)
    for u in ex.rigid_subpairs(graph, alg.n - 1):
        for node in graph.node_list():
            if to.left_precondition(u, node):
                to.left_bongartz(u, node)
    for alg in walked + [alg]:
        assert len(alg.cache) > 100
        assert _misplaced_scalars(alg) == []


def _generic_quotient(gen, x):
    # the images of the maps gen -> x closed into a submodule, then x
    # modulo that submodule, closed again
    _, incl = md.submodule(x, image_rows(gen, x))
    return md.quotient(x, incl.mats)[0]


def _in_trace(gen, x):
    # whether the images of the maps gen -> x span x at every vertex
    for d, rows in zip(x.dims, image_rows(gen, x)):
        if d and (not rows or linalg.rank(rows, x.field) != d):
            return False
    return True


@pytest.mark.parametrize("name", CHECKED)
def test_pair_leq_matches_the_trace_of_the_whole_module(name, preprojective):
    # Fac M <= Fac M' exactly when M lies in the trace of M', tested on the
    # whole modules, with no summand, key set or cached membership
    alg = _checked(name, preprojective)
    nodes = ex.build_exchange_graph(alg).node_list()
    below = 0
    for a in nodes:
        for b in nodes:
            leq = to.pair_leq(a, b)
            assert leq == _in_trace(b.m, a.m)
            below += leq
    assert len(nodes) < below < len(nodes) ** 2


@pytest.mark.parametrize("name", CHECKED)
def test_torsion_free_part_matches_the_generic_quotient(name, preprojective):
    alg = _checked(name, preprojective)
    nodes = ex.build_exchange_graph(alg).node_list()
    summands = list({
        rep.key(): rep for node in nodes for kind, rep, _ in node.rows if kind == "m"
    }.values())
    partial = 0
    for gen in [node.m for node in nodes] + summands:
        for x in summands:
            q = md.torsion_free_part([gen], frozenset([gen.key()]), x)
            assert q.key() == _generic_quotient(gen, x).key()
            partial += 0 < q.total_dim() < x.total_dim()
    assert partial > 0


def test_right_bongartz_writes_no_op_side_pair_or_test():
    # after the walk of cyc3, the right completion of every rigid subpair,
    # at (A, 0) and at every anchor whose Fac holds U, is certified on A:
    # the cache of A^op gets no pair, module-side test or completion
    alg = _fresh("cyc3")
    graph = ex.build_exchange_graph(alg)
    families = {"pair", "check_pair", "window", "left_bongartz", "fac", "torsion_free"}
    completed = 0
    for u in ex.rigid_subpairs(graph, alg.n):
        to.right_bongartz(u)
        for anchor in graph.node_list():
            if to.pair_leq(u, anchor):
                to.right_bongartz(u, anchor)
                completed += 1
    written = [key for key in alg.opposite().cache if isinstance(key, tuple) and key[0] in families]
    assert written == [] and completed > 200


def test_shared_objects_stay_as_built(monkeypatch):
    # Hom bases, ProjSums and summand complexes are built once per content
    # and shared; after a walk, a compat sweep, a tau_reduction, a brick
    # label on the reduced graph and the duality check, which walks A^op
    # and takes the dual of every node, no shared map has changed, and
    # callers get a list of their own
    alg = _fresh("cyc3")
    first, built = {}, Counter()
    hom_basis, proj_sum = md.hom_basis, md.ProjSum

    def watched(x, y):
        maps = hom_basis(x, y)
        key = ("hom_maps", x.key(), y.key())
        first.setdefault((x.algebra, key), copy.deepcopy([f.mats for f in maps]))
        return maps

    class Counted(proj_sum):
        def __init__(self, algebra, vertices):
            built[algebra, tuple(vertices)] += 1
            super().__init__(algebra, vertices)

    monkeypatch.setattr(md, "hom_basis", watched)
    monkeypatch.setattr(md, "ProjSum", Counted)
    graph = ex.build_exchange_graph(alg)
    rels = ex.rigid_subpairs(graph, 1)
    for rel in rels:
        assert ex.verify_mutation_compat(rel, graph)["pass"]
    rd = ex.tau_reduction(rels[0])
    assert ex.reduction_bijection_check(rd)["pass"]
    # the label builds Hom bases over the reduced algebra, a second algebra
    reduced = ex.build_exchange_graph(rd.quotient)
    s, t, _ = reduced.edges[0]
    to.brick_label(reduced.nodes[s], reduced.nodes[t])
    assert ex.verify_dagger(alg)["pass"]

    assert len(first) > 10 and {a for a, _ in first} > {alg}
    for (algebra, key), mats in first.items():
        assert [f.mats for f in algebra.cache[key]] == mats
    x = next(node.m for node in graph.node_list() if md.dim_hom(node.m, node.m) > 1)
    maps = md.hom_basis(x, x)
    want = [f.mats for f in maps]
    maps.append(maps[0])
    maps.reverse()
    assert [f.mats for f in md.hom_basis(x, x)] == want

    assert len(built) > 5 and max(built.values()) == 1
    assert {a for a, _ in built} >= {alg, alg.opposite()}
    for c in [c for node in graph.node_list() for c in node.complex.parts]:
        for i in (-1, 0):
            assert c.projsum(i) is md._proj_sum(alg, list(c.term_vertices(i)))
    for node in graph.node_list():
        for kind, rep, c in node.rows:
            twin = md.Representation(alg, rep.dims, rep.mats, check=False)
            assert twin is not rep
            shared = tt.summand_complex(kind, rep)
            assert tt.summand_complex(kind, twin) is shared and shared.key() == c.key()


# ---------------------------------------------------------------------------
# one shared pair per row content


@pytest.mark.parametrize("name", CHECKED)
def test_completions_are_the_walked_nodes(name, preprojective):
    # every left completion at a window node and every right completion,
    # for every rigid subpair with at most n - 1 summands, is the walked
    # node itself, not a second pair with its rows
    alg = _checked(name, preprojective)
    graph = ex.build_exchange_graph(alg)
    completed = 0
    for u in ex.rigid_subpairs(graph, alg.n - 1):
        right = to.right_bongartz(u)
        assert right is graph.nodes[right.fingerprint()]
        for node in graph.node_list():
            if to.left_precondition(u, node):
                left = to.left_bongartz(u, node)
                assert left is graph.nodes[left.fingerprint()]
                completed += 1
    assert completed > 200


@pytest.mark.parametrize("name", CHECKED)
def test_reduced_images_are_the_nodes_of_the_reduced_walk(name, preprojective):
    # the images of reduce_pair are the walked nodes of the reduced algebra.
    # At the empty pair of Pi(A3) the reduced algebra is A again, read in
    # the basis of its Hom spaces, and some images carry a summand whose
    # content differs from the walked one: there only the fingerprints
    # meet, and a content twin stays a pair of its own
    alg = _checked(name, preprojective)
    graph = ex.build_exchange_graph(alg)
    shared = 0
    for u in ex.rigid_subpairs(graph, 1):
        rd = ex.tau_reduction(u)
        nodes = {p.fingerprint(): p for p in to.all_pairs(rd.quotient)}
        for node in graph.node_list():
            if not to.contains_pair(node, u):
                continue
            image = ex.reduce_pair(rd, node)
            walked = nodes[image.fingerprint()]
            if name == "PiA3" and not u.rows and image is not walked:
                assert [r.key() for _, r, _ in image.rows] != [r.key() for _, r, _ in walked.rows]
                continue
            assert image is walked
            shared += 1
    assert shared > 50


def _rescaled(rep, v):
    # rep in the basis with the vectors at vertex v doubled: isomorphic to
    # rep, with other matrices
    alg, two = rep.algebra, rep.field(2)
    mats = {}
    for k in alg.radical_indices():
        i, j = alg.peirce[k]
        rows = [[c * two if i == v else c for c in row] for row in rep.mats[k]]
        mats[k] = [[alg.field.div(c, two) if j == v else c for c in row] for row in rows]
    return md.Representation(alg, rep.dims, mats)


@pytest.mark.parametrize("name", CHECKED)
def test_rows_that_differ_in_a_module_are_two_pairs(name, preprojective):
    alg = _checked(name, preprojective)
    graph = ex.build_exchange_graph(alg)
    twins = 0
    for node in graph.node_list():
        rows = list(node.rows)
        assert md.carried_pair(alg, rows) is node
        for k, (kind, rep, c) in enumerate(rows):
            if kind != "m":
                continue
            moved = [t for t in (_rescaled(rep, v) for v in range(alg.n)) if t.key() != rep.key()]
            if not moved:
                continue
            twin = moved[0]
            assert md.is_isomorphic(twin, rep)
            other = rows[:k] + [(kind, twin, c)] + rows[k + 1:]
            pair = md.carried_pair(alg, other)
            assert pair is not node and md.carried_pair(alg, other) is pair
            assert pair.fingerprint() == node.fingerprint()
            assert pair.check_key != node.check_key
            twins += 1
    assert twins > 5


def test_a_workspace_pair_is_not_shared():
    # a pair built from a bare (M, P) finds its summands by decompose and
    # is not the walked node; check_pair still classifies it
    text = "field Q\n" + TEXT["cyc3"] + "pair Top : M = P1 P2 P3 ; P = 0\n"
    ws = wk.parse_workspace(text)
    alg, top = ws.algebra, ws.pair("Top")
    graph = ex.build_exchange_graph(alg)
    walked = graph.nodes[top.fingerprint()]
    assert walked is to.free_pair(alg) and top is not walked
    assert all(p is not top for key, p in alg.cache.items() if key[:1] == ("pair",))
    assert md.check_pair(top) == md.check_pair(walked)
    assert md.check_pair(top)["role"] == "tilting"
    again = wk.parse_workspace(text).pair("Top")
    assert again is not top and md.check_pair(again)["role"] == "tilting"
