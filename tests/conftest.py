import pytest

from tautilt import linalg, modules
from tautilt import twoterm as tt
from tautilt.algebra import Quiver, Relation, compile_bound_quiver
from tautilt.linalg import QQ


def linear(n, field=QQ):
    """Linear A_n quiver 1 -> 2 -> ... -> n, no relations."""
    labels = [str(i + 1) for i in range(n)]
    arrows = [(f"a{i}", labels[i], labels[i + 1]) for i in range(n - 1)]
    return compile_bound_quiver(Quiver(labels, arrows), [], field)


def cycle(n, field=QQ, length=2):
    """The oriented n-cycle (a loop for n = 1) with all paths of the given
    length killed; length two gives a radical-square-zero Nakayama
    algebra."""
    labels = [str(i + 1) for i in range(n)]
    arrows = [(f"a{i}", labels[i], labels[(i + 1) % n]) for i in range(n)]
    q = Quiver(labels, arrows)
    rels = [
        Relation(q, [(1, tuple(f"a{(i + k) % n}" for k in range(length)))]) for i in range(n)
    ]
    return compile_bound_quiver(q, rels, field)


def preprojective_algebra(n, field=QQ, bound=12):
    """The preprojective algebra of A_n, with arrows a_i: i -> i+1 and
    b_i: i+1 -> i, a1*b1 = 0, b_i*a_i = a_(i+1)*b_(i+1) and
    b_(n-1)*a_(n-1) = 0; its dimension is n(n+1)(n+2)/6."""
    labels = [str(i + 1) for i in range(n)]
    arrows = [(f"a{i}", labels[i - 1], labels[i]) for i in range(1, n)]
    arrows += [(f"b{i}", labels[i], labels[i - 1]) for i in range(1, n)]
    q = Quiver(labels, arrows)
    rels = [Relation(q, [(1, ("a1", "b1"))])]
    rels += [
        Relation(q, [(1, (f"b{i}", f"a{i}")), (-1, (f"a{i + 1}", f"b{i + 1}"))])
        for i in range(1, n - 1)
    ]
    rels.append(Relation(q, [(1, (f"b{n - 1}", f"a{n - 1}"))]))
    return compile_bound_quiver(q, rels, field, length_bound=bound)


def hom_maps(x, y):
    """A basis of Hom(x, y), each map as its matrices at the vertices
    (dims_x[v] rows of length dims_y[v], acting on row vectors).

    A family (f_v) is a map when x_b f_j = f_i y_b for every radical
    basis element b with Peirce pair (i, j).  The system is set up here
    and solved by linalg alone, so the cross-checks that read it share no
    code with the Hom routines of the package.
    """
    alg = x.algebra
    field = alg.field
    unknown = {}
    for v in range(alg.n):
        for r in range(x.dims[v]):
            for c in range(y.dims[v]):
                unknown[v, r, c] = len(unknown)
    equations = []
    for b in alg.radical_indices():
        i, j = alg.peirce[b]
        for r in range(x.dims[i]):
            for c in range(y.dims[j]):
                row = [field.zero] * len(unknown)
                for s in range(x.dims[j]):
                    row[unknown[j, s, c]] += x.mats[b][r][s]
                for t in range(y.dims[i]):
                    row[unknown[i, r, t]] -= y.mats[b][t][c]
                equations.append(row)
    return [
        [
            [[vec[unknown[v, r, c]] for c in range(y.dims[v])] for r in range(x.dims[v])]
            for v in range(alg.n)
        ]
        for vec in linalg.right_nullspace(equations, field, cols=len(unknown))
    ]


def image_rows(gen, x):
    """Per vertex of x, the rows of the images of the hom_maps gen -> x."""
    maps = hom_maps(gen, x)
    return [[row for f in maps for row in f[v]] for v in range(len(x.dims))]


def whole_complex(pair):
    """The two-term complex of a pair built from its whole modules: the
    minimal presentation P1 -> P0 of M, plus P_v[1] for each summand P_v
    of P.  It is a bare complex, carrying no parts."""
    alg = pair.algebra
    pres = modules.min_proj_presentation(pair.m)
    shifted = [modules._projective_vertex(rep) for rep, k in pair.p_summands() for _ in range(k)]
    pad = [alg.zero_element()] * len(shifted)
    return tt.ProjectiveComplex(
        alg,
        {-1: list(pres.p1.vertices) + shifted, 0: pres.p0.vertices},
        {-1: [list(row) + pad for row in pres.blocks]},
    )


@pytest.fixture(scope="session")
def a2():
    """Linear A2 quiver 1 -> 2, no relations, over Q."""
    q = Quiver(["1", "2"], [("a", "1", "2")])
    return compile_bound_quiver(q, [], QQ)


@pytest.fixture(scope="session")
def a3():
    """Linear A3 quiver 1 -> 2 -> 3, no relations, over Q."""
    q = Quiver(["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3")])
    return compile_bound_quiver(q, [], QQ)


@pytest.fixture(scope="session")
def cyc3():
    """Oriented 3-cycle with all length-two paths killed.

    Arrows a3: 1 -> 2, a1: 2 -> 3, a2: 3 -> 1 and relations
    a1*a2 = a2*a3 = a3*a1 = 0.  Self-injective Nakayama, dimension 6.
    """
    q = Quiver(["1", "2", "3"], [("a3", "1", "2"), ("a1", "2", "3"), ("a2", "3", "1")])
    rels = [
        Relation(q, [(1, ("a1", "a2"))]),
        Relation(q, [(1, ("a2", "a3"))]),
        Relation(q, [(1, ("a3", "a1"))]),
    ]
    return compile_bound_quiver(q, rels, QQ)


@pytest.fixture(scope="session")
def point():
    """One vertex, no arrows: the ground field as an algebra."""
    return compile_bound_quiver(Quiver(["1"], []), [], QQ)


@pytest.fixture(scope="session")
def pi_a3(preprojective):
    """Preprojective algebra of A3: arrows a1: 1 -> 2, a2: 2 -> 3 and their
    reverses b1, b2, with a1*b1 = b1*a1 - a2*b2 = b2*a2 = 0.  End(P2) is
    local of dimension 2."""
    return preprojective(3)


@pytest.fixture(scope="session")
def preprojective():
    """The builder preprojective_algebra, for tests that take it as a
    fixture."""
    return preprojective_algebra


@pytest.fixture(scope="session")
def sqrt2_module():
    """Kronecker module over Q with arrows I and b = [[0, 2], [1, 0]].  Its
    End is Q[b] with b^2 = 2, a field larger than Q, so it is an
    indecomposable brick whose End is not local with residue field Q."""
    q = Quiver(["1", "2"], [("a", "1", "2"), ("b", "1", "2")])
    alg = compile_bound_quiver(q, [], QQ)
    return modules.rep_from_arrows(alg, (2, 2), {"a": [[1, 0], [0, 1]], "b": [[0, 2], [1, 0]]})
