import hashlib

import pytest

from tautilt.algebra import (
    BasicAlgebra,
    Quiver,
    Relation,
    compile_bound_quiver,
    is_isomorphic_algebra,
    local_inverse,
)
from tautilt.errors import (
    MalformedRelation,
    NotBasic,
    NotFiniteDimensional,
    SearchBudgetExceeded,
    TautiltError,
)
from tautilt.linalg import QQ, Field


def test_a2_dimension_and_basis(a2):
    assert a2.n == 2
    assert a2.dim == 3
    assert a2.names[:2] == ["e_1", "e_2"]
    assert a2.names[2] == "a"
    assert a2.peirce == [(0, 0), (1, 1), (0, 1)]


def test_point_algebra(point):
    assert point.dim == 1
    assert point.n == 1
    assert point.one() == point.e(0)


def test_cyc3_structure(cyc3):
    assert cyc3.dim == 6
    # every length-two product of arrows dies
    a3, a1, a2 = (cyc3.path_element([lbl]) for lbl in ("a3", "a1", "a2"))
    assert (a1 * a2).is_zero()
    assert (a2 * a3).is_zero()
    assert (a3 * a1).is_zero()
    # composable in the quiver but not killed: none (rad^2 = 0)
    assert cyc3.radical_nilpotency() == 2
    for i in range(3):
        for j in range(3):
            expect = 1 if (i == j or (i, j) in {(0, 1), (1, 2), (2, 0)}) else 0
            assert cyc3.peirce_dim(i, j) == expect


def test_a3_has_length_two_path(a3):
    assert a3.dim == 6
    ab = a3.path_element(["a", "b"])
    assert not ab.is_zero()
    assert {a3.peirce[k] for k in ab.support()} == {(0, 2)}
    assert a3.radical_nilpotency() == 3


def test_validate_is_run_on_compile(a2, cyc3):
    assert a2.validate()
    assert cyc3.validate()


def test_unit_and_idempotents(cyc3):
    one = cyc3.one()
    for k in range(cyc3.dim):
        b = cyc3.basis_element(k)
        assert one * b == b
        assert b * one == b
    for i in range(cyc3.n):
        assert cyc3.e(i) * cyc3.e(i) == cyc3.e(i)
        for j in range(cyc3.n):
            if i != j:
                assert (cyc3.e(i) * cyc3.e(j)).is_zero()


def test_loop_without_relation_is_infinite():
    q = Quiver(["1"], [("x", "1", "1")])
    with pytest.raises(NotFiniteDimensional):
        compile_bound_quiver(q, [], QQ, length_bound=6)
    # three free loops pass the cap on normal words before length 12
    q = Quiver(["1"], [("x", "1", "1"), ("y", "1", "1"), ("z", "1", "1")])
    with pytest.raises(NotFiniteDimensional, match="bound <n>"):
        compile_bound_quiver(q, [], QQ)


def test_loop_with_power_relation():
    q = Quiver(["1"], [("x", "1", "1")])
    rel = Relation(q, [(1, ("x", "x", "x"))])
    alg = compile_bound_quiver(q, [rel], QQ, length_bound=6)
    assert alg.dim == 3  # e, x, x^2
    x = alg.path_element(["x"])
    assert not (x * x).is_zero()
    assert (x * x * x).is_zero()


def test_non_parallel_relation_rejected():
    q = Quiver(["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3"), ("c", "1", "3")])
    with pytest.raises(MalformedRelation):
        Relation(q, [(1, ("a", "b")), (1, ("b",))])
    with pytest.raises(MalformedRelation):
        Relation(q, [(1, ("a", "b")), (1, ("a", "b", "c"))])


def test_commutativity_relation_square():
    # commuting square 1 -> 2, 1 -> 3, 2 -> 4, 3 -> 4 with ab = cd
    q = Quiver(
        ["1", "2", "3", "4"],
        [("a", "1", "2"), ("b", "2", "4"), ("c", "1", "3"), ("d", "3", "4")],
    )
    rel = Relation(q, [(1, ("a", "b")), (-1, ("c", "d"))])
    alg = compile_bound_quiver(q, [rel], QQ)
    # e1..e4, four arrows, one diagonal path class
    assert alg.dim == 9
    assert alg.path_element(["a", "b"]) == alg.path_element(["c", "d"])


def test_opposite_involution(cyc3):
    op = cyc3.opposite()
    assert op.validate()
    assert op.opposite() is cyc3
    # arrow a3: 1 -> 2 becomes 2 -> 1
    assert op.peirce_dim(1, 0) == 1
    assert op.peirce_dim(0, 1) == 0
    x = op.path_element(["a3"])
    y = op.path_element(["a2"])
    # in the opposite algebra a3 (2 -> 1) then a2 (1 -> 3) composes and dies
    assert (x * y).is_zero()


def test_opposite_matches_compiled_opposite_quiver(a3):
    q_op = Quiver(["1", "2", "3"], [("a", "2", "1"), ("b", "3", "2")])
    direct = compile_bound_quiver(q_op, [], QQ)
    assert is_isomorphic_algebra(a3.opposite(), direct)
    # structural comparison: dimensions of all Peirce blocks agree
    op = a3.opposite()
    assert op.dim == direct.dim
    for i in range(3):
        for j in range(3):
            assert op.peirce_dim(i, j) == direct.peirce_dim(i, j)


def test_prime_field_compilation():
    q = Quiver(["1", "2"], [("a", "1", "2")])
    alg = compile_bound_quiver(q, [], Field(5))
    assert alg.dim == 3
    assert alg.validate()


def test_local_inverse():
    q = Quiver(["1"], [("x", "1", "1")])
    rel = Relation(q, [(1, ("x", "x"))])
    alg = compile_bound_quiver(q, [rel], QQ)
    x = alg.path_element(["x"])
    elt = alg.e(0).scale(QQ(2)) + x  # 2e + x, inverse (1/2)e - (1/4)x
    inv = local_inverse(elt, 0)
    assert elt * inv == alg.e(0)
    assert inv * elt == alg.e(0)
    with pytest.raises(TautiltError):
        local_inverse(x, 0)


def test_is_isomorphic_algebra_rad_square_zero(a2):
    q = Quiver(["u", "v"], [("z", "u", "v")])
    other = compile_bound_quiver(q, [], QQ)
    assert is_isomorphic_algebra(a2, other)
    q_rev = Quiver(["u", "v"], [("z", "v", "u")])
    rev = compile_bound_quiver(q_rev, [], QQ)
    # still isomorphic via the vertex swap
    assert is_isomorphic_algebra(a2, rev)
    assert not is_isomorphic_algebra(a2, compile_bound_quiver(Quiver(["1"], []), [], QQ))


def _commutative_square(field, sign):
    arrows = [("a", "1", "2"), ("b", "2", "4"), ("c", "1", "3"), ("d", "3", "4")]
    q = Quiver(["1", "2", "3", "4"], arrows)
    return compile_bound_quiver(q, [Relation(q, [(1, ("a", "b")), (sign, ("c", "d"))])], field)


def test_is_isomorphic_algebra_raises_where_the_constants_only_fail_to_match():
    # c -> -c sends a*b - c*d to a*b + c*d, but the test does not rescale
    # arrows: over Q it has no answer, over F_2 the two relations agree
    with pytest.raises(SearchBudgetExceeded):
        is_isomorphic_algebra(_commutative_square(QQ, -1), _commutative_square(QQ, 1))
    f2 = Field(2)
    assert is_isomorphic_algebra(_commutative_square(f2, -1), _commutative_square(f2, 1))


def test_path_element_unknown_arrow(a2):
    with pytest.raises(TautiltError):
        a2.path_element(["nope"])


def _digest(alg):
    """sha1 of the names, Peirce pairs, structure constants and words."""
    mult = sorted((key, tuple((k, str(c)) for k, c in v)) for key, v in alg.mult.items())
    return hashlib.sha1(repr((alg.names, alg.peirce, mult, alg.words)).encode()).hexdigest()


# digests of the algebras as the elimination over a window of all paths
# compiled them, where Pi(A4) needed bound 7; the completion keeps them
PINNED = {
    "a2": "0c3918d3752daf01956530cba5f99e4f180e3a45",
    "a3": "572af5f03e240cbb442315f37863dc7f851a4e1a",
    "cyc3": "7fc1b29f606af5115b0a776d857723e828cf4c86",
    "point": "a837ce0466f6341c44f9361fe640217540ce1153",
    "sqrt2_module": "8b9e6da59046cf934404884904f8383e21292692",
    "pi_a3": "7a69f4617f5fa16ca6cd24468c1fde75fa0713ef",
}
PI_A4 = "94153543f4ba36e5f42c2d8433a76f4377b572e2"


@pytest.mark.parametrize("name", sorted(PINNED))
def test_compiled_fixture_algebras_are_pinned(request, name):
    alg = request.getfixturevalue(name)
    assert _digest(getattr(alg, "algebra", alg)) == PINNED[name]


def test_preprojective_a4_is_pinned_at_both_bounds(preprojective):
    assert _digest(preprojective(4, bound=7)) == PI_A4
    assert _digest(preprojective(4)) == PI_A4


def test_relations_of_mixed_lengths():
    # x*y = y*x = 0 and x^2 = y^3: y^3 is rewritten as x^2, and the overlap
    # y^3*x = y^2*(y*x) gives x^3 = 0, so the basis is e, x, y, x^2, y^2; at
    # bound 3 that overlap is longer than the bound, though no normal word is
    q = Quiver(["1"], [("x", "1", "1"), ("y", "1", "1")])
    rels = [
        Relation(q, [(1, ("x", "y"))]),
        Relation(q, [(1, ("y", "x"))]),
        Relation(q, [(1, ("x", "x")), (-1, ("y", "y", "y"))]),
    ]
    for bound in (3, 4, 5, 12):
        alg = compile_bound_quiver(q, rels, QQ, length_bound=bound)
        assert alg.names == ["e_1", "x", "y", "x*x", "y*y"]
        x, y = alg.path_element(["x"]), alg.path_element(["y"])
        assert x * x == y * y * y
        assert (x * x * x).is_zero()
        assert alg.radical_nilpotency() == 4


def _truncated_loop(extra=None, drop=()):
    """k[x]/(x^2) on the basis e, x, with products changed as given."""
    one = QQ.one
    mult = {(0, 0): ((0, one),), (0, 1): ((1, one),), (1, 0): ((1, one),)}
    mult.update(extra or {})
    for key in drop:
        del mult[key]
    return BasicAlgebra(QQ, ["1"], ["e_1", "x"], [(0, 0), (0, 0)], mult)


def _a2(extra):
    """The path algebra of 1 -> 2 on the basis e_1, e_2, a, products changed."""
    one = QQ.one
    mult = {(0, 0): ((0, one),), (1, 1): ((1, one),), (0, 2): ((2, one),), (2, 1): ((2, one),)}
    mult.update(extra)
    return BasicAlgebra(QQ, ["1", "2"], ["e_1", "e_2", "a"], [(0, 0), (1, 1), (0, 1)], mult)


def _non_associative():
    """e, x, y, z at one vertex with x*x = y and x*y = z but y*x = 0."""
    one = QQ.one
    mult = {(0, k): ((k, one),) for k in range(4)}
    mult.update({(k, 0): ((k, one),) for k in range(1, 4)})
    mult.update({(1, 1): ((2, one),), (1, 2): ((3, one),)})
    return BasicAlgebra(QQ, ["1"], ["e_1", "x", "y", "z"], [(0, 0)] * 4, mult)


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: _a2({(2, 0): ((2, QQ.one),)}), TautiltError, "non-composable"),
        (lambda: _truncated_loop({(1, 1): ((1, QQ.zero),)}), TautiltError, "explicit zero"),
        (lambda: _a2({(0, 2): ((0, QQ.one),)}), TautiltError, "leaves its Peirce block"),
        (lambda: _truncated_loop({(1, 1): ((0, QQ.one),)}), NotBasic, "idempotent component"),
        (lambda: _truncated_loop(drop=[(0, 1)]), TautiltError, "not a unit"),
        (_non_associative, TautiltError, "associativity fails"),
        (lambda: _truncated_loop({(1, 1): ((1, QQ.one),)}), NotBasic, "not nilpotent"),
    ],
    ids=["composable", "zero", "peirce", "basic", "unit", "associative", "nilpotent"],
)
def test_validate_rejects(build, error, message):
    assert _truncated_loop().validate() and _a2({}).validate()
    with pytest.raises(error, match=message):
        build().validate()
