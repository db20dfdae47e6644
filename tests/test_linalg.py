from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tautilt import linalg
from tautilt.linalg import QQ, Field
from tautilt.errors import TautiltError


F5 = Field(5)


def test_field_coercion():
    assert QQ(3) == Fraction(3)
    assert QQ("2/5") == Fraction(2, 5)
    assert F5(7).val == 2
    assert (F5(2) / F5(3)).val == 4  # 3 * 4 = 12 = 2 mod 5


def test_field_rejects_composite_characteristic():
    with pytest.raises(TautiltError):
        Field(6)


def q(mat):
    return [[QQ(x) for x in row] for row in mat]


def test_rref_and_rank():
    red, pivots = linalg.rref(q([[1, 2, 3], [2, 4, 6], [1, 0, 1]]), QQ)
    assert pivots == [0, 1]
    assert linalg.rank(q([[1, 2], [2, 4]]), QQ) == 1
    assert linalg.rank(q([[1, 0], [0, 1]]), QQ) == 2


def test_kernel_rows_convention():
    # v @ M = 0 with M sending rows 0 and 1 to the same vector
    m = q([[1, 1], [1, 1], [0, 1]])
    basis = linalg.kernel_rows(m, QQ)
    assert len(basis) == 1
    v = basis[0]
    prod = linalg.mat_mul([v], m, QQ)
    assert all(not x for x in prod[0])


def test_kernel_of_map_to_zero_space():
    m = [[], [], []]  # 3x0 matrix: everything is in the kernel
    assert len(linalg.kernel_rows(m, QQ)) == 3


def test_mat_mul_empty_shapes():
    a = [[] for _ in range(2)]  # 2x0
    b = []  # 0x3
    out = linalg.mat_mul(a, b, QQ, out_cols=3)
    assert out == [[QQ.zero] * 3 for _ in range(2)]


def test_det():
    assert linalg.det(q([[1, 2], [3, 4]]), QQ) == Fraction(-2)
    assert linalg.det(q([[1, 2], [2, 4]]), QQ) == 0
    assert linalg.det([], QQ) == Fraction(1)


def _mat_mul_int(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def test_int_det_of_fixed_matrices():
    assert linalg.int_det([]) == 1
    assert linalg.int_det([[0]]) == 0
    assert linalg.int_det([[1, 2], [2, 4]]) == 0
    assert linalg.int_det([[0, 1, 2], [0, 3, 4], [0, 5, 6]]) == 0
    assert linalg.int_det([[1, 3], [1, 1]]) == -2
    assert linalg.int_det([[0, 2, 0], [1, 0, 0], [0, 0, -1]]) == 2
    assert linalg.int_det([[1, 1, 0], [-1, 1, 0], [0, 0, 1]]) == 2


def test_int_det_of_a_unimodular_matrix_with_large_minors():
    # L U with unitriangular factors has determinant 1, but its minors,
    # the intermediate entries of Bareiss elimination, are large
    lower = [
        [1, 0, 0, 0, 0],
        [37, 1, 0, 0, 0],
        [-58, 91, 1, 0, 0],
        [44, -73, 29, 1, 0],
        [-66, 17, -83, 52, 1],
    ]
    upper = [[1 if i == j else 0 for j in range(5)] for i in range(5)]
    for i, j, c in [(0, 1, 61), (0, 4, -97), (1, 2, -47), (1, 3, 88), (2, 4, 71), (3, 4, -39)]:
        upper[i][j] = c
    mat = _mat_mul_int(lower, upper)
    assert max(abs(c) for row in mat for c in row) > 5000
    copy = [list(row) for row in mat]
    assert linalg.int_det(mat) == 1 == linalg.det(q(mat), QQ)
    assert mat == copy  # the input is not eliminated in place
    swapped = [mat[1], mat[0]] + mat[2:]
    assert linalg.int_det(swapped) == -1 == linalg.det(q(swapped), QQ)


def test_row_solver_express():
    rows = q([[1, 0, 1], [0, 1, 1], [1, 1, 2]])
    solver = linalg.RowSolver(rows, QQ)
    assert solver.rank == 2
    coeffs = solver.express([QQ(2), QQ(3), QQ(5)])
    assert coeffs is not None
    combo = [QQ.zero] * 3
    for c, row in zip(coeffs, rows):
        combo = [x + c * y for x, y in zip(combo, row)]
    assert combo == [QQ(2), QQ(3), QQ(5)]
    assert solver.express([QQ(1), QQ(0), QQ(0)]) is None


def test_charpoly_companion():
    # companion matrix of x^3 - 2x - 5 (column convention does not matter
    # for the characteristic polynomial)
    m = q([[0, 1, 0], [0, 0, 1], [5, 2, 0]])
    coeffs = linalg.charpoly(m, QQ)
    assert coeffs == [QQ(-5), QQ(-2), QQ(0), QQ(1)]


def test_charpoly_diagonal():
    m = q([[2, 0], [0, 3]])
    # (x-2)(x-3) = x^2 - 5x + 6
    assert linalg.charpoly(m, QQ) == [QQ(6), QQ(-5), QQ(1)]


def test_rational_roots():
    # (x-1)(x+2)(2x-3) = 2x^3 + x^2 - 7x ... expand: (x^2+x-2)(2x-3)
    poly = [QQ(6), QQ(-7), QQ(-1), QQ(2)]
    roots = linalg.rational_roots(poly, QQ)
    assert set(roots) == {Fraction(1), Fraction(-2), Fraction(3, 2)}


def test_rational_roots_zero_root():
    poly = [QQ(0), QQ(0), QQ(1)]  # x^2
    assert linalg.rational_roots(poly, QQ) == [QQ.zero]


def test_rational_roots_prime_field():
    f = Field(7)
    poly = [f(1), f(0), f(1)]  # x^2 + 1 over F_7: roots are +-(some sqrt of -1)
    roots = linalg.rational_roots(poly, f)
    assert all(not linalg.poly_eval(poly, r, f) for r in roots)
    assert len(roots) == 0 or len(roots) == 2


def test_charpoly_prime_field():
    f = Field(5)
    m = [[f(1), f(2)], [f(3), f(4)]]
    coeffs = linalg.charpoly(m, f)
    # det = 4 - 6 = -2 = 3 mod 5, trace = 5 = 0 mod 5: x^2 - 0x + 3... det=-2
    assert coeffs == [f(-2), f(-5), f(1)]


# -- Q elements: an int when integral, a Fraction only when not ---------------

F3 = Field(3)


@pytest.mark.parametrize(
    "got, want",
    [
        (QQ(3), 3),
        (QQ("3/3"), 1),
        (QQ("-6/2"), -3),
        (QQ(Fraction(4, 2)), 2),
        (QQ.inv(1), 1),
        (QQ.inv(-1), -1),
        (QQ.inv(Fraction(-1)), -1),
        (QQ.inv(Fraction(1)), 1),
        (QQ.inv(2), Fraction(1, 2)),
        (QQ.inv(Fraction(1, 2)), 2),
        (QQ.inv(Fraction(-1, 3)), -3),
        (QQ.inv(QQ("3/3")), 1),
        (QQ.div(3, 3), 1),
        (QQ.div(6, -3), -2),
        (QQ.div(0, 5), 0),
        (QQ.div(1, 2), Fraction(1, 2)),
        (QQ.div(Fraction(3, 2), Fraction(1, 2)), 3),
        (QQ.div(2, Fraction(2, 3)), 3),
        (QQ.div(Fraction(1, 2), 3), Fraction(1, 6)),
    ],
)
def test_q_inverses_and_quotients_are_ints_when_integral(got, want):
    assert got == want
    assert type(got) is (int if want.denominator == 1 else Fraction)


@pytest.mark.parametrize(
    "got, want",
    [
        (F3.inv(F3(2)), 2),
        (F3.inv(F3(1)), 1),
        (F3.div(F3(1), F3(2)), 2),
        (F3.div(F3(2), F3(2)), 1),
        (F3.div(F3(0), F3(2)), 0),
        (F3("1/2"), 2),
    ],
)
def test_prime_field_inverses_and_quotients_stay_residues(got, want):
    assert isinstance(got, linalg.PrimeFieldElement) and got.p == 3
    assert got.val == want


def test_field_units_and_rejections():
    assert type(QQ.zero) is int and type(QQ.one) is int
    assert (QQ.zero, QQ.one) == (0, 1)
    for field in (QQ, F3):
        with pytest.raises(ZeroDivisionError):
            field.inv(field.zero)
    with pytest.raises(TautiltError):
        QQ(0.5)
    with pytest.raises(TautiltError):
        QQ(1.0)


_ENTRIES = st.sampled_from(
    [0, 0, 0, 1, 1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3), Fraction(3, 3), Fraction(5, 4)]
)


def _matrices(rows, cols):
    return st.lists(st.lists(_ENTRIES, min_size=cols, max_size=cols), min_size=rows, max_size=rows)


_SHAPES = st.tuples(st.integers(1, 4), st.integers(1, 5)).flatmap(
    lambda rc: st.tuples(_matrices(*rc), st.lists(_ENTRIES, min_size=rc[1], max_size=rc[1]))
)
_SQUARES = st.integers(1, 4).flatmap(lambda n: _matrices(n, n))
_PROPERTY = settings(max_examples=60, derandomize=True, database=None, deadline=None)


def _no_float(value):
    if isinstance(value, (list, tuple)):
        return all(_no_float(x) for x in value)
    return not isinstance(value, float)


def _as_fractions(mat):
    return [[Fraction(x) for x in row] for row in mat]


@_PROPERTY
@given(_SHAPES)
def test_q_kernels_agree_on_ints_and_fractions(case):
    mat, vec = case
    mixed, fracs = q(mat), _as_fractions(mat)  # q: ints where integral
    for kernel in (
        lambda m: linalg.rref(m, QQ),
        lambda m: linalg.rank(m, QQ),
        lambda m: linalg.right_nullspace(m, QQ),
        lambda m: linalg.kernel_rows(m, QQ),
    ):
        got = kernel(mixed)
        assert got == kernel(fracs)
        assert _no_float(got)
    solvers = [linalg.RowSolver(m, QQ) for m in (mixed, fracs)]
    assert solvers[0].rank == solvers[1].rank
    # a vector in the row span, and one that may lie outside it
    coeffs = [QQ(x) for x in vec]
    inside = [sum((c * row[j] for c, row in zip(coeffs, mixed)), QQ.zero) for j in range(len(vec))]
    for target in (inside, coeffs):
        got = solvers[0].express(target)
        assert got == solvers[1].express([Fraction(x) for x in target])
        assert _no_float(got)
    assert solvers[0].express(inside) is not None


@_PROPERTY
@given(_SQUARES)
def test_q_det_and_charpoly_agree_on_ints_and_fractions(mat):
    mixed, fracs = q(mat), _as_fractions(mat)  # q: ints where integral
    for kernel in (linalg.det, linalg.charpoly):
        got = kernel(mixed, QQ)
        assert got == kernel(fracs, QQ)
        assert _no_float(got)
    if all(isinstance(x, int) for row in mixed for x in row):
        assert linalg.det(mixed, QQ) == linalg.int_det(mixed)
