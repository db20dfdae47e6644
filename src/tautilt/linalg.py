"""Exact dense linear algebra over Q or a prime field F_p.

An element of Q is a plain int when it is integral and a Fraction only when
it is not; the two compare, hash and str() alike, so keys and output do not
see the difference.  Ints are closed under +, - and *, but int / int is a
float, so every division goes through Field.inv or Field.div, which return
an int for an integral quotient, as coercion does.  A sum or product of
non-integral Fractions stays a Fraction even when it is integral.  Elements
of F_p are PrimeFieldElements.

Matrices are lists of row lists.  Module maps elsewhere in the package act on
row vectors (v |-> v @ M), so the kernel of a map is the left nullspace of its
matrix; helpers below are named for that convention.  Zero-dimensional spaces
occur constantly (vertex components of modules), so shapes of empty matrices
are passed explicitly where they cannot be inferred.
"""

import math
from fractions import Fraction

from .errors import TautiltError


class PrimeFieldElement:
    """Residue in F_p with exact arithmetic."""

    __slots__ = ("val", "p")

    def __init__(self, val, p):
        self.val = val % p
        self.p = p

    def __add__(self, other):
        return PrimeFieldElement(self.val + other.val, self.p)

    def __sub__(self, other):
        return PrimeFieldElement(self.val - other.val, self.p)

    def __neg__(self):
        return PrimeFieldElement(-self.val, self.p)

    def __mul__(self, other):
        return PrimeFieldElement(self.val * other.val, self.p)

    def __truediv__(self, other):
        if other.val == 0:
            raise ZeroDivisionError("division by zero in F_p")
        return PrimeFieldElement(self.val * pow(other.val, -1, self.p), self.p)

    def __eq__(self, other):
        return (
            isinstance(other, PrimeFieldElement)
            and self.p == other.p
            and self.val == other.val
        )

    def __bool__(self):
        return self.val != 0

    def __hash__(self):
        return hash((self.val, self.p))

    def __repr__(self):
        return f"{self.val}"


class Field:
    """The rationals (char 0) or F_p (char p, p prime)."""

    def __init__(self, char=0):
        if char:
            if char < 2 or any(char % q == 0 for q in range(2, int(char**0.5) + 1)):
                raise TautiltError(f"field characteristic {char} is not prime")
        self.char = char
        self.zero = self(0)
        self.one = self(1)

    def __call__(self, x):
        if self.char == 0:
            if isinstance(x, int):
                return int(x)
            if isinstance(x, (Fraction, str)):
                return _demote(Fraction(x))
            raise TautiltError(f"cannot coerce {x!r} into Q")
        if isinstance(x, PrimeFieldElement):
            if x.p != self.char:
                raise TautiltError(f"wrong characteristic: {x.p} vs {self.char}")
            return x
        if isinstance(x, int):
            return PrimeFieldElement(x, self.char)
        if isinstance(x, str):
            if "/" in x:
                num, den = x.split("/")
                return self.div(self(int(num)), self(int(den)))
            return self(int(x))
        raise TautiltError(f"cannot coerce {x!r} into F_{self.char}")

    def inv(self, x):
        """1 / x; over Q inv(±1) is the int ±1, found with no division."""
        if not self.char and (x == 1 or x == -1):
            return int(x)
        return self.div(self.one, x)

    def div(self, a, b):
        """a / b; over Q an int when integral (int / int alone is a float)."""
        if self.char:
            return a / b
        if isinstance(a, int) and isinstance(b, int):
            a = Fraction(a)
        return _demote(a / b)

    def __eq__(self, other):
        return isinstance(other, Field) and self.char == other.char

    def __hash__(self):
        return hash(("Field", self.char))

    def __repr__(self):
        return "Q" if self.char == 0 else f"F_{self.char}"


def _demote(q):
    """A rational as an int when it is integral."""
    return q.numerator if q.denominator == 1 else q


QQ = Field(0)


def zeros(rows, cols, field):
    return [[field.zero] * cols for _ in range(rows)]


def identity(n, field):
    mat = zeros(n, n, field)
    for i in range(n):
        mat[i][i] = field.one
    return mat


def ncols(mat):
    return len(mat[0]) if mat else 0


def mat_copy(mat):
    return [row[:] for row in mat]


def mat_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(c, a):
    return [[c * x for x in row] for row in a]


def mat_mul(a, b, field, out_cols=None):
    """a @ b with explicit zero-dimension handling.

    out_cols is only consulted when b has no rows, in which case the column
    count cannot be read off the nested-list encoding.
    """
    ra, ca = len(a), ncols(a)
    if ra == 0:
        return []
    rb = len(b)
    cb = ncols(b) if rb else (out_cols or 0)
    if ca != rb:
        raise TautiltError(f"shape mismatch {ra}x{ca} @ {rb}x{cb}")
    if ra == 0 or cb == 0:
        return [[] for _ in range(ra)]
    if ca == 0:
        return zeros(ra, cb, field)
    # row-major accumulation, skipping zero multipliers
    zero = field.zero
    out = []
    for row in a:
        acc = [zero] * cb
        for x, brow in zip(row, b):
            if not x:
                continue
            acc = [u + x * v for u, v in zip(acc, brow)]
        out.append(acc)
    return out


def mat_transpose(a):
    if not a or not a[0]:
        return []
    return [list(col) for col in zip(*a)]


def rref(mat, field):
    """Reduced row echelon form.  Returns (new matrix, pivot column list)."""
    m = mat_copy(mat)
    rows = len(m)
    cols = ncols(m)
    pivots = []
    one = field.one
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        rr = m[r]
        lead = rr[c]
        if lead != one:
            inv = field.inv(lead)
            m[r] = rr = [x if not x else inv * x for x in rr]
        for i in range(rows):
            row = m[i]
            if i != r and row[c]:
                f = row[c]
                # skip the arithmetic wherever the pivot row is zero
                if f == one:
                    m[i] = [x if not y else x - y for x, y in zip(row, rr)]
                else:
                    m[i] = [x if not y else x - f * y for x, y in zip(row, rr)]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def rank(mat, field):
    if not mat or not mat[0]:
        return 0
    return len(rref(mat, field)[1])


def row_space_basis(mat, field):
    """Basis of the span of the rows, in reduced echelon form."""
    if not mat or not mat[0]:
        return []
    red, pivots = rref(mat, field)
    return red[: len(pivots)]


def right_nullspace(mat, field, cols=None):
    """Basis (as rows) of {x : mat @ x = 0}."""
    rows = len(mat)
    width = ncols(mat) if rows else (cols or 0)
    if width == 0:
        return []
    if rows == 0:
        return identity(width, field)
    red, pivots = rref(mat, field)
    free = [c for c in range(width) if c not in pivots]
    basis = []
    for fc in free:
        vec = [field.zero] * width
        vec[fc] = field.one
        for r, pc in enumerate(pivots):
            vec[pc] = -red[r][fc]
        basis.append(vec)
    return basis


def kernel_rows(mat, field, rows=None):
    """Basis of {v : v @ mat = 0} for the row-vector action convention."""
    if not mat:
        return []
    if not mat[0]:
        return identity(len(mat), field)
    return right_nullspace(mat_transpose(mat), field, cols=rows)


def det(mat, field):
    n = len(mat)
    if n == 0:
        return field.one
    m = mat_copy(mat)
    result = field.one
    for c in range(n):
        pivot = next((i for i in range(c, n) if m[i][c]), None)
        if pivot is None:
            return field.zero
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            result = -result
        result = result * m[c][c]
        inv = field.inv(m[c][c])
        for i in range(c + 1, n):
            if m[i][c]:
                f = m[i][c] * inv
                m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return result


def int_det(mat):
    """Determinant of a square integer matrix by fraction-free (Bareiss)
    elimination: each division is exact, so every entry stays an integer."""
    m, sign, prev = [list(row) for row in mat], 1, 1
    for c in range(len(m)):
        pivot = next((i for i in range(c, len(m)) if m[i][c]), None)
        if pivot is None:
            return 0
        if pivot != c:
            m[c], m[pivot], sign = m[pivot], m[c], -sign
        for i in range(c + 1, len(m)):
            m[i] = [(x * m[c][c] - m[i][c] * y) // prev for x, y in zip(m[i], m[c])]
        prev = m[c][c]
    return sign * prev


class RowSolver:
    """Expresses vectors in the span of a fixed list of rows.

    Answers come back in terms of the original rows, which may be linearly
    dependent.  Elimination records its steps; the nrows-wide coefficient
    transform that only express needs is built from them on its first call.
    """

    def __init__(self, rows, field, width=None):
        self.field = field
        self.nrows = len(rows)
        self.width = width if width is not None else ncols(rows)
        self.reduced = []
        self.pivots = []
        self._steps = []  # per kept row: (row index, [(r, f)] subtracted, scale)
        self._transform = None
        for i, row in enumerate(rows):
            vec = list(row)
            subtracted = []
            for r, piv in enumerate(self.pivots):
                if vec[piv]:
                    f = vec[piv]
                    vec = [x - f * y for x, y in zip(vec, self.reduced[r])]
                    subtracted.append((r, f))
            piv = next((c for c in range(self.width) if vec[c]), None)
            if piv is None:
                continue
            inv = field.inv(vec[piv])
            self.reduced.append([inv * x for x in vec])
            self.pivots.append(piv)
            self._steps.append((i, subtracted, inv))

    @property
    def transform(self):
        """Row k: the coefficients of reduced row k over the original rows."""
        if self._transform is None:
            field = self.field
            self._transform = []
            for i, subtracted, inv in self._steps:
                coeffs = [field.zero] * self.nrows
                coeffs[i] = field.one
                for r, f in subtracted:
                    coeffs = [x - f * y for x, y in zip(coeffs, self._transform[r])]
                self._transform.append([inv * x for x in coeffs])
        return self._transform

    @property
    def rank(self):
        return len(self.pivots)

    def contains(self, vec):
        residue = list(vec)
        for r, piv in enumerate(self.pivots):
            if residue[piv]:
                f = residue[piv]
                residue = [x - f * y for x, y in zip(residue, self.reduced[r])]
        return not any(residue)

    def express(self, vec):
        """Coefficients over the original rows, or None if vec is outside."""
        transform = self.transform
        out = [self.field.zero] * self.nrows
        residue = list(vec)
        for r, piv in enumerate(self.pivots):
            if residue[piv]:
                f = residue[piv]
                residue = [x - f * y for x, y in zip(residue, self.reduced[r])]
                out = [x + f * y for x, y in zip(out, transform[r])]
        if any(residue):
            return None
        return out


def _extend_basis(rows, candidates, field, width):
    """Positions of the candidates outside the span of rows and of those kept before them."""
    rows, kept = list(rows), []
    solver = RowSolver(rows, field, width)
    for t, vec in enumerate(candidates):
        if not solver.contains(vec):
            rows.append(vec)
            kept.append(t)
            solver = RowSolver(rows, field, width)
    return kept


def charpoly(mat, field):
    """Characteristic polynomial coefficients [c_0, ..., c_n] with c_n = 1.

    Hessenberg reduction followed by the principal-minor recurrence; keeps
    everything inside the ground field.
    """
    n = len(mat)
    if n == 0:
        return [field.one]
    h = mat_copy(mat)
    for c in range(n - 1):
        pivot = next((i for i in range(c + 1, n) if h[i][c]), None)
        if pivot is None:
            continue
        if pivot != c + 1:
            h[c + 1], h[pivot] = h[pivot], h[c + 1]
            for row in h:
                row[c + 1], row[pivot] = row[pivot], row[c + 1]
        inv = field.inv(h[c + 1][c])
        for i in range(c + 2, n):
            if h[i][c]:
                f = h[i][c] * inv
                h[i] = [x - f * y for x, y in zip(h[i], h[c + 1])]
                for row in h:
                    row[c + 1] = row[c + 1] + f * row[i]
    polys = [[field.one]]
    for k in range(1, n + 1):
        prev = polys[k - 1]
        new = [field.zero] + prev
        new = [x - h[k - 1][k - 1] * y for x, y in zip(new, prev + [field.zero])]
        factor = field.one
        for i in range(k - 1, 0, -1):
            factor = factor * h[i][i - 1]
            if not factor:
                break
            coef = factor * h[i - 1][k - 1]
            term = [coef * x for x in polys[i - 1]]
            term += [field.zero] * (len(new) - len(term))
            new = [x - y for x, y in zip(new, term)]
        polys.append(new)
    return polys[n]


def poly_eval(coeffs, x, field):
    acc = field.zero
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def rational_roots(coeffs, field):
    """Roots in the ground field of the polynomial with given coefficients.

    Over Q this is the rational root test after integer scaling; over F_p all
    residues are tried (p capped at 3000 to keep this a desk-scale tool).
    """
    coeffs = list(coeffs)
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    if not coeffs:
        raise TautiltError("zero polynomial has every root")
    if field.char:
        if field.char > 3000:
            raise TautiltError(f"root search over F_{field.char} exceeds cap")
        return [field(v) for v in range(field.char) if not poly_eval(coeffs, field(v), field)]
    roots = []
    if not coeffs[0]:
        roots.append(field.zero)
        while coeffs and not coeffs[0]:
            coeffs = coeffs[1:]
    if len(coeffs) <= 1:
        return roots
    denom = math.lcm(*(c.denominator for c in coeffs))
    ints = [int(c * denom) for c in coeffs]
    for p in _divisors(ints[0]):
        for q in _divisors(ints[-1]):
            for cand in (field.div(p, q), field.div(-p, q)):
                if cand not in roots and not poly_eval(coeffs, cand, field):
                    roots.append(cand)
    return roots


def _divisors(n):
    n = abs(n)
    if n == 0:
        return [1]
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out)
