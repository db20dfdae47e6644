"""The category of finite-dimensional right modules over a basic algebra.

A module is a Representation: one exact vector space per vertex plus one
matrix per radical basis element of the algebra (idempotents act as the
identity on their own vertex space).  All matrices act on row vectors,
x |-> x @ m, so a basis element b with Peirce pair (i, j) gets a matrix of
shape dims[i] x dims[j].
"""

import itertools
from collections import Counter
from functools import cached_property

from . import linalg
from .algebra import AlgebraElement, ContentKey
from .errors import (
    CertificateFailure,
    InvalidRepresentation,
    NotAModuleMap,
    NotProjective,
    PreconditionViolated,
    SearchBudgetExceeded,
    TautiltError,
)


class Representation:
    """Right module over a BasicAlgebra given by vertex spaces and actions."""

    def __init__(self, algebra, dims, rad_mats, check=True):
        """Args:
        algebra: the BasicAlgebra acting on the right.
        dims: dimension of the space at each vertex.
        rad_mats: dict basis index -> matrix for every radical basis
            element; shape dims[i] x dims[j] for Peirce pair (i, j).
        check: verify all structure-constant identities.
        """
        self.algebra = algebra
        self.dims = tuple(dims)
        if len(self.dims) != algebra.n:
            raise InvalidRepresentation(
                f"expected {algebra.n} vertex dimensions, got {len(self.dims)}"
            )
        self.mats = {}
        for k in algebra.radical_indices():
            i, j = algebra.peirce[k]
            m = rad_mats.get(k)
            if m is None:
                m = linalg.zeros(self.dims[i], self.dims[j], algebra.field)
            if len(m) != self.dims[i] or (self.dims[i] and linalg.ncols(m) != self.dims[j]):
                raise InvalidRepresentation(
                    f"matrix for basis element {algebra.names[k]} has wrong shape"
                )
            self.mats[k] = [list(row) for row in m]
        self._key = None
        if check:
            self.validate()

    @property
    def field(self):
        return self.algebra.field

    def total_dim(self):
        return sum(self.dims)

    def is_zero(self):
        return not any(self.dims)

    def mat(self, k):
        """Action matrix of basis element k (identity for idempotents)."""
        if k < self.algebra.n:
            return linalg.identity(self.dims[k], self.field)
        return self.mats[k]

    def validate(self):
        alg = self.algebra
        for k in alg.radical_indices():
            i, j = alg.peirce[k]
            m = self.mats[k]
            for k2 in alg.radical_indices():
                i2, j2 = alg.peirce[k2]
                if j != i2:
                    continue
                lhs = linalg.mat_mul(m, self.mats[k2], self.field, out_cols=self.dims[j2])
                rhs = linalg.zeros(self.dims[i], self.dims[j2], self.field)
                for k3, c in alg.mult.get((k, k2), ()):
                    rhs = linalg.mat_add(rhs, linalg.mat_scale(c, self.mats[k3]))
                if lhs != rhs:
                    raise InvalidRepresentation(
                        f"actions of {alg.names[k]} and {alg.names[k2]} violate "
                        "a structure-constant identity"
                    )
        return True

    def key(self):
        """Content key for caching; equal keys mean equal representations."""
        if self._key is None:
            self._key = ContentKey((
                self.dims,
                tuple(
                    tuple(tuple(row) for row in self.mats[k])
                    for k in self.algebra.radical_indices()
                ),
            ))
        return self._key

    def __repr__(self):
        return f"Representation(dims={self.dims})"


def canonical_rep(rep):
    """One shared object per representation content on a given algebra.

    Caches are keyed by content, so without interning two equal
    representations built along different routes would be distinct
    objects and identity comparisons would depend on call order."""
    return rep.algebra.cache.setdefault(("rep-canon", rep.key()), rep)


def zero_rep(algebra):
    return canonical_rep(Representation(algebra, (0,) * algebra.n, {}, check=False))


def projective(algebra, i):
    """The indecomposable projective e_i A."""
    return canonical_rep(_proj_sum(algebra, [i]).rep)


def simple(algebra, i):
    """The simple top of e_i A: one-dimensional at vertex i."""
    dims = tuple(1 if v == i else 0 for v in range(algebra.n))
    return canonical_rep(Representation(algebra, dims, {}, check=False))


class ModuleMap:
    """Homomorphism of representations, one matrix per vertex."""

    def __init__(self, source, target, mats, check=True):
        self.source = source
        self.target = target
        self.mats = [
            [list(row) for row in m] if m else [[] for _ in range(source.dims[v])]
            for v, m in enumerate(mats)
        ]
        for v in range(source.algebra.n):
            m = self.mats[v]
            if len(m) != source.dims[v] or (
                source.dims[v] and linalg.ncols(m) != target.dims[v]
            ):
                raise NotAModuleMap(f"matrix at vertex {v} has wrong shape")
        if check:
            self.validate()

    @property
    def algebra(self):
        return self.source.algebra

    @property
    def field(self):
        return self.source.field

    def validate(self):
        alg = self.algebra
        for k in alg.radical_indices():
            i, j = alg.peirce[k]
            lhs = linalg.mat_mul(
                self.source.mat(k), self.mats[j], self.field, out_cols=self.target.dims[j]
            )
            rhs = linalg.mat_mul(
                self.mats[i], self.target.mat(k), self.field, out_cols=self.target.dims[j]
            )
            if lhs != rhs:
                raise NotAModuleMap(
                    f"matrices do not commute with the action of {alg.names[k]}"
                )
        return True

    def then(self, other):
        """Composite: apply self first, then other."""
        if self.target is not other.source and self.target.key() != other.source.key():
            raise TautiltError("maps do not compose")
        mats = [
            linalg.mat_mul(a, b, self.field, out_cols=other.target.dims[v])
            for v, (a, b) in enumerate(zip(self.mats, other.mats))
        ]
        return ModuleMap(self.source, other.target, mats, check=False)

    def __add__(self, other):
        return ModuleMap(
            self.source,
            self.target,
            [linalg.mat_add(a, b) for a, b in zip(self.mats, other.mats)],
            check=False,
        )

    def __sub__(self, other):
        return ModuleMap(
            self.source,
            self.target,
            [linalg.mat_sub(a, b) for a, b in zip(self.mats, other.mats)],
            check=False,
        )

    def scale(self, c):
        return ModuleMap(
            self.source, self.target, [linalg.mat_scale(c, m) for m in self.mats], check=False
        )

    def is_zero(self):
        return all(not x for m in self.mats for row in m for x in row)

    def rank(self):
        return sum(linalg.rank(m, self.field) for m in self.mats)

    def is_surjective(self):
        return self.rank() == self.target.total_dim()

    def is_isomorphism(self):
        return (
            self.source.dims == self.target.dims
            and all(linalg.det(m, self.field) for m in self.mats)
        )

    def kernel(self):
        """Returns (representation, inclusion into the source)."""
        spans = [linalg.kernel_rows(m, self.field, rows=self.source.dims[v]) for v, m in enumerate(self.mats)]
        return submodule(self.source, spans)

    def image(self):
        """Returns (representation, inclusion into the target)."""
        return submodule(self.target, [m for m in self.mats])

    def cokernel(self):
        """Returns (representation, projection from the target)."""
        return quotient(self.target, [m for m in self.mats])

    def power(self, m):
        """self composed with itself m times by repeated squaring; for m >= 1
        it starts from the first factor, so no identity map is multiplied."""
        if not m:
            return identity_map(self.source)
        f, out = self, None
        while True:
            if m & 1:
                out = f if out is None else out.then(f)
            m >>= 1
            if not m:
                return out
            f = f.then(f)


def identity_map(x):
    return ModuleMap(x, x, [linalg.identity(d, x.field) for d in x.dims], check=False)


def _sub_spans(x, spans):
    """Reduced echelon bases of the action-closure of the given spans."""
    alg, field = x.algebra, x.field
    basis = [linalg.row_space_basis([list(r) for r in spans[v]], field) for v in range(alg.n)]
    changed = True
    while changed:
        changed = False
        for k in alg.radical_indices():
            i, j = alg.peirce[k]
            if not basis[i] or x.dims[j] == 0:
                continue
            pushed = linalg.mat_mul(basis[i], x.mats[k], field, out_cols=x.dims[j])
            candidate = linalg.row_space_basis(basis[j] + pushed, field)
            if len(candidate) != len(basis[j]):
                basis[j] = candidate
                changed = True
    return basis


def submodule(x, spans):
    """Submodule generated by the given row spans at each vertex.

    Returns (representation, inclusion).  The spans are closed under the
    algebra action first, so any set of rows is a legal generator set.
    """
    alg = x.algebra
    field = x.field
    basis = _sub_spans(x, spans)
    dims = tuple(len(b) for b in basis)
    solvers = [linalg.RowSolver(basis[v], field, width=x.dims[v]) for v in range(alg.n)]
    rad_mats = {}
    for k in alg.radical_indices():
        i, j = alg.peirce[k]
        mat = []
        for row in basis[i]:
            pushed = linalg.mat_mul([row], x.mats[k], field, out_cols=x.dims[j])[0]
            coords = solvers[j].express(pushed)
            if coords is None:
                raise CertificateFailure("span failed to close under the action")
            mat.append(coords)
        rad_mats[k] = mat
    sub = Representation(alg, dims, rad_mats, check=False)
    incl = ModuleMap(sub, x, [basis[v] if basis[v] else [] for v in range(alg.n)], check=False)
    return sub, incl


def quotient(x, spans):
    """Quotient of x by the submodule generated by the spans.

    Returns (representation, projection).
    """
    return _quotient_by_basis(x, _sub_spans(x, spans))


def _quotient_by_basis(x, closed):
    """Quotient of x by the submodule with the given reduced echelon bases
    per vertex.  Returns (representation, projection)."""
    alg = x.algebra
    field = x.field
    v_iter = range(alg.n)
    proj_mats = []
    sect_mats = []
    for v in v_iter:
        red = closed[v]
        pivots = [next(c for c, val in enumerate(row) if val) for row in red]
        free = [c for c in range(x.dims[v]) if c not in pivots]
        proj = []
        for r in range(x.dims[v]):
            residue = [field.zero] * x.dims[v]
            residue[r] = field.one
            for row, piv in zip(red, pivots):
                if residue[piv]:
                    f = residue[piv]
                    residue = [a - f * b for a, b in zip(residue, row)]
            proj.append([residue[c] for c in free])
        sect = []
        for c in free:
            row = [field.zero] * x.dims[v]
            row[c] = field.one
            sect.append(row)
        proj_mats.append(proj)
        sect_mats.append(sect)
    dims = tuple(len(sect_mats[v]) for v in v_iter)
    rad_mats = {}
    for k in alg.radical_indices():
        i, j = alg.peirce[k]
        acted = linalg.mat_mul(sect_mats[i], x.mats[k], field, out_cols=x.dims[j])
        rad_mats[k] = linalg.mat_mul(acted, proj_mats[j], field, out_cols=dims[j])
    q = Representation(alg, dims, rad_mats, check=False)
    proj = ModuleMap(x, q, proj_mats, check=False)
    return q, proj


def _block_sum(reps):
    """The direct sum of a nonempty list of modules, block diagonal."""
    alg = reps[0].algebra
    field = reps[0].field
    dims = tuple(sum(r.dims[v] for r in reps) for v in range(alg.n))
    rad_mats = {}
    for k in alg.radical_indices():
        i, j = alg.peirce[k]
        mat = linalg.zeros(dims[i], dims[j], field)
        ri = 0
        rj = 0
        for r in reps:
            block = r.mats[k]
            for a, row in enumerate(block):
                for b, val in enumerate(row):
                    mat[ri + a][rj + b] = val
            ri += r.dims[i]
            rj += r.dims[j]
        rad_mats[k] = mat
    return Representation(alg, dims, rad_mats, check=False)


# -- Hom spaces ------------------------------------------------------------


def hom_basis(x, y):
    """Basis of Hom(x, y) as a fresh list of ModuleMaps (deterministic
    order).  The maps are built once per (x, y) content and shared, so
    their endpoints may be equal-content objects other than x and y."""
    alg = x.algebra
    key = ("hom_maps", x.key(), y.key())
    if key not in alg.cache:
        alg.cache[key] = tuple(_vec_to_map(x, y, vec) for vec in _hom_vectors(x, y))
    return list(alg.cache[key])


def _hom_vectors(x, y):
    """Basis of Hom(x, y) as flat vectors, cached per (x, y) content: the
    blocks of vertices 0, 1, ... in turn, each a dims_x[v] x dims_y[v]
    matrix laid out row by row."""
    alg = x.algebra
    key = ("hom", x.key(), y.key())
    if key not in alg.cache:
        field = x.field
        offsets = []
        total = 0
        for v in range(alg.n):
            offsets.append(total)
            total += x.dims[v] * y.dims[v]
        rows = []
        for k in alg.radical_indices():
            i, j = alg.peirce[k]
            if x.dims[i] == 0 or y.dims[j] == 0:
                continue
            xm = x.mats[k]
            ym = y.mats[k]
            for r in range(x.dims[i]):
                for c in range(y.dims[j]):
                    row = [field.zero] * total
                    for s in range(x.dims[j]):
                        row[offsets[j] + s * y.dims[j] + c] = row[
                            offsets[j] + s * y.dims[j] + c
                        ] + xm[r][s]
                    for t in range(y.dims[i]):
                        row[offsets[i] + r * y.dims[i] + t] = row[
                            offsets[i] + r * y.dims[i] + t
                        ] - ym[t][c]
                    if any(row):
                        rows.append(row)
        alg.cache[key] = linalg.right_nullspace(rows, field, cols=total)
    return alg.cache[key]


def _vec_to_map(x, y, vec):
    mats = []
    pos = 0
    for v in range(x.algebra.n):
        m = []
        for r in range(x.dims[v]):
            m.append(list(vec[pos : pos + y.dims[v]]))
            pos += y.dims[v]
        mats.append(m)
    return ModuleMap(x, y, mats, check=False)


def dim_hom(x, y):
    return len(_hom_vectors(x, y))


# -- projective covers and presentations -----------------------------------


class ProjSum:
    """Explicit direct sum of indecomposable projectives e_v A.

    Tracks where each algebra basis element of each summand sits inside the
    realized Representation, so maps between such sums can be converted to
    and from matrices of algebra elements.
    """

    def __init__(self, algebra, vertices):
        self.algebra = algebra
        self.vertices = list(vertices)
        field = algebra.field
        dims = [0] * algebra.n
        self.coords = []
        for v in self.vertices:
            table = {}
            for w in range(algebra.n):
                for p in algebra.peirce_basis(v, w):
                    table[p] = (w, dims[w])
                    dims[w] += 1
            self.coords.append(table)
        self.dims = tuple(dims)
        rad_mats = {}
        for k in algebra.radical_indices():
            i, j = algebra.peirce[k]
            mat = linalg.zeros(dims[i], dims[j], field)
            for s, v in enumerate(self.vertices):
                for p in algebra.peirce_basis(v, i):
                    row = self.coords[s][p][1]
                    for k2, c in algebra.mult.get((p, k), ()):
                        mat[row][self.coords[s][k2][1]] = c
            rad_mats[k] = mat
        self.rep = Representation(algebra, self.dims, rad_mats, check=False)

    def __len__(self):
        return len(self.vertices)

    def block_to_map(self, target, blocks):
        """ModuleMap from element blocks; blocks[l][s] in e_{w_l} A e_{v_s}."""
        alg, field = self.algebra, self.algebra.field
        mats = [
            linalg.zeros(self.dims[u], target.dims[u], field) for u in range(alg.n)
        ]
        for s, v in enumerate(self.vertices):
            for l in range(len(target.vertices)):
                elt = blocks[l][s]
                if elt is None or elt.is_zero():
                    continue
                for u in range(alg.n):
                    for p in alg.peirce_basis(v, u):
                        row = self.coords[s][p][1]
                        prod = elt * alg.basis_element(p)
                        for k2 in prod.support():
                            mats[u][row][target.coords[l][k2][1]] = (
                                mats[u][row][target.coords[l][k2][1]] + prod.coeffs[k2]
                            )
        return ModuleMap(self.rep, target.rep, mats, check=False)

    def map_to_blocks(self, target, f):
        """Element blocks of a ModuleMap self.rep -> target.rep."""
        alg = self.algebra
        blocks = [
            [alg.zero_element() for _ in range(len(self.vertices))]
            for _ in range(len(target.vertices))
        ]
        for s, v in enumerate(self.vertices):
            _, pos = self.coords[s][v]
            img = f.mats[v][pos]
            for l in range(len(target.vertices)):
                coeffs = [alg.field.zero] * alg.dim
                for q in alg.peirce_basis(target.vertices[l], v):
                    coeffs[q] = img[target.coords[l][q][1]]
                blocks[l][s] = AlgebraElement(alg, coeffs)
        return blocks


def _proj_sum(algebra, vertices):
    """The ProjSum of the vertices in order, built once per list and
    shared: nothing mutates one."""
    key = ("projsum", tuple(vertices))
    if key not in algebra.cache:
        algebra.cache[key] = ProjSum(algebra, vertices)
    return algebra.cache[key]


def radical_spans(x):
    """Row spans of rad x at each vertex (images of all radical actions)."""
    spans = [[] for _ in range(x.algebra.n)]
    for k in x.algebra.radical_indices():
        i, j = x.algebra.peirce[k]
        for row in x.mats[k]:
            if any(row):
                spans[j].append(row)
    return spans


def top_dims(x):
    rad = _sub_spans(x, radical_spans(x))
    return tuple(x.dims[v] - len(rad[v]) for v in range(x.algebra.n))


def projective_cover(x):
    """Minimal projective cover.  Returns (ProjSum, surjection onto x)."""
    alg, field = x.algebra, x.field
    rad = _sub_spans(x, radical_spans(x))
    lifts = []
    for v in range(alg.n):
        red = rad[v]
        pivots = [next(c for c, val in enumerate(row) if val) for row in red]
        for c in range(x.dims[v]):
            if c not in pivots:
                row = [field.zero] * x.dims[v]
                row[c] = field.one
                lifts.append((v, row))
    cover = _proj_sum(alg, [v for v, _ in lifts])
    mats = [linalg.zeros(cover.dims[u], x.dims[u], field) for u in range(alg.n)]
    for s, (v, u_row) in enumerate(lifts):
        for u in range(alg.n):
            for p in alg.peirce_basis(v, u):
                row_pos = cover.coords[s][p][1]
                if p < alg.n:
                    img = u_row
                else:
                    img = linalg.mat_mul([u_row], x.mats[p], field, out_cols=x.dims[u])[0]
                for c, val in enumerate(img):
                    mats[u][row_pos][c] = val
    f = ModuleMap(cover.rep, x, mats, check=False)
    if not f.is_surjective():
        raise CertificateFailure("projective cover failed to surject")
    return cover, f


class Presentation:
    """Minimal projective presentation P1 -> P0 -> X -> 0."""

    def __init__(self, p1, p0, blocks):
        self.p1 = p1
        self.p0 = p0
        self.blocks = blocks


def min_proj_presentation(x):
    """Minimal presentation, cached per representation content."""
    alg = x.algebra
    key = ("pres", x.key())
    if key not in alg.cache:
        p0, cover = projective_cover(x)
        ker, incl = cover.kernel()
        p1, cover1 = projective_cover(ker)
        blocks = p1.map_to_blocks(p0, cover1.then(incl))
        for l in range(len(p0.vertices)):
            for s in range(len(p1.vertices)):
                if any(blocks[l][s].coeffs[:alg.n]):
                    raise CertificateFailure("presentation is not minimal")
        alg.cache[key] = Presentation(p1, p0, blocks)
    return alg.cache[key]


def g_vector(x):
    """Index of x in the split Grothendieck group of projectives."""
    pres = min_proj_presentation(x)
    g = [0] * x.algebra.n
    for v in pres.p0.vertices:
        g[v] += 1
    for v in pres.p1.vertices:
        g[v] -= 1
    return tuple(g)


def _hom_to_tau_zero(x, y):
    """Whether Hom(x, tau y) = 0, read off the minimal presentation
    P1 -> P0 -> y -> 0 of y with no tau built: it holds exactly when
    Hom(P0, x) -> Hom(P1, x) is onto (Adachi-Iyama-Reiten,
    arXiv:1210.1036, Prop 2.4).  Hom(e_w A, x) is x_w, so the map sends
    the rows (x_l) of (+)_l x_{w_l} to (sum_l x_l b_ls)_s in (+)_s x_{v_s},
    b_ls = blocks[l][s] acting on x through its coefficients, all radical
    in a minimal presentation, and the test is one rank test.  Cached per
    (x, y) content."""
    alg = x.algebra
    key = ("tau_hom", x.key(), y.key())
    if key not in alg.cache:
        pres = min_proj_presentation(y)
        field = x.field
        width = sum(x.dims[v] for v in pres.p1.vertices)
        rows = []
        for l, w in enumerate(pres.p0.vertices):
            block = [[field.zero] * width for _ in range(x.dims[w])]
            col = 0
            for s, v in enumerate(pres.p1.vertices):
                elt = pres.blocks[l][s]
                for q in elt.support():
                    c = elt.coeffs[q]
                    for r, mrow in enumerate(x.mats[q]):
                        brow = block[r]
                        for t, val in enumerate(mrow):
                            if val:
                                brow[col + t] = brow[col + t] + c * val
                col += x.dims[v]
            rows.extend(block)
        alg.cache[key] = linalg.rank(rows, field) == width
    return alg.cache[key]


def transpose(x):
    """Auslander-Bridger transpose: cokernel of the dual of the presentation.

    The result is a module over the opposite algebra, with no projective
    summands when the presentation is minimal; Tr of a projective is 0.
    Not cached itself: its one caller, ar_translate, caches tau.
    """
    op = x.algebra.opposite()
    pres = min_proj_presentation(x)
    p0s = _proj_sum(op, pres.p0.vertices)
    p1s = _proj_sum(op, pres.p1.vertices)
    blocks_star = [
        [AlgebraElement(op, pres.blocks[l][s].coeffs) for l in range(len(pres.p0))]
        for s in range(len(pres.p1))
    ]
    dstar = p0s.block_to_map(p1s, blocks_star)
    return dstar.cokernel()[0]


def k_dual(x):
    """Vector-space dual, a module over the opposite algebra."""
    op = x.algebra.opposite()
    rad_mats = {}
    for k in op.radical_indices():
        i, j = op.peirce[k]
        src = x.mats[k]  # shape x.dims[j] x x.dims[i]; transpose explicitly
        rad_mats[k] = [[src[c][r] for c in range(x.dims[j])] for r in range(x.dims[i])]
    return Representation(op, x.dims, rad_mats, check=False)


def ar_translate(x):
    """tau(x) = D Tr x, computed from a minimal presentation (kills
    projective summands automatically)."""
    alg = x.algebra
    key = ("tau", x.key())
    if key not in alg.cache:
        alg.cache[key] = k_dual(transpose(x))
    return alg.cache[key]


# -- decomposition ---------------------------------------------------------


def _eigen_shifts(f):
    """Rational eigenvalues of the total action of an endomorphism."""
    field = f.field
    values = set()
    for m in f.mats:
        if not m:
            continue
        try:
            roots = linalg.rational_roots(linalg.charpoly(m, field), field)
        except TautiltError:
            roots = []
        values.update(roots)
    return sorted(values, key=str)


def _splitting_candidates(endos, ident):
    """Endomorphisms to try for a Fitting split: the basis, its pair sums and
    products, each followed by its rational eigenvalue shifts."""
    for f in endos:
        yield f
        for lam in _eigen_shifts(f):
            if lam:
                yield f - ident.scale(lam)
    for f, g in itertools.islice(itertools.combinations(endos, 2), 64):
        yield f + g
        h = f.then(g)
        yield h
        for lam in _eigen_shifts(h):
            if lam:
                yield h - ident.scale(lam)


def _flat(f):
    """Coordinates of a map: its matrices, row after row."""
    return [c for m in f.mats for row in m for c in row]


def _nilpotent(gens, ident):
    """Whether the algebra generated by gens is nilpotent.  The maps act on
    each vertex space V on its own, and V, V·N, V·N², ... is a falling
    chain, with N the span of gens; the algebra is nilpotent iff that chain
    reaches 0 in every V."""
    field = ident.field
    gen_mats = [g.mats for g in gens]
    for s, space in enumerate(ident.mats):
        width = len(space)
        while space:
            image = [
                row
                for mats in gen_mats
                for row in linalg.mat_mul(space, mats[s], field, out_cols=width)
            ]
            smaller = linalg.row_space_basis(image, field)
            if len(smaller) == len(space):
                return False
            space = smaller
    return True


def _single_eigenvalue(mat, field):
    """The eigenvalue λ of a square matrix, in k, if it has only one.

    Its characteristic polynomial is then (t − λ)^d = (t^q − λ)^(d/q), for
    q the largest power of char k dividing d (q = 1 over Q; over F_p
    λ^q = λ), so λ is minus its t^(d−q) coefficient over d/q.  With q = 1
    that is trace / d, which needs no characteristic polynomial.  The
    answer is unchecked: a matrix with more eigenvalues gets some scalar.
    """
    d = len(mat)
    q = 1
    while field.char and (d // q) % field.char == 0:
        q *= field.char
    if q == 1:
        return field.div(sum((mat[i][i] for i in range(d)), field.zero), field(d))
    return -field.div(linalg.charpoly(mat, field)[d - q], field(d // q))


def _radical_generators(endos, ident):
    """The maps f_i − λ_i·id, which span rad End(X) when End(X) is
    certified local with residue field k; else None.

    endos is a basis f_1, ..., f_r of End(X) and ident the identity.  Each
    λ_i is read as the single eigenvalue of f_i on one vertex space V_v
    (see _single_eigenvalue), at a vertex whose dimension char k does not
    divide when there is one, where it is trace / dim V_v.  Then
    End(X) ⊆ k·id + N with N = span(f_i − λ_i·id).  If the algebra N
    generates is nilpotent, it does not hold id, so it is a proper ideal
    of End(X) that contains N, of dimension r − 1, and equals N.  Hence
    N·N ⊆ N, End(X)/N = k, and End(X) is local with radical N, in any
    characteristic.  An f_i without a single eigenvalue in k has no
    nilpotent shift, so then the test fails whatever λ_i was read.  With
    r = 1, End(X) = k·id and there are no generators.
    """
    if len(endos) == 1:
        return []
    field = ident.field
    dims = ident.source.dims
    nonzero = [v for v, d in enumerate(dims) if d]
    v = next((v for v in nonzero if not field.char or dims[v] % field.char), nonzero[0])
    gens = [f - ident.scale(_single_eigenvalue(f.mats[v], field)) for f in endos]
    return gens if _nilpotent(gens, ident) else None


def _local_radical(endos, ident):
    """rad End(X) when End(X) is certified local with residue field k (see
    _radical_generators), as a RowSolver over flattened maps (see _flat);
    else None."""
    gens = _radical_generators(endos, ident)
    if gens is None:
        return None
    return linalg.RowSolver([_flat(g) for g in gens], ident.field, len(_flat(ident)))


def _fitting_split(endos, ident, n):
    """Stabilized power p of the first nonzero splitting candidate with
    0 < rank(p) < n (n the total dimension), which splits the object as
    ker(p) + im(p).  endos is a basis of End and ident the identity.

    By Fitting's lemma f^n has stable rank.

    When no candidate splits, returns None if End is certified local (see
    _radical_generators), so the object is indecomposable, and raises
    SearchBudgetExceeded otherwise.
    """
    for f in _splitting_candidates(endos, ident):
        if f.is_zero():
            continue
        p = f.power(max(n, 1))
        if 0 < p.rank() < n:
            return p
    if _radical_generators(endos, ident) is None:
        raise SearchBudgetExceeded(
            "no splitting candidate, and End is not certified local over the field"
        )
    return None


def _iso_certificate(xy, yx, end_x, ident_x, dim_end_y):
    """Whether x ≅ y, for x and y of equal dimensions, from bases of
    Hom(x, y), Hom(y, x) and End(x) with the identity of x and dim End(y);
    None when this cannot decide.

    Isomorphic objects have Hom spaces of one dimension, so a mismatch
    means no.  When End(x) is certified local (see _local_radical),
    x ≅ y iff g∘f lies outside rad End(x) for some f and g of the two
    bases: such a g∘f is invertible, so x is a summand of y, of the same
    dimensions; and an isomorphism f with inverse g gives g∘f = id, which
    lies in the span of the basis products but not in the radical.
    """
    if not len(xy) == len(yx) == len(end_x) == dim_end_y:
        return False
    rad = _local_radical(end_x, ident_x)
    if rad is None:
        return None
    return any(not rad.contains(_flat(f.then(g))) for f in xy for g in yx)


def _same_pieces(xs, ys):
    """Krull-Schmidt: whether two decompositions, lists of (module,
    multiplicity) with pairwise non-isomorphic modules, match."""
    return len(xs) == len(ys) and all(
        any(mult == m and is_isomorphic(a, b) for b, mult in ys) for a, m in xs
    )


def _group_isomorphic(pieces):
    """(module, multiplicity) pairs, grouping isomorphic pieces; each group
    keeps its first piece."""
    grouped = []
    for piece in pieces:
        for entry in grouped:
            if is_isomorphic(entry[0], piece):
                entry[1] += 1
                break
        else:
            grouped.append([piece, 1])
    return [(piece, mult) for piece, mult in grouped]


def decompose(x):
    """Indecomposable summands with multiplicities: list of (rep, mult).

    Splits along Fitting decompositions of the splitting candidates.  A
    piece none of them splits is indecomposable when its End is certified
    local; otherwise SearchBudgetExceeded is raised (see _fitting_split).
    """
    alg = x.algebra
    key = ("decomp", x.key())
    if key not in alg.cache:
        alg.cache[key] = _group_isomorphic(_decompose_raw(x))
    # intern on the way out so the chosen objects do not depend on which
    # equal-content input hit the cache first
    return [(canonical_rep(rep), mult) for rep, mult in alg.cache[key]]


def _decompose_raw(x):
    if x.is_zero():
        return []
    endos = hom_basis(x, x)
    if len(endos) == 1:
        return [x]
    n = x.total_dim()
    p = _fitting_split(endos, identity_map(x), n)
    if p is None:
        return [x]
    ker, _ = p.kernel()
    img, _ = p.image()
    if ker.total_dim() + img.total_dim() != n:
        raise CertificateFailure("Fitting split dimensions do not add up")
    return _decompose_raw(ker) + _decompose_raw(img)


def is_isomorphic(x, y):
    """Isomorphism test with a certified answer either way.

    Tries the basis of Hom(x, y) and its pair sums for an isomorphism,
    then decides by _iso_certificate, and otherwise compares the
    decompositions of x and y.  Raises SearchBudgetExceeded when a
    decomposition is not certified.
    """
    if x.dims != y.dims:
        return False
    if x.is_zero() or x.key() == y.key():
        return True
    alg = x.algebra
    key = ("iso", x.key(), y.key())
    if key not in alg.cache:
        result = _isomorphic(x, y)
        alg.cache[key] = alg.cache[("iso", y.key(), x.key())] = result
    return alg.cache[key]


def _isomorphic(x, y):
    homs = hom_basis(x, y)
    if not homs:
        return False
    sums = (f + g for f, g in itertools.islice(itertools.combinations(homs, 2), 32))
    if any(f.is_isomorphism() for f in itertools.chain(homs, sums)):
        return True
    found = _iso_certificate(
        homs, hom_basis(y, x), hom_basis(x, x), identity_map(x), dim_hom(y, y)
    )
    if found is None:
        found = _same_pieces(decompose(x), decompose(y))
    return found


# -- torsion machinery ------------------------------------------------------


def torsion_free_part(gens, gen_keys, x):
    """x modulo the trace of the sum of gens, with gen_keys as fac_contains
    takes them; cached per (set of gens, x) content.  The trace is the
    span of the image rows of each gen, read from the cached Hom basis
    vectors: a sum of images of module maps is a submodule, so it needs no
    closure, and its reduced echelon basis is canonical, so the quotient
    is the one the sum of the gens gives."""
    alg = x.algebra
    key = ("torsion_free", gen_keys, x.key())
    if key not in alg.cache:
        trace = [linalg.row_space_basis(rows, x.field) for rows in _image_rows(gens, x)]
        alg.cache[key] = _quotient_by_basis(x, trace)[0]
    return alg.cache[key]


def fac_contains(gens, gen_keys, xs):
    """Whether every x in xs lies in Fac of the direct sum of gens, with
    gen_keys the frozenset of the content keys of gens.

    The trace of a direct sum in x is the sum of the images of the basis
    maps of each Hom(Y, x), Y in gens; a sum of images of module maps is a
    submodule, so x lies in Fac exactly when at each vertex v the image
    rows, read from the cached Hom basis vectors, have rank dim x_v.  Pass
    the summands of a module as gens and as xs: Fac is closed under sums
    and summands, so the answer is that of the sums, and a summand shared
    between modules shares its entries.  An x whose content key is among
    the gens' keys is a summand of their sum, so it lies in Fac by
    definition and is skipped, as a zero x is, with no Hom space built;
    keys are exact contents, never compared up to isomorphism.  Cached
    per (set of gens, x) content, keyed by a frozenset since field
    elements of F_p do not sort.  A repeated gen adds rows already
    spanned, so the rank test, and the answer, are those of the set.  A
    pair carries the set (TauPair.m_keys).
    """
    for x in xs:
        if x.is_zero() or x.key() in gen_keys:
            continue
        alg = x.algebra
        key = ("fac", gen_keys, x.key())
        if key not in alg.cache:
            alg.cache[key] = _fills(gens, x)
        if not alg.cache[key]:
            return False
    return True


def _fills(gens, x):
    """Whether the images of all maps from the gens span x at every vertex."""
    images = _image_rows(gens, x)
    return all(linalg.rank(images[v], x.field) == d for v, d in enumerate(x.dims) if d)


def _image_rows(gens, x):
    """The nonzero rows, per vertex, of the images of the basis maps of
    each Hom(Y, x), Y in gens, read from the cached Hom basis vectors."""
    images = [[] for _ in x.dims]
    for g in gens:
        for vec in _hom_vectors(g, x):
            pos = 0
            for v, d in enumerate(x.dims):
                for _ in range(g.dims[v]):
                    row = vec[pos : pos + d]
                    pos += d
                    if any(row):
                        images[v].append(row)
    return images


def in_perp_pair(pair, x):
    """Whether x lies in perp(tau U) ∩ Q-perp of the pair (U, Q).  Hom is
    additive, so Hom(P_v, x) = x_v must vanish for each summand P_v of Q
    and Hom(x, tau U_i) for each summand U_i of U, read off the minimal
    presentation of U_i (_hom_to_tau_zero) as tau_rigid_summands reads
    it, so no tau is built."""
    if any(x.dims[_projective_vertex(rep)] for rep, _ in pair.p_summands()):
        return False
    return all(_hom_to_tau_zero(x, u) for u in pair.m_parts)


def in_wide(pair, x):
    """Membership in the wide subcategory U-perp ∩ perp(tau U) ∩ Q-perp of
    the pair (U, Q): in_perp_pair, and Hom(U_i, x) = 0 for each U_i."""
    return in_perp_pair(pair, x) and not any(_hom_vectors(u, x) for u in pair.m_parts)


# -- bricks -----------------------------------------------------------------


def is_brick(y):
    """Whether y is a brick: End(y) = k.  A larger End(y) must split y or
    be certified local (see _fitting_split), else SearchBudgetExceeded is
    raised, as for an End(y) that is a division ring larger than k."""
    if y.is_zero():
        return False
    endos = hom_basis(y, y)
    if len(endos) > 1:
        _fitting_split(endos, identity_map(y), y.total_dim())
    return len(endos) == 1


# -- pairs -------------------------------------------------------------------


class TauPair:
    """A pair (M, P): a module and a projective, with its summand rows.

    Each indecomposable summand, with multiplicity, is one row (kind, rep,
    complex): kind "m" for a summand of M and "p" for a summand P_v of P,
    with its two-term complex, and one token (see summand_token).  A pair
    built from its summands is the one shared pair of its rows
    (carried_pair); it builds M, P and its complex from them when first
    read, and groups the rows by token into summands with multiplicity;
    on a tau-rigid pair the token determines the summand
    (Adachi-Iyama-Reiten, arXiv:1210.1036, Thm 5.5).  A pair built from
    bare (M, P), as from a workspace, builds its rows when first asked,
    from the summands that decompose finds, and keeps decompose's grouping
    by isomorphism: two summands of a pair that is not tau-rigid can share
    a token.  The fingerprint is the sorted tokens.  A walked pair carries
    its check_pair verdict (_verdict, set by tauops._certify_exchange).
    """

    def __init__(self, m=None, p=None, rows=None, algebra=None):
        self.algebra = m.algebra if algebra is None else algebra
        if rows is None:
            if p.algebra is not self.algebra:
                raise TautiltError("pair members live over different algebras")
            self.m, self.p = m, p
        self._rows = None if rows is None else tuple(rows)
        self._fingerprint = self._verdict = None

    @cached_property
    def m(self):
        """The sum of the module rows, in row order."""
        return sum_or_zero(self.algebra, [rep for k, rep, _ in self.rows if k == "m"])

    @cached_property
    def p(self):
        """The sum of the projective rows, in row order."""
        return sum_or_zero(self.algebra, [rep for k, rep, _ in self.rows if k == "p"])

    @property
    def rows(self):
        if self._rows is None:
            from . import twoterm  # twoterm builds on this module

            self._rows = tuple(
                (kind, rep, twoterm.summand_complex(kind, rep))
                for kind, parts in zip("mp", (self.m_summands(), self.p_summands()))
                for rep, mult in parts
                for _ in range(mult)
            )
        return self._rows

    @cached_property
    def tokens(self):
        return tuple(summand_token(kind, rep) for kind, rep, _ in self.rows)

    @cached_property
    def token_counts(self):
        """The tokens as a Counter, a multiset of the summands."""
        return Counter(self.tokens)

    @cached_property
    def complex(self):
        """The sum of the rows' complexes (twoterm.sum_of_summands), which
        assembles its terms only when they are read."""
        from . import twoterm

        parts = [c for _, _, c in self.rows]
        return twoterm.sum_of_summands(parts) if parts else twoterm.zero_complex(self.algebra)

    @cached_property
    def _summands(self):
        if self._rows is None:
            return decompose(self.m), decompose(self.p)
        return tuple(_group_rows(self.rows, self.tokens, kind) for kind in "mp")

    def m_summands(self):
        return self._summands[0]

    def p_summands(self):
        return self._summands[1]

    @cached_property
    def m_parts(self):
        """The module summands, each once, as a tuple in m_summands order."""
        return tuple(rep for rep, _ in self.m_summands())

    @cached_property
    def m_keys(self):
        """The frozenset of the content keys of m_parts."""
        return frozenset(rep.key() for rep in self.m_parts)

    @cached_property
    def check_key(self):
        """The summands' kinds and content keys with their multiplicities,
        as a frozenset since F_p entries do not sort: the key of
        check_pair."""
        parts = zip("mp", (self.m_summands(), self.p_summands()))
        return frozenset((k, rep.key(), n) for k, reps in parts for rep, n in reps)

    def is_basic(self):
        return all(mult == 1 for _, mult in self.m_summands()) and all(
            mult == 1 for _, mult in self.p_summands()
        )

    def size(self):
        return sum(m for _, m in self.m_summands()) + sum(m for _, m in self.p_summands())

    def fingerprint(self):
        if self._fingerprint is None:
            self._fingerprint = tuple(sorted(self.tokens))
        return self._fingerprint

    def __repr__(self):
        return f"TauPair(M dims={self.m.dims}, P dims={self.p.dims})"


def summand_token(kind, rep):
    """Canonical token of one indecomposable pair summand: ("mod", g-vector,
    dims) for a module summand (kind "m") and ("shift", -e_v, 0) for the
    projective summand P_v of the shifted part (kind "p")."""
    if kind == "m":
        return ("mod", g_vector(rep), rep.dims)
    v = _projective_vertex(rep)
    n = rep.algebra.n
    return ("shift", tuple(-1 if w == v else 0 for w in range(n)), (0,) * n)


def _projective_vertex(rep):
    """The vertex v with rep isomorphic to e_v A (rep must be an
    indecomposable projective).  A module with simple top S_v is a quotient
    of e_v A, so it is isomorphic to e_v A exactly when the dimensions
    agree.  Cached per content of rep."""
    alg = rep.algebra
    key = ("proj_vertex", rep.key())
    if key not in alg.cache:
        t = top_dims(rep)
        if sum(t) != 1:
            raise NotProjective("summand of the projective part is not indecomposable projective")
        v = t.index(1)
        if rep.dims != projective(alg, v).dims:
            raise NotProjective("summand of the projective part is not projective")
        alg.cache[key] = v
    return alg.cache[key]


def _group_rows(rows, tokens, kind):
    """(rep, multiplicity) per token among the rows of one kind, in row order."""
    grouped = {}
    for (k, rep, _), token in zip(rows, tokens):
        if k == kind:
            grouped.setdefault(token, [rep, 0])[1] += 1
    return [(rep, mult) for rep, mult in grouped.values()]


def sum_or_zero(algebra, parts):
    """The direct sum of the given modules, or 0 when there are none."""
    return _block_sum(parts) if parts else zero_rep(algebra)


def carried_pair(algebra, rows):
    """The one shared pair that carries the (kind, rep, complex) rows, per
    content of the rows in their order: kinds, module and complex content
    keys (family "pair").  Every pair built from its summands is built
    here, so a completion, a dual or a reduced image with a walked node's
    rows is that node, and tokens, keys and verdict are computed once."""
    rows = tuple(rows)
    key = ("pair", tuple((kind, rep.key(), c.key()) for kind, rep, c in rows))
    if key not in algebra.cache:
        algebra.cache[key] = TauPair(rows=rows, algebra=algebra)
    return algebra.cache[key]


def pair_from_summands(algebra, m_parts, p_parts):
    """The shared pair (sum of m_parts, sum of p_parts) that carries the
    parts and their complexes as its rows, in the canonical order of the
    complexes, as the walk's pairs list them (carried_pair).  Each part
    must be indecomposable, and each of p_parts some P_v."""
    from . import twoterm  # twoterm builds on this module

    rows = [("m", rep, twoterm.summand_complex("m", rep)) for rep in m_parts]
    rows += [("p", rep, twoterm.summand_complex("p", rep)) for rep in p_parts]
    return carried_pair(algebra, sorted(rows, key=lambda row: twoterm._sort_key(row[2])))


def check_pair(pair):
    """Classification of a basic pair.

    Returns a dict with keys: projective_ok, rigid, hom_p_m_zero,
    self_rigid, role and size.  The role is one of not_rigid, rigid,
    almost, tilting by the count of indecomposable summands against the
    number of vertices.  hom_p_m_zero is None when P is not projective.
    Cached per content of the summands with their multiplicities, as the
    pair carries them (TauPair.check_key), so M and P are not built; only
    a basic pair is cached, so a non-basic one raises on every call.  A
    verdict the pair carries (TauPair._verdict) is cached and not tested.
    """
    alg = pair.algebra
    key = ("check_pair", pair.check_key)
    if key not in alg.cache:
        alg.cache[key] = pair._verdict or _check_pair(pair)
    return dict(alg.cache[key])


def _check_pair(pair):
    """check_pair uncached: tau-rigidity summand by summand (see
    tau_rigid_summands), so a pair that carries its summands reads the
    answers its walk cached."""
    alg = pair.algebra
    if not pair.is_basic():
        raise PreconditionViolated("pair is not basic: a summand occurs more than once")
    try:
        for rep, _ in pair.p_summands():
            _projective_vertex(rep)
        projective_ok = True
    except NotProjective:
        projective_ok = False
    rows = [("m", rep) for rep, _ in pair.m_summands()]
    if projective_ok:
        rows += [("p", rep) for rep, _ in pair.p_summands()]
    self_rigid, hom_p_m_zero = tau_rigid_summands(rows)
    if not projective_ok:
        hom_p_m_zero = None
    rigid = projective_ok and hom_p_m_zero and self_rigid
    size = pair.size()
    if not rigid:
        role = "not_rigid"
    elif size == alg.n:
        role = "tilting"
    elif size == alg.n - 1:
        role = "almost"
    else:
        role = "rigid"
    return {
        "projective_ok": projective_ok,
        "rigid": rigid,
        "hom_p_m_zero": hom_p_m_zero,
        "self_rigid": self_rigid,
        "role": role,
        "size": size,
    }


def tau_rigid_summands(new, rest=()):
    """(self_rigid, hom_p_m_zero) of the pair summands new joined with
    rest, all given as (kind, rep) rows, with rest taken to be tau-rigid.

    M = (+) X_i is tau-rigid when Hom(X_i, tau X_j) = 0 for every ordered
    pair of module summands, and Hom(P_v, X_i) = (X_i)_v vanishes for
    every shifted summand P_v; only the ordered pairs that meet new are
    tested.  Each Hom(X_i, tau X_j) = 0 is one rank test on the minimal
    presentation of X_j (_hom_to_tau_zero), cached per summand content,
    so no tau is built.
    """
    rows = list(new) + list(rest)
    self_rigid = hom_p_m_zero = True
    for i, (ki, x) in enumerate(rows):
        for j, (kj, y) in enumerate(rows):
            if kj != "m" or min(i, j) >= len(new):
                continue
            if ki == "p":
                hom_p_m_zero = hom_p_m_zero and not y.dims[_projective_vertex(x)]
            elif self_rigid:
                self_rigid = _hom_to_tau_zero(x, y)
    return self_rigid, hom_p_m_zero


def describe_module(x):
    """Short display name: P<i>, S<i>, 0, or the dimension vector.

    Both names are exact: x is P_v when _projective_vertex accepts it, and
    S_v when it is one-dimensional; a simple projective is named P_v.
    """
    alg = x.algebra
    if x.is_zero():
        return "0"
    try:
        return f"P{alg.vertex_labels[_projective_vertex(x)]}"
    except NotProjective:
        pass
    if x.total_dim() == 1:
        return f"S{alg.vertex_labels[x.dims.index(1)]}"
    return "M(" + ",".join(str(d) for d in x.dims) + ")"


def describe_pair(pair):
    m_names = sorted(
        describe_module(rep) for rep, mult in pair.m_summands() for _ in range(mult)
    )
    p_names = sorted(
        f"P{pair.algebra.vertex_labels[_projective_vertex(rep)]}"
        for rep, mult in pair.p_summands()
        for _ in range(mult)
    )
    m_str = "+".join(m_names) if m_names else "0"
    p_str = "+".join(p_names) if p_names else "0"
    return f"({m_str} | {p_str})"


def rep_from_arrows(algebra, dims, arrow_mats):
    """Representation from matrices attached to the quiver arrows.

    Args:
        arrow_mats: dict arrow label -> matrix of shape dims[src] x dims[tgt].
    Radical basis elements get the product of their arrow matrices; the
    structure-constant validation then enforces the relations.
    """
    if algebra.words is None:
        raise TautiltError("algebra was not compiled from a quiver")
    field = algebra.field
    arr_mat = {}
    for k, (lbl, s, t) in enumerate(algebra.arrows):
        m = arrow_mats.get(lbl)
        if m is None:
            raise TautiltError(f"missing matrix for arrow {lbl!r}")
        m = [[field(x) for x in row] for row in m]
        if len(m) != dims[s] or (dims[s] and linalg.ncols(m) != dims[t]):
            raise TautiltError(f"matrix for arrow {lbl!r} has wrong shape")
        if dims[s] == 0:
            m = [[] for _ in range(0)]
        arr_mat[k] = m
    rad_mats = {}
    for k in algebra.radical_indices():
        word = algebra.words[k]
        i, j = algebra.peirce[k]
        mat = linalg.identity(dims[i], field)
        for a in word:
            mat = linalg.mat_mul(mat, arr_mat[a], field, out_cols=dims[algebra.arrows[a][2]])
        rad_mats[k] = mat
    return Representation(algebra, dims, rad_mats)
