"""The category of finite-dimensional right modules over a basic algebra.

A module is a Representation: one exact vector space per vertex plus one
matrix per radical basis element of the algebra (idempotents act as the
identity on their own vertex space).  All matrices act on row vectors,
x |-> x @ m, so a basis element b with Peirce pair (i, j) gets a matrix of
shape dims[i] x dims[j].
"""

import itertools
import random

from . import linalg
from .algebra import AlgebraElement
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
            self._key = (
                self.dims,
                tuple(
                    tuple(tuple(row) for row in self.mats[k])
                    for k in self.algebra.radical_indices()
                ),
            )
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
    key = ("projective", i)
    if key not in algebra.cache:
        algebra.cache[key] = canonical_rep(ProjSum(algebra, [i]).rep)
    return algebra.cache[key]


def simple(algebra, i):
    """The simple top of e_i A: one-dimensional at vertex i."""
    key = ("simple", i)
    if key not in algebra.cache:
        dims = tuple(1 if v == i else 0 for v in range(algebra.n))
        algebra.cache[key] = canonical_rep(
            Representation(algebra, dims, {}, check=False)
        )
    return algebra.cache[key]


def free_module(algebra):
    """The algebra as a right module over itself."""
    key = "free_module"
    if key not in algebra.cache:
        algebra.cache[key] = canonical_rep(
            ProjSum(algebra, list(range(algebra.n))).rep
        )
    return algebra.cache[key]


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

    def is_injective(self):
        return self.rank() == self.source.total_dim()

    def is_surjective(self):
        return self.rank() == self.target.total_dim()

    def is_isomorphism(self):
        return (
            self.source.dims == self.target.dims
            and all(linalg.det(m, self.field) for m in self.mats)
        )

    def inverse(self):
        if not self.is_isomorphism():
            raise TautiltError("map is not invertible")
        inv_mats = []
        for v, m in enumerate(self.mats):
            d = self.source.dims[v]
            if d == 0:
                inv_mats.append([])
                continue
            aug = [row + ident_row for row, ident_row in zip(m, linalg.identity(d, self.field))]
            red, _ = linalg.rref(aug, self.field)
            inv_mats.append([row[d:] for row in red])
        return ModuleMap(self.target, self.source, inv_mats, check=False)

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
        out = identity_map(self.source)
        base = self
        while m:
            if m & 1:
                out = out.then(base)
            m >>= 1
            if m:
                base = base.then(base)
        return out


def identity_map(x):
    return ModuleMap(x, x, [linalg.identity(d, x.field) for d in x.dims], check=False)


def zero_map(x, y):
    return ModuleMap(
        x, y, [linalg.zeros(x.dims[v], y.dims[v], x.field) for v in range(x.algebra.n)], check=False
    )


def map_factorization(f):
    """Kernel, image and cokernel of a map, each with its witness map."""
    ker, ker_incl = f.kernel()
    img, img_incl = f.image()
    cok, cok_proj = f.cokernel()
    return {
        "kernel": (ker, ker_incl),
        "image": (img, img_incl),
        "cokernel": (cok, cok_proj),
    }


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
    alg = x.algebra
    field = x.field
    v_iter = range(alg.n)
    closed = _sub_spans(x, spans)
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


def direct_sum(reps):
    """Direct sum with injection and projection maps."""
    if not reps:
        raise TautiltError("direct_sum of nothing needs an algebra; use zero_rep")
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
    total = Representation(alg, dims, rad_mats, check=False)
    injections = []
    projections = []
    offset = [0] * alg.n
    for r in reps:
        inj = []
        proj = []
        for v in range(alg.n):
            m = linalg.zeros(r.dims[v], dims[v], field)
            for a in range(r.dims[v]):
                m[a][offset[v] + a] = field.one
            inj.append(m)
            pm = linalg.zeros(dims[v], r.dims[v], field)
            for a in range(r.dims[v]):
                pm[offset[v] + a][a] = field.one
            proj.append(pm)
        injections.append(ModuleMap(r, total, inj, check=False))
        projections.append(ModuleMap(total, r, proj, check=False))
        for v in range(alg.n):
            offset[v] += r.dims[v]
    return total, injections, projections


# -- Hom spaces ------------------------------------------------------------


def hom_basis(x, y):
    """Basis of Hom(x, y) as a list of ModuleMaps (deterministic order)."""
    alg = x.algebra
    key = ("hom", x.key(), y.key())
    if key in alg.cache:
        basis_vecs = alg.cache[key]
    else:
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
        basis_vecs = linalg.right_nullspace(rows, field, cols=total)
        alg.cache[key] = basis_vecs
    return [_vec_to_map(x, y, vec) for vec in basis_vecs]


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
    return len(hom_basis(x, y))


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

    def generator_position(self, s):
        """(vertex, coordinate) of the idempotent generator of summand s."""
        v = self.vertices[s]
        return self.coords[s][v]

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
            _, pos = self.generator_position(s)
            img = f.mats[v][pos]
            for l in range(len(target.vertices)):
                coeffs = [alg.field.zero] * alg.dim
                for q in alg.peirce_basis(target.vertices[l], v):
                    coeffs[q] = img[target.coords[l][q][1]]
                blocks[l][s] = AlgebraElement(alg, coeffs)
        return blocks


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
    cover = ProjSum(alg, [v for v, _ in lifts])
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


def is_projective(x):
    cover, f = projective_cover(x)
    return cover.rep.dims == x.dims


class Presentation:
    """Minimal projective presentation P1 -> P0 -> X -> 0."""

    def __init__(self, p1, p0, blocks, cover, d_map):
        self.p1 = p1
        self.p0 = p0
        self.blocks = blocks
        self.cover = cover
        self.d_map = d_map


def min_proj_presentation(x):
    """Minimal presentation, cached per representation content."""
    alg = x.algebra
    key = ("pres", x.key())
    if key not in alg.cache:
        p0, cover = projective_cover(x)
        ker, incl = cover.kernel()
        p1, cover1 = projective_cover(ker)
        d_map = cover1.then(incl)
        blocks = p1.map_to_blocks(p0, d_map)
        for l in range(len(p0.vertices)):
            for s in range(len(p1.vertices)):
                if any(blocks[l][s].coeffs[:alg.n]):
                    raise CertificateFailure("presentation is not minimal")
        alg.cache[key] = Presentation(p1, p0, blocks, cover, d_map)
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


def transpose(x):
    """Auslander-Bruno transpose: cokernel of the dual of the presentation.

    The result is a module over the opposite algebra, with no projective
    summands when the presentation is minimal; Tr of a projective is 0.
    """
    alg = x.algebra
    op = alg.opposite()
    pres = min_proj_presentation(x)
    p0s = ProjSum(op, pres.p0.vertices)
    p1s = ProjSum(op, pres.p1.vertices)
    blocks_star = [
        [AlgebraElement(op, pres.blocks[l][s].coeffs) for l in range(len(pres.p0))]
        for s in range(len(pres.p1))
    ]
    dstar = p0s.block_to_map(p1s, blocks_star)
    cok, _ = dstar.cokernel()
    return cok


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


def _proj_hom_space_dim(ps, y):
    return sum(y.dims[v] for v in ps.vertices)


def _proj_hom_matrix(blocks, src, tgt, y):
    """Matrix of Hom(tgt, y) -> Hom(src, y) induced by blocks: src -> tgt.

    Hom(e_v A, Y) = Y_v; coordinates are concatenated per summand.
    """
    field = y.field
    rows = _proj_hom_space_dim(tgt, y)
    cols = _proj_hom_space_dim(src, y)
    out = linalg.zeros(rows, cols, field)
    roff = []
    t = 0
    for v in tgt.vertices:
        roff.append(t)
        t += y.dims[v]
    coff = []
    t = 0
    for v in src.vertices:
        coff.append(t)
        t += y.dims[v]
    for l, w in enumerate(tgt.vertices):
        for s, v in enumerate(src.vertices):
            elt = blocks[l][s]
            if elt.is_zero():
                continue
            act = linalg.zeros(y.dims[w], y.dims[v], field)
            for k in elt.support():
                act = linalg.mat_add(act, linalg.mat_scale(elt.coeffs[k], y.mat(k)))
            for a in range(y.dims[w]):
                for b in range(y.dims[v]):
                    out[roff[l] + a][coff[s] + b] = out[roff[l] + a][coff[s] + b] + act[a][b]
    return out


def ext1_dim(x, y):
    """dim Ext^1(x, y) via Hom(P_i, y) on a minimal resolution of x."""
    alg = x.algebra
    pres = min_proj_presentation(x)
    ker2, incl2 = pres.d_map.kernel()
    p2, cover2 = projective_cover(ker2)
    d2_map = cover2.then(incl2)
    d2_blocks = p2.map_to_blocks(pres.p1, d2_map)
    m1 = _proj_hom_matrix(pres.blocks, pres.p1, pres.p0, y)
    m2 = _proj_hom_matrix(d2_blocks, p2, pres.p1, y)
    dim_hom_p1 = _proj_hom_space_dim(pres.p1, y)
    # phi in Hom(P1,Y) is a row vector; the induced maps compose on the right
    rank_into = linalg.rank(m1, x.field)
    kernel_dim = dim_hom_p1 - linalg.rank(m2, x.field)
    return kernel_dim - rank_into


# -- decomposition ---------------------------------------------------------


def _power_ranks_stabilized(f, n):
    p = f.power(max(n, 1))
    p2 = p.then(p)
    return p if p.rank() == p2.rank() else p2


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


def _try_split(x, f):
    """Fitting split along f if it is neither nilpotent nor invertible."""
    n = x.total_dim()
    p = _power_ranks_stabilized(f, n)
    r = p.rank()
    if r == 0 or r == n:
        return None
    ker, _ = p.kernel()
    img, _ = p.image()
    if ker.total_dim() + img.total_dim() != n:
        raise CertificateFailure("Fitting split dimensions do not add up")
    return ker, img


def _splitting_candidates(x, endos, seed):
    ident = identity_map(x)
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
    rng = random.Random(seed)
    for _ in range(24):
        f = zero_map(x, x)
        for g in endos:
            f = f + g.scale(x.field(rng.randint(-5, 5)))
        yield f
        for lam in _eigen_shifts(f):
            if lam:
                yield f - ident.scale(lam)


def decompose(x, seed=0):
    """Indecomposable summands with multiplicities: list of (rep, mult).

    Splits along Fitting decompositions of endomorphisms drawn from the Hom
    basis, their rational eigenvalue shifts, products, and seeded random
    combinations; a piece is declared indecomposable when every candidate is
    nilpotent or invertible (local endomorphism ring certificate).
    """
    alg = x.algebra
    key = ("decomp", x.key(), seed)
    if key not in alg.cache:
        pieces = _decompose_raw(x, seed)
        grouped = []
        for piece in pieces:
            for entry in grouped:
                if is_isomorphic(entry[0], piece, seed=seed):
                    entry[1] += 1
                    break
            else:
                grouped.append([piece, 1])
        alg.cache[key] = [(rep, mult) for rep, mult in grouped]
    # intern on the way out so the chosen objects do not depend on which
    # equal-content input hit the cache first
    return [(canonical_rep(rep), mult) for rep, mult in alg.cache[key]]


def _decompose_raw(x, seed):
    if x.is_zero():
        return []
    endos = hom_basis(x, x)
    if len(endos) == 1:
        return [x]
    for f in _splitting_candidates(x, endos, seed):
        if f.is_zero():
            continue
        split = _try_split(x, f)
        if split is not None:
            ker, img = split
            return _decompose_raw(ker, seed) + _decompose_raw(img, seed)
    return [x]


def is_isomorphic(x, y, seed=0):
    """Isomorphism test: exact determinant check on generic Hom combinations."""
    if x.dims != y.dims:
        return False
    if x.is_zero():
        return True
    if x.key() == y.key():
        return True
    alg = x.algebra
    key = ("iso", x.key(), y.key())
    if key in alg.cache:
        return alg.cache[key]
    homs = hom_basis(x, y)
    result = False
    if homs:
        candidates = list(homs)
        for f, g in itertools.islice(itertools.combinations(homs, 2), 32):
            candidates.append(f + g)
        rng = random.Random(seed)
        for _ in range(20):
            f = zero_map(x, y)
            for g in homs:
                f = f + g.scale(x.field(rng.randint(-7, 7)))
            candidates.append(f)
        for f in candidates:
            if f.is_isomorphism():
                result = True
                break
    alg.cache[key] = result
    alg.cache[("iso", y.key(), x.key())] = result
    return result


# -- torsion machinery ------------------------------------------------------


def trace_submodule(gen, x):
    """The trace of gen in x: sum of images of all maps gen -> x."""
    spans = [[] for _ in range(x.algebra.n)]
    for f in hom_basis(gen, x):
        for v in range(x.algebra.n):
            spans[v].extend(f.mats[v])
    return submodule(x, spans)


def in_fac(gen, x):
    """Whether x lies in Fac(gen), i.e. the trace of gen fills x."""
    t, _ = trace_submodule(gen, x)
    return t.dims == x.dims


def torsion_part(gen, x):
    """Torsion part of x for the torsion class Fac(gen), gen tau-rigid.

    Returns (t, inclusion, quotient, projection).  Raises if the quotient
    still admits maps from gen, which signals a non-tau-rigid generator.
    """
    t, incl = trace_submodule(gen, x)
    spans = [incl.mats[v] if t.dims[v] else [] for v in range(x.algebra.n)]
    q, proj = quotient(x, spans)
    if hom_basis(gen, q):
        raise PreconditionViolated(
            "trace quotient admits maps from the generator; Fac(gen) is not "
            "a torsion class here"
        )
    return t, incl, q, proj


def in_perp_pair(u, q_proj, x):
    """Whether x lies in perp(tau u) intersected with the perp of q_proj."""
    if not u.is_zero():
        tau_u = ar_translate(u)
        if not tau_u.is_zero() and hom_basis(x, tau_u):
            return False
    if not q_proj.is_zero() and hom_basis(q_proj, x):
        return False
    return True


def in_wide(u, q_proj, x):
    """Membership in the wide subcategory u-perp ∩ perp(tau u) ∩ q-perp."""
    if not in_perp_pair(u, q_proj, x):
        return False
    if not u.is_zero() and hom_basis(u, x):
        return False
    return True


def star_membership(u_gen, m_gen, x):
    """Whether x lies in Fac(u_gen) * Fac(m_gen) (extension closure).

    Valid when u_gen is tau-rigid: x belongs iff x modulo the trace of
    u_gen lies in Fac(m_gen).
    """
    t, incl = trace_submodule(u_gen, x)
    spans = [incl.mats[v] if t.dims[v] else [] for v in range(x.algebra.n)]
    q, _ = quotient(x, spans)
    return in_fac(m_gen, q)


# -- bricks and filtrations --------------------------------------------------


def find_noninvertible_endo(y, seed=0):
    """A nonzero non-invertible endomorphism of y, or None if none is found
    among the basis, products, eigenvalue shifts and seeded combinations."""
    endos = hom_basis(y, y)
    if len(endos) <= 1:
        return None
    for f in _splitting_candidates(y, endos, seed):
        if not f.is_zero() and not f.is_isomorphism():
            return f
    return None


def is_brick(y, seed=0):
    """Whether every nonzero endomorphism of y is invertible."""
    if y.is_zero():
        return False
    if len(hom_basis(y, y)) == 1:
        return True
    return find_noninvertible_endo(y, seed) is None


def brick_shrink(y, seed=0):
    """Iterates y <- image(f) over nonzero non-invertible endomorphisms f
    until only invertible ones remain."""
    steps = y.total_dim() + 1
    for _ in range(steps):
        if y.is_zero():
            raise CertificateFailure("brick search collapsed to zero")
        f = find_noninvertible_endo(y, seed)
        if f is None:
            return y
        img, _ = f.image()
        if img.total_dim() >= y.total_dim():
            raise CertificateFailure("endomorphism image failed to shrink")
        y = img
    raise CertificateFailure("brick search did not converge")


def filt_member(d, x, seed=0, budget=32):
    """Whether x has a filtration with all factors isomorphic to d.

    Sound for the intended call sites where the filtration closure of d is
    a wide subcategory (kernels of surjections between filtered modules stay
    filtered).  Indeterminate searches raise SearchBudgetExceeded rather
    than answering False.
    """
    if x.is_zero():
        return True
    dd = d.total_dim()
    if dd == 0:
        return False
    if x.total_dim() % dd:
        return False
    ratio = x.total_dim() // dd
    if any(x.dims[v] != ratio * d.dims[v] for v in range(x.algebra.n)):
        return False
    if ratio == 1:
        return is_isomorphic(d, x, seed=seed)
    homs = hom_basis(x, d)
    if not homs:
        return False
    surj = None
    candidates = list(homs)
    rng = random.Random(seed)
    for _ in range(budget):
        f = zero_map(x, d)
        for g in homs:
            f = f + g.scale(x.field(rng.randint(-5, 5)))
        candidates.append(f)
    for f in candidates:
        if f.is_surjective():
            surj = f
            break
    if surj is None:
        raise SearchBudgetExceeded("no surjection onto the brick was found")
    ker, _ = surj.kernel()
    return filt_member(d, ker, seed=seed, budget=budget)


# -- pairs -------------------------------------------------------------------


class TauPair:
    """A pair (M, P): a module and a projective, kept with its summand data."""

    def __init__(self, m, p, seed=0):
        if m.algebra is not p.algebra:
            raise TautiltError("pair members live over different algebras")
        self.m = m
        self.p = p
        self.seed = seed
        self._summands = None
        self._fingerprint = None

    @property
    def algebra(self):
        return self.m.algebra

    def m_summands(self):
        if self._summands is None:
            self._summands = (decompose(self.m, self.seed), decompose(self.p, self.seed))
        return self._summands[0]

    def p_summands(self):
        if self._summands is None:
            self._summands = (decompose(self.m, self.seed), decompose(self.p, self.seed))
        return self._summands[1]

    def is_basic(self):
        return all(mult == 1 for _, mult in self.m_summands()) and all(
            mult == 1 for _, mult in self.p_summands()
        )

    def size(self):
        return sum(m for _, m in self.m_summands()) + sum(m for _, m in self.p_summands())

    def summand_fingerprints(self):
        """One canonical token per indecomposable summand (with multiplicity)."""
        out = []
        for rep, mult in self.m_summands():
            token = ("mod", g_vector(rep), rep.dims)
            out.extend([token] * mult)
        for rep, mult in self.p_summands():
            v = _projective_vertex(rep)
            g = tuple(-1 if w == v else 0 for w in range(self.algebra.n))
            token = ("shift", g, (0,) * self.algebra.n)
            out.extend([token] * mult)
        return sorted(out)

    def fingerprint(self):
        if self._fingerprint is None:
            self._fingerprint = tuple(self.summand_fingerprints())
        return self._fingerprint

    def __repr__(self):
        return f"TauPair(M dims={self.m.dims}, P dims={self.p.dims})"


def _projective_vertex(rep):
    """The vertex v with rep isomorphic to e_v A (rep must be an
    indecomposable projective)."""
    t = top_dims(rep)
    if sum(t) != 1:
        raise NotProjective("summand of the projective part is not indecomposable projective")
    v = t.index(1)
    if not is_isomorphic(rep, projective(rep.algebra, v)):
        raise NotProjective("summand of the projective part is not projective")
    return v


def pair_from_summands(algebra, m_parts, p_parts):
    m = direct_sum(list(m_parts))[0] if m_parts else zero_rep(algebra)
    p = direct_sum(list(p_parts))[0] if p_parts else zero_rep(algebra)
    return TauPair(m, p)


def normalize_pair(pair):
    """Basic version of a pair: one copy of each indecomposable summand."""
    alg = pair.algebra
    m_parts = [rep for rep, _ in pair.m_summands()]
    p_parts = [rep for rep, _ in pair.p_summands()]
    return pair_from_summands(alg, m_parts, p_parts)


def check_pair(pair):
    """Classification of a basic pair.

    Returns a dict with keys: projective_ok, rigid, hom_p_m_zero, role.
    The role is one of not_rigid, rigid, almost, tilting by the count of
    indecomposable summands against the number of vertices.
    """
    alg = pair.algebra
    if not pair.is_basic():
        raise PreconditionViolated("pair is not basic; call normalize_pair first")
    projective_ok = pair.p.is_zero() or is_projective(pair.p)
    hom_p_m_zero = pair.p.is_zero() or pair.m.is_zero() or not hom_basis(pair.p, pair.m)
    if pair.m.is_zero():
        self_rigid = True
    else:
        tau_m = ar_translate(pair.m)
        self_rigid = tau_m.is_zero() or not hom_basis(pair.m, tau_m)
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


def describe_module(x):
    """Short display name: P<i>, S<i>, 0, or the dimension vector."""
    alg = x.algebra
    if x.is_zero():
        return "0"
    for i in range(alg.n):
        if is_isomorphic(x, projective(alg, i)):
            return f"P{alg.vertex_labels[i]}"
    for i in range(alg.n):
        if is_isomorphic(x, simple(alg, i)):
            return f"S{alg.vertex_labels[i]}"
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


def rep_from_arrows(algebra, dims, arrow_mats, check=True):
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
        m = [[field(x) if not isinstance(x, type(field.zero)) else x for x in row] for row in m]
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
    return Representation(algebra, dims, rad_mats, check=check)
