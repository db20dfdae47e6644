"""Bounded complexes of projectives, aimed at the two-term window.

A complex is stored degreewise as explicit direct sums of indecomposable
projectives (ProjSum) with differentials given by matrices of algebra
elements: d^i maps degree i to degree i+1, and the block in row l, column k
lies in e_{w_l} A e_{v_k} (target vertex on the left).  Composition of block
maps is the matrix product of their element matrices.

Morphism spaces are computed in the homotopy category: chain maps minus
null-homotopic ones, all as exact linear algebra over the ground field.
"""

import itertools
import random

from . import linalg, modules
from .algebra import AlgebraElement, local_inverse
from .errors import (
    CertificateFailure,
    NotSilting,
    PreconditionViolated,
    TautiltError,
)


class ProjectiveComplex:
    """Complex of projectives with finite support."""

    def __init__(self, algebra, terms, diffs, check=True):
        """Args:
        terms: dict degree -> list of vertex indices (the ProjSum summands).
        diffs: dict degree i -> block matrix (list of rows over terms[i+1],
            columns over terms[i]) of AlgebraElements.
        """
        self.algebra = algebra
        self.terms = {}
        for i, verts in terms.items():
            verts = list(verts)
            if verts:
                self.terms[i] = verts
        self.diffs = {}
        for i, blocks in diffs.items():
            if i in self.terms and (i + 1) in self.terms:
                self.diffs[i] = [list(row) for row in blocks]
        self._key = None
        self._psums = {}
        if check:
            self.validate()

    @property
    def field(self):
        return self.algebra.field

    def support(self):
        return sorted(self.terms)

    def term_vertices(self, i):
        return self.terms.get(i, [])

    def projsum(self, i):
        if i not in self._psums:
            self._psums[i] = modules.ProjSum(self.algebra, self.term_vertices(i))
        return self._psums[i]

    def diff(self, i):
        """Differential blocks in degree i (zeros where absent)."""
        if i in self.diffs:
            return self.diffs[i]
        zero = self.algebra.zero_element()
        return [
            [zero for _ in self.term_vertices(i)] for _ in self.term_vertices(i + 1)
        ]

    def is_zero(self):
        return not self.terms

    def is_two_term(self):
        return all(i in (-1, 0) for i in self.support())

    def total_summands(self):
        return sum(len(v) for v in self.terms.values())

    def validate(self):
        n = self.algebra.n
        for i, verts in self.terms.items():
            for v in verts:
                if not 0 <= v < n:
                    raise TautiltError(f"bad vertex index {v} in degree {i}")
        for i, blocks in self.diffs.items():
            src = self.term_vertices(i)
            tgt = self.term_vertices(i + 1)
            if len(blocks) != len(tgt) or any(len(row) != len(src) for row in blocks):
                raise TautiltError(f"differential in degree {i} has wrong block shape")
            for l, row in enumerate(blocks):
                for k, elt in enumerate(row):
                    if elt != elt.peirce_component(tgt[l], src[k]):
                        raise TautiltError(
                            f"block ({l},{k}) in degree {i} leaves its Peirce block"
                        )
        for i in self.support():
            if i + 1 in self.terms and i + 2 in self.terms:
                a = self.diff(i)
                b = self.diff(i + 1)
                for m in range(len(self.term_vertices(i + 2))):
                    for k in range(len(self.term_vertices(i))):
                        acc = self.algebra.zero_element()
                        for l in range(len(self.term_vertices(i + 1))):
                            acc = acc + b[m][l] * a[l][k]
                        if not acc.is_zero():
                            raise TautiltError("differential does not square to zero")
        return True

    def key(self):
        if self._key is None:
            bits = []
            for i in self.support():
                blocks = self.diff(i) if i + 1 in self.terms else []
                bits.append(
                    (
                        i,
                        tuple(self.term_vertices(i)),
                        tuple(tuple(e.coeffs for e in row) for row in blocks),
                    )
                )
            self._key = tuple(bits)
        return self._key

    def shift(self, s):
        """T[s] with T[s]^i = T^{i+s} and differential scaled by (-1)^s."""
        terms = {i - s: list(v) for i, v in self.terms.items()}
        sign = self.field(1) if s % 2 == 0 else self.field(-1)
        diffs = {
            i - s: [[e.scale(sign) for e in row] for row in blocks]
            for i, blocks in self.diffs.items()
        }
        return ProjectiveComplex(self.algebra, terms, diffs, check=False)

    def g_vec(self):
        """Degree-0 minus degree-(-1) projective multiplicities."""
        if not self.is_two_term():
            raise PreconditionViolated("g-vectors are defined on the two-term window")
        g = [0] * self.algebra.n
        for v in self.term_vertices(0):
            g[v] += 1
        for v in self.term_vertices(-1):
            g[v] -= 1
        return tuple(g)

    def __repr__(self):
        bits = ", ".join(f"{i}: {self.term_vertices(i)}" for i in self.support())
        return f"ProjectiveComplex({bits})"


def zero_complex(algebra):
    return ProjectiveComplex(algebra, {}, {}, check=False)


def stalk_complex(algebra, vertices, degree=0):
    return ProjectiveComplex(algebra, {degree: list(vertices)}, {}, check=False)


def free_silting(algebra):
    """The algebra in degree 0: the canonical maximal silting complex."""
    return stalk_complex(algebra, list(range(algebra.n)), 0)


def shifted_silting(algebra):
    """The algebra in degree -1: the canonical minimal silting complex."""
    return stalk_complex(algebra, list(range(algebra.n)), -1)


def direct_sum_complexes(parts):
    if not parts:
        raise TautiltError("empty sum needs an algebra; use zero_complex")
    alg = parts[0].algebra
    zero = alg.zero_element()
    degrees = sorted({i for t in parts for i in t.terms})
    terms = {i: [v for t in parts for v in t.term_vertices(i)] for i in degrees}
    diffs = {}
    for i in degrees:
        if i + 1 not in terms:
            continue
        rows = []
        for pi, part in enumerate(parts):
            tgt_len = len(part.term_vertices(i + 1))
            if tgt_len == 0:
                continue
            blocks = part.diff(i)
            row_block = []
            for l in range(tgt_len):
                row = []
                for qi, other in enumerate(parts):
                    if qi == pi:
                        row.extend(blocks[l])
                    else:
                        row.extend([zero] * len(other.term_vertices(i)))
                row_block.append(row)
            rows.extend(row_block)
        if rows:
            diffs[i] = rows
    return ProjectiveComplex(alg, terms, diffs, check=False)


# -- conversion with module pairs ---------------------------------------------


def from_tau_pair(pair):
    """Two-term complex of a pair: minimal presentation of M plus P[1]."""
    alg = pair.algebra
    pres = modules.min_proj_presentation(pair.m)
    p_vertices = []
    for rep, mult in pair.p_summands():
        v = modules._projective_vertex(rep)
        p_vertices.extend([v] * mult)
    lower = list(pres.p1.vertices) + p_vertices
    upper = list(pres.p0.vertices)
    zero = alg.zero_element()
    blocks = [
        [pres.blocks[l][k] for k in range(len(pres.p1.vertices))]
        + [zero] * len(p_vertices)
        for l in range(len(upper))
    ]
    terms = {}
    diffs = {}
    if lower:
        terms[-1] = lower
    if upper:
        terms[0] = upper
    if lower and upper:
        diffs[-1] = blocks
    return ProjectiveComplex(alg, terms, diffs, check=False)


def to_tau_pair(t):
    """Pair (H^0, shifted part) of a minimal two-term complex."""
    alg = t.algebra
    t = minimalize(t)
    if not t.is_two_term():
        raise PreconditionViolated("complex is not in the two-term window")
    p_lower = t.projsum(-1)
    p_upper = t.projsum(0)
    d_map = p_lower.block_to_map(p_upper, t.diff(-1)) if -1 in t.terms and 0 in t.terms else None
    if d_map is None:
        if 0 in t.terms:
            m = p_upper.rep
        else:
            m = modules.zero_rep(alg)
    else:
        m, _ = d_map.cokernel()
    pres = modules.min_proj_presentation(m)
    if sorted(pres.p0.vertices) != sorted(t.term_vertices(0)):
        raise CertificateFailure("degree-0 term is not a minimal cover of H^0")
    remaining = list(t.term_vertices(-1))
    for v in pres.p1.vertices:
        if v not in remaining:
            raise CertificateFailure("degree--1 term does not contain the syzygy part")
        remaining.remove(v)
    p = modules.ProjSum(alg, sorted(remaining)).rep if remaining else modules.zero_rep(alg)
    return modules.TauPair(m, p)


# -- morphism spaces -----------------------------------------------------------


def _block_layout(x, y, shift):
    """Coordinates of potential chain maps f^i: x^i -> y^{i+shift}."""
    layout = []
    offset = 0
    for i in x.support():
        yv = y.term_vertices(i + shift)
        xv = x.term_vertices(i)
        if not yv or not xv:
            continue
        for m, w in enumerate(yv):
            for k, v in enumerate(xv):
                qs = x.algebra.peirce_basis(w, v)
                layout.append((i, m, k, qs, offset))
                offset += len(qs)
    return layout, offset


def _layout_index(layout):
    return {(i, m, k): (qs, offset) for i, m, k, qs, offset in layout}


def chain_hom_data(x, y, shift=0):
    """Chain maps x -> y[shift] and null-homotopies, as exact linear data.

    Returns (chain_vectors, boundary_vectors, layout): the first spans all
    chain maps in block coordinates, the second spans the null-homotopic
    ones inside the same coordinates.
    """
    alg = x.algebra
    field = alg.field
    sign = field(1) if shift % 2 == 0 else field(-1)
    layout, total = _block_layout(x, y, shift)
    index = _layout_index(layout)

    rows = []
    for i in x.support():
        xv = x.term_vertices(i)
        yv = y.term_vertices(i + shift + 1)
        if not xv or not yv:
            continue
        dx = x.diff(i) if i + 1 in x.terms else None
        dy = y.diff(i + shift) if i + shift in y.terms else None
        for m, w in enumerate(yv):
            for k, v in enumerate(xv):
                cell = alg.peirce_basis(w, v)
                if not cell:
                    continue
                eq = [[field.zero] * total for _ in cell]
                if dx is not None:
                    for l in range(len(x.term_vertices(i + 1))):
                        entry = index.get((i + 1, m, l))
                        if entry is None:
                            continue
                        qs, off = entry
                        a = dx[l][k]
                        if a.is_zero():
                            continue
                        for pos, q in enumerate(qs):
                            prod = alg.basis_element(q) * a
                            for r, target_q in enumerate(cell):
                                c = prod.coeffs[target_q]
                                if c:
                                    eq[r][off + pos] = eq[r][off + pos] + c
                if dy is not None:
                    for l in range(len(y.term_vertices(i + shift))):
                        entry = index.get((i, l, k))
                        if entry is None:
                            continue
                        qs, off = entry
                        a = dy[m][l]
                        if a.is_zero():
                            continue
                        for pos, q in enumerate(qs):
                            prod = a * alg.basis_element(q)
                            for r, target_q in enumerate(cell):
                                c = prod.coeffs[target_q]
                                if c:
                                    eq[r][off + pos] = eq[r][off + pos] - sign * c
                rows.extend(row for row in eq if any(row))
    chain_vectors = linalg.right_nullspace(rows, field, cols=total)

    h_layout, h_total = _block_layout(x, y, shift - 1)
    boundary_vectors = []
    for i_h, m, k, qs, _ in h_layout:
        for q in qs:
            vec = [field.zero] * total
            touched = False
            if i_h - 1 in x.diffs:
                dx = x.diff(i_h - 1)
                for k2 in range(len(x.term_vertices(i_h - 1))):
                    entry = index.get((i_h - 1, m, k2))
                    if entry is None:
                        continue
                    cell, off = entry
                    a = dx[k][k2]
                    if a.is_zero():
                        continue
                    prod = alg.basis_element(q) * a
                    for r, tq in enumerate(cell):
                        c = prod.coeffs[tq]
                        if c:
                            vec[off + r] = vec[off + r] + c
                            touched = True
            if i_h + shift - 1 in y.diffs:
                dy = y.diff(i_h + shift - 1)
                for m2 in range(len(y.term_vertices(i_h + shift))):
                    entry = index.get((i_h, m2, k))
                    if entry is None:
                        continue
                    cell, off = entry
                    a = dy[m2][m]
                    if a.is_zero():
                        continue
                    prod = a * alg.basis_element(q)
                    for r, tq in enumerate(cell):
                        c = prod.coeffs[tq]
                        if c:
                            vec[off + r] = vec[off + r] + sign * c
                            touched = True
            if touched:
                boundary_vectors.append(vec)
    return chain_vectors, boundary_vectors, layout


def hom_k(x, y, shift=0):
    """dim Hom in the homotopy category between x and y[shift]."""
    alg = x.algebra
    key = ("homk", x.key(), y.key(), shift)
    if key not in alg.cache:
        chains, boundaries, _ = chain_hom_data(x, y, shift)
        alg.cache[key] = len(chains) - linalg.rank(boundaries, alg.field)
    return alg.cache[key]


def vec_to_blocks(x, y, shift, layout, vec):
    """Decode a coordinate vector into per-degree block matrices."""
    alg = x.algebra
    zero = alg.zero_element()
    out = {}
    for i, m, k, qs, off in layout:
        blocks = out.get(i)
        if blocks is None:
            # build the zero block lazily; setdefault would rebuild it per row
            blocks = [
                [zero] * len(x.term_vertices(i))
                for _ in y.term_vertices(i + shift)
            ]
            out[i] = blocks
        coeffs = [alg.field.zero] * alg.dim
        nonzero = False
        for pos, q in enumerate(qs):
            c = vec[off + pos]
            if c:
                coeffs[q] = c
                nonzero = True
        if nonzero:
            blocks[m][k] = blocks[m][k] + AlgebraElement(alg, coeffs)
    return out


# -- cones and minimalization ----------------------------------------------------


def cone(x, y, f_blocks):
    """Mapping cone of a chain map f: x -> y given by per-degree blocks.

    cone^i = x^{i+1} (+) y^i with differential [[-d_x, 0], [f, d_y]].
    """
    alg = x.algebra
    zero = alg.zero_element()
    neg = alg.field(-1)
    degrees = sorted(set([i - 1 for i in x.terms] + list(y.terms)))
    terms = {}
    for i in degrees:
        verts = list(x.term_vertices(i + 1)) + list(y.term_vertices(i))
        if verts:
            terms[i] = verts
    diffs = {}
    for i in degrees:
        if i + 1 not in terms or i not in terms:
            continue
        xs, ys = x.term_vertices(i + 1), y.term_vertices(i)
        xt, yt = x.term_vertices(i + 2), y.term_vertices(i + 1)
        dx = x.diff(i + 1)
        dy = y.diff(i)
        f = f_blocks.get(i + 1)
        rows = []
        for a in range(len(xt)):
            row = [dx[a][b].scale(neg) for b in range(len(xs))]
            row += [zero] * len(ys)
            rows.append(row)
        for c in range(len(yt)):
            row = []
            for b in range(len(xs)):
                row.append(f[c][b] if f is not None else zero)
            row += [dy[c][e] for e in range(len(ys))]
            rows.append(row)
        if rows:
            diffs[i] = rows
    return ProjectiveComplex(alg, terms, diffs, check=False)


def cocone(x, y, g_blocks):
    """Cocone (shifted cone) of g: x -> y: fits in cocone -> x -> y."""
    return cone(x, y, g_blocks).shift(-1)


def minimalize(t):
    """Strip contractible summands [e_vA = e_vA] by Gaussian elimination.

    A differential entry with invertible scalar part is a pivot; the Schur
    complement replaces its degree, and adjacent differentials just lose the
    pivot row or column (justified by d^2 = 0 after the basis change).
    """
    alg = t.algebra
    terms = {i: list(v) for i, v in t.terms.items()}
    diffs = {i: [list(row) for row in blocks] for i, blocks in t.diffs.items()}

    def find_pivot():
        for i, blocks in diffs.items():
            src = terms.get(i, [])
            tgt = terms.get(i + 1, [])
            for l in range(len(tgt)):
                for k in range(len(src)):
                    if src[k] == tgt[l] and blocks[l][k].scalar_part(src[k]):
                        return i, l, k
        return None

    while True:
        hit = find_pivot()
        if hit is None:
            break
        i, lp, kp = hit
        v = terms[i][kp]
        u_inv = local_inverse(diffs[i][lp][kp], v)
        blocks = diffs[i]
        src_n = len(terms[i])
        tgt_n = len(terms[i + 1])
        new = []
        for l in range(tgt_n):
            if l == lp:
                continue
            row = []
            for k in range(src_n):
                if k == kp:
                    continue
                row.append(blocks[l][k] - blocks[l][kp] * u_inv * blocks[lp][k])
            new.append(row)
        terms[i].pop(kp)
        terms[i + 1].pop(lp)
        if terms[i] and terms[i + 1]:
            diffs[i] = new
        else:
            diffs.pop(i, None)
        if i - 1 in diffs:
            if terms[i]:
                diffs[i - 1] = [
                    row for r, row in enumerate(diffs[i - 1]) if r != kp
                ]
            else:
                diffs.pop(i - 1)
        if i + 1 in diffs:
            if terms[i + 1]:
                diffs[i + 1] = [
                    [e for c, e in enumerate(row) if c != lp] for row in diffs[i + 1]
                ]
            else:
                diffs.pop(i + 1)
        for j in (i, i + 1):
            if j in terms and not terms[j]:
                terms.pop(j)
    return ProjectiveComplex(alg, terms, diffs, check=False)


# -- realization and decomposition ------------------------------------------------


def realize(t):
    """Representations of each degree plus realized differential maps."""
    psums = {i: t.projsum(i) for i in t.support()}
    dmaps = {}
    for i in t.diffs:
        dmaps[i] = psums[i].block_to_map(psums[i + 1], t.diffs[i])
    return psums, dmaps


def _endo_from_vec(t, psums, layout, vec):
    blocks = vec_to_blocks(t, t, 0, layout, vec)
    out = {}
    for i in t.support():
        if i in blocks:
            out[i] = psums[i].block_to_map(psums[i], blocks[i])
        else:
            out[i] = modules.zero_map(psums[i].rep, psums[i].rep)
    return out


def _endo_compose(a, b):
    return {i: a[i].then(b[i]) for i in a}


def _endo_add(a, b):
    return {i: a[i] + b[i] for i in a}


def _endo_scale(c, a):
    return {i: a[i].scale(c) for i in a}


def _endo_identity(psums):
    return {i: modules.identity_map(ps.rep) for i, ps in psums.items()}


def _endo_is_zero(a):
    return all(m.is_zero() for m in a.values())


def _endo_power(a, m):
    out = None
    base = a
    while m:
        if m & 1:
            out = base if out is None else _endo_compose(out, base)
        m >>= 1
        if m:
            base = _endo_compose(base, base)
    return out


def _endo_rank(a):
    return sum(m.rank() for m in a.values())


def _endo_eigen_shifts(a, field):
    values = set()
    for m in a.values():
        for mat in m.mats:
            if not mat:
                continue
            try:
                roots = linalg.rational_roots(linalg.charpoly(mat, field), field)
            except TautiltError:
                roots = []
            values.update(roots)
    return sorted(values, key=str)


def _complex_split_candidates(t, psums, endos, seed):
    field = t.field
    ident = _endo_identity(psums)
    for f in endos:
        yield f
        for lam in _endo_eigen_shifts(f, field):
            if lam:
                yield _endo_add(f, _endo_scale(-lam, ident))
    for f, g in itertools.islice(itertools.combinations(endos, 2), 64):
        yield _endo_add(f, g)
        h = _endo_compose(f, g)
        yield h
        for lam in _endo_eigen_shifts(h, field):
            if lam:
                yield _endo_add(h, _endo_scale(-lam, ident))
    rng = random.Random(seed)
    zero = {i: modules.zero_map(ps.rep, ps.rep) for i, ps in psums.items()}
    for _ in range(24):
        f = zero
        for g in endos:
            f = _endo_add(f, _endo_scale(field(rng.randint(-5, 5)), g))
        yield f
        for lam in _endo_eigen_shifts(f, field):
            if lam:
                yield _endo_add(f, _endo_scale(-lam, ident))


def _split_projective_part(sub, incl, other_incl, ambient):
    """ProjSum form of a direct summand of a projective module.

    Returns (psum, map psum.rep -> ambient rep, map ambient rep -> psum.rep)
    using the complementary summand to build the splitting projection.
    """
    alg = sub.algebra
    field = sub.field
    cover, cov = modules.projective_cover(sub)
    if cover.rep.dims != sub.dims:
        raise CertificateFailure("summand of a projective failed to be projective")
    into = cov.then(incl)
    proj_mats = []
    for v in range(alg.n):
        stacked = [list(r) for r in incl.mats[v]] + [list(r) for r in other_incl.mats[v]]
        d = ambient.dims[v]
        if len(stacked) != d:
            raise CertificateFailure("splitting basis does not fill the space")
        if d == 0:
            proj_mats.append([])
            continue
        aug = [row + ident for row, ident in zip(stacked, linalg.identity(d, field))]
        red, _ = linalg.rref(aug, field)
        inv = [row[d:] for row in red]  # inverse of the stacked basis matrix
        proj_mats.append([row[: sub.dims[v]] for row in inv])
    onto_sub = modules.ModuleMap(ambient, sub, proj_mats, check=False)
    back = onto_sub.then(cov.inverse())
    return cover, into, back


def _rebuild_from_endo(t, psums, p):
    """Split t along the Fitting decomposition of the stabilized endo p."""
    halves = []
    kernels = {i: p[i].kernel() for i in p}
    images = {i: p[i].image() for i in p}
    for pick, other in ((kernels, images), (images, kernels)):
        covers = {}
        intos = {}
        backs = {}
        for i in t.support():
            sub, incl = pick[i]
            _, other_incl = other[i]
            covers[i], intos[i], backs[i] = _split_projective_part(
                sub, incl, other_incl, psums[i].rep
            )
        terms = {i: list(covers[i].vertices) for i in t.support() if covers[i].vertices}
        diffs = {}
        for i in t.diffs:
            if i not in terms or i + 1 not in terms:
                continue
            d = psums[i].block_to_map(psums[i + 1], t.diffs[i])
            restricted = intos[i].then(d).then(backs[i + 1])
            diffs[i] = covers[i].map_to_blocks(covers[i + 1], restricted)
        halves.append(ProjectiveComplex(t.algebra, terms, diffs, check=False))
    return halves


def decompose_complex(t, seed=0):
    """Indecomposable summands with multiplicities, minimal representatives."""
    alg = t.algebra
    key = ("cdecomp", t.key(), seed)
    if key not in alg.cache:
        pieces = _decompose_complex_raw(minimalize(t), seed)
        grouped = []
        for piece in pieces:
            for entry in grouped:
                if is_isomorphic_complex(entry[0], piece, seed=seed):
                    entry[1] += 1
                    break
            else:
                grouped.append([piece, 1])
        alg.cache[key] = [(c, mult) for c, mult in grouped]
    return alg.cache[key]


def _decompose_complex_raw(t, seed):
    if t.is_zero():
        return []
    psums, _ = realize(t)
    chains, _, layout = chain_hom_data(t, t, 0)
    endos = [_endo_from_vec(t, psums, layout, vec) for vec in chains]
    if len(endos) == 1:
        return [t]
    total = sum(ps.rep.total_dim() for ps in psums.values())
    for f in _complex_split_candidates(t, psums, endos, seed):
        if _endo_is_zero(f):
            continue
        p = _endo_power(f, max(total, 1))
        p2 = _endo_compose(p, p)
        if _endo_rank(p2) != _endo_rank(p):
            p = p2
        r = _endo_rank(p)
        if r == 0 or r == total:
            continue
        halves = _rebuild_from_endo(t, psums, p)
        return _decompose_complex_raw(halves[0], seed) + _decompose_complex_raw(
            halves[1], seed
        )
    return [t]


def _sort_key(t):
    """key() with F_p coefficients read as residues, so every field sorts.

    Over Q the coefficients stay Fractions, which keeps their order.
    """
    if not t.field.char:
        return t.key()
    return tuple(
        (i, verts, tuple(tuple(tuple(c.val for c in e) for e in row) for row in blocks))
        for i, verts, blocks in t.key()
    )


def sum_of_summands(parts, seed=0):
    """Direct sum of pairwise non-isomorphic indecomposable minimal complexes.

    The parts go in the canonical order of _sort_key, and the sum carries
    them as its decomposition: decompose_complex(sum, seed) returns them
    without a search.
    """
    parts = sorted(parts, key=_sort_key)
    out = direct_sum_complexes(parts)
    out.algebra.cache[("cdecomp", out.key(), seed)] = [(c, 1) for c in parts]
    return out


def basic_complex(t, seed=0):
    """One copy of each indecomposable summand, in the canonical order; the
    result carries its summands (see sum_of_summands)."""
    parts = [c for c, _ in decompose_complex(t, seed)]
    if not parts:
        return zero_complex(t.algebra)
    return sum_of_summands(parts, seed)


def is_isomorphic_complex(a, b, seed=0):
    """Isomorphism in the homotopy category of two minimal complexes."""
    a = a if _looks_minimal(a) else minimalize(a)
    b = b if _looks_minimal(b) else minimalize(b)
    if a.key() == b.key():
        return True
    if sorted(a.terms) != sorted(b.terms):
        return False
    for i in a.terms:
        if sorted(a.term_vertices(i)) != sorted(b.term_vertices(i)):
            return False
    psums_a, _ = realize(a)
    psums_b, _ = realize(b)
    chains, _, layout = chain_hom_data(a, b, 0)
    if not chains:
        return a.is_zero()
    candidates = list(chains)
    rng = random.Random(seed)
    for _ in range(20):
        vec = [a.field.zero] * len(chains[0])
        for c in chains:
            s = a.field(rng.randint(-7, 7))
            vec = [x + s * y for x, y in zip(vec, c)]
        candidates.append(vec)
    for vec in candidates:
        blocks = vec_to_blocks(a, b, 0, layout, vec)
        ok = True
        for i in a.support():
            f = psums_a[i].block_to_map(psums_b[i], blocks.get(i)) if i in blocks else None
            if f is None:
                f = modules.zero_map(psums_a[i].rep, psums_b[i].rep)
            if not f.is_isomorphism():
                ok = False
                break
        if ok:
            return True
    return False


def _looks_minimal(t):
    for i, blocks in t.diffs.items():
        src = t.term_vertices(i)
        tgt = t.term_vertices(i + 1)
        for l in range(len(tgt)):
            for k in range(len(src)):
                if src[k] == tgt[l] and blocks[l][k].scalar_part(src[k]):
                    return False
    return True


# -- silting tests -----------------------------------------------------------------


def is_presilting(t):
    """No self-extensions in positive shifts inside the two-term window."""
    if not t.is_two_term():
        raise PreconditionViolated("presilting test expects a two-term complex")
    return hom_k(t, t, 1) == 0


def is_silting(t, seed=0):
    """Two-term silting: presilting with n distinct indecomposable summands."""
    if not is_presilting(t):
        return False
    parts = decompose_complex(t, seed)
    if any(mult > 1 for _, mult in parts):
        return False
    return len(parts) == t.algebra.n


def assert_silting(t, seed=0):
    if not is_silting(t, seed):
        raise NotSilting("complex is not a basic two-term silting object")
    g_rows = [list(c.g_vec()) for c, _ in decompose_complex(t, seed)]
    d = linalg.det(g_rows, linalg.QQ)
    if d * d != linalg.QQ(1):
        raise CertificateFailure("g-matrix of a silting object must have det +-1")
    return True


def g_matrix(t, seed=0):
    """Rows are the g-vectors of the indecomposable summands, sorted."""
    rows = []
    for c, mult in decompose_complex(t, seed):
        rows.extend([c.g_vec()] * mult)
    return sorted(rows)


def silting_leq(a, b):
    """Partial order: a <= b iff Hom(b, a[1]) vanishes."""
    return hom_k(b, a, 1) == 0


# -- approximations, completions, mutations -------------------------------------


class ChainMap:
    """A degree-zero chain map between two complexes, stored blockwise."""

    def __init__(self, source, target, blocks):
        self.source = source
        self.target = target
        self.blocks = blocks

    def validate(self):
        vec = _blocks_to_vec(self.source, self.target, self.blocks)
        chains, _, _ = chain_hom_data(self.source, self.target, 0)
        solver = linalg.RowSolver(chains, self.source.algebra.field, len(vec))
        if not solver.contains(vec):
            raise TautiltError("blocks do not satisfy the chain condition")
        return self


def _blocks_to_vec(x, y, blocks):
    """Inverse of vec_to_blocks for degree-zero maps."""
    layout, total = _block_layout(x, y, 0)
    field = x.algebra.field
    vec = [field.zero] * total
    for i, m, k, qs, off in layout:
        bl = blocks.get(i)
        if bl is None:
            continue
        elt = bl[m][k]
        for pos, q in enumerate(qs):
            c = elt.coeffs[q]
            if c:
                vec[off + pos] = c
    return vec


def _compose_blocks(second, first, src, mid, tgt):
    """Blocks of (second ∘ first) for first: src -> mid, second: mid -> tgt."""
    zero = src.algebra.zero_element()
    out = {}
    for i in src.support():
        sv = src.term_vertices(i)
        mv = mid.term_vertices(i)
        tv = tgt.term_vertices(i)
        if not sv or not tv or not mv:
            continue
        fb = first.get(i)
        sb = second.get(i)
        if fb is None or sb is None:
            continue
        rows = []
        for m in range(len(tv)):
            row = []
            for k in range(len(sv)):
                acc = zero
                for l in range(len(mv)):
                    acc = acc + sb[m][l] * fb[l][k]
                row.append(acc)
            rows.append(row)
        out[i] = rows
    return out


def _hom_rep_basis(x, y):
    """Representatives of a basis of Hom(x, y) modulo homotopy."""
    chains, boundaries, layout = chain_hom_data(x, y, 0)
    if not chains:
        return [], layout
    width = len(chains[0])
    solver = linalg.RowSolver(boundaries, x.algebra.field, width)
    kept = []
    for vec in chains:
        if not solver.contains(vec):
            kept.append(vec)
            solver = linalg.RowSolver(boundaries + kept, x.algebra.field, width)
    return kept, layout


def _is_left_approximation(f, parts):
    """Every map from f.source into each part must factor through f."""
    x = f.source
    field = x.algebra.field
    for part in parts:
        chains, boundaries, _ = chain_hom_data(x, part, 0)
        target_rank = linalg.rank(chains, field)
        if not target_rank:
            continue
        phis, _, phi_layout = chain_hom_data(f.target, part, 0)
        comps = list(boundaries)
        for vec in phis:
            phi_blocks = vec_to_blocks(f.target, part, 0, phi_layout, vec)
            comp = _compose_blocks(phi_blocks, f.blocks, x, f.target, part)
            comps.append(_blocks_to_vec(x, part, comp))
        if linalg.rank(comps, field) < linalg.rank(
            list(boundaries) + list(chains), field
        ):
            return False
    return True


def _is_right_approximation(g, parts):
    """Every map from each part into g.target must factor through g."""
    x = g.target
    field = x.algebra.field
    for part in parts:
        chains, boundaries, _ = chain_hom_data(part, x, 0)
        if not linalg.rank(chains, field):
            continue
        psis, _, psi_layout = chain_hom_data(part, g.source, 0)
        comps = list(boundaries)
        for vec in psis:
            psi_blocks = vec_to_blocks(part, g.source, 0, psi_layout, vec)
            comp = _compose_blocks(g.blocks, psi_blocks, part, g.source, x)
            comps.append(_blocks_to_vec(part, x, comp))
        if linalg.rank(comps, field) < linalg.rank(
            list(boundaries) + list(chains), field
        ):
            return False
    return True


def min_left_approx(x, u, seed=0):
    """Minimal left add(u)-approximation f: x -> U'.

    Built greedily: start from one copy of each indecomposable summand of u
    per Hom-basis element, then drop copies while the factoring property
    survives.  Krull-Schmidt makes the greedy endpoint minimal.  Mutation and
    Bongartz completion take the cone of this map.
    """
    return _min_left_approx(x, [p for p, _ in decompose_complex(u, seed)])


def _min_left_approx(x, parts):
    """min_left_approx into the sum of the given indecomposable parts."""
    candidates = []
    for part in parts:
        reps, layout = _hom_rep_basis(x, part)
        for vec in reps:
            candidates.append((part, vec_to_blocks(x, part, 0, layout, vec)))
    keep = list(candidates)
    changed = True
    while changed:
        changed = False
        for idx in range(len(keep)):
            trial = keep[:idx] + keep[idx + 1 :]
            f = _assemble_into(x, trial)
            if _is_left_approximation(f, parts):
                keep = trial
                changed = True
                break
    return _assemble_into(x, keep)


def min_right_approx(x, u, seed=0):
    """Minimal right add(u)-approximation g: U' -> x (mirror case)."""
    return _min_right_approx(x, [p for p, _ in decompose_complex(u, seed)])


def _min_right_approx(x, parts):
    """min_right_approx out of the sum of the given indecomposable parts."""
    candidates = []
    for part in parts:
        reps, layout = _hom_rep_basis(part, x)
        for vec in reps:
            candidates.append((part, vec_to_blocks(part, x, 0, layout, vec)))
    keep = list(candidates)
    changed = True
    while changed:
        changed = False
        for idx in range(len(keep)):
            trial = keep[:idx] + keep[idx + 1 :]
            g = _assemble_from(x, trial)
            if _is_right_approximation(g, parts):
                keep = trial
                changed = True
                break
    return _assemble_from(x, keep)


def _assemble_into(x, pieces):
    """Stack maps x -> part_i into one map x -> (+) part_i."""
    target = (
        direct_sum_complexes([p for p, _ in pieces])
        if pieces
        else zero_complex(x.algebra)
    )
    zero = x.algebra.zero_element()
    blocks = {}
    for i in x.support():
        if not target.term_vertices(i):
            continue
        rows = []
        for part, pblocks in pieces:
            pv = part.term_vertices(i)
            bl = pblocks.get(i)
            if bl is None:
                bl = [[zero for _ in x.term_vertices(i)] for _ in pv]
            rows.extend(bl)
        blocks[i] = rows
    return ChainMap(x, target, blocks)


def _assemble_from(x, pieces):
    """Join maps part_i -> x into one map (+) part_i -> x."""
    source = (
        direct_sum_complexes([p for p, _ in pieces])
        if pieces
        else zero_complex(x.algebra)
    )
    zero = x.algebra.zero_element()
    blocks = {}
    for i in source.support():
        if not x.term_vertices(i):
            continue
        rows = [[] for _ in x.term_vertices(i)]
        for part, pblocks in pieces:
            pv = part.term_vertices(i)
            if not pv:
                continue
            bl = pblocks.get(i)
            if bl is None:
                bl = [[zero for _ in pv] for _ in x.term_vertices(i)]
            for l in range(len(rows)):
                rows[l].extend(bl[l])
        blocks[i] = rows
    return ChainMap(source, x, blocks)


def complex_dagger(t):
    """Derived duality on the two-term window: apply Hom(-, A) degreewise.

    Sends P^{-1} -> P^0 over A to (P^0)* -> (P^{-1})* over the opposite
    algebra, still in degrees (-1, 0).  Involutive and order-reversing;
    matches the duality on pairs (M, P) |-> (P* + Tr M_np, (M_pr)*).
    """
    if not t.is_two_term():
        raise PreconditionViolated("duality is defined on the two-term window")
    op = t.algebra.opposite()
    lower = t.term_vertices(0)
    upper = t.term_vertices(-1)
    blocks = t.diff(-1)
    new_blocks = [
        [AlgebraElement(op, blocks[l][k].coeffs) for l in range(len(lower))]
        for k in range(len(upper))
    ]
    terms = {}
    diffs = {}
    if lower:
        terms[-1] = list(lower)
    if upper:
        terms[0] = list(upper)
    if lower and upper:
        diffs[-1] = new_blocks
    return ProjectiveComplex(op, terms, diffs, check=False)


def left_completion_silting(u, t):
    """Left Bongartz completion of presilting u with respect to silting t.

    Cone over the minimal left add(u)-approximation of t[-1], joined with
    u and reduced to a basic complex.  Defined when Hom(u, t[1]) = 0, which
    matches the torsion window of the pair picture; callers certify the
    output independently.
    """
    if hom_k(u, t, 1):
        raise PreconditionViolated("Hom(u, t[1]) must vanish for completion")
    f = min_left_approx(t.shift(-1), u)
    x = minimalize(cone(f.source, f.target, f.blocks))
    return basic_complex(direct_sum_complexes([u, x]))


def right_completion_silting(u, t):
    """Right Bongartz completion, computed through the derived duality.

    Defined when Hom(t, u[1]) = 0, the mirror of the left window; the check
    happens on the dual side.
    """
    out = left_completion_silting(complex_dagger(u), complex_dagger(t))
    return complex_dagger(out)


def mutate_complex(t, summand_index, direction, seed=0):
    """Irreducible mutation of a basic silting complex at one summand.

    direction "left" takes the cone of the minimal left approximation of the
    summand into the other summands, "right" the cocone of the minimal right
    approximation from them.  That cone is indecomposable, so the result
    carries the summands at hand (see sum_of_summands) and is not decomposed
    again.  Returns the new complex, or None when it leaves the window.
    """
    parts = decompose_complex(t, seed)
    if any(mult > 1 for _, mult in parts):
        raise PreconditionViolated("mutation expects a basic complex")
    reps = [c for c, _ in parts]
    if not 0 <= summand_index < len(reps):
        raise TautiltError("summand index out of range")
    x = reps[summand_index]
    rest = [c for idx, c in enumerate(reps) if idx != summand_index]
    if direction == "left":
        f = _min_left_approx(x, rest)
        y = minimalize(cone(x, f.target, f.blocks))
    elif direction == "right":
        g = _min_right_approx(x, rest)
        y = minimalize(cocone(g.source, x, g.blocks))
    else:
        raise TautiltError("direction must be left or right")
    if not y.is_two_term():
        return None
    out = sum_of_summands(rest + [y], seed)
    if not out.is_two_term():
        return None
    return out


def complex_fingerprint(t, seed=0):
    """Canonical token multiset matching TauPair.summand_fingerprints."""
    out = []
    for c, mult in decompose_complex(t, seed):
        if 0 not in c.terms:
            for v in c.term_vertices(-1):
                g = tuple(-1 if w == v else 0 for w in range(t.algebra.n))
                out.extend([("shift", g, (0,) * t.algebra.n)] * mult)
        else:
            psums, _ = realize(c)
            if -1 in c.terms:
                d = psums[-1].block_to_map(psums[0], c.diff(-1))
                h0, _ = d.cokernel()
            else:
                h0 = psums[0].rep
            out.extend([("mod", c.g_vec(), h0.dims)] * mult)
    return tuple(sorted(out))
