"""Bounded complexes of projectives, aimed at the two-term window.

A complex is stored degreewise as explicit direct sums of indecomposable
projectives (ProjSum) with differentials given by matrices of algebra
elements: d^i maps degree i to degree i+1, and the block in row l, column k
lies in e_{w_l} A e_{v_k} (target vertex on the left).  Composition of block
maps is the matrix product of their element matrices.

Morphism spaces are computed in the homotopy category, as the cohomology
of the Hom complex: chain maps, the kernel of its differential, modulo the
null-homotopic ones, its image one degree down, all as exact linear
algebra over the ground field.
"""

from . import linalg, modules
from .algebra import AlgebraElement, ContentKey, local_inverse
from .errors import (
    CertificateFailure,
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
        # the indecomposable summands the complex was built from, in order
        # (set by sum_of_summands), else None
        self.parts = None
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
        return modules._proj_sum(self.algebra, self.term_vertices(i))

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
            self._key = ContentKey(bits)
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


def direct_sum_complexes(parts):
    """The block-diagonal sum; a single part is returned as it is."""
    if not parts:
        raise TautiltError("empty sum needs an algebra; use zero_complex")
    if len(parts) == 1:
        return parts[0]
    alg = parts[0].algebra
    zero = alg.zero_element()
    degrees = sorted({i for t in parts for i in t.terms})
    terms = {i: [v for t in parts for v in t.term_vertices(i)] for i in degrees}
    diffs = {}
    for i in degrees:
        # block diagonal: each part's rows, padded by the other parts' columns
        widths = [len(t.term_vertices(i)) for t in parts]
        diffs[i] = [
            [zero] * sum(widths[:k]) + row + [zero] * sum(widths[k + 1 :])
            for k, t in enumerate(parts)
            for row in t.diff(i)
        ]
    return ProjectiveComplex(alg, terms, diffs, check=False)


# -- conversion with module pairs ---------------------------------------------


def _presentation_complex(alg, pres):
    """The two-term complex P1 -> P0 of a presentation."""
    terms = {-1: pres.p1.vertices, 0: pres.p0.vertices}
    return ProjectiveComplex(alg, terms, {-1: pres.blocks}, check=False)


def summand_complex(kind, rep):
    """Two-term complex of one pair summand: the minimal presentation of a
    summand of M (kind "m"), or P_v[1] for a summand P_v of P (kind "p").
    Built once per (kind, rep) content and shared."""
    alg = rep.algebra
    key = ("summand_complex", kind, rep.key())
    if key not in alg.cache:
        if kind == "m":
            alg.cache[key] = _presentation_complex(alg, modules.min_proj_presentation(rep))
        else:
            alg.cache[key] = stalk_complex(alg, [modules._projective_vertex(rep)], -1)
    return alg.cache[key]


def to_tau_pair(t):
    """Pair (H^0, shifted part) of a minimal two-term complex: the shared
    pair (modules.carried_pair) of one row per summand from _summand_row,
    in the order decompose_complex gives the summands.  A complex that
    carries its parts (see sum_of_summands) gives them in its part order
    (ascending v for the P_v, by _sort_key); any other is split through
    H^0.
    """
    rows = [_summand_row(c) for c, mult in decompose_complex(t) for _ in range(mult)]
    return modules.carried_pair(t.algebra, rows)


def _h0_and_shift(t):
    """H^0 of a two-term complex and the vertices of its shifted part,
    after the degree-0 term is checked to be a minimal cover of H^0 and
    the degree -1 term to hold the syzygy part."""
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
    return m, remaining


def _summand_row(c):
    """The pair row (kind, rep, complex) of one summand c of a carried
    complex, cached per content of c.

    P_v[1] gives ("p", P_v, c).  Any other summand must be the minimal
    presentation of its H^0, with no P_v[1] or contractible piece, and
    gives ("m", H^0, the minimal presentation of H^0).  An indecomposable
    two-term presilting complex is one of the two, with H^0 indecomposable
    and tau-rigid (Adachi-Iyama-Reiten, arXiv:1210.1036, Sect. 3).
    """
    alg = c.algebra
    key = ("summand_h0", c.key())
    if key not in alg.cache:
        h0, shift = _h0_and_shift(c)
        if h0.is_zero() and len(shift) == 1:
            row = ("p", modules.projective(alg, shift[0]), c)
        elif h0.is_zero() or shift:
            raise CertificateFailure("a summand of the complex is not indecomposable")
        else:
            h0 = modules.canonical_rep(h0)
            row = ("m", h0, summand_complex("m", h0))
        alg.cache[key] = row
    return alg.cache[key]


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


def _differential(x, y, s, layout):
    """The Hom-complex differential D_s(f) = f.d_x - (-1)^s d_y.f on the
    coordinates of layout = _block_layout(x, y, s).

    Returns the image of each coordinate, in layout order, as a dict from
    (i, m, k, q) to its coefficient: basis element q in block (m, k) of the
    degree-(s+1) map x^i -> y^{i+s+1}.  It runs over the nonzero entries of
    the differentials that meet the layout, with products read from the
    structure constants; by Peirce homogeneity each lands in its block.
    """
    if not layout:
        return []
    alg = x.algebra
    mult, zero, one = alg.mult, alg.field.zero, alg.field.one
    blocks = {(i, m, k): (qs, off) for i, m, k, qs, off in layout}
    degrees = {i for i, *_ in layout}
    images = [{} for *_, qs, _ in layout for _ in qs]
    # each term pairs a nonzero entry a of a differential with a block of
    # f: f^(d+1) d_x^d from block (m, k) and entry (k, k2) of d_x lands in
    # block (m, k2) of degree d; d_y^d f^(d-s) from entry (m2, m) of d_y
    # and block (m, k) lands in block (m2, k) of degree d - s
    terms = []
    for d, rows in x.diffs.items():
        if d + 1 in degrees:
            for k, row in enumerate(rows):
                for k2, a in enumerate(row):
                    if any(a.coeffs):
                        for m in range(len(y.term_vertices(d + 1 + s))):
                            terms.append((blocks[d + 1, m, k], a, one, (d, m, k2), False))
    sign = -one if s % 2 == 0 else one
    for d, rows in y.diffs.items():
        if d - s in degrees:
            for m2, row in enumerate(rows):
                for m, a in enumerate(row):
                    if any(a.coeffs):
                        for k in range(len(x.term_vertices(d - s))):
                            terms.append((blocks[d - s, m, k], a, sign, (d - s, m2, k), True))
    for (qs, off), a, scale, cell, left in terms:
        sup = [(j, scale * b) for j, b in enumerate(a.coeffs) if b]
        for p, q in enumerate(qs):
            image = images[off + p]
            for j, b in sup:
                for t, c in mult.get((j, q) if left else (q, j), ()):
                    key = cell + (t,)
                    image[key] = image.get(key, zero) + b * c
    return images


def chain_hom_data(x, y, shift=0):
    """Chain maps x -> y[shift] and null-homotopies, as exact linear data.

    A map x -> y[shift] is a degree-shift element of the Hom complex of x
    and y (see _differential).  Returns (chain_vectors, boundary_vectors,
    layout), all in the block coordinates of layout = _block_layout(x, y,
    shift): the chain vectors are the reduced basis of ker D_shift, the
    chain maps; the boundary vectors are the nonzero images of D_(shift-1),
    which span the null-homotopic ones.
    """
    layout, total = _block_layout(x, y, shift)
    if not total:
        return [], [], layout
    field = x.algebra.field
    equations = {}
    for col, image in enumerate(_differential(x, y, shift, layout)):
        for key, c in image.items():
            row = equations.get(key)
            if row is None:
                row = equations[key] = [field.zero] * total
            row[col] = c
    chain_vectors = linalg.right_nullspace(list(equations.values()), field, cols=total)
    boundary_vectors = []
    images = _differential(x, y, shift - 1, _block_layout(x, y, shift - 1)[0])
    if images:
        position = {(i, m, k, q): off + p for i, m, k, qs, off in layout for p, q in enumerate(qs)}
        for image in images:
            vec = [field.zero] * total
            for key, c in image.items():
                vec[position[key]] = c
            if any(vec):
                boundary_vectors.append(vec)
    return chain_vectors, boundary_vectors, layout


def hom_k(x, y, shift=0):
    """dim Hom in the homotopy category between x and y[shift].

    Hom is additive in each argument, so a complex that carries its parts
    (see sum_of_summands) is read part by part, and each pair of parts is
    cached once per content.
    """
    if x.parts is not None:
        return sum(hom_k(c, y, shift) for c in x.parts)
    if y.parts is not None:
        return sum(hom_k(x, c, shift) for c in y.parts)
    alg = x.algebra
    key = ("homk", x.key(), y.key(), shift)
    if key not in alg.cache:
        chains, boundaries, _ = chain_hom_data(x, y, shift)
        alg.cache[key] = len(chains) - linalg.rank(boundaries, alg.field)
    return alg.cache[key]


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


# -- decomposition ------------------------------------------------------------------


def decompose_complex(t):
    """Indecomposable summands with multiplicities, minimal representatives.

    A complex that carries its parts (see sum_of_summands) returns them.
    Otherwise the split goes through H^0: a minimal two-term complex Z is
    P(H^0 Z) + Q[1], with P(X) the minimal presentation of X and Q the rest
    of Z^{-1} (Adachi-Iyama-Reiten, arXiv:1210.1036, Sect. 3), and P(-) is
    additive and sends indecomposables to indecomposables.  So the summands
    are P(X) for each summand X of H^0 from modules.decompose, then P_v[1]
    for each shifted vertex v.  Two-term only: raises PreconditionViolated
    outside the window, and SearchBudgetExceeded where modules.decompose
    does.
    """
    if t.parts is not None:
        return [(c, 1) for c in t.parts]
    h0, shift = _h0_and_shift(t)
    return [(summand_complex("m", x), mult) for x, mult in modules.decompose(h0)] + [
        (stalk_complex(t.algebra, [v], -1), shift.count(v)) for v in sorted(set(shift))
    ]


def _sort_key(t):
    """key() with F_p coefficients read as residues, so every field sorts.

    Over Q the coefficients are ints and Fractions, which compare with each
    other, so they keep their order.
    """
    if not t.field.char:
        return t.key()
    return tuple(
        (i, verts, tuple(tuple(tuple(c.val for c in e) for e in row) for row in blocks))
        for i, verts, blocks in t.key()
    )


def sum_of_summands(parts):
    """Direct sum of pairwise non-isomorphic indecomposable minimal complexes.

    The parts go in the canonical order of _sort_key, and the sum carries
    them as its decomposition: decompose_complex returns them without a
    search.  Its terms are assembled when first read.
    """
    if not parts:
        raise TautiltError("empty sum needs an algebra; use zero_complex")
    return _SummedComplex(sorted(parts, key=_sort_key))


class _SummedComplex(ProjectiveComplex):
    """The direct sum of its parts, whose terms and differentials are
    assembled when first read; is_two_term reads the parts."""

    def __init__(self, parts):
        self.algebra, self.parts = parts[0].algebra, tuple(parts)
        self._key = None

    def __getattr__(self, name):
        if name not in ("terms", "diffs"):
            raise AttributeError(name)
        whole = direct_sum_complexes(self.parts)
        self.terms, self.diffs = whole.terms, whole.diffs
        return getattr(self, name)

    def is_two_term(self):
        return all(c.is_two_term() for c in self.parts)


# -- silting tests -----------------------------------------------------------------


def is_presilting(t):
    """No self-extensions in positive shifts inside the two-term window."""
    if not t.is_two_term():
        raise PreconditionViolated("presilting test expects a two-term complex")
    return hom_k(t, t, 1) == 0


def is_silting(t):
    """Two-term silting: presilting with n distinct indecomposable summands."""
    if not is_presilting(t):
        return False
    parts = decompose_complex(t)
    if any(mult > 1 for _, mult in parts):
        return False
    return len(parts) == t.algebra.n


def silting_leq(a, b):
    """Partial order: a <= b iff Hom(b, a[1]) vanishes."""
    return hom_k(b, a, 1) == 0


# -- approximations, completions, mutations -------------------------------------


def _compose(alg, phis, phi_layout, f, f_layout, layout):
    """Coordinates on layout of phi.f for each phi in phis, for degree-zero
    maps f: x -> y on f_layout and phi: y -> z on phi_layout, where layout
    is that of (x, z).

    Block (m, k) of degree i of phi.f is the sum over l of phi's block
    (m, l) times f's block (l, k).  It runs over the nonzero coordinates
    only, with products read from the structure constants; by Peirce
    homogeneity each lands in its block.
    """
    mult, zero = alg.mult, alg.field.zero
    position = {(i, m, k, q): off + p for i, m, k, qs, off in layout for p, q in enumerate(qs)}
    # the nonzero coordinates of f, by degree and row l
    rows = {}
    for i, l, k, qs, off in f_layout:
        for p, q in enumerate(qs):
            if f[off + p]:
                rows.setdefault((i, l), []).append((k, q, f[off + p]))
    out = []
    for phi in phis:
        vec = [zero] * len(position)
        for i, m, l, qs, off in phi_layout:
            for p, q in enumerate(qs):
                a = phi[off + p]
                if a:
                    for k, r, b in rows.get((i, l), ()):
                        for t, c in mult.get((q, r), ()):
                            vec[position[i, m, k, t]] += a * b * c
        out.append(vec)
    return out


def _hom_rep_basis(x, y):
    """Representatives of a basis of Hom(x, y) modulo homotopy, and the
    null-homotopic maps and layout of the same coordinates: the one cached
    record of Hom_K(x, y), per (x, y) content."""
    alg = x.algebra
    key = ("hom_rep", x.key(), y.key())
    if key not in alg.cache:
        chains, boundaries, layout = chain_hom_data(x, y, 0)
        width = len(chains[0]) if chains else 0
        kept = linalg._extend_basis(boundaries, chains, alg.field, width)
        alg.cache[key] = [chains[t] for t in kept], boundaries, layout
    return alg.cache[key]


def min_left_approx(x, parts):
    """Minimal left add(U)-approximation f: x -> U', for U the sum of the
    given pairwise non-isomorphic indecomposable parts.

    The candidates, a basis of each Hom(x, U_j) modulo homotopy in part
    order, together form a left approximation.  One pass drops candidate c
    of part j when it lies in the span of the null-homotopic maps x -> U_j
    and of phi.d for every other kept candidate d and homotopy-class
    representative phi of Hom(d's part, U_j) (_hom_rep_basis); a
    null-homotopic phi gives a null-homotopic phi.d, already in the span.
    That span is the U_j-component of the submodule generated under End(U)
    by the other kept candidates, so c lies in it exactly when they still
    form a left approximation.  Dropping only shrinks the spans, so a
    candidate found necessary stays necessary, and the pass keeps what a
    loop dropping one candidate and restarting keeps; Krull-Schmidt makes
    that minimal.  Each phi.d is composed once, when first needed, in the
    block coordinates of the Hom_K records (_compose), read once per pair
    of parts.

    Returns (target, blocks): U', the sum with one copy of U_j per kept
    candidate of part j, in candidate order (the zero complex when none is
    kept), and the per-degree blocks of f that cone reads.  Mutation and
    Bongartz completion take the cone of this map.
    """
    alg = x.algebra
    records = [_hom_rep_basis(x, part) for part in parts]
    candidates = [(j, v) for j, (reps, _, _) in enumerate(records) for v in reps]
    kept = [True] * len(candidates)
    comps, between = {}, {}
    for c, (j, vec) in enumerate(candidates):
        rows = list(records[j][1])
        for d, (i, f) in enumerate(candidates):
            if d == c or not kept[d]:
                continue
            if (d, j) not in comps:
                if (i, j) not in between:
                    between[i, j] = _hom_rep_basis(parts[i], parts[j])
                phis, _, phi_layout = between[i, j]
                comps[d, j] = _compose(alg, phis, phi_layout, f, records[i][2], records[j][2])
            rows += comps[d, j]
        kept[c] = not linalg.RowSolver(rows, alg.field, len(vec)).contains(vec)
    pieces = [(parts[j], records[j][2], v) for (j, v), k in zip(candidates, kept) if k]
    if not pieces:
        return zero_complex(alg), {}
    target = direct_sum_complexes([part for part, _, _ in pieces])
    # each kept candidate's coordinates go into its part's rows, below the
    # rows of the parts kept before it; every other block is zero
    zero, field_zero = alg.zero_element(), alg.field.zero
    blocks = {i: [] for i in x.support() if target.term_vertices(i)}
    for part, layout, vec in pieces:
        base = {i: len(rows) for i, rows in blocks.items()}
        for i, rows in blocks.items():
            rows += [[zero] * len(x.term_vertices(i)) for _ in part.term_vertices(i)]
        for i, m, k, qs, off in layout:
            if any(vec[off:off + len(qs)]):
                coeffs = [field_zero] * alg.dim
                for p, q in enumerate(qs):
                    coeffs[q] = vec[off + p] or field_zero
                blocks[i][base[i] + m][k] = AlgebraElement(alg, coeffs)
    return target, blocks


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

    The completion is u joined with the cone of the minimal left
    add(u)-approximation of t[-1]; it is defined when Hom(u, t[1]) = 0,
    which matches the torsion window of the pair picture, and callers
    certify the output independently.

    It is built from summands: read from decompose_complex, which costs
    nothing when u and t carry theirs (see sum_of_summands).  Each summand
    t_i[-1] is approximated on its own and only its small cone is split,
    through its H^0 (see decompose_complex).  This gives the same basic
    complex: the sum of the per-summand approximations is a left
    approximation of t[-1], and any left approximation is the minimal one
    plus a summand 0 -> U'' with U'' in add(u), so its cone is the minimal
    cone plus U'', which u already holds.  The cones' summands are merged
    into u's by _join_by_g, so u must be presilting.  A summand with
    Hom(t_i[-1], u) = Hom(t_i, u[1]) = 0 has the zero map as its
    approximation, so it is its own cone and is neither approximated nor
    split.  The split cone of each summand is cached once, per content of
    t_i and of u's parts, so anchors that share a summand share its cone
    and u's terms are never assembled.
    """
    if not is_presilting(u):
        raise PreconditionViolated("completion expects a presilting u")
    if hom_k(u, t, 1):
        raise PreconditionViolated("Hom(u, t[1]) must vanish for completion")
    alg = u.algebra
    u_parts = [c for c, _ in decompose_complex(u)]
    u_keys = tuple(c.key() for c in u_parts)
    cones = []
    for ti, _ in decompose_complex(t):
        key = ("left_cone", u_keys, ti.key())
        if key not in alg.cache:
            if not any(hom_k(ti, c, 1) for c in u_parts):
                alg.cache[key] = (ti,)
            else:
                x = ti.shift(-1)
                y = minimalize(cone(x, *min_left_approx(x, u_parts)))
                alg.cache[key] = tuple(c for c, _ in decompose_complex(y))
        cones.extend(alg.cache[key])
    return _join_by_g(u_parts, cones)


def _join_by_g(u_parts, parts):
    """The sum of u_parts and parts merged by g-vector, keeping u's copy on
    a tie: exact on a presilting join, whose summands the g-vectors
    determine (Adachi-Iyama-Reiten, arXiv:1210.1036, Thm 5.5)."""
    merged = {c.g_vec(): c for c in u_parts}
    for c in parts:
        merged.setdefault(c.g_vec(), c)
    return sum_of_summands(list(merged.values()))


def mutate_complex(t, summand_index, direction):
    """Irreducible mutation of a two-term basic silting complex at one summand.

    direction "left" takes the cone of the minimal left approximation of the
    summand into the other summands.  "right" is its dual: complex_dagger
    sends right approximations over A to left ones over A^op, so it takes
    the same cone over A^op and reads it back.  That cone is indecomposable,
    so the result carries the summands at hand (see sum_of_summands) and is
    not decomposed again.  Returns the new complex, or None when it leaves
    the window.
    """
    if direction not in ("left", "right"):
        raise TautiltError("direction must be left or right")
    if not t.is_two_term():
        raise PreconditionViolated("mutation expects a two-term complex")
    parts = decompose_complex(t)
    if any(mult > 1 for _, mult in parts):
        raise PreconditionViolated("mutation expects a basic complex")
    reps = [c for c, _ in parts]
    if not 0 <= summand_index < len(reps):
        raise TautiltError("summand index out of range")
    x = reps[summand_index]
    rest = [c for idx, c in enumerate(reps) if idx != summand_index]
    others = rest
    if direction == "right":
        x, others = complex_dagger(x), [complex_dagger(c) for c in rest]
    y = minimalize(cone(x, *min_left_approx(x, others)))
    # complex_dagger raises outside the window, so test before reading back
    if not y.is_two_term():
        return None
    if direction == "right":
        y = complex_dagger(y)
    return sum_of_summands(rest + [y])
