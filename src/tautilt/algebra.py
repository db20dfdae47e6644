"""Bound quivers and finite-dimensional basic algebras over an exact field.

An algebra is stored by structure constants on a Peirce-adapted basis: the
first n basis elements are the primitive orthogonal idempotents e_1..e_n (one
per vertex), every later basis element lies in the radical and carries a
Peirce pair (i, j), meaning e_i * b * e_j = b.  Paths compose left to right:
for arrows p: u -> v and q: v -> w the product p*q is a path u -> w.
"""

import heapq
import itertools

from . import linalg
from .errors import (
    MalformedRelation,
    NotBasic,
    NotFiniteDimensional,
    SearchBudgetExceeded,
    TautiltError,
)

PATH_CAP = 1500


class ContentKey(tuple):
    """A content tuple that computes its hash once.

    Cache keys nest whole module and complex contents, and a plain tuple
    hashes all of its entries again at every lookup.  Equality, ordering
    and the hash value are those of the plain tuple."""

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            self._hash = tuple.__hash__(self)
            return self._hash


class Quiver:
    """Finite quiver with labelled vertices and arrows."""

    def __init__(self, vertices, arrows):
        """Args:
        vertices: list of distinct vertex labels.
        arrows: list of (label, source, target) triples using vertex labels.
        """
        self.vertices = list(vertices)
        if len(set(self.vertices)) != len(self.vertices):
            raise TautiltError("duplicate vertex labels")
        self.vertex_index = {v: i for i, v in enumerate(self.vertices)}
        self.arrows = []
        seen = set()
        for label, src, tgt in arrows:
            if label in seen:
                raise TautiltError(f"duplicate arrow label {label!r}")
            if src not in self.vertex_index or tgt not in self.vertex_index:
                raise TautiltError(f"arrow {label!r} uses unknown vertex")
            seen.add(label)
            self.arrows.append((label, src, tgt))
        self.arrow_index = {a[0]: i for i, a in enumerate(self.arrows)}

    def opposite(self):
        return Quiver(self.vertices, [(lbl, tgt, src) for lbl, src, tgt in self.arrows])


class Relation:
    """Linear combination of parallel paths of length >= 2 in a quiver."""

    def __init__(self, quiver, terms):
        """Args:
        terms: list of (coefficient, path) with each path a sequence of
            arrow labels, composed left to right.
        """
        if not terms:
            raise MalformedRelation("empty relation")
        self.terms = []
        endpoints = None
        for coeff, path in terms:
            path = tuple(path)
            if len(path) < 2:
                raise MalformedRelation(f"path {path} has length < 2")
            for lbl in path:
                if lbl not in quiver.arrow_index:
                    raise MalformedRelation(f"unknown arrow {lbl!r}")
            for first, second in zip(path, path[1:]):
                if quiver.arrows[quiver.arrow_index[first]][2] != (
                    quiver.arrows[quiver.arrow_index[second]][1]
                ):
                    raise MalformedRelation(f"path {path} is not composable")
            src = quiver.arrows[quiver.arrow_index[path[0]]][1]
            tgt = quiver.arrows[quiver.arrow_index[path[-1]]][2]
            if endpoints is None:
                endpoints = (src, tgt)
            elif endpoints != (src, tgt):
                raise MalformedRelation("relation mixes non-parallel paths")
            self.terms.append((coeff, path))
        self.source, self.target = endpoints


class AlgebraElement:
    """Element of a BasicAlgebra, stored as dense coefficients over its basis."""

    __slots__ = ("algebra", "coeffs")

    def __init__(self, algebra, coeffs):
        self.algebra = algebra
        self.coeffs = tuple(coeffs)

    def __add__(self, other):
        return AlgebraElement(self.algebra, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other):
        return AlgebraElement(self.algebra, [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self):
        return AlgebraElement(self.algebra, [-a for a in self.coeffs])

    def scale(self, c):
        return AlgebraElement(self.algebra, [c * a for a in self.coeffs])

    def __mul__(self, other):
        alg = self.algebra
        out = [alg.field.zero] * alg.dim
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                if not b:
                    continue
                for k, c in alg.mult.get((i, j), ()):
                    out[k] = out[k] + a * b * c
        return AlgebraElement(alg, out)

    def is_zero(self):
        return not any(self.coeffs)

    def __bool__(self):
        return any(self.coeffs)

    def __eq__(self, other):
        return (
            isinstance(other, AlgebraElement)
            and self.algebra is other.algebra
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash(self.coeffs)

    def support(self):
        return [i for i, c in enumerate(self.coeffs) if c]

    def peirce_component(self, i, j):
        coeffs = [
            c if self.algebra.peirce[k] == (i, j) else self.algebra.field.zero
            for k, c in enumerate(self.coeffs)
        ]
        return AlgebraElement(self.algebra, coeffs)

    def scalar_part(self, vertex):
        """Coefficient of the idempotent e_vertex."""
        return self.coeffs[vertex]

    def __repr__(self):
        alg = self.algebra
        bits = []
        for i, c in enumerate(self.coeffs):
            if c:
                bits.append(alg.names[i] if c == alg.field.one else f"({c})*{alg.names[i]}")
        return " + ".join(bits) if bits else "0"


class BasicAlgebra:
    """Finite-dimensional basic algebra with a Peirce-adapted basis."""

    def __init__(self, field, vertex_labels, names, peirce, mult, words=None, arrows=None):
        """Args:
        field: ground Field.
        vertex_labels: display labels, one per idempotent.
        names: display names of basis elements; names[i] for i < n are the
            idempotents in vertex order.
        peirce: Peirce pair (i, j) of each basis element, vertex indices.
        mult: dict (i, j) -> tuple of (k, coeff) giving basis products.
        words: optional arrow-index word per basis element (quiver algebras).
        arrows: optional list of (label, src_index, tgt_index).
        """
        self.field = field
        self.vertex_labels = list(vertex_labels)
        self.n = len(self.vertex_labels)
        self.names = list(names)
        self.dim = len(self.names)
        self.peirce = list(peirce)
        self.mult = mult
        self.words = words
        self.arrows = arrows
        self.cache = {}
        for i in range(self.n):
            if self.peirce[i] != (i, i):
                raise TautiltError("basis is not adapted: idempotents must come first")

    # -- element constructors -------------------------------------------

    def zero_element(self):
        return AlgebraElement(self, [self.field.zero] * self.dim)

    def basis_element(self, k):
        coeffs = [self.field.zero] * self.dim
        coeffs[k] = self.field.one
        return AlgebraElement(self, coeffs)

    def e(self, i):
        return self.basis_element(i)

    def one(self):
        coeffs = [self.field.zero] * self.dim
        for i in range(self.n):
            coeffs[i] = self.field.one
        return AlgebraElement(self, coeffs)

    def path_element(self, arrow_labels):
        """Residue of a path given by arrow labels (left-to-right order)."""
        if self.arrows is None:
            raise TautiltError("algebra was not built from a quiver")
        index = {lbl: k for k, (lbl, _, _) in enumerate(self.arrows)}
        elt = None
        for lbl in arrow_labels:
            if lbl not in index:
                raise TautiltError(f"unknown arrow {lbl!r}")
            step = self._arrow_element(index[lbl])
            elt = step if elt is None else elt * step
        if elt is None:
            raise TautiltError("empty path needs a vertex; use e(i)")
        return elt

    def _arrow_element(self, arrow_pos):
        key = ("arrow_elt", arrow_pos)
        if key not in self.cache:
            for k, w in enumerate(self.words or []):
                if w is not None and w == (arrow_pos,):
                    self.cache[key] = self.basis_element(k)
                    break
            else:
                raise TautiltError("arrow is not a basis element")
        return self.cache[key]

    # -- structure ---------------------------------------------------------

    def peirce_basis(self, i, j):
        """Basis indices with Peirce pair (i, j)."""
        key = ("peirce", i, j)
        if key not in self.cache:
            self.cache[key] = tuple(k for k, p in enumerate(self.peirce) if p == (i, j))
        return self.cache[key]

    def peirce_dim(self, i, j):
        return len(self.peirce_basis(i, j))

    def radical_indices(self):
        return range(self.n, self.dim)

    def radical_nilpotency(self):
        """Smallest m with rad^m = 0; raises NotBasic if the span never dies."""
        zero, one = self.field.zero, self.field.one
        span = [list(self.basis_element(k).coeffs) for k in self.radical_indices()]
        m = 1
        while span:
            if m > self.dim + 1:
                raise NotBasic("radical span is not nilpotent")
            nxt = []
            for vec in span:
                left = {i: c for i, c in enumerate(vec) if c}
                for k in self.radical_indices():
                    prod = self._product(left, {k: one})
                    if prod:
                        nxt.append([prod.get(i, zero) for i in range(self.dim)])
            span = linalg.row_space_basis(nxt, self.field) if nxt else []
            m += 1
        return m

    def _product(self, u, v):
        """Product of sparse elements {basis index: coeff}, zeros dropped."""
        out = {}
        for i, a in u.items():
            for j, b in v.items():
                for k, c in self.mult.get((i, j), ()):
                    out[k] = out.get(k, self.field.zero) + a * b * c
        return {k: c for k, c in out.items() if c}

    def validate(self):
        """Checks Peirce consistency, unit laws, associativity, basicness.

        Once products of non-composable basis elements are known to vanish,
        every triple with a non-composable neighbouring pair is zero on both
        sides, so associativity is tested on composable triples only."""
        one = self.field.one
        for (i, j), entries in self.mult.items():
            pi, pj = self.peirce[i], self.peirce[j]
            if pi[1] != pj[0] and entries:
                raise TautiltError(f"product of non-composable basis elements {i},{j} is nonzero")
            for k, c in entries:
                if not c:
                    raise TautiltError("explicit zero stored in structure constants")
                if self.peirce[k] != (pi[0], pj[1]):
                    raise TautiltError(f"product {i}*{j} leaves its Peirce block")
                if i >= self.n or j >= self.n:
                    if k < self.n:
                        raise NotBasic("radical product has an idempotent component")
        unit = {i: one for i in range(self.n)}
        for k in range(self.dim):
            b = {k: one}
            if self._product(unit, b) != b or self._product(b, unit) != b:
                raise TautiltError("sum of idempotents is not a unit")
        starting = [[k for k, (i, _) in enumerate(self.peirce) if i == v] for v in range(self.n)]
        for i in range(self.dim):
            for j in starting[self.peirce[i][1]]:
                ij = dict(self.mult.get((i, j), ()))
                for k in starting[self.peirce[j][1]]:
                    jk = dict(self.mult.get((j, k), ()))
                    if self._product(ij, {k: one}) != self._product({i: one}, jk):
                        raise TautiltError(
                            f"associativity fails on basis triple ({i},{j},{k})"
                        )
        self.radical_nilpotency()
        return True

    def opposite(self):
        """The opposite algebra on the same basis with reversed products."""
        if "opposite" not in self.cache:
            mult_op = {}
            for (i, j), entries in self.mult.items():
                mult_op[(j, i)] = entries
            words = None
            arrows = None
            if self.arrows is not None:
                arrows = [(lbl, tgt, src) for lbl, src, tgt in self.arrows]
                words = [tuple(reversed(w)) if w is not None else None for w in self.words]
            op = BasicAlgebra(
                self.field,
                self.vertex_labels,
                self.names,
                [(j, i) for (i, j) in self.peirce],
                mult_op,
                words=words,
                arrows=arrows,
            )
            op.cache["opposite"] = self
            self.cache["opposite"] = op
        return self.cache["opposite"]

    def __repr__(self):
        return f"BasicAlgebra(n={self.n}, dim={self.dim}, field={self.field})"


def local_inverse(x, vertex):
    """Inverse of x in e_v A e_v assuming x = c*e_v + nilpotent with c != 0.

    Uses the geometric series (e + n)^-1 = e - n + n^2 - ...
    """
    alg = x.algebra
    c = x.scalar_part(vertex)
    if not c:
        raise TautiltError("element has no invertible scalar part")
    c_inv = alg.field.inv(c)
    n = x.scale(c_inv) - alg.e(vertex)
    inv = alg.e(vertex)
    power = alg.e(vertex)
    sign = alg.field.one
    for _ in range(alg.dim + 1):
        power = power * n
        if not power:
            break
        sign = -sign
        inv = inv + power.scale(sign)
    inv = inv.scale(c_inv)
    if not (x * inv == alg.e(vertex)):
        raise TautiltError("element is not invertible in its corner")
    return inv


def compile_bound_quiver(quiver, relations, field, length_bound=12):
    """Quotient of the path algebra by the two-sided ideal of the relations.

    Paths are words of arrow indices, ordered by length and then by word.
    The relations are completed to rewriting rules (a noncommutative Groebner
    basis; Bergman's diamond lemma): each rule rewrites its leading word, the
    largest word of an ideal element, as a combination of smaller words.  On
    relations homogeneous in path length this is elimination degree by
    degree.  The basis is the normal words, those that contain no leading
    word, found degree by degree, and the product of two basis elements is
    the normal form of their concatenation.  length_bound is the longest
    normal word before the input is called infinite-dimensional.  Overlaps
    shorter than 2 * length_bound are resolved, so relations of mixed
    lengths meet their consequences; every element pushed lies among the
    finitely many words of that length, so the completion ends, and the
    longer overlaps are left unresolved, so `validate` certifies the result.

    Raises:
        NotFiniteDimensional: if a normal word of length length_bound
            exists, or more than PATH_CAP normal words do.
        MalformedRelation: if a relation term is longer than length_bound.
    """
    if length_bound < 2:
        raise TautiltError("length_bound must be at least 2")
    arrows = quiver.arrows
    arrow_src = [quiver.vertex_index[a[1]] for a in arrows]
    arrow_tgt = [quiver.vertex_index[a[2]] for a in arrows]
    zero, one = field.zero, field.one
    rules = {}  # leading word -> {smaller word: coeff}, equal in the quotient
    pending = []  # heap of (order of leading word, arrival, element)
    arrival = itertools.count()

    def order(word):
        return (len(word), word)

    def add(elt, word, c):
        c = elt.get(word, zero) + c
        if c:
            elt[word] = c
        else:
            elt.pop(word, None)

    def normal_form(elt):
        """Rewrite the largest reducible word first until none is left."""
        elt, out = dict(elt), {}
        while elt:
            word = max(elt, key=order)
            c = elt.pop(word)
            for start, stop in itertools.combinations(range(len(word) + 1), 2):
                if word[start:stop] in rules:
                    for t, ct in rules[word[start:stop]].items():
                        add(elt, word[:start] + t + word[stop:], c * ct)
                    break
            else:
                out[word] = c
        return out

    def push(elt):
        if elt:
            heapq.heappush(pending, (order(max(elt, key=order)), next(arrival), elt))

    def push_overlaps(f, g):
        """Queue the two rewritings of each word where f's end is g's start."""
        for k in range(1, min(len(f), len(g))):
            if f[-k:] == g[:k] and len(f) + len(g) - k < 2 * length_bound:
                diff = {}
                for t, c in rules[f].items():
                    add(diff, t + g[k:], c)
                for t, c in rules[g].items():
                    add(diff, f[:-k] + t, -c)
                push(diff)

    for rel in relations:
        if max(len(path) for _, path in rel.terms) > length_bound:
            raise MalformedRelation("relation term longer than length bound")
        elt = {}
        for c, path in rel.terms:
            word = tuple(quiver.arrow_index[lbl] for lbl in path)
            add(elt, word, field(c))
        push(elt)
    while pending:
        elt = normal_form(heapq.heappop(pending)[-1])
        if not elt:
            continue
        lead = max(elt, key=order)
        scale = -field.inv(elt.pop(lead))
        # no leading word may contain another: such a rule is reduced again
        for old in list(rules):
            if any(lead == old[i : i + len(lead)] for i in range(len(old))):
                back = {w: -c for w, c in rules.pop(old).items()}
                back[old] = one
                push(back)
        rules[lead] = {w: c * scale for w, c in elt.items()}
        for other in list(rules):
            push_overlaps(lead, other)
            if other != lead:
                push_overlaps(other, lead)

    basis = [(v, ()) for v in range(len(quiver.vertices))]
    layer = [(src, (a,)) for a, src in enumerate(arrow_src)]
    while layer:
        if len(layer[0][1]) == length_bound:
            raise NotFiniteDimensional(
                f"path of length {length_bound} survives reduction; "
                "the algebra is infinite-dimensional or the bound is too small"
            )
        basis += layer
        if len(basis) > PATH_CAP:
            raise NotFiniteDimensional(
                f"more than {PATH_CAP} normal words below length {length_bound}; "
                "the algebra is infinite-dimensional or too large for this tool "
                "(workspace directive 'bound <n>' sets the length)"
            )
        # a layer sorted by word stays sorted when extended arrow by arrow
        layer = [
            (src, word + (a,))
            for src, word in layer
            for a in range(len(arrows))
            if arrow_src[a] == arrow_tgt[word[-1]]
            and not any(word[i:] + (a,) in rules for i in range(len(word)))
        ]

    index = {p: k for k, p in enumerate(basis)}
    ends = [arrow_tgt[word[-1]] if word else src for src, word in basis]
    mult = {}
    for i, (src, iword) in enumerate(basis):
        for j, (jsrc, jword) in enumerate(basis):
            if jsrc == ends[i]:
                prod = normal_form({iword + jword: one})
                if prod:
                    mult[(i, j)] = tuple(sorted((index[(src, w)], c) for w, c in prod.items()))

    algebra = BasicAlgebra(
        field,
        quiver.vertices,
        [
            "*".join(arrows[a][0] for a in word) if word else f"e_{quiver.vertices[src]}"
            for src, word in basis
        ],
        [(src, end) for (src, _), end in zip(basis, ends)],
        mult,
        words=[word for _, word in basis],
        arrows=[(lbl, quiver.vertex_index[s], quiver.vertex_index[t]) for lbl, s, t in arrows],
    )
    algebra.validate()
    return algebra


def find_vertex_matchings(a, b):
    """Vertex bijections preserving all Peirce block dimensions."""
    if a.n != b.n or a.dim != b.dim:
        return []
    out = []
    for perm in itertools.permutations(range(b.n)):
        if all(
            a.peirce_dim(i, j) == b.peirce_dim(perm[i], perm[j])
            for i in range(a.n)
            for j in range(a.n)
        ):
            out.append(perm)
    return out


def is_isomorphic_algebra(a, b):
    """Isomorphism test adequate for desk-scale algebras.

    False only when an invariant rules an isomorphism out: the field, the
    Peirce dimensions under every vertex matching, or whether rad^2 = 0.
    True when both radicals square to zero (Peirce dimensions then
    determine the algebra), or when the radical Peirce blocks are at most
    one dimensional and some vertex matching aligns the structure
    constants as given.  Matching them up to a rescaling of the arrows is
    not attempted, so a failed match, and anything richer, raises
    SearchBudgetExceeded rather than guessing.
    """
    if a.field != b.field:
        return False
    matchings = find_vertex_matchings(a, b)
    if not matchings:
        return False

    def rad_square_zero(alg):
        for i in alg.radical_indices():
            for j in alg.radical_indices():
                if alg.mult.get((i, j)):
                    return False
        return True

    if rad_square_zero(a) and rad_square_zero(b):
        return True
    if rad_square_zero(a) != rad_square_zero(b):
        return False
    small_blocks = all(
        a.peirce_dim(i, j) <= (1 if i != j else 2) for i in range(a.n) for j in range(a.n)
    )
    if not small_blocks:
        raise SearchBudgetExceeded("algebra isomorphism test beyond desk scale")
    for perm in matchings:
        if _match_structure_constants(a, b, perm):
            return True
    raise SearchBudgetExceeded("no vertex matching aligns the structure constants as given")


def _match_structure_constants(a, b, perm):
    """Whether sending each vertex v to perm[v], and the one radical basis
    element of each Peirce block to that of its image block, aligns every
    product as given; no rescaling is tried."""
    map_idx = {}
    for i in range(a.n):
        map_idx[i] = perm[i]
    for k in a.radical_indices():
        i, j = a.peirce[k]
        cands = [m for m in b.radical_indices() if b.peirce[m] == (perm[i], perm[j])]
        if len(cands) != 1:
            return False
        map_idx[k] = cands[0]
    for k1 in range(a.dim):
        for k2 in range(a.dim):
            prods_a = dict(a.mult.get((k1, k2), ()))
            prods_b = dict(b.mult.get((map_idx[k1], map_idx[k2]), ()))
            remapped = {map_idx[k]: c for k, c in prods_a.items()}
            if remapped != prods_b:
                return False
    return True
