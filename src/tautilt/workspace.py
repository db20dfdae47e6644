"""Workspace files: one bound quiver algebra plus named modules and pairs.

Line-oriented text, '#' starts a comment.  Directives:

    field Q | field F <p>
    vertex <labels...>
    arrow <label> <src> <tgt>
    relation <coeff>*<a1*a2*...> [+|- <term> ...]
    bound <n>

    module <name>
    dim <d_1> ... <d_n>
    map <arrow-label> [[row],[row],...]      # source space -> target space

    pair <name> : M = <module names...> ; P = <projective names...>

    complex <name>
    deg <i> <P-multiplicities...>
    diff [<i>] [[entry,...],...]             # entries are path combinations

A line whose brackets stay open continues on the next line.  Built-in
module names P1..Pn and S1..Sn refer to the indecomposable projectives
and simples in vertex order.
"""

import re

from . import linalg, modules, twoterm
from .algebra import Quiver, Relation, compile_bound_quiver
from .errors import ParseError, TautiltError

_NAME = re.compile(r"^[A-Za-z0-9_']+$")
_NUM = re.compile(r"^-?\d+(/\d+)?$")


class Workspace:
    """Parsed workspace: the algebra plus named modules, pairs, complexes."""

    def __init__(self, algebra, mods, pairs, complexes):
        self.algebra = algebra
        self.modules = mods
        self.pairs = pairs
        self.complexes = complexes

    def module(self, name):
        if name not in self.modules:
            raise ParseError(f"unknown module name {name!r}")
        return self.modules[name]

    def pair(self, name):
        if name not in self.pairs:
            raise ParseError(f"unknown pair name {name!r}")
        return self.pairs[name]

    def __repr__(self):
        return (
            f"Workspace(n={self.algebra.n}, modules={len(self.modules)}, "
            f"pairs={len(self.pairs)}, complexes={len(self.complexes)})"
        )


def _logical_lines(text):
    """(lineno, content) pairs with comments stripped and brackets balanced."""
    out = []
    pending = None
    start = 0
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].rstrip()
        if pending is None:
            if not line.strip():
                continue
            pending, start = line.strip(), lineno
        else:
            pending += " " + line.strip()
        if pending.count("[") > pending.count("]"):
            continue
        out.append((start, pending))
        pending = None
    if pending is not None:
        raise _err(start, "unbalanced brackets at end of file")
    return out


def _err(lineno, msg):
    return ParseError(msg, line=lineno)


def _split_matrix(lineno, text):
    """Rows of raw entry strings from a [[...],[...]] literal."""
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise _err(lineno, "matrix literal must be wrapped in [ ]")
    body = text[1:-1].strip()
    if not body:
        return []
    rows = []
    depth = 0
    cur = ""
    for ch in body:
        if ch == "[":
            depth += 1
            if depth == 1:
                cur = ""
                continue
        elif ch == "]":
            depth -= 1
            if depth < 0:
                raise _err(lineno, "unbalanced brackets in matrix literal")
            if depth == 0:
                entries = [e.strip() for e in cur.split(",")]
                rows.append([e for e in entries if e != ""])
                continue
        elif depth == 0:
            if ch not in ", ":
                raise _err(lineno, f"unexpected character {ch!r} between rows")
            continue
        cur += ch
    if depth != 0:
        raise _err(lineno, "unbalanced brackets in matrix literal")
    return rows


def _scalar(field, lineno, token):
    try:
        return field(token)
    except (TautiltError, ValueError, ZeroDivisionError):
        raise _err(lineno, f"bad scalar {token!r}")


def _parse_element(algebra, lineno, text):
    """Algebra element from a signed combination of path words."""
    text = text.strip()
    if text == "0":
        return algebra.zero_element()
    terms = re.split(r"(?=[+-])", text.replace(" ", ""))
    elt = algebra.zero_element()
    for term in terms:
        if not term:
            continue
        sign = 1
        while term and term[0] in "+-":
            if term[0] == "-":
                sign = -sign
            term = term[1:]
        if not term:
            raise _err(lineno, "dangling sign in element")
        tokens = term.split("*")
        coeff = algebra.field(sign)
        if _NUM.match(tokens[0]):
            coeff = coeff * _scalar(algebra.field, lineno, tokens[0])
            tokens = tokens[1:]
        if not tokens:
            raise _err(lineno, "a scalar alone does not name an element")
        if len(tokens) == 1 and tokens[0].startswith("e_"):
            label = tokens[0][2:]
            if label not in algebra.vertex_labels:
                raise _err(lineno, f"unknown vertex {label!r} in idempotent")
            part = algebra.e(algebra.vertex_labels.index(label))
        else:
            try:
                part = algebra.path_element(tokens)
            except TautiltError as exc:
                raise _err(lineno, str(exc))
        elt = elt + part.scale(coeff)
    return elt


class _AlgebraDraft:
    def __init__(self):
        self.field = None
        self.vertices = None
        self.arrows = []
        self.relations = []  # (lineno, [(coeff str tokens, path labels)])
        self.bound = None

    def compile(self):
        if self.vertices is None:
            raise ParseError("workspace declares no vertex line")
        field = self.field or linalg.QQ
        quiver = Quiver(self.vertices, self.arrows)
        rels = []
        for lineno, terms in self.relations:
            scaled = [(_scalar(field, lineno, c), path) for c, path in terms]
            try:
                rels.append(Relation(quiver, scaled))
            except TautiltError as exc:
                raise _err(lineno, str(exc))
        bound = self.bound if self.bound is not None else 12
        return compile_bound_quiver(quiver, rels, field, length_bound=bound)


def _parse_relation(lineno, rest):
    """Signed terms of a relation line: [(coeff-string, (labels...)), ...]."""
    terms = []
    for chunk in re.split(r"(?=[+-])", rest.replace(" ", "")):
        if not chunk:
            continue
        sign = ""
        while chunk and chunk[0] in "+-":
            sign = sign + chunk[0] if chunk[0] == "-" else sign
            chunk = chunk[1:]
        neg = sign.count("-") % 2 == 1
        tokens = chunk.split("*")
        coeff = "1"
        if tokens and _NUM.match(tokens[0]):
            coeff = tokens[0]
            tokens = tokens[1:]
        if not tokens:
            raise _err(lineno, "relation term without a path")
        coeff = "-" + coeff if neg else coeff
        terms.append((coeff, tuple(tokens)))
    if not terms:
        raise _err(lineno, "empty relation")
    return terms


def parse_workspace(text):
    """Parse a workspace file into validated objects.

    Raises ParseError with the offending line number for format and name
    problems and for invalid pairs; module structure-constant failures
    surface as InvalidRepresentation from the validated constructor.
    """
    lines = _logical_lines(text)
    draft = _AlgebraDraft()
    algebra = None
    mods = {}
    pairs = {}
    complexes = {}
    # open module/complex block state
    block = None

    def ensure_algebra(lineno=None):
        """The algebra, compiled when a block first needs it; an error that
        names no line is given lineno, the line of that block."""
        nonlocal algebra
        if algebra is None:
            try:
                algebra = draft.compile()
            except TautiltError as exc:
                if isinstance(exc, ParseError) and exc.line is not None:
                    raise
                raise ParseError(str(exc), line=lineno)
            for i in range(algebra.n):
                mods[f"P{i + 1}"] = modules.projective(algebra, i)
                mods[f"S{i + 1}"] = modules.simple(algebra, i)
        return algebra

    def close_block():
        nonlocal block
        if block is None:
            return
        kind, lineno, name, data = block
        block = None
        if kind == "module":
            dims = data["dims"]
            if dims is None:
                raise _err(lineno, f"module {name!r} has no dim line")
            ends = {lbl: (src, tgt) for lbl, src, tgt in algebra.arrows}
            # an arrow without a map line acts as zero
            mats = {
                lbl: linalg.zeros(dims[src], dims[tgt], algebra.field)
                for lbl, (src, tgt) in ends.items()
            }
            for lbl, (map_line, mat) in data["maps"].items():
                src, tgt = ends[lbl]
                if len(mat) != dims[src] or any(len(r) != dims[tgt] for r in mat):
                    raise _err(
                        map_line,
                        f"map for arrow {lbl!r} must be {dims[src]} x {dims[tgt]}",
                    )
                mats[lbl] = mat
            mods[name] = modules.rep_from_arrows(algebra, dims, mats)
        else:
            if not data["terms"]:
                complexes[name] = twoterm.zero_complex(algebra)
                return
            try:
                complexes[name] = twoterm.ProjectiveComplex(
                    algebra, data["terms"], data["diffs"]
                )
            except TautiltError as exc:
                raise _err(lineno, str(exc))

    def fresh_name(lineno, name):
        if not _NAME.match(name):
            raise _err(lineno, f"bad name {name!r}")
        if name in mods or name in pairs or name in complexes:
            raise _err(lineno, f"name {name!r} is already taken")

    for lineno, line in lines:
        head, _, rest = line.partition(" ")
        rest = rest.strip()
        if head in ("field", "vertex", "arrow", "relation", "bound"):
            if algebra is not None:
                raise _err(lineno, "algebra directives must precede the blocks")
        if head == "field":
            if draft.field is not None:
                raise _err(lineno, "field is declared twice")
            toks = rest.split()
            if toks == ["Q"]:
                draft.field = linalg.QQ
            elif len(toks) == 2 and toks[0] == "F" and toks[1].isdigit():
                try:
                    draft.field = linalg.Field(int(toks[1]))
                except TautiltError as exc:
                    raise _err(lineno, str(exc))
            else:
                raise _err(lineno, "field must be 'Q' or 'F <p>'")
        elif head == "vertex":
            if draft.vertices is not None:
                raise _err(lineno, "vertex line appears twice")
            labels = rest.split()
            if not labels:
                raise _err(lineno, "vertex line needs at least one label")
            for v in labels:
                if not _NAME.match(v):
                    raise _err(lineno, f"bad vertex label {v!r}")
            draft.vertices = labels
        elif head == "arrow":
            toks = rest.split()
            if len(toks) != 3:
                raise _err(lineno, "arrow needs: label source target")
            if not _NAME.match(toks[0]):
                raise _err(lineno, f"bad arrow label {toks[0]!r}")
            if any(lbl == toks[0] for lbl, _, _ in draft.arrows):
                raise _err(lineno, f"duplicate arrow label {toks[0]!r}")
            if draft.vertices is None or not set(toks[1:]) <= set(draft.vertices):
                raise _err(lineno, f"arrow {toks[0]!r} uses an unknown vertex")
            draft.arrows.append(tuple(toks))
        elif head == "relation":
            draft.relations.append((lineno, _parse_relation(lineno, rest)))
        elif head == "bound":
            if not rest.isdigit() or int(rest) < 2:
                raise _err(lineno, "bound must be an integer >= 2")
            draft.bound = int(rest)
        elif head == "module":
            ensure_algebra(lineno)
            close_block()
            fresh_name(lineno, rest)
            block = ("module", lineno, rest, {"dims": None, "maps": {}})
        elif head == "dim":
            if block is None or block[0] != "module":
                raise _err(lineno, "dim line outside a module block")
            if block[3]["dims"] is not None:
                raise _err(lineno, "dim line appears twice")
            toks = rest.split()
            if len(toks) != algebra.n or not all(
                t.isdigit() for t in toks
            ):
                raise _err(
                    lineno, f"dim needs {algebra.n} non-negative integers"
                )
            block[3]["dims"] = tuple(int(t) for t in toks)
        elif head == "map":
            if block is None or block[0] != "module":
                raise _err(lineno, "map line outside a module block")
            if block[3]["dims"] is None:
                raise _err(lineno, "map line before the dim line")
            lbl, _, matpart = rest.partition(" ")
            if lbl not in {a for a, _, _ in algebra.arrows}:
                raise _err(lineno, f"unknown arrow {lbl!r}")
            if lbl in block[3]["maps"]:
                raise _err(lineno, f"map for arrow {lbl!r} appears twice")
            rows = _split_matrix(lineno, matpart)
            mat = [
                [_scalar(algebra.field, lineno, e) for e in row] for row in rows
            ]
            block[3]["maps"][lbl] = (lineno, mat)
        elif head == "pair":
            ensure_algebra(lineno)
            close_block()
            m = re.match(r"^([^:]+):\s*M\s*=\s*([^;]*);\s*P\s*=\s*(.*)$", rest)
            if not m:
                raise _err(
                    lineno, "pair needs: pair <name> : M = ... ; P = ..."
                )
            name = m.group(1).strip()
            fresh_name(lineno, name)

            def side(chunk):
                out = []
                for tok in chunk.split():
                    if tok == "0":
                        continue
                    if tok not in mods:
                        raise _err(lineno, f"unknown module name {tok!r}")
                    out.append(mods[tok])
                return out

            try:
                # a workspace module may be decomposable, so the pair
                # finds its summands by decompose
                built = modules.TauPair(
                    modules.sum_or_zero(algebra, side(m.group(2))),
                    modules.sum_or_zero(algebra, side(m.group(3))),
                )
                built.fingerprint()  # forces the projectivity check on P
                pairs[name] = built
            except ParseError:
                raise
            except TautiltError as exc:
                raise _err(lineno, str(exc))
        elif head == "complex":
            ensure_algebra(lineno)
            close_block()
            fresh_name(lineno, rest)
            block = ("complex", lineno, rest, {"terms": {}, "diffs": {}})
        elif head == "deg":
            if block is None or block[0] != "complex":
                raise _err(lineno, "deg line outside a complex block")
            toks = rest.split()
            if len(toks) != algebra.n + 1 or not re.match(r"^-?\d+$", toks[0]):
                raise _err(
                    lineno,
                    f"deg needs a degree and {algebra.n} multiplicities",
                )
            degree = int(toks[0])
            if degree in block[3]["terms"]:
                raise _err(lineno, f"degree {degree} appears twice")
            if not all(t.isdigit() for t in toks[1:]):
                raise _err(lineno, "multiplicities must be non-negative")
            verts = []
            for v, t in enumerate(toks[1:]):
                verts.extend([v] * int(t))
            if verts:
                block[3]["terms"][degree] = verts
        elif head == "diff":
            if block is None or block[0] != "complex":
                raise _err(lineno, "diff line outside a complex block")
            degree = -1
            matpart = rest
            m = re.match(r"^(-?\d+)\s+(.*)$", rest)
            if m:
                degree = int(m.group(1))
                matpart = m.group(2)
            if degree in block[3]["diffs"]:
                raise _err(lineno, f"diff in degree {degree} appears twice")
            rows = _split_matrix(lineno, matpart)
            terms = block[3]["terms"]
            want_rows = len(terms.get(degree + 1, []))
            want_cols = len(terms.get(degree, []))
            if len(rows) != want_rows or any(
                len(r) != want_cols for r in rows
            ):
                raise _err(
                    lineno,
                    f"diff in degree {degree} must be "
                    f"{want_rows} x {want_cols}",
                )
            block[3]["diffs"][degree] = [
                [_parse_element(algebra, lineno, e) for e in row]
                for row in rows
            ]
        else:
            raise _err(lineno, f"unknown directive {head!r}")

    ensure_algebra()
    close_block()
    return Workspace(algebra, mods, pairs, complexes)


def load_workspace(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_workspace(fh.read())


# -- serialization back into workspace format -----------------------------------


def _fmt_matrix(mat):
    return "[" + ",".join("[" + ",".join(str(c) for c in row) + "]" for row in mat) + "]"


def module_block(name, rep):
    """Workspace text for a module over a quiver-built algebra."""
    alg = rep.algebra
    if alg.arrows is None or alg.words is None:
        raise TautiltError("algebra was not built from a quiver")
    lines = [f"module {name}", "dim " + " ".join(str(d) for d in rep.dims)]
    arrow_pos = {}
    for k in alg.radical_indices():
        if len(alg.words[k]) == 1:
            arrow_pos[alg.words[k][0]] = k
    for a, (lbl, _, _) in enumerate(alg.arrows):
        k = arrow_pos.get(a)
        if k is None:
            continue  # the arrow dies in the quotient
        mat = rep.mats[k]
        if any(any(c for c in row) for row in mat):
            lines.append(f"map {lbl} {_fmt_matrix(mat)}")
    return "\n".join(lines) + "\n"


def pair_block(name, pair):
    """Workspace text for a pair; the module part becomes one block."""
    chunks = []
    m_names = []
    if not pair.m.is_zero():
        m_names.append(f"{name}_M")
        chunks.append(module_block(f"{name}_M", pair.m))
    p_names = []
    for q, mult in pair.p_summands():
        p_names.extend([f"P{modules._projective_vertex(q) + 1}"] * mult)
    chunks.append(
        f"pair {name} : M = {' '.join(m_names) or '0'} ; "
        f"P = {' '.join(sorted(p_names)) or '0'}\n"
    )
    return "".join(chunks)
