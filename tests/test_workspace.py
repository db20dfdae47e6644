"""Workspace parsing, validation errors, and serialization round trips."""

import pytest

from tautilt import modules as md
from tautilt import tauops as to
from tautilt import workspace as wk
from tautilt.errors import InvalidRepresentation, ParseError
from tautilt.linalg import QQ

CYC3 = """
# three-cycle with radical square zero
field Q
vertex 1 2 3
arrow a3 1 2
arrow a1 2 3
arrow a2 3 1
relation a1*a2
relation a2*a3
relation a3*a1

module Zero
dim 0 0 0

pair PairP1 : M = P1 ; P = 0
pair PairS3 : M = S3 ; P = P1 P2
pair Top : M = P1 P2 P3 ; P = 0
pair Bottom : M = 0 ; P = P1 P2 P3

complex C1
deg -1 0 1 0
deg 0 1 0 0
diff [[a3]]
"""

A2 = "vertex 1 2\narrow a 1 2\n"
A3 = "vertex 1 2 3\narrow a 1 2\narrow b 2 3\n"


def test_parse_cyc3_workspace():
    ws = wk.parse_workspace(CYC3)
    assert ws.algebra.dim == 6
    assert ws.algebra.n == 3
    assert ws.algebra.field == QQ
    assert sorted(ws.pairs) == ["Bottom", "PairP1", "PairS3", "Top"]
    assert md.describe_pair(ws.pairs["PairS3"]) == "(S3 | P1+P2)"
    assert ws.modules["Zero"].is_zero()
    # built-ins registered in vertex order
    for i in range(3):
        assert md.is_isomorphic(ws.modules[f"P{i + 1}"], md.projective(ws.algebra, i))
        assert md.is_isomorphic(ws.modules[f"S{i + 1}"], md.simple(ws.algebra, i))
    c1 = ws.complexes["C1"]
    assert c1.terms == {-1: [1], 0: [0]}


def test_parse_module_with_maps():
    ws = wk.parse_workspace(A2 + "module X\ndim 1 1\nmap a [[1]]")
    assert md.is_isomorphic(ws.modules["X"], ws.modules["P1"])


def test_module_without_a_map_line_acts_as_zero():
    text = "vertex 1 2 3\narrow a 1 2\narrow b 2 3\nmodule X\ndim 1 1 1\nmap a [[1]]\n"
    ws = wk.parse_workspace(text)
    alg = ws.algebra
    a = next(k for k, (lbl, _, _) in enumerate(alg.arrows) if lbl == "a")
    # the path a acts as the identity, the paths b and a*b as zero
    rad = {
        k: [[QQ.one]] if list(alg.words[k]) == [a] else [[QQ.zero]]
        for k in alg.radical_indices()
    }
    assert ws.modules["X"].key() == md.Representation(alg, (1, 1, 1), rad).key()
    explicit = wk.parse_workspace(text + "map b [[0]]\n")
    assert explicit.modules["X"].key() == ws.modules["X"].key()


def test_multiline_matrix():
    text = A2 + "module W\ndim 2 2\nmap a [[1,0],\n       [0,1]]"
    ws = wk.parse_workspace(text)
    assert ws.modules["W"].dims == (2, 2)


def test_prime_field_and_coefficients():
    text = (
        "field F 5\nvertex 1 2 3\narrow a 1 2\narrow b 2 3\narrow c 1 2\n"
        "relation a*b - 2*c*b\n"
    )
    ws = wk.parse_workspace(text)
    assert ws.algebra.field.char == 5
    assert ws.algebra.dim == 7


def test_fraction_scalar_in_map():
    ws = wk.parse_workspace(A2 + "module X\ndim 1 1\nmap a [[1/2]]")
    k = next(iter(ws.modules["X"].mats))
    assert str(ws.modules["X"].mats[k][0][0]) == "1/2"


def test_comments_and_blanks():
    ws = wk.parse_workspace("# header\n\nvertex 1   # trailing\n\n# done\n")
    assert ws.algebra.n == 1
    assert ws.algebra.dim == 1


def test_pair_sides_may_be_empty():
    ws = wk.parse_workspace(A2 + "pair B : M = 0 ; P = P1 P2")
    assert ws.pairs["B"].m.is_zero()
    assert ws.pairs["B"].size() == 2


parse_failures = [
    ("wrong shape", "module Y\ndim 1 1\nmap a [[1],[2]]", "must be 1 x 1"),
    ("unknown arrow", "module Y\ndim 1 1\nmap b [[1]]", "unknown arrow"),
    ("map before dim", "module Y\nmap a [[1]]", "before the dim"),
    ("dim twice", "module Y\ndim 1 1\ndim 1 1", "twice"),
    ("dim count", "module Y\ndim 1", "needs 2"),
    ("taken name", "module P1\ndim 1 1", "already taken"),
    ("late directive", "module Y\ndim 1 1\nvertex 3", "must precede"),
    ("unknown name in pair", "pair Z : M = QQQ ; P = 0", "unknown module"),
    ("nonprojective P", "pair Z : M = 0 ; P = S1", "not projective"),
    ("pair grammar", "pair Z = P1", "pair needs"),
    ("unknown directive", "frob 1 2", "unknown directive"),
    ("bad field", "field R", "field must be"),
    ("bad bound", "bound 1", "bound must be"),
    ("scalar element", "complex C\ndeg -1 1 0\ndeg 0 1 0\ndiff [[2]]", "scalar alone"),
    ("diff shape", "complex C\ndeg -1 1 0\ndeg 0 1 0\ndiff [[a,a]]", "must be 1 x 1"),
    ("deg count", "complex C\ndeg -1 1", "multiplicities"),
    ("diff off its Peirce block", "complex C\ndeg -1 1 0\ndeg 0 0 1\ndiff [[a]]", "Peirce block"),
    (
        "diff squares to nonzero",
        A3 + "complex C\ndeg -2 0 0 1\ndeg -1 0 1 0\ndeg 0 1 0 0\ndiff -2 [[b]]\ndiff -1 [[a]]",
        "square to zero",
    ),
]


def _workspace(frag):
    # a fragment extends A2 unless it declares its own vertices
    return frag if frag.startswith("vertex") else A2 + frag


@pytest.mark.parametrize("label,frag,needle", parse_failures)
def test_parse_errors(label, frag, needle):
    with pytest.raises(ParseError) as err:
        wk.parse_workspace(_workspace(frag))
    assert needle in str(err.value)
    assert "line" in str(err.value)


def test_parse_error_line_number():
    with pytest.raises(ParseError) as err:
        wk.parse_workspace("vertex 1 2\narrow a 1 2\nmodule Y\ndim 1 1\nmap a [[7],[9]]")
    assert str(err.value).startswith("line 5:")
    assert err.value.line == 5


@pytest.mark.parametrize("label,frag,needle", parse_failures[-2:])
def test_complex_block_error_names_the_block_line(label, frag, needle):
    # the complex is validated when its block closes, at the end of the
    # text; the error names the line of its complex directive
    text = _workspace(frag)
    with pytest.raises(ParseError, match=needle) as err:
        wk.parse_workspace(text)
    assert err.value.line == text.splitlines().index("complex C") + 1


@pytest.mark.parametrize("block", ["pair X : M = 0 ; P = 0", "complex C", "module Y"])
@pytest.mark.parametrize(
    "relation,message",
    [("a*a", "path ('a', 'a') is not composable"), ("1/0*a", "bad scalar '1/0'")],
)
def test_compile_error_keeps_the_relation_line(block, relation, message):
    # the algebra compiles when the block on line 4 needs it; the error
    # names the relation's line once
    with pytest.raises(ParseError) as err:
        wk.parse_workspace(A2 + f"relation {relation}\n" + block)
    assert str(err.value) == f"line 3: {message}"
    assert err.value.line == 3


def test_compile_error_without_a_line_takes_the_block_line():
    with pytest.raises(ParseError) as err:
        wk.parse_workspace("field Q\nmodule Y\nvertex 1")
    assert str(err.value) == "line 2: workspace declares no vertex line"
    assert err.value.line == 2


PI_A4 = """
# preprojective algebra of A4, dimension 20
vertex 1 2 3 4
arrow a1 1 2
arrow a2 2 3
arrow a3 3 4
arrow b1 2 1
arrow b2 3 2
arrow b3 4 3
relation a1*b1
relation b1*a1 - a2*b2
relation b2*a2 - a3*b3
relation b3*a3
"""


PI_A5 = """
# preprojective algebra of A5, dimension 35
vertex 1 2 3 4 5
arrow a1 1 2
arrow a2 2 3
arrow a3 3 4
arrow a4 4 5
arrow b1 2 1
arrow b2 3 2
arrow b3 4 3
arrow b4 5 4
relation a1*b1
relation b1*a1 - a2*b2
relation b2*a2 - a3*b3
relation b3*a3 - a4*b4
relation b4*a4
"""


def test_too_wild_error_names_the_bound_directive():
    # Pi(A4) and Pi(A5) need no bound directive; a lower bound that still
    # exceeds the longest normal word gives the same algebra
    assert wk.parse_workspace(PI_A4).algebra.dim == 20
    assert wk.parse_workspace(PI_A5).algebra.dim == 35
    ws = wk.parse_workspace(PI_A4 + "bound 7\n")
    assert ws.algebra.dim == 20
    assert ws.algebra.n == 4
    # three free loops have more normal words than the cap below length 12;
    # the error says how to set the length
    with pytest.raises(ParseError) as err:
        wk.parse_workspace("vertex 1\narrow x 1 1\narrow y 1 1\narrow z 1 1\n")
    assert "bound <n>" in str(err.value)


def test_field_twice():
    with pytest.raises(ParseError):
        wk.parse_workspace("field Q\nfield Q\nvertex 1")
    with pytest.raises(ParseError):
        wk.parse_workspace("vertex 1\nvertex 2")


def test_unbalanced_eof():
    with pytest.raises(ParseError):
        wk.parse_workspace(A2 + "module Y\ndim 1 1\nmap a [[1")


def test_invalid_action_surfaces():
    # a3*a1 = 0 in the algebra but these matrices compose to something nonzero
    text = (
        "vertex 1 2\narrow a 1 2\narrow b 2 1\nrelation a*b\n"
        "module Y\ndim 1 1\nmap a [[1]]\nmap b [[1]]"
    )
    with pytest.raises(InvalidRepresentation):
        wk.parse_workspace(text)


def test_module_round_trip():
    ws = wk.parse_workspace(CYC3)
    x = md.ar_translate(md.simple(ws.algebra, 2))
    text = CYC3 + "\n" + wk.module_block("T", x)
    again = wk.parse_workspace(text)
    assert md.is_isomorphic(again.modules["T"], x)


def test_pair_round_trip():
    ws = wk.parse_workspace(CYC3)
    got = to.left_bongartz(ws.pairs["PairP1"], ws.pairs["PairS3"])
    text = CYC3 + "\n" + wk.pair_block("Out", got)
    again = wk.parse_workspace(text)
    assert again.pairs["Out"].fingerprint() == got.fingerprint()


def test_pair_round_trip_with_shifts():
    ws = wk.parse_workspace(CYC3)
    low = to.left_bongartz(ws.pairs["PairP1"], ws.pairs["Bottom"])
    assert md.describe_pair(low) == "(P1+S1 | P3)"
    text = CYC3 + "\n" + wk.pair_block("Low", low)
    again = wk.parse_workspace(text)
    assert again.pairs["Low"].fingerprint() == low.fingerprint()


def test_load_workspace(tmp_path):
    f = tmp_path / "ws.alg"
    f.write_text(CYC3, encoding="utf-8")
    ws = wk.load_workspace(str(f))
    assert ws.algebra.dim == 6
