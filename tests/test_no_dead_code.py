"""Every function, method, class and stored attribute in src/ is reached
from src/.

A definition whose name occurs in the package only where it is defined is
dead, or kept alive by the tests alone.  A use is a name or an attribute
in the syntax tree, f-strings included, so a mention in a string, a
comment or a docstring does not count.  Exempt are dunders, the public
names of tautilt.__all__, and methods that a library calls by name.  By
the same rule an attribute that the package stores (obj.name = ...) is
dead when no attribute of that name is ever read; exempt are public
attributes that users read.

The README's list of cache families names exactly the families that
src/ writes, so a deleted family cannot linger in the docs.

A pair is built from its rows only in modules.carried_pair, the one
shared pair per row content, so no second construction path comes back;
a bare pair (M, P) only from a workspace file, and a pair over the
opposite algebra only by the duality check.
tau is built (modules.ar_translate) only by the CLI tau command and the
order-criteria report, so no certificate goes back to D Tr.  A
presentation becomes a complex only in twoterm.summand_complex, one
summand at a time, so no whole-module complex route comes back.
"""

import ast
import re
from collections import Counter
from pathlib import Path

import tautilt

SRC = Path(tautilt.__file__).parent

# argparse calls error() on usage mistakes; nothing in the package names it
CALLED_BY_LIBRARY = {"cli._Parser.error"}

# the line number of a parse error, documented for users
READ_BY_USERS = {"errors.ParseError.line"}


def _definitions(tree, module):
    """(qualified name, name) of every def and class, nested ones included."""
    out = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                qual = f"{prefix}.{child.name}"
                out.append((qual, child.name))
                visit(child, qual)
            else:
                visit(child, prefix)

    visit(tree, module)
    return out


def _unused_definitions():
    uses = Counter()
    defs = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                uses[node.id] += 1
            elif isinstance(node, ast.Attribute):
                uses[node.attr] += 1
        defs.extend(_definitions(tree, path.stem))
    return sorted(
        qual
        for qual, name in defs
        if not uses[name]
        and not (name.startswith("__") and name.endswith("__"))
        and name not in tautilt.__all__
        and qual not in CALLED_BY_LIBRARY
    )


def test_every_definition_is_used_in_the_package():
    unused = _unused_definitions()
    assert not unused, "never used in the package: " + ", ".join(unused)


def _unread_attributes():
    """module.Class.name (module.name outside a class) of every attribute
    stored in src/ whose name no attribute read in src/ uses."""
    reads = Counter()
    stores = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Attribute):
                if isinstance(child.ctx, ast.Store):
                    stores.append((f"{prefix}.{child.attr}", child.attr))
                else:
                    reads[child.attr] += 1
            visit(child, f"{prefix}.{child.name}" if isinstance(child, ast.ClassDef) else prefix)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem)
    return sorted(
        {qual for qual, name in stores if not reads[name] and qual not in READ_BY_USERS}
    )


def test_every_stored_attribute_is_read_in_the_package():
    unread = _unread_attributes()
    assert not unread, "stored but never read in the package: " + ", ".join(unread)


def _family(node):
    """The family a cache key names: a bare string, or the string head of
    a tuple; None for any other expression."""
    if isinstance(node, ast.Tuple) and node.elts:
        node = node.elts[0]
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def _is_cache(node):
    return isinstance(node, ast.Attribute) and node.attr == "cache"


def _cache_families():
    """Families of the keys bound to `key`, indexed into a `.cache` or
    passed to one of its methods, over all of src/."""
    keys = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Assign):
                if any(isinstance(t, ast.Name) and t.id == "key" for t in node.targets):
                    keys.append(node.value)
            elif isinstance(node, ast.Subscript) and _is_cache(node.value):
                keys.append(node.slice)
            elif isinstance(node, ast.Call) and node.args:
                func = node.func
                if isinstance(func, ast.Attribute) and _is_cache(func.value):
                    keys.append(node.args[0])
    return {f for f in map(_family, keys) if f is not None}


def test_readme_lists_every_cache_family_and_no_other():
    readme = (SRC.parents[1] / "README.md").read_text()
    section = readme.split("### Cache families", 1)[1].split("\n#", 1)[0]
    listed = re.findall(r"^- `([^`]+)`:", section, re.M)
    assert len(listed) == len(set(listed))
    written = _cache_families()
    assert "hom_rep" in written and "window" in written
    assert sorted(listed) == sorted(written)


def _callers(name, picks=lambda call: True):
    """module.function of every call in src/ to a function of that name,
    bare or as an attribute, that picks accepts."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            inner = where
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{where}.{child.name}"
            elif isinstance(child, ast.Call):
                func = child.func
                called = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if called == name and picks(child):
                    found.append(where)
            visit(child, inner)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem)
    return found


def test_pairs_are_built_from_rows_only_by_carried_pair():
    def passes_rows(call):
        # rows by keyword or as the third argument
        return len(call.args) > 2 or any(kw.arg == "rows" for kw in call.keywords)

    assert _callers("TauPair", passes_rows) == ["modules.carried_pair"]


def test_bare_pairs_are_built_only_from_workspace_text():
    # a complex becomes a pair only through carried_pair; a bare (M, P)
    # comes only from the modules a workspace file names
    assert sorted(set(_callers("TauPair"))) == ["modules.carried_pair", "workspace.parse_workspace"]


def test_tau_is_taken_only_by_the_cli_and_the_order_criteria():
    # the certificates test Hom(X, tau Y) = 0 from Y's presentation; D Tr
    # stays the independent route of the tau command and of flag c
    assert _callers("ar_translate") == ["cli._cmd_tau", "explorer.verify_order_criteria"]


def test_op_side_pairs_are_built_only_by_the_duality_check():
    # right_bongartz certifies its completion on A and the bongartz
    # command prints it; only the duality check builds pairs over A^op
    assert sorted(set(_callers("dagger_pair"))) == ["explorer.verify_dagger"]


def test_presentation_complexes_are_built_one_summand_at_a_time():
    # a pair's complex is the sum of the complexes of its summands
    assert _callers("_presentation_complex") == ["twoterm.summand_complex"]
