"""Walk dumps and CLI --json output, pinned to recorded sha1 digests.

A walk dump is the node order, each node's workspace pair block, the
edges and the completeness flag.  Changing how the walk builds or
certifies its pairs must leave every byte of these the same; run this
file as a script to print the digests of the current tree.
"""

import hashlib
import json
import sys

import pytest

from tautilt import cli
from tautilt import explorer as ex
from tautilt import modules as md
from tautilt import tauops as to
from tautilt import twoterm as tt
from tautilt import workspace as wk
from tautilt.linalg import QQ, Field

from conftest import cycle, linear, preprojective_algebra


ALGEBRAS = {
    "A3": lambda: linear(3, QQ),
    "cyc3": lambda: cycle(3, QQ),
    "cyc4": lambda: cycle(4, QQ),
    "A4": lambda: linear(4, QQ),
    "cyc3/F2": lambda: cycle(3, Field(2)),
    "A3/F3": lambda: linear(3, Field(3)),
    "Pi(A3)": lambda: preprojective_algebra(3, QQ),
    "Pi(A4)": lambda: preprojective_algebra(4, QQ),
}

WALKS = {
    "A3": "c5e102fe07cc98d691d4169c7603cfe11fa95483",
    "cyc3": "334e49236dcd9a5920b59286473c7201263edbe3",
    "cyc4": "e2deb215803337cc73939c9ae05e53800217ce41",
    "A4": "2bdfd18d6edba5d844ccbc79d88a13b0e5ca5cd2",
    "cyc3/F2": "334e49236dcd9a5920b59286473c7201263edbe3",
    "A3/F3": "c5e102fe07cc98d691d4169c7603cfe11fa95483",
    "Pi(A3)": "4bdc390197e55fd8a6ace1617dcbd9a8c7c5caa5",
    "Pi(A4)": "d79d818450f52c23d851212086d80d99e23d1c1f",
}


def walk_digest(alg):
    nodes, edges, complete = to.silting_closure(alg)
    h = hashlib.sha1()
    for k, (fp, node) in enumerate(nodes.items()):
        h.update(repr(fp).encode())
        h.update(wk.pair_block(f"N{k}", node).encode())
    h.update(repr(edges).encode())
    h.update(repr(complete).encode())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(WALKS))
def test_walk_dump_is_pinned(name):
    assert walk_digest(ALGEBRAS[name]()) == WALKS[name]


WORKSPACES = {
    "A3": """
field Q
vertex 1 2 3
arrow a 1 2
arrow b 2 3
pair PairP1 : M = P1 ; P = 0
pair PairS2 : M = S2 ; P = 0
pair Mid : M = P3 S1 ; P = P2
pair Top : M = P1 P2 P3 ; P = 0
pair Bottom : M = 0 ; P = P1 P2 P3
""",
    "cyc3": """
field Q
vertex 1 2 3
arrow a3 1 2
arrow a1 2 3
arrow a2 3 1
relation a1*a2
relation a2*a3
relation a3*a1
pair PairP1 : M = P1 ; P = 0
pair PairS3 : M = S3 ; P = P1 P2
pair Top : M = P1 P2 P3 ; P = 0
pair Bottom : M = 0 ; P = P1 P2 P3
""",
}

TILTING = {"A3": ["Top", "Bottom", "Mid"], "cyc3": ["Top", "Bottom", "PairS3"]}
RIGID = {"A3": ["PairP1", "PairS2"], "cyc3": ["PairP1"]}


def cli_runs(name):
    """Every pinned argv, with the workspace path left as {ws}."""
    runs = [["graph", "{ws}"], ["graph", "{ws}", "--budget", "7"]]
    for pair in TILTING[name]:
        runs += [["mutate", "{ws}", pair, str(slot)] for slot in range(3)]
    for side in ("--left", "--right"):
        for pair in TILTING[name] + RIGID[name]:
            runs.append(["bongartz", "{ws}", pair, side])
            for rel in RIGID[name]:
                runs.append(["bongartz", "{ws}", pair, side, "--rel", rel])
    return [argv + ["--json"] for argv in runs]


CLI = {
    "A3": "a23807021a11a9328817c213ac9036976acd2fe9",
    "cyc3": "7fcd18fe574ddecfc6891f6d62cee2ff3aaea13e",
}


def verify_runs(name):
    """The verifier suites that complete and split cones, swept over the
    rigid subpairs of the graph and run on each rigid workspace pair."""
    runs = []
    for suite in ("compat", "silting-compat", "route"):
        runs.append(["verify", "{ws}", suite])
        runs += [["verify", "{ws}", suite, "--rel", rel] for rel in RIGID[name]]
    runs.append(["verify", "{ws}", "order-criteria"])
    return [argv + ["--json"] for argv in runs]


VERIFY = {
    "A3": "562bdf1ad285ea9c3314290c31eb099a5bb1bae9",
    "cyc3": "88b0fbc801f0168c45469eadf57eb0674b3cadf2",
}


# maximal green sequences up to the Bongartz completion of each pair
MGS = {
    "A3": {"Top": 9, "Bottom": 1, "Mid": 2, "PairP1": 9, "PairS2": 4},
    "cyc3": {"Top": 9, "Bottom": 1, "PairS3": 1, "PairP1": 9},
}


def reduction_runs(name):
    """The reduction at each workspace pair, the transport of every
    maximal green sequence up to its completion (and of the first id out
    of range), and the reduction sweep."""
    runs = []
    for pair in TILTING[name] + RIGID[name]:
        runs.append(["reduce", "{ws}", pair])
        runs += [["transport", "{ws}", pair, str(k)] for k in range(MGS[name][pair] + 1)]
    runs.append(["verify", "{ws}", "reduction"])
    return [argv + ["--json"] for argv in runs]


REDUCTION = {
    "A3": "61cbdb944c3f5bc7fd407f5dd1daffc91491ef47",
    "cyc3": "76a24f070fd27450ad2cef0625bf44032baa5ce1",
}


def cli_digest(name, path, capture, runs=cli_runs):
    """sha1 over the exit code and stdout of every pinned run; capture()
    returns the stdout written since its last call."""
    h = hashlib.sha1()
    for argv in runs(name):
        code = cli.main([path if a == "{ws}" else a for a in argv])
        h.update(f"{' '.join(argv)} -> {code}\n".encode())
        h.update(capture().encode())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(CLI))
def test_cli_json_is_pinned(name, tmp_path, capsys):
    path = tmp_path / f"{name}.alg"
    path.write_text(WORKSPACES[name], encoding="utf-8")
    assert cli_digest(name, str(path), lambda: capsys.readouterr().out) == CLI[name]


# successful bongartz runs among the pinned ones, both sides together
COMPLETIONS = {"A3": 16, "cyc3": 12}


@pytest.mark.parametrize("name", sorted(CLI))
def test_bongartz_prints_the_walked_node(name, tmp_path, capsys):
    # both sides print the completion as the walk built it, in its row
    # order, so --left and --right print one pair in one basis
    path = tmp_path / f"{name}.alg"
    path.write_text(WORKSPACES[name], encoding="utf-8")
    graph = ex.build_exchange_graph(wk.parse_workspace(WORKSPACES[name]).algebra)
    nodes = {md.describe_pair(node): node for node in graph.node_list()}
    assert len(nodes) == len(graph)
    done = 0
    for argv in cli_runs(name):
        if argv[0] != "bongartz":
            continue
        code = cli.main([str(path) if a == "{ws}" else a for a in argv])
        out = capsys.readouterr().out
        if code == 0:
            report = json.loads(out)
            node = nodes[report["result"]]
            assert report["block"] == wk.pair_block(f"{report['anchor']}_{report['side']}", node)
            done += 1
    assert done == COMPLETIONS[name]


def test_right_bongartz_command_runs_one_completion(tmp_path, capsys, monkeypatch):
    # the command prints the completion right_bongartz certified on A: no
    # op-side left completion and no pair over A^op is built for the print
    path = tmp_path / "A3.alg"
    path.write_text(WORKSPACES["A3"], encoding="utf-8")
    calls = {"left_bongartz": 0, "dagger_pair": 0, "left_completion_silting": 0}

    def counted(module, fn):
        real = getattr(module, fn)

        def wrapper(*args, **kwargs):
            calls[fn] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, fn, wrapper)

    counted(to, "left_bongartz")
    counted(to, "dagger_pair")
    counted(tt, "left_completion_silting")
    assert cli.main(["bongartz", str(path), "PairS2", "--right", "--json"]) == 0
    capsys.readouterr()
    assert calls == {"left_bongartz": 0, "dagger_pair": 0, "left_completion_silting": 1}


@pytest.mark.parametrize("name", sorted(VERIFY))
def test_verify_json_is_pinned(name, tmp_path, capsys):
    path = tmp_path / f"{name}.alg"
    path.write_text(WORKSPACES[name], encoding="utf-8")
    digest = cli_digest(name, str(path), lambda: capsys.readouterr().out, verify_runs)
    assert digest == VERIFY[name]


@pytest.mark.parametrize("name", sorted(REDUCTION))
def test_reduction_json_is_pinned(name, tmp_path, capsys):
    path = tmp_path / f"{name}.alg"
    path.write_text(WORKSPACES[name], encoding="utf-8")
    digest = cli_digest(name, str(path), lambda: capsys.readouterr().out, reduction_runs)
    assert digest == REDUCTION[name]


if __name__ == "__main__":
    import io
    import os
    import tempfile

    for name in WALKS:
        print(f"walk {name!r}: {walk_digest(ALGEBRAS[name]())!r}")
    real = sys.stdout
    for name in CLI:
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, f"{name}.alg")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(WORKSPACES[name])
            buf = io.StringIO()

            def capture():
                out = buf.getvalue()
                buf.seek(0)
                buf.truncate()
                return out

            sys.stdout = buf
            try:
                digest = cli_digest(name, path, capture)
                verify = cli_digest(name, path, capture, verify_runs)
                reduction = cli_digest(name, path, capture, reduction_runs)
            finally:
                sys.stdout = real
        print(f"cli {name!r}: {digest!r}")
        print(f"verify {name!r}: {verify!r}")
        print(f"reduction {name!r}: {reduction!r}")
