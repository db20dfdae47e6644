"""Command line behaviour: outputs, exit codes, determinism."""

import ast
import importlib
import inspect
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import tautilt
from tautilt import cli, explorer
from tautilt import modules as md
from tautilt import workspace as wk

CYC3 = """
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
pair PairP2 : M = P2 ; P = 0
pair TopRev : M = P3 P2 P1 ; P = 0
"""

A2 = """
vertex 1 2
arrow a 1 2
pair Top : M = P1 P2 ; P = 0
"""


@pytest.fixture(scope="module")
def ws3(tmp_path_factory):
    f = tmp_path_factory.mktemp("ws") / "cyc3.alg"
    f.write_text(CYC3, encoding="utf-8")
    return str(f)


@pytest.fixture(scope="module")
def ws2(tmp_path_factory):
    f = tmp_path_factory.mktemp("ws") / "a2.alg"
    f.write_text(A2, encoding="utf-8")
    return str(f)


def run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_check(ws3, capsys):
    code, out, _ = run(capsys, ["check", ws3, "PairS3"])
    assert code == 0
    assert "tilting" in out
    assert "(S3 | P1+P2)" in out


def test_tau(ws3, capsys):
    code, out, _ = run(capsys, ["tau", ws3, "S3"])
    assert code == 0
    assert "dim 1 0 0" in out


def test_mutate(ws3, capsys):
    code, out, _ = run(capsys, ["mutate", ws3, "Top", "0"])
    assert code == 0
    assert "left" in out


def test_bongartz_relative(ws3, capsys):
    code, out, _ = run(capsys, ["bongartz", ws3, "PairS3", "--left", "--rel", "PairP1"])
    assert code == 0
    assert "(P1+P3+S1 | 0)" in out


def test_bongartz_absolute(ws3, capsys):
    code, out, _ = run(capsys, ["bongartz", ws3, "PairP1", "--left"])
    assert code == 0
    assert "(P1+S1 | P3)" in out
    code, out, _ = run(capsys, ["bongartz", ws3, "PairP1", "--right"])
    assert code == 0
    assert "(P1+P2+P3 | 0)" in out


def test_bongartz_block_reparses(ws3, capsys):
    code, out, _ = run(
        capsys, ["bongartz", ws3, "PairS3", "--left", "--rel", "PairP1", "--json"]
    )
    assert code == 0
    report = json.loads(out)
    assert report["result"] == "(P1+P3+S1 | 0)"
    again = wk.parse_workspace(CYC3 + "\n" + report["block"])
    emitted = again.pairs["PairS3_left"]
    assert md.describe_pair(emitted) == "(P1+P3+S1 | 0)"


def test_bongartz_prints_an_anchor_that_holds_rel_as_given_on_both_sides(ws3, capsys):
    # TopRev is (A, 0) with its summands in reverse order; it holds
    # PairP2, so it is its own completion on both sides, in its own basis
    blocks = {}
    for side in ("left", "right"):
        argv = ["bongartz", ws3, "TopRev", f"--{side}", "--rel", "PairP2", "--json"]
        code, out, _ = run(capsys, argv)
        assert code == 0
        report = json.loads(out)
        assert report["result"] == "(P1+P2+P3 | 0)"
        blocks[side] = report["block"].replace(f"TopRev_{side}", "TopRev_out")
    assert blocks["left"] == blocks["right"]
    assert "map a3 [[0,0],[0,1]]" in blocks["left"]


def test_graph(ws3, capsys, tmp_path):
    dot = tmp_path / "out.dot"
    code, out, _ = run(capsys, ["graph", ws3, "--dot", str(dot)])
    assert code == 0
    assert "14" in out
    text = dot.read_text(encoding="utf-8")
    assert text.startswith("digraph")
    assert text.count("->") == 21


def test_graph_pentagon_dot(ws2, capsys, tmp_path):
    dot = tmp_path / "a2.dot"
    code, out, _ = run(capsys, ["graph", ws2, "--dot", str(dot)])
    assert code == 0
    text = dot.read_text(encoding="utf-8")
    assert text.count("label=") == 5 + 5  # nodes plus edges


def test_graph_budget(ws3, capsys):
    code, out, _ = run(capsys, ["graph", ws3, "--budget", "3"])
    assert code == 0
    assert "False" in out


def test_mgs(ws3, capsys):
    code, out, _ = run(capsys, ["mgs", ws3, "Top"])
    assert code == 0
    assert out.startswith("9 maximal green sequence")
    assert (
        "mgs-5: (0 | P1+P2+P3) -> (S3 | P1+P2) -> (P3+S3 | P2) "
        "-> (P2+P3+S3 | 0) -> (P1+P2+P3 | 0)" in out
    )


def test_reduce(ws3, capsys):
    code, out, _ = run(capsys, ["reduce", ws3, "PairP1", "--json"])
    assert code == 0
    report = json.loads(out)
    assert report["endo_dim"] == 6
    assert report["ideal_dim"] == 3
    assert report["quotient_dim"] == 3
    assert report["quotient_vertices"] == ["3'", "2'"]


def test_transport(ws3, capsys):
    code, out, _ = run(capsys, ["transport", ws3, "PairP1", "5"])
    assert code == 0
    assert "steps:  2" in out
    assert "(0 | P2'+P3') -> (P3' | P2') -> (P2'+P3' | 0)" in out
    # the mgs-N spelling is accepted too
    code2, out2, _ = run(capsys, ["transport", ws3, "PairP1", "mgs-5"])
    assert code2 == 0
    assert out2 == out


def test_transport_bad_id(ws3, capsys, monkeypatch):
    code, _, err = run(capsys, ["transport", ws3, "PairP1", "99"])
    assert code == 1
    assert "out of range" in err

    # a malformed id is rejected before the reduction runs
    def no_reduction(*args, **kwargs):
        raise AssertionError("tau_reduction ran before the mgs id was parsed")

    monkeypatch.setattr(explorer, "tau_reduction", no_reduction)
    code, _, err = run(capsys, ["transport", ws3, "PairP1", "five"])
    assert code == 1
    assert "mgs id 'five' is not an integer" in err


@pytest.mark.parametrize(
    "suite",
    ["exchange", "compat", "silting-compat", "route", "dagger", "reduction",
     "order-criteria"],
)
def test_verify_suites_a2(ws2, capsys, suite):
    code, out, _ = run(capsys, ["verify", ws2, suite])
    assert code == 0
    assert "pass      True" in out


def test_verify_rel(ws3, capsys):
    code, out, _ = run(capsys, ["verify", ws3, "compat", "--rel", "PairP1"])
    assert code == 0
    report_code, json_out, _ = run(
        capsys, ["verify", ws3, "compat", "--rel", "PairP1", "--json"]
    )
    assert report_code == 0
    report = json.loads(json_out)
    assert report["pass"] is True
    assert report["identity_steps"] > 0
    assert report["mutation_steps"] > 0


@pytest.mark.parametrize("suite", ["exchange", "dagger", "reduction", "order-criteria"])
def test_verify_rel_outside_the_edge_suites_is_a_usage_error(ws3, capsys, suite):
    # these suites check the whole algebra, so a pair to restrict to is a
    # mistake, not something to ignore
    code, out, err = run(capsys, ["verify", ws3, suite, "--rel", "PairP1"])
    assert code == 1
    assert out == ""
    assert "--rel" in err


def test_verify_suites_are_the_dispatch_table():
    assert cli.SUITES == ("exchange", "compat", "silting-compat", "route", "dagger",
                          "reduction", "order-criteria")
    assert cli.SUITES == tuple(cli._VERIFIERS)


def test_verify_counterexample_exit(ws2, capsys, monkeypatch):
    def fake(algebra, budget=10000):
        return {"suite": "exchange", "failures": [["boom"]], "pass": False}

    monkeypatch.setitem(cli._VERIFIERS, "exchange", (fake, False))
    code, out, _ = run(capsys, ["verify", ws2, "exchange"])
    assert code == 2
    assert "False" in out


def test_python_m_tautilt_runs_the_cli_from_a_checkout(ws3, capsys):
    # python -m tautilt with the package on PYTHONPATH, no install
    argv = ["verify", ws3, "reduction", "--json"]
    src = str(Path(tautilt.__file__).parent.parent)
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run(
        [sys.executable, "-m", "tautilt", *argv], capture_output=True, text=True, env=env
    )
    code, out, _ = run(capsys, argv)
    assert code == 0 and json.loads(out)["pass"] is True
    assert (proc.returncode, proc.stdout) == (code, out)


def test_json_deterministic(ws3, capsys):
    _, out1, _ = run(capsys, ["verify", ws3, "exchange", "--json"])
    _, out2, _ = run(capsys, ["verify", ws3, "exchange", "--json"])
    assert out1 == out2
    json.loads(out1)  # valid JSON


def test_seed_is_accepted_and_changes_no_output(ws3, capsys):
    commands = (["graph", ws3], ["bongartz", ws3, "PairP1", "--right"], ["verify", ws3, "exchange"])
    for argv in commands:
        runs = [run(capsys, argv + ["--json", "--seed", seed]) for seed in ("0", "7")]
        assert runs[0][0] == 0
        assert runs[0] == runs[1]


def test_no_module_draws_random_numbers_or_takes_a_seed():
    for info in pkgutil.iter_modules(tautilt.__path__):
        mod = importlib.import_module(f"tautilt.{info.name}")
        tree = ast.parse(inspect.getsource(mod))
        nodes = list(ast.walk(tree))
        imported = {a.name for n in nodes if isinstance(n, ast.Import) for a in n.names}
        imported |= {n.module for n in nodes if isinstance(n, ast.ImportFrom)}
        assert "random" not in imported, mod.__name__
        for name, obj in vars(mod).items():
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            fns = [obj] if inspect.isfunction(obj) else []
            if inspect.isclass(obj):
                fns = [f for f in vars(obj).values() if inspect.isfunction(f)]
            for fn in fns:
                assert "seed" not in inspect.signature(fn).parameters, f"{mod.__name__}.{name}"


def test_error_exits(ws3, capsys):
    assert run(capsys, ["check", ws3, "NoSuchPair"])[0] == 1
    assert run(capsys, ["check", "/nonexistent/x.alg", "P"])[0] == 1
    assert run(capsys, ["bongartz", ws3, "PairP1"])[0] == 1  # side missing
    assert run(capsys, ["verify", ws3, "bogus-suite"])[0] == 1
    assert run(capsys, ["frobnicate", ws3])[0] == 1


def test_parse_error_exit(tmp_path, capsys):
    f = tmp_path / "bad.alg"
    f.write_text("vertex 1\nmodule X\ndim 2\nmap q [[1]]", encoding="utf-8")
    code, _, err = run(capsys, ["check", str(f), "X"])
    assert code == 1
    assert "line" in err
