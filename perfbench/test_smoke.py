"""Smoke test for the benchmark on a tiny input (linear A2, and cyc3 with
one-summand rigid pairs).

Run from the repository root with ``python3 -m pytest perfbench/test_smoke.py``.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


def run_smoke(trace):
    proc = bench("--workload", "smoke", "--seed", "3", "--seconds", "0", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def check_metrics(declared, table, result):
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        assert any(line.startswith(f"# {m['name']} = ") and line.endswith(f" {m['unit']}")
                   for line in table), m["name"]


def test_end_to_end_metrics_print_with_units():
    table, result = run_smoke(0)
    check_metrics(spec()["end_to_end"], table, result)
    assert all(result["metrics"][m]["value"] > 0 for m in result["metrics"])


def test_per_layer_metrics_print_with_units():
    table, result = run_smoke(1)
    check_metrics(spec()["per_layer"], table, result)
    metrics = result["metrics"]
    assert metrics["explorer.nodes_found"]["value"] > 0
    assert metrics["tauops.silting_closure.calls"]["value"] > 0
    assert metrics["cache.total.entries"]["value"] >= metrics["cache.hom.entries"]["value"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", "smoke", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
