"""tautilt benchmark: one command, seeded workloads, checked answers.

Usage, from the repository root:

    python3 perfbench/run.py --workload graph-ladder --seed 1 --seconds 20 --trace 0

The workload names are listed in BENCHMARK.json.  Two more can be run by
hand: ``smoke``, a tiny input for test_smoke.py, and ``known-failures``,
linear A3 over F_2 and F_3, where the graph walk still raises.

One client runs the workload's operations back to back: a closed loop,
no threads.  A pass runs every operation once.  A run makes at least one
pass and then goes on, operation by operation in pass order, until
``--seconds`` have gone by.  Each operation is timed on its own, scaled
to a reference machine speed (see measure.py) and checked (see
workloads.py).  A failed operation is recorded with its exception type and
the run goes on.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones:

  setup_s        parse_workspace (compile_bound_quiver included) on the
                 generated text: per algebra the median of 15 parses,
                 summed over the workload's algebras; scaled
  ops_per_ref_s  operations per second: one over the geometric mean of
                 the operations' median scaled times, so that each
                 operation weighs the same however long it takes, times
                 the share of operations with checked answers
  peak_rss_mb    peak resident memory of the process

The table above the JSON line adds per-operation latency, its median and
the tail percentiles that have at least ten samples beyond them.

With ``--trace 1`` the run first makes one untraced pass, then wraps the
layers (see tracing.py), makes traced passes until ``--seconds`` have gone
by and ends on a pass boundary.  The metrics are then the per-layer ones,
per pass: call counts, inclusive and self seconds (raw, traced), useful
fractions, cache entries and the tracing overhead.  Cache entries are read
from ``algebra.cache`` after every checked operation, over the operation's
algebras, its reduced and endomorphism algebras and the opposite algebras
cached on them.

The lines before the JSON object are a readable table and the
environment; the same result goes to ``perfbench/out/``.
"""

import argparse
import json
import math
import os
import platform
import resource
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")

LAYERS = ("linalg", "algebra", "modules", "tauops", "twoterm", "explorer", "workspace")
CALLS = (
    "twoterm.decompose_complex", "twoterm.mutate_complex", "twoterm.is_isomorphic_complex",
    "twoterm.chain_hom_data", "twoterm.minimalize", "twoterm.left_completion_silting",
    "twoterm.hom_k",
    "tauops.mutate_pair", "tauops.left_bongartz", "tauops.fan_left_completion",
    "tauops.silting_closure",
    "explorer.reduction_functor",
    "modules.hom_basis", "modules.decompose", "modules.is_isomorphic", "modules.ar_translate",
    "modules.min_proj_presentation", "modules.trace_submodule", "modules.in_fac",
    "linalg.rref", "linalg.rank", "linalg.right_nullspace", "linalg.mat_mul", "linalg.RowSolver",
)
INCLUSIVE_S = (
    "twoterm.decompose_complex", "twoterm.left_completion_silting", "tauops.mutate_pair",
    "tauops.silting_closure", "explorer.build_exchange_graph", "explorer.tau_reduction",
    "explorer.transport_mgs", "algebra.compile_bound_quiver", "workspace.parse_workspace",
)
CACHE_FAMILIES = ("hom", "cdecomp", "decomp", "pres", "tau", "left_bongartz")


def environment(seed):
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "seed": seed,
        "commit": commit(),
    }


def commit():
    """HEAD of the enclosing git checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def end_to_end(runner, setup_s):
    good = runner.ok / runner.attempted
    log_mean = statistics.fmean(math.log(t) for t in runner.medians())
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_ref_s": (good / math.exp(log_mean), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(summary, runner, untraced_pass_s, nodes_found):
    per = runner.passes

    def calls(name):
        return summary.get(name, (0,))[0] / per

    out = {f"{name}.calls": (calls(name), "count") for name in CALLS}
    for name in INCLUSIVE_S:
        out[f"{name}.s"] = (summary.get(name, (0, 0.0))[1] / per, "s")
    for layer in LAYERS:
        own = sum(v[2] for k, v in summary.items() if k.startswith(layer + "."))
        out[f"{layer}.self_s"] = (own / per, "s")
    mutate = summary.get("twoterm.mutate_complex", (0, 0.0, 0.0, 0))
    out["twoterm.mutate_complex.useful_frac"] = (
        mutate[3] / mutate[0] if mutate[0] else 0.0, "ratio"
    )
    nodes = nodes_found / per
    out["explorer.nodes_found"] = (nodes, "count")
    out["explorer.decompose_per_node"] = (
        calls("twoterm.decompose_complex") / nodes if nodes else 0.0, "ratio"
    )
    for family in CACHE_FAMILIES:
        out[f"cache.{family}.entries"] = (runner.cache.get(family, 0) / per, "count")
    out["cache.total.entries"] = (sum(runner.cache.values()) / per, "count")
    traced = runner.pass_s()
    out["trace.untraced_pass_s"] = (untraced_pass_s, "s")
    out["trace.traced_pass_s"] = (traced, "s")
    out["trace.overhead_frac"] = (traced / untraced_pass_s - 1, "ratio")
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "tautilt")):
        print(f"error: the tautilt sources are not under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import measure
    import tracing
    import workloads
    from tautilt import workspace

    env = environment(args.seed)
    cases, ops = workloads.build(args.workload, args.seed)
    for case in cases:
        case.nodes()  # the oracle counts, before any timing
    setup_raw, setup_s = measure.setup_seconds([c.text for c in cases], workspace.parse_workspace)
    os.makedirs(OUT, exist_ok=True)

    runner = measure.Runner(ops)
    if args.trace:
        runner.run(0)
        untraced = runner.pass_s()
        runner = measure.Runner(ops)
        tracer = tracing.Tracer()
        nodes = []
        tracer.hooks["explorer.build_exchange_graph"] = lambda g: nodes.append(len(g))
        tracer.install()
        try:
            runner.run(args.seconds, whole_passes=True)
        finally:
            tracer.uninstall()
        metrics = per_layer(tracer.summary(), runner, untraced, sum(nodes))
        tracer.write(os.path.join(OUT, f"spans-{args.workload}.gz"))
    else:
        runner.run(args.seconds)
        metrics = end_to_end(runner, setup_s)

    failed = runner.attempted - runner.ok
    result = {
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    report(args, env, runner, setup_raw, result)
    detail = {
        key: {
            "wall_s": statistics.median(runner.wall[key]),
            "scaled_s": statistics.median(runner.scaled[key]),
            "wall": runner.wall[key],
            "scaled": runner.scaled[key],
        }
        for key in runner.wall
    }
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, name), "w") as fh:
        json.dump(
            {"environment": env, "workload": args.workload, **result, "operations": detail,
             "calibrations": runner.cals},
            fh,
            indent=1,
        )
    print(json.dumps(result))
    return 0


def report(args, env, runner, setup_raw, result):
    print(f"# environment: {json.dumps(env, sort_keys=True)}")
    print(
        f"# workload {args.workload}: {len(runner.ops)} operations per pass, "
        f"{runner.passes:.2f} passes, {runner.attempted} attempted, {result['failed']} failed; "
        f"raw setup {setup_raw:.4f} s, raw pass {runner.pass_s(scaled=False):.3f} s"
    )
    print("#   median wall ms, median scaled ms, samples, operation")
    for key, wall in runner.wall.items():
        scaled = runner.scaled[key]
        print(
            f"#   {statistics.median(wall) * 1000:9.1f} {statistics.median(scaled) * 1000:9.1f}"
            f" {len(wall):3d}  {key}"
        )
    samples = sorted(x for v in runner.scaled.values() for x in v)
    # a percentile is reported only with at least ten samples beyond it
    tails = [q for q in (0.9, 0.99) if len(samples) * (1 - q) >= 10]
    tail = "".join(f", p{round(q * 100)} {samples[int(q * len(samples))] * 1000:.1f} ms" for q in tails)
    print(
        f"#   scaled latency over {len(samples)} samples: "
        f"p50 {statistics.median(samples) * 1000:.1f} ms{tail}"
    )
    for (key, kind), count in sorted(runner.failures.items()):
        print(f"#   FAILED x{count}: {key}: {kind}")
    for name, m in result["metrics"].items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")


if __name__ == "__main__":
    sys.exit(main())
