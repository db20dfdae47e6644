"""Command-line front end.

Every subcommand takes a workspace file first:

    tautilt check ws.alg T1
    tautilt tau ws.alg S3
    tautilt mutate ws.alg Top 0
    tautilt bongartz ws.alg PairS3 --left --rel PairP1
    tautilt graph ws.alg --dot out.dot
    tautilt mgs ws.alg Top
    tautilt reduce ws.alg PairP1
    tautilt transport ws.alg PairP1 0
    tautilt verify ws.alg exchange

Reports print as aligned text by default, or as stable JSON with --json
(sorted keys; identical input gives byte-identical output).
Exit status: 0 on success, 2 when a verification suite finds a
counterexample, 1 on any error.
"""

import argparse
import json
import sys

from . import explorer, modules, tauops, workspace
from .errors import TautiltError

# each verification suite: its explorer function, and whether it is an
# edge suite, run per relative pair over the exchange graph (--rel picks one)
_VERIFIERS = {
    "exchange": (explorer.verify_exchange, False),
    "compat": (explorer.verify_mutation_compat, True),
    "silting-compat": (explorer.verify_silting_compat, True),
    "route": (explorer.verify_route, True),
    "dagger": (explorer.verify_dagger, False),
    "reduction": (explorer.verify_reduction, False),
    "order-criteria": (explorer.verify_order_criteria, False),
}
SUITES = tuple(_VERIFIERS)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; 2 is reserved for
    # verification counterexamples here, so route usage problems to 1
    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")


def _json_default(obj):
    if isinstance(obj, (set, frozenset)):
        return sorted(str(x) for x in obj)
    return str(obj)


def _emit(args, report, lines):
    if args.json:
        print(json.dumps(report, sort_keys=True, indent=2, default=_json_default))
    else:
        for line in lines:
            print(line)


def _table(rows):
    """Align two-column rows."""
    if not rows:
        return []
    width = max(len(k) for k, _ in rows)
    return [f"{k.ljust(width)}  {v}" for k, v in rows]


def _load(args):
    return workspace.load_workspace(args.workspace)


def _cmd_check(args):
    ws = _load(args)
    pair = ws.pair(args.pair)
    info = modules.check_pair(pair)
    report = {"command": "check", "pair": args.pair, **info}
    lines = _table(
        [
            ("pair", modules.describe_pair(pair)),
            ("role", info["role"]),
            ("rigid", str(info["rigid"])),
            ("projective part ok", str(info["projective_ok"])),
            ("Hom(P, M) = 0", str(info["hom_p_m_zero"])),
        ]
    )
    _emit(args, report, lines)
    return 0


def _cmd_tau(args):
    ws = _load(args)
    x = ws.module(args.module)
    t = modules.ar_translate(x)
    block = workspace.module_block(f"tau_{args.module}", t)
    report = {
        "command": "tau",
        "module": args.module,
        "dims": list(t.dims),
        "block": block,
    }
    lines = [f"dim {' '.join(str(d) for d in t.dims)}", "", block.rstrip()]
    _emit(args, report, lines)
    return 0


def _cmd_mutate(args):
    ws = _load(args)
    pair = ws.pair(args.pair)
    new, direction = tauops.mutate_pair(pair, args.slot)
    block = workspace.pair_block(f"{args.pair}_mut{args.slot}", new)
    report = {
        "command": "mutate",
        "pair": args.pair,
        "slot": args.slot,
        "direction": direction,
        "result": modules.describe_pair(new),
        "block": block,
    }
    lines = _table(
        [
            ("direction", direction),
            ("result", modules.describe_pair(new)),
        ]
    ) + ["", block.rstrip()]
    _emit(args, report, lines)
    return 0


def _cmd_bongartz(args):
    ws = _load(args)
    anchor = ws.pair(args.anchor)
    rel = None if args.rel is None else ws.pair(args.rel)
    side = "left" if args.left else "right"
    fn = tauops.left_bongartz if args.left else tauops.right_bongartz
    out = fn(anchor) if rel is None else fn(rel, anchor)
    block = workspace.pair_block(f"{args.anchor}_{side}", out)
    report = {
        "command": "bongartz",
        "side": side,
        "anchor": args.anchor,
        "rel": args.rel,
        "result": modules.describe_pair(out),
        "block": block,
    }
    _emit(args, report, [modules.describe_pair(out), "", block.rstrip()])
    return 0


def _cmd_graph(args):
    ws = _load(args)
    g = explorer.build_exchange_graph(ws.algebra, budget=args.budget)
    names = {fp: modules.describe_pair(p) for fp, p in g.nodes.items()}
    order = list(g.nodes)
    report = {
        "command": "graph",
        "nodes": len(g),
        "edges": len(g.edges),
        "complete": g.complete,
        "node_list": [names[fp] for fp in order],
        "edge_list": [
            [names[s], names[t]] for s, t, _ in g.edges
        ],
    }
    lines = _table(
        [
            ("nodes", str(len(g))),
            ("edges", str(len(g.edges))),
            ("complete", str(g.complete)),
        ]
    )
    lines += [""] + [f"n{k}  {names[fp]}" for k, fp in enumerate(order)]
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(explorer.graph_dot(g))
        lines.append(f"wrote {args.dot}")
        report["dot"] = args.dot
    _emit(args, report, lines)
    return 0


def _chain_text(chain):
    return " -> ".join(modules.describe_pair(p) for p in chain)


def _cmd_mgs(args):
    ws = _load(args)
    target = ws.pair(args.pair)
    g = explorer.build_exchange_graph(ws.algebra, budget=args.budget)
    seqs = explorer.maximal_green_sequences(g, target)
    report = {
        "command": "mgs",
        "target": args.pair,
        "count": len(seqs),
        "sequences": [
            [modules.describe_pair(p) for p in s] for s in seqs
        ],
    }
    lines = [f"{len(seqs)} maximal green sequence(s) up to {args.pair}"]
    lines += [f"mgs-{k}: {_chain_text(s)}" for k, s in enumerate(seqs)]
    _emit(args, report, lines)
    return 0


def _cmd_reduce(args):
    ws = _load(args)
    pair = ws.pair(args.pair)
    rd = explorer.tau_reduction(pair)
    report = {
        "command": "reduce",
        "pair": args.pair,
        "endo_dim": rd.endo.dim,
        "ideal_dim": rd.ideal_dim,
        "quotient_dim": rd.quotient.dim,
        "quotient_vertices": list(rd.quotient.vertex_labels),
        "bongartz": modules.describe_pair(rd.bongartz),
    }
    lines = _table(
        [
            ("Bongartz completion", modules.describe_pair(rd.bongartz)),
            ("dim End", str(rd.endo.dim)),
            ("dim ideal", str(rd.ideal_dim)),
            ("dim quotient", str(rd.quotient.dim)),
            ("quotient vertices", " ".join(rd.quotient.vertex_labels) or "-"),
        ]
    )
    _emit(args, report, lines)
    return 0


def _cmd_transport(args):
    ws = _load(args)
    pair = ws.pair(args.pair)
    idx = args.mgs_id
    if idx.startswith("mgs-"):
        idx = idx[4:]
    try:
        k = int(idx)
    except ValueError:
        raise _UsageError(f"mgs id {args.mgs_id!r} is not an integer")
    rd = explorer.tau_reduction(pair)
    g = explorer.build_exchange_graph(ws.algebra, budget=args.budget)
    seqs = explorer.maximal_green_sequences(g, rd.bongartz)
    if not 0 <= k < len(seqs):
        raise TautiltError(
            f"mgs id {k} out of range; the target has {len(seqs)} sequences"
        )
    out = explorer.transport_mgs(rd, seqs[k])
    report = {
        "command": "transport",
        "pair": args.pair,
        "mgs_id": k,
        "input": [modules.describe_pair(p) for p in seqs[k]],
        "steps": len(out) - 1,
        "result": [modules.describe_pair(p) for p in out],
    }
    lines = [
        f"input:  {_chain_text(seqs[k])}",
        f"output: {_chain_text(out)}",
        f"steps:  {len(out) - 1}",
    ]
    _emit(args, report, lines)
    return 0


def _cmd_verify(args):
    suite = args.suite
    fn, per_pair = _VERIFIERS[suite]
    if args.rel is not None and not per_pair:
        raise _UsageError(f"tautilt verify: --rel does not apply to the {suite} suite")
    ws = _load(args)
    if not per_pair:
        report = fn(ws.algebra, budget=args.budget)
    else:
        g = explorer.build_exchange_graph(ws.algebra, budget=args.budget)
        if args.rel is not None:
            report = fn(ws.pair(args.rel), g)
            report["rel"] = args.rel
        else:
            runs = []
            for rel in explorer.rigid_subpairs(g, 1):
                sub = fn(rel, g)
                sub["rel"] = modules.describe_pair(rel)
                runs.append(sub)
            report = {
                "suite": suite,
                "sweep": runs,
                "relpairs": len(runs),
                "failures": [
                    [r["rel"], f] for r in runs for f in r["failures"]
                ],
                "pass": all(r["pass"] for r in runs),
            }
    report["command"] = "verify"
    ok = bool(report.get("pass"))
    lines = _table(
        [
            ("suite", suite),
            ("pass", str(ok)),
            ("failures", str(len(report.get("failures", ())))),
        ]
    )
    if not ok:
        for f in list(report.get("failures", ()))[:20]:
            lines.append(f"  {f}")
    _emit(args, report, lines)
    return 0 if ok else 2


def build_parser():
    parser = _Parser(prog="tautilt", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, budget=True):
        p.add_argument("workspace", help="workspace file")
        p.add_argument("--json", action="store_true", help="print the JSON report")
        p.add_argument("--seed", type=int, default=0,
                       help="accepted and ignored; every answer is exact")
        if budget:
            p.add_argument("--budget", type=int, default=10000,
                           help="exchange graph node cap")

    p = sub.add_parser("check", help="classify a pair")
    common(p, budget=False)
    p.add_argument("pair")
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("tau", help="AR translate of a module")
    common(p, budget=False)
    p.add_argument("module")
    p.set_defaults(fn=_cmd_tau)

    p = sub.add_parser("mutate", help="mutate a pair at a slot")
    common(p, budget=False)
    p.add_argument("pair")
    p.add_argument("slot", type=int)
    p.set_defaults(fn=_cmd_mutate)

    p = sub.add_parser("bongartz", help="completion of a rigid pair")
    common(p, budget=False)
    p.add_argument("anchor")
    side = p.add_mutually_exclusive_group(required=True)
    side.add_argument("--left", action="store_true")
    side.add_argument("--right", action="store_true")
    p.add_argument("--rel", help="complete this pair relative to the anchor")
    p.set_defaults(fn=_cmd_bongartz)

    p = sub.add_parser("graph", help="exchange graph of the algebra")
    common(p)
    p.add_argument("--dot", help="write a DOT rendering here")
    p.set_defaults(fn=_cmd_graph)

    p = sub.add_parser("mgs", help="maximal green sequences up to a pair")
    common(p)
    p.add_argument("pair")
    p.set_defaults(fn=_cmd_mgs)

    p = sub.add_parser("reduce", help="reduction of the algebra at a pair")
    common(p, budget=False)
    p.add_argument("pair")
    p.set_defaults(fn=_cmd_reduce)

    p = sub.add_parser("transport", help="transport an MGS through a reduction")
    common(p)
    p.add_argument("pair")
    p.add_argument("mgs_id", help="index from the mgs listing of the completion")
    p.set_defaults(fn=_cmd_transport)

    p = sub.add_parser("verify", help="run a verification suite")
    common(p)
    p.add_argument("suite", choices=SUITES)
    p.add_argument("--rel", help="restrict an edge suite (compat, silting-compat, route) to this pair")
    p.set_defaults(fn=_cmd_verify)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except _UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except TautiltError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
