"""Command-line interface.

Subcommands: gen, complexity, wcol, qw, closure, solve, kernelize, bench,
gadget. Exit codes: 0 ok, 1 usage error, 2 input error, 3 size cap
exceeded.
"""

from __future__ import annotations

import argparse
import random
import sys

from . import bench as bench_mod
from .domset import (
    DominationInstance,
    exact_min_dominator,
    greedy_dominator,
    is_dominator,
)
from .generators import FAMILIES, PARAMETERS, GenSpec, generate
from .graphs import Graph, ParseError, SizeCapError, _decimal, dump_edge_list, load_edge_list
from .kernel import VERIFY_CAP, annotate_to_plain, kernelize
from .orderings import degeneracy_order, wcol_exact, wcol_of_order
from .profiles import SetFamily, mu_hat_r, mu_r, nu_hat_r, nu_r, target_traces, vc_dimension
from .sparsity import default_closure_threshold, quasi_wide_extract, r_closure


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # no prefix matching, so that a mistyped option never becomes a longer one
    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        raise UsageError(message)


def _read_graph(path: str) -> Graph:
    try:
        with open(path, "rb") as fh:
            return load_edge_list(fh.read())
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None


def _write_text(path: str, text: str):
    if path == "-":
        sys.stdout.write(text)
    else:
        try:
            with open(path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise ParseError(f"cannot write {path}: {exc}") from None


def _read_vertex_set(spec: str, g: Graph, default_seed: int) -> set[int]:
    """Either a file of whitespace-separated vertex ids, or random:<size>:<seed>;
    ids, size and seed are ASCII decimal integers, as in edge lists."""
    if spec.startswith("random:"):
        parts = spec.split(":")
        if len(parts) not in (2, 3):
            raise ParseError(f"expected random:<size>[:<seed>], got {spec!r}")
        try:
            size = _decimal(parts[1])
            seed = _decimal(parts[2]) if len(parts) == 3 else default_seed
        except ValueError:
            raise ParseError(f"non-integer field in {spec!r}") from None
        if not 0 <= size <= g.n:
            raise ParseError(f"sample size {size} out of range for n={g.n}")
        return set(random.Random(seed).sample(range(g.n), size))
    try:
        with open(spec) as fh:
            tokens = fh.read().split()
    except OSError as exc:
        raise ParseError(f"cannot read {spec}: {exc}") from None
    try:
        members = set(map(_decimal, tokens))
    except ValueError:
        raise ParseError(f"non-integer vertex id in {spec}") from None
    for v in members:
        if not 0 <= v < g.n:
            raise ParseError(f"vertex {v} out of range for n={g.n}")
    return members


def _cmd_gen(args) -> int:
    params = {key: getattr(args, key) for key in PARAMETERS if getattr(args, key) is not None}
    g = generate(GenSpec(args.family, params, args.seed))
    _write_text(args.out, dump_edge_list(g))
    return 0


def _cmd_complexity(args) -> int:
    g = _read_graph(args.graph)
    a = _read_vertex_set(args.set, g, args.seed)
    if args.metric == "nu":
        value = nu_r(g, a, args.r, cap=args.cap)
    elif args.metric == "nuhat":
        value = nu_hat_r(g, a, args.r, cap=args.cap)
    elif args.metric == "mu":
        value = mu_r(g, a, args.r, cap=args.cap)
    elif args.metric == "muhat":
        value = mu_hat_r(g, a, args.r, cap=args.cap)
    else:  # vc of the neighborhood traces on A
        index = {v: i for i, v in enumerate(sorted(a))}
        traces = {frozenset(index[x] for x in trace) for trace in target_traces(g, a, args.r)}
        value = vc_dimension(SetFamily.from_sets(len(a), traces), cap=args.vc_cap)
    print("graph,n,m,a,r,metric,value")
    print(f"{args.graph},{g.n},{g.m},{len(a)},{args.r},{args.metric},{value}")
    return 0


def _cmd_wcol(args) -> int:
    g = _read_graph(args.graph)
    heuristic = wcol_of_order(g, degeneracy_order(g), args.r)
    exact = ""
    if args.exact:
        exact, _ = wcol_exact(g, args.r)
    print("graph,r,heuristic_value,exact_value")
    print(f"{args.graph},{args.r},{heuristic},{exact}")
    return 0


def _cmd_qw(args) -> int:
    g = _read_graph(args.graph)
    a = _read_vertex_set(args.set, g, args.seed)
    result = quasi_wide_extract(g, a, args.r, args.m, s_max=args.smax)
    print("graph,r,a,m,smax,separator,scattered,rounds,ok")
    smax = args.smax if args.smax is not None else 10 * args.r
    print(
        f"{args.graph},{args.r},{len(a)},{args.m},{smax},"
        f"{len(result.separator)},{len(result.scattered)},{result.rounds},{int(result.ok)}"
    )
    return 0


def _cmd_closure(args) -> int:
    g = _read_graph(args.graph)
    x = _read_vertex_set(args.set, g, args.seed)
    t = args.t if args.t is not None else default_closure_threshold(g)
    result = r_closure(g, x, args.r, t)
    print("graph,r,x,t,closure,added")
    print(f"{args.graph},{args.r},{len(x)},{t},{len(result.closure)},{len(result.added)}")
    return 0


def _cmd_solve(args) -> int:
    g = _read_graph(args.graph)
    z = set(range(g.n)) if args.z == "all" else _read_vertex_set(args.z, g, args.seed)
    inst = DominationInstance(g, frozenset(z), args.r, args.k)
    if args.method == "exact":
        result = exact_min_dominator(inst, cap=args.cap)
    else:
        result = greedy_dominator(inst)
    valid = is_dominator(inst, result.dominator)
    print(f"size={len(result.dominator)} valid={str(valid).lower()} optimal={str(result.optimal).lower()}")
    return 0


def _cmd_kernelize(args) -> int:
    g = _read_graph(args.graph)
    inst = DominationInstance(g, frozenset(range(g.n)), args.r, args.k)
    result = kernelize(inst, target=args.target, verify=args.verify)
    stats_lines = ["stage,z,x,x_cl,classes,s,r_class,removed"]
    z_size = g.n
    for i, step in enumerate(result.trace, start=1):
        z_size -= 1
        stats_lines.append(
            f"{i},{z_size},{len(step.dominator)},{len(step.closure)},"
            f"{step.class_count},{len(step.separator)},{len(step.exchange_class)},{step.removed}"
        )
    _write_text(args.stats, "\n".join(stats_lines) + "\n")
    if result.stats["verify"] == "skipped":
        print(f"verify: oracle skipped (n={g.n} > cap {VERIFY_CAP})", file=sys.stderr)
    if result.verdict != "kernel":
        print(f"verdict={result.verdict} witness={len(result.witness)}")
        return 0
    _write_text(args.out, dump_edge_list(result.graph))
    _write_text(args.zout, "\n".join(str(v) for v in sorted(result.dominatees)) + "\n")
    print(
        f"verdict=kernel n={result.stats['kernel_n']} m={result.stats['kernel_m']} "
        f"core={result.stats['core']} removed={result.stats['removed']}"
    )
    return 0


def _cmd_gadget(args) -> int:
    g = _read_graph(args.graph)
    z = set(range(g.n)) if args.z == "all" else _read_vertex_set(args.z, g, args.seed)
    _write_text(args.out, dump_edge_list(annotate_to_plain(g, z, args.r)))
    return 0


def _cmd_bench(args) -> int:
    try:
        with open(args.plan) as fh:
            runs = bench_mod.parse_plan(fh.read())
    except OSError as exc:
        raise ParseError(f"cannot read {args.plan}: {exc}") from None
    rows = bench_mod.run_bench(runs)
    print(bench_mod.CSV_HEADER)
    for row in rows:
        print(bench_mod.format_row(row))
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="rdomkernel", description=__doc__)
    parser.add_argument("--seed", type=int, default=0, help="seed for random vertex sets")
    parser.add_argument("--verify", action="store_true", help="oracle-check every core removal")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("gen", help="generate a graph")
    p.add_argument("family", choices=FAMILIES)
    for key in PARAMETERS:
        p.add_argument(f"--{key}", type=int)
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("complexity", help="profile-complexity counters")
    p.add_argument("--graph", required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--set", required=True, help="vertex file or random:<size>[:<seed>]")
    p.add_argument("--metric", choices=("nu", "nuhat", "mu", "muhat", "vc"), required=True)
    p.add_argument("--cap", type=int, default=None, help="distinct-count cap")
    p.add_argument("--vc-cap", type=int, default=8)
    p.set_defaults(func=_cmd_complexity)

    p = sub.add_parser("wcol", help="weak coloring numbers")
    p.add_argument("--graph", required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--exact", action="store_true")
    p.set_defaults(func=_cmd_wcol)

    p = sub.add_parser("qw", help="scattered set behind a small separator")
    p.add_argument("--graph", required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--set", required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--smax", type=int, default=None)
    p.set_defaults(func=_cmd_qw)

    p = sub.add_parser("closure", help="projection-bounded closure")
    p.add_argument("--graph", required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--set", required=True)
    p.add_argument("--t", type=int, default=None)
    p.set_defaults(func=_cmd_closure)

    p = sub.add_parser("solve", help="dominator computation")
    p.add_argument("--graph", required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--k", type=int, default=0)
    p.add_argument("--z", default="all", help="vertex file or 'all'")
    p.add_argument("--method", choices=("exact", "greedy", "bg"), default="bg",
                   help="exact branch and bound or greedy cover; bg is a synonym of greedy")
    p.add_argument("--cap", type=int, default=64)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("kernelize", help="run the full pipeline")
    p.add_argument("--graph", required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--target", type=int, default=None)
    p.add_argument("--out", default="kernel.edges")
    p.add_argument("--zout", default="kernel.z")
    p.add_argument("--stats", default="kernel.stats.csv")
    p.set_defaults(func=_cmd_kernelize)

    p = sub.add_parser("gadget", help="annotated instance back to plain domination")
    p.add_argument("--graph", required=True)
    p.add_argument("--z", required=True, help="vertex file or 'all'")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_gadget)

    p = sub.add_parser("bench", help="run a plan file")
    p.add_argument("--plan", required=True)
    p.set_defaults(func=_cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except (ParseError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except SizeCapError as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
