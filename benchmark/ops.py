"""The benchmark's workloads and the operations they run.

An operation is what a command-line user pays for one request: parse the
edge-list text, make the library call, serialise the result. Each
workload is a fixed list of operations, built from the seed alone.

Why these workloads (figures measured on a 2-core x86-64 container,
CPython 3.11):

* ``planted_shrink``: the only input shape found that the pipeline
  shrinks. Hundreds of full removal steps per graph, so the approximate
  dominator, the 3r-closure and projection classing do most of the work.
* ``sparse_default``: the path users hit by default. At the library's
  default core target nothing is removed, the approximate dominator is
  never called, and the all-pairs scan of ``short_paths_closure`` takes
  most of the time. Two instances are infeasible by a closed-form bound,
  so the rejection route is measured too.
* ``measure``: the standalone measurement machinery (``rdomkernel wcol``
  and ``complexity``), which ``kernelize`` never calls; the bypass
  workload for every change to ``domset`` and ``kernel``.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field

import inputs

# (hubs, r) per planted-hub graph: 4-10 hubs, both radii, about 2.0k
# removals per pass; slots are fixed so that only the random shape varies
# with the seed and a pass costs about the same on every seed.
PLANTED_SLOTS = ((4, 1), (6, 1), (8, 1), (10, 1), (4, 2), (7, 2))
SPARSE_N = 10_000
GRID_SIDE = 100
SPIDER_LEGS = 2500
MEASURE_N = 4096
MEASURE_SET = 256
VC_SET = 24
VC_RADIUS = 4
WCOL_RADII = (2, 4)
COUNTER_RADII = (2, 3)
COUNTERS = ("nu_r", "nu_hat_r", "mu_r", "mu_hat_r")


@dataclass(frozen=True)
class Op:
    name: str
    kind: str  # "kernel", "wcol", "counters" or "vc"
    text: str
    params: dict = field(default_factory=dict)

    @property
    def input_digest(self) -> str:
        key = f"{self.kind}|{sorted(self.params.items())}|{self.text}"
        return hashlib.sha256(key.encode()).hexdigest()


@dataclass
class OpResult:
    graph: object
    value: object
    out: str
    call_s: float

    @property
    def digest(self) -> str:
        return hashlib.sha256(self.out.encode()).hexdigest()


def _kernel_op(name, n_edges, r, k=None, target=None, infeasible=False) -> Op:
    n, edges = n_edges
    return Op(name, "kernel", inputs.edge_text(n, edges), {"r": r, "k": k, "target": target, "infeasible": infeasible})


def planted_shrink(seed: int) -> list[Op]:
    ops = []
    for i, (hubs, r) in enumerate(PLANTED_SLOTS):
        g = inputs.planted_hubs(inputs.rng_for(seed, f"planted{i}"), hubs, r)
        ops.append(_kernel_op(f"planted{i}-h{hubs}-r{r}", g, r, target=0))
    return ops


def sparse_default(seed: int) -> list[Op]:
    graphs = {
        "grid": inputs.grid(GRID_SIDE, GRID_SIDE),
        "tree": inputs.random_tree(inputs.rng_for(seed, "sparse-tree"), SPARSE_N),
        "deg3": inputs.bounded_degree(inputs.rng_for(seed, "sparse-deg3"), SPARSE_N),
    }
    ops = [_kernel_op(f"{name}-r{r}", g, r) for name, g in graphs.items() for r in (1, 2)]
    k_grid = inputs.grid_r1_infeasible_k(GRID_SIDE, GRID_SIDE)
    ops.append(_kernel_op(f"grid-r1-k{k_grid}", graphs["grid"], 1, k=k_grid, infeasible=True))
    k_spider = inputs.spider_r1_infeasible_k(SPIDER_LEGS)
    ops.append(_kernel_op(f"spider-r1-k{k_spider}", inputs.spider(SPIDER_LEGS, 2), 1, k=k_spider, infeasible=True))
    return ops


def measure(seed: int) -> list[Op]:
    side = int(MEASURE_N**0.5)
    graphs = {
        "grid": inputs.grid(side, side),
        "tree": inputs.random_tree(inputs.rng_for(seed, "measure-tree"), MEASURE_N),
        "deg3": inputs.bounded_degree(inputs.rng_for(seed, "measure-deg3"), MEASURE_N),
    }
    ops = []
    for name, (n, edges) in graphs.items():
        text = inputs.edge_text(n, edges)
        rng = inputs.rng_for(seed, f"measure-sets-{name}")
        a = tuple(sorted(rng.sample(range(n), MEASURE_SET)))
        b = tuple(sorted(rng.sample(range(n), VC_SET)))
        ops.append(Op(f"{name}-wcol", "wcol", text, {}))
        ops.append(Op(f"{name}-counters", "counters", text, {"a": a}))
        ops.append(Op(f"{name}-vc", "vc", text, {"b": b}))
    return ops


WORKLOADS = {"planted_shrink": planted_shrink, "sparse_default": sparse_default, "measure": measure}


def _kernel_text(lib, res) -> str:
    lines = [f"verdict={res.verdict}", "removed " + " ".join(str(s.removed) for s in res.trace)]
    if res.graph is None:
        lines.append("witness " + " ".join(map(str, sorted(res.witness))))
        return "\n".join(lines) + "\n"
    lines.append("dominatees " + " ".join(map(str, sorted(res.dominatees))))
    return "\n".join(lines) + "\n" + lib.dump_edge_list(res.graph)


def run_op(rk, lib, op: Op) -> OpResult:
    """Run one operation through ``lib`` (the library's entry points, plain
    or traced); ``call_s`` times the library call alone."""
    g = lib.load_edge_list(op.text)
    t0 = time.perf_counter()
    if op.kind == "kernel":
        p = op.params
        k = g.n if p["k"] is None else p["k"]
        inst = rk.DominationInstance(g, frozenset(range(g.n)), p["r"], k)
        value = lib.kernelize(inst, target=p["target"])
        call_s = time.perf_counter() - t0
        return OpResult(g, value, _kernel_text(lib, value), call_s)
    if op.kind == "wcol":
        order = lib.degeneracy_order(g)
        value = (order, {r: lib.wcol_of_order(g, order, r) for r in WCOL_RADII})
        out = " ".join(f"wcol{r}={w}" for r, w in value[1].items()) + "\n"
        out += " ".join(map(str, order.sequence())) + "\n"
    elif op.kind == "counters":
        a = frozenset(op.params["a"])
        value = {}
        for r in COUNTER_RADII:
            for name in COUNTERS:
                value[name, r] = getattr(lib, name)(g, a, r)
        out = " ".join(f"{name}{r}={v}" for (name, r), v in value.items()) + "\n"
    else:
        b = op.params["b"]
        index = {v: i for i, v in enumerate(b)}
        traces = {frozenset(index[x] for x in rk.projection(g, v, b, VC_RADIUS)) for v in range(g.n) if v not in index}
        family = rk.SetFamily.from_sets(len(b), traces)
        value = (family, lib.vc_dimension(family))
        out = f"family={len(family)} vc={value[1]}\n"
    return OpResult(g, value, out, time.perf_counter() - t0)
