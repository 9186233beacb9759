"""rdomkernel benchmark: one workload per invocation.

    python3 benchmark/run.py --workload planted_shrink --seed 1 --seconds 36 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``. The benchmark builds its inputs from ``--seed``, then:

* ``--trace 0`` runs the workload's operations round-robin, untraced, until
  ``--seconds`` have passed and each ran at least twice, and reports the
  end-to-end metrics. ``wall_s`` is the sum of each operation's median
  time; ``setup_s`` is the import time plus the median of several input
  builds. Both are in nominal seconds: scaled by ``REF_NOMINAL_S / ref_s``,
  where ``ref_s`` is the median time of a fixed reference computation (see
  :class:`Reference`) timed before every build and operation. The host's
  speed cancels out; a change to the program still shows in full.
* ``--trace 1`` runs every operation once untraced and once traced, and
  reports the per-layer metrics from the traced run (in plain seconds),
  the unscaled ``raw.wall_s`` and ``raw.setup_s`` with ``ref_s``, the
  output-quality figures and the tracing overhead. Spans are written to
  ``.bench_out/``.

Every output is checked outside the timed section. Each operation's output
digest is printed; a digest that differs between runs of the operation, or
from the digest recorded for the same input by an earlier invocation in
this checkout, is a failure. The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the exit code is 1 when any check failed, 2 when the program
cannot be loaded.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import inputs  # noqa: E402
import ops as ops_mod  # noqa: E402
import spans  # noqa: E402

SETUP_ROUNDS = 5
MIN_ROUNDS = 2

# The reference computation's time on the host the benchmark was written on,
# when that host was idle: nominal seconds are seconds on such a host.
REF_NOMINAL_S = 0.04

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "ok_share": "ratio"}
PER_LAYER = {
    "domset.bg_approx_dominator.calls": "count",
    "domset.bg_approx_dominator.s": "s",
    "domset.approx_ratio": "ratio",
    "domset.greedy_scattered_lower_bound.calls": "count",
    "domset.greedy_scattered_lower_bound.s": "s",
    "sparsity.r_closure.calls": "count",
    "sparsity.r_closure.self_s": "s",
    "sparsity.r_closure.hubs": "count",
    "profiles.projection.calls": "count",
    "profiles.projection.s": "s",
    "profiles.projection_profile.calls": "count",
    "profiles.projection_profile.s": "s",
    "profiles.distance_profile.calls": "count",
    "profiles.distance_profile.s": "s",
    "sparsity.quasi_wide_extract.s": "s",
    "sparsity.quasi_wide_extract.ok_share": "ratio",
    "kernel.find_redundant_vertex.calls": "count",
    "kernel.find_redundant_vertex.self_s": "s",
    "kernel.attempt_success": "ratio",
    "sparsity.short_paths_closure.s": "s",
    "sparsity.short_paths_closure.closed_ratio": "ratio",
    "kernel.build_kernel_from_core.s": "s",
    "kernel.find_core.s": "s",
    "orderings.degeneracy_order.s": "s",
    "orderings.wcol_of_order.s": "s",
    "profiles.counters.s": "s",
    "profiles.vc_dimension.s": "s",
    "graphs.load_edge_list.s": "s",
    "graphs.dump_edge_list.s": "s",
    "graphs.induced_subgraph.s": "s",
    "raw.wall_s": "s",
    "raw.setup_s": "s",
    "ref_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "removed": "count",
    "removals_per_s": "1/s",
    "kernel_ratio": "ratio",
    "reject_share": "ratio",
    "wcol_sum": "count",
    "failed_share": "ratio",
}


class ProgramMissing(RuntimeError):
    pass


def import_program():
    """Import rdomkernel from this checkout's ``src/`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "rdomkernel" / "__init__.py").is_file():
        raise ProgramMissing(f"no rdomkernel package under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    rk = importlib.import_module("rdomkernel")
    if Path(rk.__file__).resolve().parent.parent != src.resolve():
        raise ProgramMissing(f"rdomkernel was imported from {rk.__file__}, not from {src}")
    return rk


def program_digest() -> str:
    """Digest of the program's source: outputs recorded by an earlier
    invocation are only compared when the program is the same."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "rdomkernel").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


class Reference:
    """A fixed computation of the benchmark's own, timed before every input
    build and operation. The host's speed drifts by up to a factor of two
    within an hour; dividing the program's times by this one's cancels that
    drift, while a change to the program cannot move it."""

    SIDE = 48
    STEP = 40  # every STEP-th vertex is a BFS source: about 60 ms in all

    def __init__(self):
        n, edges = inputs.grid(self.SIDE, self.SIDE)
        adj = [[] for _ in range(n)]
        for u, v in edges:
            adj[u].append(v)
            adj[v].append(u)
        self.graph = SimpleNamespace(adj=tuple(map(tuple, adj)))
        self.sources = range(0, n, self.STEP)

    def time(self) -> float:
        gc.disable()  # keep the program's heap out of the reference's time
        try:
            t0 = time.perf_counter()
            for s in self.sources:
                checks.bfs(self.graph, [s], 2 * self.SIDE)
            return time.perf_counter() - t0
        finally:
            gc.enable()


def _ratio(num, den) -> float:
    return num / den if den else 0.0


class Run:
    """One benchmark invocation: its operations, results and failures."""

    def __init__(self, rk, workload: str, seed: int):
        self.rk, self.workload, self.seed = rk, workload, seed
        self.attempted = 0
        self.failed = 0
        self.reference = Reference()
        self.refs = []  # reference times, one before each build and untraced operation

    def build(self):
        """Build and serialise the inputs."""
        self.ops = ops_mod.WORKLOADS[self.workload](self.seed)
        self.first = [None] * len(self.ops)  # checked results, one per op
        self.samples = [[] for _ in self.ops]  # untraced (wall, call) pairs

    def execute(self, i: int, lib, runner=ops_mod.run_op) -> tuple[float, float]:
        op = self.ops[i]
        t0 = time.perf_counter()
        res = runner(self.rk, lib, op)
        wall = time.perf_counter() - t0
        self.attempted += 1
        if self.first[i] is None:
            self.first[i] = res
        elif res.digest != self.first[i].digest:
            self.fail(op.name, [f"output digest {res.digest[:16]} differs from the first run of this op"])
        return wall, res.call_s

    def sample(self, lib, seconds: float, min_rounds: int):
        """Run the operations round-robin, untraced, until ``seconds`` have
        passed and every operation ran at least ``min_rounds`` times."""
        start = time.perf_counter()
        i = 0
        while i < min_rounds * len(self.ops) or time.perf_counter() - start < seconds:
            self.refs.append(self.reference.time())
            self.samples[i % len(self.ops)].append(self.execute(i % len(self.ops), lib))
            i += 1

    def wall_s(self) -> float:
        return sum(statistics.median(w for w, _ in s) for s in self.samples)

    def ref_s(self) -> float:
        return statistics.median(self.refs)

    def fail(self, name: str, problems: list[str]):
        self.failed += 1
        for msg in problems[:5]:
            print(f"FAIL {self.workload}/{name}: {msg}")

    def check(self):
        """Check every operation's output, compare digests with earlier runs
        of the same inputs, and run the small oracle instances."""
        store_path = OUT_DIR / "digests.json"
        store = json.loads(store_path.read_text()) if store_path.is_file() else {}
        program = program_digest()
        for op, res in zip(self.ops, self.first):
            problems = checks.check_op(self.rk, op, res, self.seed)
            key = f"{program}:{op.input_digest}"
            if store.setdefault(key, res.digest) != res.digest:
                problems.append(f"output digest {res.digest[:16]} differs from an earlier run ({store[key][:16]})")
            print(f"op {self.workload}/{op.name} in={op.input_digest[:16]} out={res.digest} {'FAIL' if problems else 'ok'}")
            if problems:
                self.fail(op.name, problems)
        OUT_DIR.mkdir(exist_ok=True)
        tmp = store_path.with_suffix(".tmp")
        tmp.write_text(json.dumps(store, sort_keys=True))
        os.replace(tmp, store_path)
        if self.workload == "planted_shrink":
            for name, problems in checks.oracle_problems(self.rk, self.seed):
                self.attempted += 1
                print(f"oracle {name} {'FAIL' if problems else 'ok'}")
                if problems:
                    self.fail(name, problems)

    def quality(self) -> dict[str, float]:
        kernels = [(op, res.value) for op, res in zip(self.ops, self.first) if op.kind == "kernel"]
        removed = sum(len(v.trace) for _, v in kernels)
        built = [(v.stats["n"], v.stats["kernel_n"]) for _, v in kernels if v.verdict == "kernel"]
        infeasible = [(op, res) for op, res in zip(self.ops, self.first) if op.kind == "kernel" and op.params["infeasible"]]
        rejected = sum(
            res.value.verdict != "kernel"
            and not checks.check_rejection(res.graph, op.params["r"], op.params["k"], res.value.witness)
            for op, res in infeasible
        )
        wcol = sum(sum(res.value[1].values()) for op, res in zip(self.ops, self.first) if op.kind == "wcol")
        call_s = sum(statistics.median(c for _, c in s) for op, s in zip(self.ops, self.samples) if op.kind == "kernel")
        return {
            "removed": removed,
            "removals_per_s": _ratio(removed, call_s),
            "kernel_ratio": _ratio(sum(k for _, k in built), sum(n for n, _ in built)),
            "reject_share": _ratio(rejected, len(infeasible)),
            "wcol_sum": wcol,
            "failed_share": _ratio(self.failed, self.attempted),
        }


def layer_metrics(tracer: spans.Tracer) -> dict[str, float]:
    tot = tracer.totals()
    cnt = tracer.counts

    def get(name, key="s"):
        return tot.get(name, {}).get(key, 0)

    def count(name, key):
        return cnt[name][key]

    out = {}
    for metric in PER_LAYER:
        layer, _, key = metric.rpartition(".")
        if key in ("calls", "s", "self_s"):
            out[metric] = get(layer, key)
    bg, qw, spc, frv = (
        "domset.bg_approx_dominator",
        "sparsity.quasi_wide_extract",
        "sparsity.short_paths_closure",
        "kernel.find_redundant_vertex",
    )
    out["domset.approx_ratio"] = _ratio(count(bg, "x"), count(bg, "witness"))
    out["sparsity.r_closure.hubs"] = count("sparsity.r_closure", "hubs")
    out["sparsity.quasi_wide_extract.ok_share"] = _ratio(count(qw, "ok"), get(qw, "calls"))
    out["sparsity.short_paths_closure.closed_ratio"] = _ratio(count(spc, "closed"), count(spc, "x"))
    out["kernel.attempt_success"] = _ratio(count(frv, "removals"), get(frv, "calls"))
    out["profiles.counters.s"] = sum(get(name) for name in spans.COUNTERS)
    out["trace.wall_s"] = get("bench.op")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(ops_mod.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    t0 = time.perf_counter()
    try:
        rk = import_program()
    except (ProgramMissing, ImportError) as exc:
        print(f"error: cannot load the program: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - t0
    run = Run(rk, args.workload, args.seed)
    builds = []
    for _ in range(SETUP_ROUNDS):
        run.refs.append(run.reference.time())
        t0 = time.perf_counter()
        run.build()
        builds.append(time.perf_counter() - t0)
    setup_s = import_s + statistics.median(builds)

    plain = spans.plain_lib(run.rk)
    if args.trace == 0:
        run.sample(plain, args.seconds, MIN_ROUNDS)
        metrics = {
            "setup_s": setup_s * REF_NOMINAL_S / run.ref_s(),
            "wall_s": run.wall_s() * REF_NOMINAL_S / run.ref_s(),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        run.check()
        metrics["ok_share"] = 1 - _ratio(run.failed, run.attempted)
        units = END_TO_END
    else:
        run.sample(plain, 0, 1)
        tracer = spans.Tracer()
        runner = tracer.wrap("bench.op", ops_mod.run_op)
        with spans.patched(run.rk, tracer) as traced:
            for i in range(len(run.ops)):
                tracer.trace_id = i
                run.execute(i, traced, runner)
        tracer.write(OUT_DIR / f"spans-{args.workload}.bin")
        metrics = layer_metrics(tracer)
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - run.wall_s()
        metrics["raw.wall_s"] = run.wall_s()
        metrics["raw.setup_s"] = setup_s
        metrics["ref_s"] = run.ref_s()
        run.check()
        metrics.update(run.quality())
        units = PER_LAYER

    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if run.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
