"""Span recording for the traced benchmark run.

The program is traced from outside: :func:`patched` rebinds, inside this
process only, the names that ``rdomkernel.kernel`` and
``rdomkernel.sparsity`` import from the other modules, so that each call
across a module boundary records one span. No source file of the program
changes. Spans live in flat arrays while the run lasts and are written out
once, by :meth:`Tracer.write`, when the benchmark ends.

A span holds its name, start, end, parent span and the trace id of the
benchmark operation it belongs to. A layer's self time is its duration
minus the time its child spans cover; calls run on one thread, so children
never overlap and that is the sum of their durations.
"""

from __future__ import annotations

import contextlib
import json
import time
from array import array
from collections import defaultdict
from pathlib import Path
from types import SimpleNamespace

# Names that rdomkernel.kernel imports, with the span each call records.
KERNEL_BOUNDARIES = {
    "find_core": "kernel.find_core",
    "find_redundant_vertex": "kernel.find_redundant_vertex",
    "build_kernel_from_core": "kernel.build_kernel_from_core",
    "bg_approx_dominator": "domset.bg_approx_dominator",
    "greedy_scattered_lower_bound": "domset.greedy_scattered_lower_bound",
    "r_closure": "sparsity.r_closure",
    "quasi_wide_extract": "sparsity.quasi_wide_extract",
    "short_paths_closure": "sparsity.short_paths_closure",
    "projection_profile": "profiles.projection_profile",
    "distance_profile": "profiles.distance_profile",
    "induced_subgraph": "graphs.induced_subgraph",
}
# Names that rdomkernel.sparsity imports: projection is called from r_closure.
SPARSITY_BOUNDARIES = {"projection": "profiles.projection"}
# Entry points the benchmark itself calls.
ENTRY_POINTS = {
    "load_edge_list": "graphs.load_edge_list",
    "dump_edge_list": "graphs.dump_edge_list",
    "kernelize": "kernel.kernelize",
    "degeneracy_order": "orderings.degeneracy_order",
    "wcol_of_order": "orderings.wcol_of_order",
    "nu_r": "profiles.nu_r",
    "nu_hat_r": "profiles.nu_hat_r",
    "mu_r": "profiles.mu_r",
    "mu_hat_r": "profiles.mu_hat_r",
    "vc_dimension": "profiles.vc_dimension",
}
COUNTERS = ("profiles.nu_r", "profiles.nu_hat_r", "profiles.mu_r", "profiles.mu_hat_r")


def _count_bg(acc, args, res):
    acc["x"] += len(res.dominator)
    acc["witness"] += len(res.lower_bound_witness or ())


def _count_closure(acc, args, res):
    acc["hubs"] += len(res.added)


def _count_qw(acc, args, res):
    acc["ok"] += int(res.ok)


def _count_short_paths(acc, args, res):
    acc["x"] += len(set(args[1]))
    acc["closed"] += len(res)


def _count_attempt(acc, args, res):
    acc["removals"] += int(res is not None)


# Counts taken at a boundary from the call's arguments and result.
OBSERVERS = {
    "domset.bg_approx_dominator": _count_bg,
    "sparsity.r_closure": _count_closure,
    "sparsity.quasi_wide_extract": _count_qw,
    "sparsity.short_paths_closure": _count_short_paths,
    "kernel.find_redundant_vertex": _count_attempt,
}


class Tracer:
    """In-memory span store: one row per call, columns in flat arrays."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.trace = array("l")
        self.counts: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self.trace_id = 0
        self._stack = [-1]

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        nid = self._name_id(name)
        observe = OBSERVERS.get(name)
        acc = self.counts[name]
        stack, clock = self._stack, time.perf_counter

        def traced(*args, **kwargs):
            i = len(self.name)
            self.name.append(nid)
            self.parent.append(stack[-1])
            self.trace.append(self.trace_id)
            self.start.append(0.0)
            self.end.append(0.0)
            stack.append(i)
            t0 = clock()
            try:
                res = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                self.start[i] = t0
                self.end[i] = t1
            if observe is not None:
                observe(acc, args, res)
            return res

        return traced

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total duration and self duration."""
        n = len(self.name)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        out = {name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in self.names}
        for i in range(n):
            row = out[self.names[self.name[i]]]
            row["calls"] += 1
            row["s"] += dur[i]
            row["self_s"] += dur[i] - child[i]
        return out

    def write(self, path: Path):
        """Write every span: a JSON header, then the five columns as raw
        native arrays in header order."""
        path.parent.mkdir(parents=True, exist_ok=True)
        header = {
            "names": self.names,
            "spans": len(self.name),
            "columns": [["name", "H"], ["start", "d"], ["end", "d"], ["parent", "l"], ["trace", "l"]],
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for col in (self.name, self.start, self.end, self.parent, self.trace):
                col.tofile(fh)


def plain_lib(rk) -> SimpleNamespace:
    """The entry points, called directly."""
    return SimpleNamespace(**{attr: getattr(rk, attr) for attr in ENTRY_POINTS})


@contextlib.contextmanager
def patched(rk, tracer: Tracer):
    """Rebind the module boundaries to traced wrappers for the duration of
    the block and yield the traced entry points; restores them on exit."""
    saved = []
    try:
        for module, table in ((rk.kernel, KERNEL_BOUNDARIES), (rk.sparsity, SPARSITY_BOUNDARIES)):
            for attr, name in table.items():
                fn = getattr(module, attr)
                saved.append((module, attr, fn))
                setattr(module, attr, tracer.wrap(name, fn))
        yield SimpleNamespace(**{attr: tracer.wrap(name, getattr(rk, attr)) for attr, name in ENTRY_POINTS.items()})
    finally:
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)
