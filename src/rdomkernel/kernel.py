"""The kernelization pipeline for distance-r domination.

Two phases. Phase one shrinks the set of vertices whose domination
matters (the core): starting from all of V, a vertex is dropped whenever
an exchange argument proves that any minimum dominator of the rest still
covers it. Phase two collapses the dominator side: vertices outside the
core are grouped by their projection profiles onto it, one representative
per group survives, and a distance-preserving closure turns the survivors
into an induced subgraph with the same annotated domination number.

Every removal decision is justified by a concrete recorded witness
(approximate dominator, its closure, the profile class, separator, and
exchange class) whose defining inequality can be re-checked after the
fact; nothing relies on unverifiable size bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from .domset import (
    DominationInstance,
    bg_approx_dominator,
    enumerate_min_dominators,
    greedy_scattered_lower_bound,
    is_dominator,
)
from .graphs import Graph, SubgraphMap, induced_subgraph
from .profiles import distance_profile, projection_profile
from .sparsity import default_closure_threshold, quasi_wide_extract, r_closure, short_paths_closure


# Largest instance the enumeration oracle re-checks in verified mode.
VERIFY_CAP = 20


class CoreVerificationError(AssertionError):
    """A verified-mode removal broke the domination-core property."""


@dataclass(frozen=True)
class RemovalStep:
    """Everything needed to re-check one core removal after the fact."""

    removed: int
    dominator: frozenset[int]
    closure: frozenset[int]
    profile_class: frozenset[int]
    class_count: int
    separator: frozenset[int]
    exchange_class: frozenset[int]


@dataclass(frozen=True)
class Rejection:
    """A scattered witness proving the budget k cannot suffice."""

    witness: frozenset[int]


@dataclass
class CoreState:
    """Problem state threaded through the core-shrinking loop."""

    inst: DominationInstance
    z: set[int]
    trace: list[RemovalStep] = field(default_factory=list)
    rejection: Rejection | None = None
    verify: str = "off"  # "off", "oracle", or "skipped" (n above the cap)


@dataclass(frozen=True)
class KernelResult:
    verdict: str  # "kernel" or "rejected(<k>)"
    graph: Graph | None
    dominatees: frozenset[int] | None
    idmap: SubgraphMap | None
    witness: frozenset[int] | None
    stats: dict
    trace: tuple[RemovalStep, ...] = ()


def _largest_class(groups: dict) -> tuple[tuple, list[int]]:
    # (key, members) of the largest class; ties go to the class holding the
    # smallest vertex.
    return max(groups.items(), key=lambda item: (len(item[1]), -min(item[1])))


def find_redundant_vertex(state: CoreState, threshold: int | None = None) -> RemovalStep | None:
    """Locate one dominatee whose removal keeps the core property, with its
    justification record; the caller applies the removal.

    Pipeline: approximate a dominator X of the current core, close it at
    triple radius, split the core outside the closure by projection
    profile, extract a scattered-behind-a-separator subset of the largest
    class, split that by distance profile on the separator, and test the
    exchange inequality |R| >= |projection of z onto closure, plus
    separator| + 2 on the largest piece. Absence means nothing removable
    at current sizes, not an error.
    """
    inst = state.inst
    g, r = inst.g, inst.r
    z = frozenset(state.z)
    if not z:
        return None
    x = bg_approx_dominator(replace(inst, z=z)).dominator
    t = threshold if threshold is not None else default_closure_threshold(g)
    x_cl = r_closure(g, x, 3 * r, t).closure
    outside = [u for u in sorted(z) if u not in x_cl]
    if not outside:
        return None
    classes: dict[tuple, list[int]] = {}
    for u in outside:
        classes.setdefault(projection_profile(g, u, x_cl, 3 * r).entries, []).append(u)
    kappa_key, kappa = _largest_class(classes)
    qw = quasi_wide_extract(g, kappa, 2 * r, m=len(kappa))
    if not qw.scattered:
        return None
    subclasses: dict[tuple, list[int]] = {}
    for v in sorted(qw.scattered):
        subclasses.setdefault(distance_profile(g, v, qw.separator, r).entries, []).append(v)
    _, exchange = _largest_class(subclasses)
    zv = min(exchange)
    # zv lies in kappa, so its projection onto x_cl is the class key's targets
    buy = {a for a, _ in kappa_key} | qw.separator
    if len(exchange) < len(buy) + 2:
        return None
    return RemovalStep(
        removed=zv,
        dominator=x,
        closure=x_cl,
        profile_class=frozenset(kappa),
        class_count=len(classes),
        separator=qw.separator,
        exchange_class=frozenset(exchange),
    )


def default_core_target(k: int) -> int:
    """Default core-size budget: stop shrinking once |Z| is this small."""
    return 20 * k * math.ceil(math.log2(k + 2))


def _verify_core_after_removal(g: Graph, z_after: frozenset[int], r: int, cap: int):
    inst = DominationInstance(g, z_after, r)
    whole = DominationInstance(g, frozenset(range(g.n)), r)
    for d in enumerate_min_dominators(inst, cap=cap):
        if not is_dominator(whole, d):
            raise CoreVerificationError(
                f"minimum dominator {sorted(d)} of the shrunk core misses part of the graph"
            )


def find_core(
    inst: DominationInstance,
    target: int | None = None,
    threshold: int | None = None,
    verify: bool = False,
    verify_cap: int = VERIFY_CAP,
) -> CoreState:
    """Shrink the dominatee set from V down toward ``target`` while it
    provably stays a domination core.

    Each loop first checks the rejection route: a scattered witness larger
    than the budget k proves no k-vertex dominator exists and short-circuits
    (state.rejection is set). Otherwise one removal is attempted; the loop
    stops when none is found or the target size is reached. With ``verify``
    every removal is re-checked against the enumeration oracle (instances
    up to verify_cap vertices only); state.verify records whether the
    oracle ran or was skipped.
    """
    g, r, k = inst.g, inst.r, inst.k
    if target is None:
        target = default_core_target(k)
    z: set[int] = set(range(g.n))
    state = CoreState(inst, z)
    if verify:
        state.verify = "oracle" if g.n <= verify_cap else "skipped"
    while True:
        witness = greedy_scattered_lower_bound(replace(inst, z=frozenset(z)))
        if len(witness) > k:
            state.rejection = Rejection(witness)
            return state
        if len(z) <= target:
            return state
        step = find_redundant_vertex(state, threshold)
        if step is None:
            return state
        z.discard(step.removed)
        state.trace.append(step)
        if state.verify == "oracle":
            _verify_core_after_removal(g, frozenset(z), r, verify_cap)


def build_kernel_from_core(g: Graph, z, r: int) -> KernelResult:
    """Shrink the dominator side: keep the core, one representative per
    projection-profile class outside it (lowest id), and the shortest
    paths that preserve all pairwise distances up to r among the kept
    vertices. The result is an induced subgraph with the same annotated
    domination number, assuming z is a core (the caller's obligation)."""
    zf = frozenset(z)
    reps: dict[tuple, int] = {}
    for u in range(g.n):
        if u in zf:
            continue
        key = projection_profile(g, u, zf, r).entries
        if key not in reps:
            reps[key] = u
    kept = set(zf) | set(reps.values())
    closed = short_paths_closure(g, kept, r)
    sub, idmap = induced_subgraph(g, closed)
    z_prime = frozenset(idmap.to_sub[v] for v in zf)
    stats = {
        "n": g.n,
        "m": g.m,
        "core": len(zf),
        "classes": len(reps),
        "kept": len(kept),
        "closed": len(closed),
        "kernel_n": sub.n,
        "kernel_m": sub.m,
    }
    return KernelResult(
        verdict="kernel",
        graph=sub,
        dominatees=z_prime,
        idmap=idmap,
        witness=None,
        stats=stats,
    )


def kernelize(
    inst: DominationInstance,
    target: int | None = None,
    threshold: int | None = None,
    verify: bool = False,
    verify_cap: int = VERIFY_CAP,
) -> KernelResult:
    """End-to-end: find a core, then build the kernel from it. Rejections
    propagate with their witness; stats record every stage size and, as
    ``stats["verify"]``, whether verification was off, ran the oracle, or
    was skipped because the instance exceeds ``verify_cap``."""
    state = find_core(inst, target=target, threshold=threshold, verify=verify, verify_cap=verify_cap)
    if state.rejection is not None:
        stats = {
            "n": inst.g.n,
            "m": inst.g.m,
            "core": len(state.z),
            "removed": len(state.trace),
            "witness": len(state.rejection.witness),
            "verify": state.verify,
        }
        return KernelResult(
            verdict=f"rejected({inst.k})",
            graph=None,
            dominatees=None,
            idmap=None,
            witness=state.rejection.witness,
            stats=stats,
            trace=tuple(state.trace),
        )
    result = build_kernel_from_core(inst.g, state.z, inst.r)
    stats = dict(result.stats)
    stats["removed"] = len(state.trace)
    stats["verify"] = state.verify
    return KernelResult(
        verdict="kernel",
        graph=result.graph,
        dominatees=result.dominatees,
        idmap=result.idmap,
        witness=None,
        stats=stats,
        trace=tuple(state.trace),
    )


def annotate_to_plain(g_prime: Graph, z, r: int) -> Graph:
    """Reduce the annotated instance back to plain domination.

    Adds two fresh vertices w and w' joined by a path of length r, and a
    length-r path from w to every vertex outside z. The new graph needs a
    dominating set of size k+1 exactly when g_prime has k vertices
    r-dominating z. Fresh ids follow the originals: w = n, then the w-w'
    interior chain, then w' = n + r, then each outside chain in ascending
    order of its anchor.
    """
    zf = frozenset(z)
    for v in zf:
        if not 0 <= v < g_prime.n:
            raise IndexError(f"vertex {v} out of range for n={g_prime.n}")
    n = g_prime.n
    edges = list(g_prime.edges())
    w = n
    w_prime = n + r
    chain = [w] + list(range(n + 1, n + r)) + [w_prime]
    edges.extend(zip(chain, chain[1:]))
    nxt = n + r + 1
    for u in sorted(set(range(n)) - zf):
        link = [w] + list(range(nxt, nxt + r - 1)) + [u]
        nxt += r - 1
        edges.extend(zip(link, link[1:]))
    return Graph(nxt, edges)
