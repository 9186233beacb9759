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
fact; nothing relies on unverifiable size bounds. One exchange analysis
certifies a batch from every projection class: the classes depend on the
dominator alone, so each one that passes the exchange test loses every
member of its exchange class beyond |buy| + 1, and phase one removes them
all before analysing again. Each removal still keeps its own recorded
step, and the rejection route is checked once per analysis.

Every search runs from the smaller side of its question. An analysis
costs one radius-r search per dominatee and one per pick (the counter
greedy cover, in O(sum of |N_r[z]|) memory), one closure-avoiding
radius-3r search per member of the closure, shared by the closure's
starting sizes and the projection classes (a closure that gains hubs also
recounts near each hub and searches once more from the final closure),
and, per class large enough to pass, the scattered-set extraction
and one radius-r search per separator vertex (the distance-profile
subclasses). The kernel build classes the vertices outside the core with
one core-avoiding radius-r search per core vertex, and none when the core
is all of V.
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
from .graphs import Graph, SubgraphMap, bounded_bfs, check_vertices, induced_subgraph
# distance_profile and projection_profile define the keys the pipeline
# computes in bulk; they stay importable here, where the benchmark's
# tracer looks up the pipeline's boundaries
from .profiles import distance_profile, projection_profile, target_traces  # noqa: F401
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
    buy: frozenset[int]


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


def separator_profiles(g: Graph, separator, members, r: int) -> dict[int, tuple]:
    """``distance_profile(g, v, separator, r).entries`` for each v of
    ``members``, from one radius-r search per separator vertex."""
    keys: dict[int, list] = {v: [] for v in members}
    for s in sorted(separator):
        for v, d in bounded_bfs(g, s, r).items():
            key = keys.get(v)
            if key is not None:
                key.append((s, d))
    return {v: tuple(key) for v, key in keys.items()}


def find_redundant_vertex(
    state: CoreState,
    *,
    witness: frozenset[int] | None = None,
) -> tuple[RemovalStep, ...] | None:
    """One exchange analysis of the current core: a step, with its
    justification record, for every projection class it certifies, or
    ``None`` when it certifies none. The caller applies the removals.

    Pipeline: approximate a dominator X of the current core, close it at
    triple radius at :func:`default_closure_threshold`, and class the core
    outside the closure by projection profile, from the traces of the
    closure's own search (``ClosureResult.traces``). Each class with at
    least |key| + 2 members, largest first (ties to the class holding the
    smallest vertex), goes through the scattered-behind-a-separator
    extraction, and the largest piece R of its split by distance profile
    on the separator (:func:`separator_profiles`) is certified
    when |R| >= |buy| + 2, where buy (recorded in the step) is the class's
    projection onto the closure plus the separator. A step names the
    smallest member of its R. The classes depend on X alone, so removals
    from one class leave every other class, and X's domination of the
    core, intact. ``witness``, when given, is the scattered lower bound of
    the current core, handed to the dominator so that it is not computed
    again; the result is the same without it.
    """
    inst = state.inst
    g, r = inst.g, inst.r
    z = frozenset(state.z)
    if not z:
        return None
    x = bg_approx_dominator(replace(inst, z=z), witness=witness).dominator
    closure = r_closure(g, x, 3 * r, default_closure_threshold(g))
    x_cl = closure.closure
    outside = [u for u in sorted(z) if u not in x_cl]
    if not outside:
        return None
    # for u outside x_cl its trace is projection_profile(g, u, x_cl, 3r).entries
    traces = closure.traces
    classes: dict[tuple, list[int]] = {}
    for u in outside:
        classes.setdefault(traces[u], []).append(u)
    steps = []
    # members are ascending, so kappa[0] is a class's smallest vertex
    for kappa_key, kappa in sorted(classes.items(), key=lambda item: (-len(item[1]), item[1][0])):
        if len(kappa) < len(kappa_key) + 2:
            continue
        # kappa is non-empty, so the first round already scatters one vertex
        qw = quasi_wide_extract(g, kappa, 2 * r, m=len(kappa))
        keys = separator_profiles(g, qw.separator, qw.scattered, r)
        subclasses: dict[tuple, list[int]] = {}
        for v in sorted(qw.scattered):
            subclasses.setdefault(keys[v], []).append(v)
        # the largest subclass, ties to the smallest first member (they ascend)
        exchange = max(subclasses.values(), key=lambda members: (len(members), -members[0]))
        # every member of kappa projects onto x_cl as the class key says
        buy = frozenset(a for a, _ in kappa_key) | qw.separator
        if len(exchange) < len(buy) + 2:
            continue
        steps.append(
            RemovalStep(
                removed=exchange[0],
                dominator=x,
                closure=x_cl,
                profile_class=frozenset(kappa),
                class_count=len(classes),
                separator=qw.separator,
                exchange_class=frozenset(exchange),
                buy=buy,
            )
        )
    return tuple(steps) or None


def default_core_target(k: int) -> int:
    """Default core-size budget: stop shrinking once |Z| is this small."""
    return 20 * k * math.ceil(math.log2(k + 2))


def _verify_core_after_removal(g: Graph, z_after: frozenset[int], r: int):
    inst = DominationInstance(g, z_after, r)
    whole = DominationInstance(g, frozenset(range(g.n)), r)
    for d in enumerate_min_dominators(inst, cap=VERIFY_CAP):
        if not is_dominator(whole, d):
            raise CoreVerificationError(
                f"minimum dominator {sorted(d)} of the shrunk core misses part of the graph"
            )


def find_core(
    inst: DominationInstance,
    target: int | None = None,
    verify: bool = False,
) -> CoreState:
    """Shrink the dominatee set from V down toward ``target`` while it
    provably stays a domination core.

    Each analysis first checks the rejection route: a scattered witness
    larger than the budget k proves no k-vertex dominator exists and
    short-circuits (state.rejection is set). Otherwise one exchange
    analysis runs (:func:`find_redundant_vertex`), and each step it returns
    certifies a batch, applied in step order: the members of the step's
    exchange class R are removed in ascending id while the rest of R keeps
    at least |buy| + 2 members (``step.buy``) and the core is above the
    target. Each removal appends its own :class:`RemovalStep`, whose
    exchange class is what is left of R. This is sound because X still
    dominates the smaller core, the closure and the classes do not depend
    on the core, and any subset of R keeps R's projection class, its
    distance profile on the separator and its scatteredness. The rejection
    route is checked once per analysis: a scattered witness of a smaller
    core also certifies the whole instance. The loop stops when an
    analysis finds nothing or the target size is reached. With ``verify``
    every removal is re-checked against the enumeration oracle (instances
    up to :data:`VERIFY_CAP` vertices only); state.verify records whether
    the oracle ran or was skipped.
    """
    g, r, k = inst.g, inst.r, inst.k
    if target is None:
        target = default_core_target(k)
    z: set[int] = set(range(g.n))
    state = CoreState(inst, z)
    if verify:
        state.verify = "oracle" if g.n <= VERIFY_CAP else "skipped"
    while True:
        witness = greedy_scattered_lower_bound(replace(inst, z=frozenset(z)))
        if len(witness) > k:
            state.rejection = Rejection(witness)
            return state
        if len(z) <= target:
            return state
        steps = find_redundant_vertex(state, witness=witness)
        if steps is None:
            return state
        for step in steps:
            members = sorted(step.exchange_class)
            # the first pass appends the step itself; each later one the
            # same certificate over what is left of the exchange class
            for i in range(len(members) - len(step.buy) - 1):
                if len(z) <= target:
                    break
                z.discard(members[i])
                state.trace.append(
                    RemovalStep(
                        removed=members[i],
                        dominator=step.dominator,
                        closure=step.closure,
                        profile_class=step.profile_class,
                        class_count=step.class_count,
                        separator=step.separator,
                        exchange_class=frozenset(members[i:]),
                        buy=step.buy,
                    )
                )
                if state.verify == "oracle":
                    _verify_core_after_removal(g, frozenset(z), r)


def build_kernel_from_core(g: Graph, z, r: int) -> KernelResult:
    """Shrink the dominator side: keep the core, one representative per
    projection-profile class outside it (lowest id), and the shortest
    paths that preserve all pairwise distances up to r among the kept
    vertices. The result is an induced subgraph with the same annotated
    domination number, assuming z is a core (the caller's obligation).
    The classes come from one z-avoiding search per member of z
    (:func:`target_traces`); when z is all of V there is nothing to class
    and no search runs."""
    zf = frozenset(z)
    reps: dict[tuple, int] = {}
    if len(zf) < g.n:
        # for u outside zf its trace is projection_profile(g, u, zf, r).entries
        traces = target_traces(g, zf, r, distances=True, avoiding=True)
        for u in range(g.n):
            if u not in zf:
                reps.setdefault(traces[u], u)
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
    verify: bool = False,
) -> KernelResult:
    """End-to-end: find a core (closing at :func:`default_closure_threshold`,
    see :func:`find_core`), then build the kernel from it. Rejections
    propagate with their witness; stats record every stage size and, as
    ``stats["verify"]``, whether verification was off, ran the oracle, or
    was skipped because the instance exceeds :data:`VERIFY_CAP`."""
    state = find_core(inst, target=target, verify=verify)
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
    return replace(
        result,
        stats={**result.stats, "removed": len(state.trace), "verify": state.verify},
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
    if r < 1:
        raise ValueError(f"gadget radius must be at least 1, got {r}")
    zf = frozenset(z)
    check_vertices(g_prime, zf)
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
