"""The kernelization pipeline for distance-r domination.

Two phases. Phase one shrinks the set of vertices whose domination
matters (the core): starting from the dominatees Z (all of V for a plain
instance), a vertex is dropped whenever an exchange argument proves that
any minimum dominator of the rest still covers it. Phase two collapses
the dominator side: vertices outside the core are grouped by their
projection profiles onto it, one representative per group survives, and
a distance-preserving closure turns the survivors into an induced
subgraph with the same annotated domination number.

Every removal decision is justified by a concrete recorded witness
(approximate dominator, its closure, the profile class, separator, and
exchange class) whose defining inequality can be re-checked after the
fact; nothing relies on unverifiable size bounds. One exchange analysis
certifies a batch from every projection class: the classes depend on the
dominator alone, so each one that passes the exchange test loses every
member of its exchange class beyond |buy| + 1. The analysis alone applies
the exchange inequality: it returns one step per removal, certified by
its own |buy| + 2 members, so the trace grows linearly in the removals.
Phase one applies the steps in order before analysing again. X still
dominates every smaller core, and the closure and its classes depend on X
alone, so phase one computes X and its closure once
(:func:`dominate_and_close`, whose dominator takes the scattered lower
bound of the first analysis as its witness) and hands both to every
analysis; a later analysis only re-classes the smaller core and re-runs
the extraction. The bound can reject only while the core is larger than
k (it is a subset of the core), so a later analysis computes it only
then. Given X and its closure, an analysis reads (G, Z, r) alone
(:func:`find_redundant_vertex` analyses ``inst.z``); phase one keeps the
core, the steps and, on rejection, ``state.witness``.

Every search runs from the smaller side of its question. Phase one costs,
once, one radius-r search per dominatee and one per pick (the counter
greedy cover, in O(sum of |N_r[z]|) memory) and one closure-avoiding
radius-3r search per member of the closure, shared by the closure's
starting sizes and the projection classes (a closure that gains hubs also
recounts near each hub and searches once more from the final closure).
Each analysis then costs, per class large enough to pass, the
scattered-set extraction and one radius-r search per separator vertex
(the distance-profile subclasses). The kernel build classes the vertices
outside the core with one core-avoiding radius-r search per core vertex;
when the core is all of V it runs neither these nor the closure's
searches.
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
from .sparsity import (
    ClosureResult,
    default_closure_threshold,
    quasi_wide_extract,
    r_closure,
    short_paths_closure,
)


# Largest instance the enumeration oracle re-checks in verified mode.
VERIFY_CAP = 20


class CoreVerificationError(AssertionError):
    """A verified-mode removal broke the domination-core property."""


@dataclass(frozen=True)
class RemovalStep:
    """Everything needed to re-check one core removal after the fact.
    ``exchange_class`` is the removal's certificate: ``removed``, the
    smallest of them, and the next |buy| + 1 members of its class's
    exchange class, all still in the core when ``removed`` goes."""

    removed: int
    dominator: frozenset[int]
    closure: frozenset[int]
    profile_class: frozenset[int]
    class_count: int
    separator: frozenset[int]
    exchange_class: frozenset[int]
    buy: frozenset[int]


@dataclass
class CoreState:
    """What phase one produces: the core, one step per removal, and, when
    the budget k cannot suffice, the scattered witness that proves it. The
    core is the instance's frozenset z itself until the first removal, and
    a set of its own from then on."""

    z: set[int] | frozenset[int]
    trace: list[RemovalStep] = field(default_factory=list)
    witness: frozenset[int] | None = None
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


def dominate_and_close(
    inst: DominationInstance,
    witness: frozenset[int] | None = None,
) -> tuple[frozenset[int], ClosureResult]:
    """An approximate dominator X of the core ``inst.z`` and its closure at
    triple radius at :func:`default_closure_threshold`. ``witness``, when
    given, is the scattered lower bound of the core, handed to the
    dominator so that it is not computed again; the result is the same
    without it."""
    g, r = inst.g, inst.r
    x = bg_approx_dominator(inst, witness=witness).dominator
    return x, r_closure(g, x, 3 * r, default_closure_threshold(g))


def find_redundant_vertex(
    inst: DominationInstance,
    *,
    closed: tuple[frozenset[int], ClosureResult] | None = None,
) -> tuple[RemovalStep, ...] | None:
    """One exchange analysis of the core ``inst.z``: one step, with its
    justification record, per removal it certifies, in the order they are
    applied, or ``None`` when it certifies none. The caller applies the
    removals.

    Pipeline: take a dominator X of the core and its closure at triple
    radius (``closed``, as :func:`dominate_and_close` returns them;
    computed for ``inst`` when not given), and class the core outside the
    closure by projection profile, from the traces of the
    closure's own search (``ClosureResult.traces``). Each class with at
    least |key| + 2 members, largest first (ties to the class holding the
    smallest vertex), goes through the scattered-behind-a-separator
    extraction, and the largest piece R of its split by distance profile
    on the separator (:func:`separator_profiles`) is certified
    when |R| >= |buy| + 2, where buy (recorded in the step) is the class's
    projection onto the closure plus the separator. With R ascending and
    need = |buy| + 2, a certified class gives steps removing R[0] ...
    R[|R| - need], and step i's exchange class is R[i : i + need]: the
    removed vertex and the next |buy| + 1 members, all still in the core
    when it goes. Any subset of R keeps R's projection class, distance
    profile on the separator and scatteredness, so each window certifies
    its removal alone. The classes depend on X alone, so removals from one
    class leave every other class, and X's domination of the core,
    intact. A given X must dominate ``inst.z``, as the X of any larger core
    does (:func:`find_core` hands every analysis the first one's X).
    """
    g, r = inst.g, inst.r
    x, closure = closed or dominate_and_close(inst)
    x_cl = closure.closure
    outside = [u for u in sorted(inst.z) if u not in x_cl]
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
        need = len(buy) + 2
        profile_class = frozenset(kappa)
        # the exchange inequality: removal i is certified by its own window
        # of need members, all of them still in the core when it goes
        for i in range(len(exchange) - need + 1):
            steps.append(
                RemovalStep(
                    removed=exchange[i],
                    dominator=x,
                    closure=x_cl,
                    profile_class=profile_class,
                    class_count=len(classes),
                    separator=qw.separator,
                    exchange_class=frozenset(exchange[i : i + need]),
                    buy=buy,
                )
            )
    return tuple(steps) or None


def default_core_target(k: int) -> int:
    """Default core-size budget: stop shrinking once |Z| is this small."""
    return 20 * k * math.ceil(math.log2(k + 2))


def _verify_core_after_removal(inst: DominationInstance, z_after: frozenset[int]):
    for d in enumerate_min_dominators(replace(inst, z=z_after), cap=VERIFY_CAP):
        if not is_dominator(inst, d):
            raise CoreVerificationError(
                f"minimum dominator {sorted(d)} of the shrunk core misses part of the dominatees"
            )


def find_core(
    inst: DominationInstance,
    target: int | None = None,
    verify: bool = False,
) -> CoreState:
    """Shrink the dominatee set from ``inst.z`` down toward ``target``
    while it provably stays a domination core of ``inst.z``.

    Phase one runs while the core is larger than ``min(target, k)`` and
    stops in one of four ways: the core is that small (at once, with no
    search, when ``inst.z`` is; the default target is at least k, so every
    default-target call with k >= |Z| ends there), the scattered witness
    proves the budget k too small (state.witness is set), the core has
    reached the target, or an analysis certifies nothing. The first
    analysis is preceded by the scattered lower bound of the core, which
    is also the witness of the dominator X that :func:`dominate_and_close`
    computes and closes, once per call; a later one is preceded by the
    bound only while the core is larger than k, because the bound is a
    subset of the core and rejects only then (a witness of a smaller core
    also certifies the whole instance). Each exchange analysis
    (:func:`find_redundant_vertex`, on the instance whose z is the current
    core, with that one X and closure) gives steps, one per removal, that
    are applied in order while the core is above the target: each removes
    ``step.removed`` and is appended to the trace as it is. This is sound
    because X still dominates every smaller core, the closure and the
    classes do not depend on the core, and each step's exchange class is
    still in the core when its vertex goes; every step of one call shares
    one X and one closure. The core is
    ``inst.z`` itself, not a copy, until the first removal, and a set of
    its own from then on. With ``verify`` every removal is re-checked
    against the enumeration oracle (instances up to :data:`VERIFY_CAP`
    vertices only); state.verify records whether the oracle ran or was
    skipped. A negative target is a ValueError.
    """
    g, k = inst.g, inst.k
    if target is None:
        target = default_core_target(k)
    if target < 0:
        raise ValueError(f"core target must be non-negative, got {target}")
    state = CoreState(inst.z)
    if verify:
        state.verify = "oracle" if g.n <= VERIFY_CAP else "skipped"
    z = inst.z
    closed = None
    while len(z) > min(target, k):
        core = replace(inst, z=frozenset(z))
        if closed is None or len(z) > k:
            witness = greedy_scattered_lower_bound(core)
            if len(witness) > k:
                state.witness = witness
                break
        if len(z) <= target:
            break
        if closed is None:
            closed = dominate_and_close(core, witness)
        steps = find_redundant_vertex(core, closed=closed)
        if steps is None:
            break
        if z is inst.z:
            z = state.z = set(z)
        for step in steps:
            if len(z) <= target:
                break
            z.discard(step.removed)
            state.trace.append(step)
            if state.verify == "oracle":
                _verify_core_after_removal(inst, frozenset(z))
    return state


def build_kernel_from_core(g: Graph, z, r: int) -> KernelResult:
    """Shrink the dominator side: keep the core, one representative per
    projection-profile class outside it (lowest id), and the shortest
    paths that preserve all pairwise distances up to r among the kept
    vertices. The result is an induced subgraph with the same annotated
    domination number, assuming z is a core (the caller's obligation).
    The classes come from one z-avoiding search per member of z
    (:func:`target_traces`). When z is all of V there is nothing to class
    or to close, so neither search runs: the kernel is g itself, its
    dominatees are the frozenset of z (z itself when it is one), and its id
    map's keys and values are the same int objects."""
    zf = frozenset(z)
    reps: dict[tuple, int] = {}
    if len(zf) == g.n:
        kept = closed = zf
    else:
        # for u outside zf its trace is projection_profile(g, u, zf, r).entries
        traces = target_traces(g, zf, r, distances=True, avoiding=True)
        for u in range(g.n):
            if u not in zf:
                reps.setdefault(traces[u], u)
        kept = zf.union(reps.values())
        closed = short_paths_closure(g, kept, r)
    sub, idmap = induced_subgraph(g, closed)
    # an identity kernel shares the input's core rather than rebuilding it
    z_prime = zf if sub is g else frozenset(idmap.to_sub[v] for v in zf)
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
    see :func:`find_core`), then build the kernel from it. A rejected
    instance returns ``state.witness``; stats record every stage size and, as
    ``stats["verify"]``, whether verification was off, ran the oracle, or
    was skipped because the instance exceeds :data:`VERIFY_CAP`."""
    state = find_core(inst, target=target, verify=verify)
    if state.witness is None:
        result = build_kernel_from_core(inst.g, state.z, inst.r)
    else:
        result = KernelResult(
            verdict=f"rejected({inst.k})",
            graph=None,
            dominatees=None,
            idmap=None,
            witness=state.witness,
            stats={"n": inst.g.n, "m": inst.g.m, "core": len(state.z), "witness": len(state.witness)},
        )
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
