"""Exact and approximate computation of (Z, r)-dominators.

A set D r-dominates Z when every vertex of Z lies within distance r of
some vertex of D. The exact solver and the all-optima enumerator are the
trusted oracles the pipeline is verified against; both carry hard size
caps and refuse larger instances rather than approximate silently. The
approximation is the deterministic greedy cover (lowest id on ties), valid
by construction; ``bg_approx_dominator`` is kept as an alias of it. The
cover is the counter form of greedy set cover: it holds each dominatee's
r-ball once and one gain per vertex, so it needs O(sum of |N_r[z]| over z
in Z) time and memory; the oracles keep one coverage bitmask per vertex.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass

from .graphs import Graph, SizeCapError, bounded_bfs, check_vertices, greedy_scattered, multi_source_within


@dataclass(frozen=True)
class DominationInstance:
    """Annotated problem state: dominate z within radius r using at most
    k vertices (k only matters to the rejection logic)."""

    g: Graph
    z: frozenset[int]
    r: int
    k: int = 0

    def __post_init__(self):
        z = frozenset(self.z)
        object.__setattr__(self, "z", z)
        if z:
            lo, hi = min(z), max(z)
            if not (0 <= lo and hi < self.g.n):
                raise ValueError(f"dominatee {lo if lo < 0 else hi} out of range for n={self.g.n}")
        if self.r < 1:
            raise ValueError("domination radius must be at least 1")
        if self.k < 0:
            raise ValueError("budget must be non-negative")


@dataclass(frozen=True)
class DominatorResult:
    dominator: frozenset[int]
    optimal: bool
    lower_bound_witness: frozenset[int] | None = None


def is_dominator(inst: DominationInstance, d) -> bool:
    """True iff every dominatee is within distance r of some vertex of d."""
    chosen = set(d)
    check_vertices(inst.g, chosen)
    if not inst.z:
        return True
    reached = multi_source_within(inst.g, chosen, inst.r)
    return all(v in reached for v in inst.z)


def greedy_scattered_lower_bound(inst: DominationInstance) -> frozenset[int]:
    """Greedy (ascending id) maximal subset of z with pairwise distance
    greater than 2r.

    Any r-ball meets at most one such vertex, so the size is a lower bound
    on every (z, r)-dominator and the set itself is the rejection witness.
    """
    return frozenset(greedy_scattered(inst.g, sorted(inst.z), 2 * inst.r))


def _coverage(inst: DominationInstance):
    # cover[v] = bitmask of z-indices within distance r of v; zs ascending.
    zs = sorted(inst.z)
    cover = [0] * inst.g.n
    for i, zv in enumerate(zs):
        for x in bounded_bfs(inst.g, zv, inst.r):
            cover[x] |= 1 << i
    return zs, cover


def _greedy_cover(inst: DominationInstance) -> list[int]:
    """Greedy set cover of the dominatees by r-balls, lowest id on ties.

    Counter form (Johnson, 1974): each dominatee's r-ball is stored once,
    and ``gain[v]`` counts the uncovered dominatees within distance r of v.
    Picking v covers the dominatees in its own r-ball, and each one covered
    takes one off the gain of every vertex in its ball, so time and memory
    are O(sum of |N_r[z]| over z in Z) plus the picks' searches. Lazy
    greedy (Minoux, 1978) on a heap keyed ``(-gain, id)``: a popped vertex
    is taken only when its current key is still at most the heap's top,
    else the current key goes back. Gains only fall, so every stored key
    bounds its vertex's true key from below and the taken vertex has the
    largest gain, lowest id on ties: the same pick as a scan over all n
    vertices.
    """
    g, r = inst.g, inst.r
    balls = {zv: list(bounded_bfs(g, zv, r)) for zv in sorted(inst.z)}
    gain = [0] * g.n
    for ball in balls.values():
        for x in ball:
            gain[x] += 1
    heap = [(-c, v) for v, c in enumerate(gain) if c]
    heapq.heapify(heap)
    chosen = []
    while balls:
        _, v = heapq.heappop(heap)
        key = (-gain[v], v)
        if heap and key > heap[0]:
            heapq.heappush(heap, key)
            continue
        chosen.append(v)
        # distances are symmetric: the dominatees v covers are in its ball
        for zv in bounded_bfs(g, v, r):
            ball = balls.pop(zv, None)
            if ball is not None:
                for x in ball:
                    gain[x] -= 1
    return chosen


def greedy_dominator(
    inst: DominationInstance,
    *,
    witness: frozenset[int] | None = None,
) -> DominatorResult:
    """Greedy cover: repeatedly take the vertex whose r-ball covers the most
    uncovered dominatees, lowest id on ties. Valid by construction, within
    the harmonic factor of optimal; ``optimal`` is set when the size meets
    the scattered lower bound, which a caller that already holds
    ``greedy_scattered_lower_bound(inst)`` passes as ``witness``; the
    result is the same without it. ``bg_approx_dominator`` is an alias."""
    if witness is None:
        witness = greedy_scattered_lower_bound(inst)
    if not inst.z:
        return DominatorResult(frozenset(), True, witness)
    chosen = _greedy_cover(inst)
    return DominatorResult(frozenset(chosen), len(chosen) == len(witness), witness)


# The name under which the kernel and the package export use the approximate
# dominator.
bg_approx_dominator = greedy_dominator


def exact_min_dominator(inst: DominationInstance, cap: int = 64) -> DominatorResult:
    """A minimum-cardinality (z, r)-dominator by branch and bound.

    Branches on the uncovered dominatee with the fewest potential
    dominators; prunes with the greedy scattered lower bound, a greedy
    upper bound, and a seen-coverage memo. Exponential worst case, guarded
    by ``cap``.
    """
    if inst.g.n > cap:
        raise SizeCapError(f"exact solver limited to n <= {cap}, got n={inst.g.n}")
    witness = greedy_scattered_lower_bound(inst)
    if not inst.z:
        return DominatorResult(frozenset(), True, witness)
    zs, cover = _coverage(inst)
    nz = len(zs)
    full = (1 << nz) - 1
    candidates = [sorted(bounded_bfs(inst.g, zv, inst.r)) for zv in zs]
    conflict = []
    for zv in zs:
        near = bounded_bfs(inst.g, zv, 2 * inst.r)
        conflict.append(sum(1 << j for j, other in enumerate(zs) if other in near))

    best = _greedy_cover(inst)
    memo: dict[int, int] = {}

    def scattered_lb(covered: int) -> int:
        lb = 0
        excl = covered
        for i in range(nz):
            bit = 1 << i
            if excl & bit:
                continue
            lb += 1
            excl |= conflict[i]
        return lb

    def search(chosen: list[int], covered: int):
        nonlocal best
        if covered == full:
            if len(chosen) < len(best):
                best = list(chosen)
            return
        if len(chosen) + scattered_lb(covered) >= len(best):
            return
        prev = memo.get(covered)
        if prev is not None and prev <= len(chosen):
            return
        memo[covered] = len(chosen)
        branch = min(
            (i for i in range(nz) if not covered & (1 << i)),
            key=lambda i: (len(candidates[i]), i),
        )
        for c in sorted(candidates[branch], key=lambda c: (-(cover[c] & ~covered).bit_count(), c)):
            chosen.append(c)
            search(chosen, covered | cover[c])
            chosen.pop()

    search([], 0)
    return DominatorResult(frozenset(best), True, witness)


def enumerate_min_dominators(inst: DominationInstance, cap: int = 20) -> list[frozenset[int]]:
    """All minimum-size (z, r)-dominators, by exhausting subsets of the
    optimal size. Deliberately the dumbest correct enumeration; guarded by
    ``cap`` because of the binomial blow-up."""
    if inst.g.n > cap:
        raise SizeCapError(f"enumeration limited to n <= {cap}, got n={inst.g.n}")
    opt = len(exact_min_dominator(inst, cap=cap).dominator)
    zs, cover = _coverage(inst)
    full = (1 << len(zs)) - 1
    out = []
    for combo in itertools.combinations(range(inst.g.n), opt):
        mask = 0
        for c in combo:
            mask |= cover[c]
        if mask & full == full:
            out.append(frozenset(combo))
    return out
