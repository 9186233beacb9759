"""Structural subroutines: scattered-set extraction behind a small
separator, projection-bounded closure, and distance-preserving closure.

Each routine promises a hard postcondition (checkable on any run) while
its output size is heuristic: how large the scattered set gets, or how
many hub vertices the closure absorbs, depends on the instance.
"""

from __future__ import annotations

import heapq
import math
from collections import defaultdict
from dataclasses import dataclass, field

from .graphs import Graph, _walk_back, bounded_bfs, check_radius, check_vertices, greedy_scattered
# projection is not called here; it stays importable because the
# benchmark's tracer wraps the name in this module
from .profiles import projection, target_traces  # noqa: F401


@dataclass(frozen=True)
class QwResult:
    """Separator S plus a subset of the targets that is r-independent once
    S is deleted. ``ok`` records whether the requested size was reached."""

    separator: frozenset[int]
    scattered: frozenset[int]
    rounds: int
    ok: bool


def default_separator_budget(r: int) -> int:
    """Separator budget of :func:`quasi_wide_extract` when none is given."""
    return 10 * r


@dataclass(frozen=True)
class ClosureResult:
    """Closure Y of X: outside Y, every radius-r projection onto Y is
    smaller than the threshold. ``added`` lists hub vertices in pick order.
    ``traces`` is ``target_traces(g, Y, r, distances=True, avoiding=True)``:
    for u outside Y, ``traces[u]`` is ``projection_profile(g, u, Y,
    r).entries``."""

    closure: frozenset[int]
    added: tuple[int, ...]
    traces: list[tuple] = field(compare=False, repr=False)


def quasi_wide_extract(g: Graph, a, r: int, m: int, s_max: int | None = None) -> QwResult:
    """Find a separator S (at most s_max vertices) and a subset B of A - S,
    of size at least m, that is r-independent in g - S.

    Greedy loop: build a maximal scattered subset of A - S; while it is too
    small, move the vertex covering most of A - S within radius ceil(r/2)
    of g - S (lowest id on ties; only vertices that near A - S are scored)
    into the separator and retry. On an exhausted separator budget the
    result carries the best (S, B) seen and ok=False. Each round but the
    last adds one vertex to S, so ``rounds`` is the final |S| + 1.
    """
    targets = set(a)
    check_vertices(g, targets)
    check_radius(r)
    if m < 1:
        raise ValueError("target size must be at least 1")
    if s_max is None:
        s_max = default_separator_budget(r)
    if s_max < 0:
        raise ValueError(f"separator budget must be non-negative, got {s_max}")
    half = (r + 1) // 2
    separator: set[int] = set()
    best_b: list[int] = []
    best_s: set[int] = set()
    while True:
        live = sorted(targets - separator)
        b = greedy_scattered(g, live, r, separator)
        if len(b) > len(best_b):
            best_b, best_s = b, set(separator)
        if len(b) >= m:
            return QwResult(frozenset(separator), frozenset(b), len(separator) + 1, True)
        if len(separator) >= s_max or len(live) < m:
            return QwResult(frozenset(best_s), frozenset(best_b), len(separator) + 1, False)
        # scores over the vertices reached only; every live vertex reaches
        # itself, so a hub exists
        score: dict[int, int] = {}
        for v in live:
            for x in bounded_bfs(g, v, half, separator):
                score[x] = score.get(x, 0) + 1
        hub = min((x for x in score if x not in separator), key=lambda x: (-score[x], x))
        separator.add(hub)


def default_closure_threshold(g: Graph) -> int:
    """Projection threshold tied to the measured edge density."""
    density = math.ceil(g.m / g.n) if g.n else 0
    return max(4, 4 * density + 2)


def r_closure(g: Graph, x, r: int, t: int) -> ClosureResult:
    """Grow X into Y until every outside vertex projects onto Y with fewer
    than t targets.

    While some u outside Y has a radius-r projection of size at least t,
    the u with the largest projection (lowest id on ties) becomes a hub
    and joins Y. Terminates because Y only grows; worst case Y = V.

    The starting sizes come from one Y-avoiding BFS per member of X
    (:func:`target_traces`, with distances). A hub h can change only the
    projections of the vertices that reach h by a Y-avoiding path of
    length at most r, and it adds at most itself to each: so after each
    pick the vertices of ``bounded_bfs(g, h, r, Y)`` get one added to
    their stored size and are marked stale, and every stored size stays
    an upper bound on the exact one. A heap of (-size, id) entries, the
    outdated ones skipped, yields the next pick: a stale entry popped is
    recounted with one search and pushed back, and only an exact entry
    becomes a hub, so the picks are those of recounting every reached
    vertex after each hub (Minoux's lazy greedy). A +1 pushes nothing: the
    raised vertex waits in a bucket of its stored size, and a bucket is
    pushed only once its size reaches t and the heap's best size, before
    any entry it could precede is popped. So a vertex raised by several
    hubs in a row is pushed once, and the recounts and picks are those of
    pushing on every +1. The starting traces are
    the final closure's when no hub joins; otherwise the final closure's
    traces take one more search.
    """
    if t < 2:
        raise ValueError("closure threshold must be at least 2")
    y = frozenset(x)
    traces = target_traces(g, y, r, distances=True, avoiding=True)
    sizes = [len(trace) for trace in traces]
    heap = [(-size, u) for u, size in enumerate(sizes) if size >= t and u not in y]
    if not heap:
        return ClosureResult(y, (), traces)
    # the first pick is never stale, so a hub joins: the final closure's
    # traces are searched again below. Y grows in place from here on.
    del traces
    y = set(y)
    heapq.heapify(heap)
    added = []
    stale = [False] * g.n
    # raised[s]: the stale vertices whose stored size s is above the key of
    # their heap entry; top bounds the largest such s from above
    raised: defaultdict[int, set[int]] = defaultdict(set)
    top = 0
    while True:
        # an entry is outdated once its vertex joins Y or changes size
        while heap and (heap[0][1] in y or sizes[heap[0][1]] != -heap[0][0]):
            heapq.heappop(heap)
        while top >= t and not raised.get(top):
            top -= 1
        if top >= t and (not heap or top >= -heap[0][0]):
            for w in raised.pop(top):
                heapq.heappush(heap, (-top, w))
            continue
        if not heap:
            break
        _, u = heapq.heappop(heap)
        if stale[u]:
            # u's projection onto Y, as projection(g, u, Y, r) counts it
            stale[u] = False
            sizes[u] = size = len(y.intersection(bounded_bfs(g, u, r, y)))
            if size >= t:
                heapq.heappush(heap, (-size, u))
            continue
        y.add(u)
        added.append(u)
        for w in bounded_bfs(g, u, r, y):
            if w not in y:
                if stale[w]:
                    raised[sizes[w]].discard(w)
                stale[w] = True
                sizes[w] += 1
                raised[sizes[w]].add(w)
                top = max(top, sizes[w])
    closure = frozenset(y)
    return ClosureResult(closure, tuple(added), target_traces(g, closure, r, distances=True, avoiding=True))


def short_paths_closure(g: Graph, x, r: int) -> set[int]:
    """Superset of X inside which all pairwise X-distances up to r survive
    induction exactly.

    The result is the union, over all pairs of X at distance at most r, of
    their deterministic shortest path (each step back takes the lowest-id
    neighbor one level closer); induced distances can only shrink to the
    true value, never below it. Each member's r-ball is searched once and
    only its members of X are paired, so the cost is O(sum of |N_r[u]|
    over u in X) plus the walk-backs. When X is all of V nothing can be
    added, and no ball is searched.
    """
    members = set(x)
    check_vertices(g, members)
    check_radius(r)
    if len(members) == g.n:
        return members
    closed = set(members)
    for u in members:
        dist = bounded_bfs(g, u, r)
        # every walk-back from u stays inside u's ball
        if closed.issuperset(dist):
            continue
        for v in dist:
            if v > u and v in members:
                closed.update(_walk_back(g, dist, u, v))
    return closed
