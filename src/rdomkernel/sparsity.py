"""Structural subroutines: scattered-set extraction behind a small
separator, projection-bounded closure, and distance-preserving closure.

Each routine promises a hard postcondition (checkable on any run) while
its output size is heuristic: how large the scattered set gets, or how
many hub vertices the closure absorbs, depends on the instance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .graphs import Graph, _walk_back, bounded_bfs, greedy_scattered
from .profiles import projection


@dataclass(frozen=True)
class QwResult:
    """Separator S plus a subset of the targets that is r-independent once
    S is deleted. ``ok`` records whether the requested size was reached."""

    separator: frozenset[int]
    scattered: frozenset[int]
    rounds: int
    ok: bool


@dataclass(frozen=True)
class ClosureResult:
    """Closure Y of X: outside Y, every radius-r projection onto Y is
    smaller than the threshold. ``added`` lists hub vertices in pick order."""

    closure: frozenset[int]
    threshold: int
    added: tuple[int, ...]


def quasi_wide_extract(g: Graph, a, r: int, m: int, s_max: int | None = None) -> QwResult:
    """Find a separator S (at most s_max vertices) and a subset B of A - S,
    of size at least m, that is r-independent in g - S.

    Greedy loop: build a maximal scattered subset of A - S; while it is too
    small, move the vertex covering most of A - S within radius ceil(r/2)
    of g - S into the separator and retry. On an exhausted separator budget
    the result carries the best (S, B) seen and ok=False.
    """
    targets = set(a)
    for v in targets:
        if not 0 <= v < g.n:
            raise IndexError(f"vertex {v} out of range for n={g.n}")
    if m < 1:
        raise ValueError("target size must be at least 1")
    if s_max is None:
        s_max = 10 * r
    half = (r + 1) // 2
    separator: set[int] = set()
    best_b: list[int] = []
    best_s: set[int] = set()
    rounds = 0
    while True:
        rounds += 1
        live = sorted(targets - separator)
        b = greedy_scattered(g, live, r, separator)
        if len(b) > len(best_b):
            best_b, best_s = b, set(separator)
        if len(b) >= m:
            return QwResult(frozenset(separator), frozenset(b), rounds, True)
        if len(separator) >= s_max or len(live) < m:
            return QwResult(frozenset(best_s), frozenset(best_b), rounds, False)
        score = [0] * g.n
        for v in live:
            for x in bounded_bfs(g, v, half, separator):
                score[x] += 1
        hub = -1
        hub_score = 0
        for x in range(g.n):
            if x in separator:
                continue
            if score[x] > hub_score:
                hub, hub_score = x, score[x]
        if hub < 0:
            return QwResult(frozenset(best_s), frozenset(best_b), rounds, False)
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
    """
    if t < 2:
        raise ValueError("closure threshold must be at least 2")
    y = frozenset(x)
    for v in y:
        if not 0 <= v < g.n:
            raise IndexError(f"vertex {v} out of range for n={g.n}")
    added = []
    while True:
        pick = -1
        pick_size = 0
        for u in range(g.n):
            if u in y:
                continue
            size = len(projection(g, u, y, r))
            if size >= t and size > pick_size:
                pick, pick_size = u, size
        if pick < 0:
            break
        y |= {pick}
        added.append(pick)
    return ClosureResult(y, t, tuple(added))


def short_paths_closure(g: Graph, x, r: int) -> set[int]:
    """Superset of X inside which all pairwise X-distances up to r survive
    induction exactly.

    The result is the union, over all pairs of X at distance at most r, of
    their deterministic shortest path (each step back takes the lowest-id
    neighbor one level closer); induced distances can only shrink to the
    true value, never below it. Each member's r-ball is searched once and
    only its members of X are paired, so the cost is O(sum of |N_r[u]|
    over u in X) plus the walk-backs.
    """
    members = set(x)
    if members:
        lo, hi = min(members), max(members)
        if not (0 <= lo and hi < g.n):
            raise IndexError(f"vertex {lo if lo < 0 else hi} out of range for n={g.n}")
        if r < 0:
            raise ValueError("radius must be non-negative")
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
