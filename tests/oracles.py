"""Brute-force reference implementations for test verification.

Everything here is deliberately naive (matrix shortest paths, exhaustive
path and subset enumeration, full permutation scans) and shares no code
with the algorithm paths it checks.
"""

from __future__ import annotations

import itertools
import random

from rdomkernel.graphs import Graph

INF = float("inf")


def floyd_warshall(g: Graph) -> list[list[float]]:
    n = g.n
    dist = [[INF] * n for _ in range(n)]
    for v in range(n):
        dist[v][v] = 0
    for u, v in g.edges():
        dist[u][v] = dist[v][u] = 1
    for k in range(n):
        dk = dist[k]
        for i in range(n):
            dik = dist[i][k]
            if dik == INF:
                continue
            di = dist[i]
            for j in range(n):
                alt = dik + dk[j]
                if alt < di[j]:
                    di[j] = alt
    return dist


def simple_paths_from(g: Graph, start: int, max_len: int):
    """Yield every simple path from start with at most max_len edges,
    including the trivial path (start,)."""
    path = [start]
    on_path = {start}

    def walk():
        yield tuple(path)
        if len(path) > max_len:
            return
        for w in g.adj[path[-1]]:
            if w in on_path:
                continue
            path.append(w)
            on_path.add(w)
            yield from walk()
            on_path.discard(w)
            path.pop()

    yield from walk()


def brute_wreach(g: Graph, order, v: int, r: int) -> set[int]:
    """Weak reachability by enumerating every simple path of length <= r."""
    pos = order.position
    out = set()
    for path in simple_paths_from(g, v, r):
        end = path[-1]
        if all(pos[end] <= pos[x] for x in path):
            out.add(end)
    return out


def brute_projection_profile(g: Graph, u: int, a, r: int) -> dict[int, int]:
    """Shortest target-avoiding path lengths by enumerating simple paths."""
    targets = set(a)
    assert u not in targets
    best: dict[int, int] = {}
    for path in simple_paths_from(g, u, r):
        end = path[-1]
        if end not in targets:
            continue
        if any(x in targets for x in path[:-1]):
            continue
        length = len(path) - 1
        if length < best.get(end, r + 1):
            best[end] = length
    return best


def brute_short_paths_closure(g: Graph, x, r: int) -> set[int]:
    """The all-pairs definition of the short-paths closure: for every pair
    u < v of X at distance at most r, add the shortest path whose every
    step back from v takes the lowest-id neighbor one level closer to u."""
    dist = floyd_warshall(g)
    xs = sorted(set(x))
    closed = set(xs)
    for i, u in enumerate(xs):
        du = dist[u]
        for v in xs[i + 1 :]:
            if du[v] > r:
                continue
            w = v
            closed.add(w)
            while w != u:
                w = min(y for y in g.adj[w] if du[y] == du[w] - 1)
                closed.add(w)
    return closed


def brute_dominates(g: Graph, d, z, r: int, dist=None) -> bool:
    if dist is None:
        dist = floyd_warshall(g)
    return all(any(dist[zv][c] <= r for c in d) for zv in z)


def brute_min_dominator_size(g: Graph, z, r: int) -> int:
    if not z:
        return 0
    dist = floyd_warshall(g)
    for size in range(1, g.n + 1):
        for combo in itertools.combinations(range(g.n), size):
            if brute_dominates(g, combo, z, r, dist):
                return size
    raise AssertionError("a dominatee dominates itself, so a full cover always exists")


def brute_all_min_dominators(g: Graph, z, r: int) -> list[frozenset[int]]:
    size = brute_min_dominator_size(g, z, r)
    dist = floyd_warshall(g)
    return [
        frozenset(combo)
        for combo in itertools.combinations(range(g.n), size)
        if brute_dominates(g, combo, z, r, dist)
    ]


def brute_vc_dimension(family) -> int:
    """Exact VC-dimension by testing every subset of the ground set."""
    members = family.members
    if not members:
        return -1
    best = -1
    ground = range(family.ground_size)
    for size in range(family.ground_size + 1):
        any_shattered = False
        for combo in itertools.combinations(ground, size):
            x = frozenset(combo)
            if len({x & f for f in members}) == 1 << size:
                any_shattered = True
                break
        if not any_shattered:
            break
        best = size
    return best


def brute_wcol_exact(g: Graph, r: int):
    """Minimum over every permutation, via brute path-enumeration wreach."""
    from rdomkernel.orderings import Ordering

    best = None
    best_seq = None
    for seq in itertools.permutations(range(g.n)):
        order = Ordering.from_sequence(seq)
        worst = max(len(brute_wreach(g, order, v, r)) for v in range(g.n)) if g.n else 0
        if best is None or worst < best:
            best, best_seq = worst, seq
    return best, best_seq


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph(n, edges)


def random_sparse_graph(rng: random.Random, n: int) -> Graph:
    """Connected-ish sparse graph: a random tree plus a few extra edges."""
    edges = [(rng.randrange(i), i) for i in range(1, n)]
    for _ in range(max(0, n // 4)):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.append((min(u, v), max(u, v)))
    return Graph(n, edges)
