"""Brute-force reference implementations for test verification.

Everything here is deliberately naive (matrix shortest paths, exhaustive
path and subset enumeration, full permutation scans) and shares no code
with the algorithm paths it checks.
"""

from __future__ import annotations

import itertools
import random

from rdomkernel.generators import grid_graph, spider_graph, star_graph
from rdomkernel.graphs import Graph
from rdomkernel.kernel import CoreState, find_redundant_vertex

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


def set_adjacency(n: int, edges) -> tuple[tuple[int, ...], ...]:
    """Adjacency of ``Graph(n, edges)`` by the plain recipe: one neighbour
    set per vertex, filled edge by edge, raising at the first bad edge."""
    if n < 0:
        raise ValueError("vertex count must be non-negative")
    neighbours = [set() for _ in range(n)]
    for u, v in edges:
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
        neighbours[u].add(v)
        neighbours[v].add(u)
    return tuple(tuple(sorted(nb)) for nb in neighbours)


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


def brute_counters(g: Graph, a, r: int) -> dict[str, int]:
    """nu, nu_hat, mu and mu_hat by their definitions, one vertex at a time:
    plain distances from the distance matrix, A-avoiding ones from path
    enumeration."""
    dist = floyd_warshall(g)
    targets = sorted(set(a))
    balls, dist_profiles, projections, proj_profiles = set(), set(), set(), set()
    for v in range(g.n):
        near = tuple((t, int(dist[v][t])) for t in targets if dist[v][t] <= r)
        balls.add(frozenset(t for t, _ in near))
        dist_profiles.add(near)
        if v in targets:
            continue
        prof = brute_projection_profile(g, v, targets, r)
        projections.add(frozenset(prof))
        proj_profiles.add(frozenset(prof.items()))
    return {
        "nu": len(balls),
        "nu_hat": len(dist_profiles),
        "mu": len(projections),
        "mu_hat": len(proj_profiles),
    }


def brute_r_closure(g: Graph, x, r: int, t: int) -> tuple[frozenset[int], tuple[int, ...]]:
    """The r-closure by its definition: each round recomputes every outside
    vertex's projection by path enumeration and adds the one with the
    largest (at least t), lowest id on ties. Returns (closure, added)."""
    y = set(x)
    added = []
    while True:
        sizes = {u: len(brute_projection_profile(g, u, y, r)) for u in range(g.n) if u not in y}
        best = max(sizes.values(), default=0)
        if best < t:
            return frozenset(y), tuple(added)
        pick = min(u for u, size in sizes.items() if size == best)
        y.add(pick)
        added.append(pick)


def brute_quasi_wide_extract(g: Graph, a, r: int, m: int, s_max: int | None = None):
    """The separator loop of ``quasi_wide_extract`` on the distance matrix
    of g - S, recomputed every round: the scattered set is taken greedily
    in ascending id, and the next hub is found by scanning every vertex
    outside S for the most members of A - S within ceil(r/2), lowest id on
    ties. Returns (separator, scattered, rounds, ok)."""
    if s_max is None:
        s_max = 10 * r
    half = (r + 1) // 2
    sep: set[int] = set()
    best_b, best_s = [], set()
    rounds = 0
    while True:
        rounds += 1
        dist = floyd_warshall(Graph(g.n, [(u, v) for u, v in g.edges() if u not in sep and v not in sep]))
        live = sorted(set(a) - sep)
        b = []
        for v in live:
            if all(dist[v][w] > r for w in b):
                b.append(v)
        if len(b) > len(best_b):
            best_b, best_s = b, set(sep)
        if len(b) >= m:
            return frozenset(sep), frozenset(b), rounds, True
        if len(sep) >= s_max or len(live) < m:
            return frozenset(best_s), frozenset(best_b), rounds, False
        score = [-1 if x in sep else sum(dist[v][x] <= half for v in live) for x in range(g.n)]
        sep.add(score.index(max(score)))


def linked_stars(centers, leaves):
    """Stars on the centers 0..centers-1, each center joined by a 2-edge
    path to one last vertex. That vertex reaches every center by an
    avoiding path, so the 3r-closure of a dominator grows past it."""
    n = centers * (leaves + 2) + 1
    edges = [(c, centers + c * leaves + i) for c in range(centers) for i in range(leaves)]
    links = range(centers * (leaves + 1), n - 1)
    edges += [(c, a) for c, a in zip(range(centers), links)] + [(a, n - 1) for a in links]
    return Graph(n, edges)


def fan_and_star(path_len, leaves):
    """A fan, vertex 0 joined to every vertex of the path 1..path_len,
    beside a star on the center path_len + 1. At r=1 the path is the
    largest projection class, but its vertices stay close in g minus any
    small separator, so it fails the exchange test; the star's leaves, a
    smaller class, pass it."""
    center = path_len + 1
    edges = [(0, i) for i in range(1, center)] + [(i, i + 1) for i in range(1, path_len)]
    edges += [(center, center + j) for j in range(1, leaves + 1)]
    return Graph(center + leaves + 1, edges)


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


def brute_greedy_cover(g: Graph, z, r: int) -> frozenset[int]:
    """Greedy set cover of z by closed r-balls read off the distance
    matrix: each pick covers the most still-uncovered dominatees, lowest
    id on ties."""
    dist = floyd_warshall(g)
    uncovered = set(z)
    chosen = set()
    while uncovered:
        pick = max(range(g.n), key=lambda v: (sum(dist[v][x] <= r for x in uncovered), -v))
        chosen.add(pick)
        uncovered = {x for x in uncovered if dist[pick][x] > r}
    return frozenset(chosen)


def brute_degeneracy_order(g: Graph) -> tuple[int, ...]:
    """Smallest-last order sequence by its definition: repeatedly delete a
    vertex of least degree among those left, degrees recounted from
    scratch, lowest id on ties; the last deleted comes first."""
    alive = set(range(g.n))
    removal = []
    while alive:
        v = min(alive, key=lambda u: (sum(w in alive for w in g.adj[u]), u))
        alive.discard(v)
        removal.append(v)
    return tuple(reversed(removal))


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


def one_removal_per_analysis_core(inst, target: int = 0) -> frozenset[int]:
    """Final core of the unbatched shrinking loop: each exchange analysis
    removes only the vertex its first step names, then the analysis runs
    again. The one exception to this module's rule: it runs the library's
    ``find_redundant_vertex``, because what it is the reference for is
    ``find_core``'s batching, not the analysis. It skips the rejection
    route, so give it a budget no scattered witness exceeds (k = n)."""
    z = set(range(inst.g.n))
    state = CoreState(inst, z)
    while len(z) > target:
        steps = find_redundant_vertex(state)
        if steps is None:
            break
        z.discard(steps[0].removed)
    return frozenset(z)


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


def relabelled(rng: random.Random, g: Graph) -> Graph:
    """g with its vertex ids shuffled, so that id tie-breaks land anywhere."""
    perm = list(range(g.n))
    rng.shuffle(perm)
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def tie_heavy_graphs(rng: random.Random, count: int, max_n: int, max_side: int):
    """Seeded, relabelled graphs with many equal degrees and equal ball
    sizes, cycling through random sparse graphs (n <= max_n), grids (sides
    <= max_side), stars and spiders."""
    for i in range(count):
        kind = i % 4
        if kind == 0:
            base = random_sparse_graph(rng, rng.randint(1, max_n))
        elif kind == 1:
            base = grid_graph(rng.randint(1, max_side), rng.randint(1, max_side))
        elif kind == 2:
            base = star_graph(rng.randint(0, max_n - 1))
        else:
            legs = rng.randint(0, 6)
            base = spider_graph(legs, rng.randint(1, max(1, (max_n - 1) // max(legs, 1))))
        yield relabelled(rng, base)
