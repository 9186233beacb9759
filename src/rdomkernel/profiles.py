"""Distance profiles, projections, complexity counters, and VC-dimension.

The radius-r distance profile of u on a target set A records, for every
a in A within distance r, that exact distance; unreachable targets are
omitted (read: infinity). A projection replaces plain distance by the
length of a shortest A-avoiding path, i.e. a path whose only A-vertex is
its final endpoint. Profiles are canonical sorted (vertex, value) tuples
so they hash in O(size) and compare in O(1) after hashing, which is what
the equivalence-classing stages of the kernel pipeline rely on.

The complexity counters count distinct traces over all vertices. They
search from the targets' side: one radius-r BFS per target fills in every
vertex's trace, so a count costs O(sum of |N_r[a]| over a in A), not n
searches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .graphs import Graph, SizeCapError, bfs_within, bounded_bfs, check_radius, check_vertices


@dataclass(frozen=True)
class Profile:
    """Canonical map a -> distance for the targets within the radius: plain
    distance for a distance profile, A-avoiding distance for a projection
    profile."""

    entries: tuple[tuple[int, int], ...]

    def as_dict(self) -> dict[int, int]:
        return dict(self.entries)


@dataclass(frozen=True)
class SetFamily:
    """A deduplicated family of subsets of the ground set 0..ground_size-1."""

    ground_size: int
    members: tuple[frozenset[int], ...]

    @classmethod
    def from_sets(cls, ground_size: int, sets) -> "SetFamily":
        canon = {frozenset(s) for s in sets}
        for s in canon:
            for x in s:
                if not 0 <= x < ground_size:
                    raise ValueError(f"element {x} outside ground set of size {ground_size}")
        ordered = tuple(sorted(canon, key=lambda s: (len(s), sorted(s))))
        return cls(ground_size, ordered)

    def __len__(self):
        return len(self.members)


def _entries(dist: dict[int, int], targets) -> tuple[tuple[int, int], ...]:
    # Canonical profile key: the reached targets with their distances, by id.
    return tuple(sorted([(v, dist[v]) for v in dist if v in targets]))


def _avoiding_targets(g: Graph, u: int, a) -> frozenset[int]:
    # frozenset() of a frozenset is the same object, so callers that hold
    # their target set frozen pay no copy per call.
    check_vertices(g, (u,))
    targets = frozenset(a)
    if u in targets:
        raise ValueError(f"projection source {u} must lie outside the target set")
    return targets


def distance_profile(g: Graph, u: int, a, r: int) -> Profile:
    return Profile(_entries(bfs_within(g, u, r), frozenset(a)))


def projection(g: Graph, u: int, a, r: int) -> frozenset[int]:
    """Vertices of a reachable from u by an A-avoiding path of length <= r."""
    targets = _avoiding_targets(g, u, a)
    return targets.intersection(bounded_bfs(g, u, r, targets))


def projection_profile(g: Graph, u: int, a, r: int) -> Profile:
    targets = _avoiding_targets(g, u, a)
    return Profile(_entries(bounded_bfs(g, u, r, targets), targets))


def target_traces(g: Graph, a, r: int, distances: bool = False, avoiding: bool = False) -> list[tuple]:
    """Every vertex's trace on A, indexed by vertex.

    A trace is the sorted tuple of the targets within radius r, or with
    ``distances`` the sorted (target, distance) pairs. With ``avoiding``
    only A-avoiding paths count, so for v outside A the trace is its
    projection (profile). Distances are symmetric, so one
    :func:`bounded_bfs` from each target (with A as its stop set, when
    avoiding) fills in every trace: the cost is O(sum of |N_r[a]| over a
    in A) instead of one search from each of the n vertices.
    """
    check_radius(r)
    targets = frozenset(a)
    check_vertices(g, targets)
    stop = targets if avoiding else ()
    traces: list[list] = [[] for _ in range(g.n)]
    for t in sorted(targets):
        if distances:
            for v, d in bounded_bfs(g, t, r, stop).items():
                traces[v].append((t, d))
        else:
            for v in bounded_bfs(g, t, r, stop):
                traces[v].append(t)
    return [tuple(trace) for trace in traces]


def _count_traces(g: Graph, a, r: int, cap: int | None, distances: bool, avoiding: bool) -> int:
    # distinct traces over all vertices, or with ``avoiding`` over the
    # vertices outside A, the only ones with a projection
    targets = frozenset(a)
    traces = target_traces(g, targets, r, distances=distances, avoiding=avoiding)
    distinct = {traces[v] for v in range(g.n) if v not in targets} if avoiding else set(traces)
    if cap is not None and len(distinct) > cap:
        raise SizeCapError(f"distinct-profile count exceeded cap {cap}")
    return len(distinct)


def nu_r(g: Graph, a, r: int, cap: int | None = None) -> int:
    """Number of distinct sets ball(v, r) & A over all vertices v; one
    radius-r BFS per target."""
    return _count_traces(g, a, r, cap, distances=False, avoiding=False)


def nu_hat_r(g: Graph, a, r: int, cap: int | None = None) -> int:
    """Number of distinct radius-r distance profiles on A over all
    vertices; one radius-r BFS per target."""
    return _count_traces(g, a, r, cap, distances=True, avoiding=False)


def mu_r(g: Graph, a, r: int, cap: int | None = None) -> int:
    """Number of distinct radius-r projections on A, over vertices outside
    A; one A-avoiding radius-r BFS per target."""
    return _count_traces(g, a, r, cap, distances=False, avoiding=True)


def mu_hat_r(g: Graph, a, r: int, cap: int | None = None) -> int:
    """Number of distinct radius-r projection profiles on A, outside A;
    one A-avoiding radius-r BFS per target."""
    return _count_traces(g, a, r, cap, distances=True, avoiding=True)


def layered_graph(g: Graph, a, r: int) -> tuple[Graph, frozenset[int]]:
    """Layered expansion on (r+1) copies of V; copy (u, i) has id i*n + u.

    For each edge {u, v} of g and each layer step i in 1..r there is an edge
    {(u, i-1), (v, i)} exactly when u is outside A, so walks across layers
    are the A-avoiding walks of g. Returns the expansion and the target set
    B = A x {0..r}.
    """
    targets = set(a)
    check_vertices(g, targets)
    n = g.n
    edges = []
    for u in range(n):
        if u in targets:
            continue
        for w in g.adj[u]:
            for i in range(1, r + 1):
                edges.append(((i - 1) * n + u, i * n + w))
    b = frozenset(i * n + v for v in targets for i in range(r + 1))
    return Graph((r + 1) * n, edges), b


def decode_projection_via_layers(g: Graph, a, r: int, u: int) -> Profile:
    """Projection profile of u recovered from distance profiles in the
    layered expansion; exists as a cross-check of that encoding."""
    targets = _avoiding_targets(g, u, a)
    h, _ = layered_graph(g, targets, r)
    dist = bfs_within(h, u, r)  # (u, 0) has id u
    n = g.n
    entries = []
    for v in sorted(targets):
        for i in range(1, r + 1):
            if dist.get(i * n + v) == i:
                entries.append((v, i))
                break
    return Profile(tuple(entries))


def _is_shattered(x: frozenset[int], members) -> bool:
    want = 1 << len(x)
    seen: set[frozenset[int]] = set()
    for f in members:
        seen.add(x & f)
        if len(seen) == want:
            return True
    return len(seen) == want


def vc_dimension(family: SetFamily, cap: int = 12) -> int:
    """Largest size of a set shattered by the family, searched by
    increasing size.

    A candidate is only tested when all its proper subsets were shattered
    (shattering is downward closed). Returns the exact dimension when it
    is at most ``cap``; a return of cap + 1 means "at least cap + 1", the
    search stops there. The empty family shatters nothing, not even the
    empty set, and reports -1.
    """
    if not 0 <= cap <= 12:
        raise ValueError(f"vc_dimension search cap must be in 0..12, got {cap}")
    members = family.members
    if not members:
        return -1
    level: list[frozenset[int]] = [frozenset()]
    dim = 0
    while dim <= cap:
        prev = set(level)
        nxt = []
        # each candidate s | {e} with e > max(s) has exactly one parent s
        for s in level:
            for e in range(max(s, default=-1) + 1, family.ground_size):
                cand = s | {e}
                if any(cand - {y} not in prev for y in cand):
                    continue
                if _is_shattered(cand, members):
                    nxt.append(cand)
        if not nxt:
            return dim
        dim += 1
        level = nxt
    return cap + 1


def sauer_shelah_bound(n: int, d: int) -> int:
    """Sum of binomials C(n, i) for i = 0..d; the maximum size of a family
    of VC-dimension d over an n-element ground set. Equals 2**n once d >= n."""
    if n < 0:
        raise ValueError("ground size must be non-negative")
    return sum(math.comb(n, i) for i in range(0, min(d, n) + 1))
