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
searches. The searches of one sweep share a list of n visit marks and
append a trace entry when they first reach a vertex, so they build no
dict. The kernel's classing and the r-closure use the same sweep.
Repeated single projections onto one target set switch to it once their
own searches have cost about as much (see :func:`projection`); a
projection profile or a distance profile is one search per call.
"""

from __future__ import annotations

import math
import weakref
from collections import defaultdict
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
        if ground_size < 0:
            raise ValueError(f"ground size must be non-negative, got {ground_size}")
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


def _check_source(g: Graph, u: int, targets: frozenset[int]) -> None:
    check_vertices(g, (u,))
    if u in targets:
        raise ValueError(f"projection source {u} must lie outside the target set")


class _Memo:
    # the last graph and (A, r) asked for a projection: a weak reference to
    # the graph, the key, the calls made with it and the vertices their
    # searches from sources reached, the limit of the last sweep tried, and
    # the projections once a sweep finished. Copies and pickles of a graph
    # are other objects, so they never share it.
    __slots__ = ("graph", "key", "calls", "reached", "limit", "projections")

    def __init__(self, g: Graph, key: tuple[frozenset[int], int], reached: int):
        self.graph = weakref.ref(g, _forget)
        self.key = key
        self.calls = 1
        self.reached = reached
        self.limit = 0
        self.projections: dict[int, frozenset[int]] | None = None


_memo: _Memo | None = None
_EMPTY: frozenset[int] = frozenset()


def _forget(ref) -> None:
    # the graph is gone: drop its projections now, not at the next new key
    global _memo
    memo = _memo
    if memo is not None and memo.graph is ref:
        _memo = None


class _Meter:
    # the stop set of a limited sweep: _sweep asks it about each vertex
    # just before it would scan the vertex's row, so it charges the row
    # then, and once the budget is spent it stops at every vertex
    __slots__ = ("targets", "adj", "left")

    def __init__(self, targets: frozenset[int], adj, left: int):
        self.targets, self.adj, self.left = targets, adj, left

    def __contains__(self, v: int) -> bool:
        if self.left < 0 or v in self.targets:
            return True
        self.left -= len(self.adj[v])
        return self.left < 0


def _limited_sweep(g: Graph, targets: frozenset[int], r: int, limit: int) -> dict[int, frozenset[int]] | None:
    # the projection of every vertex some target reaches, or None once the
    # sweep would scan more than ``limit`` adjacency entries; each search
    # scans its own target's row unasked
    adj = g.adj
    if r > 0:
        limit -= sum([len(adj[t]) for t in targets])
    if limit < 0:
        return None
    meter = _Meter(targets, adj, limit)
    found: defaultdict[int, list] = defaultdict(list)
    _sweep(g, targets, r, found, False, meter)
    if meter.left < 0:
        return None
    return {v: frozenset(trace) for v, trace in found.items()}


def distance_profile(g: Graph, u: int, a, r: int) -> Profile:
    targets = frozenset(a)
    check_vertices(g, targets)
    return Profile(_entries(bfs_within(g, u, r), targets))


def projection(g: Graph, u: int, a, r: int) -> frozenset[int]:
    """Vertices of A reachable from u by an A-avoiding path of length <= r.

    One call is one A-avoiding search from u, and so are the first |A| - 1
    calls onto one graph and (A, r). From the key's |A|-th call on,
    whenever its searches have reached twice as many vertices as the limit
    of the last try, a call also tries the target-side sweep of
    :func:`target_traces`, limited to scan no more adjacency entries than
    those searches reached vertices. A sweep that finishes stores every
    reached vertex's projection in a one-entry memo, and the calls after
    it return the stored set. A search scans an entry for each vertex it
    reaches but its source, and the limits at least double, so all tries
    cost at most about twice the searches, and asking every vertex costs
    O(sum of |N_r[t]| over t in A) rather than n searches. Each try also
    allocates the sweep's list of n visit marks. A call with
    another graph or key replaces the memo; only a key whose targets and
    radius passed the checks is stored, so a warm key raises exactly what
    a cold one would. Raises IndexError for a source or target outside g,
    ValueError for a negative radius or a source in A.
    """
    global _memo
    # frozenset() of a frozenset is the same object, so callers that hold
    # their target set frozen pay no copy per call
    targets = frozenset(a)
    key = (targets, r)
    memo = _memo
    if memo is None or memo.graph() is not g or memo.key != key:
        check_vertices(g, targets)
        check_radius(r)
        _check_source(g, u, targets)
        dist = bounded_bfs(g, u, r, targets)
        _memo = _Memo(g, key, len(dist))
        return targets.intersection(dist)
    _check_source(g, u, targets)
    found = memo.projections
    if found is not None:
        return found.get(u, _EMPTY)
    dist = bounded_bfs(g, u, r, targets)
    memo.calls += 1
    memo.reached += len(dist)
    if memo.calls >= len(targets) and memo.reached >= 2 * memo.limit:
        memo.limit = memo.reached
        memo.projections = _limited_sweep(g, targets, r, memo.limit)
    return targets.intersection(dist)


def projection_profile(g: Graph, u: int, a, r: int) -> Profile:
    """The sorted (target, A-avoiding distance) pairs of u's projection,
    from one A-avoiding search from u; it neither reads nor fills the
    memo of :func:`projection`."""
    targets = frozenset(a)
    check_vertices(g, targets)
    check_radius(r)
    _check_source(g, u, targets)
    return Profile(_entries(bounded_bfs(g, u, r, targets), targets))


def _sweep(g: Graph, targets, r: int, traces, distances: bool, stop) -> None:
    # one search from each target t appends t, or with ``distances`` (t, d),
    # to traces[w] when it first reaches w. Targets run in ascending order
    # and stamp what they reach with their id, so a mark below t is one an
    # earlier search left. As in bounded_bfs, a ``stop`` vertex other than
    # t is reached but not expanded, and ``stop`` is asked about each
    # vertex just before its row is scanned.
    adj = g.adj
    mark = [-1] * g.n
    for t in sorted(targets):
        mark[t] = t
        traces[t].append((t, 0) if distances else t)
        if r < 1:
            continue
        entry = (t, 1) if distances else t
        frontier = adj[t]
        for w in frontier:
            mark[w] = t
            traces[w].append(entry)
        for d in range(2, r + 1):
            entry = (t, d) if distances else t
            nxt = []
            for u in frontier:
                if u in stop:
                    continue
                for w in adj[u]:
                    if mark[w] < t:
                        mark[w] = t
                        traces[w].append(entry)
                        nxt.append(w)
            if not nxt:
                break
            frontier = nxt


def target_traces(g: Graph, a, r: int, distances: bool = False, avoiding: bool = False) -> list[tuple]:
    """Every vertex's trace on A, indexed by vertex.

    A trace is the sorted tuple of the targets within radius r, or with
    ``distances`` the sorted (target, distance) pairs. With ``avoiding``
    only A-avoiding paths count, so for v outside A the trace is its
    projection (profile). Distances are symmetric, so one search from
    each target (with A as its stop set, when avoiding) fills in every
    trace: the cost is O(sum of |N_r[a]| over a in A) plus one list of n
    visit marks, instead of one search from each of the n vertices.

    The searches run in ascending target order and share the marks, each
    stamping the vertices it reaches with its target's id, and a search
    appends its entry to a vertex's trace when it first reaches it: no
    dict per search and no second walk over what it reached. The kernel
    calls this avoiding, at radius r and 3r, with A a large share of V,
    so most searches reach a handful of vertices. The weak-coloring
    sweep keeps its own loop (:func:`~rdomkernel.orderings._sweep`), whose
    searches are barred from the vertices already swept.
    """
    check_radius(r)
    targets = frozenset(a)
    check_vertices(g, targets)
    traces: list[list] = [[] for _ in range(g.n)]
    _sweep(g, targets, r, traces, distances, targets if avoiding else ())
    return [tuple(trace) for trace in traces]


def _count_traces(g: Graph, a, r: int, cap: int | None, distances: bool, avoiding: bool) -> int:
    # distinct traces over all vertices, or with ``avoiding`` over the
    # vertices outside A, the only ones with a projection. Every count
    # exceeds a negative cap, so such a cap is bad input, not a cap hit.
    if cap is not None and cap < 0:
        raise ValueError(f"distinct-profile cap must be non-negative, got {cap}")
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
    check_radius(r)
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
    check_radius(r)
    targets = frozenset(a)
    _check_source(g, u, targets)
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


def vc_dimension(family: SetFamily, cap: int = 12) -> int:
    """Largest size of a set shattered by the family, searched by
    increasing size.

    A candidate is only tested when all its proper subsets were shattered
    (shattering is downward closed). Returns the exact dimension when it
    is at most ``cap``; a return of cap + 1 means "at least cap + 1", the
    search stops there. The empty family shatters nothing, not even the
    empty set, and reports -1. Sets are int bitmasks here: a candidate of
    size d + 1 is shattered when its intersections with the members take
    2**(d + 1) distinct values.
    """
    if not 0 <= cap <= 12:
        raise ValueError(f"vc_dimension search cap must be in 0..12, got {cap}")
    if not family.members:
        return -1
    masks = [sum([1 << x for x in f]) for f in family.members]
    ground = family.ground_size
    level = [0]
    dim = 0
    while dim <= cap:
        prev = set(level)
        nxt = []
        want = 2 << dim
        # each candidate s | 1 << e with e >= s.bit_length() has exactly one
        # parent s; its other one-smaller subsets drop one bit of s
        for s in level:
            bits = [1 << x for x in range(s.bit_length()) if s >> x & 1]
            for e in range(s.bit_length(), ground):
                cand = s | 1 << e
                if any(cand ^ bit not in prev for bit in bits):
                    continue
                seen = set()
                for f in masks:
                    seen.add(cand & f)
                    if len(seen) == want:
                        nxt.append(cand)
                        break
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
