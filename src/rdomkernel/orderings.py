"""Vertex orderings, weak reachability, and weak coloring numbers.

A vertex u is weakly r-reachable from v under a linear order L when some
path of length at most r from v to u has u as its L-least vertex. The
weak r-coloring number of a fixed order is the largest such set over all
vertices; the graph invariant minimizes that over all n! orders, which
is only feasible on tiny graphs. At scale the smallest-last degeneracy
order serves as the upper-bound witness, built from one bucket of ids per
degree.

The sets are found from the low end (Nadara et al., SEA 2018): sweep the
vertices u in rank order, and one search from u, bounded by r and stopped
at the vertices already swept, reaches exactly the unswept x with u in
WReach_r[x]. Each vertex thus costs one bounded search over the vertices
not yet swept. ``wcol_of_order`` keeps one counter per vertex, bumped as
the search marks it, O(n) memory; only ``wreach_all`` holds the sets,
O(sum of |WReach_r|).

The sweep's searches share one list of n visit marks, stamped with the
rank of their source, and a swept vertex is marked n, above every rank, so
no later search enters it: a search builds no distance dict and reaches
only what it counts. ``wcol_exact``, whose placed set grows and shrinks as
it backtracks, searches with :func:`~rdomkernel.graphs.bounded_bfs` and
drops the placed vertices it reaches.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .graphs import Graph, SizeCapError, bounded_bfs, check_radius, check_vertices


def _check_permutation(values, what: str):
    """Raise ValueError unless ``values`` holds each int 0..len-1 once:
    the one rule for an order's ranks and for its sequence. A float or a
    bool equal to such an int is refused too: ranks and vertices index
    lists, which takes an int."""
    if not set(map(type, values)) <= {int} or sorted(values) != list(range(len(values))):
        raise ValueError(f"{what} must be a permutation of 0..n-1")


@dataclass(frozen=True)
class Ordering:
    """A linear order given by ranks: position[v] is the rank of vertex v."""

    position: tuple[int, ...]

    def __post_init__(self):
        _check_permutation(self.position, "position")

    @classmethod
    def from_sequence(cls, seq) -> "Ordering":
        """Build from the order sequence (vertex at rank 0, rank 1, ...)."""
        seq = tuple(seq)
        _check_permutation(seq, "sequence")
        pos = [0] * len(seq)
        for rank, v in enumerate(seq):
            pos[v] = rank
        return cls(tuple(pos))

    def sequence(self) -> tuple[int, ...]:
        seq = [0] * len(self.position)
        for v, rank in enumerate(self.position):
            seq[rank] = v
        return tuple(seq)

    def rank(self, v: int) -> int:
        return self.position[v]

    def __len__(self):
        return len(self.position)


def _check_order(g: Graph, order: Ordering):
    if len(order) != g.n:
        raise ValueError(f"order has {len(order)} vertices, graph has {g.n}")


def wreach(g: Graph, order: Ordering, v: int, r: int) -> set[int]:
    """Exact weak-r-reachability set of v under the given order.

    Depth-bounded search over walks from v, memoized per (vertex, budget)
    on the best walk-minimum seen; a state is re-expanded only when its
    path minimum strictly improves. Exponential in r only.
    """
    check_radius(r)
    _check_order(g, order)
    check_vertices(g, (v,))
    pos = order.position
    found = {v}
    best: dict[tuple[int, int], int] = {(v, r): pos[v]}
    stack = [(v, r, pos[v])]
    adj = g.adj
    while stack:
        x, budget, mn = stack.pop()
        if pos[x] == mn:
            found.add(x)
        if budget == 0:
            continue
        for w in adj[x]:
            nm = mn if mn < pos[w] else pos[w]
            key = (w, budget - 1)
            if best.get(key, -1) >= nm:
                continue
            best[key] = nm
            stack.append((w, budget - 1, nm))
    return found


def _sweep(g: Graph, order: Ordering, r: int):
    """Yield (u, the x with u in WReach_r[x]) for every u in rank order:
    one bounded search per vertex over the vertices not yet swept, listing
    u first, then level by level in the order reached.

    The searches share one list of n marks in place of a distance dict
    each. The search from u stamps what it reaches with u's rank, which
    grows along the sweep, so no earlier search's marks bar it; once
    searched, u is marked n, above every rank, so no later search enters
    it. A swept vertex is thus neither reached nor expanded, which is what
    a search stopped at the swept vertices, followed by a filter of them,
    gives."""
    check_radius(r)
    _check_order(g, order)
    n = g.n
    adj = g.adj
    mark = [-1] * n
    for rank, u in enumerate(order.sequence()):
        mark[u] = rank
        level = reached = [u]
        for _ in range(r):
            nxt = []
            for v in level:
                for w in adj[v]:
                    if mark[w] < rank:
                        mark[w] = rank
                        nxt.append(w)
            if not nxt:
                break
            reached += nxt
            level = nxt
        yield u, reached
        mark[u] = n


def wreach_all(g: Graph, order: Ordering, r: int) -> list[set[int]]:
    """All weak-r-reachability sets at once, from the sweep: O(sum of
    |WReach_r|) memory; :func:`wcol_of_order` needs only their sizes."""
    result: list[set[int]] = [set() for _ in range(g.n)]
    for u, reached in _sweep(g, order, r):
        for x in reached:
            result[x].add(u)
    return result


def wcol_of_order(g: Graph, order: Ordering, r: int) -> int:
    """Largest weak-r-reachability set size under a fixed order.

    The sweep of :func:`wreach_all` with a counter per vertex in place of
    its set, bumped as the search marks the vertex: O(n) memory however
    large the sets grow, and no list of what each search reached. The loop
    is a copy of the sweep's rather than a call to it, because reading the
    sweep through its generator, or through a callback per mark, takes
    about a fifth longer.
    """
    check_radius(r)
    _check_order(g, order)
    n = g.n
    adj = g.adj
    mark = [-1] * n
    count = [0] * n
    for rank, u in enumerate(order.sequence()):
        mark[u] = rank
        count[u] += 1
        level = [u]
        for _ in range(r):
            nxt = []
            for v in level:
                for w in adj[v]:
                    if mark[w] < rank:
                        mark[w] = rank
                        count[w] += 1
                        nxt.append(w)
            if not nxt:
                break
            level = nxt
        mark[u] = n
    return max(count, default=0)


def degeneracy_order(g: Graph) -> Ordering:
    """Smallest-last order: repeatedly delete a minimum-degree vertex
    (lowest id on ties); vertices removed last come first in the order.

    One min-heap of ids per degree, with lazy deletion (Matula & Beck,
    1983): a degree drop pushes the vertex into the bucket one lower and
    leaves its old entry there, stale, as its degree no longer matches.
    Deleting a vertex of degree d leaves none below d - 1, so the scan for
    the next pick restarts there and climbs to the first live entry: the
    least ``(degree, id)`` left, the same pick as a scan over all vertices.
    O((n + m) log n). A bucket is made on first use and dropped when its
    only entry goes stale, so a hub whose degree falls one by one holds
    one bucket at a time; a deleted vertex takes the highest rank still
    free.
    """
    n = g.n
    adj = g.adj
    deg = list(map(len, adj))
    buckets: list[list[int] | None] = [None] * (max(deg, default=0) + 1)
    for v, d in enumerate(deg):
        # ids arrive in ascending order, so each list is already a heap
        bucket = buckets[d]
        if bucket is None:
            buckets[d] = [v]
        else:
            bucket.append(v)
    position = [0] * n
    rank = n - 1
    d = 0
    while rank >= 0:
        bucket = buckets[d]
        if not bucket:
            d += 1
            continue
        v = heapq.heappop(bucket)
        if deg[v] != d:
            continue
        # a deleted vertex reads degree -1, which matches no bucket
        deg[v] = -1
        position[v] = rank
        rank -= 1
        for w in adj[v]:
            dw = deg[w]
            if dw > 0:
                if len(buckets[dw]) == 1:
                    # w's entry, about to go stale, is the bucket's only one
                    buckets[dw] = None
                dw -= 1
                deg[w] = dw
                bucket = buckets[dw]
                if bucket is None:
                    buckets[dw] = [w]
                else:
                    heapq.heappush(bucket, w)
        if d:
            d -= 1
    return Ordering(tuple(position))


def wcol_exact(g: Graph, r: int, cap: int = 9) -> tuple[int, Ordering]:
    """Minimum over all vertex orders of the largest weak-reachability set,
    with a witnessing order.

    Branch and bound over order prefixes; placing u next contributes +1 to
    everything u reaches through the not-yet-placed vertices, and those
    counts only grow, so any prefix whose running maximum meets the best
    known value is dead. Factorial worst case, guarded by ``cap``. The
    witness is the lexicographically first optimal order sequence.
    """
    check_radius(r)
    # every graph exceeds a negative cap, so it is bad input, not a cap hit
    if cap < 0:
        raise ValueError(f"wcol_exact cap must be non-negative, got {cap}")
    if g.n > cap:
        raise SizeCapError(f"wcol_exact limited to n <= {cap}, got n={g.n}")
    n = g.n
    heuristic = wcol_of_order(g, degeneracy_order(g), r)
    placed: set[int] = set()
    counts = [0] * n
    seq: list[int] = []
    witness: list[int] = []
    # Starting one above the heuristic lets the search itself find an order
    # of the heuristic's value; orders are tried in lexicographic order and
    # only strict improvements are kept, so the first order recorded at the
    # final value is the lexicographically first optimal one.
    best = heuristic + 1

    def search(depth: int, cur_max: int):
        nonlocal best, witness
        if depth == n:
            best, witness = cur_max, list(seq)
            return
        for u in range(n):
            if u in placed:
                continue
            # the unplaced x with u in WReach_r[x] once u is placed next
            bumped = [x for x in bounded_bfs(g, u, r, placed) if x not in placed]
            new_max = cur_max
            for x in bumped:
                counts[x] += 1
                if counts[x] > new_max:
                    new_max = counts[x]
            if new_max < best:
                placed.add(u)
                seq.append(u)
                search(depth + 1, new_max)
                seq.pop()
                placed.discard(u)
            for x in bumped:
                counts[x] -= 1

    search(0, 0)
    return best, Ordering.from_sequence(witness)
