"""Vertex orderings, weak reachability, and weak coloring numbers.

A vertex u is weakly r-reachable from v under a linear order L when some
path of length at most r from v to u has u as its L-least vertex. The
weak r-coloring number of a fixed order is the largest such set over all
vertices; the graph invariant minimizes that over all n! orders, which
is only feasible on tiny graphs. At scale the smallest-last degeneracy
order serves as the upper-bound witness.

The sets are found from the low end (Nadara et al., SEA 2018): sweep the
vertices u in rank order, and one search from u, bounded by r and stopped
at the vertices already swept, reaches exactly the unswept x with u in
WReach_r[x]. Each vertex thus costs one bounded search over the vertices
not yet swept. ``wcol_of_order`` keeps one counter per vertex, O(n)
memory; only ``wreach_all`` holds the sets, O(sum of |WReach_r|).

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


@dataclass(frozen=True)
class Ordering:
    """A linear order given by ranks: position[v] is the rank of vertex v."""

    position: tuple[int, ...]

    def __post_init__(self):
        n = len(self.position)
        if sorted(self.position) != list(range(n)):
            raise ValueError("position must be a permutation of 0..n-1")

    @classmethod
    def from_sequence(cls, seq) -> "Ordering":
        """Build from the order sequence (vertex at rank 0, rank 1, ...)."""
        seq = list(seq)
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
    its set: O(n) memory however large the sets grow.
    """
    count = [0] * g.n
    for _, reached in _sweep(g, order, r):
        for x in reached:
            count[x] += 1
    return max(count, default=0)


def degeneracy_order(g: Graph) -> Ordering:
    """Smallest-last order: repeatedly delete a minimum-degree vertex
    (lowest id on ties); vertices removed last come first in the order.

    A heap keyed by ``(degree, id)``, with lazy deletion (Matula & Beck,
    1983): each degree drop pushes a fresh entry and leaves the old one in
    place. Degrees only fall, so a vertex's current entry sorts before its
    stale ones and pops first; the stale ones pop after the vertex is gone
    and are skipped. Every pop of a live vertex is thus the least
    ``(degree, id)`` among the remaining vertices, the same pick as a scan
    over all of them. O((n + m) log n). An entry is the int
    ``degree * n + id``, which orders as the pair does because 0 <= id < n,
    so the heap compares ints rather than tuples.
    """
    n = g.n
    adj = g.adj
    deg = list(map(len, adj))
    heap = [d * n + v for v, d in enumerate(deg)]
    heapq.heapify(heap)
    removed = [False] * n
    removal = []
    while heap:
        v = heapq.heappop(heap) % n
        if removed[v]:
            continue
        removed[v] = True
        removal.append(v)
        for w in adj[v]:
            if not removed[w]:
                deg[w] -= 1
                heapq.heappush(heap, deg[w] * n + w)
    return Ordering.from_sequence(reversed(removal))


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
