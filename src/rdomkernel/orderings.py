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


def _reached_above(g: Graph, u: int, r: int, swept) -> list[int]:
    """The vertices outside ``swept`` within distance r of u over paths whose
    interior avoids ``swept``: with ``swept`` the vertices ranked below u,
    exactly the x that have u in WReach_r[x]."""
    return [x for x in bounded_bfs(g, u, r, swept) if x not in swept]


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


def wreach_all(g: Graph, order: Ordering, r: int) -> list[set[int]]:
    """All weak-r-reachability sets at once.

    Sweeps the vertices u in rank order; each costs one bounded search
    over the vertices not yet swept, which adds u to the set of every
    vertex it reaches. Holds all the sets, O(sum of |WReach_r|) memory;
    :func:`wcol_of_order` needs only their sizes.
    """
    check_radius(r)
    _check_order(g, order)
    result: list[set[int]] = [set() for _ in range(g.n)]
    swept: set[int] = set()
    for u in order.sequence():
        for x in _reached_above(g, u, r, swept):
            result[x].add(u)
        swept.add(u)
    return result


def wcol_of_order(g: Graph, order: Ordering, r: int) -> int:
    """Largest weak-r-reachability set size under a fixed order.

    The sweep of :func:`wreach_all`, one bounded search per vertex over the
    vertices not yet swept, with a counter per vertex in place of its set:
    O(n) memory however large the sets grow.
    """
    check_radius(r)
    _check_order(g, order)
    count = [0] * g.n
    swept: set[int] = set()
    for u in order.sequence():
        for x in _reached_above(g, u, r, swept):
            count[x] += 1
        swept.add(u)
    return max(count, default=0)


def degeneracy_order(g: Graph) -> Ordering:
    """Smallest-last order: repeatedly delete a minimum-degree vertex
    (lowest id on ties); vertices removed last come first in the order.

    A heap of ``(degree, id)`` entries with lazy deletion (Matula & Beck,
    1983): each degree drop pushes a fresh entry and leaves the old one in
    place. Degrees only fall, so a vertex's current entry sorts before its
    stale ones and pops first; the stale ones pop after the vertex is gone
    and are skipped. Every pop of a live vertex is thus the least
    ``(degree, id)`` among the remaining vertices, the same pick as a scan
    over all of them. O((n + m) log n).
    """
    n = g.n
    deg = [g.degree(v) for v in range(n)]
    heap = [(d, v) for v, d in enumerate(deg)]
    heapq.heapify(heap)
    removed = [False] * n
    removal = []
    while heap:
        _, v = heapq.heappop(heap)
        if removed[v]:
            continue
        removed[v] = True
        removal.append(v)
        for w in g.adj[v]:
            if not removed[w]:
                deg[w] -= 1
                heapq.heappush(heap, (deg[w], w))
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
    if g.n > cap:
        raise SizeCapError(f"wcol_exact limited to n <= {cap}, got n={g.n}")
    n = g.n
    if n == 0:
        return 0, Ordering(())
    heuristic = wcol_of_order(g, degeneracy_order(g), r)
    if heuristic == 1:
        # one is the floor (every vertex reaches itself), so any order wins
        return 1, Ordering.from_sequence(range(n))
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
            bumped = _reached_above(g, u, r, placed)
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
