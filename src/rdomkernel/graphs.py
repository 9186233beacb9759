"""Immutable undirected graphs and bounded-radius queries.

Vertices are contiguous ints 0..n-1; adjacency lists are stored sorted, so
every traversal that walks neighbors in list order is deterministic and
repeated runs reproduce results bit for bit. Unreachable distances are the
symbolic ``INF`` (a float, so it can never collide with a real hop count).
"""

from __future__ import annotations

from dataclasses import dataclass

INF = float("inf")

# Largest vertex count a graph may be built with from outside input; far
# above the n of about 10**5 the library targets, and checked before any
# per-vertex allocation so an oversized header fails fast.
MAX_VERTICES = 1 << 24


class ParseError(ValueError):
    """Malformed text input; carries the offending 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


class SizeCapError(RuntimeError):
    """An exact routine was asked to exceed its configured instance-size cap,
    or an input declared more than :data:`MAX_VERTICES` vertices."""


class Graph:
    """Undirected simple graph: no self-loops, no parallel edges.

    Immutable after construction; all queries are read-only and safe to
    share across workers.
    """

    __slots__ = ("n", "m", "adj")

    def __init__(self, n: int, edges=()):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        lists: list[list[int]] = [[] for _ in range(n)]
        seen: set[tuple[int, int]] = set()
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            key = (u, v) if u < v else (v, u)
            if key in seen:
                continue
            seen.add(key)
            lists[u].append(v)
            lists[v].append(u)
        self.n = n
        self.m = len(seen)
        self.adj = tuple(tuple(sorted(nb)) for nb in lists)

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def edges(self):
        """Yield edges as (u, v) with u < v, ascending."""
        for u in range(self.n):
            for w in self.adj[u]:
                if u < w:
                    yield (u, w)

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adj[u]

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.adj == other.adj

    def __hash__(self):
        return hash((self.n, self.adj))

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"


def load_edge_list(source) -> Graph:
    """Parse the shared text format: edge lines ``u v``, ``#`` comments,
    optional header ``p <n>`` declaring the vertex count.

    Without a header n is one past the largest id seen. Duplicate edges
    collapse; self-loops and malformed lines raise :class:`ParseError`
    with the line number, and an n above :data:`MAX_VERTICES` raises
    :class:`SizeCapError` before the graph is allocated.
    """
    if isinstance(source, bytes):
        lines = source.decode("utf-8").splitlines()
    elif isinstance(source, str):
        lines = source.splitlines()
    else:
        lines = [ln.decode("utf-8") if isinstance(ln, bytes) else str(ln) for ln in source]

    declared: int | None = None
    edges: list[tuple[int, int]] = []
    max_id = -1
    for idx, raw in enumerate(lines, start=1):
        text = raw.split("#", 1)[0].strip()
        if not text:
            continue
        parts = text.split()
        if parts[0] == "p":
            if declared is not None:
                raise ParseError("duplicate 'p' header", idx)
            if len(parts) != 2:
                raise ParseError("header must be 'p <n>'", idx)
            try:
                declared = int(parts[1])
            except ValueError:
                raise ParseError(f"non-integer vertex count {parts[1]!r}", idx) from None
            if declared < 0:
                raise ParseError("vertex count must be non-negative", idx)
            continue
        if len(parts) != 2:
            raise ParseError(f"expected 'u v', got {text!r}", idx)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"non-integer vertex id in {text!r}", idx) from None
        if u < 0 or v < 0:
            raise ParseError("negative vertex id", idx)
        if u == v:
            raise ParseError(f"self-loop at vertex {u}", idx)
        edges.append((u, v))
        max_id = max(max_id, u, v)

    n = declared if declared is not None else max_id + 1
    if max_id >= n:
        raise ParseError(f"vertex id {max_id} outside declared range p {n}")
    if n > MAX_VERTICES:
        raise SizeCapError(f"{n} vertices exceed the cap of {MAX_VERTICES}")
    return Graph(n, edges)


def dump_edge_list(g: Graph) -> str:
    """Serialize a graph; inverse of :func:`load_edge_list`, byte-stable."""
    out = [f"p {g.n}"]
    out.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(out) + "\n"


def bounded_bfs(g: Graph, source: int, r: int, stop=()) -> dict[int, int]:
    """Distances from ``source`` up to radius ``r`` over paths whose interior
    avoids ``stop``.

    Vertices of ``stop`` get a distance when reached but are never expanded;
    ``source`` must lie outside ``stop``. Vertices not reached are absent.
    No argument checks: this is the shared loop behind every single-source
    radius query, and the public callers validate their own inputs.
    """
    adj = g.adj
    dist = {source: 0}
    frontier = [source]
    d = 0
    while frontier and d < r:
        d += 1
        nxt = []
        for u in frontier:
            if u in stop:
                continue
            for w in adj[u]:
                if w not in dist:
                    dist[w] = d
                    nxt.append(w)
        frontier = nxt
    return dist


def bfs_within(g: Graph, source: int, r: int) -> dict[int, int]:
    """Exact distances from ``source`` up to radius ``r``.

    Vertices farther than r are absent from the map (their distance is INF).
    """
    if not 0 <= source < g.n:
        raise IndexError(f"source {source} out of range for n={g.n}")
    if r < 0:
        raise ValueError("radius must be non-negative")
    return bounded_bfs(g, source, r)


def multi_source_within(g: Graph, sources, r: int) -> dict[int, int]:
    """Distances up to r from the nearest of several sources."""
    if r < 0:
        raise ValueError("radius must be non-negative")
    adj = g.adj
    dist: dict[int, int] = {}
    frontier = []
    for s in sorted(set(sources)):
        if not 0 <= s < g.n:
            raise IndexError(f"source {s} out of range for n={g.n}")
        dist[s] = 0
        frontier.append(s)
    d = 0
    while frontier and d < r:
        d += 1
        nxt = []
        for u in frontier:
            for w in adj[u]:
                if w not in dist:
                    dist[w] = d
                    nxt.append(w)
        frontier = nxt
    return dist


def ball(g: Graph, v: int, r: int) -> set[int]:
    """Closed ball: vertices at distance at most r from v, including v."""
    return set(bfs_within(g, v, r))


def _walk_back(g: Graph, dist: dict[int, int], source: int, target: int) -> list[int]:
    # Reconstructs the unique path picking the lowest-id predecessor each hop;
    # adjacency is sorted, so min() over qualifying neighbors is that rule.
    path = [target]
    w = target
    while w != source:
        dw = dist[w]
        w = min(x for x in g.adj[w] if dist.get(x) == dw - 1)
        path.append(w)
    path.reverse()
    return path


def shortest_path(g: Graph, u: int, v: int, r: int) -> list[int] | None:
    """A shortest u-v path of length at most r, or None when out of radius.

    Deterministic tie-break: each step back from v takes the lowest-id
    neighbor one level closer to u.
    """
    if not 0 <= v < g.n:
        raise IndexError(f"vertex {v} out of range for n={g.n}")
    dist = bfs_within(g, u, r)
    if v not in dist:
        return None
    return _walk_back(g, dist, u, v)


@dataclass(frozen=True)
class SubgraphMap:
    """Bidirectional id map for an induced subgraph."""

    to_orig: tuple[int, ...]
    to_sub: dict[int, int]


def induced_subgraph(g: Graph, s) -> tuple[Graph, SubgraphMap]:
    """Subgraph induced by s, with ids remapped to 0..|s|-1 in ascending
    order of the original ids."""
    to_orig = tuple(sorted(set(s)))
    if to_orig and not (0 <= to_orig[0] and to_orig[-1] < g.n):
        bad = to_orig[0] if to_orig[0] < 0 else to_orig[-1]
        raise IndexError(f"vertex {bad} out of range for n={g.n}")
    to_sub = {old: new for new, old in enumerate(to_orig)}
    edges = []
    for new_u, old_u in enumerate(to_orig):
        for old_w in g.adj[old_u]:
            if old_w > old_u and old_w in to_sub:
                edges.append((new_u, to_sub[old_w]))
    return Graph(len(to_orig), edges), SubgraphMap(to_orig, to_sub)


def is_r_independent(g: Graph, s, r: int) -> bool:
    """True iff all distinct pairs of s lie at distance greater than r."""
    members = set(s)
    for v in sorted(members):
        if any(u > v and u in members for u in bfs_within(g, v, r)):
            return False
    return True


def greedy_scattered(g: Graph, candidates, r: int, stop=()) -> list[int]:
    """Greedy maximal subset of ``candidates``, taken in the given order,
    whose picks are pairwise farther than r over paths with interior
    outside ``stop``; no candidate may lie in ``stop``.

    Picking v excludes everything :func:`bounded_bfs` reaches from it.
    """
    excluded: set[int] = set()
    chosen = []
    for v in candidates:
        if v in excluded:
            continue
        chosen.append(v)
        excluded.update(bounded_bfs(g, v, r, stop))
    return chosen
