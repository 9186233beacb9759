"""Immutable undirected graphs, their edge-list text, and bounded-radius
queries.

Vertices are contiguous ints 0..n-1; adjacency lists are stored sorted, so
every traversal that walks neighbors in list order is deterministic and
repeated runs reproduce results bit for bit. Unreachable distances are the
symbolic ``INF`` (a float, so it can never collide with a real hop count).

Edge-list text is read on one of two paths. Canonical text, the form
:func:`dump_edge_list` writes, is checked against compiled patterns and its
ids are decoded in one C-level pass by ``json``. Any other text, and every malformed one, goes through
the line loop, which costs a few string operations and two ``int`` calls
per line. The line loop stays because it is the only path for
comments, blank lines, tabs, CRLF and a header placed elsewhere, the only
place a parse error is raised, and the reference the canonical path is
tested against. Both paths, and ``Graph(n, edges)``, build adjacency with
one builder.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from itertools import chain, islice, repeat
from operator import eq, lt

INF = float("inf")

# Largest vertex count a graph may be built with from outside input; far
# above the n of about 10**5 the library targets, and checked before any
# per-vertex allocation so an oversized header fails fast.
MAX_VERTICES = 1 << 24

# Largest edge list a generator may build, checked from its parameters
# before any edge exists; 4 * MAX_VERTICES, so every bounded-degree family
# that fits the vertex cap also fits this one.
MAX_EDGES = 1 << 26

# An id of canonical text: ASCII decimal, no sign, and at most the 8 digits
# of MAX_VERTICES. JSON refuses the ones with a leading zero.
_ID = "[0-9]{1,8}"
_CANONICAL_HEADER = re.compile(f"p ({_ID})\n")
_CANONICAL_EDGES = re.compile(f"(?:{_ID} {_ID}\n)*")
# The pattern engine keeps a frame of a few hundred bytes per repeat of a
# group until the match ends, so edge lines are matched in blocks of about
# this many characters: the frames then stay well under a megabyte
# whatever the file size.
_CANONICAL_BLOCK = 1 << 14


class ParseError(ValueError):
    """Malformed text input; carries the offending 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


class SizeCapError(RuntimeError):
    """An exact routine was asked to exceed its configured instance-size cap,
    or an input declared more than :data:`MAX_VERTICES` vertices or, for a
    generator, more than :data:`MAX_EDGES` edges."""


class Graph:
    """Undirected simple graph: no self-loops, no parallel edges.

    ``Graph(n, edges)`` accepts the edges in any order, either way round and
    repeated. It checks them in bulk and fills one neighbour list per
    vertex up to the largest endpoint, so an isolated vertex costs an empty
    list, not a set, and one above every endpoint only a reference to the
    shared empty tuple. Each list is then sorted and deduplicated, unless
    the edges came as strictly increasing pairs (u, v) with u < v, as
    :func:`dump_edge_list` writes them: the lists are then sorted and
    duplicate-free already.

    Immutable after construction; all queries are read-only and safe to
    share across workers.
    """

    __slots__ = ("n", "m", "adj")

    def __init__(self, n: int, edges=()):
        pairs = list(edges)
        self._fill(n, [u for u, _ in pairs], [v for _, v in pairs])

    @classmethod
    def _from_columns(cls, n: int, us: list[int], vs: list[int]) -> Graph:
        """The graph of the edges ``(us[i], vs[i])``, with the checks and
        messages of ``Graph(n, edges)``."""
        g = cls.__new__(cls)
        g._fill(n, us, vs)
        return g

    def _fill(self, n: int, us: list[int], vs: list[int]):
        # the one adjacency builder behind the constructor and the parser
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        top = max(max(us), max(vs)) + 1 if us else 0
        if us and (min(us) < 0 or min(vs) < 0 or top > n or any(map(eq, us, vs))):
            # some edge is bad: walk them in order to name the first one
            for u, v in zip(us, vs):
                if u == v:
                    raise ValueError(f"self-loop at vertex {u}")
                if not (0 <= u < n and 0 <= v < n):
                    raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
        rows: list[list[int]] = [[] for _ in range(top)]
        for u, v in zip(us, vs):
            rows[u].append(v)
            rows[v].append(u)
        if all(map(lt, us, vs)) and all(map(lt, zip(us, vs), zip(islice(us, 1, None), islice(vs, 1, None)))):
            # each row got its smaller neighbours, ascending, then its larger ones
            adj = map(tuple, rows)
        else:
            adj = (tuple(sorted(set(row))) for row in rows)
        if top < n:
            # the isolated vertices above the largest endpoint share one
            # empty tuple: a declared count costs 8 bytes per vertex
            adj = chain(adj, repeat((), n - top))
        self.adj = tuple(adj)
        self.n = n
        self.m = sum(map(len, self.adj)) // 2

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
    optional header ``p <n>`` declaring the vertex count. Ids and the count
    are ASCII decimal integers. ``source`` is a str, UTF-8 bytes, or an
    iterable of lines.

    Without a header n is one past the largest id seen. Duplicate edges
    collapse; self-loops, malformed lines and invalid UTF-8 raise
    :class:`ParseError` with the line number, and an n above
    :data:`MAX_VERTICES` raises :class:`SizeCapError` before the graph is
    allocated.

    Canonical text (``p <n>\\n``, then ``u v\\n`` per edge, single spaces,
    ids without leading zeros: what :func:`dump_edge_list` writes) costs one
    pattern match, one JSON decode of its ids and the adjacency build, about
    a third of the line loop's time on a 10^4-vertex grid. Any other str or
    bytes goes to the line loop, which raises the errors; so does, after
    that pattern match, a text of canonical shape that has an id with a
    leading zero, a self-loop or an id outside ``p <n>``.
    """
    if isinstance(source, (str, bytes)):
        graph = _load_canonical(source)
        if graph is not None:
            return graph
    return _load_lines(source)


def _load_canonical(text: str | bytes) -> Graph | None:
    """The graph of a canonical text; None for any other text."""
    if isinstance(text, bytes):
        # latin-1 maps each byte to one character, so a non-ASCII byte fails
        # the pattern below rather than the decode
        text = text.decode("latin-1")
    header = _CANONICAL_HEADER.match(text)
    if header is None:
        return None
    n = int(header[1])
    start = pos = header.end()
    while pos < len(text):
        end = text.find("\n", pos + _CANONICAL_BLOCK) + 1 or len(text)
        if _CANONICAL_EDGES.fullmatch(text, pos, end) is None:
            return None
        pos = end
    if n > MAX_VERTICES:
        return None
    try:
        ids = json.loads("[" + text[start:].replace(" ", ",").replace("\n", ",")[:-1] + "]")
        us, vs = ids[0::2], ids[1::2]
        del ids
        return Graph._from_columns(n, us, vs)
    except ValueError:
        # an id with a leading zero, a self-loop or an id outside p <n>:
        # the line loop reads the first and names the line of the others
        return None


def _decimal(token: str) -> int:
    """The value of an ASCII decimal token with an optional leading ``-``;
    ValueError for the ``+``, ``_`` and non-ASCII digits ``int`` accepts."""
    digits = token[1:] if token.startswith("-") else token
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not an ASCII decimal integer: {token!r}")
    return int(token)


def _utf8(data: bytes, line: int) -> str:
    """``data`` decoded, or a ParseError naming the line, counted from
    ``line``, of its first invalid byte."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        before = data[: exc.start].decode("utf-8")
        at = line + len((before + "x").splitlines()) - 1
        raise ParseError(f"invalid UTF-8 byte 0x{data[exc.start]:02x}", at) from None


def _load_lines(source) -> Graph:
    """The line loop: parses every input :func:`load_edge_list` accepts and
    raises its parse errors; the reference for the canonical path."""
    if isinstance(source, bytes):
        lines = _utf8(source, 1).splitlines()
    elif isinstance(source, str):
        lines = source.splitlines()
    else:
        lines = [_utf8(ln, idx) if isinstance(ln, bytes) else str(ln) for idx, ln in enumerate(source, start=1)]

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
                declared = _decimal(parts[1])
            except ValueError:
                raise ParseError(f"non-integer vertex count {parts[1]!r}", idx) from None
            if declared < 0:
                raise ParseError("vertex count must be non-negative", idx)
            continue
        if len(parts) != 2:
            raise ParseError(f"expected 'u v', got {text!r}", idx)
        try:
            u, v = _decimal(parts[0]), _decimal(parts[1])
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
    """Serialize a graph in canonical form, the inverse of
    :func:`load_edge_list` and byte-stable: ``p <n>``, then one ``u v`` line
    per edge with u < v, ascending. One list comprehension over the
    adjacency tuples writes the lines."""
    lines = [f"p {g.n}"]
    lines += [f"{u} {w}" for u, row in enumerate(g.adj) for w in row if u < w]
    return "\n".join(lines) + "\n"


def bounded_bfs(g: Graph, source: int, r: int, stop=()) -> dict[int, int]:
    """Distances from ``source`` up to radius ``r`` over paths whose interior
    avoids ``stop``.

    Vertices of ``stop`` get a distance when reached but are never expanded,
    except ``source`` itself, which is always expanded: a search from a
    member of a target set, with the whole set as ``stop``, follows exactly
    the paths that avoid every other target. Vertices not reached are
    absent. No argument checks: this is the shared loop behind every
    single-source radius query, and the public callers validate their own
    inputs.
    """
    adj = g.adj
    dist = {source: 0}
    if r < 1:
        return dist
    frontier = adj[source]
    for w in frontier:
        dist[w] = 1
    d = 1
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
    order of the original ids. When s is all of V, g itself is returned."""
    to_orig = tuple(sorted(set(s)))
    if to_orig and not (0 <= to_orig[0] and to_orig[-1] < g.n):
        bad = to_orig[0] if to_orig[0] < 0 else to_orig[-1]
        raise IndexError(f"vertex {bad} out of range for n={g.n}")
    to_sub = {old: new for new, old in enumerate(to_orig)}
    if len(to_orig) == g.n:
        # s is all of V: the identity map, and g (immutable) is its own copy
        return g, SubgraphMap(to_orig, to_sub)
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
