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
tested against. Both paths, and ``Graph(n, edges)``, check their edges
the same way and build adjacency with one builder, which holds one int
object per vertex id.

A graph read from canonical text whose header and edge lines are exactly
what :func:`dump_edge_list` would write (ids ascending pair by pair, u < v,
no leading zero in ``p <n>``) keeps that text, and dumping it returns the
text without formatting a line. Such a graph is checked in full as it is
read, but builds its adjacency on first read, so one that is only dumped,
such as an identity kernel, never builds it. Every other graph, including
one read from the same edges in another order or with a comment, builds
its adjacency at construction and is formatted when dumped.
"""

from __future__ import annotations

import json
import re
from collections.abc import Mapping
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
    duplicate-free already. The rows hold one int object per vertex id,
    whatever objects the edges came as (decoded text, arithmetic in a
    generator, a remapped subgraph), so a neighbour entry costs its 8-byte
    slot rather than a fresh int per edge end.

    ``text`` is the graph's canonical edge-list text when the graph was read
    from exactly that text (see :func:`dump_edge_list`), and None for every
    other graph: ``Graph(n, edges)``, a generated graph, a proper induced
    subgraph, text read through the line loop. The text is retained for the
    graph's lifetime, at the cost of the file's size, so that dumping the
    graph, or an identity kernel that is the graph itself, costs nothing.
    Equality and hashing ignore it.

    A graph with ``text`` is checked in full when it is read, and its ``n``,
    ``m`` and ``text`` are set then, but it holds its edges as two columns
    of shared id objects and builds ``adj`` when something first reads it:
    a caller that only dumps the graph, such as an identity kernel, never
    builds a row. Every other graph builds ``adj`` at construction. Once
    built, ``adj`` is an ordinary attribute of an ordinary ``Graph``.

    Immutable, apart from that one deferred build, which is safe to race:
    concurrent first readers get equal rows. All queries are read-only and
    safe to share across workers. A graph can be weakly referenced, which
    :func:`~rdomkernel.profiles.projection` uses to tell the graph its memo
    belongs to without keeping it alive.
    """

    # _columns holds a deferred graph's (us, vs, top) until its rows exist;
    # copies and pickles leave __weakref__ out
    __slots__ = ("n", "m", "adj", "text", "_columns", "__weakref__")

    def __init__(self, n: int, edges=()):
        pairs = list(edges)
        self._fill(n, [u for u, _ in pairs], [v for _, v in pairs])

    @classmethod
    def _from_columns(cls, n: int, us: list[int], vs: list[int], text: str | None = None, ids=None) -> Graph:
        """The graph of the edges ``(us[i], vs[i])``, with the checks and
        messages of ``Graph(n, edges)``. ``text``, canonical text that
        holds these pairs in this order under the header ``p <n>``, is kept
        only when the pairs are strictly increasing with u < v, the order
        :func:`dump_edge_list` writes; the rows of such a graph are built on
        first read. ``ids``, a list whose item i is i, supplies the rows' id
        objects."""
        g = cls.__new__(cls)
        g._fill(n, us, vs, text, ids)
        return g

    def _fill(self, n: int, us: list[int], vs: list[int], text: str | None = None, ids=None):
        # the checks behind the constructor and the parser, then the rows or,
        # for a graph that keeps its text, the columns they are built from
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        # strictly increasing pairs (u, v) with u < v, as dump_edge_list
        # writes them: us ascends and every v is above its u, so us[0] is the
        # least id, max(vs) the largest, and no edge is a self-loop
        presorted = all(map(lt, us, vs)) and all(map(lt, zip(us, vs), zip(islice(us, 1, None), islice(vs, 1, None))))
        if presorted:
            top = max(vs) + 1 if us else 0
            bad = us and (us[0] < 0 or top > n)
        else:
            top = max(max(us), max(vs)) + 1
            bad = min(us) < 0 or min(vs) < 0 or top > n or any(map(eq, us, vs))
        if bad:
            # some edge is bad: walk them in order to name the first one
            for u, v in zip(us, vs):
                if u == v:
                    raise ValueError(f"self-loop at vertex {u}")
                if not (0 <= u < n and 0 <= v < n):
                    raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
        # the columns hold the one int object of each vertex id, not the
        # decoded or computed objects of us and vs, one per edge end
        if ids is None:
            ids = list(range(top))
        us = list(map(ids.__getitem__, us))
        vs = list(map(ids.__getitem__, vs))
        del ids
        self.n = n
        # presorted pairs are the order dump_edge_list writes
        self.text = text if presorted else None
        if self.text is None:
            self.adj = _adjacency(n, top, us, vs, presorted)
            self.m = sum(map(len, self.adj)) // 2
        else:
            # strictly increasing pairs hold no repeat
            self.m = len(us)
            self._columns = (us, vs, top)
            self.__class__ = _DeferredGraph

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


class _DeferredGraph(Graph):
    """A graph read from canonical text whose rows are not built yet.

    ``__getattr__`` runs only when normal lookup fails, that is, only while
    the ``adj`` slot is empty, so a plain ``Graph`` pays nothing for it. The
    first read of ``adj`` builds the rows from the columns, publishes them
    in the slot, then drops the columns and makes the object a plain
    ``Graph``. A reader that races it either builds equal rows itself or
    finds the columns gone, and then the rows already published."""

    __slots__ = ()

    def __getattr__(self, name):
        if name != "adj":
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        columns = self._columns
        if columns is None:
            # another reader built the rows, and published them first
            return self.adj
        us, vs, top = columns
        self.adj = adj = _adjacency(self.n, top, us, vs, True)
        self._columns = None
        self.__class__ = Graph
        return adj

    def __reduce_ex__(self, protocol):
        # a copy or a pickle names the class before it reads the slots, and
        # reading adj makes this a Graph: build first, so the two agree
        self.__getattr__("adj")
        return object.__reduce_ex__(self, protocol)


def _adjacency(n: int, top: int, us: list[int], vs: list[int], presorted: bool) -> tuple[tuple[int, ...], ...]:
    """The adjacency rows of the checked edges ``(us[i], vs[i])``, whose
    endpoints all lie below ``top``; the rows hold the columns' own
    objects. ``presorted`` says the pairs strictly increase with u < v, and
    then no row needs a sort."""
    rows: list[list[int]] = [[] for _ in range(top)]
    for u, v in zip(us, vs):
        rows[u].append(v)
        rows[v].append(u)
    # from presorted pairs each row got its smaller neighbours, ascending,
    # then its larger ones
    for i, row in enumerate(rows):
        # each list goes as soon as its tuple exists, so the lists and the
        # tuples are never all held at once
        rows[i] = tuple(row) if presorted else tuple(sorted(set(row)))
    # the isolated vertices above the largest endpoint share one empty
    # tuple: a declared count costs 8 bytes per vertex
    return tuple(chain(rows, repeat((), n - top)))


def load_edge_list(source) -> Graph:
    """Parse the shared text format: edge lines ``u v``, ``#`` comments,
    optional header ``p <n>`` declaring the vertex count. Ids and the count
    are ASCII decimal integers. ``source`` is a str, UTF-8 bytes, or an
    iterable of lines.

    Without a header n is one past the largest id seen. Duplicate edges
    collapse; self-loops, malformed lines, invalid UTF-8 and an id outside
    ``p <n>`` (the first line holding the largest id) raise
    :class:`ParseError` with the line number, and an n above
    :data:`MAX_VERTICES` raises :class:`SizeCapError` before the graph is
    allocated.

    Canonical text (``p <n>\\n``, then ``u v\\n`` per edge, single spaces,
    ids without leading zeros: what :func:`dump_edge_list` writes) costs one
    pattern match, one JSON decode of its ids, the checks, and either the
    adjacency build or, for text the graph keeps, two columns of shared id
    objects from which the first reader of ``adj`` builds it. On a
    10^4-vertex grid the load takes about a quarter of the line loop's
    time, and a third with the adjacency built. Any other str or bytes
    goes to the line loop, which raises the errors; so does, after
    that pattern match, a text of canonical shape that has an id with a
    leading zero, a self-loop or an id outside ``p <n>``. A canonical text
    whose pairs are strictly increasing with u < v and whose header has no
    leading zero is byte for byte the graph's dump, and the graph keeps it
    as ``Graph.text``.
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
        # with no leading zero in the header, and none possible in an id,
        # the text is the dump of its pairs when they are presorted
        return Graph._from_columns(n, us, vs, text if header[1] == str(n) else None)
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
    # the largest id and the first line that holds it
    max_id, max_line = -1, None
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
        if u > max_id or v > max_id:
            max_id, max_line = max(u, v), idx

    n = declared if declared is not None else max_id + 1
    if max_id >= n:
        raise ParseError(f"vertex id {max_id} outside declared range p {n}", max_line)
    if n > MAX_VERTICES:
        raise SizeCapError(f"{n} vertices exceed the cap of {MAX_VERTICES}")
    return Graph(n, edges)


def dump_edge_list(g: Graph) -> str:
    """Serialize a graph in canonical form, the inverse of
    :func:`load_edge_list` and byte-stable: ``p <n>``, then one ``u v`` line
    per edge with u < v, ascending. A graph read from exactly this text
    returns its ``text``, the same string, at no cost; for every other
    graph one list comprehension over the adjacency tuples writes the
    lines."""
    if g.text is not None:
        return g.text
    lines = [f"p {g.n}"]
    lines += [f"{u} {w}" for u, row in enumerate(g.adj) for w in row if u < w]
    return "\n".join(lines) + "\n"


def check_vertices(g: Graph, vertices) -> None:
    """IndexError unless every id of the collection ``vertices`` is a vertex
    of g; it names the lowest negative id, or else the highest id >= n.
    One min and one max: a caller holding sorted ids passes only the ends."""
    if vertices:
        lo = min(vertices)
        if lo < 0 or max(vertices) >= g.n:
            raise IndexError(f"vertex {lo if lo < 0 else max(vertices)} out of range for n={g.n}")


def check_radius(r: int) -> None:
    """ValueError for a negative radius."""
    if r < 0:
        raise ValueError(f"radius must be non-negative, got {r}")


def bounded_bfs(g: Graph, source: int, r: int, stop=()) -> dict[int, int]:
    """Distances from ``source`` up to radius ``r`` over paths whose interior
    avoids ``stop``.

    Vertices of ``stop`` get a distance when reached but are never expanded,
    except ``source`` itself, which is always expanded: a search from a
    member of a target set, with the whole set as ``stop``, follows exactly
    the paths that avoid every other target. The search asks ``stop`` once
    about each vertex but ``source`` that it would expand, just before it
    would scan that vertex's row, so a container can meter the search.
    Vertices not reached are absent. No argument checks: this is the shared
    loop behind every single-source radius query, and the public callers
    validate their inputs with :func:`check_vertices` and
    :func:`check_radius`. Two many-source sweeps build no dict per search
    and do not use it: the weak-coloring sweep, whose searches are barred
    from the vertices already swept, uses :func:`_stamped_reach`, and the
    target-side sweep of :func:`~rdomkernel.profiles.target_traces` records
    each trace entry as it reaches a vertex, over one list of visit marks.
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


def _stamped_reach(g: Graph, source: int, r: int, mark: list[int], stamp: int) -> list[int]:
    """The vertices within radius r of ``source`` over unbarred vertices,
    ``source`` first, then level by level in the order reached.

    The loop of a many-source sweep. In place of a distance dict per
    search it marks what it reaches in ``mark``, a list of n ints the
    caller holds across the sweep: each vertex reached gets
    ``mark[v] = stamp``, and a vertex whose mark is already at or above
    ``stamp`` is never entered, neither reached nor expanded. Stamps must
    therefore strictly increase across the searches that share one list,
    so that every earlier search's marks lie below the current stamp; a
    mark the caller sets above every stamp it will use bars that vertex
    from all later searches. ``source`` itself is always searched from. No
    argument checks.
    """
    adj = g.adj
    mark[source] = stamp
    level = reached = [source]
    for _ in range(r):
        nxt = []
        for u in level:
            for w in adj[u]:
                if mark[w] < stamp:
                    mark[w] = stamp
                    nxt.append(w)
        if not nxt:
            break
        reached += nxt
        level = nxt
    return reached


def bfs_within(g: Graph, source: int, r: int) -> dict[int, int]:
    """Exact distances from ``source`` up to radius ``r``.

    Vertices farther than r are absent from the map (their distance is INF).
    """
    check_vertices(g, (source,))
    check_radius(r)
    return bounded_bfs(g, source, r)


def multi_source_within(g: Graph, sources, r: int) -> dict[int, int]:
    """Distances up to r from the nearest of several sources."""
    check_radius(r)
    frontier = sorted(set(sources))
    if frontier:
        check_vertices(g, (frontier[0], frontier[-1]))
    adj = g.adj
    dist = dict.fromkeys(frontier, 0)
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
    check_vertices(g, (v,))
    dist = bfs_within(g, u, r)
    if v not in dist:
        return None
    return _walk_back(g, dist, u, v)


class _IdentityMap(Mapping):
    """The ``to_sub`` of an induced subgraph that is all of g: each vertex
    maps to itself, and a lookup returns the very object it was given, so
    the map holds only the tuple of ids it iterates, not an n-entry dict.
    Read-only; it compares equal to the dict it stands for."""

    __slots__ = ("_ids",)

    def __init__(self, ids: tuple[int, ...]):
        self._ids = ids  # 0..n-1, ascending

    def __getitem__(self, v):
        if v in self:
            return v
        raise KeyError(v)

    def __contains__(self, v):
        return isinstance(v, int) and 0 <= v < len(self._ids)

    def __iter__(self):
        return iter(self._ids)

    def __len__(self):
        return len(self._ids)


@dataclass(frozen=True)
class SubgraphMap:
    """Bidirectional id map for an induced subgraph."""

    to_orig: tuple[int, ...]
    to_sub: Mapping[int, int]


def induced_subgraph(g: Graph, s) -> tuple[Graph, SubgraphMap]:
    """Subgraph induced by s, with ids remapped to 0..|s|-1 in ascending
    order of the original ids. A set or frozenset s is sorted as it is,
    without a copy. When s is all of V, g itself is returned, and the
    identity map's ``to_sub`` is a read-only mapping that returns each id
    it is given, the same int object, with no dict behind it; otherwise
    ``to_sub`` is a dict whose values are the subgraph's own id objects."""
    to_orig = tuple(sorted(s if isinstance(s, (set, frozenset)) else set(s)))
    if to_orig:
        check_vertices(g, (to_orig[0], to_orig[-1]))
    if len(to_orig) == g.n:
        # s is all of V: g (immutable) is its own copy, and the identity
        # map's keys and values are the same objects
        return g, SubgraphMap(to_orig, _IdentityMap(to_orig))
    # one int object per new id, shared by to_sub and the subgraph's rows
    ids = list(range(len(to_orig)))
    to_sub = dict(zip(to_orig, ids))
    us: list[int] = []
    vs: list[int] = []
    for new_u, old_u in zip(ids, to_orig):
        for old_w in g.adj[old_u]:
            if old_w > old_u and old_w in to_sub:
                us.append(new_u)
                vs.append(to_sub[old_w])
    return Graph._from_columns(len(ids), us, vs, ids=ids), SubgraphMap(to_orig, to_sub)


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
