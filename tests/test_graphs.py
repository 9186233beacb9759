import copy
import itertools
import pickle
import random
import sys
import threading
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rdomkernel.generators import FAMILY_TABLE, GenSpec, generate, grid_graph, star_graph
from rdomkernel.graphs import (
    Graph,
    ParseError,
    SizeCapError,
    _load_canonical,
    _load_lines,
    ball,
    bfs_within,
    bounded_bfs,
    dump_edge_list,
    induced_subgraph,
    is_r_independent,
    load_edge_list,
    multi_source_within,
    shortest_path,
)

from .oracles import floyd_warshall, random_graph, set_adjacency, simple_paths_from


def path(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


@st.composite
def graphs(draw, max_n=12):
    n = draw(st.integers(min_value=0, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    if not pairs:
        return Graph(n)
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    return Graph(n, edges)


# Lines that a perturbed canonical text may gain: comments, blanks, tabs,
# headers, reversed and repeated edges, leading zeros, huge ids, self-loops
# and tokens that are not ASCII decimal integers.
ODD_LINES = (
    "# comment", "", "   ", "0 1  # trailing", "0\t1", "0 1", "1 0", "01 2", "0 001", "3 3", "-1 0",
    "0 99999999999", "0 16777216", "0 1_0", "0 +1", "+1 0", "0 \u0661", "1.0 2", "x y", "0 1 2", "p",
    "p 3", "p 11", "p +5", "p 012", "p 99999999", "p 16777217",
)


@st.composite
def edge_texts(draw):
    """Canonical texts of small graphs, and perturbations of them, as str
    or as UTF-8 bytes (sometimes with an invalid byte)."""
    n = draw(st.integers(min_value=0, max_value=12))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))) if pairs else []
    lines = dump_edge_list(Graph(n, edges)).splitlines()
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        at = draw(st.integers(min_value=0, max_value=len(lines)))
        kind = draw(st.sampled_from(("insert", "replace", "move header", "repeat", "reverse", "respace")))
        if kind == "insert":
            lines.insert(at, draw(st.sampled_from(ODD_LINES)))
        elif at < len(lines) and kind == "replace":
            lines[at] = draw(st.sampled_from(ODD_LINES))
        elif at < len(lines) and kind == "move header":
            lines.insert(at, lines.pop(0))
        elif at < len(lines) and kind == "repeat":
            lines.insert(at, lines[at])
        elif at < len(lines) and kind == "reverse":
            lines[at] = " ".join(reversed(lines[at].split(" ")))
        elif at < len(lines):
            lines[at] = lines[at].replace(" ", draw(st.sampled_from(("  ", "\t", " \t"))))
    # mostly canonical line ends, so that a perturbed text is often one
    # token away from canonical form
    end = draw(st.sampled_from(("\n", "\n", "\n", "\r\n", "\r")))
    text = end.join(lines) + draw(st.sampled_from((end, end, end, "", "\n\n")))
    form = draw(st.sampled_from(("str", "str", "bytes", "bytes", "bad bytes")))
    if form == "str":
        return text
    data = text.encode()
    if form == "bytes":
        return data
    at = draw(st.integers(min_value=0, max_value=len(data)))
    return data[:at] + draw(st.sampled_from((b"\xff", b"\xc3", b"\x80"))) + data[at:]


def outcome(parse, source):
    try:
        g = parse(source)
    except Exception as exc:  # the exception itself is the outcome compared
        return type(exc), str(exc)
    return g.n, g.adj, g.m


@st.composite
def edge_lists(draw):
    """(n, edges): repeated, reversed and shuffled or strictly increasing
    edges, sometimes with bad edges (self-loops, ids out of range) mixed in."""
    n = draw(st.integers(min_value=-1, max_value=10))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    if not pairs:
        edges = []
    elif draw(st.booleans()):
        edges = sorted(draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))))
    else:
        edges = draw(st.lists(st.sampled_from(pairs), max_size=2 * len(pairs)))
        flips = draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
        edges = draw(st.permutations([(v, u) if flip else (u, v) for (u, v), flip in zip(edges, flips)]))
    for _ in range(draw(st.integers(min_value=0, max_value=2)) if draw(st.booleans()) else 0):
        bad = st.integers(min_value=-2, max_value=max(n, 0) + 2)
        edges.insert(draw(st.integers(min_value=0, max_value=len(edges))), draw(st.tuples(bad, bad)))
    return n, edges


class TestLoadEdgeList:
    def test_p3(self):
        g = load_edge_list("0 1\n1 2")
        assert (g.n, g.m) == (3, 2)

    def test_duplicate_collapses(self):
        g = load_edge_list("0 1\n1 0")
        assert (g.n, g.m) == (2, 1)

    def test_self_loop_rejected(self):
        with pytest.raises(ParseError) as err:
            load_edge_list("0 0")
        assert err.value.line == 1

    def test_malformed_line_number(self):
        with pytest.raises(ParseError) as err:
            load_edge_list("0 1\nnope")
        assert err.value.line == 2

    def test_header_declares_isolated_vertices(self):
        g = load_edge_list("p 5\n0 1")
        assert (g.n, g.m) == (5, 1)

    def test_comments_and_blanks(self):
        g = load_edge_list("# c\n\n0 1  # trailing\n")
        assert (g.n, g.m) == (2, 1)

    def test_id_outside_header_range(self):
        with pytest.raises(ParseError) as err:
            load_edge_list("p 2\n0 5")
        assert err.value.line == 2

    def test_canonical_id_outside_header_names_its_line(self):
        # canonical shape, so the pattern matches and the build refuses it
        text = "p 4\n0 1\n1 6\n2 3\n2 6\n"
        assert _load_canonical(text) is None
        with pytest.raises(ParseError) as err:
            load_edge_list(text)
        assert err.value.line == 3
        assert str(err.value) == "line 3: vertex id 6 outside declared range p 4"

    def test_round_trip(self):
        g = grid_graph(3, 3)
        assert load_edge_list(dump_edge_list(g)) == g

    def test_ids_and_count_are_ascii_decimal(self):
        # int() reads each of these tokens as a number
        for text, line in (
            ("0 1_0", 1),
            ("0 +1", 1),
            ("p +5\n0 1", 1),
            ("0 \u0661", 1),
            ("p 11\n0 1_0\n", 2),
            ("p 2\n0 1\n+1 0\n", 3),
        ):
            for source in (text, text.encode()):
                with pytest.raises(ParseError) as err:
                    load_edge_list(source)
                assert err.value.line == line, text

    def test_invalid_utf8_names_its_line(self):
        for data, line in (
            (b"\xff", 1),
            (b"p 3\n0 1\n1 \xff2\n", 3),
            (b"0 1\r\n# caf\xc3\xa9\r\n1 \xc3\n", 3),
            (b"0 1\r1 \x80", 2),
        ):
            with pytest.raises(ParseError) as err:
                load_edge_list(data)
            assert err.value.line == line
            assert "invalid UTF-8 byte" in str(err.value)
        with pytest.raises(ParseError) as err:
            load_edge_list([b"0 1", b"1 \xff"])
        assert err.value.line == 2

    def test_isolated_vertices_cost_no_set_each(self):
        tracemalloc.start()
        try:
            g = load_edge_list("p 200000\n")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (g.n, g.m) == (200000, 0)
        assert peak <= 16_000_000

    def test_declared_isolated_vertices_share_one_row(self):
        # one empty list per declared vertex peaked at about 146 MB
        tracemalloc.start()
        try:
            g = load_edge_list("p 2000000\n0 1\n")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (g.n, g.m) == (2000000, 1)
        assert g.adj[:3] == ((1,), (0,), ())
        assert peak <= 24_000_000

    @settings(max_examples=400)
    @given(edge_texts())
    def test_matches_line_loop(self, source):
        assert outcome(load_edge_list, source) == outcome(_load_lines, source)

    def test_one_odd_line_matches_line_loop(self):
        # every odd line at every place in a canonical text, inserted or
        # replacing a line, as str and as bytes
        lines = dump_edge_list(Graph(6, [(0, 1), (0, 5), (2, 3), (3, 4)])).splitlines()
        for odd in ODD_LINES:
            for at in range(len(lines) + 1):
                for changed in (lines[:at] + [odd] + lines[at:], lines[:at] + [odd] + lines[at + 1:]):
                    text = "\n".join(changed) + "\n"
                    for source in (text, text.encode()):
                        assert outcome(load_edge_list, source) == outcome(_load_lines, source), source

    def test_canonical_header_above_cap(self):
        for text in ("p 16777217\n", "p 99999999\n0 1\n"):
            with pytest.raises(SizeCapError):
                load_edge_list(text)

    def test_round_trip_on_generator_families(self):
        built = 0
        for name, family in FAMILY_TABLE.items():
            for args in itertools.product((1, 2, 3, 5), repeat=len(family.params)):
                for seed in (0, 1) if family.seeded else (0,):
                    try:
                        g = generate(GenSpec(name, dict(zip(family.params, args)), seed))
                    except ValueError:
                        continue  # outside the family's valid range
                    text = dump_edge_list(g)
                    for source in (text, text.encode()):
                        assert load_edge_list(source) == g
                        # the bulk path reads what dump_edge_list writes
                        assert _load_canonical(source) == g
                    built += 1
        assert built > 50


class TestCanonicalTextKept:
    """A graph read from exactly its canonical text keeps it, and dumping
    the graph returns that string; every other graph is formatted."""

    CANONICAL = "p 7\n0 1\n0 2\n3 4\n"

    @given(graphs())
    def test_round_trip_returns_the_source(self, g):
        t = dump_edge_list(g)
        h = load_edge_list(t)
        assert h.text is t
        assert dump_edge_list(h) is t
        # the kept text is the formatter's output for the same edges
        assert t == dump_edge_list(Graph(h.n, h.edges()))

    def test_non_canonical_source_is_formatted(self):
        for source in (
            "p 007\n0 1\n0 2\n3 4\n",
            "p 7\n0 2\n0 1\n3 4\n",
            "p 7\n1 0\n0 2\n3 4\n",
            "p 7\n0 1\n0 1\n0 2\n3 4\n",
            "# comment\np 7\n0 1\n0 2\n3 4\n",
            "p 7\r\n0 1\r\n0 2\r\n3 4\r\n",
            "p 7\n0 1\n0 2\n3 4",
        ):
            for data in (source, source.encode()):
                g = load_edge_list(data)
                assert g.text is None, source
                assert dump_edge_list(g) == self.CANONICAL

    def test_canonical_bytes_keep_their_decoded_text(self):
        g = load_edge_list(self.CANONICAL.encode())
        assert g.text == self.CANONICAL
        assert dump_edge_list(g) == self.CANONICAL

    def test_leading_zero_header_of_an_empty_graph(self):
        for source, kept in (("p 0\n", True), ("p 00\n", False), ("p 05\n", False)):
            g = load_edge_list(source)
            assert (g.text is source) == kept, source
            assert dump_edge_list(g) == f"p {g.n}\n"

    def test_built_graphs_carry_no_text(self):
        g = load_edge_list(self.CANONICAL)
        sub, _ = induced_subgraph(g, range(1, g.n))
        for h in (Graph(7, [(0, 1), (0, 2), (3, 4)]), grid_graph(3, 3), path(4), sub):
            assert h.text is None
        # all of V is g itself, and so is its text
        whole, _ = induced_subgraph(g, range(g.n))
        assert dump_edge_list(whole) is self.CANONICAL

    def test_equality_and_hash_ignore_the_text(self):
        kept = load_edge_list(self.CANONICAL)
        built = Graph(7, [(3, 4), (2, 0), (0, 1)])
        assert kept.text is not None and built.text is None
        assert kept == built
        assert hash(kept) == hash(built)
        assert len({kept, built}) == 1


@st.composite
def canonical_sources(draw):
    """(n, edges, text): a small graph and a text of canonical shape for it.
    Mostly its canonical text, often with isolated vertices above the
    largest endpoint and sometimes with no edge; otherwise the same lines
    reordered, reversed or repeated, which is no graph's dump."""
    top = draw(st.integers(min_value=0, max_value=16))
    n = top + draw(st.integers(min_value=0, max_value=4))
    pairs = [(u, v) for u in range(top) for v in range(u + 1, top)]
    edges = sorted(draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))) if pairs else []
    if draw(st.integers(min_value=0, max_value=3)) or not edges:
        return n, edges, dump_edge_list(Graph(n, edges))
    lines = [(v, u) if draw(st.booleans()) else (u, v) for u, v in edges]
    lines += draw(st.lists(st.sampled_from(edges), max_size=2))
    lines = draw(st.permutations(lines))
    return n, edges, f"p {n}\n" + "".join(f"{u} {v}\n" for u, v in lines)


class TestDeferredRows:
    """A graph read from its canonical text builds its rows on first read;
    every query then answers as on the graph built from the same edges."""

    QUERIES = {
        "adj": lambda g: g.adj,
        "m": lambda g: g.m,
        "degree": lambda g: [g.degree(v) for v in range(g.n)],
        "edges": lambda g: list(g.edges()),
        "has_edge": lambda g: [g.has_edge(u, v) for u in range(g.n) for v in range(g.n)],
        "hash": hash,
    }

    @settings(max_examples=300)
    @given(canonical_sources())
    def test_lazy_equals_eager(self, source):
        n, edges, text = source
        eager = Graph(n, edges)
        deferred = text == dump_edge_list(eager)
        g = load_edge_list(text)
        # a graph that keeps its text holds the columns of its rows until the
        # first read; every graph is a Graph before and after that read
        assert type(g) is Graph
        assert (getattr(g, "_columns", None) is not None) == deferred
        assert (g.n, g.m, g.text) == (n, eager.m, text if deferred else None)
        assert g.adj == eager.adj
        assert type(g) is Graph and getattr(g, "_columns", None) is None
        # each query and comparison is the first reader of a fresh graph
        for name, query in self.QUERIES.items():
            assert query(load_edge_list(text)) == query(eager), name
        assert load_edge_list(text) == eager
        assert eager == load_edge_list(text)
        assert not load_edge_list(text) != eager
        assert not eager != load_edge_list(text)
        if n >= 2:
            s = set(range(n)) - {n // 2}
            sub, idmap = induced_subgraph(load_edge_list(text), s)
            ref, ref_map = induced_subgraph(eager, s)
            assert (sub.n, sub.m, sub.adj, idmap) == (ref.n, ref.m, ref.adj, ref_map)

    def test_one_object_per_id_once_built(self):
        text = dump_edge_list(grid_graph(40, 40))
        g = load_edge_list(text)
        assert type(g) is Graph and g._columns is not None
        TestSharedIds.assert_one_object_per_id(g)
        assert type(g) is Graph and g._columns is None
        assert dump_edge_list(g) is text

    def test_only_adj_builds_the_rows(self):
        g = load_edge_list(dump_edge_list(grid_graph(5, 5)))
        assert not hasattr(g, "x")
        assert not hasattr(g, "__deepcopy__")
        assert g._columns is not None
        assert g.degree(12) == 4 and g._columns is None

    def test_a_failed_lookup_names_the_class(self):
        for g in (grid_graph(3, 3), load_edge_list(dump_edge_list(grid_graph(3, 3)))):
            with pytest.raises(AttributeError, match="^'Graph' object has no attribute 'x'$"):
                g.x

    def test_copies_and_pickles_are_built_graphs(self):
        text = dump_edge_list(grid_graph(5, 5))
        for clone in (copy.copy, copy.deepcopy, lambda g: pickle.loads(pickle.dumps(g))):
            h = clone(load_edge_list(text))
            assert type(h) is Graph
            assert h == grid_graph(5, 5) and h.m == 40
            assert dump_edge_list(h) == text

    def test_two_first_readers_get_equal_rows(self):
        text = dump_edge_list(grid_graph(60, 60))
        expected = grid_graph(60, 60).adj
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                g = load_edge_list(text)
                barrier = threading.Barrier(2)
                rows = [None, None]
                errors = []

                def read(i):
                    try:
                        barrier.wait(timeout=10)
                        rows[i] = g.adj
                    except Exception as exc:  # recorded and asserted on below
                        errors.append(exc)

                threads = [threading.Thread(target=read, args=(i,)) for i in range(2)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=30)
                assert not any(t.is_alive() for t in threads)
                assert errors == []
                assert rows[0] == rows[1] == expected
                assert type(g) is Graph and g.adj == expected
        finally:
            sys.setswitchinterval(interval)


class TestBfsWithin:
    def test_p5_radius2(self):
        assert bfs_within(path(5), 0, 2) == {0: 0, 1: 1, 2: 2}

    def test_zero_radius(self):
        assert bfs_within(cycle(6), 3, 0) == {3: 0}

    def test_grid_center(self):
        # frozen from all-pairs shortest paths on the 3x3 grid
        g = grid_graph(3, 3)
        dist = floyd_warshall(g)
        expected = {v: int(dist[4][v]) for v in range(9) if dist[4][v] <= 1}
        got = bfs_within(g, 4, 1)
        assert got == expected
        assert got == {4: 0, 1: 1, 3: 1, 5: 1, 7: 1}

    def test_source_out_of_range(self):
        with pytest.raises(IndexError):
            bfs_within(path(3), 7, 1)
        # every vertex argument of this module: -1 must not stand for n-1
        g = path(3)
        for bad in (-1, 3):
            for call in (
                lambda: bfs_within(g, bad, 1),
                lambda: multi_source_within(g, [0, bad], 1),
                lambda: shortest_path(g, bad, 0, 1),
                lambda: shortest_path(g, 0, bad, 1),
                lambda: induced_subgraph(g, {0, bad}),
            ):
                with pytest.raises(IndexError, match=f"vertex {bad} out of range for n=3"):
                    call()
        # the lowest negative id is named first, else the highest one
        with pytest.raises(IndexError, match="vertex -2 out of range for n=3"):
            multi_source_within(g, [5, -1, -2], 1)
        with pytest.raises(IndexError, match="vertex 5 out of range for n=3"):
            induced_subgraph(g, {4, 0, 5})

    def test_negative_radius(self):
        g = path(3)
        for call in (
            lambda: bfs_within(g, 0, -1),
            lambda: multi_source_within(g, [0], -1),
            lambda: multi_source_within(g, [], -1),
            lambda: shortest_path(g, 0, 2, -1),
        ):
            with pytest.raises(ValueError, match="radius must be non-negative, got -1"):
                call()

    def test_matches_all_pairs_oracle(self):
        rng = random.Random(20)
        for _ in range(500):
            g = random_graph(rng, rng.randint(1, 12), rng.random())
            dist = floyd_warshall(g)
            v = rng.randrange(g.n)
            r = rng.randint(0, 4)
            expected = {u: int(dist[v][u]) for u in range(g.n) if dist[v][u] <= r}
            assert bfs_within(g, v, r) == expected


class TestBoundedBfs:
    def test_stop_vertex_reached_but_not_expanded(self):
        assert bounded_bfs(path(5), 0, 4, {2}) == {0: 0, 1: 1, 2: 2}

    def test_matches_stop_avoiding_simple_paths(self):
        rng = random.Random(21)
        for _ in range(300):
            g = random_graph(rng, rng.randint(1, 9), rng.random())
            u = rng.randrange(g.n)
            stop = {v for v in range(g.n) if v != u and rng.random() < 0.3}
            r = rng.randint(0, 4)
            expected: dict[int, int] = {}
            for p in simple_paths_from(g, u, r):
                if any(x in stop for x in p[1:-1]):
                    continue
                expected[p[-1]] = min(expected.get(p[-1], r), len(p) - 1)
            assert bounded_bfs(g, u, r, stop) == expected

    def test_source_in_stop_is_expanded(self):
        assert bounded_bfs(path(5), 2, 4, {1, 2, 3}) == {2: 0, 1: 1, 3: 1}
        rng = random.Random(22)
        for _ in range(300):
            g = random_graph(rng, rng.randint(1, 9), rng.random())
            u = rng.randrange(g.n)
            stop = {v for v in range(g.n) if rng.random() < 0.3}
            r = rng.randint(0, 4)
            assert bounded_bfs(g, u, r, stop | {u}) == bounded_bfs(g, u, r, stop - {u})


class TestBall:
    def test_star(self):
        assert ball(star_graph(3), 0, 1) == {0, 1, 2, 3}

    def test_isolated(self):
        assert ball(Graph(1), 0, 5) == {0}

    def test_c6(self):
        assert ball(cycle(6), 0, 2) == {4, 5, 0, 1, 2}

    @given(graphs(), st.integers(0, 4))
    def test_monotone_in_radius(self, g, r):
        for v in range(g.n):
            assert ball(g, v, r) <= ball(g, v, r + 1)


class TestShortestPath:
    def test_p5_unique(self):
        assert shortest_path(path(5), 0, 3, 3) == [0, 1, 2, 3]

    def test_c4_tie_break(self):
        # both 0-1-2 and 0-3-2 are shortest; lowest-id parent wins
        assert shortest_path(cycle(4), 0, 2, 2) == [0, 1, 2]

    def test_out_of_radius(self):
        assert shortest_path(path(5), 0, 4, 2) is None

    def test_trivial(self):
        assert shortest_path(path(3), 1, 1, 0) == [1]

    @given(graphs(), st.integers(0, 4))
    def test_length_matches_distance(self, g, r):
        for u in range(g.n):
            dist = bfs_within(g, u, r)
            for v in range(g.n):
                p = shortest_path(g, u, v, r)
                if v in dist:
                    assert p is not None
                    assert len(p) - 1 == dist[v]
                    assert p[0] == u and p[-1] == v
                    assert all(g.has_edge(a, b) for a, b in zip(p, p[1:]))
                else:
                    assert p is None


class TestInducedSubgraph:
    def test_p5_subset(self):
        sub, idmap = induced_subgraph(path(5), {0, 1, 4})
        assert idmap.to_orig == (0, 1, 4)
        assert list(sub.edges()) == [(0, 1)]

    def test_empty(self):
        sub, _ = induced_subgraph(path(5), set())
        assert (sub.n, sub.m) == (0, 0)

    def test_grid_row_is_path(self):
        sub, _ = induced_subgraph(grid_graph(4, 4), {4, 5, 6, 7})
        assert sub == path(4)

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            induced_subgraph(path(3), {0, 9})

    def test_preserves_adjacency_exhaustively(self):
        rng = random.Random(7)
        for _ in range(60):
            g = random_graph(rng, rng.randint(1, 10), rng.random())
            s = sorted(v for v in range(g.n) if rng.random() < 0.6)
            sub, idmap = induced_subgraph(g, s)
            for i, u in enumerate(s):
                for j, v in enumerate(s):
                    assert g.has_edge(u, v) == sub.has_edge(i, j) or i == j

    def test_whole_vertex_set_returns_input(self):
        g = grid_graph(4, 3)
        sub, idmap = induced_subgraph(g, range(g.n))
        assert sub is g
        assert idmap.to_orig == tuple(range(g.n))
        assert idmap.to_sub == {v: v for v in range(g.n)}

    def test_identity_map_holds_no_dict(self):
        g = grid_graph(30, 30)
        _, idmap = induced_subgraph(g, range(g.n))
        to_sub = idmap.to_sub
        assert not isinstance(to_sub, dict)
        assert {v: v for v in range(g.n)} == to_sub and len(to_sub) == g.n
        assert frozenset(range(g.n)) <= to_sub.keys()
        # a lookup returns the object it is given: ids above 256 are not
        # CPython's cached small ints
        v = int("899")
        assert to_sub[v] is v and to_sub.get(v) is v
        for bad in (-1, g.n, "1"):
            assert bad not in to_sub
            with pytest.raises(KeyError):
                to_sub[bad]
        with pytest.raises(TypeError):
            to_sub[0] = 1
        assert list(to_sub) == list(range(g.n))

    def test_map_is_bidirectional(self):
        sub, idmap = induced_subgraph(path(5), {1, 3})
        assert all(idmap.to_orig[idmap.to_sub[v]] == v for v in (1, 3))


class TestSharedIds:
    """Each vertex id is one int object across g.adj. The graphs have ids
    above 256, which CPython does not cache, so at equal values separate
    decodes or sums are separate objects."""

    @staticmethod
    def assert_one_object_per_id(g, more=()):
        """Also every id of ``more``, each of which g's rows hold, is the
        rows' own object."""
        first: dict[int, int] = {}
        for row in g.adj:
            for w in row:
                assert first.setdefault(w, w) is w, w
        assert max(first) > 256
        for v in more:
            assert first[v] is v, v

    def test_generator_arithmetic(self):
        self.assert_one_object_per_id(grid_graph(40, 40))

    def test_canonical_text(self):
        text = dump_edge_list(grid_graph(40, 40))
        assert _load_canonical(text) is not None
        self.assert_one_object_per_id(load_edge_list(text))

    def test_line_loop(self):
        self.assert_one_object_per_id(load_edge_list("# grid\n" + dump_edge_list(grid_graph(40, 40))))

    def test_induced_subgraph_of_a_proper_subset(self):
        g = grid_graph(40, 40)
        sub, idmap = induced_subgraph(g, range(1, g.n))
        # the id map's values are the subgraph's own ids, not a second copy
        self.assert_one_object_per_id(sub, idmap.to_sub.values())

    def test_loaded_grid_retains_under_12_mib(self):
        # one int per edge end kept about 18.2 MiB; one per vertex, 10.7
        text = dump_edge_list(grid_graph(316, 316))
        tracemalloc.start()
        try:
            g = load_edge_list(text)
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert (g.n, g.m) == (99856, 199080)
        assert retained <= 12 << 20

    def test_loaded_grid_retains_under_8_mib_before_its_rows(self):
        # until the rows are read the graph holds two columns of shared ids:
        # about 6.1 MiB against 10.7 with its rows
        text = dump_edge_list(grid_graph(316, 316))
        tracemalloc.start()
        try:
            g = load_edge_list(text)
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert (g.n, g.m) == (99856, 199080)
        assert retained <= 8 << 20


class TestIsRIndependent:
    def test_p5_far(self):
        assert is_r_independent(path(5), {0, 4}, 3)

    def test_p5_exact(self):
        assert not is_r_independent(path(5), {0, 4}, 4)

    def test_c6_triple(self):
        assert not is_r_independent(cycle(6), {0, 2, 4}, 2)

    @given(graphs(max_n=10), st.integers(1, 4))
    def test_matches_pairwise_oracle(self, g, r):
        rng = random.Random(g.n * 31 + r)
        s = {v for v in range(g.n) if rng.random() < 0.5}
        dist = floyd_warshall(g)
        expected = all(dist[u][v] > r for u in s for v in s if u < v)
        assert is_r_independent(g, s, r) == expected


class TestGraphBasics:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            Graph(2, [(1, 1)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Graph(2, [(0, 2)])

    def test_presorted_bad_columns_keep_their_messages(self):
        # strictly increasing pairs: the range test reads us[0] and max(vs),
        # and the largest v need not be on the last edge
        for n, us, vs, message in (
            (5, [-1, 0], [2, 3], "edge (-1, 2) out of range for n=5"),
            (5, [0, 1], [9, 2], "edge (0, 9) out of range for n=5"),
            (5, [0, 1], [2, 5], "edge (1, 5) out of range for n=5"),
        ):
            with pytest.raises(ValueError) as err:
                Graph._from_columns(n, us, vs)
            assert str(err.value) == message

    def test_unsorted_self_loop_keeps_its_message(self):
        with pytest.raises(ValueError) as err:
            Graph._from_columns(5, [3, 2, 4], [4, 2, 9])
        assert str(err.value) == "self-loop at vertex 2"

    def test_adjacency_sorted_and_deduped(self):
        g = Graph(3, [(2, 0), (0, 1), (1, 0)])
        assert g.adj[0] == (1, 2)
        assert g.m == 2

    @settings(max_examples=300)
    @given(edge_lists())
    def test_matches_set_reference(self, n_edges):
        n, edges = n_edges
        try:
            expected = set_adjacency(n, edges)
        except ValueError as exc:
            with pytest.raises(ValueError) as err:
                Graph(n, edges)
            assert str(err.value) == str(exc)
            return
        g = Graph(n, iter(edges))
        assert (g.n, g.adj, g.m) == (n, expected, sum(map(len, expected)) // 2)
