import itertools
import random
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
        with pytest.raises(ParseError):
            load_edge_list("p 2\n0 5")

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

    def test_map_is_bidirectional(self):
        sub, idmap = induced_subgraph(path(5), {1, 3})
        assert all(idmap.to_orig[idmap.to_sub[v]] == v for v in (1, 3))


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
