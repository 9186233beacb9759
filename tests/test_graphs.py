import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rdomkernel.generators import grid_graph, star_graph
from rdomkernel.graphs import (
    Graph,
    ParseError,
    ball,
    bfs_within,
    bounded_bfs,
    dump_edge_list,
    induced_subgraph,
    is_r_independent,
    load_edge_list,
    shortest_path,
)

from .oracles import floyd_warshall, random_graph, simple_paths_from


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
