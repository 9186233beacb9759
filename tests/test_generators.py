import itertools

import pytest

from rdomkernel.generators import (
    FAMILY_TABLE,
    GenSpec,
    complete_graph,
    generate,
    grid_graph,
    random_bounded_degree_graph,
    random_tree_graph,
    spider_graph,
    star_graph,
    subdivide,
    subset_gadget_graph,
)
from rdomkernel.graphs import bfs_within, dump_edge_list
from rdomkernel.profiles import nu_r


class TestCounts:
    def test_grid(self):
        g = grid_graph(3, 3)
        assert (g.n, g.m) == (9, 12)

    def test_subset_gadget(self):
        # one fresh vertex per subset of the anchors, the empty one isolated
        g = subset_gadget_graph(3)
        assert g.n == 3 + 8
        assert g.degree(3) == 0

    def test_subdivided_k4(self):
        g = subdivide(complete_graph(4), 1)
        assert (g.n, g.m) == (4 + 6, 12)

    def test_spider(self):
        g = spider_graph(5, 3)
        assert (g.n, g.m) == (16, 15)
        assert g.degree(0) == 5

    def test_star(self):
        g = star_graph(7)
        assert (g.n, g.m) == (8, 7)


class TestStructure:
    def test_subset_gadget_realizes_power_set(self):
        for a in (2, 3, 4):
            g = subset_gadget_graph(a)
            assert nu_r(g, set(range(a)), 1) == 2**a

    def test_subdivision_triangle_free(self):
        g = subdivide(complete_graph(5), 1)
        for u, v in g.edges():
            assert not set(g.adj[u]) & set(g.adj[v])

    def test_bounded_degree_respected(self):
        for seed in range(6):
            g = random_bounded_degree_graph(20, 4, seed)
            assert max(g.degree(v) for v in range(20)) <= 4

    def test_random_tree_is_tree(self):
        for seed in range(6):
            g = random_tree_graph(15, seed)
            assert g.m == g.n - 1
            assert len(bfs_within(g, 0, g.n)) == g.n

    def test_grid_distances(self):
        g = grid_graph(4, 4)
        assert bfs_within(g, 0, 6)[15] == 6


class TestDeterminism:
    def test_seeded_families_are_pure(self):
        specs = [
            GenSpec("random_bounded_degree", {"n": 18, "d": 3}, seed=5),
            GenSpec("random_tree", {"n": 18}, seed=5),
            GenSpec("grid", {"w": 4, "h": 3}),
            GenSpec("spider", {"legs": 4, "len": 2}),
            GenSpec("subset_gadget", {"a": 3}),
        ]
        for spec in specs:
            assert dump_edge_list(generate(spec)) == dump_edge_list(generate(spec))

    def test_different_seeds_differ(self):
        a = generate(GenSpec("random_bounded_degree", {"n": 20, "d": 3}, seed=1))
        b = generate(GenSpec("random_bounded_degree", {"n": 20, "d": 3}, seed=2))
        assert dump_edge_list(a) != dump_edge_list(b)


class TestGenerateDispatch:
    def test_unknown_family(self):
        with pytest.raises(ValueError):
            generate(GenSpec("moebius", {}))

    def test_missing_parameter(self):
        with pytest.raises(ValueError):
            generate(GenSpec("grid", {"w": 3}))

    def test_invalid_parameter(self):
        with pytest.raises(ValueError):
            generate(GenSpec("cycle", {"n": 2}))

    def test_table_sizes_match_built_graphs(self):
        # the vertex count is exact; the edge count bounds every edge-like
        # list the builder makes, which for the stub pairing is 2 per edge
        for name, family in FAMILY_TABLE.items():
            built = 0
            for args in itertools.product((0, 1, 2, 3, 5), repeat=len(family.params)):
                for seed in (0, 1, 2) if family.seeded else (0,):
                    try:
                        g = generate(GenSpec(name, dict(zip(family.params, args)), seed))
                    except ValueError:
                        continue  # outside the family's valid range
                    vertices, edges = family.size(*args)
                    assert vertices == g.n, (name, args)
                    assert edges >= (2 * g.m if name == "random_bounded_degree" else g.m), (name, args)
                    built += 1
            assert built > 0, name
