import random

import pytest

import rdomkernel.sparsity
from rdomkernel.generators import grid_graph, star_graph
from rdomkernel.graphs import Graph, bfs_within, induced_subgraph, is_r_independent
from rdomkernel.profiles import projection
from rdomkernel.sparsity import (
    default_closure_threshold,
    quasi_wide_extract,
    r_closure,
    short_paths_closure,
)

from .oracles import brute_short_paths_closure, floyd_warshall, random_sparse_graph


def path(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def scattered_in_deleted_graph(g, result, r):
    keep = set(range(g.n)) - set(result.separator)
    sub, idmap = induced_subgraph(g, keep)
    mapped = {idmap.to_sub[v] for v in result.scattered}
    return is_r_independent(sub, mapped, r)


class TestQuasiWideExtract:
    def test_star_separates_center(self):
        g = star_graph(10)
        leaves = set(range(1, 11))
        result = quasi_wide_extract(g, leaves, 2, 10)
        assert result.ok
        assert result.separator == {0}
        assert result.scattered == frozenset(leaves)

    def test_already_independent(self):
        g = path(9)
        targets = {0, 4, 8}
        result = quasi_wide_extract(g, targets, 2, 3)
        assert result.ok
        assert result.separator == frozenset()
        assert result.scattered == frozenset(targets)

    def test_p5_contract_only(self):
        g = path(5)
        result = quasi_wide_extract(g, {0, 2, 4}, 2, 3)
        assert result.scattered <= {0, 2, 4} - result.separator
        assert scattered_in_deleted_graph(g, result, 2)

    def test_failure_carries_best(self):
        g = path(6)
        result = quasi_wide_extract(g, set(range(6)), 5, 6, s_max=0)
        assert not result.ok
        assert len(result.scattered) >= 1
        assert result.separator == frozenset()

    def test_postcondition_fuzz(self):
        rng = random.Random(31)
        for _ in range(150):
            g = random_sparse_graph(rng, rng.randint(2, 14))
            a = {v for v in range(g.n) if rng.random() < 0.6}
            if not a:
                continue
            r = rng.randint(1, 3)
            m = rng.randint(1, len(a))
            result = quasi_wide_extract(g, a, r, m)
            assert result.scattered <= frozenset(a) - result.separator
            assert scattered_in_deleted_graph(g, result, r)
            if result.ok:
                assert len(result.scattered) >= m


class TestRClosure:
    def test_star_absorbs_center(self):
        g = star_graph(5)
        result = r_closure(g, set(range(1, 6)), 1, 2)
        assert result.closure == frozenset(range(6))
        assert result.added == (0,)

    def test_full_vertex_set_is_fixed(self):
        g = cycle(6)
        result = r_closure(g, set(range(6)), 2, 3)
        assert result.closure == frozenset(range(6))
        assert result.added == ()

    def test_p5_cascades(self):
        g = path(5)
        result = r_closure(g, {0, 4}, 4, 2)
        assert result.closure == frozenset(range(5))
        for u in range(g.n):
            if u not in result.closure:
                assert len(projection(g, u, result.closure, 4)) < 2

    def test_threshold_guard(self):
        with pytest.raises(ValueError):
            r_closure(path(3), {0}, 1, 1)

    def test_postcondition_fuzz(self):
        rng = random.Random(32)
        for _ in range(150):
            g = random_sparse_graph(rng, rng.randint(2, 14))
            x = {v for v in range(g.n) if rng.random() < 0.3}
            r = rng.randint(1, 3)
            t = rng.randint(2, 5)
            result = r_closure(g, x, r, t)
            assert frozenset(x) <= result.closure
            for u in range(g.n):
                if u not in result.closure:
                    assert len(projection(g, u, result.closure, r)) < t

    def test_raising_threshold_never_enlarges(self):
        rng = random.Random(33)
        for _ in range(60):
            g = random_sparse_graph(rng, rng.randint(2, 12))
            x = {v for v in range(g.n) if rng.random() < 0.3}
            r = rng.randint(1, 3)
            t1 = rng.randint(2, 4)
            t2 = t1 + rng.randint(1, 3)
            assert r_closure(g, x, r, t2).closure <= r_closure(g, x, r, t1).closure

    def test_default_threshold_tracks_density(self):
        assert default_closure_threshold(Graph(3)) == 4
        assert default_closure_threshold(path(5)) == 6
        dense = Graph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
        assert default_closure_threshold(dense) == 4 * 2 + 2


class TestShortPathsClosure:
    def test_c6(self):
        g = cycle(6)
        closed = short_paths_closure(g, {0, 3}, 3)
        assert closed == {0, 1, 2, 3}
        sub, idmap = induced_subgraph(g, closed)
        dist = bfs_within(sub, idmap.to_sub[0], 3)
        assert dist[idmap.to_sub[3]] == 3

    def test_far_apart_unchanged(self):
        g = path(9)
        assert short_paths_closure(g, {0, 8}, 3) == {0, 8}

    def test_p5_fills_gaps(self):
        assert short_paths_closure(path(5), {0, 2, 4}, 2) == {0, 1, 2, 3, 4}

    def test_distances_preserved_fuzz(self):
        rng = random.Random(34)
        for _ in range(150):
            g = random_sparse_graph(rng, rng.randint(2, 14))
            x = {v for v in range(g.n) if rng.random() < 0.35}
            r = rng.randint(1, 3)
            closed = short_paths_closure(g, x, r)
            assert x <= closed
            dist = floyd_warshall(g)
            sub, idmap = induced_subgraph(g, closed)
            sub_dist = floyd_warshall(sub)
            pairs = 0
            for u in sorted(x):
                for v in sorted(x):
                    if u < v and dist[u][v] <= r:
                        pairs += 1
                        assert sub_dist[idmap.to_sub[u]][idmap.to_sub[v]] == dist[u][v]
            assert len(closed) <= len(x) + max(0, r - 1) * pairs

    def test_matches_all_pairs_definition(self):
        # Relabelled grids have many tied shortest paths, so a closure that
        # walked back from the wrong end of a pair would differ here.
        rng = random.Random(35)
        for i in range(300):
            if i % 2:
                h = random_sparse_graph(rng, rng.randint(1, 20))
            else:
                h = grid_graph(rng.randint(1, 6), rng.randint(1, 6))
            perm = list(range(h.n))
            rng.shuffle(perm)
            g = Graph(h.n, [(perm[u], perm[v]) for u, v in h.edges()])
            r = rng.randint(1, 4)
            for x in ({v for v in range(g.n) if rng.random() < 0.3}, set(range(g.n))):
                assert short_paths_closure(g, x, r) == brute_short_paths_closure(g, x, r)

    def test_closed_balls_skip_walk_backs(self, monkeypatch):
        calls = []
        walk_back = rdomkernel.sparsity._walk_back

        def counting(*args):
            calls.append(args)
            return walk_back(*args)

        monkeypatch.setattr(rdomkernel.sparsity, "_walk_back", counting)
        g = grid_graph(30, 30)
        assert short_paths_closure(g, range(g.n), 2) == set(range(g.n))
        assert calls == []
