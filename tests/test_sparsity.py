import random

import pytest

import rdomkernel.sparsity
from rdomkernel.generators import grid_graph, random_bounded_degree_graph, star_graph
from rdomkernel.graphs import Graph, bfs_within, induced_subgraph, is_r_independent
from rdomkernel.profiles import projection, projection_profile
from rdomkernel.sparsity import (
    default_closure_threshold,
    quasi_wide_extract,
    r_closure,
    short_paths_closure,
)

from .oracles import (
    brute_quasi_wide_extract,
    brute_r_closure,
    brute_short_paths_closure,
    floyd_warshall,
    linked_stars,
    random_sparse_graph,
    tie_heavy_graphs,
)


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
    def test_rejects_negative_radius(self):
        g = grid_graph(5, 5)
        for call in (
            lambda: quasi_wide_extract(g, range(25), -1, 1),
            lambda: short_paths_closure(g, {0, 7}, -1),
            # an empty X is no excuse for a bad radius
            lambda: short_paths_closure(g, set(), -1),
            lambda: r_closure(g, {0, 7}, -1, 4),
        ):
            with pytest.raises(ValueError, match="radius must be non-negative, got -1"):
                call()

    def test_rejects_negative_budget(self):
        with pytest.raises(ValueError, match="separator budget must be non-negative, got -1"):
            quasi_wide_extract(grid_graph(5, 5), range(25), 2, 3, s_max=-1)

    def test_rejects_out_of_range_targets(self):
        g = grid_graph(5, 5)
        for bad in (-1, 25):
            for call in (
                lambda: quasi_wide_extract(g, [3, bad, 7], 2, 1),
                lambda: short_paths_closure(g, [3, bad, 7], 2),
                lambda: r_closure(g, [3, bad, 7], 2, 4),
            ):
                with pytest.raises(IndexError, match=f"vertex {bad} out of range for n=25"):
                    call()

    def test_empty_targets_fall_short(self):
        result = quasi_wide_extract(grid_graph(5, 5), [], 2, 1)
        assert (result.separator, result.scattered, result.ok) == (frozenset(), frozenset(), False)

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

    def test_matches_rescan_every_vertex_oracle(self):
        # many equal scores, so the lowest-id tie-break picks most hubs
        rng = random.Random(37)
        picks = 0
        for g in tie_heavy_graphs(rng, 160, max_n=30, max_side=6):
            a = [v for v in range(g.n) if rng.random() < 0.6] or [0]
            r = rng.randint(1, 4)
            m = rng.choice([len(a), rng.randint(1, len(a))])
            result = quasi_wide_extract(g, a, r, m)
            assert (result.separator, result.scattered, result.rounds, result.ok) == brute_quasi_wide_extract(
                g, a, r, m
            )
            picks += result.rounds - 1
        assert picks >= 200, picks


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

    def test_matches_recount_every_round_oracle(self):
        # inputs that gain hubs, so the local recount after each pick is
        # what decides the later picks
        rng = random.Random(35)
        cases = []
        for centers, leaves, r in ((6, 6, 3), (7, 6, 6)):
            g = linked_stars(centers, leaves)
            cases.append((g, set(range(centers)), r, default_closure_threshold(g)))
        for side, r in ((12, 2), (12, 3), (10, 4), (8, 5), (8, 6)):
            g = grid_graph(side, rng.randint(side - 2, side))
            cases.append((g, {v for v in range(g.n) if rng.random() < 0.15}, r, rng.randint(2, 4)))
        for _ in range(6):
            g = random_bounded_degree_graph(rng.randint(20, 60), 3, rng.randrange(1 << 30))
            cases.append((g, {v for v in range(g.n) if rng.random() < 0.15}, rng.randint(2, 4), rng.randint(2, 4)))
        gained = 0
        for g, x, r, t in cases:
            result = r_closure(g, x, r, t)
            assert (result.closure, result.added) == brute_r_closure(g, x, r, t)
            gained += bool(result.added)
        assert gained >= len(cases) - 2

    def test_traces_are_the_final_closures_profiles(self, monkeypatch):
        # one search when no hub joins; one more for the final closure when
        # some do
        rng = random.Random(36)
        searched = rdomkernel.sparsity.target_traces
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return searched(*args, **kwargs)

        monkeypatch.setattr(rdomkernel.sparsity, "target_traces", counting)
        cases = [(linked_stars(6, 6), set(range(6)), 3, 2), (grid_graph(10, 9), {0, 44, 89}, 2, 2)]
        for _ in range(120):
            g = random_sparse_graph(rng, rng.randint(2, 14))
            cases.append((g, {v for v in range(g.n) if rng.random() < 0.3}, rng.randint(1, 3), rng.randint(2, 5)))
        gained = 0
        for g, x, r, t in cases:
            calls.clear()
            result = r_closure(g, x, r, t)
            assert len(calls) == 1 + bool(result.added)
            gained += bool(result.added)
            assert len(result.traces) == g.n
            for u in range(g.n):
                if u not in result.closure:
                    assert result.traces[u] == projection_profile(g, u, result.closure, r).entries
        assert 10 <= gained <= len(cases) - 10, gained

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

    def test_whole_vertex_set_searches_no_ball(self, monkeypatch):
        calls = []
        bfs = rdomkernel.sparsity.bounded_bfs

        def counting(*args):
            calls.append(args)
            return bfs(*args)

        monkeypatch.setattr(rdomkernel.sparsity, "bounded_bfs", counting)
        rng = random.Random(65)
        graphs = [grid_graph(rng.randint(1, 6), rng.randint(1, 6)) for _ in range(10)]
        graphs += [random_sparse_graph(rng, rng.randint(1, 20)) for _ in range(10)]
        for g in graphs:
            for r in (0, 1, 2, 3):
                calls.clear()
                closed = short_paths_closure(g, range(g.n), r)
                assert calls == []
                assert closed == brute_short_paths_closure(g, range(g.n), r)
                if g.n > 1:
                    # one vertex short of V, every member's ball is searched
                    short_paths_closure(g, range(1, g.n), r)
                    assert len(calls) == g.n - 1
