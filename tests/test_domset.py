import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rdomkernel.domset import (
    DominationInstance,
    _coverage,
    _greedy_cover,
    bg_approx_dominator,
    enumerate_min_dominators,
    exact_min_dominator,
    greedy_dominator,
    greedy_scattered_lower_bound,
    is_dominator,
)
from rdomkernel.generators import grid_graph, star_graph
from rdomkernel.graphs import Graph, SizeCapError

from .oracles import (
    brute_all_min_dominators,
    brute_greedy_cover,
    brute_min_dominator_size,
    floyd_warshall,
    random_sparse_graph,
    tie_heavy_graphs,
)


def path(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def all_of(g):
    return frozenset(range(g.n))


class TestInstance:
    def test_rejects_zero_radius(self):
        with pytest.raises(ValueError):
            DominationInstance(path(3), frozenset({0}), 0)

    def test_rejects_alien_dominatee(self):
        with pytest.raises(ValueError):
            DominationInstance(path(3), frozenset({5}), 1)

    def test_range_errors_name_the_vertex(self):
        with pytest.raises(ValueError, match="dominatee -2 out of range for n=3"):
            DominationInstance(path(3), frozenset({0, -2, 1}), 1)
        with pytest.raises(ValueError, match="dominatee 3 out of range for n=3"):
            DominationInstance(path(3), frozenset({0, 3, 1}), 1)
        with pytest.raises(ValueError, match="dominatee 0 out of range for n=0"):
            DominationInstance(Graph(0), frozenset({0}), 1)

    def test_empty_and_full_sets_pass(self):
        assert DominationInstance(path(3), frozenset(), 1).z == frozenset()
        assert DominationInstance(Graph(0), frozenset(), 1).z == frozenset()
        assert DominationInstance(path(3), [2, 0, 1], 1).z == frozenset(range(3))


class TestIsDominator:
    def test_star_center(self):
        g = star_graph(4)
        assert is_dominator(DominationInstance(g, all_of(g), 1), {0})

    def test_p5_pair(self):
        assert is_dominator(DominationInstance(path(5), all_of(path(5)), 1), {1, 3})

    def test_empty_dominator_fails(self):
        assert not is_dominator(DominationInstance(path(3), all_of(path(3)), 1), set())

    def test_empty_dominatees_trivial(self):
        assert is_dominator(DominationInstance(path(3), frozenset(), 1), set())

    @given(st.data())
    def test_dominatees_dominate_themselves(self, data):
        rng = random.Random(data.draw(st.integers(0, 10**6)))
        g = random_sparse_graph(rng, rng.randint(1, 12))
        z = frozenset(v for v in range(g.n) if rng.random() < 0.6)
        assert is_dominator(DominationInstance(g, z, rng.randint(1, 3)), z)


class TestExactMinDominator:
    def test_p5_r1(self):
        result = exact_min_dominator(DominationInstance(path(5), all_of(path(5)), 1))
        assert len(result.dominator) == 2
        assert result.optimal

    def test_p5_r2(self):
        result = exact_min_dominator(DominationInstance(path(5), all_of(path(5)), 2))
        assert result.dominator == {2}

    def test_empty_dominatees(self):
        result = exact_min_dominator(DominationInstance(path(5), frozenset(), 1))
        assert result.dominator == frozenset()

    def test_cap(self):
        g = Graph(70)
        with pytest.raises(SizeCapError):
            exact_min_dominator(DominationInstance(g, frozenset(), 1))

    def test_matches_subset_enumeration(self):
        rng = random.Random(41)
        for _ in range(80):
            g = random_sparse_graph(rng, rng.randint(2, 9))
            z = frozenset(v for v in range(g.n) if rng.random() < 0.7)
            r = rng.randint(1, 3)
            inst = DominationInstance(g, z, r)
            got = exact_min_dominator(inst)
            assert len(got.dominator) == brute_min_dominator_size(g, z, r)
            assert is_dominator(inst, got.dominator)

    def test_at_least_scattered_bound(self):
        rng = random.Random(42)
        for _ in range(80):
            g = random_sparse_graph(rng, rng.randint(2, 12))
            z = frozenset(v for v in range(g.n) if rng.random() < 0.8)
            r = rng.randint(1, 2)
            inst = DominationInstance(g, z, r)
            assert len(exact_min_dominator(inst).dominator) >= len(greedy_scattered_lower_bound(inst))


    def test_size_matches_enumeration_with_heavy_ties(self):
        rng = random.Random(44)
        for g in tie_heavy_graphs(rng, 60, max_n=12, max_side=3):
            z = frozenset(v for v in range(g.n) if rng.random() < 0.7)
            inst = DominationInstance(g, z, rng.randint(1, 3))
            got = exact_min_dominator(inst).dominator
            optima = brute_all_min_dominators(g, z, inst.r)
            assert got in optima
            assert got in enumerate_min_dominators(inst)


class TestEnumerateMinDominators:
    def test_single_edge(self):
        g = Graph(2, [(0, 1)])
        assert enumerate_min_dominators(DominationInstance(g, all_of(g), 1)) == [
            frozenset({0}),
            frozenset({1}),
        ]

    def test_star_leaves(self):
        g = star_graph(3)
        assert enumerate_min_dominators(DominationInstance(g, frozenset({1, 2, 3}), 1)) == [
            frozenset({0})
        ]

    def test_empty(self):
        assert enumerate_min_dominators(DominationInstance(path(3), frozenset(), 1)) == [frozenset()]

    def test_cap(self):
        with pytest.raises(SizeCapError):
            enumerate_min_dominators(DominationInstance(Graph(25), frozenset(), 1))

    def test_matches_oracle_and_sizes_agree(self):
        rng = random.Random(43)
        for _ in range(40):
            g = random_sparse_graph(rng, rng.randint(2, 8))
            z = frozenset(v for v in range(g.n) if rng.random() < 0.7)
            r = rng.randint(1, 2)
            inst = DominationInstance(g, z, r)
            got = enumerate_min_dominators(inst)
            assert sorted(map(sorted, got)) == sorted(map(sorted, brute_all_min_dominators(g, z, r)))
            opt = len(exact_min_dominator(inst).dominator)
            assert all(len(d) == opt for d in got)


class TestScatteredLowerBound:
    def test_p5(self):
        inst = DominationInstance(path(5), all_of(path(5)), 1)
        witness = greedy_scattered_lower_bound(inst)
        assert witness == {0, 3}

    def test_singleton(self):
        inst = DominationInstance(path(5), frozenset({2}), 2)
        assert greedy_scattered_lower_bound(inst) == {2}

    def test_clique(self):
        g = Graph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
        assert greedy_scattered_lower_bound(DominationInstance(g, all_of(g), 2)) == {0}

    def test_pairwise_distance_fuzz(self):
        from .oracles import floyd_warshall

        rng = random.Random(44)
        for _ in range(100):
            g = random_sparse_graph(rng, rng.randint(2, 12))
            z = frozenset(v for v in range(g.n) if rng.random() < 0.7)
            r = rng.randint(1, 2)
            witness = sorted(greedy_scattered_lower_bound(DominationInstance(g, z, r)))
            dist = floyd_warshall(g)
            for i, u in enumerate(witness):
                for v in witness[i + 1 :]:
                    assert dist[u][v] > 2 * r


class TestBgApproxDominator:
    def test_star(self):
        g = star_graph(10)
        inst = DominationInstance(g, all_of(g), 1)
        result = bg_approx_dominator(inst)
        assert is_dominator(inst, result.dominator)
        assert len(result.dominator) <= math.ceil(math.log(11)) + 1

    def test_empty(self):
        result = bg_approx_dominator(DominationInstance(path(3), frozenset(), 1))
        assert result.dominator == frozenset()
        assert result.optimal

    def test_grid_within_log_factor(self):
        g = grid_graph(6, 6)
        inst = DominationInstance(g, all_of(g), 1)
        result = bg_approx_dominator(inst)
        assert is_dominator(inst, result.dominator)
        opt = len(exact_min_dominator(inst).dominator)
        assert len(result.dominator) <= opt * (1 + math.log(g.n))

    def test_always_valid_fuzz(self):
        rng = random.Random(45)
        for _ in range(150):
            g = random_sparse_graph(rng, rng.randint(2, 15))
            z = frozenset(v for v in range(g.n) if rng.random() < 0.8)
            r = rng.randint(1, 3)
            inst = DominationInstance(g, z, r)
            assert is_dominator(inst, bg_approx_dominator(inst).dominator)

    def test_ratio_bound_against_exact(self):
        rng = random.Random(46)
        for _ in range(60):
            g = random_sparse_graph(rng, rng.randint(2, 18))
            z = frozenset(v for v in range(g.n) if rng.random() < 0.8)
            r = rng.randint(1, 3)
            inst = DominationInstance(g, z, r)
            approx = len(bg_approx_dominator(inst).dominator)
            opt = len(exact_min_dominator(inst).dominator)
            assert approx <= opt * (1 + math.log(len(z) + 1))

    def test_both_names_return_the_greedy_cover(self):
        rng = random.Random(49)
        for trial in range(300):
            base = random_sparse_graph(rng, rng.randint(1, 16))
            relabel = list(range(base.n))
            rng.shuffle(relabel)
            g = Graph(base.n, [(relabel[u], relabel[v]) for u, v in base.edges()])
            z = frozenset(v for v in range(g.n) if rng.random() < 0.7) if trial % 10 else frozenset()
            r = rng.randint(1, 3)
            inst = DominationInstance(g, z, r)
            expected = brute_greedy_cover(g, z, r)
            bound = len(greedy_scattered_lower_bound(inst))
            for solver in (greedy_dominator, bg_approx_dominator):
                result = solver(inst)
                assert result.dominator == expected
                assert result.optimal == (len(expected) == bound)

    def test_greedy_cover_with_heavy_ties(self):
        rng = random.Random(50)
        for g in tie_heavy_graphs(rng, 120, max_n=60, max_side=12):
            z = frozenset(v for v in range(g.n) if rng.random() < 0.7) if rng.random() < 0.5 else all_of(g)
            inst = DominationInstance(g, z, rng.randint(1, 3))
            assert greedy_dominator(inst).dominator == brute_greedy_cover(g, z, inst.r)

    def test_counter_cover_picks_in_mask_scan_order(self):
        # the pick sequence equals a full scan over the oracles' coverage
        # masks, on graphs too large for the distance-matrix oracle
        rng = random.Random(51)
        graphs = [grid_graph(20, 17), star_graph(300)]
        graphs += [random_sparse_graph(rng, rng.randint(150, 300)) for _ in range(4)]
        for g in graphs:
            for r in (1, 2, 3):
                for z in (all_of(g), frozenset(v for v in range(g.n) if rng.random() < 0.4)):
                    inst = DominationInstance(g, z, r)
                    zs, cover = _coverage(inst)
                    uncovered = (1 << len(zs)) - 1
                    expected = []
                    while uncovered:
                        pick = max(range(g.n), key=lambda v: ((cover[v] & uncovered).bit_count(), -v))
                        expected.append(pick)
                        uncovered &= ~cover[pick]
                    assert _greedy_cover(inst) == expected

    def test_greedy_method_valid(self):
        rng = random.Random(47)
        for _ in range(60):
            g = random_sparse_graph(rng, rng.randint(2, 15))
            z = frozenset(v for v in range(g.n) if rng.random() < 0.8)
            inst = DominationInstance(g, z, rng.randint(1, 2))
            assert is_dominator(inst, greedy_dominator(inst).dominator)
