import random
import tracemalloc

import pytest

from rdomkernel.generators import grid_graph, random_tree_graph
from rdomkernel.graphs import Graph, SizeCapError
from rdomkernel.orderings import (
    Ordering,
    degeneracy_order,
    wcol_exact,
    wcol_of_order,
    wreach,
    wreach_all,
)

from .oracles import (
    brute_degeneracy_order,
    brute_wcol_exact,
    brute_wreach,
    random_graph,
    random_sparse_graph,
    relabelled,
    tie_heavy_graphs,
)


def path(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def complete(n):
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


class TestOrdering:
    def test_sequence_round_trip(self):
        order = Ordering.from_sequence([2, 0, 1])
        assert order.sequence() == (2, 0, 1)
        assert order.rank(2) == 0

    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            Ordering((0, 0, 1))


class TestNegativeRadius:
    def test_every_entry_point_rejects_it(self):
        g = grid_graph(5, 5)
        order = degeneracy_order(g)
        small = path(3)
        for call in (
            lambda: wreach(g, order, 0, -1),
            lambda: wreach_all(g, order, -1),
            lambda: wcol_of_order(g, order, -1),
            lambda: wcol_of_order(Graph(0), Ordering(()), -1),
            lambda: wcol_exact(small, -1),
            lambda: wcol_exact(Graph(0), -1),
        ):
            with pytest.raises(ValueError, match="radius must be non-negative, got -1"):
                call()


class TestVertexRange:
    def test_wreach_rejects_a_bad_vertex(self):
        # -1 must not stand for vertex n-1
        g = path(5)
        order = degeneracy_order(g)
        for bad in (-1, 5):
            with pytest.raises(IndexError, match=f"vertex {bad} out of range for n=5"):
                wreach(g, order, bad, 2)


class TestOrderLength:
    def test_every_entry_point_rejects_a_wrong_length(self):
        g = path(4)
        for seq in ([1, 0], list(range(6))):
            order = Ordering.from_sequence(seq)
            for call in (
                lambda: wreach(g, order, 0, 2),
                lambda: wreach_all(g, order, 2),
                lambda: wcol_of_order(g, order, 2),
            ):
                with pytest.raises(ValueError, match=f"order has {len(seq)} vertices, graph has 4"):
                    call()


class TestWreach:
    def test_p3_identity_order(self):
        assert wreach(path(3), Ordering.from_sequence([0, 1, 2]), 2, 2) == {0, 1, 2}

    def test_zero_radius(self):
        assert wreach(path(3), Ordering.from_sequence([0, 1, 2]), 1, 0) == {1}

    def test_p3_middle_first(self):
        assert wreach(path(3), Ordering.from_sequence([1, 0, 2]), 2, 2) == {1, 2}

    def test_contains_self_and_only_smaller(self):
        rng = random.Random(21)
        for _ in range(150):
            g = random_graph(rng, rng.randint(1, 10), rng.random())
            seq = list(range(g.n))
            rng.shuffle(seq)
            order = Ordering.from_sequence(seq)
            v = rng.randrange(g.n)
            r = rng.randint(0, 3)
            out = wreach(g, order, v, r)
            assert v in out
            assert all(order.rank(u) <= order.rank(v) for u in out)

    def test_matches_path_enumeration(self):
        rng = random.Random(22)
        for _ in range(200):
            g = random_graph(rng, rng.randint(1, 9), rng.random() * 0.7)
            seq = list(range(g.n))
            rng.shuffle(seq)
            order = Ordering.from_sequence(seq)
            v = rng.randrange(g.n)
            r = rng.randint(0, 3)
            assert wreach(g, order, v, r) == brute_wreach(g, order, v, r)

    def test_agrees_with_batch_computation(self):
        rng = random.Random(23)
        for _ in range(80):
            g = random_graph(rng, rng.randint(1, 10), rng.random())
            seq = list(range(g.n))
            rng.shuffle(seq)
            order = Ordering.from_sequence(seq)
            r = rng.randint(0, 3)
            batch = wreach_all(g, order, r)
            for v in range(g.n):
                assert wreach(g, order, v, r) == batch[v]


class TestWcolOfOrder:
    def test_p3_identity(self):
        assert wcol_of_order(path(3), Ordering.from_sequence([0, 1, 2]), 2) == 3

    def test_edgeless(self):
        assert wcol_of_order(Graph(4), Ordering.from_sequence(range(4)), 3) == 1

    def test_p3_middle_first(self):
        assert wcol_of_order(path(3), Ordering.from_sequence([1, 0, 2]), 2) == 2

    def test_matches_brute_force(self):
        rng = random.Random(30)
        graphs = [Graph(0), Graph(1), Graph(5)]
        graphs += tie_heavy_graphs(rng, 40, max_n=14, max_side=5)
        graphs += [relabelled(rng, random_sparse_graph(rng, rng.randint(1, 14))) for _ in range(20)]
        for g in graphs:
            seq = list(range(g.n))
            rng.shuffle(seq)
            for order in (Ordering.from_sequence(seq), degeneracy_order(g)):
                for r in range(5):
                    expected = max((len(brute_wreach(g, order, v, r)) for v in range(g.n)), default=0)
                    assert wcol_of_order(g, order, r) == expected

    def test_memory_does_not_grow_with_the_sets(self):
        # on the 100x100 grid at r=4 the sets of wreach_all peak at about 21 MB
        g = grid_graph(100, 100)
        order = degeneracy_order(g)
        peaks = {}
        for r in (2, 4):
            tracemalloc.start()
            try:
                wcol_of_order(g, order, r)
                peaks[r] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[4] <= 3_000_000
        assert abs(peaks[4] - peaks[2]) <= 0.1 * peaks[2]

    def test_monotone_in_radius(self):
        rng = random.Random(24)
        for _ in range(100):
            g = random_graph(rng, rng.randint(1, 10), rng.random())
            seq = list(range(g.n))
            rng.shuffle(seq)
            order = Ordering.from_sequence(seq)
            r = rng.randint(0, 3)
            assert wcol_of_order(g, order, r) <= wcol_of_order(g, order, r + 1)


class TestWcolExact:
    def test_p3(self):
        value, order = wcol_exact(path(3), 2)
        assert value == 2
        assert wcol_of_order(path(3), order, 2) == 2

    def test_k3(self):
        assert wcol_exact(complete(3), 1)[0] == 3

    def test_single_edge(self):
        assert wcol_exact(Graph(2, [(0, 1)]), 1)[0] == 2

    def test_cap(self):
        with pytest.raises(SizeCapError):
            wcol_exact(Graph(10), 1)

    def test_witness_achieves_value(self):
        rng = random.Random(25)
        for _ in range(40):
            g = random_graph(rng, rng.randint(1, 6), rng.random())
            r = rng.randint(1, 3)
            value, order = wcol_exact(g, r)
            assert wcol_of_order(g, order, r) == value

    def test_matches_full_permutation_scan(self):
        rng = random.Random(26)
        for _ in range(25):
            g = random_graph(rng, rng.randint(1, 5), rng.random())
            r = rng.randint(1, 2)
            assert wcol_exact(g, r)[0] == brute_wcol_exact(g, r)[0]
            assert wcol_exact(g, r)[1].sequence() == brute_wcol_exact(g, r)[1]


class TestDegeneracyOrder:
    def test_tree_gives_two(self):
        for seed in range(5):
            g = random_tree_graph(12, seed)
            assert wcol_of_order(g, degeneracy_order(g), 1) <= 2

    def test_k4(self):
        assert wcol_of_order(complete(4), degeneracy_order(complete(4)), 1) == 4

    def test_grid(self):
        g = grid_graph(4, 4)
        assert wcol_of_order(g, degeneracy_order(g), 1) <= 3

    def test_heuristic_upper_bounds_exact(self):
        rng = random.Random(27)
        for _ in range(40):
            g = random_graph(rng, rng.randint(1, 7), rng.random() * 0.6)
            r = rng.randint(1, 2)
            exact, _ = wcol_exact(g, r)
            assert exact <= wcol_of_order(g, degeneracy_order(g), r)

    def test_heuristic_bound_at_search_cap(self):
        rng = random.Random(28)
        for _ in range(8):
            g = random_graph(rng, 9, 0.25)
            for r in (1, 2):
                exact, _ = wcol_exact(g, r)
                assert exact <= wcol_of_order(g, degeneracy_order(g), r)

    def test_sequence_matches_linear_scan(self):
        rng = random.Random(29)
        for g in tie_heavy_graphs(rng, 300, max_n=40, max_side=8):
            assert degeneracy_order(g).sequence() == brute_degeneracy_order(g)
