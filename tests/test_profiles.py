import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rdomkernel.generators import star_graph, subset_gadget_graph
from rdomkernel.graphs import Graph, SizeCapError, ball, bfs_within
from rdomkernel.profiles import (
    SetFamily,
    decode_projection_via_layers,
    distance_profile,
    layered_graph,
    mu_hat_r,
    mu_r,
    nu_hat_r,
    nu_r,
    projection,
    projection_profile,
    sauer_shelah_bound,
    target_traces,
    vc_dimension,
)

from .oracles import (
    brute_counters,
    brute_projection_profile,
    brute_vc_dimension,
    random_graph,
    random_sparse_graph,
    tie_heavy_graphs,
)

COUNTERS = {"nu": nu_r, "nu_hat": nu_hat_r, "mu": mu_r, "mu_hat": mu_hat_r}


def path(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


class TestDistanceProfile:
    def test_p5_middle(self):
        assert distance_profile(path(5), 2, {0, 4}, 2).as_dict() == {0: 2, 4: 2}

    def test_empty_targets(self):
        assert distance_profile(path(5), 2, set(), 3).entries == ()

    def test_c6_mixed(self):
        assert distance_profile(cycle(6), 0, {1, 3, 5}, 2).as_dict() == {1: 1, 5: 1}

    def test_source_in_targets_gets_zero(self):
        assert distance_profile(path(3), 1, {1, 2}, 1).as_dict() == {1: 0, 2: 1}

    def test_equality_ignores_radius_keeps_entries(self):
        a = distance_profile(path(5), 2, {0}, 2)
        b = distance_profile(path(5), 2, {0}, 3)
        assert a == b and hash(a) == hash(b)
        assert a != distance_profile(path(5), 1, {0}, 2)

    def test_reconstructible_from_ball_tuple(self):
        # profile values are exactly the first radius capturing each target
        rng = random.Random(5)
        for _ in range(120):
            g = random_graph(rng, rng.randint(1, 10), rng.random())
            a = {v for v in range(g.n) if rng.random() < 0.4}
            u = rng.randrange(g.n)
            r = rng.randint(0, 3)
            rebuilt = {}
            for i in range(r + 1):
                for v in ball(g, u, i) & a:
                    rebuilt.setdefault(v, i)
            assert rebuilt == distance_profile(g, u, a, r).as_dict()


class TestProjection:
    def test_two_anchor_path_r2(self):
        g = path(4)  # 0-1-2-3, targets at the ends
        assert projection(g, 1, {0, 3}, 2) == {0, 3}

    def test_two_anchor_path_r1(self):
        assert projection(path(4), 1, {0, 3}, 1) == {0}

    def test_blocking_member(self):
        # 0-1-2 all targets; outside vertex 3 hangs off the middle
        g = Graph(4, [(0, 1), (1, 2), (1, 3)])
        assert projection(g, 3, {0, 1, 2}, 2) == {1}

    def test_source_inside_raises(self):
        with pytest.raises(ValueError):
            projection(path(3), 1, {1}, 2)

    @given(st.data())
    def test_projection_within_reachable_targets(self, data):
        rng = random.Random(data.draw(st.integers(0, 10**6)))
        g = random_graph(rng, rng.randint(1, 10), rng.random())
        a = {v for v in range(g.n) if rng.random() < 0.4}
        rest = [v for v in range(g.n) if v not in a]
        if not rest:
            return
        u = rng.choice(rest)
        r = rng.randint(0, 3)
        assert projection(g, u, a, r) <= ball(g, u, r) & a


class TestProjectionProfile:
    def test_two_anchor_path(self):
        assert projection_profile(path(4), 1, {0, 3}, 3).as_dict() == {0: 1, 3: 2}

    def test_unreachable_is_empty(self):
        g = Graph(3, [(0, 1)])
        assert projection_profile(g, 2, {0, 1}, 4).entries == ()

    def test_star_center(self):
        assert projection_profile(star_graph(3), 0, {1, 2}, 1).as_dict() == {1: 1, 2: 1}

    def test_values_at_least_distance(self):
        rng = random.Random(6)
        for _ in range(200):
            g = random_sparse_graph(rng, rng.randint(2, 12))
            a = {v for v in range(g.n) if rng.random() < 0.4}
            rest = [v for v in range(g.n) if v not in a]
            if not rest:
                continue
            u = rng.choice(rest)
            r = rng.randint(1, 3)
            dist = bfs_within(g, u, r)
            for v, length in projection_profile(g, u, a, r).entries:
                assert length >= dist[v]

    def test_matches_path_enumeration_oracle(self):
        rng = random.Random(7)
        for _ in range(150):
            g = random_graph(rng, rng.randint(2, 9), rng.random() * 0.7)
            a = {v for v in range(g.n) if rng.random() < 0.4}
            rest = [v for v in range(g.n) if v not in a]
            if not rest:
                continue
            u = rng.choice(rest)
            r = rng.randint(0, 3)
            assert projection_profile(g, u, a, r).as_dict() == brute_projection_profile(g, u, a, r)


class TestCounters:
    def test_nu_star(self):
        assert nu_r(star_graph(3), {1, 2, 3}, 1) == 4

    def test_empty_targets_all_one(self):
        g = cycle(5)
        assert nu_r(g, set(), 2) == 1
        assert nu_hat_r(g, set(), 2) == 1
        assert mu_r(g, set(), 2) == 1
        assert mu_hat_r(g, set(), 2) == 1

    def test_nu_subset_gadget_hits_power_set(self):
        g = subset_gadget_graph(3)
        assert nu_r(g, {0, 1, 2}, 1) == 8

    def test_nu_hat_p5(self):
        assert nu_hat_r(path(5), {0, 4}, 4) == 5

    def test_mu_hat_star_center_only(self):
        assert mu_hat_r(star_graph(5), {1, 2, 3, 4, 5}, 2) == 1

    def test_cap_raises(self):
        with pytest.raises(SizeCapError):
            nu_r(subset_gadget_graph(4), {0, 1, 2, 3}, 1, cap=7)

    def test_plain_counts_never_exceed_profile_counts(self):
        rng = random.Random(8)
        for _ in range(150):
            g = random_graph(rng, rng.randint(1, 10), rng.random())
            a = {v for v in range(g.n) if rng.random() < 0.5}
            r = rng.randint(1, 3)
            assert nu_r(g, a, r) <= nu_hat_r(g, a, r)
            assert mu_r(g, a, r) <= mu_hat_r(g, a, r)

    def test_out_of_range_target_raises(self):
        # a target or a source of -1 must not stand for vertex n-1
        g = path(3)
        for bad in (-1, 3):
            calls = [lambda counter=counter: counter(g, {0, bad}, 1) for counter in COUNTERS.values()]
            calls += [
                lambda: target_traces(g, {0, bad}, 1),
                lambda: projection(g, bad, {0}, 2),
                lambda: projection_profile(g, bad, {0}, 2),
                lambda: decode_projection_via_layers(g, {0}, 2, bad),
                lambda: layered_graph(g, {bad}, 2),
                lambda: decode_projection_via_layers(g, {bad}, 2, 1),
            ]
            for call in calls:
                with pytest.raises(IndexError, match=f"vertex {bad} out of range for n=3"):
                    call()

    def test_negative_radius_raises(self):
        calls = [lambda counter=counter: counter(path(3), {0}, -1) for counter in COUNTERS.values()]
        calls.append(lambda: target_traces(path(3), set(), -1))
        for call in calls:
            with pytest.raises(ValueError, match="radius must be non-negative, got -1"):
                call()

    def test_match_definitions_on_tie_heavy_graphs(self):
        rng = random.Random(10)
        for g in tie_heavy_graphs(rng, 40, 12, 4):
            some = {v for v in range(g.n) if rng.random() < 0.4}
            for a in (set(), some, set(range(g.n))):
                for r in range(4):
                    expected = brute_counters(g, a, r)
                    for name, counter in COUNTERS.items():
                        count = expected[name]
                        assert counter(g, a, r) == count, (name, g, a, r)
                        assert counter(g, a, r, cap=count) == count
                        with pytest.raises(SizeCapError):
                            counter(g, a, r, cap=count - 1)


class TestLayeredGraph:
    def test_single_edge_one_target(self):
        g = Graph(2, [(0, 1)])
        h, b = layered_graph(g, {1}, 1)
        assert h.n == 4
        assert list(h.edges()) == [(0, 3)]  # (0,0)-(1,1) only; 1 in A blocks the reverse
        assert b == {1, 3}

    def test_all_targets_no_edges(self):
        h, _ = layered_graph(cycle(4), {0, 1, 2, 3}, 2)
        assert h.m == 0

    def test_zero_radius_isolated(self):
        h, _ = layered_graph(cycle(4), {0}, 0)
        assert (h.n, h.m) == (4, 0)

    def test_size(self):
        h, b = layered_graph(path(5), {2}, 3)
        assert h.n == 20
        assert len(b) == 4


class TestDecodeViaLayers:
    def test_two_anchor_path(self):
        assert decode_projection_via_layers(path(4), {0, 3}, 3, 1).as_dict() == {0: 1, 3: 2}

    def test_empty_projection(self):
        g = Graph(3, [(0, 1)])
        assert decode_projection_via_layers(g, {0, 1}, 4, 2).entries == ()

    def test_matches_direct_on_random_graphs(self):
        rng = random.Random(9)
        for _ in range(100):
            g = random_graph(rng, rng.randint(2, 10), rng.random() * 0.6)
            a = {v for v in range(g.n) if rng.random() < 0.4}
            rest = [v for v in range(g.n) if v not in a]
            if not rest:
                continue
            u = rng.choice(rest)
            r = rng.randint(0, 3)
            assert decode_projection_via_layers(g, a, r, u) == projection_profile(g, u, a, r)


class TestVcDimension:
    def test_power_set_of_pair(self):
        fam = SetFamily.from_sets(2, [set(), {0}, {1}, {0, 1}])
        assert vc_dimension(fam) == 2

    def test_star_neighborhoods(self):
        g = star_graph(3)
        fam = SetFamily.from_sets(4, [ball(g, v, 1) for v in range(4)])
        assert vc_dimension(fam) == 2

    def test_singletons(self):
        fam = SetFamily.from_sets(5, [{i} for i in range(5)])
        assert vc_dimension(fam) == 1

    def test_empty_family(self):
        assert vc_dimension(SetFamily.from_sets(3, [])) == -1

    def test_truncation_reports_cap_plus_one(self):
        full = SetFamily.from_sets(4, [set(s) for s in _powerset(range(4))])
        assert vc_dimension(full, cap=2) == 3

    def test_cap_guard(self):
        with pytest.raises(ValueError):
            vc_dimension(SetFamily.from_sets(1, [{0}]), cap=13)

    def test_negative_cap_is_rejected(self):
        # a search that may not test even the empty set has no answer; -1
        # is reserved for the empty family
        for cap in (-1, -2):
            for fam in (SetFamily.from_sets(1, [{0}]), SetFamily.from_sets(3, [])):
                with pytest.raises(ValueError, match=f"got {cap}"):
                    vc_dimension(fam, cap=cap)
        assert vc_dimension(SetFamily.from_sets(1, [set(), {0}]), cap=0) == 1

    def test_matches_exhaustive_oracle(self):
        rng = random.Random(10)
        for _ in range(120):
            n = rng.randint(1, 6)
            sets = [frozenset(v for v in range(n) if rng.random() < 0.5) for _ in range(rng.randint(0, 10))]
            fam = SetFamily.from_sets(n, sets)
            assert vc_dimension(fam) == brute_vc_dimension(fam)


def _powerset(items):
    import itertools

    items = list(items)
    for k in range(len(items) + 1):
        yield from itertools.combinations(items, k)


class TestSauerShelah:
    def test_example(self):
        assert sauer_shelah_bound(4, 2) == 11

    def test_dimension_zero(self):
        assert sauer_shelah_bound(9, 0) == 1

    def test_saturates_at_power_set(self):
        assert sauer_shelah_bound(5, 5) == 32
        assert sauer_shelah_bound(5, 9) == 32

    def test_bounds_random_families(self):
        rng = random.Random(11)
        for _ in range(120):
            n = rng.randint(1, 7)
            sets = [frozenset(v for v in range(n) if rng.random() < 0.5) for _ in range(rng.randint(1, 12))]
            fam = SetFamily.from_sets(n, sets)
            assert len(fam) <= sauer_shelah_bound(n, vc_dimension(fam))
