import copy
import pickle
import random
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rdomkernel import graphs, profiles
from rdomkernel.generators import grid_graph, random_tree_graph, star_graph, subset_gadget_graph
from rdomkernel.graphs import Graph, SizeCapError, ball, bfs_within, bounded_bfs, dump_edge_list, load_edge_list
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
    relabelled,
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

    def test_cap_raises(self, monkeypatch):
        with pytest.raises(SizeCapError):
            nu_r(subset_gadget_graph(4), {0, 1, 2, 3}, 1, cap=7)
        # every count exceeds a negative cap: bad input, raised before any
        # search (a search would call None here)
        monkeypatch.setattr(profiles, "_sweep", None)
        for counter in COUNTERS.values():
            for cap in (-1, -2):
                with pytest.raises(ValueError, match=f"cap must be non-negative, got {cap}"):
                    counter(subset_gadget_graph(4), {0, 1, 2, 3}, 1, cap=cap)

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
                lambda: projection(g, 1, {0, bad}, 2),
                lambda: projection_profile(g, 1, {0, bad}, 2),
                lambda: distance_profile(g, 1, {0, bad}, 2),
            ]
            for call in calls:
                with pytest.raises(IndexError, match=f"vertex {bad} out of range for n=3"):
                    call()

    def test_negative_radius_raises(self):
        calls = [lambda counter=counter: counter(path(3), {0}, -1) for counter in COUNTERS.values()]
        calls.append(lambda: target_traces(path(3), set(), -1))
        calls += [lambda query=query: query(path(3), 0, {2}, -1) for query in (projection, projection_profile, distance_profile)]
        calls += [lambda: layered_graph(path(3), {2}, -1), lambda: decode_projection_via_layers(path(3), {2}, -1, 0)]
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
                        if count:  # a cap of -1 is bad input (test_cap_raises)
                            with pytest.raises(SizeCapError):
                                counter(g, a, r, cap=count - 1)


def avoiding_reference(g, u, a, r):
    """u's projection and projection-profile entries from one search from u."""
    targets = frozenset(a)
    dist = bounded_bfs(g, u, r, targets)
    entries = tuple(sorted((t, d) for t, d in dist.items() if t in targets))
    return frozenset(t for t, _ in entries), entries


def warm(g, a, r):
    """Ask the vertices outside A for their projections, round after round,
    until the memo holds the target-side projections of (g, A, r)."""
    outside = [v for v in range(g.n) if v not in a]
    for _ in range(20):
        for v in outside:
            projection(g, v, a, r)
        if profiles._memo.projections is not None:
            return
    raise AssertionError("no sweep finished")


def counting_searches(monkeypatch):
    """Record the vertices reached by each search from a source, and the
    limit of each sweep tried with whether it finished."""
    asked, tried = [], []
    search, sweep = profiles.bounded_bfs, profiles._limited_sweep

    def counting_search(g, source, r, stop=()):
        dist = search(g, source, r, stop)
        if not isinstance(stop, profiles._Meter):
            asked.append(len(dist))
        return dist

    def counting_sweep(g, targets, r, limit):
        traces = sweep(g, targets, r, limit)
        tried.append((limit, traces is not None))
        return traces

    monkeypatch.setattr(profiles, "bounded_bfs", counting_search)
    monkeypatch.setattr(profiles, "_limited_sweep", counting_sweep)
    return asked, tried


class TestProjectionMemo:
    """Repeated projections onto one graph and (A, r) switch to one search
    per target once their own searches have cost about as much; nothing
    outside can tell."""

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_interleaved_calls_match_single_source_searches(self, data):
        rng = random.Random(data.draw(st.integers(0, 10**6)))
        keys = []
        for _ in range(2):
            if rng.random() < 0.5:
                g = relabelled(rng, random_sparse_graph(rng, rng.randint(2, 16)))
            else:
                g = list(tie_heavy_graphs(rng, 4, 14, 4))[rng.randrange(4)]
            for _ in range(rng.randint(1, 2)):
                keys.append((g, frozenset(rng.sample(range(g.n), rng.randint(0, g.n - 1))), rng.randint(0, 4)))
        for _ in range(rng.randint(1, 8)):
            g, a, r = rng.choice(keys)
            outside = [v for v in range(g.n) if v not in a]
            # runs of up to 2n calls: many of them reach a finished sweep
            for _ in range(rng.randint(1, 2 * g.n)):
                u = rng.choice(outside)
                given_a = rng.choice((tuple(sorted(a)), set(a), frozenset(a)))
                want_set, want_entries = avoiding_reference(g, u, a, r)
                if rng.random() < 0.5:
                    assert projection(g, u, given_a, r) == want_set, (g, u, a, r)
                else:
                    assert projection_profile(g, u, given_a, r).entries == want_entries, (g, u, a, r)

    def test_errors_do_not_depend_on_the_memo(self):
        # a warm key skips the target and radius checks, so a call that
        # changes only the source must raise what a cold one raises
        a = (2, 4)
        for hot in (False, True):
            for query in (projection, projection_profile):
                g = path(5)
                if hot:
                    warm(g, a, 3)
                for bad_source in (2, 4):
                    with pytest.raises(ValueError, match=f"projection source {bad_source} must lie outside"):
                        query(g, bad_source, a, 3)
                for bad in (5, -1):
                    with pytest.raises(IndexError, match=f"vertex {bad} out of range for n=5"):
                        query(g, bad, a, 3)
                for targets, bad in (((2, 99), 99), ((2, -1), -1)):
                    with pytest.raises(IndexError, match=f"vertex {bad} out of range for n=5"):
                        query(g, 0, targets, 3)
                for targets in ((2,), a):
                    with pytest.raises(ValueError, match="radius must be non-negative, got -1"):
                        query(g, 0, targets, -1)
                assert projection(g, 0, a, 3) == {2}
                assert projection_profile(g, 3, a, 3).entries == ((2, 1), (4, 1))

    def test_single_calls_search_once_and_sweeps_stay_within_the_searches(self, monkeypatch):
        asked, tried = counting_searches(monkeypatch)
        # one call, even onto the centre of a large star, is one search
        for query in (projection, projection_profile):
            g = star_graph(10**5)
            asked.clear()
            query(g, 7, (0,), 1)
            assert asked == [2] and tried == []
        # leaves asking about the centre, or pendants asking about a leaf
        # next to it, never pay for the centre's row: the sweeps are tried,
        # and each gives up before it scans more than the searches reached
        n = 10**5
        g = Graph(n + 51, [(0, v) for v in range(1, n + 1)] + [(1, v) for v in range(n + 1, n + 51)])
        for sources, a, r in ((range(2, 502), (0,), 1), (range(n + 1, n + 51), (1,), 2)):
            asked.clear()
            tried.clear()
            for u in sources:
                assert projection(g, u, a, r) == set(a)
            assert asked == [2] * len(sources) and profiles._memo.projections is None
            assert tried and not any(done for _, done in tried)
            assert sum(limit for limit, _ in tried) <= 2 * sum(asked)
        # on a grid, fewer than |A| calls try nothing, the sweep finishes,
        # and every later call is a lookup
        g = grid_graph(20, 20)
        a = (3, 30, 55, 78, 99, 250, 399)
        asked.clear()
        tried.clear()
        for u in (0, 1, 2, 4, 5, 6):
            projection(g, u, a, 3)
        assert len(asked) == 6 and tried == []
        warm(g, a, 3)
        assert len(asked) < 400 and sum(limit for limit, _ in tried) <= 2 * sum(asked), (asked, tried)
        assert tried[-1][1] and not any(done for _, done in tried[:-1])
        asked.clear()
        for u in range(100, 200):
            projection(g, u, a, 3)
        assert asked == []

    def test_projection_profiles_search_once_per_call_and_leave_the_memo_alone(self, monkeypatch):
        g = grid_graph(20, 20)
        a = frozenset((3, 30, 55, 78, 99, 250, 399))
        warm(g, a, 3)
        memo = profiles._memo
        held = (memo.key, memo.calls, memo.reached, memo.limit, memo.projections)
        search, sources = profiles.bounded_bfs, []

        def counting_search(g, source, r, stop=()):
            sources.append(source)
            return search(g, source, r, stop)

        monkeypatch.setattr(profiles, "bounded_bfs", counting_search)
        outside = [v for v in range(g.n) if v not in a]
        # the memo's own key, then another one, each asked round after round
        for b, r in ((a, 3), (a - {3}, 2)):
            for _ in range(3):
                for v in outside:
                    want = avoiding_reference(g, v, b, r)[1]
                    sources.clear()
                    assert projection_profile(g, v, b, r).entries == want
                    assert sources == [v]
        assert profiles._memo is memo
        assert (memo.key, memo.calls, memo.reached, memo.limit, memo.projections) == held

    def test_copies_and_pickles_are_other_graphs(self):
        fresh = grid_graph(6, 6)
        a = frozenset({0, 7, 20, 35})
        for g in (grid_graph(6, 6), load_edge_list(dump_edge_list(fresh))):
            warm(g, a, 3)
            for clone in (copy.copy, copy.deepcopy, lambda g: pickle.loads(pickle.dumps(g))):
                h = clone(g)
                assert type(h) is Graph and h == fresh and hash(h) == hash(fresh) and (h.n, h.m) == (fresh.n, fresh.m)
                want = [projection(fresh, v, a, 3) for v in range(1, 7)]
                assert [projection(h, v, a, 3) for v in range(1, 7)] == want
                assert profiles._memo.graph() is h

    def test_a_projection_sweep_builds_the_rows_once(self, monkeypatch):
        build = graphs._adjacency
        builds = []

        def counting(n, top, us, vs, presorted):
            builds.append(us)
            return build(n, top, us, vs, presorted)

        texts = [dump_edge_list(h) for h in (grid_graph(20, 20), random_tree_graph(300, 5))]
        monkeypatch.setattr(graphs, "_adjacency", counting)
        for text in texts:
            g = load_edge_list(text)
            builds.clear()
            a = frozenset(range(0, g.n, 37))
            warm(g, a, 4)
            for v in range(g.n):
                if v not in a:
                    projection_profile(g, v, a, 4)
            assert len(builds) == 1

    def test_another_graph_with_the_same_key_gets_its_own_answers(self):
        g, h = path(6), cycle(6)
        warm(g, (0,), 3)
        assert projection(h, 5, (0,), 3) == {0} and projection(g, 5, (0,), 3) == frozenset()

    def test_the_memo_lets_its_graph_go(self):
        g = grid_graph(30, 30)
        warm(g, frozenset(range(0, 900, 97)), 3)
        assert profiles._memo.graph() is g
        del g
        assert profiles._memo is None

    def test_threads_sharing_graphs_get_right_answers(self):
        # a reset that races a sweep can only lose a count, never mix keys
        g, h = random_tree_graph(400, 2), grid_graph(20, 20)
        keys = [(g, frozenset(range(0, 400, 13)), 3), (g, frozenset(range(5, 400, 29)), 4), (h, frozenset(range(0, 400, 31)), 3)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        errors = []

        def ask(i):
            rng = random.Random(i)
            try:
                for _ in range(300):
                    f, a, r = keys[0] if rng.random() < 0.6 else rng.choice(keys)
                    u = rng.choice([v for v in range(f.n) if v not in a])
                    if projection(f, u, a, r) != avoiding_reference(f, u, a, r)[0]:
                        errors.append((u, r))
            except Exception as exc:  # recorded and asserted on below
                errors.append(exc)

        try:
            threads = [threading.Thread(target=ask, args=(i,)) for i in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []


class TestTargetTraces:
    """Every vertex's trace, each target's own included, against one search
    per vertex: ball membership, ``distance_profile``, and
    ``projection_profile``. A target's avoiding trace is its projection
    profile on the other targets plus its own (target, 0): the search from
    each target has that target in its stop set and still expands it."""

    @staticmethod
    def expected(g, a, r, distances, avoiding):
        out = []
        for v in range(g.n):
            if not avoiding:
                entries = distance_profile(g, v, a, r).entries
                assert tuple(t for t, _ in entries) == tuple(sorted(a & ball(g, v, r)))
            elif v in a:
                entries = tuple(sorted(projection_profile(g, v, a - {v}, r).entries + ((v, 0),)))
            else:
                entries = projection_profile(g, v, a, r).entries
            out.append(entries if distances else tuple(t for t, _ in entries))
        return out

    def test_path_with_a_target_in_the_middle(self):
        g, a = path(5), {0, 2, 4}
        assert target_traces(g, a, 4, distances=True) == [
            ((0, 0), (2, 2), (4, 4)),
            ((0, 1), (2, 1), (4, 3)),
            ((0, 2), (2, 0), (4, 2)),
            ((0, 3), (2, 1), (4, 1)),
            ((0, 4), (2, 2), (4, 0)),
        ]
        assert target_traces(g, a, 4, distances=True, avoiding=True) == [
            ((0, 0), (2, 2)),
            ((0, 1), (2, 1)),
            ((0, 2), (2, 0), (4, 2)),
            ((2, 1), (4, 1)),
            ((2, 2), (4, 0)),
        ]
        assert target_traces(g, a, 1, avoiding=True) == [(0,), (0, 2), (2,), (2, 4), (4,)]

    def test_matches_per_vertex_searches(self):
        rng = random.Random(23)
        graphs = list(tie_heavy_graphs(rng, 40, 14, 4))
        graphs += [relabelled(rng, random_sparse_graph(rng, rng.randint(1, 16))) for _ in range(20)]
        # isolated vertices, alone and beside edges
        graphs += [Graph(1), Graph(4), relabelled(rng, Graph(9, [(0, 1), (1, 2), (2, 3), (5, 6)]))]
        for distances in (False, True):
            for avoiding in (False, True):
                assert target_traces(Graph(0), set(), 2, distances=distances, avoiding=avoiding) == []
        blocked = 0
        for g in graphs:
            sets = [set(), set(rng.sample(range(g.n), rng.randint(1, g.n))), set(range(g.n))]
            sets.append({v for v in range(g.n) if rng.random() < 0.6})
            # adjacent targets: each is reached, and not expanded, by the
            # other's avoiding search
            sets += [set(edge) for edge in list(g.edges())[:2]]
            for a in sets:
                for r in range(4):
                    for distances in (False, True):
                        plain = target_traces(g, a, r, distances=distances)
                        assert plain == self.expected(g, a, r, distances, False), (g, a, r, distances)
                        avoiding = target_traces(g, a, r, distances=distances, avoiding=True)
                        assert avoiding == self.expected(g, a, r, distances, True), (g, a, r, distances)
                        blocked += avoiding != plain
        # the stop set cut some path in many cases
        assert blocked >= 200, blocked


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
        # nor is there a ground set of negative size, even for the empty set
        for size in (-1, -2):
            for sets in ([], [set()]):
                with pytest.raises(ValueError, match=f"ground size must be non-negative, got {size}"):
                    SetFamily.from_sets(size, sets)

    def test_matches_exhaustive_oracle(self):
        # every cap, and the same family spread one-to-one over a ground set
        # wider than a machine word; the spread elements are congruent mod
        # 64, so a mask cut to one word would merge them
        rng = random.Random(10)
        sizes, wide_members, truncated = set(), 0, 0
        for _ in range(120):
            n = rng.randint(0, 6)
            count = rng.randint(0, 10) if rng.random() < 0.5 else rng.randint(0, 3 << n)
            sets = [frozenset(v for v in range(n) if rng.random() < 0.5) for _ in range(count)]
            fam = SetFamily.from_sets(n, sets)
            dim = brute_vc_dimension(fam)
            offset = rng.randrange(64)
            spread = [offset + 64 * v for v in rng.sample(range(n), n)]
            wide = max(65, 64 * n) + rng.randrange(10)
            spread_fam = SetFamily.from_sets(wide, [{spread[v] for v in s} for s in sets])
            assert vc_dimension(fam) == vc_dimension(spread_fam) == dim
            for cap in range(13):
                assert vc_dimension(fam, cap) == vc_dimension(spread_fam, cap) == min(dim, cap + 1), (fam, cap)
                truncated += dim > cap
            sizes.add(n)
            wide_members += any(max(s, default=0) >= 64 for s in spread_fam.members)
        assert {0, 1} <= sizes
        assert wide_members >= 40 and truncated >= 100, (wide_members, truncated)


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
