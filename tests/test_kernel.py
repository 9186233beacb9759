import random
import tracemalloc

import pytest

from rdomkernel import kernel, sparsity
from rdomkernel.domset import (
    DominationInstance,
    enumerate_min_dominators,
    exact_min_dominator,
    is_dominator,
)
from rdomkernel.generators import cycle_graph, grid_graph, path_graph, spider_graph, star_graph
from rdomkernel.graphs import induced_subgraph, is_r_independent
from rdomkernel.kernel import (
    CoreState,
    annotate_to_plain,
    build_kernel_from_core,
    find_core,
    find_redundant_vertex,
    kernelize,
)
from rdomkernel.profiles import distance_profile, projection, projection_profile
from rdomkernel.sparsity import default_closure_threshold

from .oracles import (
    brute_dominates,
    fan_and_star,
    floyd_warshall,
    linked_stars,
    one_removal_per_analysis_core,
    random_sparse_graph,
)


def full_instance(g, r, k=0):
    return DominationInstance(g, frozenset(range(g.n)), r, k)


def fresh_state(g, r, k=0):
    return CoreState(full_instance(g, r, k), set(range(g.n)))


def core_property_holds(g, z, r):
    """Every minimum dominator of z must already dominate the whole graph."""
    inst = DominationInstance(g, frozenset(z), r)
    whole = full_instance(g, r)
    return all(is_dominator(whole, d) for d in enumerate_min_dominators(inst))


def check_trace_step(g, r, step, checked_closures):
    # the recorded witness must satisfy everything the exchange argument uses;
    # checked_closures holds the closures of g whose postcondition already held
    assert step.removed in step.exchange_class
    assert step.exchange_class <= step.profile_class
    profs = {projection_profile(g, v, step.closure, 3 * r).entries for v in step.exchange_class}
    assert len(profs) == 1
    keep = set(range(g.n)) - set(step.separator)
    sub, idmap = induced_subgraph(g, keep)
    assert is_r_independent(sub, {idmap.to_sub[v] for v in step.exchange_class}, 2 * r)
    sprofs = {distance_profile(g, v, step.separator, r).entries for v in step.exchange_class}
    assert len(sprofs) == 1
    buy = projection(g, step.removed, step.closure, 3 * r) | set(step.separator)
    assert step.buy == buy
    assert len(step.exchange_class) >= len(buy) + 2
    # the closure postcondition depends on the closure alone, and the steps
    # of one batch share their closure
    if step.closure not in checked_closures:
        t = default_closure_threshold(g)
        outside = (u for u in range(g.n) if u not in step.closure)
        assert all(len(projection(g, u, step.closure, 3 * r)) < t for u in outside)
        checked_closures.add(step.closure)


class TestFindRedundantVertex:
    def test_big_star_drops_a_leaf(self):
        g = star_graph(50)
        steps = find_redundant_vertex(fresh_state(g, 1, 1))
        assert steps is not None
        assert 1 <= steps[0].removed <= 50
        # same structure at oracle scale: the shrunk set is still a core
        small = star_graph(15)
        small_steps = find_redundant_vertex(fresh_state(small, 1, 1))
        assert small_steps is not None
        assert core_property_holds(small, set(range(16)) - {small_steps[0].removed}, 1)

    def test_tiny_core_has_nothing_to_remove(self):
        g = path_graph(6)
        state = CoreState(full_instance(g, 1), {0, 5})
        assert find_redundant_vertex(state) is None

    def test_spider_drops_a_leg_vertex(self):
        g = spider_graph(30, 2)
        steps = find_redundant_vertex(fresh_state(g, 2, 5))
        assert steps is not None
        assert steps[0].removed != 0
        small = spider_graph(8, 2)
        small_steps = find_redundant_vertex(fresh_state(small, 2, 5))
        assert small_steps is not None
        z_after = set(range(small.n)) - {small_steps[0].removed}
        assert core_property_holds(small, z_after, 2)
        inst = full_instance(small, 2)
        after = DominationInstance(small, frozenset(z_after), 2)
        assert len(exact_min_dominator(inst).dominator) == len(exact_min_dominator(after).dominator)

    def test_trace_steps_carry_valid_justification(self):
        for g, r in [(star_graph(18), 1), (star_graph(14), 2), (spider_graph(6, 2), 1)]:
            state = find_core(full_instance(g, r, k=g.n), target=0)
            checked = set()
            for step in state.trace:
                check_trace_step(g, r, step, checked)

    def test_steps_with_closure_hubs_carry_valid_justification(self):
        hubbed = 0
        for g, r in [(linked_stars(6, 6), 1), (linked_stars(7, 6), 2)]:
            state = find_core(full_instance(g, r, k=g.n), target=0)
            checked = set()
            for step in state.trace:
                check_trace_step(g, r, step, checked)
                hubbed += step.closure != step.dominator
            assert len(state.trace) >= 24
        assert hubbed >= 20, hubbed


class TestFindCore:
    def test_star_shrinks_to_target(self):
        g = star_graph(50)
        state = find_core(full_instance(g, 1, 1), target=5)
        assert state.rejection is None
        assert len(state.z) <= 5
        assert len(state.trace) == g.n - len(state.z)

    def test_verified_star_run(self):
        g = star_graph(15)
        state = find_core(full_instance(g, 1, 1), target=3, verify=True)
        assert state.rejection is None
        assert len(state.trace) > 0

    def test_zero_budget_rejects_immediately(self):
        g = path_graph(3)
        state = find_core(full_instance(g, 1, 0))
        assert state.rejection is not None
        assert len(state.rejection.witness) == 1

    def test_p20_rejection_witness(self):
        g = path_graph(20)
        state = find_core(full_instance(g, 1, 2))
        assert state.rejection is not None
        witness = sorted(state.rejection.witness)
        assert len(witness) >= 3
        dist = floyd_warshall(g)
        for i, u in enumerate(witness):
            for v in witness[i + 1 :]:
                assert dist[u][v] > 2

    def test_core_strictly_shrinks(self):
        g = star_graph(30)
        state = find_core(full_instance(g, 1, 1), target=0)
        assert len(state.trace) == len({s.removed for s in state.trace})
        assert len(state.z) + len(state.trace) == g.n


class TestBatchedRemovals:
    def test_one_analysis_removes_a_batch(self, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return find_redundant_vertex(*args, **kwargs)

        monkeypatch.setattr(kernel, "find_redundant_vertex", counting)
        cases = [
            (star_graph(50), 1, 48, 3),
            (spider_graph(30, 2), 2, 56, 3),
            # one projection class per star, all certified by the same analysis
            (linked_stars(6, 6), 1, 24, 2),
            (linked_stars(7, 6), 2, 28, 3),
        ]
        for g, r, removed, analyses in cases:
            calls.clear()
            state = find_core(full_instance(g, r, k=g.n), target=0)
            assert len(state.trace) == removed
            assert len(calls) <= analyses

    def test_replayed_steps_are_certified(self):
        rng = random.Random(61)
        cases = [(star_graph(m), r, True) for m in range(2, 40, 3) for r in (1, 2, 3)]
        cases += [(spider_graph(legs, 2), r, True) for legs in range(2, 14) for r in (1, 2, 3)]
        cases += [(spider_graph(legs, 3), r, True) for legs in range(2, 9) for r in (1, 2, 3)]
        # on random graphs a batch can end with a smaller core than the
        # unbatched loop reaches (two r = 3 trees of the acceptance corpus
        # do), so only the per-step certificates are checked
        cases += [
            (random_sparse_graph(rng, rng.randint(4, 24)), rng.randint(1, 3), False) for _ in range(120)
        ]
        removals = 0
        for g, r, same_core in cases:
            state = find_core(full_instance(g, r, k=g.n), target=0)
            dist = floyd_warshall(g)
            z = set(range(g.n))
            checked = set()
            for step in state.trace:
                check_trace_step(g, r, step, checked)
                # batching relies on X still dominating the core before each removal
                assert brute_dominates(g, step.dominator, z, r, dist)
                z.remove(step.removed)
            assert z == state.z
            removals += len(state.trace)
            if same_core:
                assert state.z == one_removal_per_analysis_core(full_instance(g, r, k=g.n))
        assert removals >= 500, removals


class TestEveryClassCertified:
    def test_one_analysis_certifies_disjoint_classes_in_pick_order(self):
        cases = [
            (linked_stars(6, 6), 1),
            (linked_stars(7, 6), 2),
            (spider_graph(12, 2), 2),
            (fan_and_star(9, 8), 1),
        ]
        many = 0
        for g, r in cases:
            steps = find_redundant_vertex(fresh_state(g, r, k=g.n))
            assert steps
            many += len(steps) > 1
            classes = [step.profile_class for step in steps]
            assert len(set(classes)) == len(classes)
            for i, step in enumerate(steps):
                for later in steps[i + 1 :]:
                    assert step.exchange_class.isdisjoint(later.exchange_class)
            # largest class first, ties to the class holding the smallest vertex
            picks = [(-len(c), min(c)) for c in classes]
            assert picks == sorted(picks)
            dist = floyd_warshall(g)
            checked = set()
            for step in steps:
                assert step.removed == min(step.exchange_class)
                check_trace_step(g, r, step, checked)
                assert brute_dominates(g, step.dominator, range(g.n), r, dist)
        assert many == 3, many

    def test_a_smaller_class_passes_where_the_largest_fails(self):
        for path_len, leaves in [(6, 5), (9, 8)]:
            g = fan_and_star(path_len, leaves)
            steps = find_redundant_vertex(fresh_state(g, 1, k=g.n))
            closure = steps[0].closure
            classes: dict[tuple, set] = {}
            for u in range(g.n):
                if u not in closure:
                    classes.setdefault(projection_profile(g, u, closure, 3).entries, set()).add(u)
            largest = max(classes.values(), key=len)
            assert largest == set(range(1, path_len + 1))
            assert all(step.profile_class != largest for step in steps)
            # the oracle re-checks every removal
            state = find_core(full_instance(g, 1, k=g.n), target=0, verify=True)
            assert state.verify == "oracle"
            assert len(state.trace) == leaves - 2
            z = set(range(g.n))
            dist = floyd_warshall(g)
            checked = set()
            for step in state.trace:
                check_trace_step(g, 1, step, checked)
                assert brute_dominates(g, step.dominator, z, 1, dist)
                z.remove(step.removed)
            assert z == state.z


class TestAmortisedAnalysis:
    def replay_cases(self):
        rng = random.Random(64)
        cases = [(star_graph(m), r) for m in range(2, 40, 6) for r in (1, 2, 3)]
        cases += [(spider_graph(legs, 2), r) for legs in range(2, 14, 3) for r in (1, 2, 3)]
        cases += [(linked_stars(6, 6), 1), (linked_stars(7, 6), 2)]
        cases += [(random_sparse_graph(rng, rng.randint(4, 24)), rng.randint(1, 3)) for _ in range(60)]
        return cases

    def test_closure_side_classes_match_per_vertex_profiles(self, monkeypatch):
        # the classes come from the closure's own search, in r_closure
        traced = sparsity.target_traces
        calls = []

        def checking(g, a, r, **kwargs):
            traces = traced(g, a, r, **kwargs)
            calls.append(1)
            for u in range(g.n):
                if u not in a:
                    assert traces[u] == projection_profile(g, u, a, r).entries
            return traces

        def per_vertex(g, a, r, **kwargs):
            return [() if u in a else projection_profile(g, u, a, r).entries for u in range(g.n)]

        removals = 0
        for g, r in self.replay_cases():
            inst = full_instance(g, r, k=g.n)
            monkeypatch.setattr(sparsity, "target_traces", checking)
            state = find_core(inst, target=0)
            monkeypatch.setattr(sparsity, "target_traces", per_vertex)
            assert find_core(inst, target=0).trace == state.trace
            monkeypatch.undo()
            removals += len(state.trace)
        assert removals >= 300, removals
        assert len(calls) >= 100, len(calls)

    def test_separator_side_subclasses_match_per_vertex_profiles(self, monkeypatch):
        extract = kernel.quasi_wide_extract
        checked = []

        def checking(g, a, r, **kwargs):
            qw = extract(g, a, r, **kwargs)
            # the kernel extracts at 2r and subclasses at r
            keys = kernel.separator_profiles(g, qw.separator, qw.scattered, r // 2)
            assert set(keys) == set(qw.scattered)
            for v in qw.scattered:
                assert keys[v] == distance_profile(g, v, qw.separator, r // 2).entries
            checked.append(bool(qw.separator))
            return qw

        def per_vertex(g, separator, members, r):
            return {v: distance_profile(g, v, separator, r).entries for v in members}

        removals = 0
        for g, r in self.replay_cases():
            inst = full_instance(g, r, k=g.n)
            monkeypatch.setattr(kernel, "quasi_wide_extract", checking)
            state = find_core(inst, target=0)
            monkeypatch.undo()
            monkeypatch.setattr(kernel, "separator_profiles", per_vertex)
            assert find_core(inst, target=0).trace == state.trace
            monkeypatch.undo()
            removals += len(state.trace)
        assert removals >= 300, removals
        assert len(checked) >= 90 and sum(checked) >= 50, (len(checked), sum(checked))

    def test_core_side_kernel_matches_per_vertex_profiles(self, monkeypatch):
        def per_vertex(g, a, r, **kwargs):
            assert kwargs == {"distances": True, "avoiding": True}
            return [() if u in a else projection_profile(g, u, a, r).entries for u in range(g.n)]

        rng = random.Random(65)
        shrunk = 0
        for g, r in self.replay_cases():
            z = find_core(full_instance(g, r, k=g.n), target=0).z
            shrunk += len(z) < g.n
            for core in (z, set(rng.sample(range(g.n), rng.randint(1, g.n)))):
                result = build_kernel_from_core(g, core, r)
                monkeypatch.setattr(kernel, "target_traces", per_vertex)
                assert build_kernel_from_core(g, core, r) == result
                monkeypatch.undo()
        assert shrunk >= 30, shrunk

    def test_kernel_build_skips_the_search_for_a_full_core(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("no vertex lies outside the core")

        monkeypatch.setattr(kernel, "target_traces", refuse)
        g = grid_graph(5, 4)
        result = build_kernel_from_core(g, range(g.n), 2)
        assert result.graph is g
        assert result.stats["classes"] == 0


class TestAnalysisMemory:
    def test_first_analysis_memory_grows_linearly(self):
        # one target-0 analysis at Z = V on grids of n = 10^4 and 4 * 10^4 at
        # r = 2; a coverage bitmask per vertex of up to |Z| bits grows the
        # peak about 13x, the r-ball lists and gain counters about 4x
        peaks = {}
        for side in (100, 200):
            state = fresh_state(grid_graph(side, side), 2, k=side * side)
            tracemalloc.start()
            try:
                find_redundant_vertex(state)
                peaks[side] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[200] <= 5 * peaks[100], peaks


class TestBuildKernelFromCore:
    def test_star_collapses_leaf_classes(self):
        g = star_graph(100)
        z = {0, 1}
        result = build_kernel_from_core(g, z, 1)
        assert result.graph.n <= 4
        kernel_inst = DominationInstance(result.graph, result.dominatees, 1)
        orig_inst = DominationInstance(g, frozenset(z), 1)
        assert len(exact_min_dominator(kernel_inst).dominator) == len(
            exact_min_dominator(orig_inst, cap=128).dominator
        )

    def test_full_core_is_identity(self):
        g = cycle_graph(8)
        result = build_kernel_from_core(g, set(range(8)), 2)
        assert result.graph == g
        assert result.dominatees == frozenset(range(8))

    def test_c12_spread_targets_r2(self):
        g = cycle_graph(12)
        z = {0, 3, 6, 9}
        result = build_kernel_from_core(g, z, 2)
        kernel_inst = DominationInstance(result.graph, result.dominatees, 2)
        orig_inst = DominationInstance(g, frozenset(z), 2)
        assert len(exact_min_dominator(kernel_inst).dominator) == len(
            exact_min_dominator(orig_inst).dominator
        )

    def test_kernel_is_induced_subgraph(self):
        g = star_graph(40)
        result = build_kernel_from_core(g, {0, 1, 2}, 1)
        back = result.idmap.to_orig
        for u, v in result.graph.edges():
            assert g.has_edge(back[u], back[v])
        sub, _ = induced_subgraph(g, set(back))
        assert sub == result.graph
        assert result.dominatees <= set(range(result.graph.n))


class TestKernelize:
    def test_star_answer_preserved(self):
        g = star_graph(100)
        result = kernelize(full_instance(g, 1, 1), target=5)
        assert result.verdict == "kernel"
        assert result.graph.n <= 10
        kernel_inst = DominationInstance(result.graph, result.dominatees, 1)
        assert len(exact_min_dominator(kernel_inst).dominator) == 1

    def test_tiny_instance_passes_through(self):
        g = path_graph(4)
        result = kernelize(full_instance(g, 1, 2), target=10)
        assert result.verdict == "kernel"
        assert result.graph == g
        assert result.dominatees == frozenset(range(4))

    def test_spider_family_answers(self):
        for k in (2, 4, 8):
            g = spider_graph(k, 2)
            opt = len(exact_min_dominator(full_instance(g, 1)).dominator)
            assert opt == k
            result = kernelize(full_instance(g, 1, k), target=0)
            assert result.verdict == "kernel"
            kernel_inst = DominationInstance(result.graph, result.dominatees, 1)
            assert len(exact_min_dominator(kernel_inst).dominator) == opt

    def test_rejection_propagates(self):
        g = path_graph(20)
        result = kernelize(full_instance(g, 1, 2))
        assert result.verdict == "rejected(2)"
        assert result.graph is None
        assert len(result.witness) > 2

    def test_verify_mode_recorded(self):
        small, large = star_graph(15), star_graph(30)
        assert kernelize(full_instance(small, 1, 1), target=3).stats["verify"] == "off"
        assert kernelize(full_instance(small, 1, 1), target=3, verify=True).stats["verify"] == "oracle"
        assert kernelize(full_instance(large, 1, 1), target=3, verify=True).stats["verify"] == "skipped"
        rejected = kernelize(full_instance(path_graph(30), 1, 2), verify=True)
        assert rejected.verdict == "rejected(2)"
        assert rejected.stats["verify"] == "skipped"

    def test_end_to_end_equivalence_sampled(self):
        rng = random.Random(51)
        for _ in range(30):
            g = random_sparse_graph(rng, rng.randint(4, 14))
            r = rng.randint(1, 2)
            opt = len(exact_min_dominator(full_instance(g, r)).dominator)
            for k in (opt - 1, opt, opt + 1):
                if k < 0:
                    continue
                result = kernelize(full_instance(g, r, k), target=0)
                if result.verdict != "kernel":
                    assert opt > k
                    continue
                kernel_inst = DominationInstance(result.graph, result.dominatees, r)
                kernel_opt = len(exact_min_dominator(kernel_inst).dominator)
                assert (kernel_opt <= k) == (opt <= k)


class TestAnnotateToPlain:
    def test_p3_single_dominatee(self):
        g = path_graph(3)
        plain = annotate_to_plain(g, {0}, 1)
        assert sorted(plain.edges()) == [(0, 1), (1, 2), (1, 3), (2, 3), (3, 4)]
        size = len(exact_min_dominator(full_instance(plain, 1)).dominator)
        z_size = len(exact_min_dominator(DominationInstance(g, frozenset({0}), 1)).dominator)
        assert size == z_size + 1

    def test_full_dominatees_pendant_path(self):
        g = cycle_graph(6)
        for r in (1, 2):
            plain = annotate_to_plain(g, set(range(6)), r)
            assert plain.n == 6 + r + 1
            before = len(exact_min_dominator(full_instance(g, r)).dominator)
            after = len(exact_min_dominator(full_instance(plain, r)).dominator)
            assert after == before + 1

    def test_r2_vertex_count(self):
        g = path_graph(5)
        z = {0, 1}
        plain = annotate_to_plain(g, z, 2)
        assert plain.n == g.n + 1 + 1 + (g.n - len(z)) * 1 + 1

    def test_rejects_radius_below_one(self):
        for r in (0, -1):
            with pytest.raises(ValueError, match=f"radius must be at least 1, got {r}"):
                annotate_to_plain(path_graph(3), {0}, r)

    def test_duality_fuzz(self):
        rng = random.Random(52)
        for _ in range(30):
            g = random_sparse_graph(rng, rng.randint(2, 10))
            z = {v for v in range(g.n) if rng.random() < 0.6}
            r = rng.randint(1, 2)
            plain = annotate_to_plain(g, z, r)
            annotated = len(exact_min_dominator(DominationInstance(g, frozenset(z), r)).dominator)
            whole = len(exact_min_dominator(full_instance(plain, r)).dominator)
            assert whole == annotated + 1
