import itertools
import random
import tracemalloc

import pytest

from rdomkernel import graphs, kernel, sparsity
from rdomkernel.domset import (
    DominationInstance,
    enumerate_min_dominators,
    exact_min_dominator,
    greedy_scattered_lower_bound,
    is_dominator,
)
from rdomkernel.generators import (
    cycle_graph,
    grid_graph,
    path_graph,
    random_tree_graph,
    spider_graph,
    star_graph,
)
from rdomkernel.graphs import dump_edge_list, induced_subgraph, is_r_independent, load_edge_list
from rdomkernel.kernel import (
    annotate_to_plain,
    build_kernel_from_core,
    find_core,
    find_redundant_vertex,
    kernelize,
)
from rdomkernel.profiles import distance_profile, projection_profile
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
    buy = {t for t, _ in projection_profile(g, step.removed, step.closure, 3 * r).entries} | set(step.separator)
    assert step.buy == buy
    assert len(step.exchange_class) >= len(buy) + 2
    # the closure postcondition depends on the closure alone, and the steps
    # of one batch share their closure
    if step.closure not in checked_closures:
        t = default_closure_threshold(g)
        outside = (u for u in range(g.n) if u not in step.closure)
        assert all(len(projection_profile(g, u, step.closure, 3 * r).entries) < t for u in outside)
        checked_closures.add(step.closure)


class TestFindRedundantVertex:
    def test_big_star_drops_a_leaf(self):
        g = star_graph(50)
        steps = find_redundant_vertex(full_instance(g, 1, 1))
        assert steps is not None
        assert 1 <= steps[0].removed <= 50
        # same structure at oracle scale: the shrunk set is still a core
        small = star_graph(15)
        small_steps = find_redundant_vertex(full_instance(small, 1, 1))
        assert small_steps is not None
        assert core_property_holds(small, set(range(16)) - {small_steps[0].removed}, 1)

    def test_tiny_core_has_nothing_to_remove(self):
        g = path_graph(6)
        for z in ({0, 5}, set()):
            assert find_redundant_vertex(DominationInstance(g, frozenset(z), 1)) is None

    def test_analysis_depends_on_the_instance_alone(self):
        # the analysis keeps no state between calls: the same core gives the same steps
        for g, r in [(star_graph(20), 1), (linked_stars(6, 6), 1), (spider_graph(12, 2), 2)]:
            inst = DominationInstance(g, frozenset(range(1, g.n)), r, g.n)
            first = find_redundant_vertex(inst)
            assert first is not None
            assert all(step.exchange_class <= inst.z for step in first)
            assert find_redundant_vertex(inst) == first

    def test_spider_drops_a_leg_vertex(self):
        g = spider_graph(30, 2)
        steps = find_redundant_vertex(full_instance(g, 2, 5))
        assert steps is not None
        assert steps[0].removed != 0
        small = spider_graph(8, 2)
        small_steps = find_redundant_vertex(full_instance(small, 2, 5))
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
        assert state.witness is None
        assert len(state.z) <= 5
        assert len(state.trace) == g.n - len(state.z)

    def test_verified_star_run(self):
        g = star_graph(15)
        state = find_core(full_instance(g, 1, 1), target=3, verify=True)
        assert state.witness is None
        assert len(state.trace) > 0

    def test_negative_target_raises(self):
        inst = full_instance(path_graph(30), 1, 30)
        with pytest.raises(ValueError, match="core target must be non-negative, got -5"):
            find_core(inst, target=-5)
        with pytest.raises(ValueError, match="core target must be non-negative, got -1"):
            kernelize(inst, target=-1)

    def test_zero_budget_rejects_immediately(self):
        g = path_graph(3)
        state = find_core(full_instance(g, 1, 0))
        assert state.witness is not None
        assert len(state.witness) == 1

    def test_p20_rejection_witness(self):
        g = path_graph(20)
        state = find_core(full_instance(g, 1, 2))
        assert state.witness is not None
        witness = sorted(state.witness)
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

    def test_core_is_inst_z_until_the_first_removal(self):
        # a run that rejects or removes nothing copies Z neither into a set
        # nor back into a frozenset
        rejected = full_instance(path_graph(20), 1, 2)
        state = find_core(rejected, target=0)
        assert state.witness is not None
        assert state.z is rejected.z
        g = grid_graph(10, 10)
        kept = full_instance(g, 2, 100)
        state = find_core(kept, target=0)
        assert state.witness is None and state.trace == []
        assert state.z is kept.z
        assert kernelize(kept, target=0).dominatees is kept.z

    def test_a_removing_run_leaves_inst_z_intact(self):
        inst = full_instance(star_graph(30), 1, 1)
        state = find_core(inst, target=0)
        assert state.trace
        assert isinstance(state.z, set)
        assert inst.z == frozenset(range(31))
        assert state.z == inst.z - {step.removed for step in state.trace}


class TestAnnotatedDominatees:
    """The core starts from ``inst.z``, not from all of V."""

    def test_one_dominatee_of_a_path_is_not_rejected(self):
        # V holds a 2-scattered set of 7 vertices, Z = {0} only one
        g = path_graph(20)
        result = kernelize(DominationInstance(g, frozenset({0}), 1, 1))
        assert result.verdict == "kernel"
        assert result.stats["core"] == 1
        kernel_inst = DominationInstance(result.graph, result.dominatees, 1)
        assert len(exact_min_dominator(kernel_inst).dominator) == 1

    def test_annotated_oracle_sampled(self):
        rng = random.Random(7)
        cases = [(random_sparse_graph(rng, rng.randint(2, 12)), 0.6) for _ in range(400)]
        for _ in range(200):
            legs = rng.randint(1, 9)
            cases.append((spider_graph(legs, rng.randint(1, 19 // legs)), 0.7))
        rejections = shrunk = 0
        for g, share in cases:
            z = frozenset(v for v in range(g.n) if rng.random() < share) or frozenset({0})
            r = rng.randint(1, 2)
            opt = len(exact_min_dominator(DominationInstance(g, z, r)).dominator)
            k = max(0, opt + rng.choice((-1, 0, 1)))
            # verified: every removal is re-checked against the dominatees z
            result = kernelize(DominationInstance(g, z, r, k), target=0, verify=True)
            assert result.stats["verify"] == "oracle"
            if result.verdict != "kernel":
                rejections += 1
                assert opt > k
                assert len(result.witness) > k
                assert result.witness <= z
                assert is_r_independent(g, result.witness, 2 * r)
                continue
            shrunk += bool(result.trace)
            kernel_inst = DominationInstance(result.graph, result.dominatees, r)
            assert len(exact_min_dominator(kernel_inst).dominator) == opt
        assert rejections >= 100 and shrunk >= 50, (rejections, shrunk)


class TestDefaultTargetSkip:
    """The scattered lower bound cannot reject while k >= |Z|, and the
    default target is at least k, so a default-target run at k >= |Z|
    returns the input before any search."""

    def test_no_lower_bound_when_k_covers_the_core(self, monkeypatch):
        def refuse(inst):
            raise AssertionError("the lower bound cannot reject at k >= |Z|")

        monkeypatch.setattr(kernel, "greedy_scattered_lower_bound", refuse)
        for g in (grid_graph(20, 20), random_tree_graph(300, 5)):
            z = frozenset(range(g.n))
            result = kernelize(DominationInstance(g, z, 1, g.n))
            assert result.verdict == "kernel"
            assert result.graph is g
            assert result.dominatees is z
            assert result.trace == ()

    def test_identity_kernel_shares_z_and_the_source_text(self):
        # no copy of Z into the core and back, and no formatted dump
        text = dump_edge_list(grid_graph(20, 20))
        g = load_edge_list(text)
        for inst in (full_instance(g, 2, g.n), DominationInstance(g, frozenset(range(0, g.n, 3)), 2, g.n)):
            assert find_core(inst).z is inst.z
            result = kernelize(inst)
            assert result.dominatees is inst.z
            assert dump_edge_list(result.graph) is text

    def test_identity_kernel_builds_no_rows(self, monkeypatch):
        # a graph read from its canonical text builds its rows on first
        # read, and an identity kernel reads none
        texts = [dump_edge_list(g) for g in (grid_graph(20, 20), random_tree_graph(300, 5))]

        def refuse(*args):
            raise AssertionError("an identity kernel reads no row")

        monkeypatch.setattr(graphs, "_adjacency", refuse)
        for text in texts:
            g = load_edge_list(text)
            result = kernelize(full_instance(g, 1, g.n))
            assert result.graph is g
            assert dump_edge_list(result.graph) is text

    def test_a_search_builds_the_rows_once(self, monkeypatch):
        # at k = n - 1 the lower bound reads the rows; at target 0 so do the
        # analyses and, when one removes a vertex, the kernel build
        build = graphs._adjacency
        builds = []

        def counting(n, top, us, vs, presorted):
            builds.append(us)
            return build(n, top, us, vs, presorted)

        monkeypatch.setattr(graphs, "_adjacency", counting)
        for h in (grid_graph(20, 20), random_tree_graph(300, 5)):
            text = dump_edge_list(h)
            for k, target in ((h.n - 1, None), (h.n, 0)):
                g = load_edge_list(text)
                columns = g._columns[0]
                builds.clear()
                result = kernelize(full_instance(g, 1, k), target=target)
                assert result.verdict == "kernel"
                assert sum(us is columns for us in builds) == 1
                assert g.adj == h.adj

    def test_bound_below_n_gives_the_same_kernel(self, monkeypatch):
        calls = []

        def counting(inst):
            calls.append(inst)
            return greedy_scattered_lower_bound(inst)

        monkeypatch.setattr(kernel, "greedy_scattered_lower_bound", counting)
        for g in (grid_graph(20, 20), random_tree_graph(300, 5)):
            calls.clear()
            skipped = kernelize(full_instance(g, 1, g.n))
            assert calls == []
            bounded = kernelize(full_instance(g, 1, g.n - 1))
            assert len(calls) == 1
            assert bounded.verdict == skipped.verdict == "kernel"
            assert bounded.graph == skipped.graph
            assert bounded.dominatees == skipped.dominatees
            assert bounded.stats == skipped.stats
            assert bounded.trace == skipped.trace == ()

    def test_default_target_rejection_keeps_its_witness(self):
        # path(20) at k = 2, and a grid at its packing bound minus one
        for g, r, k in ((path_graph(20), 1, 2), (grid_graph(6, 6), 1, None)):
            bound = greedy_scattered_lower_bound(full_instance(g, r))
            k = len(bound) - 1 if k is None else k
            result = kernelize(full_instance(g, r, k))
            assert result.verdict == f"rejected({k})"
            assert result.witness == bound
            assert kernelize(full_instance(g, r, len(bound))).verdict == "kernel"


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
            # a fresh dominator of the shrunk core, closed to 8 vertices
            # instead of 14, would certify a 28th removal
            (linked_stars(7, 6), 2, 27, 3),
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
                # each removal is certified by exactly |buy| + 2 members, all
                # still in the core before it goes
                assert len(step.exchange_class) == len(step.buy) + 2
                assert step.exchange_class <= z
                # batching relies on X still dominating the core before each removal
                assert brute_dominates(g, step.dominator, z, r, dist)
                z.remove(step.removed)
            assert z == state.z
            removals += len(state.trace)
            if same_core:
                assert state.z == one_removal_per_analysis_core(full_instance(g, r, k=g.n))
        assert removals >= 500, removals


class TestOneDominatorPerPhaseOne:
    """X still dominates every smaller core, and the closure and its
    classes depend on X alone, so phase one dominates and closes once."""

    cases = [
        (star_graph(50), 1),
        (spider_graph(30, 2), 2),
        (linked_stars(6, 6), 1),
        (linked_stars(7, 6), 2),
        (fan_and_star(9, 8), 1),
    ]

    def test_one_dominator_and_one_closure(self, monkeypatch):
        calls = {"bg_approx_dominator": [], "r_closure": [], "find_redundant_vertex": []}
        for name, log in calls.items():

            def counting(*args, fn=getattr(kernel, name), log=log, **kwargs):
                res = fn(*args, **kwargs)
                log.append(res)
                return res

            monkeypatch.setattr(kernel, name, counting)
        for g, r in self.cases:
            for log in calls.values():
                log.clear()
            state = find_core(full_instance(g, r, k=g.n), target=0)
            # every case analyses again after its first batch
            assert len(calls["find_redundant_vertex"]) >= 2
            assert len(calls["bg_approx_dominator"]) == len(calls["r_closure"]) == 1
            (x,) = (res.dominator for res in calls["bg_approx_dominator"])
            (closure,) = (res.closure for res in calls["r_closure"])
            assert state.trace
            assert all(step.dominator is x and step.closure is closure for step in state.trace)

    def test_later_bounds_only_while_the_core_exceeds_k(self, monkeypatch):
        bounds, analyses = [], []

        def bound(inst):
            bounds.append(len(inst.z))
            return greedy_scattered_lower_bound(inst)

        def analysis(inst, **kwargs):
            analyses.append(len(inst.z))
            return find_redundant_vertex(inst, **kwargs)

        monkeypatch.setattr(kernel, "greedy_scattered_lower_bound", bound)
        monkeypatch.setattr(kernel, "find_redundant_vertex", analysis)
        skipped = ran = 0
        for g, r in self.cases:
            for k in (1, 5, 20, g.n):
                bounds.clear()
                analyses.clear()
                state = find_core(full_instance(g, r, k), target=0)
                if state.witness is not None:
                    continue
                # the first bound is also the dominator's witness
                assert bounds == analyses[:1] + [size for size in analyses[1:] if size > k]
                ran += len(bounds) - 1
                skipped += len(analyses) - len(bounds)
        assert ran >= 3 and skipped >= 3, (ran, skipped)

    def test_a_standalone_analysis_dominates_and_closes_its_core(self):
        # on the full core and on phase one's final core, where a fresh X
        # of linked_stars(7, 6) at r = 2 certifies one more removal
        fresh = 0
        for g, r in self.cases:
            final = find_core(full_instance(g, r, k=g.n), target=0).z
            for z in (range(g.n), final):
                core = DominationInstance(g, frozenset(z), r, g.n)
                x, closure = kernel.dominate_and_close(core)
                steps = find_redundant_vertex(core)
                assert find_redundant_vertex(core, closed=(x, closure)) == steps
                if steps is not None:
                    assert all(step.dominator == x and step.closure == closure.closure for step in steps)
                    fresh += z is final
        assert fresh == 1, fresh


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
            steps = find_redundant_vertex(full_instance(g, r, k=g.n))
            assert steps
            # one step per removal; a class's steps are contiguous, so each
            # class heads one run of equal profile classes
            classes = [c for c, _ in itertools.groupby(step.profile_class for step in steps)]
            assert len(set(classes)) == len(classes)
            many += len(classes) > 1
            windows: dict[frozenset, set] = {}
            for step in steps:
                windows.setdefault(step.profile_class, set()).update(step.exchange_class)
            for i, c in enumerate(classes):
                for later in classes[i + 1 :]:
                    assert windows[c].isdisjoint(windows[later])
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
            steps = find_redundant_vertex(full_instance(g, 1, k=g.n))
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
        cases += [(linked_stars(centers, 4), r) for centers in (4, 5) for r in (1, 2)]
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
            inst = full_instance(grid_graph(side, side), 2, k=side * side)
            tracemalloc.start()
            try:
                find_redundant_vertex(inst)
                peaks[side] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[200] <= 5 * peaks[100], peaks

    def test_trace_memory_grows_linearly(self):
        # a target-0 run on a spider with 1000 and 4000 one-vertex legs at
        # r = 1; one exchange class holds nearly every leg, and a window of
        # |buy| + 2 members per removal keeps the trace linear, where what
        # is left of the class per removal would grow the peak about 16x
        peaks = {}
        for legs in (1000, 4000):
            g = spider_graph(legs, 1)
            inst = full_instance(g, 1, k=g.n)
            tracemalloc.start()
            try:
                find_core(inst, target=0)
                peaks[legs] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[4000] <= 5 * peaks[1000], peaks


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

    def test_full_core_shares_the_core_and_ids(self):
        # n > 256, so the ids are not CPython's cached small ints
        g = grid_graph(20, 20)
        z = frozenset(range(g.n))
        result = build_kernel_from_core(g, z, 2)
        assert result.graph is g
        assert result.dominatees == z
        assert result.dominatees is z
        assert all(w is v for v, w in result.idmap.to_sub.items())

    def test_full_core_runs_no_search(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a full core has nothing to class or close")

        monkeypatch.setattr(kernel, "short_paths_closure", refuse)
        monkeypatch.setattr(kernel, "target_traces", refuse)
        g = grid_graph(20, 20)
        result = build_kernel_from_core(g, set(range(g.n)), 2)
        assert result.graph is g
        assert result.dominatees == frozenset(range(g.n))
        assert result.stats["kept"] == result.stats["closed"] == g.n
        assert result.stats["classes"] == 0

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

    def test_rejects_out_of_range_dominatees(self):
        for bad in (-1, 3):
            with pytest.raises(IndexError, match=f"vertex {bad} out of range for n=3"):
                annotate_to_plain(path_graph(3), {0, bad}, 1)

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
