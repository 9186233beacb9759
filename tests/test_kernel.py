import random

from rdomkernel.domset import DominationInstance, enumerate_min_dominators, exact_min_dominator, is_dominator
from rdomkernel.generators import cycle_graph, path_graph, spider_graph, star_graph
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

from .oracles import floyd_warshall, random_sparse_graph


def full_instance(g, r, k=0):
    return DominationInstance(g, frozenset(range(g.n)), r, k)


def fresh_state(g, r, k=0):
    return CoreState(full_instance(g, r, k), set(range(g.n)))


def core_property_holds(g, z, r):
    """Every minimum dominator of z must already dominate the whole graph."""
    inst = DominationInstance(g, frozenset(z), r)
    whole = full_instance(g, r)
    return all(is_dominator(whole, d) for d in enumerate_min_dominators(inst))


def check_trace_step(g, r, step):
    # the recorded witness must satisfy everything the exchange argument uses
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
    assert len(step.exchange_class) >= len(buy) + 2


class TestFindRedundantVertex:
    def test_big_star_drops_a_leaf(self):
        g = star_graph(50)
        step = find_redundant_vertex(fresh_state(g, 1, 1))
        assert step is not None
        assert 1 <= step.removed <= 50
        # same structure at oracle scale: the shrunk set is still a core
        small = star_graph(15)
        small_step = find_redundant_vertex(fresh_state(small, 1, 1))
        assert small_step is not None
        assert core_property_holds(small, set(range(16)) - {small_step.removed}, 1)

    def test_tiny_core_has_nothing_to_remove(self):
        g = path_graph(6)
        state = CoreState(full_instance(g, 1), {0, 5})
        assert find_redundant_vertex(state) is None

    def test_spider_drops_a_leg_vertex(self):
        g = spider_graph(30, 2)
        step = find_redundant_vertex(fresh_state(g, 2, 5))
        assert step is not None
        assert step.removed != 0
        small = spider_graph(8, 2)
        small_step = find_redundant_vertex(fresh_state(small, 2, 5))
        assert small_step is not None
        z_after = set(range(small.n)) - {small_step.removed}
        assert core_property_holds(small, z_after, 2)
        inst = full_instance(small, 2)
        after = DominationInstance(small, frozenset(z_after), 2)
        assert len(exact_min_dominator(inst).dominator) == len(exact_min_dominator(after).dominator)

    def test_trace_steps_carry_valid_justification(self):
        for g, r in [(star_graph(18), 1), (star_graph(14), 2), (spider_graph(6, 2), 1)]:
            state = find_core(full_instance(g, r, k=g.n), target=0)
            for step in state.trace:
                check_trace_step(g, r, step)


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
