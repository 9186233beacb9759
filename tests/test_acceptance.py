"""Acceptance suite: every criterion runs at its stated tolerance and
prints one pass/fail line (run with ``pytest tests/test_acceptance.py -v -s``).

The two calibration constants (grid complexity ratio, spider kernel-size
ratio) were recorded from the first calibration run of this suite and are
regression bounds, not theory: the counters are deterministic, so any
drift means behavior changed.
"""

import math
import random
import time

from rdomkernel.domset import (
    DominationInstance,
    bg_approx_dominator,
    exact_min_dominator,
    is_dominator,
)
from rdomkernel.generators import (
    complete_graph,
    cycle_graph,
    grid_graph,
    path_graph,
    random_bounded_degree_graph,
    random_tree_graph,
    spider_graph,
    star_graph,
    subdivide,
    subset_gadget_graph,
)
from rdomkernel.graphs import ball, bfs_within, induced_subgraph, is_r_independent
from rdomkernel.kernel import annotate_to_plain, find_core, kernelize
from rdomkernel.orderings import Ordering, degeneracy_order, wcol_exact, wcol_of_order, wreach
from rdomkernel.profiles import (
    SetFamily,
    decode_projection_via_layers,
    nu_r,
    projection_profile,
    sauer_shelah_bound,
    vc_dimension,
)
from rdomkernel.sparsity import quasi_wide_extract, r_closure, short_paths_closure

from .oracles import brute_wreach, random_sparse_graph

# Calibration constants, recorded at the first run of this suite.
# Grids 8..20 with |A| in {16,32,64} measured a worst nu_2/|A| of 3.188;
# spiders k in {4,8,16,32} measured a worst |V(G')|/(k*log2(k+2)) of 0.871.
GRID_NU2_RATIO_BOUND = 3.2
SPIDER_KERNEL_RATIO = 0.871


def _report(name: str, detail: str = ""):
    suffix = f" ({detail})" if detail else ""
    print(f"\nACCEPTANCE {name}: PASS{suffix}")


def full_instance(g, r, k=0):
    return DominationInstance(g, frozenset(range(g.n)), r, k)


def _sparse_instance_graphs():
    graphs = []
    for w, h in [(2, 6), (2, 7), (2, 8), (2, 9), (2, 10), (3, 4), (3, 5), (3, 6), (4, 4), (4, 5)]:
        graphs.append(("grid", grid_graph(w, h)))
    for legs, length in [
        (3, 2), (4, 2), (5, 2), (6, 2), (7, 2), (8, 2), (9, 2),
        (3, 3), (4, 3), (5, 3), (6, 3), (3, 4), (4, 4), (2, 5), (3, 5), (2, 6),
        (5, 1), (8, 1), (12, 1), (16, 1),
    ]:
        graphs.append(("spider", spider_graph(legs, length)))
    for n in range(8, 21):
        for seed in range(3):
            graphs.append(("tree", random_tree_graph(n, 100 * n + seed)))
    for n in range(10, 21):
        for d in (3, 4):
            for seed in range(2):
                graphs.append(("rbd", random_bounded_degree_graph(n, d, 7 * n + 13 * d + seed)))
    return graphs


def test_oracle_kernel_equivalence():
    """Kernelization preserves the yes/no answer around the optimum."""
    start = time.perf_counter()
    instances = 0
    checks = 0
    for _, g in _sparse_instance_graphs():
        assert g.n <= 20
        for r in (1, 2, 3):
            instances += 1
            opt = len(exact_min_dominator(full_instance(g, r)).dominator)
            for k in (opt - 1, opt, opt + 1):
                if k < 0:
                    continue
                result = kernelize(full_instance(g, r, k), target=0)
                if result.verdict != "kernel":
                    assert opt > k, f"rejected although opt={opt} <= k={k}"
                else:
                    kernel_inst = DominationInstance(result.graph, result.dominatees, r)
                    kernel_opt = len(exact_min_dominator(kernel_inst).dominator)
                    assert (kernel_opt <= k) == (opt <= k), (
                        f"answer flipped: opt={opt}, kernel_opt={kernel_opt}, k={k}"
                    )
                checks += 1
    elapsed = time.perf_counter() - start
    assert instances >= 300, instances
    assert elapsed < 300, f"took {elapsed:.1f}s"
    _report("oracle-kernel-equivalence", f"{instances} instances, {checks} answers, {elapsed:.1f}s")


def test_core_removal_soundness():
    """Verified mode re-checks every removal against the enumeration oracle."""
    removals = 0
    instances = 0
    cases = [(g, r) for _, g in _sparse_instance_graphs() for r in (1, 2, 3)]
    cases += [(star_graph(m), r) for m in range(12, 20) for r in (1, 2, 3)]
    for g, r in cases:
        assert g.n <= 20
        state = find_core(full_instance(g, r, k=g.n), target=0, verify=True)
        removals += len(state.trace)
        instances += 1
    assert instances >= 300, instances
    assert removals >= 300, removals
    _report("core-removal-soundness", f"{removals} verified removals over {instances} instances")


def test_structural_postconditions_fuzz():
    """Hard contracts of the structural subroutines, fuzzed."""
    rng = random.Random(1001)

    for _ in range(500):
        g = random_sparse_graph(rng, rng.randint(2, 14))
        a = {v for v in range(g.n) if rng.random() < 0.6}
        if not a:
            continue
        r = rng.randint(1, 3)
        qw = quasi_wide_extract(g, a, r, rng.randint(1, len(a)))
        assert qw.scattered <= frozenset(a) - qw.separator
        keep = set(range(g.n)) - set(qw.separator)
        sub, idmap = induced_subgraph(g, keep)
        assert is_r_independent(sub, {idmap.to_sub[v] for v in qw.scattered}, r)

    rng = random.Random(1002)
    for _ in range(500):
        g = random_sparse_graph(rng, rng.randint(2, 14))
        x = {v for v in range(g.n) if rng.random() < 0.3}
        r = rng.randint(1, 3)
        t = rng.randint(2, 5)
        closure = r_closure(g, x, r, t).closure
        assert frozenset(x) <= closure
        for u in range(g.n):
            if u not in closure:
                assert len(projection_profile(g, u, closure, r).entries) < t

    rng = random.Random(1003)
    for _ in range(500):
        g = random_sparse_graph(rng, rng.randint(2, 14))
        x = sorted(v for v in range(g.n) if rng.random() < 0.35)
        r = rng.randint(1, 3)
        closed = short_paths_closure(g, x, r)
        sub, idmap = induced_subgraph(g, closed)
        for i, u in enumerate(x):
            dist = bfs_within(g, u, r)
            sub_dist = bfs_within(sub, idmap.to_sub[u], r)
            for v in x[i + 1 :]:
                if v in dist:
                    assert sub_dist.get(idmap.to_sub[v]) == dist[v]

    rng = random.Random(1004)
    for _ in range(500):
        g = random_sparse_graph(rng, rng.randint(2, 16))
        z = frozenset(v for v in range(g.n) if rng.random() < 0.8)
        inst = DominationInstance(g, z, rng.randint(1, 3))
        assert is_dominator(inst, bg_approx_dominator(inst).dominator)

    rng = random.Random(1005)
    for _ in range(500):
        g = random_sparse_graph(rng, rng.randint(2, 20))
        z = frozenset(v for v in range(g.n) if rng.random() < 0.8)
        inst = DominationInstance(g, z, rng.randint(1, 3))
        approx = len(bg_approx_dominator(inst).dominator)
        opt = len(exact_min_dominator(inst).dominator)
        assert approx <= opt * (1 + math.log(len(z) + 1))

    _report("structural-postconditions", "5 contracts x 500 cases")


def test_profile_machinery_cross_checks():
    """Three independent routes to the same profile data must agree."""
    from .oracles import random_graph

    rng = random.Random(2001)
    checked = 0
    while checked < 500:
        g = random_graph(rng, rng.randint(2, 12), rng.random() * 0.6)
        a = {v for v in range(g.n) if rng.random() < 0.4}
        rest = [v for v in range(g.n) if v not in a]
        if not rest:
            continue
        u = rng.choice(rest)
        r = rng.randint(0, 3)
        assert decode_projection_via_layers(g, a, r, u) == projection_profile(g, u, a, r)
        checked += 1

    rng = random.Random(2002)
    for _ in range(500):
        g = random_graph(rng, rng.randint(1, 12), rng.random() * 0.6)
        a = {v for v in range(g.n) if rng.random() < 0.4}
        u = rng.randrange(g.n)
        r = rng.randint(0, 3)
        rebuilt = {}
        for i in range(r + 1):
            for v in ball(g, u, i) & a:
                rebuilt.setdefault(v, i)
        from rdomkernel.profiles import distance_profile

        assert rebuilt == distance_profile(g, u, a, r).as_dict()

    rng = random.Random(2003)
    for _ in range(500):
        g = random_graph(rng, rng.randint(1, 12), rng.random() * 0.5)
        seq = list(range(g.n))
        rng.shuffle(seq)
        order = Ordering.from_sequence(seq)
        v = rng.randrange(g.n)
        r = rng.randint(0, 3)
        assert wreach(g, order, v, r) == brute_wreach(g, order, v, r)

    _report("profile-cross-checks", "3 routes x 500 cases")


def test_sauer_shelah_on_generated_families():
    """Family sizes stay within the binomial-sum bound of their measured
    VC-dimension; truncated measurements would be vacuous, so none allowed."""
    rng = random.Random(3001)
    families = []

    graphs = [
        grid_graph(5, 5), grid_graph(4, 6), spider_graph(6, 2), spider_graph(4, 3),
        star_graph(10), path_graph(16), cycle_graph(14),
        subset_gadget_graph(3), subset_gadget_graph(4), subdivide(complete_graph(4), 1),
    ]
    graphs += [random_tree_graph(14, s) for s in range(10)]
    graphs += [random_bounded_degree_graph(14, 3, s) for s in range(10)]
    for g in graphs:
        for r in (1, 2):
            size = min(g.n, 10)
            a = sorted(rng.sample(range(g.n), size))
            index = {v: i for i, v in enumerate(a)}
            traces = {frozenset(index[x] for x in set(a) & ball(g, v, r)) for v in range(g.n)}
            families.append(SetFamily.from_sets(len(a), traces))

    rng = random.Random(3002)
    while len(families) < 200:
        g = random_sparse_graph(rng, rng.randint(4, 12))
        if rng.random() < 0.5:
            order = degeneracy_order(g)
        else:
            seq = list(range(g.n))
            rng.shuffle(seq)
            order = Ordering.from_sequence(seq)
        r = rng.randint(1, 3)
        sets = [frozenset(wreach(g, order, v, r)) for v in range(g.n)]
        families.append(SetFamily.from_sets(g.n, sets))

    assert len(families) >= 200
    for fam in families:
        d = vc_dimension(fam, cap=8)
        assert d <= 8, "measurement truncated; bound check would be vacuous"
        assert len(fam) <= sauer_shelah_bound(fam.ground_size, d)
    _report("sauer-shelah", f"{len(families)} families")


def test_sparse_vs_dense_complexity_contrast():
    """Grid neighborhood complexity stays near-linear in |A|; the subset
    gadget realizes the full power set."""
    worst = 0.0
    for m in (8, 12, 16, 20):
        g = grid_graph(m, m)
        for size in (16, 32, 64):
            if size > g.n:
                continue
            a = set(random.Random(10 * m + size).sample(range(g.n), size))
            ratio = nu_r(g, a, 2) / size
            worst = max(worst, ratio)
            assert ratio < GRID_NU2_RATIO_BOUND, f"grid {m}x{m}, |A|={size}: ratio {ratio:.3f}"

    for a_count in (3, 4, 5):
        g = subset_gadget_graph(a_count)
        assert nu_r(g, set(range(a_count)), 1) == 2**a_count

    _report("sparse-vs-dense-contrast", f"worst grid ratio {worst:.3f} < {GRID_NU2_RATIO_BOUND}")


def _small_graph_roster():
    graphs = [path_graph(n) for n in range(2, 9)]
    graphs += [cycle_graph(n) for n in range(3, 9)]
    graphs += [star_graph(leaves) for leaves in range(1, 8)]
    graphs += [grid_graph(2, 2), grid_graph(2, 3), grid_graph(2, 4)]
    graphs += [spider_graph(2, 2), spider_graph(3, 2), spider_graph(2, 3)]
    graphs += [complete_graph(n) for n in (3, 4, 5)]
    graphs += [subset_gadget_graph(1), subset_gadget_graph(2)]
    graphs += [subdivide(complete_graph(3), 1)]
    rng = random.Random(4001)
    from .oracles import random_graph

    while len(graphs) < 229:  # roster above plus 200 random
        graphs.append(random_graph(rng, rng.randint(1, 8), rng.random() * 0.7))
    return graphs


def test_wcol_sanity():
    """The heuristic order never beats the exact optimum, and the pinned
    small values hold."""
    assert wcol_exact(path_graph(3), 2)[0] == 2
    assert wcol_exact(complete_graph(3), 1)[0] == 3
    graphs = _small_graph_roster()
    random_count = sum(1 for g in graphs) - 29
    assert random_count >= 200
    for g in graphs:
        assert g.n <= 8
        for r in (1, 2):
            exact, witness = wcol_exact(g, r)
            heuristic = wcol_of_order(g, degeneracy_order(g), r)
            assert exact <= heuristic
            assert wcol_of_order(g, witness, r) == exact
    _report("wcol-sanity", f"{len(graphs)} graphs x r in {{1,2}}")


def test_gadget_correctness():
    """Annotated-to-plain reduction shifts the domination number by one."""
    rng = random.Random(5001)
    pairs = 0
    while pairs < 100:
        g = random_sparse_graph(rng, rng.randint(4, 15))
        z = {v for v in range(g.n) if rng.random() < 0.6}
        r = rng.choice((1, 2))
        plain = annotate_to_plain(g, z, r)
        annotated = len(exact_min_dominator(DominationInstance(g, frozenset(z), r)).dominator)
        whole = len(exact_min_dominator(full_instance(plain, r)).dominator)
        assert whole == annotated + 1
        pairs += 1
    _report("gadget-correctness", f"{pairs} pairs")


def test_kernel_size_trend():
    """Kernel size on the spider family, relative to k*log2(k+2), stays
    within 1.25x of the calibrated constant."""
    ratios = {}
    for k in (4, 8, 16, 32):
        g = spider_graph(k, 2)
        opt = len(exact_min_dominator(full_instance(g, 1), cap=80).dominator)
        assert opt == k
        result = kernelize(full_instance(g, 1, k))
        assert result.verdict == "kernel"
        ratios[k] = result.graph.n / (k * math.log2(k + 2))
    worst = max(ratios.values())
    assert worst <= 1.25 * SPIDER_KERNEL_RATIO, ratios
    _report("kernel-size-trend", f"worst ratio {worst:.3f} <= 1.25 x {SPIDER_KERNEL_RATIO}")
