"""Output checks, run outside the timed section.

Each check returns a list of problems (empty when the output is right) and
never skips. Distances are recomputed here with a small BFS of the
checker's own, so a defect in the library's traversal cannot hide itself.

* every ``RemovalStep``: the facts ``tests/test_kernel.py::check_trace_step``
  checks, plus that X dominates the core *before* the removal and that the
  closure postcondition holds at ``t = default_closure_threshold(g)``;
* every kernel: it is the subgraph of g induced by ``idmap``, and its
  dominatees map back to the final core;
* every rejection: its witness is 2r-scattered and larger than k;
* ``measure`` outputs: ``nu_r <= nu_hat_r``, ``mu_r <= mu_hat_r``,
  ``decode_projection_via_layers`` agrees with the projection profile on a
  seeded vertex sample, wcol and VC-dimension agree with their bounds;
* oracle equivalence with ``exact_min_dominator`` on small planted graphs.
"""

from __future__ import annotations

import inputs

ORACLE_SLOTS = ((2, 1), (3, 1), (2, 2), (3, 2))  # (hubs, r), every n <= 40
ORACLE_PENDANTS = (3, 5)
SAMPLE = 4


def bfs(g, sources, r, blocked=frozenset(), stop=frozenset()):
    """Distances up to r from the nearest source in g minus ``blocked``;
    vertices of ``stop`` are reached but not expanded."""
    dist = {s: 0 for s in sources}
    frontier = list(dist)
    for d in range(1, r + 1):
        nxt = []
        for u in frontier:
            if u in stop and dist[u] > 0:
                continue
            for w in g.adj[u]:
                if w not in dist and w not in blocked:
                    dist[w] = d
                    nxt.append(w)
        frontier = nxt
    return dist


def projection_entries(g, u, a, r):
    """Sorted (a, d) pairs: a in ``a`` reached from u by a path of length
    d <= r whose only vertex in ``a`` is its end."""
    return tuple(sorted((v, d) for v, d in bfs(g, [u], r, stop=a).items() if v in a and v != u))


def distance_entries(g, u, a, r):
    return tuple(sorted((v, d) for v, d in bfs(g, [u], r).items() if v in a))


def scattered(g, s, dist, blocked=frozenset()):
    """True iff the members of s are pairwise farther than ``dist`` apart
    in g minus ``blocked``."""
    for v in s:
        if any(w != v and w in s for w in bfs(g, [v], dist, blocked)):
            return False
    return True


def check_step(g, r, z_before, step) -> list[str]:
    p = []
    x_cl = step.closure
    if step.removed not in z_before:
        p.append(f"removed {step.removed} is not in the core")
    if step.removed not in step.exchange_class or not step.exchange_class <= step.profile_class:
        p.append("removed vertex, exchange class and profile class are not nested")
    if len({projection_entries(g, v, x_cl, 3 * r) for v in step.exchange_class}) != 1:
        p.append("exchange class spans several projection profiles on the closure")
    if not scattered(g, step.exchange_class, 2 * r, blocked=step.separator):
        p.append("exchange class is not 2r-scattered once the separator is deleted")
    if len({distance_entries(g, v, step.separator, r) for v in step.exchange_class}) != 1:
        p.append("exchange class spans several distance profiles on the separator")
    buy = {v for v, _ in projection_entries(g, step.removed, x_cl, 3 * r)} | step.separator
    if len(step.exchange_class) < len(buy) + 2:
        p.append(f"exchange inequality fails: {len(step.exchange_class)} < {len(buy)} + 2")
    reached = bfs(g, step.dominator, r)
    if any(v not in reached for v in z_before):
        p.append("X does not dominate the core before the removal")
    if not step.dominator <= x_cl:
        p.append("closure does not contain X")
    return p


def check_closure(g, closure, r, t) -> list[str]:
    """Every vertex outside the closure projects onto it, within radius r,
    with fewer than t targets."""
    for u in range(g.n):
        if u not in closure and len(projection_entries(g, u, closure, r)) >= t:
            return [f"closure postcondition fails at vertex {u} (t={t})"]
    return []


def check_kernel(g, res, z) -> list[str]:
    p = []
    h, idmap = res.graph, res.idmap
    to_orig = idmap.to_orig
    if list(to_orig) != sorted(set(to_orig)) or (to_orig and not 0 <= to_orig[0] <= to_orig[-1] < g.n):
        return [f"idmap {to_orig[:5]}... is not an ascending list of vertices of g"]
    if idmap.to_sub != {v: i for i, v in enumerate(to_orig)}:
        p.append("idmap.to_sub is not the inverse of idmap.to_orig")
    want = sorted(
        (idmap.to_sub[u], idmap.to_sub[w]) for u in to_orig for w in g.adj[u] if u < w and w in idmap.to_sub
    )
    if h.n != len(to_orig) or sorted(h.edges()) != want:
        p.append("kernel graph is not the subgraph induced by idmap")
    if not z <= idmap.to_sub.keys():
        p.append("kernel drops a core vertex")
    elif res.dominatees != frozenset(idmap.to_sub[v] for v in z):
        p.append("kernel dominatees do not map back to the core")
    if res.stats.get("kernel_n") != h.n:
        p.append("stats kernel_n disagrees with the kernel graph")
    return p


def check_rejection(g, r, k, witness) -> list[str]:
    p = []
    if len(witness) <= k:
        p.append(f"rejection witness of size {len(witness)} does not exceed k={k}")
    if any(not 0 <= v < g.n for v in witness):
        p.append("rejection witness holds a vertex outside g")
    elif not scattered(g, witness, 2 * r):
        p.append("rejection witness is not 2r-scattered")
    return p


def check_kernel_result(rk, g, r, k, res) -> list[str]:
    """Replay the removal trace step by step, then check the verdict."""
    p = []
    t = rk.default_closure_threshold(g)
    closures = {}  # the postcondition depends on the closure alone; steps often share one
    z = set(range(g.n))
    for i, step in enumerate(res.trace):
        if step.closure not in closures:
            closures[step.closure] = check_closure(g, step.closure, 3 * r, t)
        p += [f"step {i}: {msg}" for msg in check_step(g, r, frozenset(z), step) + closures[step.closure]]
        z.discard(step.removed)
    if res.verdict == "kernel":
        p += check_kernel(g, res, frozenset(z))
    elif res.verdict == f"rejected({k})":
        p += check_rejection(g, r, k, res.witness)
    else:
        p.append(f"unknown verdict {res.verdict!r}")
    return p


def _check_wcol(rk, g, order, wcol, seed) -> list[str]:
    p = []
    pos = order.position
    if len(pos) != g.n:
        return ["order does not cover every vertex"]
    back = max((sum(pos[w] < pos[v] for w in g.adj[v]) for v in range(g.n)), default=0)
    radii = sorted(wcol)
    if any(wcol[a] > wcol[b] for a, b in zip(radii, radii[1:])):
        p.append(f"wcol decreases with the radius: {wcol}")
    if wcol[radii[0]] < back + 1:
        p.append(f"wcol {wcol[radii[0]]} is below back-degree + 1 = {back + 1}")
    rng = inputs.rng_for(seed, "check-wreach")
    for v in rng.sample(range(g.n), SAMPLE):
        for r, w in wcol.items():
            if len(rk.wreach(g, order, v, r)) > w:
                p.append(f"wreach of {v} at r={r} exceeds wcol {w}")
    return p


def _check_counters(rk, g, a, values, seed) -> list[str]:
    p = []
    for r in sorted({r for _, r in values}):
        if not 1 <= values["nu_r", r] <= values["nu_hat_r", r]:
            p.append(f"r={r}: nu_r={values['nu_r', r]} nu_hat_r={values['nu_hat_r', r]}")
        if not 1 <= values["mu_r", r] <= values["mu_hat_r", r]:
            p.append(f"r={r}: mu_r={values['mu_r', r]} mu_hat_r={values['mu_hat_r', r]}")
        rng = inputs.rng_for(seed, f"check-decode-{r}")
        for u in rng.sample([v for v in range(g.n) if v not in a], SAMPLE):
            want = projection_entries(g, u, a, r)
            if rk.decode_projection_via_layers(g, a, r, u).entries != want:
                p.append(f"layered decoding of {u} at r={r} disagrees with the projection profile")
            if rk.projection_profile(g, u, a, r).entries != want:
                p.append(f"projection_profile of {u} at r={r} is wrong")
    return p


def _check_vc(rk, family, d) -> list[str]:
    if d < 0 or 2**d > len(family) or len(family) > rk.sauer_shelah_bound(family.ground_size, d):
        return [f"vc dimension {d} contradicts family size {len(family)}"]
    return []


def check_op(rk, op, res, seed) -> list[str]:
    """All checks that apply to one operation's result."""
    g = res.graph
    if op.kind == "kernel":
        k = g.n if op.params["k"] is None else op.params["k"]
        return check_kernel_result(rk, g, op.params["r"], k, res.value)
    if op.kind == "wcol":
        return _check_wcol(rk, g, *res.value, seed)
    if op.kind == "counters":
        return _check_counters(rk, g, frozenset(op.params["a"]), res.value, seed)
    return _check_vc(rk, *res.value)


def oracle_problems(rk, seed) -> list[tuple[str, list[str]]]:
    """Kernelize small planted graphs at target 0 and compare the annotated
    domination number of each kernel with the optimum of the input."""
    out = []
    for i, (hubs, r) in enumerate(ORACLE_SLOTS):
        n, edges = inputs.planted_hubs(inputs.rng_for(seed, f"oracle{i}"), hubs, r, ORACLE_PENDANTS)
        g = rk.Graph(n, edges)
        p = [] if n <= 40 else [f"oracle instance has n={n} > 40"]
        res = rk.kernelize(rk.DominationInstance(g, frozenset(range(n)), r, n), target=0)
        p += check_kernel_result(rk, g, r, n, res)
        if not p:
            opt = len(rk.exact_min_dominator(rk.DominationInstance(g, frozenset(range(n)), r)).dominator)
            kern = rk.DominationInstance(res.graph, res.dominatees, r)
            got = len(rk.exact_min_dominator(kern).dominator)
            if got != opt:
                p.append(f"kernel optimum {got} != input optimum {opt}")
        out.append((f"oracle{i}-h{hubs}-r{r}-n{n}-removed{len(res.trace)}", p))
    return out
