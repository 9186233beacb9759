"""Exact and approximate computation of (Z, r)-dominators.

A set D r-dominates Z when every vertex of Z lies within distance r of
some vertex of D. The exact solver and the all-optima enumerator are the
trusted oracles the pipeline is verified against; both carry hard size
caps and refuse larger instances rather than approximate silently. The
approximation is a deterministic iterative-reweighting hitting-set scheme
with a plain greedy-cover fallback, so it never returns an invalid set.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .graphs import Graph, SizeCapError, bounded_bfs, greedy_scattered, multi_source_within


@dataclass(frozen=True)
class DominationInstance:
    """Annotated problem state: dominate z within radius r using at most
    k vertices (k only matters to the rejection logic)."""

    g: Graph
    z: frozenset[int]
    r: int
    k: int = 0

    def __post_init__(self):
        object.__setattr__(self, "z", frozenset(self.z))
        for v in self.z:
            if not 0 <= v < self.g.n:
                raise ValueError(f"dominatee {v} out of range for n={self.g.n}")
        if self.r < 1:
            raise ValueError("domination radius must be at least 1")
        if self.k < 0:
            raise ValueError("budget must be non-negative")


@dataclass(frozen=True)
class DominatorResult:
    dominator: frozenset[int]
    optimal: bool
    lower_bound_witness: frozenset[int] | None = None


def is_dominator(inst: DominationInstance, d) -> bool:
    """True iff every dominatee is within distance r of some vertex of d."""
    chosen = set(d)
    for v in chosen:
        if not 0 <= v < inst.g.n:
            raise IndexError(f"vertex {v} out of range for n={inst.g.n}")
    if not inst.z:
        return True
    if not chosen:
        return False
    reached = multi_source_within(inst.g, chosen, inst.r)
    return all(v in reached for v in inst.z)


def greedy_scattered_lower_bound(inst: DominationInstance) -> frozenset[int]:
    """Greedy (ascending id) maximal subset of z with pairwise distance
    greater than 2r.

    Any r-ball meets at most one such vertex, so the size is a lower bound
    on every (z, r)-dominator and the set itself is the rejection witness.
    """
    return frozenset(greedy_scattered(inst.g, sorted(inst.z), 2 * inst.r))


def _coverage(inst: DominationInstance):
    # cover[v] = bitmask of z-indices within distance r of v; zs ascending.
    zs = sorted(inst.z)
    zbit = {v: 1 << i for i, v in enumerate(zs)}
    cover = [0] * inst.g.n
    for i, zv in enumerate(zs):
        for x in bounded_bfs(inst.g, zv, inst.r):
            cover[x] |= 1 << i
    return zs, zbit, cover


def _greedy_cover(n: int, cover, full: int) -> list[int]:
    # Classic greedy set cover over the coverage masks; lowest id on ties.
    chosen = []
    covered = 0
    while covered != full:
        pick = -1
        gain = 0
        for v in range(n):
            g = (cover[v] & ~covered).bit_count()
            if g > gain:
                pick, gain = v, g
        chosen.append(pick)
        covered |= cover[pick]
    return chosen


def greedy_dominator(inst: DominationInstance) -> DominatorResult:
    """Plain greedy cover; valid by construction, within the harmonic
    factor of optimal."""
    witness = greedy_scattered_lower_bound(inst)
    if not inst.z:
        return DominatorResult(frozenset(), True, witness)
    zs, _, cover = _coverage(inst)
    chosen = _greedy_cover(inst.g.n, cover, (1 << len(zs)) - 1)
    return DominatorResult(frozenset(chosen), len(chosen) == len(witness), witness)


def exact_min_dominator(inst: DominationInstance, cap: int = 64) -> DominatorResult:
    """A minimum-cardinality (z, r)-dominator by branch and bound.

    Branches on the uncovered dominatee with the fewest potential
    dominators; prunes with the greedy scattered lower bound, a greedy
    upper bound, and a seen-coverage memo. Exponential worst case, guarded
    by ``cap``.
    """
    if inst.g.n > cap:
        raise SizeCapError(f"exact solver limited to n <= {cap}, got n={inst.g.n}")
    witness = greedy_scattered_lower_bound(inst)
    if not inst.z:
        return DominatorResult(frozenset(), True, witness)
    zs, _, cover = _coverage(inst)
    nz = len(zs)
    full = (1 << nz) - 1
    candidates = [sorted(bounded_bfs(inst.g, zv, inst.r)) for zv in zs]
    conflict = []
    for zv in zs:
        near = bounded_bfs(inst.g, zv, 2 * inst.r)
        conflict.append(sum(1 << j for j, other in enumerate(zs) if other in near))

    best = _greedy_cover(inst.g.n, cover, full)
    memo: dict[int, int] = {}

    def scattered_lb(covered: int) -> int:
        lb = 0
        excl = covered
        for i in range(nz):
            bit = 1 << i
            if excl & bit:
                continue
            lb += 1
            excl |= conflict[i]
        return lb

    def search(chosen: list[int], covered: int):
        nonlocal best
        if covered == full:
            if len(chosen) < len(best):
                best = list(chosen)
            return
        if len(chosen) + scattered_lb(covered) >= len(best):
            return
        prev = memo.get(covered)
        if prev is not None and prev <= len(chosen):
            return
        memo[covered] = len(chosen)
        branch = min(
            (i for i in range(nz) if not covered & (1 << i)),
            key=lambda i: (len(candidates[i]), i),
        )
        for c in sorted(candidates[branch], key=lambda c: (-(cover[c] & ~covered).bit_count(), c)):
            chosen.append(c)
            search(chosen, covered | cover[c])
            chosen.pop()

    search([], 0)
    return DominatorResult(frozenset(best), True, witness)


def enumerate_min_dominators(inst: DominationInstance, cap: int = 20) -> list[frozenset[int]]:
    """All minimum-size (z, r)-dominators, by exhausting subsets of the
    optimal size. Deliberately the dumbest correct enumeration; guarded by
    ``cap`` because of the binomial blow-up."""
    if inst.g.n > cap:
        raise SizeCapError(f"enumeration limited to n <= {cap}, got n={inst.g.n}")
    opt = len(exact_min_dominator(inst, cap=cap).dominator)
    zs, _, cover = _coverage(inst)
    full = (1 << len(zs)) - 1
    out = []
    for combo in itertools.combinations(range(inst.g.n), opt):
        mask = 0
        for c in combo:
            mask |= cover[c]
        if mask & full == full:
            out.append(frozenset(combo))
    return out


def bg_approx_dominator(inst: DominationInstance, max_rounds: int = 32) -> DominatorResult:
    """Deterministic iterative-reweighting dominator.

    Vertex weights start at 1. Each round builds a candidate net by
    weighted greedy cover (score = weight times fresh coverage, lowest id
    on ties) capped at the plain greedy-cover size; if the net fails to
    dominate, the weights inside the ball of the lowest-id uncovered
    dominatee double and the next round runs. The first valid net is
    returned; after max_rounds the plain greedy cover is, so the result
    always dominates z.
    """
    witness = greedy_scattered_lower_bound(inst)
    if not inst.z:
        return DominatorResult(frozenset(), True, witness)
    zs, _, cover = _coverage(inst)
    n = inst.g.n
    full = (1 << len(zs)) - 1
    fallback = _greedy_cover(n, cover, full)
    budget = len(fallback)
    weights = [1] * n
    for _ in range(max_rounds):
        net = []
        covered = 0
        while covered != full and len(net) < budget:
            pick = -1
            score = 0
            for v in range(n):
                s = weights[v] * (cover[v] & ~covered).bit_count()
                if s > score:
                    pick, score = v, s
            if pick < 0:
                break
            net.append(pick)
            covered |= cover[pick]
        if covered == full:
            return DominatorResult(frozenset(net), len(net) == len(witness), witness)
        uncovered = next(i for i in range(len(zs)) if not covered & (1 << i))
        for x in bounded_bfs(inst.g, zs[uncovered], inst.r):
            weights[x] *= 2
    return DominatorResult(frozenset(fallback), len(fallback) == len(witness), witness)
