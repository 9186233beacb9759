"""Seeded input builders for the benchmark.

Every input is built here from the run's seed and handed to the program as
edge-list text only, so a change to ``rdomkernel.generators`` cannot alter
what is measured. Each builder returns ``(n, edges)``; :func:`edge_text`
serialises that into the ``p <n>`` / ``u v`` format the CLI reads.

The same (seed, label) pair always yields the same graph: each builder
draws from its own ``random.Random`` seeded with a string, which Python
hashes the same way in every process.
"""

from __future__ import annotations

import math
import random


def rng_for(seed: int, label: str) -> random.Random:
    return random.Random(f"rdomkernel-bench:{seed}:{label}")


def edge_text(n: int, edges) -> str:
    lines = [f"p {n}"]
    lines.extend(f"{u} {v}" for u, v in edges)
    return "\n".join(lines) + "\n"


def relabel(n: int, edges, rng: random.Random, fixed: int = 0):
    """Apply a seeded permutation to the vertex ids, so that lowest-id
    tie-breaks in the program do not line up with the construction order.
    Ids below ``fixed`` keep their value."""
    perm = list(range(fixed, n))
    rng.shuffle(perm)
    perm = list(range(fixed)) + perm
    return n, sorted((min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in edges)


def planted_hubs(rng: random.Random, hubs: int, r: int, pendants=(35, 60)):
    """Hubs joined into a random tree by 3-edge paths, each hub carrying
    between ``pendants[0]`` and ``pendants[1]`` pendant paths of length 1..r.

    This is the input shape that the kernel pipeline shrinks at target 0:
    the pendant paths of one hub share a projection profile on any small
    dominator closure, so the exchange test keeps finding redundant ones.
    The pendant counts are spread evenly over the range and the lengths
    evenly over 1..r; the seed shuffles them over the hubs and draws the
    hub tree and the vertex ids. So the vertex count depends on the shape
    parameters alone, and the cost of a graph varies little with the seed.

    Hubs keep the ids 0..hubs-1: at r=2 the separator search of
    ``quasi_wide_extract`` scores a hub and its pendant vertices equally and
    takes the lowest id, and with a pendant vertex picked nothing is removed.
    """
    lo, hi = pendants
    counts = [lo + (hi - lo) * i // max(hubs - 1, 1) for i in range(hubs)]
    rng.shuffle(counts)
    n = hubs
    edges = []
    for h in range(1, hubs):
        parent = rng.randrange(h)
        a, b = n, n + 1
        n += 2
        edges += [(parent, a), (a, b), (b, h)]
    for h in range(hubs):
        lengths = [1 + j % r for j in range(counts[h])]
        rng.shuffle(lengths)
        for length in lengths:
            prev = h
            for _ in range(length):
                edges.append((prev, n))
                prev = n
                n += 1
    return relabel(n, edges, rng, fixed=hubs)


def grid(w: int, h: int):
    """w x h four-neighbour grid, vertex (x, y) has id y*w + x."""
    edges = []
    for y in range(h):
        for x in range(w):
            v = y * w + x
            if x + 1 < w:
                edges.append((v, v + 1))
            if y + 1 < h:
                edges.append((v, v + w))
    return w * h, edges


def random_tree(rng: random.Random, n: int):
    """Random recursive tree: vertex i joins a uniform earlier vertex."""
    return relabel(n, [(rng.randrange(i), i) for i in range(1, n)], rng)


def bounded_degree(rng: random.Random, n: int, d: int = 3):
    """Stub pairing with d stubs per vertex; self-loops and repeated pairs
    are dropped, so every degree is at most d."""
    stubs = [v for v in range(n) for _ in range(d)]
    rng.shuffle(stubs)
    pairs = {(min(u, v), max(u, v)) for u, v in zip(stubs[::2], stubs[1::2]) if u != v}
    return n, sorted(pairs)


def spider(legs: int, length: int):
    """Centre 0 with ``legs`` paths of ``length`` edges each."""
    edges = []
    for leg in range(legs):
        prev = 0
        for i in range(length):
            v = 1 + leg * length + i
            edges.append((prev, v))
            prev = v
    return 1 + legs * length, edges


def grid_r1_infeasible_k(w: int, h: int) -> int:
    """One below the r=1 packing bound of a grid: vertices at pairwise
    distance at least 3 on a 3-spaced lattice need distinct dominators, so
    ceil(w/3) * ceil(h/3) - 1 dominators cannot suffice."""
    return math.ceil(w / 3) * math.ceil(h / 3) - 1


def spider_r1_infeasible_k(legs: int) -> int:
    """One below the r=1 bound of a spider with legs of length >= 2: the
    leg tips are pairwise at distance >= 4, so each needs its own dominator."""
    return legs - 1
