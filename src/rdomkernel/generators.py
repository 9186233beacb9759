"""Deterministic graph generators for the experiment harness.

Same spec, same bytes: every family is a pure function of its parameters
and seed, so benchmark rows and regression fixtures reproduce exactly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .graphs import MAX_VERTICES, Graph, SizeCapError

FAMILIES = (
    "grid",
    "path",
    "cycle",
    "star",
    "spider",
    "random_bounded_degree",
    "random_tree",
    "subdivision",
    "subset_gadget",
)


@dataclass(frozen=True)
class GenSpec:
    family: str
    params: dict = field(default_factory=dict)
    seed: int = 0


def path_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def star_graph(leaves: int) -> Graph:
    """Center 0 with the given number of pendant leaves."""
    return Graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def grid_graph(w: int, h: int) -> Graph:
    """w x h four-neighbor grid; vertex (x, y) has id y*w + x."""
    if w < 1 or h < 1:
        raise ValueError("grid sides must be positive")
    edges = []
    for y in range(h):
        for x in range(w):
            v = y * w + x
            if x + 1 < w:
                edges.append((v, v + 1))
            if y + 1 < h:
                edges.append((v, v + w))
    return Graph(w * h, edges)


def spider_graph(legs: int, length: int) -> Graph:
    """Center 0 with ``legs`` pendant paths of ``length`` edges each; leg i
    occupies ids 1 + i*length .. (i+1)*length outward."""
    if legs < 0 or length < 1:
        raise ValueError("spider needs non-negative legs of positive length")
    edges = []
    for i in range(legs):
        prev = 0
        for j in range(length):
            v = 1 + i * length + j
            edges.append((prev, v))
            prev = v
    return Graph(1 + legs * length, edges)


def complete_graph(n: int) -> Graph:
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def subdivide(g: Graph, r: int) -> Graph:
    """Replace every edge by a path of r+1 edges; the r fresh interior
    vertices of each edge follow the originals, edges in ascending order."""
    if r < 0:
        raise ValueError("subdivision depth must be non-negative")
    edges = []
    nxt = g.n
    for u, v in g.edges():
        chain = [u] + list(range(nxt, nxt + r)) + [v]
        nxt += r
        edges.extend(zip(chain, chain[1:]))
    return Graph(nxt, edges)


def subdivision_graph(n: int, r: int) -> Graph:
    """The r-subdivision of the complete graph on n vertices: the standard
    dense-side stressor, where neighborhood traces blow up exponentially."""
    return subdivide(complete_graph(n), r)


def subset_gadget_graph(a: int) -> Graph:
    """a independent anchors 0..a-1 plus one fresh vertex per subset of the
    anchors (the empty subset's vertex is isolated), adjacent to exactly
    that subset. Fresh vertex for bitmask s has id a + s. Realizes all 2**a
    anchor traces as closed neighborhoods."""
    if a < 0:
        raise ValueError("anchor count must be non-negative")
    # a is compared first so that a huge a never builds the integer 2**a
    if a >= MAX_VERTICES.bit_length() or a + (1 << a) > MAX_VERTICES:
        raise SizeCapError(f"subset gadget with {a} anchors exceeds the cap of {MAX_VERTICES} vertices")
    edges = []
    for s in range(1 << a):
        fresh = a + s
        for bit in range(a):
            if s >> bit & 1:
                edges.append((fresh, bit))
    return Graph(a + (1 << a), edges)


def random_bounded_degree_graph(n: int, d: int, seed: int) -> Graph:
    """Uniform stub pairing with max degree d: shuffle n*d vertex stubs and
    pair them off, rejecting self-loops and repeats."""
    if n < 0 or d < 0:
        raise ValueError("size and degree bound must be non-negative")
    rng = random.Random(seed)
    stubs = [v for v in range(n) for _ in range(d)]
    rng.shuffle(stubs)
    seen = set()
    edges = []
    for u, v in zip(stubs[0::2], stubs[1::2]):
        if u == v:
            continue
        key = (u, v) if u < v else (v, u)
        if key in seen:
            continue
        seen.add(key)
        edges.append(key)
    return Graph(n, edges)


def random_tree_graph(n: int, seed: int) -> Graph:
    """Random recursive tree: vertex i >= 1 attaches to a uniform earlier one."""
    if n < 0:
        raise ValueError("size must be non-negative")
    rng = random.Random(seed)
    return Graph(n, [(rng.randrange(i), i) for i in range(1, n)])


def generate(spec: GenSpec) -> Graph:
    """Build the graph a spec describes; same spec, identical graph."""
    p = spec.params
    try:
        if spec.family == "grid":
            return grid_graph(int(p["w"]), int(p["h"]))
        if spec.family == "path":
            return path_graph(int(p["n"]))
        if spec.family == "cycle":
            return cycle_graph(int(p["n"]))
        if spec.family == "star":
            return star_graph(int(p["leaves"]))
        if spec.family == "spider":
            return spider_graph(int(p["legs"]), int(p["len"]))
        if spec.family == "random_bounded_degree":
            return random_bounded_degree_graph(int(p["n"]), int(p["d"]), spec.seed)
        if spec.family == "random_tree":
            return random_tree_graph(int(p["n"]), spec.seed)
        if spec.family == "subdivision":
            return subdivision_graph(int(p["n"]), int(p["r"]))
        if spec.family == "subset_gadget":
            return subset_gadget_graph(int(p["a"]))
    except KeyError as missing:
        raise ValueError(f"family {spec.family!r} needs parameter {missing.args[0]!r}") from None
    raise ValueError(f"unknown family {spec.family!r}; known: {', '.join(FAMILIES)}")
