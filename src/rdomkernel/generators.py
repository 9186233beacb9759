"""Deterministic graph generators for the experiment harness.

Same spec, same bytes: every family is a pure function of its parameters
and seed, so benchmark rows and regression fixtures reproduce exactly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

from .graphs import MAX_EDGES, MAX_VERTICES, Graph, SizeCapError


@dataclass(frozen=True)
class GenSpec:
    family: str
    params: dict = field(default_factory=dict)
    seed: int = 0


def _at_least(*lows: int, rule: str) -> Callable[..., None]:
    # a family's argument rule: each argument at least its low, or
    # ValueError(rule); its builder and generate's pre-build checks both
    # call it
    def check(*args: int) -> None:
        if any(a < low for a, low in zip(args, lows)):
            raise ValueError(rule)

    return check


_PATH_RULE = _at_least(0, rule="vertex count must be non-negative")
_CYCLE_RULE = _at_least(3, rule="cycle needs at least 3 vertices")
_STAR_RULE = _at_least(0, rule="leaf count must be non-negative")
_GRID_RULE = _at_least(1, 1, rule="grid sides must be positive")
_SPIDER_RULE = _at_least(0, 1, rule="spider needs non-negative legs of positive length")
_SUBDIVISION_RULE = _at_least(0, 0, rule="subdivision needs a non-negative size and depth")
_RANDOM_BOUNDED_DEGREE_RULE = _at_least(0, 0, rule="size and degree bound must be non-negative")
_RANDOM_TREE_RULE = _at_least(0, rule="size must be non-negative")


def path_graph(n: int) -> Graph:
    _PATH_RULE(n)
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    _CYCLE_RULE(n)
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def star_graph(leaves: int) -> Graph:
    """Center 0 with the given number of pendant leaves."""
    _STAR_RULE(leaves)
    return Graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def grid_graph(w: int, h: int) -> Graph:
    """w x h four-neighbor grid; vertex (x, y) has id y*w + x."""
    _GRID_RULE(w, h)
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
    _SPIDER_RULE(legs, length)
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
    _SUBDIVISION_RULE(n, r)
    return subdivide(complete_graph(n), r)


def _subset_gadget_rule(a: int) -> None:
    if a < 0:
        raise ValueError("anchor count must be non-negative")
    # a is compared first so that a huge a never builds the integer 2**a
    if a >= MAX_VERTICES.bit_length() or a + (1 << a) > MAX_VERTICES:
        raise SizeCapError(f"subset gadget with {a} anchors exceeds the cap of {MAX_VERTICES} vertices")


def subset_gadget_graph(a: int) -> Graph:
    """a independent anchors 0..a-1 plus one fresh vertex per subset of the
    anchors (the empty subset's vertex is isolated), adjacent to exactly
    that subset. Fresh vertex for bitmask s has id a + s. Realizes all 2**a
    anchor traces as closed neighborhoods."""
    _subset_gadget_rule(a)
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
    _RANDOM_BOUNDED_DEGREE_RULE(n, d)
    rng = random.Random(seed)
    stubs = [v for v in range(n) for _ in range(d)]
    rng.shuffle(stubs)
    return Graph(n, [(u, v) for u, v in zip(stubs[0::2], stubs[1::2]) if u != v])


def random_tree_graph(n: int, seed: int) -> Graph:
    """Random recursive tree: vertex i >= 1 attaches to a uniform earlier one."""
    _RANDOM_TREE_RULE(n)
    rng = random.Random(seed)
    return Graph(n, [(rng.randrange(i), i) for i in range(1, n)])


class Family(NamedTuple):
    """One generator family: its builder, the builder's parameter names in
    argument order, ``size(*params) -> (vertices, edges)`` for
    non-negative parameters, where edges counts the largest edge-like list
    the builder allocates, and ``rule(*params)``, the builder's own argument
    check, which raises before anything is built. A seeded builder takes
    the seed last."""

    build: Callable[..., Graph]
    params: tuple[str, ...]
    size: Callable[..., tuple[int, int]]
    rule: Callable[..., None]
    seeded: bool = False


def _subset_gadget_size(a: int) -> tuple[int, int]:
    # 2**a is never built for a huge a: such an a is left to the family's
    # rule, which rejects it before any allocation
    if a >= MAX_VERTICES.bit_length():
        return 0, 0
    subsets = 1 << a
    return a + subsets, a * subsets // 2


def _subdivision_size(n: int, r: int) -> tuple[int, int]:
    # K_n's edges are built whatever r is; subdividing makes r+1 of each
    k = n * (n - 1) // 2
    return n + r * k, (r + 1) * k


FAMILY_TABLE = {
    "grid": Family(grid_graph, ("w", "h"), lambda w, h: (w * h, 2 * w * h), _GRID_RULE),
    "path": Family(path_graph, ("n",), lambda n: (n, n), _PATH_RULE),
    "cycle": Family(cycle_graph, ("n",), lambda n: (n, n), _CYCLE_RULE),
    "star": Family(star_graph, ("leaves",), lambda leaves: (leaves + 1, leaves), _STAR_RULE),
    "spider": Family(
        spider_graph, ("legs", "len"), lambda legs, len_: (1 + legs * len_, legs * len_), _SPIDER_RULE
    ),
    # the n*d degree stubs are allocated before any pairing
    "random_bounded_degree": Family(
        random_bounded_degree_graph,
        ("n", "d"),
        lambda n, d: (n, n * d),
        _RANDOM_BOUNDED_DEGREE_RULE,
        seeded=True,
    ),
    "random_tree": Family(random_tree_graph, ("n",), lambda n: (n, n), _RANDOM_TREE_RULE, seeded=True),
    "subdivision": Family(subdivision_graph, ("n", "r"), _subdivision_size, _SUBDIVISION_RULE),
    "subset_gadget": Family(subset_gadget_graph, ("a",), _subset_gadget_size, _subset_gadget_rule),
}
FAMILIES = tuple(FAMILY_TABLE)
PARAMETERS = tuple(dict.fromkeys(name for family in FAMILY_TABLE.values() for name in family.params))


def _checked_args(spec: GenSpec) -> tuple[Family, list[int]]:
    # the family and builder arguments of a spec, after every check that
    # needs no building: a known family, each of its parameters given, the
    # vertex and edge caps, computed from the parameters alone, and the
    # family's argument rule
    family = FAMILY_TABLE.get(spec.family)
    if family is None:
        raise ValueError(f"unknown family {spec.family!r}; known: {', '.join(FAMILIES)}")
    try:
        args = [int(spec.params[name]) for name in family.params]
    except KeyError as missing:
        raise ValueError(f"family {spec.family!r} needs parameter {missing.args[0]!r}") from None
    # negative sizes count as 0, so that the rule reports them
    vertices, edges = family.size(*(max(0, a) for a in args))
    if vertices > MAX_VERTICES:
        raise SizeCapError(f"{spec.family} with {vertices} vertices exceeds the cap of {MAX_VERTICES}")
    if edges > MAX_EDGES:
        raise SizeCapError(f"{spec.family} with {edges} edges exceeds the cap of {MAX_EDGES}")
    family.rule(*args)
    return family, args


def generate(spec: GenSpec) -> Graph:
    """Build the graph a spec describes; same spec, identical graph. A spec
    for more than :data:`~rdomkernel.graphs.MAX_VERTICES` vertices or more
    than :data:`~rdomkernel.graphs.MAX_EDGES` edges raises
    :class:`SizeCapError` from its parameters, before anything is built."""
    family, args = _checked_args(spec)
    if family.seeded:
        args.append(spec.seed)
    return family.build(*args)
