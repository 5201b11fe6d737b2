"""Deterministic benchmark graph families.

Random families draw from splitmix64, so an instance is pinned down by
(family, n, seed, params) alone, with no dependence on Python's RNG.  The
same spec always reproduces the same edge set, in any process.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush

from .graph import Graph, InternalError, check_vertex_count, is_connected

__all__ = [
    "FAMILIES",
    "GeneratorSpec",
    "SplitMix64",
    "generate",
    "path_graph",
    "cycle_graph",
    "star_graph",
    "wheel_graph",
    "barbell_graph",
    "random_tree",
    "sparse_random",
]

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


class SplitMix64:
    """The standard splitmix64 generator; tiny and portable.

    State advances by the 64-bit golden ratio; output is the finalizer
    z ^= z>>30; z *= 0xBF58476D1CE4E5B9; z ^= z>>27; z *= 0x94D049BB133111EB;
    z ^= z>>31.  Bounded draws use unbiased rejection.
    """

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + _GOLDEN) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def below(self, bound: int) -> int:
        """Uniform draw from [0, bound) by rejection."""
        if bound <= 0:
            raise ValueError(f"bound must be positive, got {bound}")
        limit = (1 << 64) - ((1 << 64) % bound)
        while True:
            z = self.next_u64()
            if z < limit:
                return z % bound


@dataclass
class GeneratorSpec:
    family: str
    n: int
    seed: int = 0
    extra: dict = field(default_factory=dict)


def path_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError(f"cycle needs n >= 3, got {n}")
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def star_graph(n: int) -> Graph:
    """Center 0 joined to n-1 leaves."""
    return Graph.from_edges(n, [(0, i) for i in range(1, n)])


def wheel_graph(n: int) -> Graph:
    """Hub 0 joined to every vertex of the cycle 1..n-1."""
    if n < 4:
        raise ValueError(f"wheel needs n >= 4, got {n}")
    edges = [(0, i) for i in range(1, n)]
    edges += [(i, i + 1) for i in range(1, n - 1)]
    edges.append((n - 1, 1))
    return Graph.from_edges(n, edges)


def barbell_graph(n: int, bell: int | None = None) -> Graph:
    """Two cliques of size floor(n/3) joined by a path of the rest."""
    if bell is None:
        bell = n // 3
    middle = n - 2 * bell
    if bell < 2 or middle < 1:
        raise ValueError(f"barbell with n={n}, bell={bell} is not decomposable")
    edges = []
    for i in range(bell):
        for j in range(i + 1, bell):
            edges.append((i, j))
            edges.append((n - bell + i, n - bell + j))
    for i in range(bell, n - bell - 1):
        edges.append((i, i + 1))
    edges.append((bell - 1, bell))
    edges.append((n - bell - 1, n - bell))
    return Graph.from_edges(n, edges)


def _pruefer_tree_edges(n: int, rng: SplitMix64) -> list[tuple[int, int]]:
    """Edges of a uniform random labeled tree decoded from a sampled Pruefer
    sequence; draws n-2 values from rng, none when n <= 2."""
    if n == 1:
        return []
    seq = [rng.below(n) for _ in range(n - 2)]
    deg = [1] * n
    for x in seq:
        deg[x] += 1
    leaves = [v for v in range(n) if deg[v] == 1]
    heapify(leaves)
    edges = []
    for x in seq:
        v = heappop(leaves)
        edges.append((v, x))
        deg[x] -= 1
        if deg[x] == 1:
            heappush(leaves, x)
    edges.append((heappop(leaves), heappop(leaves)))
    return edges


def random_tree(n: int, seed: int) -> Graph:
    """Uniform random labeled tree via a sampled Pruefer sequence."""
    return Graph.from_edges(n, _pruefer_tree_edges(n, SplitMix64(seed)))


def sparse_random(n: int, seed: int, p: float | None = None) -> Graph:
    """Connected random graph by construction: a uniform random tree plus
    every other vertex pair independently with probability p.

    The tree and the extra edges come from one splitmix64 stream.  Default
    p = 1/n adds about n/2 edges to the tree's n-1, so the mean degree stays
    near 3; p = 1 gives the complete graph.  Each remaining pair, in
    ascending (u, v) order, consumes one 53-bit draw compared against an
    integer threshold, so the instance is exact, not float-rounding
    dependent.
    """
    if p is None:
        p = 1.0 / n
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"edge probability must be in [0,1], got {p}")
    thresh = int(p * (1 << 53))
    rng = SplitMix64(seed)
    edges = _pruefer_tree_edges(n, rng)
    tree = {(min(a, b), max(a, b)) for a, b in edges}
    for u in range(n):
        for v in range(u + 1, n):
            if (u, v) not in tree and rng.next_u64() >> 11 < thresh:
                edges.append((u, v))
    return Graph.from_edges(n, edges)


# family name -> (builder(n, seed, **parameters), {extra key=value parameter: its type})
_FAMILY_TABLE = {
    "path": (lambda n, seed: path_graph(n), {}),
    "cycle": (lambda n, seed: cycle_graph(n), {}),
    "random-tree": (random_tree, {}),
    "sparse-random": (sparse_random, {"p": float}),
    "barbell": (lambda n, seed, bell=None: barbell_graph(n, bell), {"bell": int}),
    "star": (lambda n, seed: star_graph(n), {}),
    "wheel": (lambda n, seed: wheel_graph(n), {}),
}
FAMILIES = tuple(_FAMILY_TABLE)


def generate(spec: GeneratorSpec) -> Graph:
    """Dispatch on the family name; the result is always connected."""
    family, n = spec.family, spec.n
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    check_vertex_count(n)
    if family not in _FAMILY_TABLE:
        raise ValueError(f"unknown family {family!r}; known: {', '.join(FAMILIES)}")
    build, takes = _FAMILY_TABLE[family]
    unknown = sorted(set(spec.extra) - set(takes))
    if unknown:
        raise ValueError(f"family {family!r} has no parameter {unknown[0]!r}; it takes: {', '.join(takes) or 'none'}")
    params = {}
    for key, value in spec.extra.items():
        if value is not None:
            try:
                params[key] = takes[key](value)
            except ValueError:
                kind = takes[key].__name__
                raise ValueError(f"family {family!r} parameter {key!r} must be {kind}, got {value!r}") from None
    g = build(n, spec.seed, **params)
    if not is_connected(g):
        raise InternalError(f"generator {family!r} produced a disconnected graph")
    return g
