"""Graph representation, edge-list I/O and BFS metrics.

Vertices are dense integers 0..n-1.  Where a caller needs vertex sets
(verification, the oracle), they are plain Python ints used as bit masks
(bit z set = vertex z present, packed by bits_of), which keeps unions,
intersections, and popcounts word-parallel even when many of them are
built.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable

import numpy as np

__all__ = [
    "Graph",
    "DistanceMatrix",
    "GraphFormatError",
    "GraphTooLargeError",
    "DisconnectedGraphError",
    "InternalError",
    "parse_graph",
    "render_graph",
    "apsp",
    "bfs_distances",
    "check_vertex_count",
    "is_connected",
    "induced_subgraph",
    "bits_of",
]


class GraphFormatError(ValueError):
    """Malformed edge-list text, or an edge set violating simplicity."""


# distances and table entries are int16, so Graph.from_edges keeps every
# vertex count below this
MAX_VERTICES = 32000


class GraphTooLargeError(ValueError):
    """A vertex count of MAX_VERTICES or more, rejected before any
    per-vertex allocation, or path tables larger than physical memory,
    rejected before they are allocated.  When the tables are a peel
    residual's, solve_optimal re-raises the refusal naming its input's
    vertex count and the peeled ball."""


def check_vertex_count(n: int) -> None:
    """Raise GraphTooLargeError for n >= MAX_VERTICES; callers run it before
    building anything per vertex."""
    if n >= MAX_VERTICES:
        raise GraphTooLargeError(f"vertex count {n} is not below the supported maximum {MAX_VERTICES}")


class DisconnectedGraphError(ValueError):
    """An operation that needs a connected graph received a disconnected one."""


class InternalError(RuntimeError):
    """An invariant the algorithms guarantee was violated: a bug, not bad
    input.  Raised explicitly rather than asserted so that `python -O`
    keeps the checks."""


def bits_of(vertices: Iterable[int]) -> int:
    """Pack an iterable of vertex indices into a bit mask."""
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


@dataclass(frozen=True)
class Graph:
    """Immutable simple undirected graph on vertices 0..n-1.

    Adjacency is one sorted neighbor tuple per vertex and is all that is
    stored; edges() derives the edge list from it.
    """

    n: int
    adj: tuple[tuple[int, ...], ...]

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]], strict: bool = False) -> Graph:
        """Build a graph, validating simplicity.

        Self-loops and out-of-range endpoints are always errors; duplicate
        edges are errors only in strict mode, otherwise they collapse.
        """
        if n <= 0:
            raise GraphFormatError(f"vertex count must be positive, got {n}")
        check_vertex_count(n)
        seen: set[tuple[int, int]] = set()
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphFormatError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise GraphFormatError(f"self-loop at vertex {u}")
            key = (u, v) if u < v else (v, u)
            if key in seen:
                if strict:
                    raise GraphFormatError(f"duplicate edge ({key[0]},{key[1]})")
                continue
            seen.add(key)
        nbrs: list[list[int]] = [[] for _ in range(n)]
        for u, v in sorted(seen):
            nbrs[u].append(v)
            nbrs[v].append(u)
        # pairs come in sorted order, so every neighbour list is ascending
        return cls(n=n, adj=tuple(map(tuple, nbrs)))

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in self.adj[u] if u < v]

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1


def parse_graph(text: str, strict: bool = False) -> Graph:
    """Parse the edge-list format: line 1 is n, each later line is "u v".

    Anything after '#' on a line is a comment.  Duplicate edges collapse
    unless strict is set, in which case they are rejected.
    """
    lines = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append(line)
    if not lines:
        raise GraphFormatError("empty input")
    try:
        n = int(lines[0])
    except ValueError:
        raise GraphFormatError(f"first line must be the vertex count, got {lines[0]!r}") from None
    edges = []
    for line in lines[1:]:
        parts = line.split()
        if len(parts) != 2:
            raise GraphFormatError(f"expected 'u v', got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphFormatError(f"non-integer endpoint in {line!r}") from None
        edges.append((u, v))
    return Graph.from_edges(n, edges, strict=strict)


def render_graph(g: Graph) -> str:
    """Inverse of parse_graph; edges emitted sorted, one per line."""
    out = [str(g.n)]
    out.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(out) + "\n"


@dataclass(frozen=True, eq=False)
class DistanceMatrix:
    """All-pairs hop distances plus eccentricities and radius.

    Unreachable pairs hold the sentinel value n, which exceeds every real
    distance and fits the same integer width.  Eccentricities and radius are
    only meaningful when the graph is connected.
    """

    dist: np.ndarray  # (n, n) int16
    ecc: np.ndarray  # (n,) int16
    radius: int
    connected: bool

    @property
    def n(self) -> int:
        return self.dist.shape[0]


def bfs_distances(g: Graph, s: int) -> list[int]:
    """Hop distances from s by BFS; unreachable vertices hold the sentinel n."""
    n = g.n
    row = [n] * n
    row[s] = 0
    q = deque([s])
    adj = g.adj
    while q:
        u = q.popleft()
        du = row[u] + 1
        for w in adj[u]:
            if row[w] == n:
                row[w] = du
                q.append(w)
    return row


def apsp(g: Graph) -> DistanceMatrix:
    """Exact hop distances via one BFS per vertex, O(n*(n+m)) total."""
    n = g.n
    dist = np.empty((n, n), dtype=np.int16)
    for s in range(n):
        dist[s] = bfs_distances(g, s)
    ecc = dist.max(axis=1)
    connected = bool(int(ecc.max()) < n) if n > 1 else True
    radius = int(ecc.min())
    return DistanceMatrix(dist=dist, ecc=ecc, radius=radius, connected=connected)


def is_connected(g: Graph) -> bool:
    """True iff a BFS from vertex 0 reaches every vertex (true for n=1)."""
    return max(bfs_distances(g, 0)) < g.n


def induced_subgraph(g: Graph, keep: np.ndarray | list[int]) -> tuple[Graph, list[int]]:
    """Subgraph on the given ascending vertices (an array or a list),
    renumbered densely.

    Returns the subgraph together with the map from new index back to the
    original vertex.  The result may be disconnected.
    """
    back = np.asarray(keep, dtype=np.int64).tolist()
    if not back:
        raise ValueError("keep set is empty")
    index = {v: i for i, v in enumerate(back)}
    edges = []
    for i, v in enumerate(back):
        for w in g.adj[v]:
            if w > v and w in index:
                edges.append((i, index[w]))
    return Graph.from_edges(len(back), edges), back
