"""Graph representation, edge-list I/O and BFS metrics.

Vertices are dense integers 0..n-1.  Where a caller needs vertex sets
(verification, the oracle), they are plain Python ints used as bit masks
(bit z set = vertex z present, packed by bits_of), which keeps unions,
intersections, and popcounts word-parallel even when many of them are
built.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Optional

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


def _content_lines(text: str) -> list[str]:
    """The stripped lines of text without '#' comments, blank lines dropped."""
    return [line for raw in text.splitlines() if (line := raw.split("#", 1)[0].strip())]


def _int_pairs(lines: list[str], error: type[ValueError], shape: str, what: str) -> list[tuple[int, int]]:
    """Each line read as exactly two integers.  A line that is not raises
    error, naming the expected shape or, for a non-integer, what it holds."""
    pairs = []
    for line in lines:
        parts = line.split()
        if len(parts) != 2:
            raise error(f"expected {shape!r}, got {line!r}")
        try:
            pairs.append((int(parts[0]), int(parts[1])))
        except ValueError:
            raise error(f"non-integer {what} in {line!r}") from None
    return pairs


def parse_graph(text: str, strict: bool = False) -> Graph:
    """Parse the edge-list format: line 1 is n, each later line is "u v".

    Anything after '#' on a line is a comment.  Duplicate edges collapse
    unless strict is set, in which case they are rejected.
    """
    lines = _content_lines(text)
    if not lines:
        raise GraphFormatError("empty input")
    try:
        n = int(lines[0])
    except ValueError:
        raise GraphFormatError(f"first line must be the vertex count, got {lines[0]!r}") from None
    edges = _int_pairs(lines[1:], GraphFormatError, "u v", "endpoint")
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
    queue = [s]  # never popped: the loop walks it as it grows
    adj = g.adj
    for u in queue:
        du = row[u] + 1
        for w in adj[u]:
            if row[w] == n:
                row[w] = du
                queue.append(w)
    return row


def _double_sweep(g: Graph) -> Optional[tuple[int, list[int], list[int]]]:
    """(a, BFS row of vertex 0, BFS row of a), where a is the lowest-indexed
    vertex farthest from 0; None when g is disconnected.

    This is the double sweep: ecc(a), the largest entry of a's row, is at
    most diam g and at least half of it, because every pair of vertices is
    within ecc(a) + ecc(a) hops through a.
    """
    first = bfs_distances(g, 0)
    far = max(first)
    if far == g.n:  # the unreachable sentinel
        return None
    a = first.index(far)
    return a, first, bfs_distances(g, a)


# apsp takes the bit-parallel kernel for connected graphs of at least this
# many vertices (one full word of sources) ...
_BIT_MIN_VERTICES = 64
# ... whose double-sweep diameter bound 2 ecc(a) is at most this many levels
_BIT_MAX_LEVELS = 192
# a level gathers at most this many neighbour rows per vertex at a time, so
# its transient stays within 2 n^2 bytes on dense graphs
_BIT_GATHER_ROWS = 16


def _distance_planes(g: Graph) -> list[np.ndarray]:
    """Bit planes of the hop distances of a connected graph with two or
    more vertices, by one BFS from all sources at once, 64 sources per
    machine word (the bit-parallel BFS of Akiba, Iwata and Yoshida, SIGMOD
    2013): bit s of planes[j][z] is bit j of d(s, z), in (n, ceil(n / 64))
    little-endian uint64 words.

    seen[z] is the bitset of the sources within k hops of z.  One level
    sets seen[z] to seen[z] OR the seen words of z's neighbours: a gather
    and one reduceat over the CSR neighbour lists, in blocks of vertices
    whose gathered rows stay within _BIT_GATHER_ROWS * n.  The bits new at
    level k are the sources at distance exactly k; they are ORed into
    planes[j] for every set bit j of k.  The loop stops at the first level
    with no new bit, level diam + 1 <= n.  Every vertex has a neighbour, so no
    reduceat segment is empty (an empty one would return the next
    segment's word), and every pair is reached.
    """
    n = g.n
    words = (n + 63) // 64
    word = np.dtype("<u8")  # little-endian, so a byte view holds source s at bit s
    deg = np.fromiter(map(len, g.adj), dtype=np.intp, count=n)
    # vertex ids are below MAX_VERTICES, and int32 halves the 2m neighbour ids of a dense graph
    nbr = np.fromiter(chain.from_iterable(g.adj), dtype=np.int32, count=int(deg.sum()))
    indptr = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(deg, out=indptr[1:])
    budget = _BIT_GATHER_ROWS * n
    buffer = np.empty((min(nbr.size, budget), words), dtype=word)
    blocks = []
    lo = 0
    while lo < n:
        # the largest hi whose neighbour rows from lo fit the budget; one
        # vertex has fewer than n neighbours, so hi > lo
        hi = int(np.searchsorted(indptr, indptr[lo] + budget, side="right")) - 1
        start, stop = indptr[lo], indptr[hi]
        blocks.append((slice(lo, hi), nbr[start:stop], indptr[lo:hi] - start, buffer[: stop - start]))
        lo = hi
    ids = np.arange(n)
    seen = np.zeros((n, words), dtype=word)
    seen[ids, ids >> 6] = np.left_shift(np.uint64(1), (ids & 63).astype(np.uint64))
    reach = np.empty_like(seen)
    new = np.empty_like(seen)
    planes: list[np.ndarray] = []
    for level in range(1, n + 1):
        for part, rows, offsets, gathered in blocks:
            np.take(seen, rows, axis=0, out=gathered)
            np.bitwise_or.reduceat(gathered, offsets, axis=0, out=reach[part])
            reach[part] |= seen[part]
        np.bitwise_xor(reach, seen, out=new)
        if not new.any():
            return planes
        if level.bit_length() > len(planes):
            planes.append(np.zeros_like(seen))
        for j, plane in enumerate(planes):
            if level >> j & 1:
                plane |= new
        seen, reach = reach, seen
    raise InternalError(f"bit-parallel BFS on {n} vertices still found new sources at {n} hops")


def _bit_parallel_distances(g: Graph) -> np.ndarray:
    """The int16 distance matrix of _distance_planes' planes, unpacked from
    the highest plane down, one n^2-byte plane of bits at a time, once the
    level loop's bitsets and gather buffer are freed."""
    n = g.n
    dist = np.zeros((n, n), dtype=np.int16)
    for plane in reversed(_distance_planes(g)):
        dist <<= 1
        dist |= np.unpackbits(plane.view(np.uint8), axis=1, count=n, bitorder="little")
    return dist


def apsp(g: Graph) -> DistanceMatrix:
    """Exact hop distances, eccentricities and radius; pairs in different
    components hold the sentinel n.  O(n (n + m)) time, O(n^2) memory.

    Two kernels compute the same matrix, chosen from the input alone:
    - the bit-parallel BFS (_bit_parallel_distances), for a connected graph
      with at least _BIT_MIN_VERTICES vertices whose double-sweep bound
      2 ecc(a) >= diam is at most _BIT_MAX_LEVELS.  It runs diam + 1
      levels of (n + 2m) ceil(n / 64) word operations each, and the level
      cap is a constant, so it stays O(n (n + m)); its bitsets and bit
      planes take n^2 / 8 bytes each;
    - one BFS per vertex, O(n + m) each, for every other graph: small ones,
      where a level's NumPy calls cost more than the whole BFS, long ones,
      and disconnected ones, whose unreached pairs get the sentinel.  The
      sweep's two rows are kept, not searched again.
    """
    n = g.n
    sweep = _double_sweep(g) if n >= _BIT_MIN_VERTICES else None
    if sweep is not None and 2 * max(sweep[2]) <= _BIT_MAX_LEVELS:
        dist = _bit_parallel_distances(g)
    else:
        kept = {0: sweep[1], sweep[0]: sweep[2]} if sweep is not None else {}
        rows = [kept[s] if s in kept else bfs_distances(g, s) for s in range(n)]
        dist = np.array(rows, dtype=np.int16).reshape(n, n)
    ecc = dist.max(axis=1)
    connected = bool(int(ecc.max()) < n)
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
