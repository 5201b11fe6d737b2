"""Answer checks computed apart from the solver.

Distances come from the benchmark's own breadth-first search over the
graph's edge list, not from the package's `apsp` or `verify`, so a fault
shared by the solver and its verification helpers cannot hide here.

An answer is an assignment: a tuple of (vertex, power) pairs.  Checks, in
order: well-formed balls; every vertex dominated; for the path case, balls
pairwise disjoint with a path-shaped contact graph; cost within
[ceil((diam+1)/3), rad] (Erwin 2004 below, the radial broadcast above);
and the exact cost when a closed form or the oracle gives one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from broadcast_domination import Graph


@dataclass(frozen=True)
class Reference:
    n: int
    dist: list[list[int]]
    lower: int  # ceil((diam + 1) / 3)
    upper: int  # rad
    expected: Optional[int]  # exact optimum, when known
    path_case: bool


def bfs_distances(g: Graph) -> list[list[int]]:
    """All-pairs hop distances from the edge list; -1 marks unreachable."""
    n = g.n
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in g.edges():
        adj[u].append(v)
        adj[v].append(u)
    rows = []
    for s in range(n):
        row = [-1] * n
        row[s] = 0
        frontier = [s]
        d = 0
        while frontier:
            d += 1
            nxt = []
            for u in frontier:
                for w in adj[u]:
                    if row[w] < 0:
                        row[w] = d
                        nxt.append(w)
            frontier = nxt
        rows.append(row)
    return rows


def closed_form(family: str, n: int, solver: str) -> Optional[int]:
    """Known optimum on paths and cycles, None elsewhere.

    ceil(n/3) for the general optimum on paths and cycles and for the path
    case on paths; ceil(n/2) - 1 for the path case on cycles with n >= 5.
    """
    if family == "path" or (family == "cycle" and solver == "optimal"):
        return -(-n // 3)
    if family == "cycle" and n >= 5:
        return -(-n // 2) - 1
    return None


def reference_for(g: Graph, solver: str, expected: Optional[int], dist: Optional[list[list[int]]] = None) -> Reference:
    if dist is None:
        dist = bfs_distances(g)
    ecc = [max(row) for row in dist]
    if min(min(row) for row in dist) < 0:
        raise ValueError("benchmark instances must be connected")
    return Reference(
        n=g.n,
        dist=dist,
        lower=(max(ecc) + 3) // 3,
        upper=min(ecc),
        expected=expected,
        path_case=solver == "path",
    )


def check(ref: Reference, assignment: tuple[tuple[int, int], ...]) -> Optional[str]:
    """None when the answer passes every check, else the first failure."""
    n, dist = ref.n, ref.dist
    centres = set()
    for v, p in assignment:
        if not 0 <= v < n or p < 1 or v in centres:
            return f"malformed ball ({v}, {p})"
        centres.add(v)
    covered = [False] * n
    for v, p in assignment:
        row = dist[v]
        for z in range(n):
            if row[z] <= p:
                covered[z] = True
    if not all(covered):
        return f"vertex {covered.index(False)} undominated"
    if ref.path_case:
        shape = _path_shape_failure(dist, assignment)
        if shape is not None:
            return shape
    cost = sum(p for _, p in assignment)
    if not ref.lower <= cost <= ref.upper:
        return f"cost {cost} outside [{ref.lower}, {ref.upper}]"
    if ref.expected is not None and cost != ref.expected:
        return f"cost {cost}, expected {ref.expected}"
    return None


def _path_shape_failure(dist: list[list[int]], assignment) -> Optional[str]:
    """Balls pairwise disjoint and their contact graph a path."""
    t = len(assignment)
    nbrs: list[list[int]] = [[] for _ in range(t)]
    for i in range(t):
        u, p = assignment[i]
        for j in range(i + 1, t):
            v, q = assignment[j]
            d = dist[u][v]
            if d <= p + q:
                return f"balls at {u} and {v} overlap"
            if d == p + q + 1:
                nbrs[i].append(j)
                nbrs[j].append(i)
    if sum(len(a) for a in nbrs) != 2 * (t - 1) or any(len(a) > 2 for a in nbrs):
        return "contact graph is not a path"
    seen = {0}
    stack = [0]
    while stack:
        for j in nbrs[stack.pop()]:
            if j not in seen:
                seen.add(j)
                stack.append(j)
    if len(seen) != t:
        return "contact graph is not connected"
    return None


def corruptions(assignment: tuple[tuple[int, int], ...], path_case: bool) -> list[tuple[str, tuple]]:
    """Answers a correct checker must reject, derived from a correct one.

    Dropping a ball or lowering a power gives a broadcast cheaper than the
    optimum, so it cannot dominate (or, in the path case, cannot also be
    path-shaped).  Raising a power in the path case either overlaps a
    contact neighbour or exceeds rad.
    """
    if not assignment:
        return []
    i = max(range(len(assignment)), key=lambda k: assignment[k][1])
    v, p = assignment[i]
    out = [
        ("drop one ball", assignment[:i] + assignment[i + 1 :]),
        ("lower one power", assignment[:i] + (((v, p - 1),) if p > 1 else ()) + assignment[i + 1 :]),
    ]
    if path_case:
        out.append(("raise one power", assignment[:i] + ((v, p + 1),) + assignment[i + 1 :]))
    return out
