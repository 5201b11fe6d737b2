"""Broadcast assignments and the definitional verification predicates.

These checks are one-liners over the distance matrix: a vertex is dominated
if some active vertex reaches it, two balls are disjoint iff their centers
are farther apart than the combined power, and two disjoint balls touch iff
the center distance exceeds it by exactly one.  One pass over the active
pairs, in lexicographic order, collects both the overlapping and the
touching pairs; efficiency, the domination graph's edges and the path-shape
test all read that pass.  Everything downstream (solvers, oracle, CLI) is
judged against these definitions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple, Optional

from .graph import DistanceMatrix, Graph, _content_lines, _int_pairs, bits_of

__all__ = [
    "Broadcast",
    "CheckResult",
    "Verdict",
    "ball_mask",
    "verify_dominating",
    "verify_efficient",
    "verify_path_shaped",
    "domination_edges",
    "full_verdict",
    "parse_broadcast",
]


@dataclass(frozen=True)
class Broadcast:
    """A vertex -> power assignment.  Only positive powers are stored."""

    assignment: tuple[tuple[int, int], ...]  # sorted by vertex

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[int, int]]) -> Broadcast:
        kept = {}
        for v, p in pairs:
            if p < 0:
                raise ValueError(f"negative power {p} at vertex {v}")
            if p == 0:
                continue
            if v in kept:
                raise ValueError(f"vertex {v} assigned twice")
            kept[v] = p
        return cls(tuple(sorted(kept.items())))

    @property
    def cost(self) -> int:
        return sum(p for _, p in self.assignment)

    @property
    def active(self) -> tuple[int, ...]:
        return tuple(v for v, _ in self.assignment)


class CheckResult(NamedTuple):
    ok: bool
    witness: object  # None when ok; otherwise a vertex or vertex pair


@dataclass(frozen=True)
class Verdict:
    """Combined verification result.  path_shaped is None when efficiency
    fails, since the path test is only defined for efficient broadcasts."""

    dominating: bool
    efficient: bool
    path_shaped: Optional[bool]
    witness_undominated: Optional[int] = None
    witness_overlap: Optional[tuple[int, int]] = None
    witness_shape: Optional[int] = None


def ball_mask(dm: DistanceMatrix, v: int, p: int) -> int:
    """Vertices within distance p of v, as a bit mask."""
    if p < 0:
        raise ValueError(f"power must be nonnegative, got {p}")
    return bits_of((dm.dist[v] <= p).nonzero()[0].tolist())


def _check_powers(g: Graph, bc: Broadcast) -> None:
    for v, p in bc.assignment:
        if v < 0 or v >= g.n:
            raise ValueError(f"active vertex {v} out of range")
        if p > g.n - 1:
            raise ValueError(f"power {p} at vertex {v} exceeds n-1")


def verify_dominating(g: Graph, dm: DistanceMatrix, bc: Broadcast) -> CheckResult:
    """Every vertex within reach of some active vertex.

    The one-vertex graph is dominated by the zero broadcast by convention.
    The witness is the first undominated vertex.
    """
    _check_powers(g, bc)
    if g.n == 1:
        return CheckResult(True, None)
    covered = 0
    for v, p in bc.assignment:
        covered |= ball_mask(dm, v, p)
    if covered == g.full_mask:
        return CheckResult(True, None)
    missing = ~covered & g.full_mask
    return CheckResult(False, (missing & -missing).bit_length() - 1)


def _contacts(dm: DistanceMatrix, bc: Broadcast) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """The one pass over the active pairs, in lexicographic order: the
    overlapping pairs (dist <= p+q) and the touching pairs (dist = p+q+1)."""
    items = bc.assignment
    overlaps, touches = [], []
    for i, (u, p) in enumerate(items):
        for v, q in items[i + 1 :]:
            gap = int(dm.dist[u, v]) - p - q
            if gap <= 0:
                overlaps.append((u, v))
            elif gap == 1:
                touches.append((u, v))
    return overlaps, touches


def _shape_witness(actives: tuple[int, ...], edges: list[tuple[int, int]]) -> Optional[int]:
    """None when these edges make the sorted actives a path (of 0 or more
    vertices); else the first vertex of degree >= 3, else the least vertex
    cut off from actives[0], else (a cycle) the least active vertex."""
    if not actives:
        return None
    nbr: dict[int, list[int]] = {v: [] for v in actives}
    for u, v in edges:
        nbr[u].append(v)
        nbr[v].append(u)
    for v in actives:
        if len(nbr[v]) >= 3:
            return v
    seen = {actives[0]}
    stack = [actives[0]]
    while stack:
        for w in nbr[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    if len(seen) < len(actives):
        return min(v for v in actives if v not in seen)
    if len(edges) != len(actives) - 1:  # connected with max degree 2 and extra edges = cycle
        return min(actives)
    return None


def verify_efficient(g: Graph, dm: DistanceMatrix, bc: Broadcast) -> CheckResult:
    """Balls of distinct active vertices pairwise disjoint.

    Disjointness of two balls reduces to dist(a,b) > p+q, so active pairs
    are checked directly on the distance matrix.  The witness is the first
    overlapping pair in lexicographic order.
    """
    _check_powers(g, bc)
    overlaps, _ = _contacts(dm, bc)
    return CheckResult(not overlaps, overlaps[0] if overlaps else None)


def domination_edges(dm: DistanceMatrix, bc: Broadcast) -> list[tuple[int, int]]:
    """Edges of the domination graph on active vertices.

    Assumes the broadcast is efficient; for disjoint balls, adjacency is
    exactly the tight-contact condition dist(a,b) = p+q+1.
    """
    return _contacts(dm, bc)[1]


def verify_path_shaped(g: Graph, dm: DistanceMatrix, bc: Broadcast) -> CheckResult:
    """Domination graph is a (possibly single-vertex) path.

    Requires an efficient broadcast; raises ValueError otherwise.  A path
    means connected, acyclic, and maximum degree at most two.  The witness
    is a vertex of degree >= 3 when one exists, otherwise an active vertex
    on the offending cycle or in a separated component.
    """
    _check_powers(g, bc)
    overlaps, touches = _contacts(dm, bc)
    if overlaps:
        raise ValueError(f"verify_path_shaped requires an efficient broadcast; balls of {overlaps[0]} overlap")
    witness = _shape_witness(bc.active, touches)
    return CheckResult(witness is None, witness)


def full_verdict(g: Graph, dm: DistanceMatrix, bc: Broadcast) -> Verdict:
    dom = verify_dominating(g, dm, bc)  # the verdict's one power check
    overlaps, touches = _contacts(dm, bc)
    shape = None if overlaps else _shape_witness(bc.active, touches)
    return Verdict(
        dominating=dom.ok,
        efficient=not overlaps,
        path_shaped=None if overlaps else shape is None,
        witness_undominated=dom.witness,
        witness_overlap=overlaps[0] if overlaps else None,
        witness_shape=shape,
    )


def parse_broadcast(text: str) -> Broadcast:
    """Parse the broadcast file format: one "vertex power" pair per line.

    '#' starts a comment; zero powers are dropped.
    """
    return Broadcast.from_pairs(_int_pairs(_content_lines(text), ValueError, "vertex power", "vertex or power"))
