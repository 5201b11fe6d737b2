"""Exhaustive ground truth for small instances.

Iterative deepening over the target cost: every active set of each size and
every positive split of the budget is tried until one dominates (and, for
the path-shaped variant, is efficient with a path-shaped contact graph).
The search touches only the distance matrix and the definitional
predicates, so it is independent of the production solver pipeline; that is
what makes it usable as an oracle for the solvers.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, combinations
from operator import le, or_
from typing import Iterator

from .graph import DisconnectedGraphError, DistanceMatrix, Graph, InternalError, apsp
from .verify import Broadcast, _contacts, _shape_witness

__all__ = [
    "OracleLimitError",
    "OracleResult",
    "oracle_gamma_b",
    "oracle_gamma_path",
    "iter_broadcasts_of_cost",
]

DEFAULT_LIMIT = 12


class OracleLimitError(ValueError):
    """Instance exceeds the configured brute-force size limit."""


@dataclass(frozen=True)
class OracleResult:
    cost: int
    witness: Broadcast
    explored: int  # candidate assignments examined


def _ball_masks(dm: DistanceMatrix) -> list[list[int]]:
    """masks[v][p] = members of the ball around v, for p = 0..ecc(v).

    Built as cumulative unions of the distance shells, O(n^2) total.
    """
    masks = []
    for v in range(dm.n):
        shells = [0] * (int(dm.ecc[v]) + 1)
        for z, d in enumerate(dm.dist[v].tolist()):
            shells[d] |= 1 << z
        masks.append(list(accumulate(shells, or_)))
    return masks


def _compositions(total: int, parts: int) -> list[tuple[int, ...]]:
    """Positive integer tuples of the given length summing to total, lex order."""
    if parts == 1:
        return [(total,)]
    return [(first, *rest) for first in range(1, total - parts + 2) for rest in _compositions(total - first, parts - 1)]


def _assignments(dm: DistanceMatrix, cost: int) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """(subset, powers) of the exact total cost, in the oracle's search order:
    by size, then subset, then composition of the cost, each lexicographic.

    Per-vertex powers are capped at the eccentricity (a larger power covers
    nothing extra), which prunes the space without losing any ball.
    """
    ecc = dm.ecc.tolist()
    for size in range(1, cost + 1):
        splits = _compositions(cost, size)
        for subset in combinations(range(dm.n), size):
            caps = [ecc[v] for v in subset]
            for powers in splits:
                if all(map(le, powers, caps)):
                    yield subset, powers


def iter_broadcasts_of_cost(dm: DistanceMatrix, cost: int) -> Iterator[Broadcast]:
    """All assignments of the exact total cost, in the oracle's search order."""
    return (Broadcast(tuple(zip(subset, powers))) for subset, powers in _assignments(dm, cost))


def _search(g: Graph, limit: int, path_shaped: bool) -> OracleResult:
    if g.n > limit:
        raise OracleLimitError(f"oracle limited to {limit} vertices, got {g.n}")
    if g.n == 1:
        return OracleResult(cost=0, witness=Broadcast(()), explored=0)
    dm = apsp(g)
    if not dm.connected:
        raise DisconnectedGraphError("oracle requires a connected graph")
    masks = _ball_masks(dm)
    full = g.full_mask
    explored = 0
    for cost in range(1, dm.radius + 1):
        for subset, powers in _assignments(dm, cost):
            explored += 1
            covered = 0
            for v, p in zip(subset, powers):
                covered |= masks[v][p]
            if covered != full:
                continue
            bc = Broadcast(tuple(zip(subset, powers)))
            if path_shaped:
                overlaps, touches = _contacts(dm, bc)  # one pair scan decides both tests
                if overlaps or _shape_witness(bc.active, touches) is not None:
                    continue
            return OracleResult(cost=cost, witness=bc, explored=explored)
    raise InternalError("unreachable: a radial broadcast is always feasible")


def oracle_gamma_b(g: Graph, limit: int = DEFAULT_LIMIT) -> OracleResult:
    """Minimum dominating broadcast cost by exhaustive search."""
    return _search(g, limit, path_shaped=False)


def oracle_gamma_path(g: Graph, limit: int = DEFAULT_LIMIT) -> OracleResult:
    """Minimum cost over efficient dominating broadcasts whose domination
    graph is a path; 0 for the one-vertex graph by convention."""
    return _search(g, limit, path_shaped=True)
