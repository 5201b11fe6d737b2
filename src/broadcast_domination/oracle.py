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
from itertools import combinations
from typing import Iterator

from .graph import DisconnectedGraphError, DistanceMatrix, Graph, InternalError, apsp
from .verify import Broadcast, verify_efficient, verify_path_shaped

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
    n = dm.n
    masks = []
    for v in range(n):
        row = dm.dist[v]
        ecc_v = int(dm.ecc[v])
        shells = [0] * (ecc_v + 1)
        for z in range(n):
            shells[int(row[z])] |= 1 << z
        cum = []
        acc = 0
        for p in range(ecc_v + 1):
            acc |= shells[p]
            cum.append(acc)
        masks.append(cum)
    return masks


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """Positive integer tuples of the given length summing to total, lex order."""
    if parts == 1:
        yield (total,)
        return
    for cuts in combinations(range(1, total), parts - 1):
        prev = 0
        out = []
        for c in cuts:
            out.append(c - prev)
            prev = c
        out.append(total - prev)
        yield tuple(out)


def iter_broadcasts_of_cost(g: Graph, dm: DistanceMatrix, cost: int) -> Iterator[Broadcast]:
    """All assignments of the exact total cost, in the oracle's search order.

    Per-vertex powers are capped at the eccentricity (a larger power covers
    nothing extra), which prunes the space without losing any ball.
    """
    ecc = [int(e) for e in dm.ecc]
    for size in range(1, cost + 1):
        for subset in combinations(range(g.n), size):
            for powers in _compositions(cost, size):
                if any(p > ecc[v] for v, p in zip(subset, powers)):
                    continue
                yield Broadcast(tuple(zip(subset, powers)))


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
    ecc = [int(e) for e in dm.ecc]
    explored = 0
    for cost in range(1, dm.radius + 1):
        for size in range(1, cost + 1):
            for subset in combinations(range(g.n), size):
                for powers in _compositions(cost, size):
                    if any(p > ecc[v] for v, p in zip(subset, powers)):
                        continue
                    explored += 1
                    covered = 0
                    for v, p in zip(subset, powers):
                        covered |= masks[v][p]
                    if covered != full:
                        continue
                    bc = Broadcast(tuple(zip(subset, powers)))
                    if path_shaped:
                        if not verify_efficient(g, dm, bc).ok:
                            continue
                        if not verify_path_shaped(g, dm, bc).ok:
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
