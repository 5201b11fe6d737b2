"""Peel-one-ball outer loop: the exact optimal broadcast solver.

Some optimal efficient broadcast has a ball whose removal leaves either
nothing or a connected graph that admits a path-shaped optimum.  So trying
every (center, power) ball, solving the residual with the path-case solver,
and keeping the cheapest feasible combination is exact.  A residual that is
a single vertex is handled explicitly: it sits outside the peeled ball, so
it must receive power 1 rather than the zero-cost one-vertex convention of
the standalone path problem.

Most candidates are dropped before their residual is solved: a lower bound
on the residual's diameter bounds its broadcast cost from below, and a
candidate that cannot beat the incumbent is not worth a path solve.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Optional

import numpy as np

from .graph import (
    DisconnectedGraphError,
    DistanceMatrix,
    Graph,
    InternalError,
    apsp,
    bfs_distances,
    bits_of,
    induced_subgraph,
)
from .pathdag import solve_path
from .verify import Broadcast, verify_dominating

__all__ = [
    "Candidate",
    "iter_candidates",
    "radial_broadcast",
    "solve_optimal",
]

RESIDUAL_EMPTY = "empty"
RESIDUAL_SINGLETON = "singleton"
RESIDUAL_CONNECTED = "connected"
RESIDUAL_SKIPPED = "skipped-disconnected"
RESIDUAL_PRUNED = "pruned"


@dataclass(frozen=True)
class Candidate:
    """One peel attempt: ball (x, k) plus the residual solution, if any."""

    peel_center: int
    peel_power: int
    residual_kind: str
    total_cost: Optional[int]
    broadcast: Optional[Broadcast]


def radial_broadcast(dm: DistanceMatrix) -> Broadcast:
    """Single broadcast of power rad(G) from the lowest-index center."""
    center = int(np.argmin(dm.ecc))
    return Broadcast(((center, dm.radius),)) if dm.radius > 0 else Broadcast(())


def _cost_floor(k: int, diam_lb: int) -> int:
    """Least total cost of a peel candidate (x, k) whose nonempty residual H
    has diam H >= diam_lb, when no residual power is capped:
    k + ceil((diam_lb + 1) / 3), by Erwin's bound gamma_b(H) >= ceil((diam H + 1) / 3)."""
    return k + diam_lb // 3 + 1


def _evaluate_candidate(
    g: Graph,
    dm: DistanceMatrix,
    x: int,
    k: int,
    path_solver: Callable[[Graph], Broadcast],
    bound: Optional[int] = None,
) -> Candidate:
    """Peel ball (x, k) and solve what is left.

    With a bound (at most rad(G)), a residual H of two or more vertices is
    pruned, with no path solve, once _cost_floor(k, D) >= bound for a lower
    bound D on diam H.  D is taken twice: first as the largest G-distance
    between two vertices outside the ball, before H is built; then, after
    the connectivity check, as the eccentricity in H of the vertex a BFS
    from H's first vertex reaches last (a double sweep).

    Why this is sound: H is an induced subgraph, so its distances are never
    shorter than G-distances, and no eccentricity exceeds the diameter;
    so each D is at most diam H.  The path solver returns a dominating
    broadcast of H, which costs at least gamma_b(H) >= ceil((diam H + 1) / 3).
    If capping at ecc_G leaves every residual power as it is, the candidate
    costs at least _cost_floor(k, D).  If the cap lowers some power, that
    vertex alone still pays ecc_G >= rad(G) >= bound.  Either way a pruned
    candidate costs at least the bound, so it could not have strictly
    improved on it.
    """
    dist_row = dm.dist[x]
    outside = np.nonzero(dist_row > k)[0]
    if outside.size == 0:
        cand = Candidate(x, k, RESIDUAL_EMPTY, k, Broadcast(((x, k),)))
    elif outside.size == 1:
        y = int(outside[0])
        cand = Candidate(x, k, RESIDUAL_SINGLETON, k + 1, Broadcast.from_pairs([(x, k), (y, 1)]))
    else:
        if bound is not None and _cost_floor(k, int(dm.dist[np.ix_(outside, outside)].max())) >= bound:
            return Candidate(x, k, RESIDUAL_PRUNED, None, None)
        h, back = induced_subgraph(g, bits_of(int(z) for z in outside))
        first = bfs_distances(h, 0)
        far = max(first)
        if far == h.n:  # the unreachable sentinel
            return Candidate(x, k, RESIDUAL_SKIPPED, None, None)
        if bound is not None and _cost_floor(k, max(bfs_distances(h, first.index(far)))) >= bound:
            return Candidate(x, k, RESIDUAL_PRUNED, None, None)
        sub = path_solver(h)
        assignment = [(x, k)]
        total = k
        for v_h, p_h in sub.assignment:
            orig = back[v_h]
            power = min(p_h, int(dm.ecc[orig]))
            assignment.append((orig, power))
            total += power
        cand = Candidate(x, k, RESIDUAL_CONNECTED, total, Broadcast.from_pairs(assignment))
    # every evaluated candidate is a dominating broadcast of the input
    if not verify_dominating(g, dm, cand.broadcast).ok:
        raise InternalError(f"peel candidate ({x}, {k}) does not dominate the graph")
    return cand


def iter_candidates(
    g: Graph,
    dm: Optional[DistanceMatrix] = None,
    path_solver: Callable[[Graph], Broadcast] = solve_path,
) -> Iterator[Candidate]:
    """Every peel candidate (x, k), without the incumbent pruning the solver
    applies; used to check feasibility of the full candidate family."""
    if dm is None:
        dm = apsp(g)
    for x in range(g.n):
        for k in range(1, dm.radius + 1):
            yield _evaluate_candidate(g, dm, x, k, path_solver)


def solve_optimal(
    g: Graph,
    path_solver: Callable[[Graph], Broadcast] = solve_path,
    threads: int = 1,
) -> Broadcast:
    """Optimal dominating broadcast of a connected graph.

    Starts from the radial broadcast, then peels every ball (x, k) with
    1 <= k <= rad(G): an empty residual costs k, a singleton costs k + 1,
    a connected residual costs k plus the path solution with each residual
    power capped at its eccentricity in g, and a disconnected residual is
    skipped.  Ties keep the earliest candidate in (x, k) order, with the
    radial broadcast preceding all of them.

    One scan in (x, k) order keeps a candidate only when it strictly
    improves on the bound, which starts at rad(G) and is the incumbent cost
    from then on.  Candidates that cannot strictly improve are never
    solved.  Once k + 1 >= bound, no later radius at that center can
    improve: a nonempty residual adds at least 1, and an empty one needs
    k >= ecc(x) >= rad(G) >= bound.  Below that, _evaluate_candidate
    applies the residual-diameter bound.  threads is accepted for
    compatibility and has no effect.
    """
    if g.n == 1:
        return Broadcast(())
    dm = apsp(g)
    if not dm.connected:
        raise DisconnectedGraphError("solve_optimal requires a connected graph")
    best_bc = radial_broadcast(dm)
    bound = dm.radius
    for x in range(g.n):
        for k in range(1, dm.radius + 1):
            if k + 1 >= bound:
                break
            cand = _evaluate_candidate(g, dm, x, k, path_solver, bound)
            if cand.total_cost is not None and cand.total_cost < bound:
                bound = cand.total_cost
                best_bc = cand.broadcast
    return best_bc
