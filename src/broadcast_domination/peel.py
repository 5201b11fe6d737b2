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
candidate that cannot beat the incumbent is not worth a path solve.  The
largest G-distance outside each ball comes from one table per center.

A multipacking bounds the whole answer from below: a vertex set with at
most s members in every ball of radius s >= 1 cannot be dominated for less
than its size.  multipacking() finds one greedily, and once the incumbent
costs no more than its size the scan stops, since no later candidate can
be strictly cheaper.  On paths, trees, grids and sparse random graphs
whose optimum is the radial broadcast, this leaves few or no path solves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Union

import numpy as np

from .graph import (
    DisconnectedGraphError,
    DistanceMatrix,
    Graph,
    GraphTooLargeError,
    InternalError,
    apsp,
    bfs_distances,
    induced_subgraph,
)
from .pathdag import solve_path
from .verify import Broadcast, verify_dominating

__all__ = [
    "Candidate",
    "iter_candidates",
    "multipacking",
    "radial_broadcast",
    "solve_optimal",
]

RESIDUAL_EMPTY = "empty"
RESIDUAL_SINGLETON = "singleton"
RESIDUAL_CONNECTED = "connected"
RESIDUAL_SKIPPED = "skipped-disconnected"
RESIDUAL_PRUNED = "pruned"

# solve_optimal builds the outside-diameter tables for as many centers at a
# time as keep the (centers, n, n) temporaries near this many cells
_FAR_BLOCK_CELLS = 1 << 16


@dataclass(frozen=True)
class Candidate:
    """One peel attempt: ball (x, k) plus the residual solution, if any."""

    peel_center: int
    peel_power: int
    residual_kind: str
    total_cost: Optional[int]
    broadcast: Optional[Broadcast]


def radial_broadcast(dm: DistanceMatrix) -> Broadcast:
    """Single broadcast of power rad(G) from the lowest-index center; the
    zero broadcast at radius 0, whose zero power from_pairs drops."""
    center = int(np.argmin(dm.ecc))
    return Broadcast.from_pairs([(center, dm.radius)])


def _cost_floor(k: int, diam_lb: int) -> int:
    """Least total cost of a peel candidate (x, k) whose nonempty residual H
    has diam H >= diam_lb, when no residual power is capped:
    k + ceil((diam_lb + 1) / 3), by Erwin's bound gamma_b(H) >= ceil((diam H + 1) / 3)."""
    return k + diam_lb // 3 + 1


def multipacking(dm: DistanceMatrix) -> list[int]:
    """A multipacking of a connected graph, built greedily: a vertex set M
    with at most s members in every ball B(v, s), s >= 1.

    Why |M| <= gamma_b(G): in a dominating broadcast f, every member m is
    heard by some v with f(v) >= d(v, m), so the balls B(v, f(v)) cover M;
    each holds at most f(v) members, so |M| <= sum f(v), the cost of f.
    This is the LP dual of broadcast domination (Brewster, Mynhardt and
    Teshima, 2013); on trees the largest multipacking meets gamma_b
    (Mynhardt and Teshima, 2019).  B(v, rad(G)) is the whole graph for a
    central v, so |M| <= rad(G), and the search stops once it gets there.
    The one-vertex graph has radius 0, so it gets the empty set (gamma_b = 0
    by convention).

    Greedy insertion runs in up to two orders and keeps the larger result
    (the first if equal): decreasing distance from a peripheral vertex;
    decreasing eccentricity.  Ties go to the lower index.
    """
    orders = (_by_decreasing(dm.dist[int(np.argmax(dm.ecc))]), _by_decreasing(dm.ecc))
    best: list[int] = []
    for order in orders:
        members = _greedy_packing(dm.dist, order, dm.radius)
        if len(members) > len(best):
            best = members
            if len(best) >= dm.radius:
                break
    return best


def _greedy_packing(dist: np.ndarray, order: np.ndarray, limit: int) -> list[int]:
    """Vertices taken in `order` whenever M stays a multipacking, up to
    `limit` members.

    held[v, s - 1] = |M & B(v, s)|.  Ball B(v, s) is full when it holds s
    members, which needs s <= |M| < limit, and m may join iff it lies in
    no full ball: d(v, m) > tight[v], the largest full radius about v (-1
    if none).  Insertions only fill balls, so a vertex rejected once stays
    rejected, and a member never fits again, its own B(m, 1) being full;
    so the first fitting vertex of the whole order, found by one O(n^2)
    check after each insertion, is the next member.
    """
    radii = np.arange(1, limit + 1)
    held = np.zeros((dist.shape[0], limit), dtype=np.int64)
    tight = np.full(dist.shape[0], -1)
    members: list[int] = []
    while len(members) < limit:
        fits = (dist > tight[:, None]).all(axis=0)
        hits = np.flatnonzero(fits[order])
        if hits.size == 0:
            break
        m = int(order[hits[0]])
        members.append(m)
        held += dist[:, m, None] <= radii
        tight = np.where(held >= radii, radii, -1).max(axis=1)
    return members


def _by_decreasing(values: np.ndarray) -> np.ndarray:
    """Indices by decreasing value, ties by lower index.  The keys are
    int64 because the stable argsort of 16-bit keys is a radix sort that
    nothing else in a solve runs, and loading it costs about 128 KB of
    resident memory."""
    return np.argsort(-values.astype(np.int64), kind="stable")


def _outside_diameters(dm: DistanceMatrix, lo: int, hi: int) -> np.ndarray:
    """far[x - lo, k] = max d(a, b) over vertices a, b outside B(x, k), for
    centers lo <= x < hi and 0 <= k < n; -1 once nothing is outside.

    A pair stays outside exactly while k < min(d(x, a), d(x, b)), so
    far[x - lo, k] is the largest pair maximum over levels m > k, where a
    level's pair maximum is the largest d(a, b) with d(x, a) = m <=
    d(x, b).  O(n^2) per center, against O(|outside|^2) per candidate for
    a gather of the distances outside the ball.
    """
    rows = dm.dist[lo:hi]
    # reach[x - lo, a] = max d(a, b) over b at least as far from x as a
    reach = np.where(rows[:, None, :] >= rows[:, :, None], dm.dist, -1).max(axis=2)
    level = np.full((hi - lo, dm.n + 1), -1, dtype=reach.dtype)
    np.maximum.at(level, (np.arange(hi - lo)[:, None], rows), reach)
    from_level = np.maximum.accumulate(level[:, ::-1], axis=1)[:, ::-1]
    return from_level[:, 1:]


def _checked(g: Graph, dm: DistanceMatrix, cand: Candidate) -> Candidate:
    """cand, after checking that its broadcast dominates g."""
    if not verify_dominating(g, dm, cand.broadcast).ok:
        raise InternalError(f"peel candidate ({cand.peel_center}, {cand.peel_power}) does not dominate the graph")
    return cand


def _peel(
    g: Graph,
    dm: DistanceMatrix,
    x: int,
    k: int,
    bound: Optional[int] = None,
    far: Optional[np.ndarray] = None,
) -> Union[Candidate, tuple[Graph, list[int]]]:
    """Peel ball (x, k): a finished candidate, or the connected residual H
    (with its map back to g) that still needs a path solve.

    With a bound (at most rad(G)) and the center's _outside_diameters
    table, a residual H of two or more vertices is pruned, with no path
    solve, once _cost_floor(k, D) >= bound for a lower bound D on diam H.
    D is taken twice: first as far[k], the largest G-distance between two
    vertices outside the ball, before H is built; then, after the
    connectivity check, as the eccentricity in H of the vertex a BFS from
    H's first vertex reaches last (a double sweep).

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
    outside = np.flatnonzero(dm.dist[x] > k)
    if outside.size == 0:
        return _checked(g, dm, Candidate(x, k, RESIDUAL_EMPTY, k, Broadcast(((x, k),))))
    if outside.size == 1:
        pairs = [(x, k), (int(outside[0]), 1)]
        return _checked(g, dm, Candidate(x, k, RESIDUAL_SINGLETON, k + 1, Broadcast.from_pairs(pairs)))
    if bound is not None and _cost_floor(k, int(far[k])) >= bound:
        return Candidate(x, k, RESIDUAL_PRUNED, None, None)
    h, back = induced_subgraph(g, outside)
    first = bfs_distances(h, 0)
    last = max(first)
    if last == h.n:  # the unreachable sentinel
        return Candidate(x, k, RESIDUAL_SKIPPED, None, None)
    if bound is not None and _cost_floor(k, max(bfs_distances(h, first.index(last)))) >= bound:
        return Candidate(x, k, RESIDUAL_PRUNED, None, None)
    return h, back


def _solve_residual(
    g: Graph,
    dm: DistanceMatrix,
    x: int,
    k: int,
    h: Graph,
    back: list[int],
    path_solver: Callable[[Graph], Broadcast],
) -> Candidate:
    """Ball (x, k) plus the path solution of its connected residual h, each
    residual power capped at its eccentricity in g.  A refusal of h's
    tables is re-raised in terms of g, the graph the caller passed."""
    try:
        solution = path_solver(h)
    except GraphTooLargeError as exc:
        raise GraphTooLargeError(f"solve_optimal: {g.n}-vertex input, residual of ball ({x}, {k}): {exc}") from exc
    assignment = [(x, k)]
    total = k
    for v_h, p_h in solution.assignment:
        orig = back[v_h]
        power = min(p_h, int(dm.ecc[orig]))
        assignment.append((orig, power))
        total += power
    return _checked(g, dm, Candidate(x, k, RESIDUAL_CONNECTED, total, Broadcast.from_pairs(assignment)))


def iter_candidates(
    g: Graph,
    dm: Optional[DistanceMatrix] = None,
    path_solver: Callable[[Graph], Broadcast] = solve_path,
) -> Iterator[Candidate]:
    """Every peel candidate (x, k), without any of the pruning the solver
    applies; used to check feasibility of the full candidate family and as
    the reference the pruned scan must reproduce."""
    if dm is None:
        dm = apsp(g)
    for x in range(g.n):
        for k in range(1, dm.radius + 1):
            step = _peel(g, dm, x, k)
            yield step if isinstance(step, Candidate) else _solve_residual(g, dm, x, k, *step, path_solver)


def solve_optimal(
    g: Graph,
    path_solver: Callable[[Graph], Broadcast] = solve_path,
    threads: int = 1,
) -> Broadcast:
    """Optimal dominating broadcast of a connected graph.

    Starts from the radial broadcast (the zero broadcast on one vertex,
    whose radius 0 leaves nothing to peel), then peels every ball (x, k)
    with 1 <= k <= rad(G): an empty residual costs k, a singleton costs k + 1,
    a connected residual costs k plus the path solution with each residual
    power capped at its eccentricity in g, and a disconnected residual is
    skipped.  Ties keep the earliest candidate in (x, k) order, with the
    radial broadcast preceding all of them.

    One scan in (x, k) order keeps a candidate only when it strictly
    improves on the bound, which starts at rad(G) and is the incumbent cost
    from then on.  Candidates that cannot strictly improve are never
    solved.  Once k + 1 >= bound, no later radius at that center can
    improve: a nonempty residual adds at least 1, and an empty one needs
    k >= ecc(x) >= rad(G) >= bound.  Below that, _peel applies the
    residual-diameter bound.

    The scan also stops as soon as bound <= |M| for the greedy
    multipacking M.  Every candidate is a dominating broadcast of g, so it
    costs at least gamma_b(G) >= |M| >= bound and none can strictly
    improve; the incumbent is then optimal and is the first candidate in
    (x, k) order at that cost, as in the unpruned scan.  |M| is computed
    lazily, at most once per call: the first time a candidate survives
    both diameter prunes and is about to be path-solved.  Most small
    inputs never get there, and on 7-12 vertex graphs building M costs
    about as much as the whole solve.

    threads has no effect.  It stays only because the benchmark passes it
    on every call; it goes once the benchmark stops passing it.
    """
    dm = apsp(g)
    if not dm.connected:
        raise DisconnectedGraphError("solve_optimal requires a connected graph")
    best_bc = radial_broadcast(dm)
    bound = dm.radius
    packing: Optional[int] = None  # |M|, once a path solve is due
    block = max(1, _FAR_BLOCK_CELLS // (g.n * g.n))
    for x in range(g.n):
        if bound <= 2:  # k = 1 already meets the k + 1 stop below
            break
        if x % block == 0:
            far = _outside_diameters(dm, x, min(x + block, g.n))
        for k in range(1, dm.radius + 1):
            if k + 1 >= bound:
                break
            step = _peel(g, dm, x, k, bound, far[x % block])
            if not isinstance(step, Candidate):
                if packing is None:
                    packing = len(multipacking(dm))
                if bound <= packing:
                    return best_bc
                step = _solve_residual(g, dm, x, k, *step, path_solver)
            if step.total_cost is not None and step.total_cost < bound:
                bound = step.total_cost
                best_bc = step.broadcast
                if packing is not None and bound <= packing:
                    return best_bc
    return best_bc
