"""Anchored baseline for the path case, used only as a benchmark comparator.

The prior-generation path-case algorithm fixes a leftmost anchor vertex and
solves one acyclic digraph per anchor.  This baseline reproduces that shape
on top of the oriented-ball machinery: for every anchor u it runs the
path-case DP with sources restricted to states whose ball contains u, then
takes the best result over all anchors.  Each run enumerates every in-arc
again; that is deliberate, not an oversight: it restores the extra factor n
that the anchor loop costs, which is exactly the difference the benchmark
measures.
Preprocessing tables (distances, residual components, requirements) are
shared with the oriented solver so only the path-case strategy differs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import DisconnectedGraphError, Graph, InternalError, apsp
from .metric import requirement_table, residual_decompositions
from .pathdag import _broadcast_from_chain, _solve_states
from .verify import Broadcast

__all__ = ["AnchoredRun", "anchored_runs", "solve_path_anchored"]


@dataclass(frozen=True)
class AnchoredRun:
    anchor: int
    cost: int  # -1 when unsolved
    solved: bool


def anchored_runs(h: Graph) -> tuple[Broadcast, list[AnchoredRun]]:
    """Solve one source-restricted digraph per anchor; best result wins.

    Every anchor admits at least the radial states of the centers, so every
    run solves; the minimum over anchors equals the unrestricted optimum.
    """
    if h.n == 1:
        return Broadcast(()), [AnchoredRun(0, 0, True)]
    dm = apsp(h)
    if not dm.connected:
        raise DisconnectedGraphError("anchored solver requires a connected graph")
    rt = residual_decompositions(h, dm)
    req = requirement_table(h, dm, rt)
    n, rho = h.n, rt.rho
    powers = np.arange(1, rho + 1, dtype=np.int64)
    runs: list[AnchoredRun] = []
    best_cost = None
    best_bc = None
    for u in range(n):
        contains_u = dm.dist[:, u].astype(np.int64)[:, None] <= powers[None, :]  # (n, rho)
        mask = np.zeros((n, rho, 3), dtype=bool)
        mask[:, :, 0] = contains_u
        res = _solve_states(dm, rt, req, source_mask=mask.reshape(-1))  # in-arcs again per anchor, on purpose
        if res is None:
            runs.append(AnchoredRun(u, -1, False))
            continue
        cost, chain = res
        runs.append(AnchoredRun(u, cost, True))
        if best_cost is None or cost < best_cost:
            best_cost = cost
            best_bc = _broadcast_from_chain(rho, chain)
    if best_bc is None:
        raise InternalError("no anchor solved, but every anchor admits a radial state")
    return best_bc, runs


def solve_path_anchored(h: Graph) -> Broadcast:
    """Baseline path-case solve: min over per-anchor restricted digraphs."""
    return anchored_runs(h)[0]
