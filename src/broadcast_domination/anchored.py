"""Anchored baseline for the path case, used only as a benchmark comparator.

The prior-generation path-case algorithm fixes a leftmost anchor vertex and
solves one acyclic digraph per anchor.  This baseline reproduces that shape
on top of the oriented-ball machinery: for every anchor u it runs the
path-case DP with chains allowed to start only at balls that contain u,
then takes the first cheapest result over all anchors.  Each run
enumerates every in-arc again; that is deliberate, not an oversight: it
restores the extra factor n that the anchor loop costs, which is exactly
the difference the benchmark measures.
The tables (distances, residual components, requirements) and the step
from DP chain to checked broadcast are solve_path's own, so only the
path-case strategy differs.  The anchor loop itself (_anchored_broadcast)
takes built tables, so the path command's --baseline solve shares its one
table build with the report and the DOT dump.
"""

from __future__ import annotations

import numpy as np

from .graph import DistanceMatrix, Graph
from .metric import RequirementTable, ResidualTable
from .pathdag import _path_tables, _solve_broadcast
from .verify import Broadcast

__all__ = ["solve_path_anchored"]


def solve_path_anchored(h: Graph) -> Broadcast:
    """Baseline path-case solve: one start-restricted digraph per anchor;
    the first cheapest anchor's broadcast wins."""
    return _anchored_broadcast(*_path_tables(h, "anchored solver"))


def _anchored_broadcast(dm: DistanceMatrix, rt: ResidualTable, req: RequirementTable) -> Broadcast:
    """The anchor loop on tables built once (_path_tables).

    Every anchor lies in the radial ball of a center, so every run solves;
    the minimum over anchors equals the unrestricted optimum.  The
    one-vertex graph has no ball to start from, and its one run gets the
    zero broadcast from _solve_broadcast.
    """
    powers = np.arange(1, rt.rho + 1)
    best = None
    for u in range(rt.n):
        contains_u = dm.dist[:, u, None] <= powers  # (n, rho): balls containing u
        bc = _solve_broadcast(dm, rt, req, contains_u)  # in-arcs again per anchor, on purpose
        if best is None or bc.cost < best.cost:
            best = bc
    return best
