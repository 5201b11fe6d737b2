"""Ball complements: residual components and frontier requirement tables.

For a candidate ball the path solver needs three things: how many pieces
the rest of the graph falls into once the ball is removed, which piece each
outside vertex belongs to, and, for every other center w, how large a power
a ball at w needs before it swallows the ball's frontier into a given
piece.  All of it is built for every (center, power) pair in one cubic
sweep; balls whose complement has more than two components never become
states, so only their component count is kept.  Per center the Python work
is the shell-by-shell disjoint-set build and the copy of its roots into the
two-component rows; filling the one-component rows and turning roots into
labels are array passes over all centers at once.  The requirement table
takes each frontier slice's row maximum one member rank at a time, so its
NumPy calls grow with the largest slice, not with the number of slices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import DisconnectedGraphError, DistanceMatrix, Graph

__all__ = [
    "ResidualTable",
    "RequirementTable",
    "residual_decompositions",
    "requirement_table",
]


@dataclass(frozen=True, eq=False)
class ResidualTable:
    """Component structure of the ball complements.

    kappa[v, p] counts the components of the graph minus B(v, p).
    comp_label[v, p, z] is the 1-based component label of z, or 0 for
    vertices inside the ball; labels follow first-touch order over ascending
    vertex index.  Rows and sizes are materialized only for balls with at
    most two components (label 0 is reserved for the empty side of a state).
    """

    n: int
    rho: int
    kappa: np.ndarray  # (n, rho+1) int16
    comp_label: np.ndarray  # (n, rho+1, n) int16
    comp_size: np.ndarray  # (n, rho+1, 3) int32; index = label


def _run_starts(a: np.ndarray) -> np.ndarray:
    """Index of the first element of every run of equal values in a 1-D
    array; empty for an empty array.  The same as
    np.flatnonzero(np.diff(a, prepend=x)) for any x not equal to a[0],
    without np.diff's Python-level set-up, which dominates on short arrays."""
    new = np.empty(a.size, dtype=bool)
    new[:1] = True
    np.not_equal(a[1:], a[:-1], out=new[1:])
    return np.flatnonzero(new)


class _ShellSets:
    """Disjoint sets of the vertices outside a shrinking ball, grown one
    distance shell at a time.

    parent[z] is the root of z's class, or -1 while z is inside the ball,
    so the list is a complete component labeling at any moment.  Roots are
    kept eagerly: a merge relabels the smaller class, O(n log n) in total.
    """

    def __init__(self, n: int):
        self.parent: list[int] = [-1] * n
        self._members: list[list[int] | None] = [None] * n  # by root

    def add(self, shell, adj) -> int:
        """Put every vertex of shell in a class of its own, then merge each
        with its neighbors (adj[x]) outside the ball; returns the number of
        merges, so the class count grows by len(shell) minus it."""
        parent, members = self.parent, self._members
        for x in shell:
            parent[x] = x
            members[x] = [x]
        merged = 0
        for x in shell:
            rx = parent[x]
            for y in adj[x]:
                ry = parent[y]
                if ry < 0 or rx == ry:
                    continue
                mx, my = members[rx], members[ry]
                if len(mx) < len(my) or (len(mx) == len(my) and ry < rx):
                    rx, ry, mx, my = ry, rx, my, mx
                for z in my:
                    parent[z] = rx
                mx.extend(my)
                members[ry] = None
                merged += 1
        return merged


def residual_decompositions(g: Graph, dm: DistanceMatrix) -> ResidualTable:
    """Component structure of H - B(v, p) for every v and 1 <= p <= radius.

    Radii are processed in decreasing order per center: stepping from p+1 to
    p activates exactly the distance-(p+1) shell in one disjoint-set call,
    merging its vertices with their already-active neighbors, O(n^2) per
    center.  That shell build and the component counts, kept in Python
    lists, are the only per-center Python work.  At each kept radius with
    two components the disjoint set's root array is copied into the label
    row as it stands (-1 inside the ball).  After the sweep one int16 pass
    fills every one-component row from the distance matrix (root 0 outside,
    negative inside), and one array pass turns roots into first-touch
    labels and counts the component sizes.  The one-vertex graph has radius
    0 and no ball to remove: its tables are single zero rows.
    """
    n = g.n
    if not dm.connected:
        raise DisconnectedGraphError("residual decompositions require a connected graph")
    rho = dm.radius
    comp_label = np.full((n, rho + 1, n), -1, dtype=np.int16)
    adj = g.adj
    kappa_rows = []
    for v, (dr, ecc_v) in enumerate(zip(dm.dist.tolist(), dm.ecc.tolist())):
        shells: list[list[int]] = [[] for _ in range(ecc_v + 1)]
        for z, d in enumerate(dr):
            shells[d].append(z)
        sets = _ShellSets(n)
        ncomp = 0
        kv = [0] * (rho + 1)
        for p in range(ecc_v - 1, 0, -1):
            shell = shells[p + 1]
            ncomp += len(shell) - sets.add(shell, adj)
            if p <= rho:
                kv[p] = ncomp
                if ncomp == 2:
                    comp_label[v, p] = sets.parent
        kappa_rows.append(kv)
    del shells, sets  # per-center state, not needed by the array passes
    kappa = np.array(kappa_rows, dtype=np.int16)
    # one component: every vertex outside the ball shares root 0, and the
    # ones inside get a negative root; int16 throughout, one row per ball
    vs, ps = np.nonzero(kappa == 1)
    one = dm.dist[vs]
    one -= (ps + 1).astype(np.int16)[:, None]
    np.minimum(one, 0, out=one)
    comp_label[vs, ps] = one
    del vs, ps, one
    # rows never written (p = 0, p >= ecc, more than two components) hold -1
    # throughout and come out as all-inside rows of label 0
    rows = comp_label.reshape(-1, n)
    outside = rows >= 0
    first_root = rows[np.arange(rows.shape[0]), outside.argmax(axis=1)]
    in_first = rows == first_root[:, None]
    in_first &= outside
    comp_size = np.zeros((n, rho + 1, 3), dtype=np.int32)
    sizes = comp_size.reshape(-1, 3)
    sizes[:, 1] = np.count_nonzero(in_first, axis=1)
    sizes[:, 2] = np.count_nonzero(outside, axis=1) - sizes[:, 1]
    # label = 2 outside the ball, minus 1 in the first-touch class
    np.copyto(rows, outside)
    rows <<= 1
    rows -= in_first
    return ResidualTable(n=n, rho=rho, kappa=kappa, comp_label=comp_label, comp_size=comp_size)


@dataclass(frozen=True, eq=False)
class RequirementTable:
    """req[v, p, label-1, w] = max dist(w, z) over frontier vertices z of
    B(v, p) lying in the labeled component; 0 when the frontier is empty.

    A ball (w, q) covers that frontier slice iff the stored value is <= q,
    which is the constant-time form of the arc coverage condition.
    """

    req: np.ndarray  # (n, rho+1, 2, n) int16

    def value(self, v: int, p: int, label: int, w: int) -> int:
        return int(self.req[v, p, label - 1, w])


# up to this many group-by-vertex cells a block takes its group maxima with
# one maximum.reduceat, which makes fewer NumPy calls than the rank loop;
# every small-batch graph (n <= 12) lies below, the path-case graphs far above
_REDUCEAT_CELLS = 1 << 11


def requirement_table(g: Graph, dm: DistanceMatrix, rt: ResidualTable) -> RequirementTable:
    """Fill the requirement table in O(n^3).

    A vertex z neighbors B(v, p) exactly when dist(v, z) = p + 1, so every
    ordered pair (v, z) contributes to one radius only.  Pairs are grouped
    by (center, radius, component), for a block of centers at a time: a
    block reads at most about 2**18 distance entries, so small graphs take
    one pass and large ones stay within a small fraction of the table.

    Each group's maximum over its members' distance rows is taken by member
    rank.  With the groups sorted by size, largest first, those with more
    than r members are a prefix, so one np.maximum per rank r folds every
    group's r-th row in.  That is one NumPy call per rank, where
    maximum.reduceat along axis 0 runs its inner loop once per group and
    column; only blocks of at most _REDUCEAT_CELLS group-by-vertex cells
    still take the single reduceat.
    """
    n = g.n
    rho = rt.rho
    req = np.zeros((n, rho + 1, 2, n), dtype=np.int16)
    rows = req.reshape(-1, n)  # row (v * (rho + 1) + p) * 2 + label - 1
    dist = dm.dist
    block = max(1, (1 << 18) // (n * n))
    for lo in range(0, n, block):
        p_z = dist[lo : lo + block].astype(np.int64) - 1
        vs, zs = np.nonzero((p_z >= 1) & (p_z <= rho))
        ps = p_z[vs, zs]
        vs += lo
        k = rt.kappa[vs, ps]
        m = (k >= 1) & (k <= 2)
        vs, zs, ps = vs[m], zs[m], ps[m]
        key = (vs * (rho + 1) + ps) * 2 + rt.comp_label[vs, ps, zs] - 1
        order = np.argsort(key, kind="stable")
        zs, key = zs[order], key[order]
        starts = _run_starts(key)
        if starts.size * n <= _REDUCEAT_CELLS:
            rows[key[starts]] = np.maximum.reduceat(dist[zs], starts, axis=0)
            continue
        sizes = np.diff(starts, append=key.size)
        first = starts[np.argsort(-sizes, kind="stable")]  # largest group first
        out = dist[zs[first]]
        more = (starts.size - np.cumsum(np.bincount(sizes))).tolist()  # groups with > r members
        for r in range(1, len(more) - 1):
            c = more[r]
            np.maximum(out[:c], dist[zs[first[:c] + r]], out=out[:c])
        rows[key[first]] = out
    return RequirementTable(req=req)
