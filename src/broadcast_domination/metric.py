"""Ball complements: residual components and frontier requirement tables.

For a candidate ball the path solver needs three things: how many pieces
the rest of the graph falls into once the ball is removed, which piece each
outside vertex belongs to, and, for every other center w, how large a power
a ball at w needs before it swallows the ball's frontier into a given
piece.  All of it is built for every (center, power) pair in one cubic
sweep; balls whose complement has more than two components never become
states, so only their component count is kept.  Per center the Python work
is the shell-by-shell disjoint-set build and, per two-component ball, one
copy of the label-2 class into an int16 buffer; the label rows and sizes
are then written by array passes over a block of centers at a time.  The
requirement table takes each frontier slice's row maximum one member rank
at a time, so its NumPy calls grow with the largest slice, not with the
number of slices.
"""

from __future__ import annotations

from array import array
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

    So a label is nonzero exactly at the vertices outside a ball of power
    p >= 1 with one or two components: the p = 0 rows and the rows of balls
    with kappa 0 or more than two components are all zero.  requirement_table
    and pathdag._in_arcs take a ball's row membership from its labels.
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

    parent[z] is the root of z's class, or -1 while z is inside the ball;
    members[r] lists the class of root r and low[r] is its smallest vertex.
    Roots are kept eagerly: a merge relabels the smaller class, O(n log n)
    in total, and keeps the smaller of the two lows.
    """

    def __init__(self, n: int):
        self.parent: list[int] = [-1] * n
        self.members: list[list[int] | None] = [None] * n  # by root
        self.low: list[int] = [0] * n  # by root

    def add(self, shell, adj) -> int:
        """Put every vertex of shell in a class of its own, then merge each
        with its neighbors (adj[x]) outside the ball; returns the number of
        merges, so the class count grows by len(shell) minus it."""
        parent, members, low = self.parent, self.members, self.low
        for x in shell:
            parent[x] = x
            members[x] = [x]
            low[x] = x
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
                if low[ry] < low[rx]:
                    low[rx] = low[ry]
                merged += 1
        return merged


# the label pass writes the rows of as many centers as span at most this
# many cells (at least one center), so its bool mask and member indices stay
# small beside the label table and do not grow the layer's peak
_LABEL_CELLS = 1 << 16


def residual_decompositions(g: Graph, dm: DistanceMatrix) -> ResidualTable:
    """Component structure of H - B(v, p) for every v and 1 <= p <= radius.

    Radii are processed in decreasing order per center: stepping from p+1 to
    p activates exactly the distance-(p+1) shell in one disjoint-set call,
    merging its vertices with their already-active neighbors, O(n^2) per
    center.  That shell build, the component counts, kept in Python lists,
    and one copy per two-component ball are the only per-center Python
    work.

    A two-component ball needs only one of its classes.  Labels follow
    first touch over ascending vertex index, so label 1 is the class whose
    smallest member (the disjoint set's low) is smaller, and every other
    outside vertex has label 2.  Both roots are found on the shell S_{p+1}
    just activated: a shortest path from v to an outside vertex z meets
    S_{p+1}, and from there on its distances from v exceed p, so it stays
    outside the ball and within z's class; hence both classes meet S_{p+1}.
    The label-2 class is copied into an int16 buffer in C (array.fromlist),
    not converted row by row.

    After the sweep of a block of centers, whose rows span at most
    _LABEL_CELLS cells, array passes write that block: 1 where dist(v, z)
    > p on every one- or two-component row, then 2 at the copied members;
    sizes are the outside counts and the copies' lengths.  Rows of other
    balls (p = 0, p >= ecc, more than two components) stay zero, as do
    their sizes.  The one-vertex graph has radius 0 and no ball to remove:
    its tables are single zero rows.
    """
    n = g.n
    if not dm.connected:
        raise DisconnectedGraphError("residual decompositions require a connected graph")
    rho = dm.radius
    kappa = np.zeros((n, rho + 1), dtype=np.int16)
    comp_label = np.zeros((n, rho + 1, n), dtype=np.int16)
    comp_size = np.zeros((n, rho + 1, 3), dtype=np.int32)
    adj = g.adj
    dist = dm.dist
    eccs = dm.ecc.tolist()
    radii = np.arange(rho + 1, dtype=np.int16)[:, None]
    block = max(1, _LABEL_CELLS // ((rho + 1) * n))
    for lo in range(0, n, block):
        hi = min(lo + block, n)
        kappa_rows = []
        two_rows: list[int] = []  # (v - lo) * (rho + 1) + p of each two-component ball
        lens: list[int] = []
        second = array("h")  # their label-2 classes, concatenated
        for v, (dr, ecc_v) in enumerate(zip(dist[lo:hi].tolist(), eccs[lo:hi]), lo):
            shells: list[list[int]] = [[] for _ in range(ecc_v + 1)]
            for z, d in enumerate(dr):
                shells[d].append(z)
            sets = _ShellSets(n)
            parent, members, low = sets.parent, sets.members, sets.low
            ncomp = 0
            kv = [0] * (rho + 1)
            for p in range(ecc_v - 1, 0, -1):
                shell = shells[p + 1]
                ncomp += len(shell) - sets.add(shell, adj)
                if p <= rho:
                    kv[p] = ncomp
                    if ncomp == 2:
                        r1 = parent[shell[0]]
                        for x in shell:
                            r2 = parent[x]
                            if r2 != r1:
                                break
                        m = members[r2] if low[r2] > low[r1] else members[r1]
                        two_rows.append((v - lo) * (rho + 1) + p)
                        lens.append(len(m))
                        second.fromlist(m)
            kappa_rows.append(kv)
        del shells, sets, parent, members, low  # the block's sweep state
        kb = kappa[lo:hi]
        kb[:] = kappa_rows
        outside = dist[lo:hi, None, :] > radii
        outside &= ((kb == 1) | (kb == 2))[:, :, None]
        comp_label[lo:hi] = outside
        comp_size[lo:hi, :, 1] = outside.sum(axis=2)
        del outside
        if two_rows:
            rows, k2 = np.array(two_rows), np.array(lens)
            at = np.repeat(rows * n, k2)  # flat cell of each copied member
            at += np.frombuffer(second, dtype=np.int16)
            comp_label[lo:hi].reshape(-1)[at] = 2
            sizes = comp_size[lo:hi].reshape(-1, 3)
            sizes[rows, 1] -= k2
            sizes[rows, 2] = k2
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
    Only balls with one or two residual components have requirement rows,
    and a frontier vertex z lies outside its ball, so by ResidualTable's
    label contract its label is nonzero exactly when the ball has a row:
    the label alone selects the pairs and names their row.

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
        ball = (vs + lo) * (rho + 1) + ps
        lab = rt.comp_label.reshape(-1)[ball * n + zs]
        m = lab > 0
        zs, key = zs[m], ball[m] * 2 + lab[m] - 1
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
