"""Ball complements: residual components and frontier requirement tables.

For a candidate ball the path solver needs three things: how many pieces
the rest of the graph falls into once the ball is removed, which piece each
outside vertex belongs to, and, for every other center w, how large a power
a ball at w needs before it swallows the ball's frontier into a given
piece.  All of it is built for every (center, power) pair in one cubic
sweep.  Only the rows a state can read are stored: a ball with one
component labels every outside vertex 1, so its label row is dist > p and
is never stored; a two-component ball keeps one int8 label row; balls with
no component or more than two keep only their component count.  Each
(ball, label) pair with a state keeps one int16 requirement row.  Row maps
send every ball to its rows, and every ball without a row to a shared zero
row 0.  Per center the Python work is the shell-by-shell disjoint-set
build and, per two-component ball, one copy of the label-2 class into an
int16 buffer; the stored label rows are then written by array passes over
a block of centers at a time.  The requirement table takes each frontier
slice's row maximum one member rank at a time, so its NumPy calls grow
with the largest slice, not with the number of slices.
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

    kappa[v, p] counts the components of the graph minus B(v, p).  The
    dense label row of B(v, p), label_row(v, p), gives every vertex z its
    1-based component label, or 0 inside the ball; labels follow
    first-touch order over ascending vertex index.  Rows are stored only
    for two-component balls; one-component rows are dist > p.  So a label
    is nonzero exactly at the vertices outside a ball of power p >= 1 with
    one or two components: the p = 0 rows and the rows of balls with
    kappa 0 or more than two components are all zero.  requirement_table
    and pathdag._in_arcs gate on kappa, then read labels through label_map
    without a branch: a one-component ball reads 0 from the zero row.

    comp_label holds the stored rows, int8, with row 0 all zero;
    label_map[v, p] is the stored row of B(v, p), or 0 for every ball
    without one.  comp_size[v, p, label] counts each of the one or two
    components (label 0 is reserved for the empty side of a state); it is
    zero on every other ball.  dist is the distance matrix the one-component
    rows are read from, not a copy.
    """

    n: int
    rho: int
    kappa: np.ndarray  # (n, rho+1) int16
    comp_label: np.ndarray  # (1 + two-component balls, n) int8
    label_map: np.ndarray  # (n, rho+1) int32
    comp_size: np.ndarray  # (n, rho+1, 3) int32; index = label
    dist: np.ndarray  # (n, n) int16, the DistanceMatrix's own array

    def label_row(self, v: int, p: int) -> np.ndarray:
        """Dense int8 label row of B(v, p): a view of the stored row, or
        dist[v] > p when the ball has one component."""
        if self.kappa[v, p] == 1:
            return (self.dist[v] > p).view(np.int8)
        return self.comp_label[self.label_map[v, p]]


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
# many cells (at least one center), so its temporaries stay small beside
# the label table and do not grow the layer's peak
_LABEL_CELLS = 1 << 16


def residual_decompositions(g: Graph, dm: DistanceMatrix) -> ResidualTable:
    """Component structure of H - B(v, p) for every v and 1 <= p <= radius.

    Radii are processed in decreasing order per center: stepping from p+1 to
    p activates exactly the distance-(p+1) shell in one disjoint-set call,
    merging its vertices with their already-active neighbors, O(n^2) per
    center.  That shell build, the component counts and sizes, kept in
    Python lists, and one copy per two-component ball are the only
    per-center Python work.

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
    _LABEL_CELLS cells, array passes write that block's stored rows, one
    per two-component ball: 1 where dist(v, z) > p, then 2 at the copied
    members.  The blocks' rows are joined below the zero row at the end,
    when their number is known.  The one-vertex graph has radius 0 and no
    ball to remove: its tables are single zero rows.
    """
    n = g.n
    if not dm.connected:
        raise DisconnectedGraphError("residual decompositions require a connected graph")
    rho = dm.radius
    kappa = np.zeros((n, rho + 1), dtype=np.int16)
    label_map = np.zeros((n, rho + 1), dtype=np.int32)
    comp_size = np.zeros((n, rho + 1, 3), dtype=np.int32)
    stored = [np.zeros((1, n), dtype=np.int8)]  # row 0: every ball without a row
    nstored = 1
    adj = g.adj
    dist = dm.dist
    eccs = dm.ecc.tolist()
    block = max(1, _LABEL_CELLS // ((rho + 1) * n))
    for lo in range(0, n, block):
        hi = min(lo + block, n)
        kappa_rows, size_rows = [], []
        two_rows: list[int] = []  # (v - lo) * (rho + 1) + p of each two-component ball
        lens: list[int] = []
        second = array("h")  # their label-2 classes, concatenated
        for v, (dr, ecc_v) in enumerate(zip(dist[lo:hi].tolist(), eccs[lo:hi]), lo):
            shells: list[list[int]] = [[] for _ in range(ecc_v + 1)]
            for z, d in enumerate(dr):
                shells[d].append(z)
            sets = _ShellSets(n)
            parent, members, low = sets.parent, sets.members, sets.low
            ncomp = outside = 0
            kv = [0] * (rho + 1)
            sv = [0] * (rho + 1)  # size of label 1
            for p in range(ecc_v - 1, 0, -1):
                shell = shells[p + 1]
                outside += len(shell)
                ncomp += len(shell) - sets.add(shell, adj)
                if p <= rho:
                    kv[p] = ncomp
                    if ncomp == 1:
                        sv[p] = outside
                    elif ncomp == 2:
                        r1 = parent[shell[0]]
                        for x in shell:
                            r2 = parent[x]
                            if r2 != r1:
                                break
                        m = members[r2] if low[r2] > low[r1] else members[r1]
                        two_rows.append((v - lo) * (rho + 1) + p)
                        lens.append(len(m))
                        second.fromlist(m)
                        sv[p] = outside - len(m)
            kappa_rows.append(kv)
            size_rows.append(sv)
        del shells, sets, parent, members, low  # the block's sweep state
        kappa[lo:hi] = kappa_rows
        comp_size[lo:hi, :, 1] = size_rows
        if two_rows:
            rows, k2 = np.array(two_rows), np.array(lens)
            vs, ps = np.divmod(rows, rho + 1)
            lab = (dist[vs + lo] > ps.astype(np.int16)[:, None]).view(np.int8)
            at = np.repeat(np.arange(0, lab.size, n), k2)  # flat cell of each copied member
            at += np.frombuffer(second, dtype=np.int16)
            lab.reshape(-1)[at] = 2
            stored.append(lab)
            label_map[lo:hi].reshape(-1)[rows] = np.arange(nstored, nstored + rows.size)
            nstored += rows.size
            comp_size[lo:hi].reshape(-1, 3)[rows, 2] = k2
    comp_label = np.concatenate(stored) if len(stored) > 1 else stored[0]
    del stored
    return ResidualTable(
        n=n, rho=rho, kappa=kappa, comp_label=comp_label, label_map=label_map, comp_size=comp_size, dist=dist
    )


@dataclass(frozen=True, eq=False)
class RequirementTable:
    """req[row_map[v, p, label-1], w] = max dist(w, z) over frontier vertices
    z of B(v, p) lying in the labeled component; 0 when the frontier is
    empty.

    A ball (w, q) covers that frontier slice iff the stored value is <= q,
    which is the constant-time form of the arc coverage condition.  Only the
    (ball, label) pairs that have a state keep a row: label 1 of a
    one-component ball, labels 1 and 2 of a two-component ball, whose rows
    are consecutive.  row_map sends every other pair to the zero row 0.
    """

    req: np.ndarray  # (1 + rows, n) int16
    row_map: np.ndarray  # (n, rho+1, 2) int32

    def value(self, v: int, p: int, label: int, w: int) -> int:
        return int(self.req[self.row_map[v, p, label - 1], w])


# which labels of a ball have a requirement row, indexed by min(kappa, 3):
# the labels l in {1, 2} that are the left label of one of its states
_HAS_ROW = np.array([[0, 0], [1, 0], [1, 1], [0, 0]], dtype=bool)

# up to this many group-by-vertex cells a block takes its group maxima with
# one maximum.reduceat, which makes fewer NumPy calls than the rank loop;
# every small-batch graph (n <= 12) lies below, the path-case graphs far above
_REDUCEAT_CELLS = 1 << 11


def requirement_table(g: Graph, dm: DistanceMatrix, rt: ResidualTable) -> RequirementTable:
    """Fill the requirement table in O(n^3).

    A vertex z neighbors B(v, p) exactly when dist(v, z) = p + 1, so every
    ordered pair (v, z) contributes to one radius only.  Pairs are grouped
    by (center, radius, component), for a block of centers at a time.  A
    block's index arrays and row maxima are sized from the tables, at most
    about a quarter of the stored rows' bytes or 384 KiB, whichever is
    larger: small graphs take one pass, and large ones stay within a
    fraction of the table, so the layer's peak follows the compact rows.
    The row map, built from kappa, names each pair's row: a ball has rows
    exactly when it has one or two components.  A frontier vertex lies
    outside its ball, so on a one-component ball its label is 1 and its row
    the ball's first; on a two-component ball the stored label picks the
    first row or the next.  The label is gathered through the label map for
    every pair, with no branch: a ball without a stored row reads the zero
    row, which adds 0, and a ball without requirement rows keeps the key 0,
    which then drops the pair.

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
    has = _HAS_ROW.take(rt.kappa, axis=0, mode="clip")  # (n, rho+1, 2); kappa > 3 reads row 3
    at = np.flatnonzero(has)  # the (ball, label) pairs with a row, in row order
    rows = at.size
    row_map = np.zeros(has.size, dtype=np.int32)
    row_map[at] = np.arange(1, rows + 1, dtype=np.int32)
    first_row = row_map[::2]  # by ball, center * (rho + 1) + power
    req = np.zeros((rows + 1, n), dtype=np.int16)
    lmap = rt.label_map.reshape(-1)
    dist = dm.dist
    # a center costs about 64 bytes per vertex for its pairs' index arrays
    # and 4 per vertex and row for its rows' maxima and one gathered rank;
    # a block costs at most about a quarter of the tables, or 384 KiB
    if n * (64 * n + 4 * rows) <= 3 << 17:
        cuts = [0, n]
    else:
        cost = np.cumsum(64 + 4 * has.sum(axis=(1, 2))) * n
        cost //= max((req.nbytes + rt.comp_label.nbytes) // 4, 3 << 17)
        cuts = [*_run_starts(cost).tolist(), n]
    for lo, hi in zip(cuts, cuts[1:]):
        q_z = dist[lo:hi] - 2  # the power p = dist - 1 of z's ball, less 1
        vs, zs = np.nonzero(q_z.view(np.uint16) < rho)  # 1 <= p <= rho
        ball = vs * (rho + 1)
        ball += lo * (rho + 1) + 1
        ball += q_z[vs, zs]
        key = first_row[ball]
        key += rt.comp_label[lmap[ball], zs] >> 1  # label 2: the next row
        m = key > 0  # 0 exactly on the balls without rows
        zs, key = zs[m], key[m]
        order = np.argsort(key, kind="stable")
        zs, key = zs[order], key[order]
        starts = _run_starts(key)
        if starts.size * n <= _REDUCEAT_CELLS:
            req[key[starts]] = np.maximum.reduceat(dist[zs], starts, axis=0)
            continue
        sizes = np.diff(starts, append=key.size)
        first = starts[np.argsort(-sizes, kind="stable")]  # largest group first
        out = dist[zs[first]]
        more = (starts.size - np.cumsum(np.bincount(sizes))).tolist()  # groups with > r members
        for r in range(1, len(more) - 1):
            c = more[r]
            np.maximum(out[:c], dist[zs[first[:c] + r]], out=out[:c])
        req[key[first]] = out
    return RequirementTable(req=req, row_map=row_map.reshape(has.shape))
