"""Ball complements: residual components and the frontier requirement index.

For a candidate ball the path solver needs three things: how many pieces
the rest of the graph falls into once the ball is removed, which piece each
outside vertex belongs to, and, for every other center w, how large a power
a ball at w needs before it swallows the ball's frontier into a given
piece.  All of it is built for every (center, power) pair in one cubic
sweep.  Only the rows a state can read are stored: a ball with one
component labels every outside vertex 1, so its label row is dist > p and
is never stored; a two-component ball keeps one int8 label row; balls with
no component or more than two keep only their component count.  A row map
sends every ball to its label row, and every ball without one to a shared
zero row 0.  Per center the Python work is the shell-by-shell disjoint-set
build, one scan of each vertex's neighbors in which it joins the class of
the first active one and merges any further class it meets, and, per
two-component ball, one copy of the label-2 class into an int16 buffer;
the stored label rows are then written by array passes over a block of
centers at a time.

The requirements are not stored as rows.  Each (ball, label) pair with a
state keeps only its frontier vertices, in an index of at most n^2 int16
entries whose rows are numbered in the DP's target order, left size, then
state id.  A requirement row is each frontier slice's row maximum over the
distance matrix; the DP folds the rows of each batch of targets from one
contiguous slice of the index just before it reads them, one member rank
at a time, so the NumPy calls grow with the largest slice, not with the
number of slices.  A batch is sized as a share of all rows folded at
once, not of the small index, so a large graph still takes a few dozen.
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
    zero on every other ball.  Its (v, p, label) slots are also the state
    slots: a state's id is the flat index of its (center, power, left
    label) slot (pathdag._state_id), and the DP reads the flat array as
    the states' left sizes, with no copy.  Sizes are below
    n < MAX_VERTICES < 2**15, so int16 holds them at half the bytes of
    int32.  dist is the distance matrix the one-component rows are read
    from, not a copy.
    """

    n: int
    rho: int
    kappa: np.ndarray  # (n, rho+1) int16
    comp_label: np.ndarray  # (1 + two-component balls, n) int8
    label_map: np.ndarray  # (n, rho+1) int32
    comp_size: np.ndarray  # (n, rho+1, 3) int16; index = label; flat index = state id
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
    return new.nonzero()[0]


# the label pass writes the rows of as many centers as span at most this
# many cells (at least one center), so its temporaries stay small beside
# the label table and do not grow the layer's peak
_LABEL_CELLS = 1 << 16


def residual_decompositions(g: Graph, dm: DistanceMatrix) -> ResidualTable:
    """Component structure of H - B(v, p) for every v and 1 <= p <= radius.

    Radii are processed in decreasing order per center: stepping from p+1 to
    p activates exactly the distance-(p+1) shell, one vertex at a time.  The
    active vertices form disjoint sets with eager roots: parent[z] is the
    root of z's class (-1 while z is inside the ball), members[r] lists
    root r's class and low[r] is its smallest vertex.  A vertex x being
    activated scans its neighbors once.  The first active neighbor's class
    takes x in: x gets its root, joins its member list and lowers its low
    if x is smaller.  Every further distinct class x meets is merged into
    x's, smaller into larger (equal sizes keep the smaller root), and the
    kept root takes the smaller of the two lows.  Only an x with no active
    neighbor opens a class of its own.  The class count rises by one per
    opened class and falls by one per merge.

    After each shell the classes are the components of the graph induced
    on the active vertices, G - B(v, p).  Classes only join along edges
    between active vertices, so each lies in one component.  Conversely,
    every such edge is scanned from its later-activated endpoint x, when
    the other end y is already active: x joins y's class, merges it into
    its own, or finds it is its own already; classes never split, so both
    ends stay in one class.  Vertices of one shell are activated one after
    another, so this covers the edges inside a shell too.  Relabelling the
    smaller class bounds the merges by O(n log n) per center, and the scans
    take O(m).  Most activated vertices meet one class only (on paths and
    cycles all but the one or two that open a class) and join it with one
    append and no new list.  The shell build, the scans, the component
    counts and sizes, kept in Python lists, and one copy per two-component
    ball are the only per-center Python work.  The tables read only the partition after each
    shell, the roots and the lows, so which root a merge keeps does not
    show in them.

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
    comp_size = np.zeros((n, rho + 1, 3), dtype=np.int16)
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
            parent = [-1] * n  # root of each active vertex's class; -1 inside the ball
            members: list[list[int] | None] = [None] * n  # by root: its class
            low = [0] * n  # by root: its class's smallest vertex
            ncomp = outside = 0
            kv = [0] * (rho + 1)
            sv = [0] * (rho + 1)  # size of label 1
            for p in range(ecc_v - 1, 0, -1):
                shell = shells[p + 1]
                outside += len(shell)
                for x in shell:
                    rx = -1
                    for y in adj[x]:
                        ry = parent[y]
                        if ry < 0 or ry == rx:
                            continue
                        if rx < 0:  # the first class x meets: x joins it
                            rx = ry
                            parent[x] = rx
                            members[rx].append(x)
                            if x < low[rx]:
                                low[rx] = x
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
                        ncomp -= 1
                    if rx < 0:  # no active neighbor: x opens a class
                        parent[x] = x
                        members[x] = [x]
                        low[x] = x
                        ncomp += 1
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
        del shells, parent, members, low  # the block's sweep state
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
    """The frontier index: for every (ball, label) pair with a state, the
    frontier vertices z of B(v, p) in the labeled component, those with
    dist(v, z) = p + 1.  The pair's requirement row holds, for every w, the
    largest dist(w, z) over them.  A ball (w, q) covers that frontier slice
    iff the row's entry at w is <= q, which is the constant-time form of the
    arc coverage condition.  Rows are folded from dist when they are read,
    never stored: by rows, value and the DP's batches (pathdag._in_arcs).

    The pairs with a row are label 1 of a one-component ball and labels 1
    and 2 of a two-component ball, which are exactly the non-source states
    (v, p, label), with the label on the left.  Rows 1, 2, ... are numbered
    in the DP's target order, left size, then state id, so a batch of
    targets reads one contiguous slice of req.  Row r's members are
    req[start[r]:start[r + 1]], ascending; row 0 has none, and row_map
    sends every pair without a row to it, which reads 0.  target[r - 1] is
    row r's state id, the flat index of its (v, p, label) slot in
    ResidualTable.comp_size, 3 (v (rho + 1) + p) + label, so the DP reads
    its targets from it with no conversion.  Each ordered pair (v, z) with
    2 <= dist(v, z) <= rho + 1 lies on the frontier of one ball only,
    (v, dist - 1), so req holds at most n^2 entries.  Every row has at
    least one member, because each component of G - B(v, p) meets the
    shell S_{p+1} (proof in residual_decompositions).  The DP sizes its
    batches from the bytes every row would take folded at once, 2 n per
    row, not from the index's own size (pathdag._in_arcs).  dist is the
    distance matrix the rows are folded from, not a copy.
    """

    req: np.ndarray  # (members,) int16, the frontier vertices row by row
    start: np.ndarray  # (rows + 2,) int32 row offsets into req
    row_map: np.ndarray  # (n, rho+1, 2) int32, by [v, p, label - 1]
    target: np.ndarray  # (rows,) int32, the state id of each row
    dist: np.ndarray  # (n, n) int16, the DistanceMatrix's own array

    def rows(self, ids) -> np.ndarray:
        """Dense int16 requirement rows of an array of row ids, of shape
        ids.shape + (n,); row id 0 reads zeros."""
        ids = np.asarray(ids)
        flat = ids.reshape(-1)
        out = np.zeros((flat.size, self.dist.shape[0]), dtype=np.int16)
        at = np.flatnonzero(flat)
        if at.size:
            lo = self.start[flat[at]]
            size = self.start[flat[at] + 1] - lo
            starts = np.cumsum(size) - size
            out[at] = _fold(self.dist, self.req[np.repeat(lo - starts, size) + np.arange(size.sum())], starts)
        return out.reshape(ids.shape + out.shape[1:])

    def value(self, v: int, p: int, label: int, w: int) -> int:
        r = self.row_map[v, p, label - 1]
        return int(self.dist[w, self.req[self.start[r] : self.start[r + 1]]].max(initial=0))


# which left labels (0, 1, 2) of a ball make a state, indexed by
# min(kappa, 3): an open ball (kappa 0) has one radial state, a
# one-component ball the orientations (0, 1) and (1, 0), a two-component
# ball (1, 2) and (2, 1), a more fragmented ball none.  The states with
# left label 1 or 2 are the ones with a requirement row
_EXISTS = np.array([[1, 0, 0], [1, 1, 0], [0, 1, 1], [0, 0, 0]], dtype=bool)

# up to this many row-by-vertex cells a fold takes its row maxima with one
# maximum.reduceat, which makes fewer NumPy calls than the rank loop; every
# small-batch graph (n <= 12) lies below, the path-case batches far above
_REDUCEAT_CELLS = 1 << 11


def _fold(dist: np.ndarray, members: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Requirement rows of consecutive member groups: row i is the maximum
    of dist over members[starts[i]:starts[i + 1]], the last group running
    to the end.  Every group is nonempty (RequirementTable), so each row
    starts from its first member's distance row, with no zero fill.

    Rows are folded by member rank.  With the groups sorted by size,
    largest first, those with more than r members are a prefix, so one
    np.maximum per rank r folds every group's r-th row in; the rows are put
    back in group order at the end.  That is one NumPy call per rank, where
    maximum.reduceat along axis 0 runs its inner loop once per group and
    column; only blocks of at most _REDUCEAT_CELLS row-by-vertex cells
    still take the single reduceat.
    """
    if starts.size * dist.shape[1] <= _REDUCEAT_CELLS:
        return np.maximum.reduceat(dist.take(members, axis=0), starts, axis=0)
    sizes = np.diff(starts, append=members.size)
    order = (-sizes).argsort(kind="stable")  # largest group first
    first = starts[order]
    out = dist.take(members[first], axis=0)
    more = (starts.size - np.cumsum(np.bincount(sizes))).tolist()  # groups with > r members
    for r in range(1, len(more) - 1):
        c = more[r]
        np.maximum(out[:c], dist.take(members[first[:c] + r], axis=0), out=out[:c])
    rows = np.empty_like(out)
    rows[order] = out
    return rows


def requirement_table(g: Graph, dm: DistanceMatrix, rt: ResidualTable) -> RequirementTable:
    """Build the frontier index in O(n^2 log n) time and at most n^2 int16
    entries.

    Rows are numbered first: the non-source states, found from kappa, in
    state id order, which is comp_size's (v, p, label) slot order, then
    sorted stably by left size, the slot's component size; each row's
    position in the sort is then its target's state id.  A vertex z
    neighbors B(v, p) exactly when dist(v, z) = p + 1, so every ordered
    pair (v, z) is a member of one row at most.  Pairs are keyed by their row, for a block of centers at a
    time.  A frontier vertex lies outside its ball, so on a one-component
    ball its label is 1 and its row the ball's label-1 row; on a
    two-component ball the stored label picks the label-1 row or the
    label-2 one.  The label is gathered through the label map for every
    pair, with no branch: a ball without a stored row reads the zero row,
    which picks label 1, and a ball without requirement rows maps to row 0,
    which then drops the pair.

    A center's pairs cost about 64 bytes per vertex in index arrays, and a
    block of centers at most about a quarter of the label and component
    tables, or 384 KiB: small graphs take one block, and large ones stay
    within a fraction of the tables.  A block's pairs, sorted stably by row,
    hold every row of its centers; they are then written to their rows'
    places in the index, which a single block already is.
    """
    n = g.n
    rho = rt.rho
    has = _EXISTS.take(rt.kappa, axis=0, mode="clip")  # (n, rho+1, 3); kappa > 3 reads row 3
    has[:, :, 0] = False  # the sources, whose left side is empty
    rows = np.count_nonzero(has)
    # by left size, then slot, which is state id; the slots without a row
    # sort last, at size n
    target = np.where(has, rt.comp_size, n).reshape(-1).argsort(kind="stable")[:rows].astype(np.int32)
    row_map = np.zeros((n, rho + 1, 2), dtype=np.int32)
    row_map.reshape(-1)[target - target // 3 - 1] = np.arange(1, rows + 1, dtype=np.int32)  # 2 ball + label - 1
    by_ball = row_map.reshape(-1, 2)  # [ball, label - 1]
    lmap = rt.label_map.reshape(-1)
    dist = dm.dist
    tables = rt.kappa.nbytes + rt.comp_label.nbytes + rt.comp_size.nbytes
    block = max(1, max(tables // 4, 3 << 17) // (64 * n))
    parts = []  # per block of several: its rows, their first members' places, its members
    for lo in range(0, n, block):
        q_z = dist[lo : lo + block] - 2  # the power p = dist - 1 of z's ball, less 1
        vs, zs = np.nonzero(q_z.view(np.uint16) < rho)  # 1 <= p <= rho
        ball = vs * (rho + 1)
        ball += lo * (rho + 1) + 1
        ball += q_z[vs, zs]
        del vs, q_z
        key = by_ball[ball, rt.comp_label[lmap[ball], zs] >> 1]  # label 2 picks the second row
        del ball
        m = key > 0  # 0 exactly on the balls without rows
        zs, key = zs[m].astype(np.int16), key[m]
        del m
        order = key.argsort(kind="stable")
        zs, key = zs[order], key[order]
        del order
        size = np.bincount(key, minlength=rows + 1)
        count = count + size if lo else size  # members per row
        if block < n:
            first = _run_starts(key)
            parts.append((key[first], first, zs))
    start = np.zeros(rows + 2, dtype=np.int32)
    start[1:] = count.cumsum()  # below n^2 < 2**31
    if block >= n:  # one block: its members are in row order
        req = zs
    else:  # each row lies in its center's block: put the blocks' rows in place
        req = np.empty(start[-1], dtype=np.int16)
        for r, first, zs in parts:
            at = np.repeat(start[r] - first, count[r])
            at += np.arange(zs.size)
            req[at] = zs
    return RequirementTable(req=req, start=start, row_map=row_map, target=target, dist=dist)
