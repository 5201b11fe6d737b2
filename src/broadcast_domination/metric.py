"""Ball complements: residual components and the frontier requirement index.

For a candidate ball the path solver needs three things: how many pieces
the rest of the graph falls into once the ball is removed, which piece each
outside vertex belongs to, and, for every other center w, how large a power
a ball at w needs before it swallows the ball's frontier into a given
piece.  All of it is built for every (center, power) pair in one cubic
sweep.  The components are stored as intervals, not as label rows.  Per
center v the sweep only adds vertices and merges classes as the power
falls, so the components of all powers form a laminar family, and one
vertex order per center puts each of them in one contiguous interval.  A
table of n^2 int16 places holds every center's order, and every (center,
power, label) slot the start of its interval, beside its size: O(n^2 rho)
int16 entries in all, with no row of n per ball.  Per center the Python
work is one walk over its vertices, far to near, building the disjoint
sets: each vertex scans its neighbors once, joins the class of the first
active one and merges any further class it meets; and O(1) per ball.
The places and the starts are written by one array assignment and one
gather at the end.

The requirements are not stored as rows.  Each (ball, label) pair with a
state keeps only its frontier vertices, in an index of at most n^2 int16
entries whose rows are numbered in the DP's target order, left size, then
state id.  A requirement row is each frontier slice's row maximum over the
distance matrix; the DP folds the rows of each batch of targets from one
contiguous slice of the index just before it reads them, one member rank
at a time, in row order, so the NumPy calls grow with the largest slice,
not with the number of slices, and a batch of one-member rows (paths and
trees) costs one gather.  A batch is sized as a share of all rows folded at
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
    first-touch order over ascending vertex index.  Only balls of power
    p >= 1 with one or two components have labels: the p = 0 rows and the
    rows of balls with kappa 0 or more than two components are all zero.

    comp_size[v, p, label] counts each of the one or two components
    (label 0 is reserved for the empty side of a state); it is zero on
    every other ball.  Its (v, p, label) slots are also the state slots: a
    state's id is the flat index of its (center, power, left label) slot
    (pathdag._state_id), and the DP reads the flat array as the states'
    left sizes, with no copy.  comp_label[v, z] is z's place in center v's
    vertex order, and comp_first, in the same slot layout as comp_size,
    the place where each slot's component starts: z lies in the component
    of slot s = (v, p, label) iff
    comp_first[s] <= comp_label[v, z] < comp_first[s] + comp_size[s],
    one subtraction and one unsigned compare.  A slot without a component
    has size 0 and holds no vertex, so kappa 0, kappa above 2 and power 0
    read alike, with no branch.  Places, starts and sizes are below
    n < MAX_VERTICES < 2**15, so int16 holds them.  dist is the
    DistanceMatrix's own array, not a copy.
    """

    n: int
    rho: int
    kappa: np.ndarray  # (n, rho+1) int16
    comp_label: np.ndarray  # (n, n) int16: [v, z] is z's place in v's order
    comp_first: np.ndarray  # (n, rho+1, 3) int16; where each slot's component starts
    comp_size: np.ndarray  # (n, rho+1, 3) int16; index = label; flat index = state id
    dist: np.ndarray  # (n, n) int16, the DistanceMatrix's own array

    def label_row(self, v: int, p: int) -> np.ndarray:
        """Dense int8 label row of B(v, p), rebuilt from the two intervals."""
        at = self.comp_label[v]
        first, size = self.comp_first[v, p].tolist(), self.comp_size[v, p].tolist()
        row = ((at - first[1]).view(np.uint16) < size[1]).view(np.int8)
        row += 2 * ((at - first[2]).view(np.uint16) < size[2])
        return row


def _run_starts(a: np.ndarray) -> np.ndarray:
    """Index of the first element of every run of equal values in a 1-D
    array; empty for an empty array.  The same as
    np.flatnonzero(np.diff(a, prepend=x)) for any x not equal to a[0],
    without np.diff's Python-level set-up, which dominates on short arrays."""
    new = np.empty(a.size, dtype=bool)
    new[:1] = True
    np.not_equal(a[1:], a[:-1], out=new[1:])
    return new.nonzero()[0]


def residual_decompositions(g: Graph, dm: DistanceMatrix) -> ResidualTable:
    """Component structure of H - B(v, p) for every v and 1 <= p <= radius.

    Radii are processed in decreasing order per center: stepping from p+1 to
    p activates exactly the distance-(p+1) shell, one vertex at a time.  The
    active vertices form disjoint sets with eager roots: parent[z] is the
    root of z's class (-1 while z is inside the ball) and members[r]
    lists root r's class.  A vertex x being activated scans its neighbors
    once.  The first active neighbor's class takes x in: x gets its root
    and joins its member list.  Every further distinct class x meets is
    merged into x's, smaller into larger (equal sizes keep the smaller
    root).  Only an x with no active neighbor opens a class of its own.
    The live roots, those of the current classes, are kept in a set: an
    opened class adds its root and a merge removes the absorbed one.

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
    append and no new list.  Every root opened its class, and a list only
    ever grows at its end, so each class's list starts with its root.  The
    tables read only the partition after each shell and the roots' places
    in the final order (below), which do not depend on which root a merge
    keeps.

    Each center walks its vertices once, farthest first and by ascending
    index within a distance, in the order of one stable argsort of the
    negated distance rows; a shell ends where the distance drops, and v
    itself, at distance 0, ends the last one.  So the first vertex of each
    shell is its smallest, and the smallest outside vertex is the smaller
    of the last one and the shell's first.  Labels follow first touch over
    ascending vertex index, so label 1 is the class of that vertex, and on
    a two-component ball label 2 is the other live root.

    Center v's vertex order is its member lists' own order.  A join appends
    to a list and a merge concatenates two, so each class's list, at every
    power, stays one contiguous block of every later list, starting at its
    root.  At the end the surviving classes are concatenated, in the order
    their roots opened, then the vertices never activated, at distance 0
    and 1.  So a ball's slot keeps only its class's root and size, O(1) per
    ball, and the root's place in the order is the slot's start.  Each
    center keeps one list of rows by power: kappa, the roots of labels 1
    and 2, and their sizes, the lengths of their member lists.  The lists
    and the orders each fill one int16 buffer over all centers; the orders
    are inverted into comp_label by one array assignment, and the starts
    are gathered from it at once.  The one-vertex graph has radius 0 and
    no ball to remove: its tables are single zero rows.
    """
    n = g.n
    if not dm.connected:
        raise DisconnectedGraphError("residual decompositions require a connected graph")
    rho = dm.radius
    dense = array("h")  # per center: its kappa row, the two labels' root rows and their size rows
    root1, root2, size1, size2 = (k * (rho + 1) for k in range(1, 5))  # where those rows start
    order = array("h")  # the centers' vertex orders, one after another
    adj = g.adj
    walks = np.argsort(-dm.dist, axis=1, kind="stable")  # far to near, ties ascending
    for v, (walk, dv, ecc_v) in enumerate(zip(walks, dm.dist, dm.ecc.tolist())):
        walk, dv = walk.tolist(), dv.tolist()  # one center's rows as lists at a time
        far = n - 1 - len(adj[v])  # the vertices ever activated, at distance 2 or more
        parent = [-1] * n  # root of each active vertex's class; -1 inside the ball
        members: list[list[int] | None] = [None] * n  # by root: its class
        opened = []  # every root that opened a class, in order
        live = set()  # the current classes' roots
        ncomp = 0
        rec = [0] * (5 * (rho + 1))  # this center's rows
        d = ecc_v  # the distance of the shell being activated
        first = walk[0]  # the smallest outside vertex
        for x in walk[:far] + [v] if far else ():
            if dv[x] != d:  # the shell at distance d is complete: record B(v, d - 1)
                p = d - 1
                if p <= rho:
                    rec[p] = ncomp
                    if ncomp <= 2:  # 1 or 2: the shell just activated lies outside
                        r1 = rec[root1 + p] = parent[first]
                        rec[size1 + p] = len(members[r1])
                        if ncomp == 2:
                            for r2 in live:
                                if r2 != r1:
                                    break
                            rec[root2 + p] = r2
                            rec[size2 + p] = len(members[r2])
                if d == 2:
                    break
                d -= 1
                if x < first:
                    first = x
            rx = -1
            for y in adj[x]:
                ry = parent[y]
                if ry < 0 or ry == rx:
                    continue
                if rx < 0:  # the first class x meets: x joins it
                    rx = ry
                    parent[x] = rx
                    members[rx].append(x)
                    continue
                mx, my = members[rx], members[ry]
                if len(mx) < len(my) or (len(mx) == len(my) and ry < rx):
                    rx, ry, mx, my = ry, rx, my, mx
                for z in my:
                    parent[z] = rx
                mx.extend(my)
                members[ry] = None
                live.discard(ry)
                ncomp -= 1
            if rx < 0:  # no active neighbor: x opens a class
                parent[x] = x
                members[x] = [x]
                opened.append(x)
                live.add(x)
                ncomp += 1
        for r in opened:
            if members[r] is not None:
                order.fromlist(members[r])
        order.append(v)  # never activated: v, then its neighbors
        order.fromlist(walk[far : n - 1])
        dense.fromlist(rec)
    comp_label = np.empty((n, n), dtype=np.int16)  # the places invert the orders
    centers = np.arange(n)[:, None]
    comp_label[centers, np.frombuffer(order, dtype=np.int16).reshape(n, n)] = np.arange(n, dtype=np.int16)
    del order
    rows = np.frombuffer(dense, dtype=np.int16).reshape(n, 5, rho + 1)
    kappa = rows[:, 0].copy()  # contiguous, and apart from the sweep's buffer
    comp_size, comp_first = (np.zeros((n, rho + 1, 3), dtype=np.int16) for _ in range(2))
    # a root row reads vertex 0 where its label is empty; that start is
    # never read, as the slot's size is 0
    comp_first[:, :, 1:] = comp_label[centers[:, :, None], rows[:, 1:3]].transpose(0, 2, 1)
    comp_size[:, :, 1:] = rows[:, 3:].transpose(0, 2, 1)
    return ResidualTable(n, rho, kappa, comp_label, comp_first, comp_size, dm.dist)


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

    Rows are folded by member rank, in group order.  Rank 0 is one gather
    of every group's first member; when every group has one member (paths
    and trees), that is the whole fold.  When every group has the same
    size (most cycles), each further rank r folds every group's r-th member
    in place.  Otherwise only the groups with a second member are taken
    out, sorted by size, largest first, so those with more than r members
    are a prefix: one np.maximum per rank r folds their r-th rows in, and
    they are put back in place at the end.  That is one NumPy call per
    rank, where maximum.reduceat along axis 0 runs its inner loop once per
    group and column; only blocks of at most _REDUCEAT_CELLS row-by-vertex
    cells still take the single reduceat.
    """
    if starts.size * dist.shape[1] <= _REDUCEAT_CELLS:
        return np.maximum.reduceat(dist.take(members, axis=0), starts, axis=0)
    out = dist.take(members[starts], axis=0)
    if members.size == starts.size:  # one member each
        return out
    sizes = np.diff(starts, append=members.size)
    more = (starts.size - np.cumsum(np.bincount(sizes))).tolist()  # groups with > r members
    if more[-2] == starts.size:  # every group has the largest size
        for r in range(1, len(more) - 1):
            np.maximum(out, dist.take(members[starts + r], axis=0), out=out)
        return out
    many = (-sizes).argsort(kind="stable")[: more[1]]  # the groups with a second member, largest first
    first = starts[many]
    part = out[many]
    for r in range(1, len(more) - 1):
        c = more[r]
        np.maximum(part[:c], dist.take(members[first[:c] + r], axis=0), out=part[:c])
    out[many] = part
    return out


def requirement_table(g: Graph, dm: DistanceMatrix, rt: ResidualTable) -> RequirementTable:
    """Build the frontier index in O(n^2 log n) time and at most n^2 int16
    entries.

    Rows are numbered first: the non-source states, found from kappa, in
    state id order, which is comp_size's (v, p, label) slot order, then
    sorted stably by left size, the slot's component size; each row's
    position in the sort is then its target's state id.  A vertex z
    neighbors B(v, p) exactly when dist(v, z) = p + 1, so every ordered
    pair (v, z) is a member of one row at most.  Pairs are keyed by their
    row, for a block of centers at a time.  A frontier vertex lies outside
    its ball, so it picks the ball's label-2 row when its place lies in
    label 2's interval and the label-1 row otherwise, with no branch: a
    one-component ball's label 2 is empty, and a ball without requirement
    rows maps to row 0, which then drops the pair.

    A center's pairs cost about 64 bytes per vertex in index arrays, and a
    block of centers at most about a quarter of the order and component
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
    first2, size2 = rt.comp_first.reshape(-1, 3)[:, 2], rt.comp_size.reshape(-1, 3)[:, 2].view(np.uint16)
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
        at = rt.comp_label[lo : lo + block][vs, zs]  # each pair's place in its center's order
        del vs, q_z
        at -= first2[ball]
        key = row_map.reshape(-1)[2 * ball + (at.view(np.uint16) < size2[ball])]  # label 2 picks the second row
        del ball, at
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
