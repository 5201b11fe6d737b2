"""Oriented-ball states and the tight-contact DAG for path-shaped broadcasts.

A path-shaped efficient broadcast covers the graph with pairwise disjoint
balls whose contact graph is a path.  Walking that path left to right, each
ball sees the already-covered part of the graph on one residual side and
the uncovered part on the other.  A state is therefore a ball plus an
orientation of its residual components; an arc says two oriented balls can
be consecutive: they touch tightly, each center lies in the other's facing
component, and each exposed frontier is covered.  The successor's frontier
test implies the predecessor's (arc_test), so the DP reads one requirement
per arc.  Every arc strictly grows the left side, so the digraph is
acyclic and a single DP in left-size order finds the cheapest
source-to-sink chain, with no per-anchor outer loop.  The DP pulls each
state's in-arcs straight from the tables; arc arrays are materialized only
for dumps, tests and tracing (build_dag).

States are encoded by (center, power, left label): label 0 is the empty
side, labels 1 and 2 name residual components of the ball.  With kappa
components the orientations are fixed by the construction rules, so the
left label alone pins the state down.  A state's id is the flat index of
its (center, power, left label) slot in ResidualTable.comp_size, so one
layout serves the tables, the requirement rows and the DP: the left sizes
are comp_size itself, a requirement row names its target by id, and an
in-arc's source id comes straight from its candidate ball.  The power-0
slots hold no state.  _state_id and _decode are the one place that turns
such a triple into an id and back; ids ascend with (center, power, left
label).

solve_path and the anchored baseline share the table build (_path_tables)
and the step from DP chain to checked broadcast (_solve_broadcast); the
baseline only restricts which balls may start a chain.  The path command
builds the tables once and hands them to the solve, the report and the
DOT dump (build_dag).  The one-vertex graph runs through the same code:
its tables have no ball and its digraph no state, and _solve_broadcast
turns the missing chain into the zero broadcast.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .graph import DisconnectedGraphError, DistanceMatrix, Graph, GraphTooLargeError, InternalError, apsp
from .metric import (
    _EXISTS,
    RequirementTable,
    ResidualTable,
    _fold,
    _run_starts,
    requirement_table,
    residual_decompositions,
)
from .verify import Broadcast

__all__ = [
    "State",
    "StateDag",
    "enumerate_states",
    "arc_test",
    "build_dag",
    "solve_path",
    "dag_to_dot",
]

_INF = 1 << 30  # above every chain cost: at most n * rho < 2**30, as rho <= n/2
_NOT_GROWING = "an arc does not grow the left side"


def _state_id(v, p, left, rho):
    """Id of the state (center v, power p, left label): the flat index of
    its slot in ResidualTable.comp_size, 3 (v (rho + 1) + p) + left; ints
    or arrays.  On arrays the steps after the first work in place, so one
    id array is the only temporary."""
    sid = v * (rho + 1)
    sid += p
    sid *= 3
    sid += left
    return sid


def _decode(sid, rho):
    """(center, power, left label) of a state id; ints or arrays."""
    ball, left = divmod(sid, 3)
    v, p = divmod(ball, rho + 1)
    return v, p, left


def _power(sid, rho):
    """The power alone of a state id (_decode's second part), with fewer
    NumPy calls on arrays."""
    return sid // 3 % (rho + 1)


@dataclass(frozen=True)
class State:
    """One oriented ball: left/right are residual component labels, 0 = empty."""

    center: int
    power: int
    left: int
    right: int
    left_size: int


@dataclass(eq=False)
class StateDag:
    """Dense state arrays plus the arc list, for dumps, tests and tracing.

    Arrays are indexed by state id (_state_id); ids where exists is False
    are unused slots.  Arcs are stored as flat parallel src/dst arrays in
    the DP's pull order (build_dag); the solver never builds them, and
    dag_to_dot sorts them for printing.
    """

    n: int
    rho: int
    exists: np.ndarray  # bool, dense
    left_size: np.ndarray  # int16, dense: the residual table's comp_size, flat
    is_source: np.ndarray  # bool, dense (left label 0)
    is_sink: np.ndarray  # bool, dense (right label 0)
    arc_src: np.ndarray  # int64
    arc_dst: np.ndarray  # int64

    @property
    def num_states(self) -> int:
        return int(self.exists.sum())

    @property
    def num_arcs(self) -> int:
        return int(self.arc_src.size)


# per left label (0, 1, 2), indexed by min(kappa, 3) like metric._EXISTS:
# the radial and (0, 1) states are sources, the radial and (1, 0) ones sinks
_IS_SOURCE = np.array([[1, 0, 0], [1, 0, 0], [0, 0, 0], [0, 0, 0]], dtype=bool)
_IS_SINK = np.array([[1, 0, 0], [0, 1, 0], [0, 0, 0], [0, 0, 0]], dtype=bool)


def _dense_tables(rt: ResidualTable):
    """exists, left_size, is_source, is_sink, flat and indexed by state id:
    comp_size's (n, rho + 1, 3) layout of (center, power, left label).
    left_size is comp_size itself, flattened with no copy, so no caller
    writes it: the component size of the left label, 0 for the empty side,
    which is comp_size's zero label-0 column.  The power-0 slots hold no state: the state table
    is read with kappa there replaced by 3, the row that mode="clip" also
    gives every kappa above 3."""
    k = np.where(np.arange(rt.rho + 1) > 0, rt.kappa, 3)  # power 0 reads row 3
    exists, is_source, is_sink = (t.take(k, axis=0, mode="clip").reshape(-1) for t in (_EXISTS, _IS_SOURCE, _IS_SINK))
    return exists, rt.comp_size.reshape(-1), is_source, is_sink


def enumerate_states(rt: ResidualTable) -> list[State]:
    """All states in (center, power, left label) order.

    One radial state per open ball covering everything, two oriented states
    per ball with one or two residual components, nothing for more
    fragmented balls.
    """
    out = []
    for v in range(rt.n):
        for p in range(1, rt.rho + 1):
            k = int(rt.kappa[v, p])
            if k == 0:
                out.append(State(v, p, 0, 0, 0))
            elif k == 1:
                out.append(State(v, p, 0, 1, 0))
                out.append(State(v, p, 1, 0, int(rt.comp_size[v, p, 1])))
            elif k == 2:
                out.append(State(v, p, 1, 2, int(rt.comp_size[v, p, 1])))
                out.append(State(v, p, 2, 1, int(rt.comp_size[v, p, 2])))
    return out


def arc_test(sigma: State, tau: State, dm: DistanceMatrix, rt: ResidualTable, req: RequirementTable) -> bool:
    """Constant-time test whether tau can directly follow sigma.

    Checks, in order: both facing sides nonempty; contact-tight powers
    within [1, rho]; each center sits in the component the other state has
    facing it; and both exposed frontiers are covered, via two requirement
    lookups.  This is the two-sided scalar reference; _in_arcs makes only
    the facing-label test and the second lookup: contact and the second
    lookup imply tau's label test (proof in _in_arcs), and contact, the two
    label tests and the second lookup imply the first.

    Proof.  Let sigma = (v, p), tau = (w, q) and d(v, w) = p + q + 1.  R is
    the component of G - B(v, p) that holds w; L is tau's left component,
    which holds v; every u in L with d(w, u) = q + 1 lies in B(v, p).
    Suppose some z in R with d(v, z) = p + 1 had d(w, z) > q.  The balls
    are disjoint, so a shortest v-z path stays outside B(w, q), and z is
    in L.  Since z is in R, some z-w path avoids B(v, p).  Its last vertex
    u before B(w, q) has d(w, u) = q + 1 and u in L, so u is in B(v, p):
    a contradiction.  Hence sigma's facing frontier lies in B(w, q), that
    is req.value(v, p, sigma.right, w) <= q.
    """
    if sigma.right == 0 or tau.left == 0:
        return False
    rho = rt.rho
    if not (1 <= sigma.power <= rho and 1 <= tau.power <= rho):
        return False
    if int(dm.dist[sigma.center, tau.center]) != sigma.power + tau.power + 1:
        return False
    if rt.label_row(sigma.center, sigma.power)[tau.center] != sigma.right:
        return False
    if rt.label_row(tau.center, tau.power)[sigma.center] != tau.left:
        return False
    if req.value(sigma.center, sigma.power, sigma.right, tau.center) > tau.power:
        return False
    if req.value(tau.center, tau.power, tau.left, sigma.center) > sigma.power:
        return False
    return True


def _in_arcs(dm: DistanceMatrix, rt: ResidualTable, req: RequirementTable, states):
    """Every in-arc of every non-source state, in batches of whole targets.

    Targets are taken in increasing left size.  Yields (dst, src) per
    batch: arcs src -> dst grouped by target in that order, source centers
    ascending per group; dst is int32, src int64.  For tau = (w, q, l) a
    predecessor's center v lies in tau's left component, contact forces
    its power p = dist(v, w) - q - 1, and the facing label and tau's requirement lookup decide the rest:
    sigma's lookup, arc_test's other one, follows from them (proof in
    arc_test).  The ball (v, p) has oriented states exactly when
    1 <= p <= rho and its kappa is 1 or 2, and w lies outside it, as
    dist(v, w) = p + q + 1 > p, so on a one-component ball w's label is 1
    and the predecessor's left label 0; on a two-component ball the left
    label is the one not facing w: 1 when w lies in label 2's interval, 2
    otherwise.  The candidate's ball index v (rho + 1) + p, which reads
    kappa and label 2's interval, then gives the source id as 3 * ball + left
    label, with no (center, power) pair rebuilt.  Every source is checked
    to have a smaller left size than its target, by the DP (_relax) and by
    build_dag, so targets walked in order only read finished sources.

    The two tests that read only tau's own rows (tau's facing frontier
    covered: its requirement row at v is <= p, and 0 <= p <= rho) run
    densely on the batch's target x vertex block, so only the candidates
    that pass them reach the per-candidate gathers.  They imply that v lies
    in tau's left component L, so that is not tested.  Proof: p >= 0 puts
    v outside B(w, q).  If v were in another component, every path from v
    to a frontier vertex z of L, d(w, z) = q + 1, would meet the ball at
    some u, and d(v, z) >= d(v, w) - d(w, u) + d(u, z) >= (p + q + 1) - q
    + 1 = p + 2; so the row's entry at v, the largest such d(v, z) over a
    nonempty frontier, would exceed p.  Targets are the requirement
    table's rows, in the order it numbers them, read as state ids from
    RequirementTable.target with no conversion, so a batch folds its
    targets' requirement rows from one contiguous slice of the frontier
    index (metric._fold), just before the dense test; no row outlives its
    batch.  Each target's center w and q + 1 are decoded once per call,
    as int16 arrays, so a batch only slices them.  A candidate's cell in
    the block gives its target's place in the batch by one division, and
    its center v by one multiply-subtract.  Per candidate, the place of w
    in v's order is read from the batch's rows of the transposed order
    table, a copy made once per call, so the gather follows the
    candidates' cells in order; kappa then drops the balls without states,
    and the facing label is one interval test for every kept candidate,
    with no branch: a one-component ball's label 2 is empty, which gives
    left label 0.

    A batch holds about max(C / 450, 8192) units: one unit per candidate,
    and n // 8 per target for its row of the dense block.  C is the order
    and component tables plus 2 n (rows + 1) bytes, the size of every
    requirement row folded at once beside a zero row, which grows like
    n^2 rho, so large graphs take a few dozen batches and small ones one;
    the index itself is far smaller and would give far larger batches.
    The candidate arrays are narrowed one at a time and dropped once read,
    so a unit costs about 30 bytes while the batch runs, and a solve of the
    128-vertex path, cycle or barbell peaks below 0.75 C.  The floor keeps
    batches few where the tables are small and the NumPy calls per batch,
    not memory, set the time.  A graph with at most 24 vertices takes one batch: its n * rho
    balls of power 1 to rho <= n / 2 leave at most n - 2 vertices outside,
    shared by at most two states, so it has at most
    n * rho * (n - 2 + 2 * (n // 8)) <= 8064 units.
    """
    left_size = states[1]
    n, rho = rt.n, rt.rho
    facing_at = np.ascontiguousarray(rt.comp_label.T)  # [w, v]: w's place in v's order
    # by (center, power) ball r = center * (rho + 1) + power: whether it has
    # oriented states, kappa 1 or 2 (kappa is 0 at power 0); its label-2
    # interval, empty on one component; and its source id when w lies in
    # label 1: 3 r + 2 on two components, 3 r (left label 0) on one
    kappa = rt.kappa.reshape(-1)
    oriented = _EXISTS[:, 1].take(kappa, mode="clip")
    first2, size2 = rt.comp_first[:, :, 2].reshape(-1), rt.comp_size[:, :, 2].reshape(-1).view(np.uint16)
    faces1 = np.arange(0, 3 * kappa.size, 3)
    faces1 += 2 * (kappa == 2)
    targets = req.target  # int32 state ids in row order, below 3 n (rho + 1) < 2**31
    ws, q1s, _ = _decode(targets, rho)  # each target's center w and q + 1, below n < 2**15
    ws, q1s = ws.astype(np.int16), np.add(q1s, 1, dtype=np.int16)
    start = req.start
    dense_bytes = rt.kappa.nbytes + rt.comp_label.nbytes + rt.comp_size.nbytes + 2 * n * (targets.size + 1)
    batch = np.add(left_size[targets], n // 8, dtype=np.int64).cumsum()
    batch //= max(dense_bytes // 450, 8192)
    cuts = [*_run_starts(batch).tolist(), targets.size]

    def batches():
        for a, b in zip(cuts, cuts[1:]):
            w = ws[a:b]
            # target x vertex block; p = dist(w, v) - q - 1 lies in [-n, n),
            # so int16 holds it
            p = dm.dist[w]
            p -= q1s[a:b, None]
            lo = start[a + 1]  # rows a + 1 to b
            ok = _fold(dm.dist, req.req[lo : start[b + 1]], start[a + 1 : b + 1] - lo) <= p
            ok &= p.view(np.uint16) <= rho  # 0 <= p <= rho
            # candidate arrays are narrowed one at a time and dropped once
            # read, so few of them are alive at once; only dst and src stay
            # alive while the caller reads them
            cell = np.flatnonzero(ok)
            del ok
            p = p.reshape(-1)[cell]
            facing = facing_at[w].reshape(-1)[cell]  # w's place in v's order
            pos = cell // n  # the target's place in the batch
            vp = pos * -n
            vp += cell  # the candidate center v
            vp *= rho + 1
            vp += p  # the candidate ball (v, p)
            del cell, p
            m = oriented[vp]
            pos, vp, facing = pos[m], vp[m], facing[m]
            del m
            dst = targets[a:b][pos]
            del pos
            facing -= first2[vp]
            src = faces1[vp]
            src -= facing.view(np.uint16) < size2[vp]  # w in label 2: left label 1
            del vp, facing
            yield dst, src
            del dst, src

    return batches()


def build_dag(g: Graph, dm: DistanceMatrix, rt: ResidualTable, req: RequirementTable) -> StateDag:
    """All in-arcs of all states in O(n^3), in the order _in_arcs yields
    them: grouped by target, targets in increasing left size, sources
    ascending per target.  Only dumps, tests and tracing call this; the DP
    pulls the arcs itself."""
    states = _dense_tables(rt)
    srcs, dsts = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int64)]
    for dst, src in _in_arcs(dm, rt, req, states):
        srcs.append(src)
        dsts.append(dst)
    arc_src, arc_dst = np.concatenate(srcs), np.concatenate(dsts)
    left_size = states[1]
    if (left_size[arc_src] >= left_size[arc_dst]).any():
        raise InternalError(_NOT_GROWING)
    return StateDag(g.n, rt.rho, *states, arc_src=arc_src, arc_dst=arc_dst)


def _relax(key, pred, left_size, rho, dst, src) -> None:
    """Lower key at the targets of one batch of in-arcs and set their pred
    (_solve_states).  An arc's offer is its source's key,
    (cost << 32) + source id, one gather.  Targets come in increasing left
    size, and a run of left sizes takes one minimum.reduceat when none of
    its arcs reads a left size inside the run: every source it reads is
    then final.  So a new run starts at the first left size whose largest
    source left size is at least the run's smallest left size.  The same
    maxima are the acyclicity witness: each must lie below its own left
    size, so the left side strictly grows along every arc."""
    if not dst.size:
        return
    first = _run_starts(dst)  # first offer to each target
    taus = dst[first].astype(np.int64)
    own = _power(taus, rho) << 32  # each target's power, added once, and its own id
    own += taus
    sizes = left_size[taus]
    groups = _run_starts(sizes)  # one per left size
    reach = np.maximum.reduceat(left_size[src], first[groups])  # the largest source left size per group
    bounds, low = [], -1
    for g, size, read in zip(groups.tolist(), sizes[groups].tolist(), reach.tolist()):
        if read >= size:
            raise InternalError(_NOT_GROWING)
        if read >= low:
            bounds.append(g)
            low = size
    bounds.append(taus.size)
    ends = [*first.tolist(), dst.size]
    least = np.empty(taus.size, dtype=np.int64)  # each target's cheapest offer
    for a, b in zip(bounds, bounds[1:]):
        lo, hi = ends[a], ends[b]
        np.minimum.reduceat(key[src[lo:hi]], first[a:b] - lo, out=least[a:b])
        cost = least[a:b] >> 32
        cost <<= 32
        cost += own[a:b]
        key[taus[a:b]] = cost
    pred[taus] = least  # the int32 cast keeps the low half, the source id


def _solve_states(dm: DistanceMatrix, rt: ResidualTable, req: RequirementTable, start: np.ndarray | None = None):
    """Shortest source-to-sink chain by a pull DP in left-size order.

    start, if given, is an (n, rho + 1) bool mask, start[v, p] true for
    the balls (v, p) whose source state may begin a chain; each ball's
    three state slots read its entry.  Returns (cost, chain of state ids
    from leftmost to rightmost), or None when no sink is reachable from an
    allowed source.  Ties are broken toward the smaller
    (center, power, left) triple, which is the state id order.

    Each state s keeps one int64 key, (cost << 32) + s, its own id, and one
    int32 pred, its predecessor's id, -1 for none.  So each in-arc offers
    its target just its source's key, and one minimum.reduceat per run of
    left sizes (_relax) gives each target its cheapest source cost, with
    the smallest source id among the cheapest in the low half; that id is
    the target's pred, and the target's key is that cost plus its own
    power, shifted, plus its own id.  The power is the same in all of a
    target's offers, so it is added to the minimum, once per target.
    Every source a run reads is final, so a state's cost is its cheapest
    chain and its pred the smallest source id among its tight in-arcs.
    That id is the lexicographic tie-break because, for a fixed state and
    predecessor center, distance and labels force the predecessor's power
    and orientation, so each predecessor center owns exactly one candidate
    id, and ids ascend with the center.  Unreached states cost at least
    _INF.  Both halves fit: ids are below 3 * n * (rho + 1) < 2**31, and
    costs below _INF + n * rho < 2**31, because n < MAX_VERTICES and
    rho <= n / 2.  The id is added, not or-ed in, because NumPy's int64
    bitwise_or loop is code no other solve step runs, and loading it costs
    about 128 KB resident.
    """
    states = _dense_tables(rt)
    left_size, is_source, is_sink = states[1:]
    sources = is_source if start is None else is_source & start.reshape(-1).repeat(3)
    arcs = _in_arcs(dm, rt, req, states)
    key = np.arange(_INF << 32, (_INF << 32) + left_size.size, dtype=np.int64)
    pred = np.full(left_size.size, -1, dtype=np.int32)
    ids = np.flatnonzero(sources)
    own = _power(ids, rt.rho) << 32
    own += ids
    key[ids] = own
    del states, ids, own
    for batch in arcs:
        _relax(key, pred, left_size, rt.rho, *batch)
        del batch  # not alive while the next batch is built
    cost = key >> 32
    sink_ids = np.flatnonzero(is_sink & (cost < _INF))
    if sink_ids.size == 0:
        return None
    end = int(sink_ids[np.argmin(cost[sink_ids])])  # first argmin = smallest id
    chain = [end]
    while (back := int(pred[chain[-1]])) >= 0:
        chain.append(back)
    if not sources[chain[-1]]:
        raise InternalError("DP value has no consistent predecessor")
    chain.reverse()
    return int(cost[end]), chain


def _physical_memory() -> int | None:
    """Bytes of physical memory, or None where os.sysconf does not say."""
    try:
        pages, size = os.sysconf("SC_PHYS_PAGES"), os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):
        return None
    return pages * size if pages > 0 and size > 0 else None


_PHYSICAL_MEMORY = _physical_memory()  # read once, at import


def _table_bytes(n: int, rad: int) -> int:
    """Bytes of the path tables of an n-vertex graph of radius rad in the
    worst case, before any of them is built: n^2 (rad+1) for the component
    tables and an allowance of 2 n^2 (rad+1) for the memory beside them:
    the row maps, the frontier index of at most n^2 int16 entries and the
    DP's batches.  The component term is one byte per ball and vertex.
    The interval tables take the vertex orders' 2 n^2 bytes, within it
    from rad 1 on, and 14 n (rad+1) for kappa, the starts and the sizes,
    far less on large graphs; the term is kept at that size, so the
    graphs refused stay those the README documents (path-3000,
    37.7 GiB)."""
    return 3 * n * n * (rad + 1)


def _path_tables(h: Graph, solver: str):
    """Distances, residual and requirement tables of a connected graph;
    solver names the caller in the error.  Tables that would not fit in
    physical memory are refused before they are allocated.  The one-vertex
    graph has radius 0, so each of its tables is a single zero row."""
    dm = apsp(h)
    if not dm.connected:
        raise DisconnectedGraphError(f"{solver} requires a connected graph")
    need = _table_bytes(h.n, dm.radius)
    if _PHYSICAL_MEMORY is not None and need > _PHYSICAL_MEMORY:
        raise GraphTooLargeError(
            f"{solver}: the tables of {h.n} vertices at radius {dm.radius} need about "
            f"{need / 2**30:.1f} GiB, more than the {_PHYSICAL_MEMORY / 2**30:.1f} GiB of physical memory"
        )
    rt = residual_decompositions(h, dm)
    return dm, rt, requirement_table(h, dm, rt)


def _solve_broadcast(dm: DistanceMatrix, rt: ResidualTable, req: RequirementTable, start: np.ndarray | None = None):
    """The cheapest chain from an allowed source (_solve_states) as a
    broadcast.  With two or more vertices a chain always exists: the radial
    state of a center is a source and a sink, and its ball contains every
    vertex, so it is allowed under any start mask of balls containing a
    given vertex.  The one-vertex graph has no ball of power 1 or more, so
    no state and no chain; it gets the zero broadcast by convention, and
    this is the one place the path case states that."""
    res = _solve_states(dm, rt, req, start)
    if res is None:
        if rt.n == 1:
            return Broadcast(())
        raise InternalError("no source-to-sink chain, but a radial state always exists")
    cost, chain = res
    try:  # a simple chain never revisits a center; enforced, not repaired
        bc = Broadcast.from_pairs(_decode(sid, rt.rho)[:2] for sid in chain)
    except ValueError as exc:
        raise InternalError(f"state chain reuses a center: {exc}") from exc
    if bc.cost != cost:
        raise InternalError(f"chain cost {bc.cost} differs from the DP value {cost}")
    return bc


def solve_path(h: Graph) -> Broadcast:
    """Minimum-cost efficient dominating broadcast whose domination graph is
    a path; the zero broadcast for the one-vertex graph (_solve_broadcast)."""
    return _solve_broadcast(*_path_tables(h, "solve_path"))


# lines per piece of DOT text: pieces of about a megabyte, so a dump of
# millions of arcs never holds more than one piece's line strings
_DOT_CHUNK_LINES = 1 << 15
# a state's tag, indexed by is_source + 2 * is_sink
_DOT_TAGS = ("", " [source]", " [sink]", " [source/sink]")


def _dot_chunks(dag: StateDag):
    """The DOT text of dag_to_dot, piece by piece: whole lines, each ending
    in a newline, states in id order, then arcs by source ball and target
    id.  cli writes the pieces to the dump file as they come.

    This is the one place that names nodes.  The name of state (v, p, l)
    is s followed by 3 (v rho + p - 1) + l, computed from the decoded
    triple: the states numbered densely over the powers 1 to rho, without
    the power-0 slots of the state ids.  Names ascend with the ids, so
    both orders are the same."""
    name = lambda v, p, left: 3 * (v * dag.rho + p - 1) + left
    yield "digraph states {\n"
    ids = np.flatnonzero(dag.exists)
    for lo in range(0, ids.size, _DOT_CHUNK_LINES):
        sid = ids[lo : lo + _DOT_CHUNK_LINES]
        v, p, left = _decode(sid, dag.rho)
        sink = dag.is_sink[sid]
        # a sink's right side is empty; otherwise the right label is the other
        # one of the orientation pair, (0, 1) or (1, 2)/(2, 1)
        right = np.where(sink, 0, np.where(left == 0, 1, 3 - left))
        tag = dag.is_source[sid] + 2 * sink
        cols = (a.tolist() for a in (name(v, p, left), v, p, left, right, tag))
        yield "".join(
            f'  s{s} [label="({c},{q},{a},{b}) w={q}{_DOT_TAGS[t]}"];\n' for s, c, q, a, b, t in zip(*cols)
        )
    # by source ball (center, power), then target id: ids ascend with the
    # ball, and a target id is below exists.size, so one int64 key orders both
    key = dag.arc_src // 3
    key *= dag.exists.size
    key += dag.arc_dst
    order = np.argsort(key)  # equal keys would be equal lines: no stable sort needed
    del key
    for lo in range(0, order.size, _DOT_CHUNK_LINES):
        part = order[lo : lo + _DOT_CHUNK_LINES]
        src, dst = (name(*_decode(a[part], dag.rho)).tolist() for a in (dag.arc_src, dag.arc_dst))
        yield "".join(f"  s{a} -> s{b};\n" for a, b in zip(src, dst))
    yield "}\n"


def dag_to_dot(dag: StateDag) -> str:
    """DOT dump of the state digraph, for debugging small instances."""
    return "".join(_dot_chunks(dag))
