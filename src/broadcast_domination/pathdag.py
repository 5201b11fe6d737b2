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
left label alone pins the state down.  _state_id and _decode are the one
place that turns such a triple into a dense id and back; ids ascend with
(center, power, left label).

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
from .metric import RequirementTable, ResidualTable, _fold, _run_starts, requirement_table, residual_decompositions
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
_NO_PRED = (1 << 32) - 1  # low half of a packed DP value: no predecessor


def _state_id(v, p, left, rho):
    """Dense id of the state (center v, power p, left label); ints or arrays.
    On arrays the steps after the first work in place, so one id array is
    the only temporary."""
    sid = v * rho
    sid += p - 1
    sid *= 3
    sid += left
    return sid


def _decode(sid, rho):
    """(center, power, left label) of a state id; ints or arrays."""
    ball, left = divmod(sid, 3)
    v, p = divmod(ball, rho)
    return v, p + 1, left


def _power(sid, rho):
    """The power alone of a state id (_decode's second part), with fewer
    NumPy calls on arrays."""
    return sid // 3 % rho + 1


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
    left_size: np.ndarray  # int16, dense
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


# per left label (0, 1, 2), indexed by min(kappa, 3): an open ball (kappa
# 0) has one radial state, a one-component ball the orientations (0, 1) and
# (1, 0), a two-component ball (1, 2) and (2, 1), a more fragmented ball none
_EXISTS = np.array([[1, 0, 0], [1, 1, 0], [0, 1, 1], [0, 0, 0]], dtype=bool)
_IS_SOURCE = np.array([[1, 0, 0], [1, 0, 0], [0, 0, 0], [0, 0, 0]], dtype=bool)
_IS_SINK = np.array([[1, 0, 0], [0, 1, 0], [0, 0, 0], [0, 0, 0]], dtype=bool)


def _dense_tables(rt: ResidualTable):
    """exists, left_size, is_source, is_sink, flat and indexed by state id:
    the (n, rho, 3) layout of (center, power - 1, left label).  left_size
    is the component size of the left label, 0 for the empty side, which
    is comp_size's zero label-0 column."""
    k = rt.kappa[:, 1:]  # (n, rho), column j = power j+1; take clips kappa > 3 to row 3
    exists, is_source, is_sink = (t.take(k, axis=0, mode="clip").reshape(-1) for t in (_EXISTS, _IS_SOURCE, _IS_SINK))
    left_size = rt.comp_size[:, 1:].astype(np.int16).reshape(-1)  # sizes < n < MAX_VERTICES < 2**15
    return exists, left_size, is_source, is_sink


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
    the second lookup, because contact, the two label tests and the second
    lookup imply the first.

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
    ascending per group.  For tau = (w, q, l) a predecessor's center v lies
    in tau's left component, contact forces its power p = dist(v, w) - q - 1,
    and the facing label and tau's requirement lookup decide the rest:
    sigma's lookup, arc_test's other one, follows from them (proof in
    arc_test).  The ball (v, p) has oriented states exactly when
    1 <= p <= rho and its kappa is 1 or 2, and w lies outside it, as
    dist(v, w) = p + q + 1 > p, so on a one-component ball w's label is 1
    and the predecessor's left label 0; on a two-component ball the stored
    row gives w's label rlab and the left label is 3 - rlab, the label not
    facing w.  Every source is checked to have a smaller left size than its
    target, so targets walked in order only read finished sources.

    The three tests that read only tau's own rows (v in the left
    component, tau's facing frontier covered: its requirement row at v is
    <= p, and 0 <= p <= rho) run densely on the batch's target x vertex
    block, so only the candidates that pass them reach the per-candidate
    gathers.  Targets are the requirement table's rows, in the order it
    numbers them, so a batch folds its targets' requirement rows from one
    contiguous slice of the frontier index (metric._fold), just before the
    dense test; no row outlives its batch.  The dense left test compares
    each target's stored label row with l; a one-component target reads
    the zero row and compares it with 0, which always holds: its left
    component is the outside, dist(w, v) > q, that is p >= 0, which the
    range test checks.  Per candidate, kappa first drops the balls without
    states; then the facing label is gathered through the label map for
    every kept candidate, with no branch: a one-component ball reads 0 from
    the zero row, which gives left label 0.  Compressing to the
    two-component balls before that gather measured slower on path-192.

    A batch holds about max(C / 450, 8192) units: one unit per candidate,
    and n // 8 per target for its row of the dense block.  C is the label
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
    # flat views; (center, power) ball r = center * (rho + 1) + power
    lmap, labels = rt.label_map.reshape(-1), rt.comp_label.reshape(-1)
    # balls with oriented states, kappa 1 or 2: those with a left-label-1
    # state (kappa is 0 at power 0)
    oriented = _EXISTS[:, 1].take(rt.kappa.reshape(-1), mode="clip")
    # the targets in row order, as int32 ids like the row pairs (below
    # 3 n rho < 2**31); the row of (ball, label) position b * 2 + l - 1 is
    # the state (b, l)
    ball, label = np.divmod(req.pair, 2)
    targets = _state_id(*np.divmod(ball, rho + 1), label + 1, rho)
    del ball, label
    start = req.start
    dense_bytes = rt.kappa.nbytes + rt.comp_label.nbytes + rt.comp_size.nbytes + 2 * n * (targets.size + 1)
    batch = np.add(left_size[targets], n // 8, dtype=np.int64).cumsum()
    batch //= max(dense_bytes // 450, 8192)
    cuts = [*_run_starts(batch).tolist(), targets.size]

    def batches():
        for a, b in zip(cuts, cuts[1:]):
            taus = targets[a:b].astype(np.int64)
            w, q, left = _decode(taus, rho)
            # target x vertex block; p = dist(w, v) - q - 1 lies in [-n, n),
            # so int16 holds it
            p = dm.dist[w]
            p -= (q + 1).astype(np.int16)[:, None]
            stored = rt.label_map[w, q]  # 0 unless tau's ball has two components
            ok = rt.comp_label[stored] == np.multiply(left, stored > 0, dtype=np.int8)[:, None]
            lo = start[a + 1]  # rows a + 1 to b
            ok &= _fold(dm.dist, req.req[lo : start[b + 1]], start[a + 1 : b + 1] - lo) <= p
            ok &= p.view(np.uint16) <= rho  # 0 <= p <= rho
            # candidate arrays are narrowed one at a time and dropped once
            # read, so few of them are alive at once; only dst and src stay
            # alive while the caller reads them
            cell = np.flatnonzero(ok)
            del ok
            p = p.reshape(-1)[cell]
            pos, v = np.divmod(cell, n)
            del cell
            vp = v * (rho + 1)
            vp += p  # the candidate ball (v, p)
            m = oriented[vp]
            pos = pos[m]
            v = v[m]
            p = p[m]
            vp = vp[m]
            del m
            at = lmap[vp]  # the stored row of the candidate ball
            del vp
            at = np.multiply(at, n, dtype=np.int64)
            at += w[pos]
            dst = taus[pos]
            del pos
            rlab = labels[at]  # 0 from the zero row on a one-component ball
            del at
            src = _state_id(v, p, (3 - rlab) * (rlab != 0), rho)  # the other label, or 0
            del v, p, rlab
            # acyclicity witness: the left side strictly grows along every arc
            reach = left_size[src]
            if (reach >= left_size[dst]).any():
                raise InternalError("an arc does not grow the left side")
            yield dst, src, reach
            del dst, src, reach

    return batches()


def build_dag(g: Graph, dm: DistanceMatrix, rt: ResidualTable, req: RequirementTable) -> StateDag:
    """All in-arcs of all states in O(n^3), in the order _in_arcs yields
    them: grouped by target, targets in increasing left size, sources
    ascending per target.  Only dumps, tests and tracing call this; the DP
    pulls the arcs itself."""
    states = _dense_tables(rt)
    srcs, dsts = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int64)]
    for dst, src, _ in _in_arcs(dm, rt, req, states):
        srcs.append(src)
        dsts.append(dst)
    return StateDag(g.n, rt.rho, *states, arc_src=np.concatenate(srcs), arc_dst=np.concatenate(dsts))


def _allowed_sources(is_source: np.ndarray, start: np.ndarray | None, rho: int) -> np.ndarray:
    """is_source, narrowed to the balls marked in start when one is given."""
    if start is None:
        return is_source
    v, p, _ = _decode(np.arange(is_source.size), rho)
    return is_source & start[v, p - 1]


def _relax(best, left_size, rho, dst, src, reach) -> None:
    """Lower best at the targets of one batch of in-arcs (_solve_states);
    reach is each arc's source left size.  Targets come in increasing left
    size, and a run of left sizes takes one minimum.reduceat when none of
    its arcs reads a left size inside the run: every source it reads is
    then final.  So a new run starts at the first left size whose largest
    reach is at least the run's smallest left size."""
    first = _run_starts(dst)  # first offer to each target
    taus = dst[first]
    gain = _power(taus, rho) << 32  # each target's power, added once
    sizes = left_size[taus]
    groups = _run_starts(sizes)  # one per left size
    bounds, low = [], -1
    for g, size, read in zip(
        groups.tolist(), sizes[groups].tolist(), np.maximum.reduceat(reach, first[groups]).tolist()
    ):
        if read >= low:
            bounds.append(g)
            low = size
    bounds.append(taus.size)
    ends = [*first.tolist(), dst.size]
    for a, b in zip(bounds, bounds[1:]):
        lo, hi = ends[a], ends[b]
        offers = best[src[lo:hi]] >> 32 << 32
        offers += src[lo:hi]
        least = np.minimum.reduceat(offers, first[a:b] - lo)
        least += gain[a:b]
        best[taus[a:b]] = least


def _solve_states(dm: DistanceMatrix, rt: ResidualTable, req: RequirementTable, start: np.ndarray | None = None):
    """Shortest source-to-sink chain by a pull DP in left-size order.

    start, if given, is an (n, rho) bool mask, start[v, p - 1] true for
    the balls (v, p) whose source state may begin a chain.  Returns (cost,
    chain of state ids from leftmost to rightmost), or None when no sink is
    reachable from an allowed source.  Ties are broken toward the smaller
    (center, power, left) triple, which is the state id order.

    Each state keeps one int64, (cost << 32) + predecessor id.  Each in-arc
    offers its target ((cost of the source + power of the target) << 32) +
    source id, and one minimum.reduceat per run of left sizes (_relax)
    keeps each target's smallest offer.  The target's power is the same in
    all its offers, so it is added to the minimum, once per target.  Every
    source a run reads is final, so a state's value is its cheapest cost
    with the smallest source id among its tight in-arcs.  That id is the lexicographic tie-break because, for a fixed
    state and predecessor center, distance and labels force the
    predecessor's power and orientation, so each predecessor center owns
    exactly one candidate id, and ids ascend with the center.  Unreached
    states cost at least _INF.  Both halves fit: ids are below
    3 * n * rho < 2**31, and costs below _INF + n * rho < 2**31, because
    n < MAX_VERTICES and rho <= n / 2.  The id is added, not or-ed in,
    because NumPy's int64 bitwise_or loop is code no other solve step runs,
    and loading it costs about 128 KB resident.
    """
    states = _dense_tables(rt)
    left_size, is_source, is_sink = states[1:]
    sources = _allowed_sources(is_source, start, rt.rho)
    arcs = _in_arcs(dm, rt, req, states)
    best = np.full(left_size.size, _INF << 32 | _NO_PRED, dtype=np.int64)
    ids = np.flatnonzero(sources)
    best[ids] = (_power(ids, rt.rho) << 32) + _NO_PRED
    del states, ids
    for batch in arcs:
        _relax(best, left_size, rt.rho, *batch)
        del batch  # not alive while the next batch is built
    cost = best >> 32
    sink_ids = np.flatnonzero(is_sink & (cost < _INF))
    if sink_ids.size == 0:
        return None
    end = int(sink_ids[np.argmin(cost[sink_ids])])  # first argmin = smallest id
    chain = [end]
    while (pred := int(best[chain[-1]]) & _NO_PRED) != _NO_PRED:
        chain.append(pred)
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
    worst case, before any of them is built: int8 label rows, at most
    n^2 (rad+1), and an allowance of 2 n^2 (rad+1) for the memory beside
    them: the row maps, the frontier index of at most n^2 int16 entries,
    the label pass's blocks and the DP's batches."""
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
    id.  cli writes the pieces to the dump file as they come."""
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
        cols = (a.tolist() for a in (sid, v, p, left, right, tag))
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
        yield "".join(f"  s{a} -> s{b};\n" for a, b in zip(dag.arc_src[part].tolist(), dag.arc_dst[part].tolist()))
    yield "}\n"


def dag_to_dot(dag: StateDag) -> str:
    """DOT dump of the state digraph, for debugging small instances."""
    return "".join(_dot_chunks(dag))
