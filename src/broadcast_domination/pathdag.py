"""Oriented-ball states and the tight-contact DAG for path-shaped broadcasts.

A path-shaped efficient broadcast covers the graph with pairwise disjoint
balls whose contact graph is a path.  Walking that path left to right, each
ball sees the already-covered part of the graph on one residual side and
the uncovered part on the other.  A state is therefore a ball plus an
orientation of its residual components; an arc says two oriented balls can
be consecutive.  Every arc strictly grows the left side, so the digraph is
acyclic and a single topological DP finds the cheapest source-to-sink
chain, with no per-anchor outer loop.

States are encoded by (center, power, left label): label 0 is the empty
side, labels 1 and 2 name residual components of the ball.  With kappa
components the orientations are fixed by the construction rules, so the
left label alone pins the state down.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import DisconnectedGraphError, DistanceMatrix, Graph, InternalError, apsp
from .metric import RequirementTable, ResidualTable, requirement_table, residual_decompositions
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


@dataclass(frozen=True)
class State:
    """One oriented ball: left/right are residual component labels, 0 = empty."""

    center: int
    power: int
    left: int
    right: int
    left_size: int

    @property
    def weight(self) -> int:
        return self.power


@dataclass(eq=False)
class StateDag:
    """Dense state arrays plus the arc list.

    State id = (v * rho + (p-1)) * 3 + left_label; ids where exists is False
    are unused slots, and a state's power (its weight) is id // 3 % rho + 1.
    Arcs are stored as flat parallel src/dst arrays.
    """

    n: int
    rho: int
    exists: np.ndarray  # bool, dense
    left_size: np.ndarray  # int32, dense
    is_source: np.ndarray  # bool, dense (left label 0)
    is_sink: np.ndarray  # bool, dense (right label 0)
    arc_src: np.ndarray  # int64
    arc_dst: np.ndarray  # int64

    def state_id(self, v: int, p: int, left: int) -> int:
        return (v * self.rho + p - 1) * 3 + left

    def decode(self, sid: int) -> tuple[int, int, int]:
        left = sid % 3
        rest = sid // 3
        return rest // self.rho, rest % self.rho + 1, left

    @property
    def num_states(self) -> int:
        return int(self.exists.sum())

    @property
    def num_arcs(self) -> int:
        return int(self.arc_src.size)

    def state_at(self, sid: int) -> State:
        """The state behind an id.  A sink's right side is empty; otherwise
        the right label is the other one of the orientation pair, (0,1) or
        (1,2)/(2,1)."""
        v, p, left = self.decode(sid)
        right = 0 if self.is_sink[sid] else (1 if left == 0 else 3 - left)
        return State(center=v, power=p, left=left, right=right, left_size=int(self.left_size[sid]))


def _dense_tables(rt: ResidualTable):
    n, rho = rt.n, rt.rho
    k = rt.kappa[:, 1:]  # (n, rho), column j = power j+1
    exists = np.zeros((n, rho, 3), dtype=bool)
    exists[:, :, 0] = k <= 1
    exists[:, :, 1] = (k == 1) | (k == 2)
    exists[:, :, 2] = k == 2
    left_size = np.zeros((n, rho, 3), dtype=np.int32)
    left_size[:, :, 1] = rt.comp_size[:, 1:, 1]
    left_size[:, :, 2] = rt.comp_size[:, 1:, 2]
    is_source = np.zeros((n, rho, 3), dtype=bool)
    is_source[:, :, 0] = exists[:, :, 0]
    is_sink = np.zeros((n, rho, 3), dtype=bool)
    is_sink[:, :, 0] = k == 0
    is_sink[:, :, 1] = k == 1
    flat = lambda a: a.reshape(-1)
    return (flat(exists), flat(left_size), flat(is_source), flat(is_sink))


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
                c = rt.size_of(v, p, 1)
                out.append(State(v, p, 0, 1, 0))
                out.append(State(v, p, 1, 0, c))
            elif k == 2:
                out.append(State(v, p, 1, 2, rt.size_of(v, p, 1)))
                out.append(State(v, p, 2, 1, rt.size_of(v, p, 2)))
    return out


def arc_test(sigma: State, tau: State, dm: DistanceMatrix, rt: ResidualTable, req: RequirementTable) -> bool:
    """Constant-time test whether tau can directly follow sigma.

    Checks, in order: both facing sides nonempty; contact-tight powers
    within [1, rho]; each center sits in the component the other state has
    facing it; and both exposed frontiers are covered, via two requirement
    lookups.
    """
    if sigma.right == 0 or tau.left == 0:
        return False
    rho = rt.rho
    if not (1 <= sigma.power <= rho and 1 <= tau.power <= rho):
        return False
    if int(dm.dist[sigma.center, tau.center]) != sigma.power + tau.power + 1:
        return False
    if rt.label_of(sigma.center, sigma.power, tau.center) != sigma.right:
        return False
    if rt.label_of(tau.center, tau.power, sigma.center) != tau.left:
        return False
    if req.value(sigma.center, sigma.power, sigma.right, tau.center) > tau.power:
        return False
    if req.value(tau.center, tau.power, tau.left, sigma.center) > sigma.power:
        return False
    return True


def build_dag(g: Graph, dm: DistanceMatrix, rt: ResidualTable, req: RequirementTable) -> StateDag:
    """Enumerate all arcs in O(n^3).

    For an ordered center pair (v, w) and power p, only q = dist(v,w)-p-1
    can be contact-tight, and the component labels pin down exactly one
    orientation on each side, so each surviving (v, p, w) triple yields one
    arc.  The inner work is vectorized over the (p, w) grid per center.
    """
    n = g.n
    rho = rt.rho
    exists, left_size, is_source, is_sink = _dense_tables(rt)
    kappa = rt.kappa
    comp_label = rt.comp_label
    reqarr = req.req
    p_col = np.arange(1, rho + 1, dtype=np.int64)[:, None]
    srcs: list[np.ndarray] = []
    dsts: list[np.ndarray] = []
    for v in range(n):
        kv = kappa[v, 1:].astype(np.int64)  # (rho,)
        has_residual = (kv >= 1) & (kv <= 2)
        if not has_residual.any():
            continue
        q_grid = dm.dist[v].astype(np.int64)[None, :] - p_col - 1  # (rho, n)
        ok = has_residual[:, None] & (q_grid >= 1) & (q_grid <= rho)
        pi, wi = np.nonzero(ok)
        if pi.size == 0:
            continue
        ps = pi + 1
        qs = q_grid[pi, wi]
        kw = kappa[wi, qs].astype(np.int64)
        m = (kw >= 1) & (kw <= 2)
        if not m.any():
            continue
        ps, wi, qs = ps[m], wi[m], qs[m]
        rlab = comp_label[v, ps, wi].astype(np.int64)
        llab = comp_label[wi, qs, v].astype(np.int64)
        m = (reqarr[v, ps, rlab - 1, wi] <= qs) & (reqarr[wi, qs, llab - 1, v] <= ps)
        if not m.any():
            continue
        ps, wi, qs, rlab, llab = ps[m], wi[m], qs[m], rlab[m], llab[m]
        sigma_left = np.where(kappa[v, ps] == 1, 0, 3 - rlab)
        srcs.append((v * rho + ps - 1) * 3 + sigma_left)
        dsts.append((wi * rho + qs - 1) * 3 + llab)
    if srcs:
        arc_src = np.concatenate(srcs)
        arc_dst = np.concatenate(dsts)
    else:
        arc_src = np.empty(0, dtype=np.int64)
        arc_dst = np.empty(0, dtype=np.int64)
    # acyclicity witness: the left side strictly grows along every arc
    if not (left_size[arc_dst] > left_size[arc_src]).all():
        raise InternalError("an arc does not grow the left side")
    return StateDag(
        n=n,
        rho=rho,
        exists=exists,
        left_size=left_size,
        is_source=is_source,
        is_sink=is_sink,
        arc_src=arc_src,
        arc_dst=arc_dst,
    )


def _solve_dag(dag: StateDag, source_mask: np.ndarray | None = None):
    """Shortest source-to-sink chain by DP in left-size order.

    Returns (cost, chain of state ids from leftmost to rightmost), or None
    when no sink is reachable from an allowed source.  Ties are broken
    toward the smaller (center, power, left) triple, which is the state id
    order.

    Each state keeps one int64, (cost << 32) + predecessor id, and each arc
    offers its target ((cost of the source + power of the target) << 32) +
    source id.  Arcs strictly grow the left size, so relaxing them grouped
    by the source's left size finalizes every source before its out-arcs
    are read, and a state's minimum is its cheapest cost together with the
    smallest source id among its tight in-arcs.  That id is the
    lexicographic tie-break because, for a fixed state and predecessor
    center, distance and labels force the predecessor's power and
    orientation, so each predecessor center owns exactly one candidate id,
    and ids ascend with the center.  Both halves fit: ids are below
    3 * n * rho < 2**31 and costs below _INF = 2**30, because
    n < MAX_VERTICES and rho <= n / 2.  The id is added, not or-ed in (the
    same on a zero low half), because NumPy's int64 bitwise_or loop is code
    no other solve step runs, and loading it costs about 128 KB resident.
    """
    sources = dag.is_source if source_mask is None else dag.is_source & source_mask
    power = np.arange(dag.exists.size) // 3 % dag.rho + 1
    best = np.full(dag.exists.size, _INF << 32 | _NO_PRED, dtype=np.int64)
    best[sources] = (power[sources] << 32) + _NO_PRED
    key = dag.left_size[dag.arc_src]
    order = np.argsort(key, kind="stable")
    lo = 0
    for hi in np.cumsum(np.bincount(key)).tolist():
        if hi > lo:
            group = order[lo:hi]
            src, dst = dag.arc_src[group], dag.arc_dst[group]
            np.minimum.at(best, dst, (((best[src] >> 32) + power[dst]) << 32) + src)
        lo = hi
    cost = best >> 32
    sink_ids = np.flatnonzero(dag.is_sink & (cost < _INF))
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


def _broadcast_from_chain(dag: StateDag, chain: list[int]) -> Broadcast:
    assignment = []
    seen = set()
    for sid in chain:
        v, p, _ = dag.decode(sid)
        # a simple chain never revisits a center; enforced, not repaired
        if v in seen:
            raise InternalError("state chain reuses a center")
        seen.add(v)
        assignment.append((v, p))
    return Broadcast.from_pairs(assignment)


def solve_path(h: Graph) -> Broadcast:
    """Minimum-cost efficient dominating broadcast whose domination graph is
    a path.  The one-vertex graph gets the zero broadcast by convention."""
    if h.n == 1:
        return Broadcast(())
    dm = apsp(h)
    if not dm.connected:
        raise DisconnectedGraphError("solve_path requires a connected graph")
    rt = residual_decompositions(h, dm)
    req = requirement_table(h, dm, rt)
    dag = build_dag(h, dm, rt, req)
    res = _solve_dag(dag)
    if res is None:
        raise InternalError("no source-to-sink chain, but a radial state always exists")
    cost, chain = res
    bc = _broadcast_from_chain(dag, chain)
    if bc.cost != cost:
        raise InternalError(f"chain cost {bc.cost} differs from the DP value {cost}")
    return bc


def dag_to_dot(dag: StateDag) -> str:
    """DOT dump of the state digraph, for debugging small instances."""
    lines = ["digraph states {"]
    for sid in np.nonzero(dag.exists)[0]:
        s = dag.state_at(int(sid))
        shape = []
        if dag.is_source[sid]:
            shape.append("source")
        if dag.is_sink[sid]:
            shape.append("sink")
        extra = f" [{'/'.join(shape)}]" if shape else ""
        lines.append(f'  s{sid} [label="({s.center},{s.power},{s.left},{s.right}) w={s.power}{extra}"];')
    for a, b in zip(dag.arc_src.tolist(), dag.arc_dst.tolist()):
        lines.append(f"  s{a} -> s{b};")
    lines.append("}")
    return "\n".join(lines) + "\n"
