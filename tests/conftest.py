"""Shared helpers: exhaustive small-graph enumeration, seeded randoms, a
hypothesis strategy for connected graphs, the path-case tables and their
dense views, the scalar arc set, the ball laws, a ball-count multipacking
check, the cycle shape of a domination graph, bit-mask vertex sets and a
CLI runner.

connected_graphs feeds test_acceptance's exhaustive_sweep, the one tier-1
pass over every connected graph with n <= 6, which builds each graph's
tables once and runs every exhaustive check on them.  Module tests check
random or hand-picked graphs only, with one exception:
test_anchored::test_equality_exhaustive_small keeps its own n <= 5 pass,
because the anchored solver over the n <= 6 sweep measured +20 s even on
the sweep's shared tables."""

from __future__ import annotations

import subprocess
import sys
from itertools import combinations
from typing import Iterator

import numpy as np
import pytest
from hypothesis import strategies as st

from broadcast_domination.generators import SplitMix64, random_tree
from broadcast_domination.graph import Graph, bits_of, is_connected
from broadcast_domination.pathdag import _path_tables, _state_id, arc_test, enumerate_states
from broadcast_domination.verify import ball_mask, domination_edges


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the vertex indices present in a bit mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def members(rt, v, p, label) -> int:
    """Bit mask of the residual component of B(v, p) with this label."""
    return bits_of(np.flatnonzero(rt.label_row(v, p) == label).tolist())


def dense_labels(rt) -> np.ndarray:
    """Every ball's label row through ResidualTable.label_row, as one dense
    (n, rho+1, n) int16 array: the layout the tables were pinned in."""
    return np.array([[rt.label_row(v, p) for p in range(rt.rho + 1)] for v in range(rt.n)], dtype=np.int16)


def dense_req(rq) -> np.ndarray:
    """The requirement rows of every (ball, label) pair through
    RequirementTable.rows, as one dense (n, rho+1, 2, n) int16 array, zero
    rows included: the layout the tables were pinned in."""
    return rq.rows(rq.row_map)


def tables(g):
    """Distances, residual decompositions and requirement table of g, by
    the solver's own table build."""
    return _path_tables(g, "tables")


def scalar_arcs(dm, rt, rq) -> set[tuple[int, int]]:
    """(source id, target id) of every state pair the two-sided scalar
    arc_test accepts: the reference for build_dag's arc set."""
    states = enumerate_states(rt)
    sid = lambda s: _state_id(s.center, s.power, s.left, rt.rho)
    return {(sid(s), sid(t)) for s in states for t in states if arc_test(s, t, dm, rt, rq)}


def run_cli(args, stdin=""):
    """Run the command-line tool in a fresh interpreter, capturing text."""
    return subprocess.run(
        [sys.executable, "-m", "broadcast_domination", *args],
        input=stdin,
        capture_output=True,
        text=True,
    )


def connected_graphs(n):
    """Every connected labeled graph on n vertices, by edge subset."""
    slots = list(combinations(range(n), 2))
    for bits in range(1 << len(slots)):
        edges = [slots[i] for i in range(len(slots)) if bits >> i & 1]
        g = Graph.from_edges(n, edges)
        if is_connected(g):
            yield g


@st.composite
def graphs(draw, max_n=16, min_n=1):
    # random tree plus extra edges: always connected
    n = draw(st.integers(min_n, max_n))
    edges = set()
    for v in range(1, n):
        edges.add((draw(st.integers(0, v - 1)), v))
    for _ in range(draw(st.integers(0, n))):
        u = draw(st.integers(0, n - 1))
        v = draw(st.integers(0, n - 1))
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return Graph.from_edges(n, sorted(edges))


def is_multipacking(dm, members) -> bool:
    """At most s members in every ball B(v, s), s >= 1, counted on ball
    masks: the definition, independent of the solver's own bookkeeping."""
    chosen = bits_of(members)
    if len(set(members)) != len(members) or chosen >= 1 << dm.n:
        return False
    return all(
        bin(ball_mask(dm, v, s) & chosen).count("1") <= s for v in range(dm.n) for s in range(1, max(dm.n, 2))
    )


def ball_law_violations(g, dm) -> set[str]:
    """The ball laws that fail for some two balls of power at most rad:
    "intersection" (B(a, p) meets B(b, q) iff d(a, b) <= p + q) and
    "tight contact" (disjoint balls are joined by an edge iff
    d(a, b) = p + q + 1).  Checked on bit masks, not on the tables."""
    rho = dm.radius
    masks = [[ball_mask(dm, v, p) for p in range(rho + 1)] for v in range(g.n)]
    nbrs = [bits_of(g.adj[z]) for z in range(g.n)]
    failed = set()
    for a in range(g.n):
        for b in range(g.n):
            d = int(dm.dist[a, b])
            for p, x in enumerate(masks[a]):
                for q, y in enumerate(masks[b]):
                    if (x & y != 0) != (d <= p + q):
                        failed.add("intersection")
                    if not x & y and any(nbrs[z] & y for z in iter_bits(x)) != (d == p + q + 1):
                        failed.add("tight contact")
    return failed


def is_cycle_shaped(dm, bc) -> bool:
    """Whether the domination graph of bc is a cycle: at least three active
    centers, each with exactly two domination neighbours, all connected."""
    actives = bc.active
    if len(actives) < 3:
        return False
    edges = domination_edges(dm, bc)
    if len(edges) != len(actives):
        return False
    nbr = {v: [] for v in actives}
    for u, v in edges:
        nbr[u].append(v)
        nbr[v].append(u)
    if any(len(ws) != 2 for ws in nbr.values()):
        return False
    seen = {actives[0]}
    stack = [actives[0]]
    while stack:
        u = stack.pop()
        for w in nbr[u]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(actives)


def random_connected_graph(n: int, seed: int) -> Graph:
    """Seeded random connected graph: a uniform tree plus extra edges."""
    tree = random_tree(n, seed)
    rng = SplitMix64(seed ^ 0x5EED5EED)
    edges = set(tree.edges())
    for _ in range(rng.below(n)):
        u, v = rng.below(n), rng.below(n)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return Graph.from_edges(n, sorted(edges))


def random_suite(count: int, n_lo: int, n_hi: int, base_seed: int = 1000):
    """Deterministic list of random connected graphs cycling over sizes."""
    span = n_hi - n_lo + 1
    return [random_connected_graph(n_lo + i % span, base_seed + i) for i in range(count)]


@pytest.fixture(scope="session")
def small_random_graphs():
    return random_suite(60, 4, 10, base_seed=7000)
