"""Workload instances and the reference values their answers are checked
against.

Every instance is built from the run's seed.  Fixed-shape families (path,
cycle, barbell, and the peel workloads' random tree) keep their shape and
have their vertex labels permuted by the seed, so a run's work stays the
same across seeds while its inputs do not.  The path-case random tree and
the small-batch graphs are drawn from the seed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

from broadcast_domination import Graph, SplitMix64, oracle_gamma_b, oracle_gamma_path
from broadcast_domination.generators import barbell_graph, cycle_graph, path_graph, random_tree

from checker import Reference, bfs_distances, closed_form, reference_for

WORKLOADS = ("path-case", "peel-general", "peel-pool", "small-batch")

PATH_CASE_SHAPES = (("path", 48), ("path", 96), ("path", 192), ("cycle", 128), ("barbell", 128))
PATH_CASE_TREE_N = 256
PEEL_SHAPES = (("path", 30), ("cycle", 30), ("barbell", 30))
PEEL_TREE = (40, 1)  # (n, Pruefer seed): a fixed tree shape, relabelled per run
SMALL_BATCH_COUNT = 600
SMALL_BATCH_SIZES = range(7, 13)
CLOSED_FORM_CHECK_SIZES = range(5, 13)

_RELABEL_SALT = 0x9A7B_5EED


@dataclass(frozen=True)
class Op:
    """One timed solve: `solver` is "path" (solve_path) or "optimal"
    (solve_optimal)."""

    label: str
    graph: Graph
    solver: str
    ref: Reference


@dataclass
class Setup:
    ops: Optional[list[Op]]  # dropped once a later set-up replaces it
    generate_s: float  # time in instance generation
    reference_s: float  # time in oracle calls
    total_s: float


class _Clock:
    """Accumulates the time spent inside `with clock:` blocks."""

    def __init__(self) -> None:
        self.total = 0.0

    def __enter__(self):
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.total += time.perf_counter() - self._t0


def relabel(g: Graph, rng: SplitMix64) -> Graph:
    """The same graph with its vertex labels permuted (Fisher-Yates)."""
    perm = list(range(g.n))
    for i in range(g.n - 1, 0, -1):
        j = rng.below(i + 1)
        perm[i], perm[j] = perm[j], perm[i]
    return Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def tree_plus_chords(n: int, rng: SplitMix64) -> Graph:
    """Connected random graph: a uniform Pruefer tree plus up to n-1 chords."""
    tree = random_tree(n, rng.next_u64())
    edges = set(tree.edges())
    for _ in range(rng.below(n)):
        u, v = rng.below(n), rng.below(n)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return Graph.from_edges(n, sorted(edges))


def _shape(family: str, n: int) -> Graph:
    if family == "path":
        return path_graph(n)
    if family == "cycle":
        return cycle_graph(n)
    return barbell_graph(n)


def check_closed_forms(oracle_clock: Optional[_Clock] = None) -> None:
    """Confirm the closed forms the checker uses on paths and cycles against
    the brute-force oracle; raises on the first disagreement."""
    oracle_clock = oracle_clock or _Clock()
    for n in CLOSED_FORM_CHECK_SIZES:
        for family, g in (("path", path_graph(n)), ("cycle", cycle_graph(n))):
            with oracle_clock:
                got = {"optimal": oracle_gamma_b(g).cost, "path": oracle_gamma_path(g).cost}
            for solver, cost in got.items():
                want = closed_form(family, n, solver)
                if cost != want:
                    raise RuntimeError(f"closed form for {solver} on {family}-{n} is {want}, oracle says {cost}")


def build(workload: str, seed: int) -> Setup:
    """Generate the workload's instances and their reference values."""
    t0 = time.perf_counter()
    gen = _Clock()
    oracle = _Clock()
    check_closed_forms(oracle)
    rng = SplitMix64(seed ^ _RELABEL_SALT)
    ops: list[Op] = []
    if workload == "path-case":
        for family, n in PATH_CASE_SHAPES:
            with gen:
                g = relabel(_shape(family, n), rng)
            ops.append(Op(f"{family}-{n}", g, "path", reference_for(g, "path", closed_form(family, n, "path"))))
        with gen:
            g = random_tree(PATH_CASE_TREE_N, seed)
        ops.append(Op(f"random-tree-{PATH_CASE_TREE_N}", g, "path", reference_for(g, "path", None)))
    elif workload in ("peel-general", "peel-pool"):
        for family, n in PEEL_SHAPES:
            with gen:
                g = relabel(_shape(family, n), rng)
            ops.append(Op(f"{family}-{n}", g, "optimal", reference_for(g, "optimal", closed_form(family, n, "optimal"))))
        tree_n, tree_seed = PEEL_TREE
        with gen:
            g = relabel(random_tree(tree_n, tree_seed), rng)
        ops.append(Op(f"random-tree-{tree_n}", g, "optimal", reference_for(g, "optimal", None)))
    elif workload == "small-batch":
        sizes = list(SMALL_BATCH_SIZES)
        for i in range(SMALL_BATCH_COUNT):
            n = sizes[i % len(sizes)]
            with gen:
                g = tree_plus_chords(n, rng)
            with oracle:
                gamma_b = oracle_gamma_b(g).cost
                gamma_path = oracle_gamma_path(g).cost
            dist = bfs_distances(g)
            ops.append(Op(f"batch-{i}", g, "optimal", reference_for(g, "optimal", gamma_b, dist)))
            ops.append(Op(f"batch-{i}", g, "path", reference_for(g, "path", gamma_path, dist)))
    else:
        raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
    return Setup(ops=ops, generate_s=gen.total, reference_s=oracle.total, total_s=time.perf_counter() - t0)


def sample(seed: int, count: int = 40) -> list[Op]:
    """Small instances for the self-test, every one within the oracle's
    reach: each family at n = 12 plus `count` small-batch graphs."""
    rng = SplitMix64(seed ^ _RELABEL_SALT)
    graphs = [(f"{family}-12", relabel(_shape(family, 12), rng)) for family in ("path", "cycle", "barbell")]
    graphs.append(("random-tree-12", random_tree(12, seed)))
    graphs += [(f"batch-{i}", tree_plus_chords(7 + i % 6, rng)) for i in range(count)]
    ops = []
    for label, g in graphs:
        dist = bfs_distances(g)
        ops.append(Op(label, g, "optimal", reference_for(g, "optimal", oracle_gamma_b(g).cost, dist)))
        ops.append(Op(label, g, "path", reference_for(g, "path", oracle_gamma_path(g).cost, dist)))
    return ops
