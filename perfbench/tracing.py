"""Per-layer tracing from outside the package.

The tracer times each layer by calling the layers' public functions in
turn, then `solve_path` itself; the dynamic program has no public entry
point, so its time is `solve_path` minus the four layers before it.  The
peel loop is traced through the `path_solver` argument of `solve_optimal`.
Spans (name, start, end, parent index) stay in memory and are written out
when the run ends; counters are deterministic for a given seed.
"""

from __future__ import annotations

import time
import tracemalloc
from collections import defaultdict
from typing import Optional

from broadcast_domination import (
    Broadcast,
    Graph,
    apsp,
    build_dag,
    requirement_table,
    residual_decompositions,
    solve_optimal,
    solve_path,
)

_MB = 1024.0 * 1024.0

# (name, unit) of every per-layer metric, in report order
LAYER_METRICS = (
    ("graph.apsp_s", "s"),
    ("metric.residual_s", "s"),
    ("metric.requirement_s", "s"),
    ("metric.residual_peak_mb", "MB"),
    ("metric.table_mb", "MB"),
    ("pathdag.build_dag_s", "s"),
    ("pathdag.dp_s", "s"),
    ("pathdag.states", "count"),
    ("pathdag.arcs", "count"),
    ("pathdag.arc_mb", "MB"),
    ("pathdag.solve_path_s", "s"),
    ("peel.path_solves", "count"),
    ("peel.path_solve_s", "s"),
    ("peel.self_s", "s"),
    ("peel.residual_vertices", "count"),
    ("peel.distinct_per_solve", "ratio"),
    ("oracle.reference_s", "s"),
    ("generators.generate_s", "s"),
    ("trace.overhead_s", "s"),
)
COUNTERS = ("pathdag.states", "pathdag.arcs", "peel.path_solves", "peel.residual_vertices", "peel.distinct_per_solve")


class Tracer:
    """Records one traced pass: spans, summed layer times, counts, peaks."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.time: dict[str, float] = defaultdict(float)
        self.count: dict[str, int] = defaultdict(int)
        self.peak: dict[str, float] = defaultdict(float)
        self._parent = -1
        self._distinct: set = set()
        self._distinct_total = 0
        self._largest: tuple[int, Optional[Graph]] = (-1, None)

    def _span(self, name: str, t0: float, t1: float, parent: int) -> None:
        self.spans.append([name, t0, t1, parent])
        self.time[name] += t1 - t0

    def solve_path(self, h: Graph) -> Broadcast:
        """solve_path(h), with each layer also called and timed on its own."""
        parent = self._parent
        t0 = time.perf_counter()
        dm = apsp(h)
        t1 = time.perf_counter()
        rt = residual_decompositions(h, dm)
        t2 = time.perf_counter()
        req = requirement_table(h, dm, rt)
        t3 = time.perf_counter()
        dag = build_dag(h, dm, rt, req)
        t4 = time.perf_counter()
        self._span("graph.apsp", t0, t1, parent)
        self._span("metric.residual", t1, t2, parent)
        self._span("metric.requirement", t2, t3, parent)
        self._span("pathdag.build_dag", t3, t4, parent)
        self.count["pathdag.states"] += dag.num_states
        self.count["pathdag.arcs"] += dag.num_arcs
        tables = rt.kappa.nbytes + rt.comp_label.nbytes + rt.comp_size.nbytes + req.req.nbytes
        self.peak["metric.table_mb"] = max(self.peak["metric.table_mb"], tables / _MB)
        arcs = dag.arc_src.nbytes + dag.arc_dst.nbytes
        self.peak["pathdag.arc_mb"] = max(self.peak["pathdag.arc_mb"], arcs / _MB)
        size = h.n * h.n * (dm.radius + 1)  # elements of the residual label table
        if size > self._largest[0]:
            self._largest = (size, h)
        del dm, rt, req, dag  # solve_path builds its own; do not hold two copies
        t5 = time.perf_counter()
        bc = solve_path(h)
        t6 = time.perf_counter()
        self._span("pathdag.solve_path", t5, t6, parent)
        self.time["pathdag.dp"] += (t6 - t5) - (t4 - t0)
        return bc

    def _open(self) -> tuple[int, int]:
        """Reserve a span slot that becomes the parent of spans recorded
        until the matching _close."""
        idx, outer = len(self.spans), self._parent
        self.spans.append(None)
        self._parent = idx
        return idx, outer

    def _close(self, idx: int, outer: int, name: str, t0: float, t1: float) -> None:
        self.spans[idx] = [name, t0, t1, outer]
        self.time[name] += t1 - t0
        self._parent = outer

    def _peel_path_solver(self, h: Graph) -> Broadcast:
        idx, outer = self._open()
        inner_before = self.time["pathdag.solve_path"]
        t0 = time.perf_counter()
        try:
            bc = self.solve_path(h)
        finally:
            self._close(idx, outer, "peel.path_solver", t0, time.perf_counter())
        self.time["peel.path_solve"] += self.time["pathdag.solve_path"] - inner_before
        self.count["peel.path_solves"] += 1
        self.count["peel.residual_vertices"] += h.n
        self._distinct.add((h.n, tuple(h.edges())))
        return bc

    def solve_optimal(self, g: Graph) -> Broadcast:
        """solve_optimal(g) with every path solve traced.  Peel self time is
        the solve minus the time spent in the traced path solver, so the
        tracer's extra layer calls are not charged to the peel loop."""
        self._distinct = set()
        before = self.time["peel.path_solver"]
        idx, outer = self._open()
        t0 = time.perf_counter()
        try:
            bc = solve_optimal(g, path_solver=self._peel_path_solver)
        finally:
            t1 = time.perf_counter()
            self._close(idx, outer, "peel.solve_optimal", t0, t1)
        self.time["peel.self"] += (t1 - t0) - (self.time["peel.path_solver"] - before)
        self._distinct_total += len(self._distinct)
        return bc

    def residual_peak_mb(self) -> float:
        """tracemalloc peak of one residual_decompositions call on the
        largest path-solve input of the pass (by label-table size)."""
        h = self._largest[1]
        if h is None:
            return 0.0
        dm = apsp(h)
        tracemalloc.start()
        try:
            residual_decompositions(h, dm)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak / _MB

    def metrics(self) -> dict[str, float]:
        """Layer metrics of the pass, except metric.residual_peak_mb."""
        solves = self.count["peel.path_solves"]
        return {
            "graph.apsp_s": self.time["graph.apsp"],
            "metric.residual_s": self.time["metric.residual"],
            "metric.requirement_s": self.time["metric.requirement"],
            "metric.table_mb": self.peak["metric.table_mb"],
            "pathdag.build_dag_s": self.time["pathdag.build_dag"],
            "pathdag.dp_s": self.time["pathdag.dp"],
            "pathdag.states": self.count["pathdag.states"],
            "pathdag.arcs": self.count["pathdag.arcs"],
            "pathdag.arc_mb": self.peak["pathdag.arc_mb"],
            "pathdag.solve_path_s": self.time["pathdag.solve_path"],
            "peel.path_solves": solves,
            "peel.path_solve_s": self.time["peel.path_solve"],
            "peel.self_s": self.time["peel.self"],
            "peel.residual_vertices": self.count["peel.residual_vertices"],
            "peel.distinct_per_solve": self._distinct_total / solves if solves else 0.0,
        }
