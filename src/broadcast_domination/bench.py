"""Benchmark harness comparing the oriented-ball solver with the anchored
baseline on identical instances.

Both solvers run single-threaded on the same generated graph; per instance
the harness records the median wall-clock time of each solver over the
configured repetitions and the returned cost.  The repetitions run
round-robin: each round solves every instance with both solvers before the
next round starts, so a slow spell of the host spreads over all instances
instead of skewing one.  Costs must agree on every instance; a
disagreement is a correctness bug and aborts the run.  Timing numbers are
environment noise by nature, so determinism guarantees cover everything
except the time columns.
"""

from __future__ import annotations

import csv
import io
import statistics
import time
from dataclasses import dataclass
from typing import Callable

from .anchored import solve_path_anchored
from .generators import GeneratorSpec, generate
from .graph import Graph, InternalError
from .pathdag import solve_path
from .peel import solve_optimal

__all__ = [
    "BenchCostMismatch",
    "BenchTimeout",
    "BenchResult",
    "run_bench",
    "report_to_csv",
    "format_table",
    "speedup_csv",
    "TASKS",
    "SOLVER_NEW",
    "SOLVER_BASELINE",
]

TASKS = ("optimal", "path")
SOLVER_NEW = "oriented"
SOLVER_BASELINE = "anchored"


class BenchCostMismatch(InternalError):
    """The two solvers disagreed on an instance; both are exact, so this is
    a correctness bug, not a benchmark artifact."""


class BenchTimeout(RuntimeError):
    """A solve was slower than the configured limit."""


@dataclass(frozen=True)
class BenchResult:
    """One instance timed with both solvers: the median ms of each over
    `reps` solves, and the cost they agree on."""

    family: str
    n: int
    seed: int
    task: str
    reps: int
    new_ms: float
    base_ms: float
    cost: int

    @property
    def speedup(self) -> float | None:
        """Baseline time over new time; None when the new time reads 0."""
        return self.base_ms / self.new_ms if self.new_ms > 0 else None


def _solver_fn(task: str, solver: str) -> Callable[[Graph], object]:
    path_solver = solve_path if solver == SOLVER_NEW else solve_path_anchored
    if task == "optimal":
        return lambda g: solve_optimal(g, path_solver=path_solver)
    if task == "path":
        return path_solver
    raise ValueError(f"unknown task {task!r}; known: {', '.join(TASKS)}")


def _timed_cost(fn, g: Graph, timeout: float | None, times: list[float]) -> int:
    """Solve once, append the wall time in seconds to times and return the
    cost.  The timeout aborts the run after a solve slower than it; it is
    checked once the solve has returned, so it never interrupts one."""
    t0 = time.perf_counter()
    cost = fn(g).cost
    dt = time.perf_counter() - t0
    if timeout is not None and dt > timeout:
        raise BenchTimeout(f"single solve took {dt:.3f}s, over the {timeout:.3f}s limit")
    times.append(dt)
    return cost


def run_bench(
    specs: list[GeneratorSpec],
    task: str = "optimal",
    reps: int = 5,
    timeout: float | None = None,
) -> list[BenchResult]:
    """Time both solvers on every instance, round-robin over the instances;
    one result per spec, in spec order."""
    if reps < 1:
        raise ValueError(f"reps must be at least 1, got {reps}")
    new_fn = _solver_fn(task, SOLVER_NEW)
    base_fn = _solver_fn(task, SOLVER_BASELINE)
    graphs = [generate(spec) for spec in specs]  # a bad spec fails before any solve
    new_times: list[list[float]] = [[] for _ in specs]  # seconds, per instance
    base_times: list[list[float]] = [[] for _ in specs]
    costs = [0] * len(specs)
    for _ in range(reps):
        for i, (spec, g) in enumerate(zip(specs, graphs)):
            new_cost = _timed_cost(new_fn, g, timeout, new_times[i])
            base_cost = _timed_cost(base_fn, g, timeout, base_times[i])
            if new_cost != base_cost:
                raise BenchCostMismatch(
                    f"cost mismatch on {spec.family} n={spec.n} seed={spec.seed}: "
                    f"{SOLVER_NEW}={new_cost} {SOLVER_BASELINE}={base_cost}"
                )
            costs[i] = new_cost
    return [
        BenchResult(s.family, s.n, s.seed, task, reps, statistics.median(nt) * 1e3, statistics.median(bt) * 1e3, c)
        for s, nt, bt, c in zip(specs, new_times, base_times, costs)
    ]


_CSV_FIELDS = ["family", "n", "seed", "task", "solver", "reps", "median_ms", "cost"]


def report_to_csv(results: list[BenchResult]) -> str:
    """Two rows per instance, new solver first."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(_CSV_FIELDS)
    for r in results:
        for solver, ms in ((SOLVER_NEW, r.new_ms), (SOLVER_BASELINE, r.base_ms)):
            w.writerow([r.family, r.n, r.seed, r.task, solver, r.reps, repr(ms), r.cost])
    return buf.getvalue()


def format_table(results: list[BenchResult]) -> str:
    """Human-readable per-family summary of the instances with a speedup;
    max n is over all of a family's instances."""
    lines = [f"{'family':<14}{'cases':>6}{'max n':>7}{'median speedup':>16}{'max speedup':>13}"]
    for family in sorted({r.family for r in results}):
        fam = [r for r in results if r.family == family]
        speedups = [r.speedup for r in fam if r.speedup is not None]
        if speedups:
            max_n = max(r.n for r in fam)
            median, best = statistics.median(speedups), max(speedups)
            lines.append(f"{family:<14}{len(speedups):>6}{max_n:>7}{median:>15.2f}x{best:>12.2f}x")
    return "\n".join(lines) + "\n"


def speedup_csv(results: list[BenchResult]) -> str:
    """Per-instance speedup data for external plotting."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["family", "n", "seed", "task", "speedup"])
    for r in sorted(results, key=lambda r: (r.family, r.n, r.seed, r.task)):
        if r.speedup is not None:
            w.writerow([r.family, r.n, r.seed, r.task, repr(r.speedup)])
    return buf.getvalue()
