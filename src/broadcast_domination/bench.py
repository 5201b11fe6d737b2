"""Benchmark harness comparing the oriented-ball solver with the anchored
baseline on identical instances.

Both solvers run single-threaded on the same generated graph; per instance
the harness records the median wall-clock time over the configured
repetitions and the returned cost.  Costs must agree on every row; a
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
    "BenchRow",
    "FamilyAggregate",
    "BenchReport",
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
class BenchRow:
    family: str
    n: int
    seed: int
    task: str
    solver: str
    reps: int
    median_ms: float
    cost: int
    threads: int = 1


@dataclass(frozen=True)
class FamilyAggregate:
    family: str
    cases: int
    max_n: int
    median_speedup: float
    max_speedup: float


@dataclass(frozen=True)
class BenchReport:
    rows: tuple[BenchRow, ...]
    aggregates: tuple[FamilyAggregate, ...]


def _solver_fn(task: str, solver: str) -> Callable[[Graph], object]:
    path_solver = solve_path if solver == SOLVER_NEW else solve_path_anchored
    if task == "optimal":
        return lambda g: solve_optimal(g, path_solver=path_solver)
    if task == "path":
        return path_solver
    raise ValueError(f"unknown task {task!r}; known: {', '.join(TASKS)}")


def _time_solver(fn, g: Graph, reps: int, timeout: float | None):
    """Median solve time in ms and the cost.  The timeout aborts the run
    after a solve slower than it; it is checked once the solve has
    returned, so it never interrupts one."""
    times = []
    cost = None
    for _ in range(reps):
        t0 = time.perf_counter()
        bc = fn(g)
        dt = time.perf_counter() - t0
        if timeout is not None and dt > timeout:
            raise BenchTimeout(f"single solve took {dt:.3f}s, over the {timeout:.3f}s limit")
        times.append(dt)
        cost = bc.cost
    return statistics.median(times) * 1000.0, cost


def run_bench(
    specs: list[GeneratorSpec],
    task: str = "optimal",
    reps: int = 5,
    timeout: float | None = None,
) -> BenchReport:
    """Run both solvers on every instance and aggregate speedups per family."""
    if reps < 1:
        raise ValueError(f"reps must be at least 1, got {reps}")
    new_fn = _solver_fn(task, SOLVER_NEW)
    base_fn = _solver_fn(task, SOLVER_BASELINE)
    rows: list[BenchRow] = []
    graphs = [generate(spec) for spec in specs]  # a bad spec fails before any solve
    for spec, g in zip(specs, graphs):
        new_ms, new_cost = _time_solver(new_fn, g, reps, timeout)
        base_ms, base_cost = _time_solver(base_fn, g, reps, timeout)
        if new_cost != base_cost:
            raise BenchCostMismatch(
                f"cost mismatch on {spec.family} n={spec.n} seed={spec.seed}: "
                f"{SOLVER_NEW}={new_cost} {SOLVER_BASELINE}={base_cost}"
            )
        rows.append(BenchRow(spec.family, spec.n, spec.seed, task, SOLVER_NEW, reps, new_ms, new_cost))
        rows.append(BenchRow(spec.family, spec.n, spec.seed, task, SOLVER_BASELINE, reps, base_ms, base_cost))
    return BenchReport(rows=tuple(rows), aggregates=_aggregate(rows))


_CSV_FIELDS = ["family", "n", "seed", "task", "solver", "reps", "median_ms", "cost", "threads"]


def report_to_csv(report: BenchReport) -> str:
    """Rows only; aggregates are derived from them."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(_CSV_FIELDS)
    for r in report.rows:
        w.writerow([r.family, r.n, r.seed, r.task, r.solver, r.reps, repr(r.median_ms), r.cost, r.threads])
    return buf.getvalue()


def _speedups(rows) -> dict[tuple, float]:
    """Baseline time over new time per (family, n, seed, task) instance that
    has both rows and a positive new time."""
    by_instance: dict[tuple, dict[str, float]] = {}
    for r in rows:
        by_instance.setdefault((r.family, r.n, r.seed, r.task), {})[r.solver] = r.median_ms
    return {
        key: pair[SOLVER_BASELINE] / pair[SOLVER_NEW]
        for key, pair in by_instance.items()
        if SOLVER_NEW in pair and SOLVER_BASELINE in pair and pair[SOLVER_NEW] > 0
    }


def _aggregate(rows) -> tuple[FamilyAggregate, ...]:
    speedups: dict[str, list[float]] = {}
    for (family, _, _, _), speedup in _speedups(rows).items():
        speedups.setdefault(family, []).append(speedup)
    out = []
    for family in sorted(speedups):
        fam_rows = [r for r in rows if r.family == family]
        out.append(
            FamilyAggregate(
                family=family,
                cases=len(speedups[family]),
                max_n=max(r.n for r in fam_rows),
                median_speedup=statistics.median(speedups[family]),
                max_speedup=max(speedups[family]),
            )
        )
    return tuple(out)


def format_table(report: BenchReport) -> str:
    """Human-readable per-family summary."""
    lines = [f"{'family':<14}{'cases':>6}{'max n':>7}{'median speedup':>16}{'max speedup':>13}"]
    for a in report.aggregates:
        lines.append(
            f"{a.family:<14}{a.cases:>6}{a.max_n:>7}{a.median_speedup:>15.2f}x{a.max_speedup:>12.2f}x"
        )
    return "\n".join(lines) + "\n"


def speedup_csv(report: BenchReport) -> str:
    """Per-instance speedup data for external plotting."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["family", "n", "seed", "task", "speedup"])
    for (family, n, seed, task), speedup in sorted(_speedups(report.rows).items()):
        w.writerow([family, n, seed, task, repr(speedup)])
    return buf.getvalue()
