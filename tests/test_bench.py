import pytest

from broadcast_domination.bench import (
    SOLVER_BASELINE,
    SOLVER_NEW,
    format_table,
    run_bench,
    speedup_csv,
)
from broadcast_domination.generators import GeneratorSpec


@pytest.fixture(scope="module")
def tiny_report():
    specs = [GeneratorSpec("path", 8), GeneratorSpec("path", 10), GeneratorSpec("star", 12)]
    return run_bench(specs, task="optimal", reps=2)


def test_rows_pair_up_with_equal_costs(tiny_report):
    by_instance = {}
    for r in tiny_report.rows:
        by_instance.setdefault((r.family, r.n), {})[r.solver] = r
    for pair in by_instance.values():
        assert pair[SOLVER_NEW].cost == pair[SOLVER_BASELINE].cost
        assert pair[SOLVER_NEW].median_ms > 0


def test_aggregates(tiny_report):
    fams = {a.family: a for a in tiny_report.aggregates}
    assert fams["path"].cases == 2 and fams["path"].max_n == 10
    assert fams["star"].cases == 1
    assert fams["path"].max_speedup >= fams["path"].median_speedup > 0


def test_table_and_plot_output(tiny_report):
    table = format_table(tiny_report)
    assert "path" in table and "median speedup" in table
    plot = speedup_csv(tiny_report)
    assert plot.splitlines()[0] == "family,n,seed,task,speedup"
    assert len(plot.splitlines()) == 4  # header + three instances


def test_path_task():
    from broadcast_domination.generators import cycle_graph
    from broadcast_domination.oracle import oracle_gamma_path

    report = run_bench([GeneratorSpec("cycle", 9)], task="path", reps=1)
    costs = {r.solver: r.cost for r in report.rows}
    # three power-1 balls wrap C9 into a triangle contact graph, so the
    # path-shaped optimum is one more than the general optimum
    assert costs[SOLVER_NEW] == costs[SOLVER_BASELINE] == oracle_gamma_path(cycle_graph(9)).cost == 4


def test_reps_below_one_rejected():
    with pytest.raises(ValueError, match="reps"):
        run_bench([GeneratorSpec("path", 8)], reps=0)
