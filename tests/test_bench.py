import pytest

from broadcast_domination import bench
from broadcast_domination.bench import (
    SOLVER_BASELINE,
    SOLVER_NEW,
    BenchCostMismatch,
    format_table,
    report_to_csv,
    run_bench,
    speedup_csv,
)
from broadcast_domination.generators import GeneratorSpec, generate
from broadcast_domination.peel import solve_optimal
from broadcast_domination.verify import Broadcast


@pytest.fixture(scope="module")
def tiny_results():
    specs = [GeneratorSpec("path", 8), GeneratorSpec("path", 10), GeneratorSpec("star", 12)]
    return specs, run_bench(specs, task="optimal", reps=2)


def _table_rows(table):
    """family -> (cases, max n, median speedup, max speedup) from format_table."""
    rows = {}
    for line in table.splitlines()[1:]:
        family, cases, max_n, median, best = line.split()
        rows[family] = (int(cases), int(max_n), float(median.rstrip("x")), float(best.rstrip("x")))
    return rows


def test_rows_pair_up_with_equal_costs(tiny_results):
    specs, results = tiny_results
    assert [(r.family, r.n, r.seed, r.task, r.reps) for r in results] == [
        (s.family, s.n, s.seed, "optimal", 2) for s in specs
    ]
    for spec, r in zip(specs, results):
        assert r.cost == solve_optimal(generate(spec)).cost
        assert r.new_ms > 0 and r.base_ms > 0
    rows = report_to_csv(results).splitlines()
    assert len(rows) == 1 + 2 * len(results)
    for new, base in zip(rows[1::2], rows[2::2]):
        new, base = new.split(","), base.split(",")
        assert new[4] == SOLVER_NEW and base[4] == SOLVER_BASELINE
        assert new[:4] == base[:4] and new[7:] == base[7:]  # same instance and cost


def test_cost_mismatch_aborts(monkeypatch):
    monkeypatch.setattr(bench, "solve_path_anchored", lambda g: Broadcast.from_pairs([(0, g.n)]))
    with pytest.raises(BenchCostMismatch, match="cycle n=9"):
        run_bench([GeneratorSpec("cycle", 9)], task="path", reps=1)


def test_aggregates(tiny_results):
    _, results = tiny_results
    fams = _table_rows(format_table(results))
    assert fams["path"][:2] == (2, 10)
    assert fams["star"][0] == 1
    assert fams["path"][3] >= fams["path"][2] > 0


def test_table_and_plot_output(tiny_results):
    _, results = tiny_results
    table = format_table(results)
    assert "path" in table and "median speedup" in table
    plot = speedup_csv(results)
    assert plot.splitlines()[0] == "family,n,seed,task,speedup"
    assert len(plot.splitlines()) == 4  # header + three instances


def test_repeated_instances_each_count():
    results = run_bench([GeneratorSpec("path", 8), GeneratorSpec("path", 8)], reps=1)
    assert len(results) == 2
    assert _table_rows(format_table(results))["path"][:2] == (2, 8)
    assert len(speedup_csv(results).splitlines()) == 3
    assert len(report_to_csv(results).splitlines()) == 5


def test_path_task():
    from broadcast_domination.generators import cycle_graph
    from broadcast_domination.oracle import oracle_gamma_path

    [result] = run_bench([GeneratorSpec("cycle", 9)], task="path", reps=1)
    # three power-1 balls wrap C9 into a triangle contact graph, so the
    # path-shaped optimum is one more than the general optimum
    assert result.cost == oracle_gamma_path(cycle_graph(9)).cost == 4


def test_reps_below_one_rejected():
    with pytest.raises(ValueError, match="reps"):
        run_bench([GeneratorSpec("path", 8)], reps=0)
