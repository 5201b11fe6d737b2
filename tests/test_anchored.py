from broadcast_domination.anchored import solve_path_anchored
from broadcast_domination.generators import cycle_graph, path_graph
from broadcast_domination.graph import Graph, apsp
from broadcast_domination.oracle import oracle_gamma_path
from broadcast_domination.pathdag import solve_path
from broadcast_domination.verify import verify_dominating, verify_efficient, verify_path_shaped

from conftest import connected_graphs, random_connected_graph


def test_k1_convention():
    bc = solve_path_anchored(Graph.from_edges(1, []))
    assert bc.cost == 0 and bc.assignment == ()


def test_p6_matches_fast_solver():
    assert solve_path_anchored(path_graph(6)).cost == solve_path(path_graph(6)).cost == 2


def test_c5_oracle():
    assert solve_path_anchored(cycle_graph(5)).cost == oracle_gamma_path(cycle_graph(5)).cost == 2


def test_equality_exhaustive_small():
    for n in range(1, 6):
        for g in connected_graphs(n):
            assert solve_path_anchored(g).cost == solve_path(g).cost


def test_equality_random_and_verdicts():
    for i in range(60):
        g = random_connected_graph(6 + i % 7, 5000 + i)
        dm = apsp(g)
        bc = solve_path_anchored(g)
        assert bc.cost == solve_path(g).cost
        assert verify_dominating(g, dm, bc).ok
        assert verify_efficient(g, dm, bc).ok
        assert verify_path_shaped(g, dm, bc).ok
