from itertools import chain

import pytest

from broadcast_domination.generators import cycle_graph, path_graph, star_graph
from broadcast_domination.graph import Graph, apsp
from broadcast_domination.oracle import (
    OracleLimitError,
    iter_broadcasts_of_cost,
    oracle_gamma_b,
    oracle_gamma_path,
)
from broadcast_domination.verify import verify_dominating, verify_efficient, verify_path_shaped

from conftest import random_connected_graph


class TestGoldenValues:
    def test_k1(self):
        assert oracle_gamma_b(Graph.from_edges(1, [])).cost == 0
        assert oracle_gamma_path(Graph.from_edges(1, [])).cost == 0

    def test_star(self):
        assert oracle_gamma_b(star_graph(6)).cost == 1

    def test_p7_golden(self):
        # frozen after the first run of this oracle
        assert oracle_gamma_b(path_graph(7)).cost == 3

    def test_p6_c5_path_variant(self):
        assert oracle_gamma_path(path_graph(6)).cost == 2
        assert oracle_gamma_path(cycle_graph(5)).cost == 2


class TestOracleBehavior:
    def test_limit(self):
        with pytest.raises(OracleLimitError):
            oracle_gamma_b(path_graph(13))
        assert oracle_gamma_b(path_graph(13), limit=13).cost == 5

    def test_witness_and_explored(self, small_random_graphs):
        for g in small_random_graphs[:15]:
            dm = apsp(g)
            res = oracle_gamma_b(g)
            assert verify_dominating(g, dm, res.witness).ok
            assert res.witness.cost == res.cost
            assert res.explored >= 1
            resp = oracle_gamma_path(g)
            assert verify_dominating(g, dm, resp.witness).ok
            assert verify_efficient(g, dm, resp.witness).ok
            assert verify_path_shaped(g, dm, resp.witness).ok

    def test_explored_counts_the_enumerator(self):
        # the oracle and iter_broadcasts_of_cost walk one search order: the
        # witness is the first dominating assignment of costs 1..optimum, and
        # explored counts every assignment up to and including it
        graphs = [path_graph(8), star_graph(6), cycle_graph(7)] + [random_connected_graph(n, 40 + n) for n in (6, 7, 8)]
        for g in graphs:
            dm = apsp(g)
            res = oracle_gamma_b(g)
            order = chain.from_iterable(iter_broadcasts_of_cost(dm, c) for c in range(1, res.cost + 1))
            for seen, bc in enumerate(order, 1):
                if verify_dominating(g, dm, bc).ok:
                    break
            assert (bc, seen) == (res.witness, res.explored)

    def test_determinism(self):
        g = random_connected_graph(9, 123)
        a = oracle_gamma_b(g)
        b = oracle_gamma_b(g)
        assert a == b

    def test_path_variant_at_least_general(self, small_random_graphs):
        for g in small_random_graphs[:20]:
            assert oracle_gamma_path(g).cost >= oracle_gamma_b(g).cost

    def test_radius_upper_bound(self, small_random_graphs):
        for g in small_random_graphs[:20]:
            assert oracle_gamma_b(g).cost <= apsp(g).radius

