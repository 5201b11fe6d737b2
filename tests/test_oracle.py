from itertools import chain

import pytest

from broadcast_domination.graph import Graph, apsp
from broadcast_domination.oracle import (
    OracleLimitError,
    iter_broadcasts_of_cost,
    oracle_gamma_b,
    oracle_gamma_path,
)
from broadcast_domination.verify import (
    domination_edges,
    verify_dominating,
    verify_efficient,
    verify_path_shaped,
)

from conftest import connected_graphs, random_connected_graph


def path(n):
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def star(leaves):
    return Graph.from_edges(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def domination_graph_is_cycle(dm, bc):
    actives = bc.active
    if len(actives) < 3:
        return False
    edges = domination_edges(dm, bc)
    if len(edges) != len(actives):
        return False
    deg = {v: 0 for v in actives}
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    if any(d != 2 for d in deg.values()):
        return False
    seen = {actives[0]}
    stack = [actives[0]]
    nbr = {v: [] for v in actives}
    for u, v in edges:
        nbr[u].append(v)
        nbr[v].append(u)
    while stack:
        u = stack.pop()
        for w in nbr[u]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(actives)


class TestGoldenValues:
    def test_k1(self):
        assert oracle_gamma_b(Graph.from_edges(1, [])).cost == 0
        assert oracle_gamma_path(Graph.from_edges(1, [])).cost == 0

    def test_star(self):
        assert oracle_gamma_b(star(5)).cost == 1

    def test_p7_golden(self):
        # frozen after the first run of this oracle
        assert oracle_gamma_b(path(7)).cost == 3

    def test_p6_c5_path_variant(self):
        assert oracle_gamma_path(path(6)).cost == 2
        cyc5 = Graph.from_edges(5, [(i, (i + 1) % 5) for i in range(5)])
        assert oracle_gamma_path(cyc5).cost == 2


class TestOracleBehavior:
    def test_limit(self):
        with pytest.raises(OracleLimitError):
            oracle_gamma_b(path(13))
        assert oracle_gamma_b(path(13), limit=13).cost == 5

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
        cyc7 = Graph.from_edges(7, [(i, (i + 1) % 7) for i in range(7)])
        graphs = [path(8), star(5), cyc7] + [random_connected_graph(n, 40 + n) for n in (6, 7, 8)]
        for g in graphs:
            dm = apsp(g)
            res = oracle_gamma_b(g)
            order = chain.from_iterable(iter_broadcasts_of_cost(g, dm, c) for c in range(1, res.cost + 1))
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


class TestStructure:
    def test_path_or_cycle_witness_exists_small(self):
        # every exhaustively solved graph has an optimal efficient broadcast
        # whose domination graph is a path or a cycle
        for n in range(2, 6):
            for g in connected_graphs(n):
                dm = apsp(g)
                best = oracle_gamma_b(g).cost
                found_efficient = False
                found_shape = False
                for bc in iter_broadcasts_of_cost(g, dm, best):
                    if not verify_dominating(g, dm, bc).ok:
                        continue
                    if not verify_efficient(g, dm, bc).ok:
                        continue
                    found_efficient = True
                    if verify_path_shaped(g, dm, bc).ok or domination_graph_is_cycle(dm, bc):
                        found_shape = True
                        break
                assert found_efficient  # an efficient optimum always exists
                assert found_shape

    def test_no_singleton_peel_for_efficient_optima(self):
        # removing an active ball of an efficient broadcast never leaves a
        # single vertex
        for n in range(2, 6):
            for g in connected_graphs(n):
                dm = apsp(g)
                best = oracle_gamma_b(g).cost
                for bc in iter_broadcasts_of_cost(g, dm, best):
                    if not verify_dominating(g, dm, bc).ok or not verify_efficient(g, dm, bc).ok:
                        continue
                    for x, k in bc.assignment:
                        outside = int((dm.dist[x] > k).sum())
                        assert outside != 1
