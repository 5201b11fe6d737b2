import multiprocessing.process
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from broadcast_domination import peel
from broadcast_domination.generators import (
    barbell_graph,
    cycle_graph,
    path_graph,
    random_tree,
    sparse_random,
    star_graph,
)
from broadcast_domination.graph import Graph, apsp
from broadcast_domination.oracle import oracle_gamma_b
from broadcast_domination.pathdag import solve_path
from broadcast_domination.peel import (
    RESIDUAL_CONNECTED,
    RESIDUAL_EMPTY,
    RESIDUAL_SINGLETON,
    RESIDUAL_SKIPPED,
    _outside_diameters,
    iter_candidates,
    multipacking,
    radial_broadcast,
    solve_optimal,
)
from broadcast_domination.verify import Broadcast, verify_dominating, verify_efficient, verify_path_shaped

from conftest import graphs, is_multipacking, random_connected_graph


def grid(rows, cols):
    edges = [(r * cols + c, r * cols + c + 1) for r in range(rows) for c in range(cols - 1)]
    edges += [(r * cols + c, (r + 1) * cols + c) for r in range(rows - 1) for c in range(cols)]
    return Graph.from_edges(rows * cols, edges)


def counting_solver(calls):
    def solver(h):
        calls.append(h.n)
        return solve_path(h)

    return solver


class TestVerifyPredicates:
    def test_dominating_p4(self):
        g = path_graph(4)
        dm = apsp(g)
        assert verify_dominating(g, dm, Broadcast(((1, 2),))).ok
        res = verify_dominating(g, dm, Broadcast(((1, 1),)))
        assert not res.ok and res.witness == 3

    def test_dominating_k1_zero_broadcast(self):
        g = Graph.from_edges(1, [])
        assert verify_dominating(g, apsp(g), Broadcast(())).ok

    def test_efficient_p6(self):
        g = path_graph(6)
        dm = apsp(g)
        assert verify_efficient(g, dm, Broadcast(((1, 1), (4, 1)))).ok
        res = verify_efficient(g, dm, Broadcast(((1, 1), (3, 1))))
        assert not res.ok and res.witness == (1, 3)

    def test_efficient_single_active(self):
        g = path_graph(6)
        assert verify_efficient(g, apsp(g), Broadcast(((2, 1),))).ok

    def test_path_shaped_p6(self):
        g = path_graph(6)
        assert verify_path_shaped(g, apsp(g), Broadcast(((1, 1), (4, 1)))).ok

    def test_path_shaped_c6_double_contact(self):
        g = cycle_graph(6)
        dm = apsp(g)
        bc = Broadcast(((0, 1), (3, 1)))
        # contacts on both sides of the cycle collapse to one edge
        assert verify_efficient(g, dm, bc).ok
        assert verify_path_shaped(g, dm, bc).ok

    def test_path_shaped_radial(self):
        g = cycle_graph(6)
        assert verify_path_shaped(g, apsp(g), Broadcast(((0, 3),))).ok

    def test_path_shaped_requires_efficient(self):
        g = path_graph(6)
        with pytest.raises(ValueError):
            verify_path_shaped(g, apsp(g), Broadcast(((1, 2), (2, 2))))

    def test_path_shaped_degree_three(self):
        g = star_graph(4)  # center 0, leaves 1..3
        dm = apsp(g)
        bc = Broadcast(((0, 1),))
        assert verify_path_shaped(g, dm, bc).ok
        # forcing four active balls on a spider gives a degree-3 hub ball
        g2 = Graph.from_edges(
            13,
            [(0, 1), (1, 2), (2, 3), (0, 4), (4, 5), (5, 6), (0, 7), (7, 8), (8, 9), (0, 10), (10, 11), (11, 12)],
        )
        dm2 = apsp(g2)
        bc2 = Broadcast(((0, 1), (3, 1), (6, 1), (9, 1), (12, 1)))
        # hmm: legs have length 3, so leaf balls at distance 3 from center touch nothing
        res = verify_efficient(g2, dm2, bc2)
        assert res.ok
        shape = verify_path_shaped(g2, dm2, bc2)
        assert not shape.ok and shape.witness == 0


class TestSolveOptimal:
    def test_star_radial(self):
        bc = solve_optimal(star_graph(6))
        assert bc.cost == 1 and bc.assignment == ((0, 1),)

    def test_p4(self):
        assert solve_optimal(path_graph(4)).cost == 2

    def test_c5(self):
        assert solve_optimal(cycle_graph(5)).cost == 2

    def test_k1(self):
        assert solve_optimal(Graph.from_edges(1, [])).cost == 0

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError):
            solve_optimal(Graph.from_edges(4, [(0, 1), (2, 3)]))

    def test_optimality_random(self):
        for i in range(120):
            g = random_connected_graph(7 + i % 6, 4000 + i)
            assert solve_optimal(g).cost == oracle_gamma_b(g).cost

    def test_result_dominates_and_bounded_by_radius(self, small_random_graphs):
        for g in small_random_graphs:
            dm = apsp(g)
            bc = solve_optimal(g)
            assert verify_dominating(g, dm, bc).ok
            assert bc.cost <= dm.radius

    def test_threads_bit_identical(self, monkeypatch):
        # threads is accepted but starts no worker process
        def refuse_start(self):
            raise RuntimeError("solve_optimal started a process")

        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", refuse_start)
        for seed in (11, 12, 13):
            g = random_connected_graph(14, seed)
            want = solve_optimal(g, threads=1)
            assert solve_optimal(g, threads=2) == want
            assert solve_optimal(g, threads=4) == want

    def test_tie_break_pinned(self):
        # C13 has many optima of cost 5; the earliest (x, k) candidate wins,
        # with threads accepted and ignored
        want = ((0, 1), (2, 1), (5, 1), (8, 1), (11, 1))
        g = cycle_graph(13)
        assert solve_optimal(g, threads=1).assignment == want
        assert solve_optimal(g, threads=2).assignment == want

    @given(graphs(max_n=14), st.data())
    @settings(max_examples=60, deadline=None)
    def test_relabelling_keeps_cost_and_answers_dominate(self, g, data):
        perm = data.draw(st.permutations(range(g.n)))
        h = Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
        bg, bh = solve_optimal(g), solve_optimal(h)
        assert bg.cost == bh.cost
        assert verify_dominating(g, apsp(g), bg).ok
        assert verify_dominating(h, apsp(h), bh).ok

    def test_invariant_check_survives_optimize_flag(self):
        # a path solver that returns nothing leaves every connected residual
        # undominated; the candidate check must fire even under python -O
        code = (
            "from broadcast_domination import InternalError, solve_optimal\n"
            "from broadcast_domination.generators import path_graph\n"
            "from broadcast_domination.verify import Broadcast\n"
            "assert False, 'asserts are live'\n"
            "try:\n"
            "    solve_optimal(path_graph(12), path_solver=lambda h: Broadcast(()))\n"
            "except InternalError:\n"
            "    print('InternalError')\n"
        )
        res = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True, env=os.environ)
        assert res.returncode == 0, res.stderr
        assert res.stdout == "InternalError\n"


class TestCandidates:
    def test_kinds_on_small_paths(self):
        kinds4 = {(c.peel_center, c.peel_power): c.residual_kind for c in iter_candidates(path_graph(4))}
        assert kinds4[(1, 2)] == RESIDUAL_EMPTY
        assert kinds4[(0, 2)] == RESIDUAL_SINGLETON
        assert kinds4[(0, 1)] == RESIDUAL_CONNECTED
        assert kinds4[(1, 1)] == RESIDUAL_SINGLETON
        kinds5 = {(c.peel_center, c.peel_power): c.residual_kind for c in iter_candidates(path_graph(5))}
        assert kinds5[(2, 1)] == RESIDUAL_SKIPPED  # ball {1,2,3} leaves {0} and {4}

    def test_every_candidate_dominates(self, small_random_graphs):
        for g in small_random_graphs[:25]:
            dm = apsp(g)
            for cand in iter_candidates(g, dm):
                if cand.residual_kind == RESIDUAL_SKIPPED:
                    assert cand.broadcast is None and cand.total_cost is None
                else:
                    assert cand.total_cost == cand.broadcast.cost
                    assert verify_dominating(g, dm, cand.broadcast).ok

    def test_radial_broadcast(self):
        dm = apsp(path_graph(4))
        bc = radial_broadcast(dm)
        assert bc.assignment == ((1, 2),)


class TestMultipacking:
    def test_paths_reach_gamma(self):
        for n in range(1, 31):
            dm = apsp(path_graph(n))
            members = multipacking(dm)
            assert is_multipacking(dm, members)
            assert len(members) == (-(-n // 3) if n > 1 else 0)

    def test_ball_count_checker_rejects_a_full_radius_two_ball(self):
        # spider with three legs of length 2: the leaves are pairwise at
        # distance 4, so no radius-1 ball holds two of them, but the
        # radius-2 ball about the hub holds all three
        g = Graph.from_edges(7, [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)])
        dm = apsp(g)
        assert not is_multipacking(dm, [2, 4, 6])
        members = multipacking(dm)
        assert is_multipacking(dm, members) and len(members) == 2 == oracle_gamma_b(g).cost

    def test_radius_reached_on_radial_optima(self):
        # optimum = rad(G), met by the greedy packing, so the scan stops at
        # once; grid 5x20 made 177 path solves with the diameter bound alone
        for g in (grid(5, 20), grid(8, 8), random_tree(100, 3), sparse_random(100, 3), sparse_random(50, 4)):
            dm = apsp(g)
            members = multipacking(dm)
            assert len(members) == dm.radius and is_multipacking(dm, members)

    def test_outside_diameters_match_gather(self, small_random_graphs):
        for g in small_random_graphs[:30] + [cycle_graph(17), barbell_graph(16)]:
            dm = apsp(g)
            far = _outside_diameters(dm, 0, g.n)
            for x in range(g.n):
                for k in range(g.n):
                    outside = np.flatnonzero(dm.dist[x] > k)
                    want = int(dm.dist[np.ix_(outside, outside)].max()) if outside.size else -1
                    assert far[x, k] == want, (x, k)
            half = _outside_diameters(dm, g.n // 2, g.n)
            assert (half == far[g.n // 2 :]).all()

    def test_path_solve_counts_pinned(self):
        # path solves per instance, counted through path_solver; with the
        # diameter bound alone they were 2, 1, 1, 11, 177, 58, 72 and 1
        cases = (
            (path_graph(30), 10, 2),
            (cycle_graph(30), 10, 1),
            (barbell_graph(30), 5, 1),
            (random_tree(40, 1), 9, 0),
            (grid(5, 20), 12, 0),
            (random_tree(100, 3), 16, 0),
            (sparse_random(100, 3), 6, 0),
            (cycle_graph(150), 50, 1),
        )
        for g, cost, solves in cases:
            calls = []
            bc = solve_optimal(g, path_solver=counting_solver(calls))
            assert (bc.cost, len(calls)) == (cost, solves)
            assert verify_dominating(g, apsp(g), bc).ok

    def test_bound_computed_lazily_at_most_once(self, monkeypatch, small_random_graphs):
        calls = []

        def counted(dm):
            calls.append(dm.n)
            return multipacking(dm)

        monkeypatch.setattr(peel, "multipacking", counted)
        # the diameter bound prunes every candidate: no path solve is due,
        # so the packing is never built
        for g in (star_graph(6), path_graph(7), random_tree(20, 3)):
            solves = []
            solve_optimal(g, path_solver=counting_solver(solves))
            assert calls == [] and solves == []
        built = 0
        for g in small_random_graphs + [path_graph(30), cycle_graph(30), grid(5, 20)]:
            del calls[:]
            solves = []
            solve_optimal(g, path_solver=counting_solver(solves))
            assert len(calls) <= 1
            if solves:
                assert len(calls) == 1  # built before the first path solve
            built += len(calls)
        assert calls == [100]  # grid 5x20: built once, then the scan stops
        assert built > 3

    def test_numpy_ma_not_imported(self):
        # np.isin and np.setdiff1d import numpy.ma, about 1 MB of resident
        # memory; the peel loop uses boolean masks instead
        code = textwrap.dedent(
            """
            import sys
            from broadcast_domination import solve_optimal
            from broadcast_domination.generators import barbell_graph, cycle_graph, path_graph, random_tree
            for g in (path_graph(30), cycle_graph(30), barbell_graph(30), random_tree(40, 1)):
                solve_optimal(g)
            print("numpy.ma" in sys.modules)
            """
        )
        res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=os.environ)
        assert res.returncode == 0, res.stderr
        assert res.stdout == "False\n"
