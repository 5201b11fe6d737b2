import dataclasses
import hashlib
import os
import subprocess
import sys
import tracemalloc
from itertools import chain, combinations

import numpy as np
import pytest

from broadcast_domination import cli, pathdag
from broadcast_domination.anchored import solve_path_anchored
from broadcast_domination.generators import (
    barbell_graph,
    cycle_graph,
    path_graph,
    random_tree,
    sparse_random,
    star_graph,
    wheel_graph,
)
from broadcast_domination.graph import Graph, GraphTooLargeError, InternalError, apsp, bits_of, is_connected
from broadcast_domination.metric import residual_decompositions
from broadcast_domination.oracle import oracle_gamma_path
from broadcast_domination.pathdag import (
    _decode,
    _solve_states,
    _state_id,
    arc_test,
    build_dag,
    dag_to_dot,
    enumerate_states,
    solve_path,
)
from broadcast_domination.verify import Broadcast, ball_mask, verify_dominating, verify_efficient, verify_path_shaped

from conftest import (
    connected_graphs,
    dense_labels,
    iter_bits,
    members,
    random_connected_graph,
    random_suite,
    scalar_arcs,
    tables,
)


def balls_containing(dm, rho, u):
    """Anchored starts: start[v, p] iff the ball (v, p) contains u."""
    return dm.dist[:, u][:, None] <= np.arange(rho + 1)[None, :]


def allowed_sources(dag, start):
    """Source states whose ball is marked in start (all sources without one)."""
    sources = dag.is_source.copy()
    if start is not None:
        for sid in np.flatnonzero(sources).tolist():
            v, p, _ = _decode(sid, dag.rho)
            sources[sid] = start[v, p]
    return sources


def tight_predecessors(dag, sources):
    """DP values and predecessors by the two-pass rule: relax every arc in
    order of its source's left size, then give each state the smallest
    source of an arc with d[src] + power[dst] == d[dst]."""
    power = lambda sid: _decode(sid, dag.rho)[1]
    d = {sid: power(sid) for sid in np.flatnonzero(sources).tolist()}
    arcs = sorted(zip(dag.arc_src.tolist(), dag.arc_dst.tolist()), key=lambda a: dag.left_size[a[0]])
    for a, b in arcs:
        if a in d:
            reach = d[a] + power(b)
            d[b] = min(d.get(b, reach), reach)
    pred = {}
    for a, b in arcs:
        if a in d and d[a] + power(b) == d[b]:
            pred[b] = min(pred.get(b, a), a)
    return d, pred


def find_state(states, center, power, left, right):
    for s in states:
        if (s.center, s.power, s.left, s.right) == (center, power, left, right):
            return s
    return None


class TestEnumerateStates:
    def test_p4_radial(self):
        _, rt, _ = tables(path_graph(4))
        states = enumerate_states(rt)
        s = find_state(states, 1, 2, 0, 0)
        assert s is not None and s.left_size == 0 and s.power == 2

    def test_p4_endpoint_pair(self):
        _, rt, _ = tables(path_graph(4))
        states = enumerate_states(rt)
        assert find_state(states, 1, 1, 0, 1) is not None
        assert find_state(states, 1, 1, 1, 0) is not None
        assert sum(1 for s in states if (s.center, s.power) == (1, 1)) == 2

    def test_p5_internal_pair(self):
        _, rt, _ = tables(path_graph(5))
        states = enumerate_states(rt)
        a = find_state(states, 2, 1, 1, 2)
        b = find_state(states, 2, 1, 2, 1)
        assert a is not None and b is not None
        assert a.left_size == 1 and b.left_size == 1

    def test_star_leaf_ball_produces_none(self):
        _, rt, _ = tables(star_graph(6))
        states = enumerate_states(rt)
        assert not any(s.center == 1 for s in states)

    def test_count_rule(self, small_random_graphs):
        for g in small_random_graphs:
            dm, rt, _ = tables(g)
            states = enumerate_states(rt)
            expect = 0
            for v in range(g.n):
                for p in range(1, dm.radius + 1):
                    k = rt.kappa[v, p]
                    expect += 1 if k == 0 else (2 if k <= 2 else 0)
            assert len(states) == expect
            assert len(states) <= 2 * g.n * dm.radius + g.n


class TestStateLayout:
    def test_state_ids_are_comp_size_slots(self, small_random_graphs):
        # one layout for the tables, the requirement rows and the DP: a
        # state's id is the flat index of its (center, power, left label)
        # slot in comp_size, the DP's left sizes are comp_size itself, and
        # every requirement row names a non-source state, in left-size order
        shapes = [path_graph(24), cycle_graph(25), barbell_graph(20), random_tree(60, 2)]
        for g in shapes + small_random_graphs:
            _, rt, rq = tables(g)
            v, p, left = np.indices(rt.comp_size.shape).reshape(3, -1)
            sid = _state_id(v, p, left, rt.rho)
            assert (sid == np.ravel_multi_index((v, p, left), rt.comp_size.shape)).all()
            assert all((a == b).all() for a, b in zip(_decode(sid, rt.rho), (v, p, left)))
            assert _decode(_state_id(1, rt.rho, 2, rt.rho), rt.rho) == (1, rt.rho, 2)
            exists, left_size, is_source, _ = pathdag._dense_tables(rt)
            assert np.shares_memory(left_size, rt.comp_size)
            states = {_state_id(s.center, s.power, s.left, rt.rho): s.left_size for s in enumerate_states(rt)}
            assert np.flatnonzero(exists).tolist() == sorted(states)
            assert all(left_size[i] == size for i, size in states.items())
            t = rq.target
            assert (_decode(t, rt.rho)[2] >= 1).all() and exists[t].all()
            assert sorted(t.tolist()) == np.flatnonzero(exists & ~is_source).tolist()
            assert (np.diff(left_size[t]) >= 0).all()


class TestArcTest:
    def test_p6_true_arc_with_set_oracle(self):
        g = path_graph(6)
        dm, rt, rq = tables(g)
        states = enumerate_states(rt)
        sigma = find_state(states, 1, 1, 0, 1)
        tau = find_state(states, 4, 1, 1, 0)
        assert arc_test(sigma, tau, dm, rt, rq)
        # explicit set-inclusion oracle for the frontier conditions
        xs = ball_mask(dm, 1, 1)
        xt = ball_mask(dm, 4, 1)
        r_side = members(rt, 1, 1, sigma.right)
        l_side = members(rt, 4, 1, tau.left)
        fr = bits_of(w for z in iter_bits(xs) for w in g.adj[z]) & r_side
        fl = bits_of(w for z in iter_bits(xt) for w in g.adj[z]) & l_side
        assert fr & ~xt == 0 and fl & ~xs == 0
        assert int(dm.dist[1, 4]) == 1 + 1 + 1

    def test_p6_source_side_target_rejected(self):
        g = path_graph(6)
        dm, rt, rq = tables(g)
        states = enumerate_states(rt)
        sigma = find_state(states, 1, 1, 0, 1)
        tau_src = find_state(states, 4, 1, 0, 1)
        assert not arc_test(sigma, tau_src, dm, rt, rq)

    def test_p6_distance_mismatch_rejected(self):
        g = path_graph(6)
        dm, rt, rq = tables(g)
        states = enumerate_states(rt)
        sigma = find_state(states, 1, 1, 0, 1)
        tau = find_state(states, 5, 1, 1, 0)
        assert not arc_test(sigma, tau, dm, rt, rq)  # dist(1,5)=4 != 3


class TestBuildDag:
    def test_p6_contains_expected_arc(self):
        g = path_graph(6)
        dm, rt, rq = tables(g)
        dag = build_dag(g, dm, rt, rq)
        wanted_src = _state_id(1, 1, 0, dag.rho)
        wanted_dst = _state_id(4, 1, 1, dag.rho)
        pairs = set(zip(dag.arc_src.tolist(), dag.arc_dst.tolist()))
        assert (wanted_src, wanted_dst) in pairs

    def test_matches_scalar_arc_test(self, small_random_graphs):
        # the vectorized builder and the two-sided scalar test are two
        # routes to the same arc set; the builder makes only tau's
        # requirement lookup (test_acceptance's exhaustive sweep compares
        # the two on every connected graph with up to 6 vertices)
        for g in small_random_graphs[:30]:
            dm, rt, rq = tables(g)
            dag = build_dag(g, dm, rt, rq)
            assert set(zip(dag.arc_src.tolist(), dag.arc_dst.tolist())) == scalar_arcs(dm, rt, rq)

    def test_arcs_cover_sigma_frontier(self):
        # the requirement lookup build_dag skips, checked on every arc of
        # graphs too large for the scalar test: w lies in a residual
        # component of B(v, p), and B(w, q) covers its frontier there
        shapes = [
            path_graph(64),
            cycle_graph(64),
            barbell_graph(60),
            random_tree(120, 3),
            wheel_graph(32),
            sparse_random(40, 1, p=0.3),
        ]
        for g in chain(random_suite(500, 7, 40, 3000), shapes):
            dm, rt, rq = tables(g)
            dag = build_dag(g, dm, rt, rq)
            v, p, _ = _decode(dag.arc_src, dag.rho)
            w, q, _ = _decode(dag.arc_dst, dag.rho)
            label = dense_labels(rt)[v, p, w]
            assert (label >= 1).all()
            ids, row = np.unique(rq.row_map[v, p, label - 1], return_inverse=True)
            assert (rq.rows(ids)[row, w] <= q).all()

    def test_arcs_grow_left_size(self, small_random_graphs):
        for g in small_random_graphs[:20]:
            dm, rt, rq = tables(g)
            dag = build_dag(g, dm, rt, rq)
            ls = dag.left_size
            assert all(ls[b] > ls[a] for a, b in zip(dag.arc_src.tolist(), dag.arc_dst.tolist()))

    def test_dot_dump_pinned(self):
        # sha256 of dag_to_dot: states, arcs and their order stay byte for
        # byte what the per-center arc builder emitted
        pinned = [
            ("path-12", path_graph(12), "a87c1e64b6f8b6190d71a0e5dafc7afd04165fbf6b317db03970f6c543d64df8"),
            ("cycle-11", cycle_graph(11), "bcfea88520c38999ff9ecda249f1812acc6ed9df78dd14f917dda3f80ea4f1b8"),
            ("barbell-12", barbell_graph(12), "1d17b9f6ce169293d478469daea47bd8370ed6fd31992bd49be558e8372bb329"),
            ("random-16-41", random_connected_graph(16, 41), "a366b24083fa6bbfc3c4b6d049c75b42202df7337568167352cc474a06342c06"),
            ("random-21-42", random_connected_graph(21, 42), "11cb4b3166545b2497625480b7a6d08e23cabce0d5bde4f9ea27b7e417af303c"),
            # larger graphs, where the target-row tests reject most candidates
            ("cycle-64", cycle_graph(64), "6f3c584b02b501eefa087c8d98ef42cc9c953ef911fcaa6f49140acd3c1411f5"),
            ("random-tree-120-3", random_tree(120, 3), "2e9d1d1e89f181787e9e11a510cffad413425d6ab92aba620a42ce2e4ef89d35"),
        ]
        for name, g, want in pinned:
            dm, rt, rq = tables(g)
            got = hashlib.sha256(dag_to_dot(build_dag(g, dm, rt, rq)).encode()).hexdigest()
            assert got == want, name

    def test_dot_dump_ignores_arc_order(self):
        # build_dag keeps the DP's pull order; dag_to_dot alone orders arcs
        for g in (path_graph(12), barbell_graph(12), random_connected_graph(16, 41)):
            dag = build_dag(g, *tables(g))
            perm = np.random.default_rng(13).permutation(dag.num_arcs)
            shuffled = dataclasses.replace(dag, arc_src=dag.arc_src[perm], arc_dst=dag.arc_dst[perm])
            assert dag_to_dot(shuffled) == dag_to_dot(dag)

    def test_dot_dump(self):
        g = path_graph(4)
        dm, rt, rq = tables(g)
        dot = dag_to_dot(build_dag(g, dm, rt, rq))
        assert dot.startswith("digraph states {")
        assert '(1,2,0,0) w=2' in dot


class TestSolvePath:
    def test_k1_convention(self):
        bc = solve_path(Graph.from_edges(1, []))
        assert bc.cost == 0 and bc.assignment == ()

    def test_p6(self):
        bc = solve_path(path_graph(6))
        assert bc.cost == 2
        assert bc.assignment == ((1, 1), (4, 1))

    def test_p7(self):
        assert solve_path(path_graph(7)).cost == 3

    def test_c5(self):
        assert solve_path(cycle_graph(5)).cost == 2

    def test_star(self):
        bc = solve_path(star_graph(6))
        assert bc.cost == 1 and bc.assignment == ((0, 1),)

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError):
            solve_path(Graph.from_edges(4, [(0, 1), (2, 3)]))

    @pytest.mark.parametrize(
        "solver, g, want",
        [
            (solve_path, path_graph(20), ((0, 1), (3, 1), (6, 1), (9, 1), (12, 1), (15, 1), (18, 1))),
            (solve_path, cycle_graph(14), ((0, 1), (7, 5))),
            (solve_path, barbell_graph(15), ((4, 1), (7, 1), (10, 1))),
            (solve_path, random_tree(40, 1), ((5, 9),)),
            (solve_path_anchored, path_graph(11), ((1, 1), (4, 1), (8, 2))),
            (solve_path_anchored, cycle_graph(14), ((2, 1), (9, 5))),
            (solve_path_anchored, barbell_graph(15), ((4, 1), (7, 1), (10, 1))),
        ],
        ids=["path20", "cycle14", "barbell15", "tree40", "anchored-path11", "anchored-cycle14", "anchored-barbell15"],
    )
    def test_tie_break_pinned(self, solver, g, want):
        # exact assignments among many tied optima: the chain read-back
        # must keep the smallest-state-id predecessor
        assert solver(g).assignment == want

    def test_predecessor_is_smallest_tight_source(self, small_random_graphs):
        larger = [path_graph(40), cycle_graph(31), barbell_graph(30)]
        cases = [(g, None) for g in small_random_graphs + larger]
        cases += [(g, u) for g in larger + small_random_graphs[:6] for u in (0, g.n // 2)]
        for g, anchor in cases:
            dm, rt, rq = tables(g)
            dag = build_dag(g, dm, rt, rq)
            start = None if anchor is None else balls_containing(dm, rt.rho, anchor)
            sources = allowed_sources(dag, start)
            d, pred = tight_predecessors(dag, sources)
            cost, chain = _solve_states(dm, rt, rq, start)
            sinks = [sid for sid in np.flatnonzero(dag.is_sink).tolist() if sid in d]
            assert cost == min(d[sid] for sid in sinks)
            assert chain[-1] == min(sid for sid in sinks if d[sid] == cost)
            assert sources[chain[0]]
            arcs = set(zip(dag.arc_src.tolist(), dag.arc_dst.tolist()))
            for a, b in zip(chain, chain[1:]):
                assert (a, b) in arcs
                assert a == pred[b]

    @pytest.mark.parametrize(
        "g", [path_graph(128), cycle_graph(128), barbell_graph(128)], ids=["path128", "cycle128", "barbell128"]
    )
    def test_memory_within_tables(self, g):
        # the DP pulls in-arcs one left-size batch at a time and folds each
        # batch's requirement rows from the frontier index, so neither an
        # arc array of cubic length nor a table of all requirement rows
        # exists while solve_path runs; the barbell's tables are small
        # (rad 24), so there the DP's batches must stay small beside them
        # too.  The reference is the vertex orders and component tables
        # plus 2 n bytes per requirement row and one zero row, the size of
        # all requirement rows folded at once
        _, rt, rq = tables(g)
        rows = np.count_nonzero(rq.row_map)
        dense_bytes = rt.kappa.nbytes + rt.comp_label.nbytes + rt.comp_size.nbytes + 2 * g.n * (rows + 1)
        del rt, rq
        tracemalloc.start()
        try:
            solve_path(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.75 * dense_bytes, f"peak {peak} B against {dense_bytes} B of dense tables"

    def test_chain_reusing_a_center_is_internal_error(self, monkeypatch):
        g = path_graph(6)
        rho = apsp(g).radius
        chain = [_state_id(1, 1, 0, rho), _state_id(1, 2, 1, rho)]
        monkeypatch.setattr(pathdag, "_solve_states", lambda *args: (3, chain))
        with pytest.raises(InternalError, match="reuses a center"):
            solve_path(g)

    def test_no_chain_is_zero_broadcast_only_on_one_vertex(self, monkeypatch, tmp_path, capsys):
        # a DP without a chain is the one-vertex convention, and a bug on
        # any larger graph
        monkeypatch.setattr(pathdag, "_solve_states", lambda *args: None)
        assert solve_path(path_graph(1)) == Broadcast(())
        with pytest.raises(InternalError, match="no source-to-sink chain"):
            solve_path(path_graph(6))
        f = tmp_path / "p6.edges"
        f.write_text("6\n" + "".join(f"{i} {i + 1}\n" for i in range(5)))
        assert cli.main(["path", "--input", str(f)]) == 3
        assert capsys.readouterr().err.startswith("internal error: no source-to-sink chain")

    def test_chain_cost_mismatch_is_internal_error(self, monkeypatch):
        solve_states = pathdag._solve_states

        def off_by_one(*args):
            cost, chain = solve_states(*args)
            return cost + 1, chain

        monkeypatch.setattr(pathdag, "_solve_states", off_by_one)
        with pytest.raises(InternalError, match="differs from the DP value"):
            solve_path(path_graph(6))

    def test_table_estimate_counts_tables_and_working_allowance(self):
        # the worst case, known before any table is built: n^2 (rad+1)
        # bytes, which hold the vertex orders' 2 n^2 from rad 1 on, and an
        # allowance of 2 n^2 (rad+1) for the memory beside them (row maps,
        # the frontier index of at most n^2 int16 entries, DP batches); the
        # built tables stay within their parts; path-3000 would need
        # 37.7 GiB
        for g in (path_graph(12), cycle_graph(30), barbell_graph(24), star_graph(9), random_tree(40, 2)):
            dm, rt, rq = tables(g)
            cells = g.n * g.n * (dm.radius + 1)
            assert pathdag._table_bytes(g.n, dm.radius) == 3 * cells
            assert rt.comp_label.nbytes <= cells
            assert rq.req.size <= g.n * g.n
            index = rq.req.nbytes + rq.start.nbytes + rq.target.nbytes
            assert index + rq.row_map.nbytes <= 2 * cells
        assert pathdag._table_bytes(3000, 1500) == 40_527_000_000

    def test_tables_beyond_physical_memory_exit_2(self, monkeypatch, tmp_path, capsys):
        # the check compares numbers, so a lowered memory figure tests it
        # without an allocation
        monkeypatch.setattr(pathdag, "_PHYSICAL_MEMORY", pathdag._table_bytes(12, 6))
        built = []

        def counting(g, dm):
            built.append(g.n)
            return residual_decompositions(g, dm)

        monkeypatch.setattr(pathdag, "residual_decompositions", counting)
        assert solve_path(path_graph(12)).cost == 4  # exactly at the limit
        with pytest.raises(GraphTooLargeError, match="physical memory"):
            solve_path(path_graph(13))
        assert built == [12]  # path-13 was refused before its tables
        edges = tmp_path / "p13.edges"
        edges.write_text("13\n" + "".join(f"{i} {i + 1}\n" for i in range(12)))
        assert cli.main(["path", "--input", str(edges)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: solve_path: the tables of 13 vertices") and err.count("\n") == 1, err

    def test_left_size_check_survives_optimize_flag(self):
        # with every non-source state given one left size, arcs between
        # them no longer grow the left side and a batch would read a source
        # it has not finished; the DP must refuse, also under python -O
        code = (
            "from broadcast_domination import InternalError, pathdag\n"
            "from broadcast_domination.generators import path_graph\n"
            "assert False, 'asserts are live'\n"
            "dense = pathdag._dense_tables\n"
            "def flattened(rt):\n"
            "    exists, left_size, is_source, is_sink = dense(rt)\n"
            "    left_size[~is_source] = 1\n"
            "    return exists, left_size, is_source, is_sink\n"
            "pathdag._dense_tables = flattened\n"
            "try:\n"
            "    pathdag.solve_path(path_graph(12))\n"
            "except InternalError:\n"
            "    print('InternalError')\n"
        )
        res = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True, env=os.environ)
        assert res.returncode == 0, res.stderr
        assert res.stdout == "InternalError\n"

    def test_soundness_and_radius_bound(self, small_random_graphs):
        for g in small_random_graphs:
            dm = apsp(g)
            bc = solve_path(g)
            assert verify_dominating(g, dm, bc).ok
            assert verify_efficient(g, dm, bc).ok
            assert verify_path_shaped(g, dm, bc).ok
            assert bc.cost <= dm.radius

    def test_completeness_n7_sample(self):
        slots = list(combinations(range(7), 2))
        checked = 0
        bits = 1
        while checked < 120:
            # cheap deterministic pseudo-random subset stream
            bits = bits * 6364136223846793005 + 1442695040888963407 & (1 << 64) - 1
            mask = bits >> 22 & (1 << len(slots)) - 1
            edges = [slots[i] for i in range(len(slots)) if mask >> i & 1]
            g = Graph.from_edges(7, edges)
            if not is_connected(g):
                continue
            checked += 1
            assert solve_path(g).cost == oracle_gamma_path(g).cost

    def test_completeness_random_8_12(self):
        for i in range(120):
            g = random_connected_graph(8 + i % 5, 3000 + i)
            assert solve_path(g).cost == oracle_gamma_path(g).cost

    @pytest.mark.skipif(
        not os.environ.get("BDOM_EXHAUSTIVE_N7"),
        reason="full n=7 exhaustive sweep (~1.9M graphs) takes tens of minutes; set BDOM_EXHAUSTIVE_N7=1",
    )
    def test_completeness_exhaustive_n7_full(self):
        for g in connected_graphs(7):
            assert solve_path(g).cost == oracle_gamma_path(g).cost
