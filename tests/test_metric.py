import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from broadcast_domination.generators import barbell_graph, cycle_graph, path_graph, random_tree, star_graph, wheel_graph
from broadcast_domination import metric
from broadcast_domination.graph import Graph, apsp, bits_of
from broadcast_domination.metric import _run_starts, residual_decompositions
from broadcast_domination.pathdag import build_dag, solve_path
from broadcast_domination.verify import ball_mask

from conftest import (
    ball_law_violations,
    dense_labels,
    dense_req,
    graphs,
    iter_bits,
    members,
    random_connected_graph,
    tables,
)


def bfs_component_labels(g, inside):
    """Independent component labeling of the ball complement: scan vertices
    ascending, BFS each unseen one.  First-touch order by construction."""
    labels = [0] * g.n
    nxt = 0
    for s in range(g.n):
        if inside >> s & 1 or labels[s]:
            continue
        nxt += 1
        stack = [s]
        labels[s] = nxt
        while stack:
            u = stack.pop()
            for w in g.adj[u]:
                if not inside >> w & 1 and not labels[w]:
                    labels[w] = nxt
                    stack.append(w)
    return labels, nxt


def permuted(g, seed):
    """g with its vertex labels permuted by a seeded shuffle."""
    perm = np.random.default_rng(seed).permutation(g.n).tolist()
    return Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


@pytest.fixture(scope="module")
def label_graphs(small_random_graphs):
    """The small random suite plus inputs with large radii and with balls
    that swallow vertex 0, which first touch must skip.  On the permuted
    copies a class's smallest vertex is not where the sweep first reaches
    it, so merges keep moving it, and either side of a split can be label 1."""
    larger = [path_graph(40), cycle_graph(31), barbell_graph(30)]
    larger += [random_connected_graph(40, seed) for seed in (11, 12, 13)]
    larger += [permuted(path_graph(40), 21), permuted(barbell_graph(30), 22), permuted(random_tree(60, 5), 23)]
    return small_random_graphs + larger


def assert_matches_fresh_bfs(g):
    """kappa, the dense label rows and comp_size of every ball equal the
    components a fresh BFS finds in its complement.  Rows at power 0 and
    the labels and sizes of balls with more than two components are zero:
    the label contract requirement_table and _in_arcs rely on."""
    dm, rt, _ = tables(g)
    labels = dense_labels(rt)
    assert not rt.kappa[:, 0].any() and not labels[:, 0].any() and not rt.comp_size[:, 0].any()
    for v in range(g.n):
        for p in range(1, dm.radius + 1):
            want, count = bfs_component_labels(g, ball_mask(dm, v, p))
            assert rt.kappa[v, p] == count, (v, p)
            if count > 2:
                want = [0] * g.n
            assert labels[v, p].tolist() == want, (v, p)
            assert rt.comp_size[v, p].tolist() == [0, want.count(1), want.count(2)], (v, p)


@given(st.lists(st.integers(0, 3), max_size=20))
@settings(max_examples=50, deadline=None)
def test_run_starts_matches_diff(values):
    # the first index of every run of equal values, as np.diff with a
    # prepended value below every entry finds them
    a = np.array(values, dtype=np.int64)
    assert _run_starts(a).tolist() == np.flatnonzero(np.diff(a, prepend=-1)).tolist()


class TestBall:
    def test_p4(self):
        dm = apsp(path_graph(4))
        assert ball_mask(dm, 1, 1) == bits_of([0, 1, 2])

    def test_power_zero(self):
        dm = apsp(cycle_graph(5))
        assert ball_mask(dm, 3, 0) == bits_of([3])

    def test_full_cover(self):
        g = cycle_graph(5)
        dm = apsp(g)
        assert ball_mask(dm, 0, 2) == g.full_mask

    def test_negative_power(self):
        with pytest.raises(ValueError):
            ball_mask(apsp(path_graph(3)), 0, -1)


class TestResidualDecompositions:
    def test_p4_inner_ball(self):
        _, rt, _ = tables(path_graph(4))
        assert rt.kappa[1, 1] == 1
        assert rt.label_row(1, 1)[3] == 1
        assert rt.comp_size[1, 1, 1] == 1
        assert members(rt, 1, 1, 1) == bits_of([3])

    def test_p5_center_ball_splits(self):
        _, rt, _ = tables(path_graph(5))
        assert rt.kappa[2, 1] == 2
        assert rt.label_row(2, 1)[0] == 1  # first touch: vertex 0
        assert rt.label_row(2, 1)[4] == 2
        assert rt.comp_size[2, 1, 1] == rt.comp_size[2, 1, 2] == 1

    def test_p5_kappa_and_sizes(self):
        _, rt, _ = tables(path_graph(5))
        # rows v = 0..4; columns p = 1, 2
        assert rt.kappa[:, 1:].tolist() == [[1, 1], [1, 1], [2, 0], [1, 1], [1, 1]]
        assert rt.comp_size[:, 1:, 1:].tolist() == [
            [[3, 0], [2, 0]],
            [[2, 0], [1, 0]],
            [[1, 1], [0, 0]],
            [[2, 0], [1, 0]],
            [[3, 0], [2, 0]],
        ]
        assert not rt.comp_size[:, :, 0].any()

    def test_star_leaf_ball_discarded(self):
        g = star_graph(6)
        _, rt, _ = tables(g)
        assert rt.kappa[1, 1] == 4  # four isolated leaves
        assert rt.kappa[1, 1] > 2  # no states are built for it
        assert rt.kappa[0, 1] == 0  # center ball is radial

    def test_star_discarded_row(self):
        _, rt, _ = tables(star_graph(6))
        # a leaf ball leaves four isolated leaves, so no states are built
        # for it: kappa is kept, sizes and labels are not
        assert rt.kappa[1, 1] == 4
        assert not rt.comp_size[1, 1].any()
        assert not rt.label_row(1, 1).any()
        # the radial centre ball leaves nothing outside it
        assert rt.kappa[0, 1] == 0
        assert not rt.comp_size[0, 1].any()

    def test_tables_pinned(self):
        # sha256 of the bytes of kappa, the dense int16 label rows, comp_size
        # and the dense int16 requirement rows, both rebuilt through the
        # accessors in the layout the digests were taken in: any rewrite of
        # the residual or requirement layer must reproduce the tables byte
        # for byte
        pinned = [
            (
                "path-96",
                path_graph(96),
                "a680b5b7e9804f7a13627179f8a53160e26aaf475128dcd5b20a463ac9215c25",
                "1bdce7aa629e0fa32141fbe322a0919ddac24a41580f0b58ca9a0a9199853637",
                "07e15e62862119a4988b0baecd08ae16962f011099b49d6d4fa3af317fc258c7",
                "56710ccabc6715e4244bb7d73a6c4df6b05a730750b2bcd5a002cdab5f3735f5",
            ),
            (
                "cycle-64",
                cycle_graph(64),
                "e3412b773231426af27801b25a9f34341ad75915169b40908f67daa62b89ab8b",
                "4c3f6efa072ae65f35047f555b907527cc2908f6a98b1d2111eaffd632ab16cf",
                "8e0b8d9f34bd1176ee2dc72130a437199b95c07467933b0085cee10bc25739bb",
                "0fc666519b8378c1aa76963dce91607d000f8016c545baa9493e56f021c0a146",
            ),
            (
                "barbell-60",
                barbell_graph(60),
                "82d632750a6e0b4941c3c350679b8f0db8f2997b1aa4131edf5d8c841c50fcee",
                "5b9a601116f36612a0599b8f5c579b0f31f63dcf90b971c6e5759469d7bf6a69",
                "4c6cce47718ea3832cd031afa5bc2381c103f3db822c2b46c9c936796cf2393e",
                "e616fce39505c17b74e81858a3cc562070473c1d2b3411706f57509513199ab5",
            ),
            (
                "random-tree-120-3",
                random_tree(120, 3),
                "68d84009b34f4c4b64e1686f3448088e73d4c9bfa60861fe99b60a412bcda729",
                "68e67cb1ec97c4cf0f83aca3ea17a78cdbd4700d938df752cff7c30192ee4d97",
                "913604982f3351fd2f8c7cbb88b989603fbdf290da4f2cdf7e1f26a7da83d9ec",
                "248a208ac22f48c30ee18ef6f9e1a1cc263cb339a0277e70a5d60403f2b99693",
            ),
            (
                # dense: frontier groups of up to 60 members, so the
                # requirement maxima fold many member ranks
                "wheel-64",
                wheel_graph(64),
                "4acf5b61a9e68867e4e45ecb385c3790e216419c3dffa24b2e4551d779e78402",
                "dc6d198bdf8190a052f39b075dd0ff60e8a5ad5d5e5bb73cc8a2330d96ef05c0",
                "bd17850762dd9cc23e06095dc949ae182f3c2f15e07ca1660c10beda492d4f91",
                "21761acc94ae23fa8437923501f8f1bb7d122a66cdd525170ffed49c68382573",
            ),
            (
                # small enough for the single maximum.reduceat
                "barbell-12",
                barbell_graph(12),
                "82e1b32d4054cf531a621f62af827e2610b8cec1d41374ce556fd58e463398eb",
                "ebf8cd228ffbb3468e751478644577e2867da7fd4c3d0f30c735ab8aa8f2d775",
                "d9bc227343583bd1347fa82b126f916ceb3325f0009a134e98f5c513b7b2a932",
                "94b83d4ec2c682966477cb741d16d53f33ada156881e3dda678a7a051614443e",
            ),
        ]
        for name, g, *want in pinned:
            _, rt, rq = tables(g)
            got = [
                hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()
                for a in (rt.kappa, dense_labels(rt), rt.comp_size, dense_req(rq))
            ]
            assert got == want, name

    def test_labels_match_fresh_bfs(self, label_graphs):
        for g in label_graphs:
            assert_matches_fresh_bfs(g)

    @given(graphs(max_n=10, min_n=8), st.permutations(range(10)))
    @settings(max_examples=300, deadline=None)
    def test_sweep_matches_fresh_bfs(self, g, perm):
        # random trees plus chords, so shells hold edges between their own
        # vertices, relabelled so that a class's smallest vertex is not
        # where the sweep first reaches it.  Eight vertices or more: on
        # smaller graphs a merge that kept the wrong low almost never
        # changes a label
        perm = [x for x in perm if x < g.n]
        assert_matches_fresh_bfs(Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()]))

    def test_sweep_merges_into_largest_class(self):
        # ball (2, 1): center 2, inside {2, 3}.  Its shell {4, 1} activates
        # x = 4 after the classes A = {0}, B = 5-6-7 and C = 8-...-14 of the
        # farther shells.  x meets A first (adj[4] is ascending) and joins
        # it; A + x (2 members) then moves into B (3), and that class (6)
        # into C (7), so the kept root is C's while the class's smallest
        # vertex, 0, came from A.  Vertex 1 opens the other class; since
        # 0 < 1 the merged class is label 1, and 1 alone is label 2.
        edges = [(2, 3), (3, 4), (3, 1), (4, 0), (4, 5), (4, 8)]
        edges += [(5, 6), (6, 7)] + [(z, z + 1) for z in range(8, 14)]
        g = Graph.from_edges(15, edges)
        _, rt, _ = tables(g)
        assert rt.kappa[2, 2] == 3 and rt.kappa[2, 1] == 2
        assert rt.label_row(2, 1).tolist() == [1, 2, 0, 0] + [1] * 11
        assert rt.comp_size[2, 1].tolist() == [0, 12, 1]
        assert_matches_fresh_bfs(g)

    def test_sizes_partition_complement(self, label_graphs):
        for g in label_graphs:
            dm, rt, _ = tables(g)
            for v in range(g.n):
                for p in range(1, dm.radius + 1):
                    if rt.kappa[v, p] > 2:
                        continue
                    outside = g.n - int(np.count_nonzero(dm.dist[v] <= p))
                    total = sum(int(rt.comp_size[v, p, c]) for c in range(1, rt.kappa[v, p] + 1))
                    assert total == outside


    def test_stored_rows_only_for_two_component_balls(self, label_graphs):
        # a one-component ball's row is dist > p and is never stored; the
        # stored int8 rows are one per two-component ball below the zero
        # row, which every other ball's map entry points at
        for g in label_graphs:
            dm, rt, _ = tables(g)
            two = rt.kappa == 2
            assert rt.comp_label.dtype == np.int8
            assert rt.comp_label.shape == (1 + int(two.sum()), g.n)
            assert not rt.comp_label[0].any()
            assert not rt.label_map[~two].any()
            assert sorted(rt.label_map[two].tolist()) == list(range(1, rt.comp_label.shape[0]))
            for v, p in zip(*np.nonzero(rt.kappa == 1)):
                assert rt.label_row(v, p).tolist() == (dm.dist[v] > p).tolist()


class TestRequirements:
    def test_p6_frontier_examples(self):
        _, rt, rq = tables(path_graph(6))
        # ball (1,1): residual components {3,4,5} and nothing else on the left
        lab = int(rt.label_row(1, 1)[3])
        assert rq.value(1, 1, lab, 4) == 1  # frontier {3}, dist(4,3)=1
        assert rq.value(1, 1, lab, 5) == 2

    def test_rank_fold_matches_reduceat(self, monkeypatch, small_random_graphs):
        # the two ways of folding requirement rows, forced on every fold:
        # the rows the accessor makes and the DP batches' arcs and answers
        graphs = [*small_random_graphs[:40], wheel_graph(33), barbell_graph(40), random_tree(60, 5)]
        for g in graphs:
            dm, rt, rq = tables(g)
            got = []
            for cells in (0, 1 << 62):
                monkeypatch.setattr(metric, "_REDUCEAT_CELLS", cells)
                dag = build_dag(g, dm, rt, rq)
                got.append((dense_req(rq).tobytes(), dag.arc_src.tobytes(), dag.arc_dst.tobytes(), solve_path(g)))
            assert got[0] == got[1]

    def test_rows_match_naive_frontier_maxima(self):
        # every row folded naively: for each (ball, label) pair with a
        # state, the largest dist(w, z) over the frontier vertices z of that
        # label.  Each graph has rows of several members in which, for some
        # w, the last member is the unique farthest one, so a row that lost
        # that member reads differently here.  Trees have none (each
        # residual component hangs from one frontier vertex), nor do
        # barbell_graph(40) and wheel_graph(33), whose frontier members tie
        shapes = [cycle_graph(41)] + [random_connected_graph(40, seed) for seed in (4, 5, 6, 7)]
        for g in shapes:
            dm, rt, rq = tables(g)
            want = np.zeros(rq.row_map.shape + (g.n,), dtype=np.int16)
            last_decides = 0
            for v, p, i in zip(*np.nonzero(rq.row_map)):
                frontier = (dm.dist[v] == p + 1) & (rt.label_row(v, p) == i + 1)
                d = dm.dist[:, frontier]
                want[v, p, i] = d.max(axis=1)
                last_decides += d.shape[1] > 1 and bool((d[:, -1] > d[:, :-1].max(axis=1, initial=0)).any())
            assert last_decides > 0
            assert np.array_equal(dense_req(rq), want)

    def test_default_zero(self):
        _, rt, rq = tables(path_graph(4))
        # pairs without a row read the empty-max convention, 0, and every
        # row is a maximum of distances
        rows = dense_req(rq)
        assert rows.min() >= 0
        assert not rows[rq.row_map == 0].any()

    def test_coverage_equivalence(self, small_random_graphs):
        for g in small_random_graphs[:25]:
            dm, rt, rq = tables(g)
            full = g.full_mask
            for v in range(g.n):
                for p in range(1, dm.radius + 1):
                    if rt.kappa[v, p] not in (1, 2):
                        continue
                    bmask = ball_mask(dm, v, p)
                    frontier = 0
                    for z in iter_bits(bmask):
                        frontier |= bits_of(g.adj[z])
                    frontier &= full & ~bmask
                    for c in range(1, rt.kappa[v, p] + 1):
                        slice_c = frontier & members(rt, v, p, c)
                        for w in range(g.n):
                            for q in range(1, dm.radius + 1):
                                covered = slice_c & ~ball_mask(dm, w, q) == 0
                                assert covered == (rq.value(v, p, c, w) <= q)


class TestBallLaws:
    def test_laws_random(self, small_random_graphs):
        for g in small_random_graphs[:20]:
            assert ball_law_violations(g, apsp(g)) == set(), g.edges()


class TestPreconditions:
    def test_single_vertex_has_no_balls(self):
        # radius 0: no ball of power 1 or more, so the stored label table
        # is its zero row alone, the frontier index is empty with the empty
        # row 0 only, and every map entry points at those rows
        dm, rt, rq = tables(Graph.from_edges(1, []))
        assert dm.radius == rt.rho == 0
        arrays = [
            (rt.kappa, (1, 1)),
            (rt.comp_label, (1, 1)),
            (rt.label_map, (1, 1)),
            (rt.comp_size, (1, 1, 3)),
            (rq.req, (0,)),
            (rq.start, (2,)),
            (rq.row_map, (1, 1, 2)),
            (rq.pair, (0,)),
        ]
        for a, shape in arrays:
            assert a.shape == shape and not a.any(), shape

    def test_disconnected_rejected(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        with pytest.raises(ValueError):
            residual_decompositions(g, apsp(g))
