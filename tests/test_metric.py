import numpy as np
import pytest

from broadcast_domination.graph import Graph, apsp, bits_of, iter_bits
from broadcast_domination.metric import requirement_table, residual_decompositions, residual_table_csv
from broadcast_domination.verify import ball_mask

from conftest import connected_graphs


def path(n):
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n):
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def star(leaves):
    return Graph.from_edges(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def tables(g):
    dm = apsp(g)
    rt = residual_decompositions(g, dm)
    rq = requirement_table(g, dm, rt)
    return dm, rt, rq


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


class TestBall:
    def test_p4(self):
        dm = apsp(path(4))
        assert ball_mask(dm, 1, 1) == bits_of([0, 1, 2])

    def test_power_zero(self):
        dm = apsp(cycle(5))
        assert ball_mask(dm, 3, 0) == bits_of([3])

    def test_full_cover(self):
        g = cycle(5)
        dm = apsp(g)
        assert ball_mask(dm, 0, 2) == g.full_mask

    def test_negative_power(self):
        with pytest.raises(ValueError):
            ball_mask(apsp(path(3)), 0, -1)


class TestResidualDecompositions:
    def test_p4_inner_ball(self):
        _, rt, _ = tables(path(4))
        assert rt.components(1, 1) == 1
        assert rt.label_of(1, 1, 3) == 1
        assert rt.size_of(1, 1, 1) == 1
        assert rt.members(1, 1, 1) == bits_of([3])

    def test_p5_center_ball_splits(self):
        _, rt, _ = tables(path(5))
        assert rt.components(2, 1) == 2
        assert rt.label_of(2, 1, 0) == 1  # first touch: vertex 0
        assert rt.label_of(2, 1, 4) == 2
        assert rt.size_of(2, 1, 1) == rt.size_of(2, 1, 2) == 1

    def test_star_leaf_ball_discarded(self):
        g = star(5)
        _, rt, _ = tables(g)
        assert rt.components(1, 1) == 4  # four isolated leaves
        assert rt.components(1, 1) > 2  # no states are built for it
        assert rt.components(0, 1) == 0  # center ball is radial

    def test_labels_match_fresh_bfs(self, small_random_graphs):
        for g in small_random_graphs:
            dm, rt, _ = tables(g)
            for v in range(g.n):
                for p in range(1, dm.radius + 1):
                    mask = ball_mask(dm, v, p)
                    want, count = bfs_component_labels(g, mask)
                    assert rt.components(v, p) == count
                    if count <= 2:
                        got = rt.comp_label[v, p].tolist()
                        assert got == want

    def test_sizes_partition_complement(self, small_random_graphs):
        for g in small_random_graphs:
            dm, rt, _ = tables(g)
            for v in range(g.n):
                for p in range(1, dm.radius + 1):
                    if rt.components(v, p) > 2:
                        continue
                    outside = g.n - int(np.count_nonzero(dm.dist[v] <= p))
                    total = sum(rt.size_of(v, p, c) for c in range(1, rt.components(v, p) + 1))
                    assert total == outside


class TestRequirements:
    def test_p6_frontier_examples(self):
        _, rt, rq = tables(path(6))
        # ball (1,1): residual components {3,4,5} and nothing else on the left
        lab = rt.label_of(1, 1, 3)
        assert rq.value(1, 1, lab, 4) == 1  # frontier {3}, dist(4,3)=1
        assert rq.value(1, 1, lab, 5) == 2

    def test_default_zero(self):
        _, rt, rq = tables(path(4))
        # untouched entries keep the empty-max convention
        assert rq.req.min() >= 0

    def test_coverage_equivalence(self, small_random_graphs):
        for g in small_random_graphs[:25]:
            dm, rt, rq = tables(g)
            full = g.full_mask
            for v in range(g.n):
                for p in range(1, dm.radius + 1):
                    if rt.components(v, p) not in (1, 2):
                        continue
                    bmask = ball_mask(dm, v, p)
                    frontier = 0
                    for z in iter_bits(bmask):
                        frontier |= g.adj_bits[z]
                    frontier &= full & ~bmask
                    for c in range(1, rt.components(v, p) + 1):
                        slice_c = frontier & rt.members(v, p, c)
                        for w in range(g.n):
                            for q in range(1, dm.radius + 1):
                                covered = slice_c & ~ball_mask(dm, w, q) == 0
                                assert covered == (rq.value(v, p, c, w) <= q)


class TestBallLaws:
    def test_intersection_law_exhaustive(self):
        for n in (2, 3, 4, 5):
            for g in connected_graphs(n):
                dm = apsp(g)
                rho = dm.radius
                for a in range(n):
                    for b in range(n):
                        for p in range(rho + 1):
                            for q in range(rho + 1):
                                meets = ball_mask(dm, a, p) & ball_mask(dm, b, q) != 0
                                assert meets == (int(dm.dist[a, b]) <= p + q)

    def test_tight_contact_law_exhaustive(self):
        for n in (2, 3, 4, 5):
            for g in connected_graphs(n):
                dm = apsp(g)
                rho = dm.radius
                for a in range(n):
                    for b in range(n):
                        for p in range(rho + 1):
                            for q in range(rho + 1):
                                x = ball_mask(dm, a, p)
                                y = ball_mask(dm, b, q)
                                if x & y:
                                    continue
                                touch = any(g.adj_bits[z] & y for z in iter_bits(x))
                                assert touch == (int(dm.dist[a, b]) == p + q + 1)

    def test_laws_random(self, small_random_graphs):
        for g in small_random_graphs[:20]:
            dm = apsp(g)
            rho = dm.radius
            for a in range(g.n):
                for b in range(g.n):
                    d = int(dm.dist[a, b])
                    for p in range(rho + 1):
                        for q in range(rho + 1):
                            x = ball_mask(dm, a, p)
                            y = ball_mask(dm, b, q)
                            assert (x & y != 0) == (d <= p + q)
                            if not x & y:
                                touch = any(g.adj_bits[z] & y for z in iter_bits(x))
                                assert touch == (d == p + q + 1)


class TestCsvDump:
    def test_p5_golden(self):
        _, rt, _ = tables(path(5))
        assert residual_table_csv(rt) == (
            "v,p,kappa,size1,size2\n"
            "0,1,1,3,0\n"
            "0,2,1,2,0\n"
            "1,1,1,2,0\n"
            "1,2,1,1,0\n"
            "2,1,2,1,1\n"
            "2,2,0,0,0\n"
            "3,1,1,2,0\n"
            "3,2,1,1,0\n"
            "4,1,1,3,0\n"
            "4,2,1,2,0\n"
        )

    def test_star_discarded_row(self):
        _, rt, _ = tables(star(5))
        lines = residual_table_csv(rt).splitlines()
        assert "1,1,4,," in lines
        assert "0,1,0,0,0" in lines


class TestPreconditions:
    def test_single_vertex_rejected(self):
        g = Graph.from_edges(1, [])
        with pytest.raises(ValueError):
            residual_decompositions(g, apsp(g))

    def test_disconnected_rejected(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        with pytest.raises(ValueError):
            residual_decompositions(g, apsp(g))
