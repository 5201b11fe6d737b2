import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from broadcast_domination.graph import (
    Graph,
    GraphFormatError,
    apsp,
    bits_of,
    induced_subgraph,
    is_connected,
    parse_graph,
    render_graph,
)

from conftest import graphs, iter_bits, random_connected_graph


def path(n):
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n):
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def star(leaves):
    return Graph.from_edges(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


class TestParse:
    def test_p4(self):
        g = parse_graph("4\n0 1\n1 2\n2 3")
        assert g.n == 4 and len(g.edges()) == 3
        assert g.edges() == [(0, 1), (1, 2), (2, 3)]

    def test_k1(self):
        g = parse_graph("1\n")
        assert g.n == 1 and len(g.edges()) == 0

    def test_self_loop(self):
        with pytest.raises(GraphFormatError):
            parse_graph("3\n0 0")

    def test_out_of_range(self):
        with pytest.raises(GraphFormatError):
            parse_graph("3\n0 3")

    def test_duplicate_strict(self):
        assert len(parse_graph("3\n0 1\n1 0").edges()) == 1
        with pytest.raises(GraphFormatError):
            parse_graph("3\n0 1\n1 0", strict=True)

    def test_empty(self):
        with pytest.raises(GraphFormatError):
            parse_graph("")

    def test_comments(self):
        g = parse_graph("# header\n3\n0 1  # an edge\n\n1 2")
        assert len(g.edges()) == 2

    @given(graphs())
    @settings(max_examples=60, deadline=None)
    def test_round_trip(self, g):
        assert parse_graph(render_graph(g)) == g


class TestBits:
    def test_bits_of_and_back(self):
        assert list(iter_bits(bits_of([5, 1, 3]))) == [1, 3, 5]

    @given(st.sets(st.integers(0, 70)))
    @settings(max_examples=50, deadline=None)
    def test_set_semantics(self, vs):
        m = bits_of(vs)
        assert bin(m).count("1") == len(vs)
        assert set(iter_bits(m)) == vs
        other = bits_of(v + 1 for v in vs)
        assert set(iter_bits(m | other)) == vs | {v + 1 for v in vs}
        assert set(iter_bits(m & other)) == vs & {v + 1 for v in vs}
        assert set(iter_bits(m & ~other)) == vs - {v + 1 for v in vs}


class TestApsp:
    def test_path_metric(self):
        dm = apsp(path(4))
        assert int(dm.dist[0, 3]) == 3
        assert dm.ecc.tolist() == [3, 2, 2, 3]
        assert dm.radius == 2

    def test_cycle_metric(self):
        dm = apsp(cycle(5))
        assert int(dm.dist[0, 2]) == 2
        assert dm.ecc.tolist() == [2] * 5
        assert dm.radius == 2

    def test_star_metric(self):
        dm = apsp(star(5))
        assert int(dm.dist[1, 2]) == 2
        assert dm.radius == 1

    def test_disconnected_sentinel(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        dm = apsp(g)
        assert not dm.connected
        assert int(dm.dist[0, 2]) == 4  # unreachable pairs hold n

    @given(graphs(max_n=16))
    @settings(max_examples=40, deadline=None)
    def test_metric_axioms(self, g):
        dm = apsp(g)
        d = dm.dist.astype(np.int64)
        assert (np.diag(d) == 0).all()
        assert (d == d.T).all()
        # triangle inequality, exhaustive over all triples
        via = (d[:, :, None] + d[None, :, :]).min(axis=1)
        assert (d <= via).all()
        # distance one exactly on edges
        ones = {(u, v) for u in range(g.n) for v in range(g.n) if d[u, v] == 1}
        assert ones == {(u, v) for u, v in g.edges()} | {(v, u) for u, v in g.edges()}

    def test_large_random_axioms(self):
        g = random_connected_graph(64, 42)
        dm = apsp(g)
        d = dm.dist.astype(np.int64)
        assert (d == d.T).all() and (np.diag(d) == 0).all()
        via = (d[:, :, None] + d[None, :, :]).min(axis=1)
        assert (d <= via).all()


class TestConnected:
    def test_examples(self):
        assert is_connected(path(4))
        assert not is_connected(Graph.from_edges(4, [(0, 1), (2, 3)]))
        assert is_connected(Graph.from_edges(1, []))


class TestInducedSubgraph:
    def test_single_vertex(self):
        h, back = induced_subgraph(path(4), [3])
        assert h.n == 1 and len(h.edges()) == 0 and back == [3]

    def test_disconnected_result(self):
        h, back = induced_subgraph(path(4), [0, 1, 3])
        assert h.edges() == [(0, 1)] and back == [0, 1, 3]
        assert not is_connected(h)

    def test_identity(self):
        g = cycle(5)
        h, back = induced_subgraph(g, range(5))
        assert h == g and back == list(range(5))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            induced_subgraph(path(3), [])

    @given(graphs(max_n=12), st.data())
    @settings(max_examples=40, deadline=None)
    def test_distances_never_shrink(self, g, data):
        keep = data.draw(st.sets(st.integers(0, g.n - 1), min_size=1))
        h, back = induced_subgraph(g, sorted(keep))
        dg = apsp(g).dist
        dh = apsp(h).dist
        for i, u in enumerate(back):
            for j, v in enumerate(back):
                if dh[i, j] < h.n:  # reachable inside the subgraph
                    assert int(dh[i, j]) >= int(dg[u, v])
