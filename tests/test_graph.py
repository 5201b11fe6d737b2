import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from broadcast_domination import graph as graph_module
from broadcast_domination.generators import barbell_graph, cycle_graph, path_graph, random_tree, star_graph
from broadcast_domination.graph import (
    Graph,
    GraphFormatError,
    apsp,
    bfs_distances,
    bits_of,
    induced_subgraph,
    is_connected,
    parse_graph,
    render_graph,
)
from broadcast_domination.verify import parse_broadcast

from conftest import graphs, iter_bits, random_connected_graph


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

    @pytest.mark.parametrize(
        "parse, lines",
        [(parse_graph, ["4", "0 1", "2 3"]), (parse_broadcast, ["0 1", "2 3"])],
        ids=["graph", "broadcast"],
    )
    def test_readers_skip_the_same_lines(self, parse, lines):
        # both formats read their lines through one stripper: whole-line and
        # trailing '#' comments, empty and whitespace-only lines drop alike
        noisy = "# header\n\n" + "\n \t\n# between\n".join(f"  {line}  # note" for line in lines) + "\n#\n"
        assert parse(noisy) == parse("\n".join(lines))

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
        dm = apsp(path_graph(4))
        assert int(dm.dist[0, 3]) == 3
        assert dm.ecc.tolist() == [3, 2, 2, 3]
        assert dm.radius == 2

    def test_cycle_metric(self):
        dm = apsp(cycle_graph(5))
        assert int(dm.dist[0, 2]) == 2
        assert dm.ecc.tolist() == [2] * 5
        assert dm.radius == 2

    def test_star_metric(self):
        dm = apsp(star_graph(6))
        assert int(dm.dist[1, 2]) == 2
        assert dm.radius == 1

    def test_disconnected_sentinel(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        dm = apsp(g)
        assert not dm.connected
        assert int(dm.dist[0, 2]) == 4  # unreachable pairs hold n
        # 70 vertices: a cycle through all but 35 and 69, which are isolated
        ring = [v for v in range(70) if v not in (35, 69)]
        g = Graph.from_edges(70, zip(ring, ring[1:] + ring[:1]))
        dm = apsp(g)
        assert_matches_bfs(g, dm)
        assert not dm.connected
        for v in (35, 69):
            assert dm.dist[v].tolist() == [70] * v + [0] + [70] * (69 - v)

    @pytest.mark.parametrize("n", [64, 65, 127, 128, 129])
    @pytest.mark.parametrize(
        "make", [cycle_graph, barbell_graph, lambda n: random_connected_graph(n, n)], ids=["cycle", "barbell", "random"]
    )
    def test_word_boundaries(self, make, n):
        # source n - 1 is the last bit of a full word at 64 and 128 and the
        # only bit of the last word at 65 and 129; the barbells' neighbour
        # rows fill more than one gather block from 127 vertices on
        g = make(n)
        assert_matches_bfs(g, apsp(g))

    @given(graphs(min_n=64, max_n=140))
    @settings(max_examples=25, deadline=None)
    def test_large_graphs_match_bfs(self, g):
        assert_matches_bfs(g, apsp(g))

    def test_kernel_choice(self, monkeypatch):
        # the bit-parallel kernel runs exactly on connected graphs of 64 or
        # more vertices whose double-sweep bound 2 ecc(a) is at most 192
        calls = []
        kernel = graph_module._bit_parallel_distances
        monkeypatch.setattr(graph_module, "_bit_parallel_distances", lambda g: calls.append(g.n) or kernel(g))
        ring = list(range(1, 70))
        cases = [
            (cycle_graph(128), True),
            (barbell_graph(128), True),
            (random_tree(256, 7), True),
            (path_graph(97), True),  # 2 * 96 = 192
            (path_graph(98), False),  # 2 * 97 = 194
            (path_graph(192), False),
            (cycle_graph(63), False),
            (Graph.from_edges(70, zip(ring, ring[1:] + ring[:1])), False),  # vertex 0 isolated
        ]
        for g, bit in cases:
            calls.clear()
            assert_matches_bfs(g, apsp(g))
            assert calls == ([g.n] if bit else []), g.n

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


def assert_matches_bfs(g, dm):
    """Every row of dm is bfs_distances' row, and ecc, radius and
    connected are those of the BFS rows."""
    rows = [bfs_distances(g, s) for s in range(g.n)]
    assert dm.dist.dtype == np.int16 and dm.dist.tolist() == rows
    ecc = [max(row) for row in rows]
    assert dm.ecc.tolist() == ecc
    assert dm.radius == min(ecc)
    assert dm.connected == (max(ecc) < g.n)


class TestConnected:
    def test_examples(self):
        assert is_connected(path_graph(4))
        assert not is_connected(Graph.from_edges(4, [(0, 1), (2, 3)]))
        assert is_connected(Graph.from_edges(1, []))


class TestInducedSubgraph:
    def test_single_vertex(self):
        h, back = induced_subgraph(path_graph(4), [3])
        assert h.n == 1 and len(h.edges()) == 0 and back == [3]

    def test_disconnected_result(self):
        h, back = induced_subgraph(path_graph(4), [0, 1, 3])
        assert h.edges() == [(0, 1)] and back == [0, 1, 3]
        assert not is_connected(h)

    def test_identity(self):
        g = cycle_graph(5)
        h, back = induced_subgraph(g, range(5))
        assert h == g and back == list(range(5))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            induced_subgraph(path_graph(3), [])

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
