import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from broadcast_domination.generators import barbell_graph, cycle_graph, path_graph, random_tree, star_graph, wheel_graph
from broadcast_domination import metric
from broadcast_domination.graph import Graph, apsp, bits_of
from broadcast_domination.metric import _run_starts, _ShellSets, requirement_table, residual_decompositions
from broadcast_domination.verify import ball_mask

from conftest import ball_law_violations, connected_graphs, iter_bits, members, random_connected_graph, tables


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


def naive_roots(adj, added):
    """Smallest-vertex representative of each vertex's component in the
    graph induced on added."""
    naive = {}
    for s in sorted(added):
        if s not in naive:
            stack = [s]
            naive[s] = s
            while stack:
                z = stack.pop()
                for y in adj[z] & added:
                    if y not in naive:
                        naive[y] = s
                        stack.append(y)
    return naive


class TestShellSets:
    def test_add_counts_merges(self):
        d = _ShellSets(5)
        assert d.add([0], {0: [1, 2]}) == 0  # no neighbor added yet
        assert d.add([2], {2: [0, 1]}) == 1
        assert d.add([4], {4: [3]}) == 0
        assert d.add([1], {1: [0, 2, 4]}) == 2  # 2 is already in 0's class
        p = d.parent
        assert p[0] == p[1] == p[2] == p[4] == p[p[0]] and p[3] == -1

    @given(st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)), max_size=30), st.permutations(range(10)))
    @settings(max_examples=50, deadline=None)
    def test_partition_matches_naive(self, pairs, order):
        # after each one-vertex shell, parent labels exactly the components
        # of the graph induced on the vertices added so far, and add returns
        # the drop in their count, plus one
        adj = {v: {b for a, b in pairs if a == v} | {a for a, b in pairs if b == v} for v in range(10)}
        d = _ShellSets(10)
        added: set[int] = set()
        comps = 0
        for x in order:
            merged = d.add([x], {x: sorted(adj[x] - {x})})
            added.add(x)
            naive = naive_roots(adj, added)
            assert merged == comps + 1 - len(set(naive.values()))
            comps = len(set(naive.values()))
            assert all((d.parent[a] == d.parent[b]) == (naive[a] == naive[b]) for a in added for b in added)
            assert all(d.parent[z] == -1 for z in range(10) if z not in added)

    def test_low_is_smallest_member(self):
        # merges in both directions: the kept root's low comes from the
        # absorbed class when that one holds the smaller vertex
        d = _ShellSets(6)
        adj = [[5], [4], [], [4, 5], [1, 3], [0, 3]]
        d.add([3, 4, 5], adj)  # 4 and 5 join 3's class
        r = d.parent[3]
        assert d.low[r] == 3 and sorted(d.members[r]) == [3, 4, 5]
        d.add([0, 1], adj)  # 0 and 1 join it from below
        r = d.parent[3]
        assert d.low[r] == 0 and sorted(d.members[r]) == [0, 1, 3, 4, 5]

    @given(
        st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)), max_size=30),
        st.permutations(range(10)),
        st.lists(st.integers(1, 4), min_size=10, max_size=10),
    )
    @settings(max_examples=50, deadline=None)
    def test_multi_vertex_shells_match_naive(self, pairs, order, widths):
        # whole shells at once, with edges inside a shell too: the classes
        # are the components of the graph induced on the vertices added so
        # far, and the class count grows by the shell's size minus the merges
        adj = {v: {b for a, b in pairs if a == v} | {a for a, b in pairs if b == v} for v in range(10)}
        nbrs = [sorted(adj[v] - {v}) for v in range(10)]
        d = _ShellSets(10)
        added: set[int] = set()
        comps = 0
        i = 0
        for width in widths:
            shell = order[i : i + width]
            i += width
            merged = d.add(shell, nbrs)
            added.update(shell)
            naive = naive_roots(adj, added)
            assert merged == comps + len(shell) - len(set(naive.values()))
            comps = len(set(naive.values()))
            assert all((d.parent[a] == d.parent[b]) == (naive[a] == naive[b]) for a in added for b in added)
            assert all(d.parent[z] == -1 for z in range(10) if z not in added)
            assert all(d.parent[d.parent[z]] == d.parent[z] for z in added)
            # every root lists its class and knows the class's smallest vertex
            for r in {d.parent[z] for z in added}:
                assert sorted(d.members[r]) == sorted(z for z in added if d.parent[z] == r)
                assert d.low[r] == min(d.members[r])


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
        assert rt.comp_label[1, 1, 3] == 1
        assert rt.comp_size[1, 1, 1] == 1
        assert members(rt, 1, 1, 1) == bits_of([3])

    def test_p5_center_ball_splits(self):
        _, rt, _ = tables(path_graph(5))
        assert rt.kappa[2, 1] == 2
        assert rt.comp_label[2, 1, 0] == 1  # first touch: vertex 0
        assert rt.comp_label[2, 1, 4] == 2
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
        assert not rt.comp_label[1, 1].any()
        # the radial centre ball leaves nothing outside it
        assert rt.kappa[0, 1] == 0
        assert not rt.comp_size[0, 1].any()

    def test_tables_pinned(self):
        # sha256 of the raw bytes of kappa, comp_label, comp_size and req:
        # any rewrite of the residual or requirement layer must reproduce
        # the tables byte for byte
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
                for a in (rt.kappa, rt.comp_label, rt.comp_size, rq.req)
            ]
            assert got == want, name

    def test_labels_match_fresh_bfs(self, label_graphs):
        for g in label_graphs:
            dm, rt, _ = tables(g)
            for v in range(g.n):
                for p in range(1, dm.radius + 1):
                    mask = ball_mask(dm, v, p)
                    want, count = bfs_component_labels(g, mask)
                    assert rt.kappa[v, p] == count
                    if count <= 2:
                        got = rt.comp_label[v, p].tolist()
                        assert got == want

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


class TestRequirements:
    def test_p6_frontier_examples(self):
        _, rt, rq = tables(path_graph(6))
        # ball (1,1): residual components {3,4,5} and nothing else on the left
        lab = int(rt.comp_label[1, 1, 3])
        assert rq.value(1, 1, lab, 4) == 1  # frontier {3}, dist(4,3)=1
        assert rq.value(1, 1, lab, 5) == 2

    def test_rank_fold_matches_reduceat(self, monkeypatch, small_random_graphs):
        # the two ways of taking the group maxima, forced on every block
        graphs = [*small_random_graphs[:40], wheel_graph(33), barbell_graph(40), random_tree(60, 5)]
        for g in graphs:
            dm, rt, _ = tables(g)
            monkeypatch.setattr(metric, "_REDUCEAT_CELLS", 0)
            ranks = requirement_table(g, dm, rt).req
            monkeypatch.setattr(metric, "_REDUCEAT_CELLS", 1 << 62)
            assert np.array_equal(ranks, requirement_table(g, dm, rt).req)

    def test_default_zero(self):
        _, rt, rq = tables(path_graph(4))
        # untouched entries keep the empty-max convention
        assert rq.req.min() >= 0

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
    def test_intersection_law_exhaustive(self):
        for n in (2, 3, 4, 5):
            for g in connected_graphs(n):
                assert "intersection" not in ball_law_violations(g, apsp(g)), g.edges()

    def test_tight_contact_law_exhaustive(self):
        for n in (2, 3, 4, 5):
            for g in connected_graphs(n):
                assert "tight contact" not in ball_law_violations(g, apsp(g)), g.edges()

    def test_laws_random(self, small_random_graphs):
        for g in small_random_graphs[:20]:
            assert ball_law_violations(g, apsp(g)) == set(), g.edges()


class TestPreconditions:
    def test_single_vertex_has_no_balls(self):
        # radius 0: every table is one zero row, no ball of power 1 or more
        dm, rt, rq = tables(Graph.from_edges(1, []))
        assert dm.radius == rt.rho == 0
        for a, shape in [(rt.kappa, (1, 1)), (rt.comp_label, (1, 1, 1)), (rt.comp_size, (1, 1, 3)), (rq.req, (1, 1, 2, 1))]:
            assert a.shape == shape and not a.any(), shape

    def test_disconnected_rejected(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        with pytest.raises(ValueError):
            residual_decompositions(g, apsp(g))
