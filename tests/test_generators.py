import time

import pytest

from broadcast_domination.generators import (
    FAMILIES,
    GeneratorSpec,
    SplitMix64,
    barbell_graph,
    generate,
    random_tree,
    sparse_random,
)
from broadcast_domination.graph import is_connected


class TestSplitMix64:
    def test_reference_sequence(self):
        # standard splitmix64 vector for seed 0
        rng = SplitMix64(0)
        assert rng.next_u64() == 0xE220A8397B1DCDAF

    def test_seed_isolation(self):
        a = [SplitMix64(7).next_u64() for _ in range(4)]
        b = [SplitMix64(7).next_u64() for _ in range(4)]
        c = [SplitMix64(8).next_u64() for _ in range(4)]
        assert a == b != c

    def test_below_range_and_determinism(self):
        rng = SplitMix64(99)
        draws = [rng.below(10) for _ in range(1000)]
        assert all(0 <= d < 10 for d in draws)
        assert set(draws) == set(range(10))
        with pytest.raises(ValueError):
            rng.below(0)


class TestFamilies:
    def test_path_example(self):
        g = generate(GeneratorSpec("path", 4))
        assert g.edges() == [(0, 1), (1, 2), (2, 3)]

    def test_wheel_example(self):
        g = generate(GeneratorSpec("wheel", 5))
        assert set(g.edges()) == {(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (2, 3), (3, 4), (1, 4)}

    def test_star_example(self):
        g = generate(GeneratorSpec("star", 6))
        assert g.edges() == [(0, i) for i in range(1, 6)]
        assert len(g.adj[0]) == 5

    def test_barbell_shape(self):
        g = barbell_graph(9)
        # cliques {0,1,2} and {6,7,8}, path 3-4-5 between them
        assert (0, 1) in g.edges() and (6, 7) in g.edges()
        assert (2, 3) in g.edges() and (5, 6) in g.edges()
        assert len(g.adj[4]) == 2

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            generate(GeneratorSpec("cycle", 2))
        with pytest.raises(ValueError):
            generate(GeneratorSpec("wheel", 3))
        with pytest.raises(ValueError):
            generate(GeneratorSpec("barbell", 5))
        with pytest.raises(ValueError):
            generate(GeneratorSpec("nonesuch", 5))
        with pytest.raises(ValueError):
            generate(GeneratorSpec("path", 0))

    def test_unknown_family_named_before_its_extras(self):
        with pytest.raises(ValueError, match="^unknown family 'foo'"):
            generate(GeneratorSpec("foo", 5, extra={"p": "1"}))

    def test_random_tree_is_tree(self):
        for seed in range(12):
            for n in (1, 2, 3, 8, 17):
                g = random_tree(n, seed)
                assert len(g.edges()) == n - 1
                assert is_connected(g)

    def test_sparse_random_connected_and_param(self):
        g = sparse_random(16, 5)
        assert is_connected(g)
        dense = sparse_random(10, 5, p=1.0)
        assert len(dense.edges()) == 45  # complete graph

    def test_sparse_random_large_is_connected_and_fast(self):
        # connected by construction, so a size at which a connected G(n, 3/n)
        # sample is rare still takes milliseconds
        t0 = time.perf_counter()
        g = sparse_random(160, 1)
        elapsed = time.perf_counter() - t0
        assert is_connected(g)
        assert elapsed < 1.0
        assert 2.5 <= 2 * len(g.edges()) / g.n <= 3.5  # mean degree near 3

    def test_sparse_random_pinned(self):
        assert sparse_random(8, 5).edges() == [
            (0, 2), (0, 7), (1, 2), (2, 7), (3, 5), (4, 5), (4, 7), (5, 6)
        ]

    def test_determinism_across_calls(self):
        for family in FAMILIES:
            n = {"barbell": 9, "wheel": 8, "cycle": 8}.get(family, 9)
            a = generate(GeneratorSpec(family, n, seed=3))
            b = generate(GeneratorSpec(family, n, seed=3))
            assert a == b

    def test_all_families_connected(self):
        for family in FAMILIES:
            for n in (7, 12, 20):
                n_eff = max(n, 6) if family == "barbell" else n
                g = generate(GeneratorSpec(family, n_eff, seed=1))
                assert is_connected(g)
                assert g.n == n_eff
