import pytest

from sbspan import GenConfig, generate, is_2v_strongly_biconnected
from sbspan.generator import rng_below, rng_next
from fixtures import BK4


class TestRng:
    def test_seed_zero_vectors(self):
        s, first = rng_next(0)
        assert first == 0xE220A8397B1DCDAF
        s, second = rng_next(s)
        assert second == 0x6E789E6AA1B965F4

    def test_same_seed_same_sequence(self):
        a = b = 12345
        for _ in range(100):
            a, va = rng_next(a)
            b, vb = rng_next(b)
            assert va == vb

    def test_outputs_are_64_bit(self):
        s = 99
        for _ in range(200):
            s, v = rng_next(s)
            assert 0 <= v < 1 << 64

    def test_below_one_is_zero(self):
        for seed in range(20):
            _, v = rng_below(seed, 1)
            assert v == 0

    def test_below_is_mod_of_next(self):
        _, v = rng_below(0, 10)
        assert v == 0xE220A8397B1DCDAF % 10 == 5

    def test_below_rejects_zero(self):
        with pytest.raises(ValueError):
            rng_below(0, 0)


class TestGenerate:
    def test_n4_is_forced_complete(self):
        for seed in (0, 7, 42):
            g = generate(GenConfig(n=4, seed=seed))
            assert g.n == 4 and g.m == 12
            assert g.edge_set == BK4.edge_set

    def test_n10_seed1(self):
        g = generate(GenConfig(n=10, seed=1))
        assert g.m >= 30
        assert is_2v_strongly_biconnected(g)

    def test_deterministic(self):
        a = generate(GenConfig(n=10, seed=1))
        b = generate(GenConfig(n=10, seed=1))
        assert a == b
        assert a.edges == b.edges

    def test_seeds_differ(self):
        a = generate(GenConfig(n=10, seed=1))
        b = generate(GenConfig(n=10, seed=2))
        assert a.edges != b.edges

    def test_n_below_4_rejected(self):
        with pytest.raises(ValueError, match=">= 4"):
            generate(GenConfig(n=3, seed=1))

    def test_edge_floor_and_feasibility(self):
        for n, seed in [(5, 3), (6, 1), (8, 2), (12, 9)]:
            g = generate(GenConfig(n=n, seed=seed))
            assert g.m >= min(3 * n, n * (n - 1))
            assert is_2v_strongly_biconnected(g)

    def test_simple_graph_invariants(self):
        g = generate(GenConfig(n=9, seed=5))
        assert len(set(g.edges)) == g.m
        assert all(u != v for u, v in g.edges)
