import hashlib

import pytest

from sbspan import GenConfig, generate, is_2v_strongly_biconnected, serialize
from fixtures import BK4
from reference import generate_reference, rng_below, rng_next


class TestRng:
    # the reference splitmix64 that generate's inlined draw loop is held to
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

    def test_matches_reference_loop(self):
        # the draw loop's inlined splitmix64 steps against one rng_below
        # call per endpoint
        for n in range(4, 31):
            for seed in range(20):
                g = generate(GenConfig(n=n, seed=seed))
                ref = generate_reference(n, seed)
                assert g.edges == ref.edges, (n, seed)

    def test_simple_graph_invariants(self):
        g = generate(GenConfig(n=9, seed=5))
        assert len(set(g.edges)) == g.m
        assert all(u != v for u, v in g.edges)

    @pytest.mark.parametrize("n, seed, m, digest", [
        (10, 1, 37, "f69181cf3175de2da55d6bb51c3ae3887a9b5014aa29d00e65fedfc90e2966bb"),
        (60, 1, 467, "43bdbfee581dd13e7313726e6d5fb1093a0fbd23165388136f5ead9d80f8c1ee"),
        (100, 1, 692, "4434a9776b51b0017139b69cf6dc015ac93750971ca047bd81358ad9665bc353"),
        (200, 2, 1439, "e3a19d66034ef1373700412e7109cac47850d16b288647bbedae466a068031c4"),
    ])
    def test_output_is_pinned(self, n, seed, m, digest):
        # the benchmark's instances, byte for byte: a change to the draw
        # order or the stopping rule shows here, not only in perfbench
        g = generate(GenConfig(n=n, seed=seed))
        assert g.m == m
        assert hashlib.sha256(serialize(g).encode()).hexdigest() == digest
