import itertools
import math

import pytest

from sbspan import (
    algorithm1,
    algorithm2,
    algorithm3,
    build,
    exact_min_2vsb,
    is_2v_strongly_biconnected,
    small_instance_suite,
)
from fixtures import BK4, C4, OCT8


class TestExactMin:
    def test_bk4(self):
        res = exact_min_2vsb(BK4)
        assert res.opt_size == 8  # 2n degree floor is attained
        assert res.witness.m == 8
        assert res.witness.n == 4
        assert res.witness.edge_set <= BK4.edge_set
        assert is_2v_strongly_biconnected(res.witness)

    def test_oct8_identity(self):
        res = exact_min_2vsb(OCT8)
        assert res.opt_size == 8
        assert res.witness == OCT8

    def test_infeasible_input(self):
        with pytest.raises(ValueError):
            exact_min_2vsb(C4)

    def test_guard(self):
        big = build(6, [(u, v) for u in range(6) for v in range(6) if u != v])
        assert big.m == 30
        with pytest.raises(ValueError, match="guard"):
            exact_min_2vsb(big)

    def test_guard_comes_first(self):
        # an infeasible graph over the guard fails on the cheap edge count
        cycle = build(30, [(v, (v + 1) % 30) for v in range(30)])
        with pytest.raises(ValueError, match="guard"):
            exact_min_2vsb(cycle)

    def test_idempotent_on_optimum(self):
        for g, exact in small_instance_suite(4, seed=11):
            again = exact_min_2vsb(exact.witness)
            assert again.opt_size == exact.opt_size

    def test_witness_is_lexicographically_first(self):
        # The witness is the first feasible subset of the optimum size in
        # index order; re-derive it by plain enumeration, on BK4 and on
        # every generated instance with at most 5,000 such subsets.
        cases = [(BK4, exact_min_2vsb(BK4))] + [
            (g, exact) for g, exact in small_instance_suite(20, seed=0)
            if math.comb(g.m, exact.opt_size) <= 5_000
        ]
        assert len(cases) > 1
        for g, exact in cases:
            for subset in itertools.combinations(range(g.m), exact.opt_size):
                sub = build(g.n, [g.edges[i] for i in subset])
                if is_2v_strongly_biconnected(sub):
                    break
            assert exact.witness == sub


class TestSmallInstanceSuite:
    def test_first_instance_is_bk4(self):
        pairs = small_instance_suite(1, seed=3)
        g, exact = pairs[0]
        assert g.edge_set == BK4.edge_set
        assert exact.opt_size == 8

    def test_contracts(self):
        pairs = small_instance_suite(6, seed=1)
        assert len(pairs) == 6
        for g, exact in pairs:
            assert g.n in (4, 5)
            assert g.m <= 24
            assert is_2v_strongly_biconnected(exact.witness)
            assert exact.witness.n == g.n
            assert exact.witness.edge_set <= g.edge_set
            assert exact.opt_size >= 2 * g.n

    def test_count_validated(self):
        with pytest.raises(ValueError):
            small_instance_suite(0, seed=1)

    def test_algorithms_bounded_below_by_opt(self):
        for g, exact in small_instance_suite(6, seed=2):
            for fn in (algorithm1, algorithm2, algorithm3):
                r = fn(g)
                assert r.edges_out >= exact.opt_size

    def test_alg2_within_ratio(self):
        for g, exact in small_instance_suite(10, seed=5):
            r = algorithm2(g)
            assert r.edges_out <= 3.5 * exact.opt_size
