import pytest

from sbspan import build, is_strongly_connected, strong_articulation_points_fast
from sbspan.connectivity import strong_articulation_points_bruteforce
from sbspan.dominators import _nontrivial, dominator_tree, reverse
from sbspan.generator import rng_below
from sbspan.graph import delete_vertex
from fixtures import BBOWTIE, BK4, C4, CHAIN4, DIAMOND


def random_sc_graph(seed, max_n=30):
    """Seeded random strongly connected graph, n >= 3."""
    rng, nv = rng_below(seed, max_n - 2)
    n = 3 + nv
    edges, seen = [], set()
    target = 2 * n
    while True:
        while len(edges) < target:
            rng, u = rng_below(rng, n)
            rng, v = rng_below(rng, n)
            if u != v and (u, v) not in seen:
                seen.add((u, v))
                edges.append((u, v))
        g = build(n, edges)
        if is_strongly_connected(g):
            return g
        target += 1


class TestDominatorTree:
    def test_chain(self):
        assert dominator_tree(CHAIN4.out_adj, CHAIN4.in_adj, 0) == (None, 0, 1, 2)

    def test_diamond(self):
        assert dominator_tree(DIAMOND.out_adj, DIAMOND.in_adj, 0) == (None, 0, 0, 0)

    def test_cycle(self):
        assert dominator_tree(C4.out_adj, C4.in_adj, 0) == (None, 0, 1, 2)

    def test_unreachable_flagged(self):
        idom = dominator_tree(CHAIN4.out_adj, CHAIN4.in_adj, 2)
        assert idom == (None, None, None, 2)
        reachable = [idom[v] is not None or v == 2 for v in range(4)]
        assert reachable == [False, False, True, True]

    def test_root_out_of_range(self):
        with pytest.raises(ValueError):
            dominator_tree(C4.out_adj, C4.in_adj, 4)

    def test_idom_lies_on_every_path(self):
        # idom(v) removal makes v unreachable from the root
        for seed in range(30):
            g = random_sc_graph(seed, max_n=15)
            idom = dominator_tree(g.out_adj, g.in_adj, 0)
            for v in range(1, g.n):
                d = idom[v]
                assert d is not None
                if d == 0:
                    continue
                h, mapping = delete_vertex(g, d)
                seen = {mapping[0]}
                stack = [mapping[0]]
                while stack:
                    a = stack.pop()
                    for b in h.out_adj[a]:
                        if b not in seen:
                            seen.add(b)
                            stack.append(b)
                assert mapping[v] not in seen

    def test_independent_of_edge_order(self):
        for seed in range(20):
            g = random_sc_graph(seed + 300, max_n=15)
            base = dominator_tree(g.out_adj, g.in_adj, 0)
            edges = list(g.edges)
            rng = seed
            for _ in range(3):
                # seeded Fisher-Yates shuffle
                for i in range(len(edges) - 1, 0, -1):
                    rng, j = rng_below(rng, i + 1)
                    edges[i], edges[j] = edges[j], edges[i]
                h = build(g.n, edges)
                assert dominator_tree(h.out_adj, h.in_adj, 0) == base


def nontrivial(g, root):
    return _nontrivial(dominator_tree(g.out_adj, g.in_adj, root), root)


class TestNontrivialDominators:
    def test_fixtures(self):
        assert nontrivial(DIAMOND, 0) == set()
        assert nontrivial(CHAIN4, 0) == {1, 2}
        assert nontrivial(BK4, 0) == set()

    def test_members_disconnect_on_deletion(self):
        for seed in range(30):
            g = random_sc_graph(seed + 600, max_n=20)
            for d in nontrivial(g, 0):
                h, mapping = delete_vertex(g, d)
                seen = {mapping[0]}
                stack = [mapping[0]]
                while stack:
                    a = stack.pop()
                    for b in h.out_adj[a]:
                        if b not in seen:
                            seen.add(b)
                            stack.append(b)
                assert len(seen) < h.n


class TestReverse:
    def test_edges_flipped_in_order(self):
        assert reverse(C4).edges == ((1, 0), (2, 1), (3, 2), (0, 3))

    def test_swapped_lists_give_reverse_tree(self):
        for seed in range(10):
            g = random_sc_graph(seed + 950, max_n=12)
            r = reverse(g)
            for root in (0, g.n - 1):
                assert dominator_tree(g.in_adj, g.out_adj, root) == \
                    dominator_tree(r.out_adj, r.in_adj, root)

    def test_involution(self):
        for seed in range(10):
            g = random_sc_graph(seed + 900, max_n=12)
            assert reverse(reverse(g)) == g


class TestStrongArticulationPointsFast:
    def test_fixtures(self):
        assert strong_articulation_points_fast(DIAMOND) == {0, 3}
        assert strong_articulation_points_fast(BBOWTIE) == {0}
        assert strong_articulation_points_fast(BK4) == set()

    def test_preconditions(self):
        with pytest.raises(ValueError):
            strong_articulation_points_fast(CHAIN4)
        with pytest.raises(ValueError):
            strong_articulation_points_fast(build(2, [(0, 1), (1, 0)]))

    def test_matches_bruteforce(self):
        for seed in range(60):
            g = random_sc_graph(seed + 1200, max_n=25)
            assert strong_articulation_points_fast(g) == \
                strong_articulation_points_bruteforce(g)
