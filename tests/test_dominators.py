import pytest

from sbspan import (
    GenConfig,
    algorithm2,
    algorithm3,
    build,
    generate,
    is_2v_strongly_biconnected,
    is_2vertex_connected,
    is_strongly_connected,
    strong_articulation_points_fast,
)
from sbspan.connectivity import strong_articulation_points_bruteforce
from sbspan.dominators import _nontrivial, dominator_tree, reverse
from sbspan.graph import delete_vertex
from fixtures import BBOWTIE, BK4, C4, CHAIN4, DIAMOND, bidirected, ladder_pairs
from reference import dominator_tree_iterative, rng_below


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


def gates(k):
    """k gates in a row, c_i -> x_i, y_i -> c_{i+1} with x_i <-> y_i, for
    c_i = 3i-2, x_i = 3i-1, y_i = 3i and c_{k+1} = 0, entered by 0 -> 1 and
    0 -> 2, plus fronds x_i -> 1 and y_i -> 1 for i >= 2: n = 3k+1, m = 8k,
    in- and out-degree 2 at least, strongly connected, and every c_i with
    i >= 2 separates, so the dominator tree from 0 is one long chain."""
    edges = [(0, 1), (0, 2)]
    for i in range(1, k + 1):
        c, x, y = 3 * i - 2, 3 * i - 1, 3 * i
        nxt = 3 * i + 1 if i < k else 0
        edges += [(c, x), (c, y), (x, nxt), (y, nxt), (x, y), (y, x)]
        if i >= 2:
            edges += [(x, 1), (y, 1)]
    return build(3 * k + 1, edges)


def trees_match_reference(g):
    """Both directions from roots 0 and n-1 agree with the iterative
    scheme; returns the number of trees compared."""
    for root in {0, g.n - 1}:
        for succ, pred in ((g.out_adj, g.in_adj), (g.in_adj, g.out_adj)):
            assert dominator_tree(succ, pred, root) == \
                dominator_tree_iterative(succ, pred, root), (g, root)
    return 2 * len({0, g.n - 1})


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


    def test_matches_iterative_on_random_digraphs(self):
        # not necessarily strongly connected: unreachable vertices too
        trees = 0
        for seed in range(4000):
            rng, n = rng_below(seed + 40000, 29)
            n += 2
            rng, m = rng_below(rng, 4 * n)
            edges = set()
            for _ in range(m):
                rng, u = rng_below(rng, n)
                rng, v = rng_below(rng, n)
                if u != v:
                    edges.add((u, v))
            trees += trees_match_reference(build(n, sorted(edges)))
        assert trees == 16000

    def test_matches_iterative_on_generated(self):
        for n in range(4, 40):
            for seed in range(10):
                trees_match_reference(generate(GenConfig(n=n, seed=seed)))

    def test_matches_iterative_on_ladder_outputs(self):
        # alg2 and alg3 leave long cycles: deep trees, long compressions
        for n in range(6, 61):
            for kind in ("prism", "moebius", "squared"):
                if kind != "squared" and n % 2:
                    continue
                g = bidirected(n, ladder_pairs(kind, n))
                trees_match_reference(algorithm2(g, precheck=False).subgraph)
                trees_match_reference(algorithm3(g, precheck=False).subgraph)

    def test_matches_iterative_on_gates(self):
        for k in range(1, 40):
            trees_match_reference(gates(k))

    def test_deep_chains_pinned(self):
        # the iterative scheme needs ~13 s for the gate verdict and ~6.6 s
        # of trees for the prism one; both are far below that now
        assert not is_2vertex_connected(gates(8000))  # n = 24,001
        g = bidirected(1200, ladder_pairs("prism", 1200))
        assert is_2v_strongly_biconnected(algorithm3(g, precheck=False).subgraph)


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
        # G - 0 is strongly connected but nothing reaches 0
        with pytest.raises(ValueError):
            strong_articulation_points_fast(build(4, [
                (0, 1), (0, 2), (1, 2), (2, 1), (1, 3), (3, 1), (2, 3), (3, 2)]))

    def test_matches_bruteforce(self):
        for seed in range(60):
            g = random_sc_graph(seed + 1200, max_n=25)
            assert strong_articulation_points_fast(g) == \
                strong_articulation_points_bruteforce(g)
