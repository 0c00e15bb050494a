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
from sbspan.connectivity import _is_2vc, strong_articulation_points_bruteforce
from sbspan.dominators import (
    _strong_articulation_points, dominator_tree, reverse,
)
from sbspan.graph import delete_vertex
from fixtures import (
    BBOWTIE, BK4, C4, CHAIN4, DIAMOND, bidirected, gates, ladder_pairs,
)
from reference import dominator_tree_iterative, nontrivial, rng_below


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


def reference_inner(succ, pred, root):
    """The iterative scheme's tree, projected as ``dominator_tree``'s."""
    return nontrivial(dominator_tree_iterative(succ, pred, root), root)


def reached_without(g, root, skip=None):
    """How many vertices a search from root reaches in g - skip."""
    seen = {root}
    stack = [root]
    while stack:
        for b in g.out_adj[stack.pop()]:
            if b != skip and b not in seen:
                seen.add(b)
                stack.append(b)
    return len(seen)


def trees_match_reference(g):
    """Both directions from roots 0 and n-1 agree with the iterative
    scheme; returns the number of trees compared."""
    for root in {0, g.n - 1}:
        for succ, pred in ((g.out_adj, g.in_adj), (g.in_adj, g.out_adj)):
            assert dominator_tree(succ, pred, root) == \
                reference_inner(succ, pred, root), (g, root)
    return 2 * len({0, g.n - 1})


class TestDominatorTree:
    def test_chain(self):
        assert dominator_tree(CHAIN4.out_adj, CHAIN4.in_adj, 0) == {1, 2}

    def test_diamond(self):
        assert dominator_tree(DIAMOND.out_adj, DIAMOND.in_adj, 0) == set()

    def test_cycle(self):
        assert dominator_tree(C4.out_adj, C4.in_adj, 0) == {1, 2}

    def test_unreachable_flagged(self):
        # 0 and 1 are not reached from 2
        assert dominator_tree(CHAIN4.out_adj, CHAIN4.in_adj, 2) is None
        assert dominator_tree(CHAIN4.in_adj, CHAIN4.out_adj, 3) == {1, 2}

    def test_root_out_of_range(self):
        with pytest.raises(ValueError):
            dominator_tree(C4.out_adj, C4.in_adj, 4)

    def test_idom_lies_on_every_path(self):
        # in the reference tree, idom(v) removal makes v unreachable from
        # the root, and the inner vertices are those idoms
        for seed in range(30):
            g = random_sc_graph(seed, max_n=15)
            idom = dominator_tree_iterative(g.out_adj, g.in_adj, 0)
            assert dominator_tree(g.out_adj, g.in_adj, 0) == \
                nontrivial(idom, 0)
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

    def test_flat_and_deep_from_every_root(self):
        # fully reached trees with inner vertices and without, from every
        # root.  The 2VC check, which stops at the first tree with inner
        # vertices, agrees with the strong articulation points of both
        # trees.  Half the graphs lose every edge across a split of
        # V - cut, so that cut (0 too) separates graphs that pass the
        # degree floor.
        from collections import Counter

        kinds, verdicts = Counter(), Counter()
        for seed in range(2500):
            rng, n = rng_below(seed + 70000, 14)
            n += 1
            rng, m = rng_below(rng, n * n + 1)
            rng, cut = rng_below(rng, n)
            rng, split = rng_below(rng, n)
            edges = set()
            for _ in range(m):
                rng, u = rng_below(rng, n)
                rng, v = rng_below(rng, n)
                if u != v:
                    edges.add((u, v))
            glued = {(u, v) for u, v in edges
                     if cut in (u, v) or (u < split) == (v < split)}
            for g in build(n, sorted(edges)), build(n, sorted(glued)):
                for root in range(n):
                    found = dominator_tree(g.out_adj, g.in_adj, root)
                    assert found == reference_inner(
                        g.out_adj, g.in_adj, root), (g, root)
                    if found is not None:
                        kinds[not found] += 1
                if n < 3:
                    continue
                two_vc = _is_2vc(n, g.out_adj, g.in_adj)
                assert two_vc == (_strong_articulation_points(
                    n, g.out_adj, g.in_adj) == set()), g
                floor = min(map(len, g.out_adj + g.in_adj)) >= 2
                verdicts[floor, two_vc] += 1
        assert kinds[True] >= 1000 and kinds[False] >= 1000, kinds
        # past the degree floor, 2VC or not
        assert verdicts[True, True] >= 500, verdicts
        assert verdicts[True, False] >= 20, verdicts

    def test_squared_cycle_reverse_tree(self):
        # without (1, 0), (2, 0) and (n-1, 0), n-2 is 0's only
        # in-neighbour: the tree from 0 is flat, its reverse is not
        for n in (8, 9, 40, 4000):
            drop = {(1, 0), (2, 0), (n - 1, 0)}
            g = build(n, [e for a, b in ladder_pairs("squared", n)
                          for e in ((a, b), (b, a)) if e not in drop])
            assert dominator_tree(g.out_adj, g.in_adj, 0) == set()
            assert dominator_tree(g.in_adj, g.out_adj, 0) == {n - 2}
            if n < 100:
                assert reference_inner(g.in_adj, g.out_adj, 0) == {n - 2}
            assert not _is_2vc(n, g.out_adj, g.in_adj)
            assert strong_articulation_points_fast(g) == {n - 2}

    def test_gates_chain_pinned(self):
        for k in (2, 3, 5, 8, 1000):
            g = gates(k)
            chain = {3 * i - 2 for i in range(2, k + 1)}
            assert dominator_tree(g.out_adj, g.in_adj, 0) == chain
            assert strong_articulation_points_fast(g) == chain
            if k <= 8:
                assert strong_articulation_points_bruteforce(g) == chain

    def test_deep_chains_pinned(self):
        # the iterative scheme needs ~13 s for the gate verdict and ~6.6 s
        # of trees for the prism one; both are far below that now
        assert not is_2vertex_connected(gates(8000))  # n = 24,001
        g = bidirected(1200, ladder_pairs("prism", 1200))
        assert is_2v_strongly_biconnected(algorithm3(g, precheck=False).subgraph)


def inner(g, root):
    return dominator_tree(g.out_adj, g.in_adj, root)


class TestNontrivialDominators:
    def test_fixtures(self):
        assert inner(DIAMOND, 0) == set()
        assert inner(CHAIN4, 0) == {1, 2}
        assert inner(BK4, 0) == set()

    def test_members_disconnect_on_deletion(self):
        for seed in range(30):
            g = random_sc_graph(seed + 600, max_n=20)
            for d in inner(g, 0):
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


    def test_matches_deletion_definition(self):
        # by definition alone, from every root: None iff some vertex is
        # unreached, else d is an inner vertex iff G - d leaves some other
        # vertex unreachable from the root
        reached = kinds = 0
        for seed in range(2000):
            rng, n = rng_below(seed + 120000, 11)
            n += 2
            rng, m = rng_below(rng, 3 * n)
            edges = set()
            for _ in range(m + n):
                rng, u = rng_below(rng, n)
                rng, v = rng_below(rng, n)
                if u != v:
                    edges.add((u, v))
            g = build(n, sorted(edges))
            for root in range(n):
                if reached_without(g, root) < n:
                    assert inner(g, root) is None, (g, root)
                    continue
                result = inner(g, root)
                assert result == {
                    d for d in range(n)
                    if d != root and reached_without(g, root, d) < n - 1
                }, (g, root)
                reached += 1
                kinds += bool(result)
        assert reached >= 5000 and min(kinds, reached - kinds) >= 1000, (
            reached, kinds)


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
