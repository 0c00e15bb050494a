import pytest

from sbspan import (
    b_articulation_points,
    build,
    is_2v_strongly_biconnected,
    is_2vertex_connected,
    is_strongly_biconnected,
    is_strongly_connected,
)
from sbspan.connectivity import (
    _biconnected,
    _und_adj,
    blocks,
    same_sbcc,
    scc,
    strong_articulation_points_bruteforce,
)
from sbspan.generator import rng_below
from sbspan.graph import delete_edge, delete_vertex
from fixtures import BBOWTIE, BK4, BOWTIE, C4, CHAIN4, DIAMOND, OCT8


def random_graph(seed, max_n=12, density=3):
    rng, nv = rng_below(seed, max_n - 1)
    n = 2 + nv
    rng, mv = rng_below(rng, density * n)
    edges, seen = [], set()
    attempts = 0
    while len(edges) < mv and attempts < 10 * mv + 20:
        attempts += 1
        rng, u = rng_below(rng, n)
        rng, v = rng_below(rng, n)
        if u != v and (u, v) not in seen:
            seen.add((u, v))
            edges.append((u, v))
    return build(n, edges)


def add_random_edge(g, seed):
    """One edge not already present, or None if g is complete."""
    missing = [
        (u, v) for u in range(g.n) for v in range(g.n)
        if u != v and (u, v) not in g.edge_set
    ]
    if not missing:
        return None
    _, i = rng_below(seed, len(missing))
    return build(g.n, (*g.edges, missing[i]))


def und(g):
    """Underlying-graph adjacency of g."""
    return _und_adj(g.out_adj, g.in_adj)


def cut_vertices(bls):
    """Vertices that lie in two or more blocks."""
    seen, cuts = set(), set()
    for bl in bls:
        cuts |= seen & bl
        seen |= bl
    return cuts


def components(n, adj, skip=None):
    """Number of connected components, treating skip as absent."""
    seen = {skip}
    count = 0
    for s in range(n):
        if s in seen:
            continue
        count += 1
        seen.add(s)
        stack = [s]
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
    return count


class TestScc:
    def test_fixture_counts(self):
        assert len(set(scc(C4))) == 1
        assert len(set(scc(CHAIN4))) == 4
        assert len(set(scc(DIAMOND))) == 1

    def test_partition_semantics(self):
        assert set(scc(BOWTIE)) == {0}
        assert sorted(scc(CHAIN4)) == [0, 1, 2, 3]

    def test_ids_dense(self):
        for seed in range(30):
            comp = scc(random_graph(seed))
            assert set(comp) == set(range(max(comp) + 1))

    def test_matches_strong_connectivity(self):
        for seed in range(60):
            g = random_graph(seed + 500)
            assert is_strongly_connected(g) == (len(set(scc(g))) == 1)

    def test_mutual_reachability(self):
        # comp[u] == comp[v] iff u reaches v and v reaches u
        for seed in range(20):
            g = random_graph(seed + 900, max_n=8)
            comp = scc(g)
            reach = [set() for _ in range(g.n)]
            for s in range(g.n):
                stack, seen = [s], {s}
                while stack:
                    v = stack.pop()
                    for w in g.out_adj[v]:
                        if w not in seen:
                            seen.add(w)
                            stack.append(w)
                reach[s] = seen
            for u in range(g.n):
                for v in range(g.n):
                    mutual = v in reach[u] and u in reach[v]
                    assert (comp[u] == comp[v]) == mutual


class TestStronglyConnected:
    def test_fixtures(self):
        assert is_strongly_connected(C4)
        assert not is_strongly_connected(CHAIN4)
        assert not is_strongly_connected(delete_vertex(BOWTIE, 0)[0])

    def test_single_vertex(self):
        assert is_strongly_connected(build(1, []))


class TestBlocks:
    def test_bbowtie(self):
        bls = blocks(BBOWTIE.n, und(BBOWTIE))
        assert set(bls) == {frozenset({0, 1, 2}), frozenset({0, 3, 4})}
        assert cut_vertices(bls) == {0}

    def test_bk4(self):
        bls = blocks(BK4.n, und(BK4))
        assert bls == (frozenset({0, 1, 2, 3}),)
        assert cut_vertices(bls) == set()

    def test_chain4(self):
        bls = blocks(CHAIN4.n, und(CHAIN4))
        assert set(bls) == {
            frozenset({0, 1}), frozenset({1, 2}), frozenset({2, 3})
        }
        assert cut_vertices(bls) == {1, 2}

    def test_isolated_vertices_are_singleton_blocks(self):
        g = build(3, [(0, 1)])
        assert set(blocks(g.n, und(g))) == {frozenset({0, 1}), frozenset({2})}

    def test_structure_properties(self):
        for seed in range(40):
            g = random_graph(seed + 700)
            adj = und(g)
            bls = blocks(g.n, adj)
            # every pair lies in exactly one block
            for a in range(g.n):
                for b in adj[a]:
                    holding = [bl for bl in bls if a in bl and b in bl]
                    assert len(holding) == 1
            # the multi-block vertices are exactly the vertices whose
            # deletion splits a connected component
            whole = components(g.n, adj)
            assert cut_vertices(bls) == {
                v for v in range(g.n) if components(g.n, adj, v) > whole
            }


class TestBiconnected:
    def test_fixtures(self):
        assert _biconnected(und(C4), C4.n)
        assert not _biconnected(und(BBOWTIE), BBOWTIE.n)

    def test_tiny_conventions(self):
        for g, expect in ((build(2, [(0, 1)]), True), (build(2, []), False),
                          (build(1, []), True)):
            assert _biconnected(und(g), g.n) == expect

    def test_matches_block_reading(self):
        # n >= 3: biconnected iff connected with no cut vertex
        for seed in range(50):
            g = random_graph(seed + 40)
            if g.n < 3:
                continue
            adj = und(g)
            bls = blocks(g.n, adj)
            expect = components(g.n, adj) == 1 and not cut_vertices(bls)
            assert _biconnected(adj, g.n) == expect
            assert set().union(*bls) == set(range(g.n))


class TestStronglyBiconnected:
    def test_fixtures(self):
        assert is_strongly_biconnected(C4)
        assert not is_strongly_biconnected(BOWTIE)
        assert is_strongly_biconnected(BK4)

    def test_equals_composition(self):
        for seed in range(60):
            g = random_graph(seed + 60)
            expect = is_strongly_connected(g) and _biconnected(und(g), g.n)
            assert is_strongly_biconnected(g) == expect


class TestStrongArticulationPoints:
    def test_fixtures(self):
        assert strong_articulation_points_bruteforce(BBOWTIE) == {0}
        assert strong_articulation_points_bruteforce(C4) == {0, 1, 2, 3}
        assert strong_articulation_points_bruteforce(DIAMOND) == {0, 3}

    def test_precondition(self):
        with pytest.raises(ValueError):
            strong_articulation_points_bruteforce(CHAIN4)
        with pytest.raises(ValueError):
            strong_articulation_points_bruteforce(build(2, [(0, 1), (1, 0)]))

    def test_matches_deletion_definition(self):
        for seed in range(200):
            g = random_graph(seed + 1000)
            if g.n < 3 or not is_strongly_connected(g):
                continue
            expect = {
                v for v in range(g.n)
                if not is_strongly_connected(delete_vertex(g, v)[0])
            }
            assert strong_articulation_points_bruteforce(g) == expect


class TestTwoVertexConnected:
    def test_fixtures(self):
        assert is_2vertex_connected(BK4)
        assert not is_2vertex_connected(C4)
        assert is_2vertex_connected(OCT8)

    def test_methods_agree(self):
        # the dominator-based predicate against its definition
        for seed in range(80):
            g = random_graph(seed + 2000)
            expect = (
                g.n >= 3
                and min(map(len, g.out_adj + g.in_adj)) >= 2
                and is_strongly_connected(g)
                and not strong_articulation_points_bruteforce(g)
            )
            assert is_2vertex_connected(g) == expect


class TestTwoVertexStronglyBiconnected:
    def test_fixtures(self):
        assert is_2v_strongly_biconnected(BK4)
        assert not is_2v_strongly_biconnected(C4)
        assert is_2v_strongly_biconnected(OCT8)

    def test_bidirected_triangle_too_small(self):
        tri = build(3, [(0, 1), (1, 0), (1, 2), (2, 1), (2, 0), (0, 2)])
        assert is_2vertex_connected(tri)
        assert not is_2v_strongly_biconnected(tri)

    def test_equals_deletion_composition(self):
        from sbspan import GenConfig, generate
        from sbspan.connectivity import _two_vsb_violation

        samples = [
            random_graph(seed + 3000, max_n=10, density=5)
            for seed in range(120)
        ]
        # include known-feasible inputs so the True branch is exercised
        samples += [BK4, OCT8]
        # near misses: every single-edge deletion of a feasible instance
        for n in range(4, 10):
            for s in range(40):
                g = generate(GenConfig(n=n, seed=s))
                samples.append(g)
                samples += [delete_edge(g, e) for e in g.edges]
        feasible_seen = only_directed = only_undirected = 0
        for g in samples:
            if g.n < 4:
                continue
            expect = is_strongly_biconnected(g) and all(
                is_strongly_biconnected(delete_vertex(g, v)[0])
                for v in range(g.n)
            )
            assert is_2v_strongly_biconnected(g) == expect
            assert _two_vsb_violation(g.n, g.out_adj, g.in_adj) == (not expect)
            feasible_seen += expect
            # which half of the 2VC + underlying-3VC form fails
            directed = is_2vertex_connected(g)
            adj = und(g)
            undirected = all(_biconnected(adj, g.n, v) for v in range(g.n))
            assert expect == (directed and undirected)
            only_directed += undirected and not directed
            only_undirected += directed and not undirected
        assert feasible_seen >= 6
        # 1,105 and 41 of the 5,514 near misses
        assert only_directed >= 1000
        assert only_undirected >= 30

    def test_implies_2vc_and_degree_floor(self):
        from sbspan import generate, GenConfig

        for seed in range(5):
            g = generate(GenConfig(n=6, seed=seed))
            assert is_2v_strongly_biconnected(g)
            assert is_2vertex_connected(g)
            assert g.m >= 2 * g.n


class TestBArticulationPoints:
    def test_fixtures(self):
        assert b_articulation_points(BK4) == set()
        assert b_articulation_points(C4) == {0, 1, 2, 3}
        assert b_articulation_points(BBOWTIE) == {0, 1, 2, 3, 4}

    def test_precondition(self):
        with pytest.raises(ValueError):
            b_articulation_points(build(1, []))

    def test_matches_deletion_definition(self):
        for seed in range(80):
            g = random_graph(seed + 4000)
            if g.n < 2:
                continue
            expect = {
                v for v in range(g.n)
                if not is_strongly_biconnected(delete_vertex(g, v)[0])
            }
            assert b_articulation_points(g) == expect

    def test_sap_subset_of_bap(self):
        for seed in range(100):
            g = random_graph(seed + 5000)
            if g.n < 3 or not is_strongly_connected(g):
                continue
            assert strong_articulation_points_bruteforce(g) <= \
                b_articulation_points(g)

    def test_monotone_under_edge_addition(self):
        checked = 0
        for seed in range(200):
            g = random_graph(seed + 6000)
            if g.n < 2:
                continue
            bigger = add_random_edge(g, seed)
            if bigger is None:
                continue
            checked += 1
            assert b_articulation_points(bigger) <= b_articulation_points(g)
        assert checked >= 50


class TestSameSbcc:
    def test_fixtures(self):
        assert same_sbcc(BBOWTIE, 1, 2)
        assert not same_sbcc(BBOWTIE, 1, 3)
        assert not same_sbcc(CHAIN4, 0, 1)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            same_sbcc(C4, 1, 1)
        with pytest.raises(ValueError):
            same_sbcc(C4, 0, 4)

    def test_symmetric(self):
        for seed in range(40):
            g = random_graph(seed + 7000, max_n=8)
            for w in range(g.n):
                for x in range(w + 1, g.n):
                    assert same_sbcc(g, w, x) == same_sbcc(g, x, w)

    def test_definition(self):
        # same SCC plus a shared block of the SCC-induced underlying graph
        for seed in range(30):
            g = random_graph(seed + 8000, max_n=8)
            comp = scc(g)
            for w in range(g.n):
                for x in range(w + 1, g.n):
                    if comp[w] != comp[x]:
                        assert not same_sbcc(g, w, x)
                        continue
                    members = [v for v in range(g.n)
                               if comp[v] == comp[w]]
                    pos = {v: i for i, v in enumerate(members)}
                    sub = build(len(members), [
                        (pos[a], pos[b]) for a, b in g.edges
                        if a in pos and b in pos
                    ])
                    expect = any(
                        pos[w] in bl and pos[x] in bl
                        for bl in blocks(sub.n, und(sub))
                    )
                    assert same_sbcc(g, w, x) == expect


def _separated(adj, n, s, t, removed):
    """True iff t is unreachable from s once the vertices in removed go."""
    seen = {s, *removed}
    stack = [s]
    while stack:
        x = stack.pop()
        for y in adj[x]:
            if y == t:
                return False
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return True


def _deleted_lists(g, e):
    """Mutable adjacency of g without e, as the deletion pass holds it."""
    u, v = e
    out_adj = [list(a) for a in g.out_adj]
    in_adj = [list(a) for a in g.in_adj]
    out_adj[u].remove(v)
    in_adj[v].remove(u)
    return out_adj, in_adj


class TestDisjointPaths:
    def test_matches_min_vertex_separator(self):
        # Menger: k internally disjoint paths iff no separator below k.  The
        # exact flow is checked on its own, then the greedy-fronted routine.
        from collections import Counter
        from itertools import combinations, product

        from sbspan.connectivity import _disjoint_paths, _flow_paths

        verdicts = Counter()
        for seed in range(150):
            g = random_graph(seed + 9000, max_n=9, density=4)
            for undirected in (False, True):
                adj = (
                    [a + b for a, b in zip(g.out_adj, g.in_adj)]
                    if undirected else g.out_adj
                )
                for s in range(g.n):
                    for t in range(g.n):
                        if s == t or t in adj[s]:
                            continue
                        rest = [x for x in range(g.n) if x not in (s, t)]
                        # also without one vertex of the rest, picked by seed
                        avoids = (None, rest[seed % len(rest)]) if rest else (None,)
                        for avoid, k in product(avoids, range(1, 4)):
                            gone = () if avoid is None else (avoid,)
                            expect = not any(
                                _separated(adj, g.n, s, t, (*gone, *cut))
                                for size in range(k)
                                for cut in combinations(rest, size)
                            )
                            args = (g.out_adj, g.in_adj, s, t, k, undirected, avoid)
                            got = _flow_paths(*args)
                            assert got == expect, (seed, undirected, s, t, k, avoid)
                            assert _disjoint_paths(*args) == expect
                            verdicts[undirected, k, expect, avoid is None] += 1
        assert all(verdicts[u, k, x, a] for u in (False, True) for k in (2, 3)
                   for x in (False, True) for a in (False, True))

    def test_cancels_a_blocking_path(self):
        from sbspan.connectivity import _flow_paths

        # BFS first routes s-a-d-t; the second path must cancel a->d to
        # reach s-a-b-t plus s-c-d-t.
        s, a, b, c, d, t = range(6)
        g = build(6, [(s, a), (s, c), (a, d), (a, b), (c, d), (d, t), (b, t)])
        assert _flow_paths(g.out_adj, g.in_adj, s, t, 2)
        assert not _flow_paths(g.out_adj, g.in_adj, s, t, 3)
        assert not _flow_paths(g.out_adj, g.in_adj, t, s, 1)
        assert _flow_paths(g.out_adj, g.in_adj, t, s, 2, undirected=True)

    def test_greedy_trap_falls_back_to_flow(self):
        from sbspan.connectivity import _disjoint_paths, _flow_paths, _greedy_paths

        # s-a-b-t is the one shortest path and meets both detours,
        # s-a-p-q-t and s-c-d-b-t, which are disjoint only without it.
        s, a, b, t, p, q, c, d = range(8)
        g = build(8, [(s, a), (a, b), (b, t), (a, p), (p, q), (q, t),
                      (s, c), (c, d), (d, b)])
        args = (g.out_adj, g.in_adj, s, t, 2)
        assert not _greedy_paths(*args)
        assert _flow_paths(*args)
        assert _disjoint_paths(*args)

    def test_greedy_never_overclaims_on_edge_deletions(self):
        # Every single-edge deletion of small generated instances, in both
        # halves of the 2VSB deletion test: a greedy yes is a flow yes, and
        # the fronted routine equals the flow.
        from sbspan import GenConfig, generate
        from sbspan.connectivity import _disjoint_paths, _flow_paths, _greedy_paths

        checks = misses = 0
        for n in range(4, 16):
            for seed in range(60):
                g = generate(GenConfig(n=n, seed=seed))
                for u, v in g.edges:
                    out_adj, in_adj = _deleted_lists(g, (u, v))
                    halves = [(2, False)]
                    if u not in out_adj[v]:
                        halves.append((3, True))
                    for k, undirected in halves:
                        args = (out_adj, in_adj, u, v, k, undirected)
                        exact = _flow_paths(*args)
                        greedy = _greedy_paths(*args)
                        assert exact or not greedy, (n, seed, u, v, k)
                        assert _disjoint_paths(*args) == exact
                        checks += 1
                        misses += exact and not greedy
        assert checks == 44266
        assert misses  # the fallback decides some verdicts


class TestLocalDeletionTest:
    """The deletion pass's local tests against the definition predicates on
    the graph with the edge deleted, for feasible graphs."""

    def _check(self, g, edges, counts):
        from sbspan.connectivity import _keeps_2vc, _keeps_2vsb

        for e in edges:
            h = delete_edge(g, e)
            out_adj, in_adj = _deleted_lists(g, e)
            expect = is_2v_strongly_biconnected(h)
            assert _keeps_2vsb(out_adj, in_adj, *e) == expect, e
            expect_2vc = is_2vertex_connected(h)
            assert _keeps_2vc(out_adj, in_adj, *e) == expect_2vc, e
            counts[expect, expect_2vc] += 1

    def test_every_single_edge_deletion_small(self):
        from collections import Counter

        from sbspan import GenConfig, generate

        counts = Counter()
        for n in range(4, 13):
            for seed in range(40):
                g = generate(GenConfig(n=n, seed=seed))
                self._check(g, g.edges, counts)
        # both verdicts of both tests, and 2VC kept where 2VSB is lost
        assert counts[True, True] and counts[False, False] and counts[False, True]

    def test_sampled_edges_larger(self):
        from collections import Counter

        from sbspan import GenConfig, algorithm2, generate

        counts = Counter()
        for n, seeds in ((30, (1, 2)), (60, (1,))):
            for seed in seeds:
                g = generate(GenConfig(n=n, seed=seed))
                self._check(g, g.edges[::5], counts)
                # a minimal output rejects every deletion: long detours
                h = algorithm2(g, precheck=False).subgraph
                self._check(h, h.edges[::4], counts)
        assert counts[True, True] and counts[False, False]
