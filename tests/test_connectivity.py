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
    same_sbcc,
    scc,
    strong_articulation_points_bruteforce,
)
from sbspan.dominators import dominator_tree
from sbspan.generator import rng_below
from sbspan.graph import delete_edge, delete_vertex
from fixtures import (
    BBOWTIE, BK4, BOWTIE, C4, CHAIN4, DIAMOND, OCT8, bidirected, ladder_pairs,
)


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


def components(n, adj, gone=()):
    """Number of connected components, treating the vertices in gone as
    absent."""
    seen = set(gone)
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


class TestBiconnected:
    def test_fixtures(self):
        assert _biconnected(und(C4), C4.n)
        assert not _biconnected(und(BBOWTIE), BBOWTIE.n)

    def test_tiny_conventions(self):
        for g, expect in ((build(2, [(0, 1)]), True), (build(2, []), False),
                          (build(1, []), True)):
            assert _biconnected(und(g), g.n) == expect

    def test_matches_block_reading(self):
        # three or more vertices left, by definition: connected, and still
        # connected without any one more vertex
        cases = [(seed, random_graph(seed + 40)) for seed in range(50)]
        for n in range(6, 17, 2):
            for kind in ("prism", "moebius", "squared"):
                cases.append(((kind, n), bidirected(n, ladder_pairs(kind, n))))
        verdicts = set()
        for case, g in cases:
            adj = und(g)
            for skip in (None, *range(g.n)):
                left = [v for v in range(g.n) if v != skip]
                if len(left) < 3:
                    continue
                expect = all(components(g.n, adj, {skip, v}) == 1
                             for v in (skip, *left))
                assert _biconnected(adj, g.n, skip) == expect, (case, skip)
                verdicts.add(expect)
        assert verdicts == {False, True}

    def test_deep_known_answers(self):
        # n far above the recursion limit: every walk must be iterative
        n, half = 5000, 2500
        cycle = build(n, [(i, (i + 1) % n) for i in range(n)])
        adj = und(cycle)
        assert _biconnected(adj, n)
        for skip in (0, half):  # a path is left
            assert not _biconnected(adj, n, skip)
        # two directed cycles through vertex 0, a figure eight
        eight = build(n, [(i, (i + 1) % half) for i in range(half)]
                      + [(0, half)]
                      + [(i, i + 1) for i in range(half, n - 1)]
                      + [(n - 1, 0)])
        for skip in (None, 0, 3):
            assert not _biconnected(und(eight), n, skip)
        assert dominator_tree(cycle.out_adj, cycle.in_adj, 0) == (
            None, *range(n - 1))
        assert dominator_tree(cycle.in_adj, cycle.out_adj, 0) == (
            None, *range(2, n), 0)


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


def three_connected(adj, n):
    """The per-vertex definition of the underlying half: biconnected after
    deleting any one vertex."""
    return all(_biconnected(adj, n, v) for v in range(n))


def relabeled(n, pairs, rnd):
    """Adjacency lists of the pairs after a random relabeling, each list in
    random order, so that the DFS root and arc order vary."""
    label = list(range(n))
    rnd.shuffle(label)
    adj = [[] for _ in range(n)]
    for a, b in pairs:
        adj[label[a]].append(label[b])
        adj[label[b]].append(label[a])
    for a in adj:
        rnd.shuffle(a)
    return adj


def kind_of(adj, n, verdict):
    """Why adj, given the definition's verdict, is 3-connected or not."""
    if verdict:
        return "3-connected"
    if components(n, adj) > 1:
        return "disconnected"
    if not _biconnected(adj, n):
        return "cut vertex"
    # only the path search can answer these
    if min(map(len, adj)) >= 3:
        return "separation pair, degree >= 3"
    return "separation pair"


class TestThreeConnected:
    """``_three_connected`` against the per-vertex definition."""

    def _check(self, cases):
        from collections import Counter

        from sbspan.connectivity import _three_connected

        kinds = Counter()
        for case, n, adj in cases:
            expect = three_connected(adj, n)
            assert _three_connected(adj, n) == expect, case
            kinds[kind_of(adj, n, expect)] += 1
        return kinds

    def test_random_graphs(self):
        def cases():
            for seed in range(1500):
                rng, n = rng_below(seed + 9000, 11)
                n += 4
                rng, percent = rng_below(rng, 76)
                adj = [[] for _ in range(n)]
                for u in range(n):
                    for v in range(u + 1, n):
                        rng, r = rng_below(rng, 100)
                        if r < 20 + percent:
                            adj[u].append(v)
                            adj[v].append(u)
                yield seed, n, adj

        kinds = self._check(cases())
        # 734 3-connected, 285 cut vertex, 241 disconnected, 240 with a
        # separation pair (each with a vertex of degree 2 or less)
        assert min(kinds["3-connected"], kinds["cut vertex"],
                   kinds["disconnected"], kinds["separation pair"]) >= 200, kinds

    def test_two_sums(self):
        # 2 to 6 pieces glued on vertex pairs, plus up to 3 chords: a glued
        # pair separates unless a chord crosses it.  These are the type-2
        # cases.  Keep the set large: without the type-1 check's clause on
        # unvisited tree arcs, 13 of these 3,000 verdicts change, and no
        # other test's.
        import random

        def piece(rnd):
            kind = rnd.choice(("prism", "moebius", "squared", "dense"))
            if kind != "dense":
                n = rnd.randrange(6, 14, 2)
                return n, ladder_pairs(kind, n)
            n = rnd.randint(4, 8)
            return n, [(a, b) for a in range(n) for b in range(a + 1, n)
                       if rnd.random() < 0.7]

        def cases():
            rnd = random.Random(14)
            for i in range(3000):
                n, pairs = piece(rnd)
                pairs = set(pairs)
                for _ in range(rnd.randint(1, 5)):
                    k, more = piece(rnd)
                    glue = [*rnd.sample(range(n), 2), *range(n, n + k - 2)]
                    pairs |= {(glue[a], glue[b]) for a, b in more}
                    n += k - 2
                for _ in range(rnd.randint(0, 3)):
                    pairs.add(tuple(rnd.sample(range(n), 2)))
                pairs = {tuple(sorted(e)) for e in pairs}
                yield i, n, relabeled(n, pairs, rnd)

        kinds = self._check(cases())
        # 1,447 biconnected, of minimum degree 3, not 3-connected; 542
        # 3-connected
        assert kinds["separation pair, degree >= 3"] >= 1000, kinds
        assert kinds["3-connected"] >= 300, kinds

    def test_ladders_and_squared_cycles(self):
        import random

        rnd = random.Random(6)
        kinds = self._check(
            ((kind, n), n, relabeled(n, ladder_pairs(kind, n), rnd))
            for n in range(6, 81)
            for kind in ("prism", "moebius", "squared")
            if kind == "squared" or n % 2 == 0)
        assert kinds == {"3-connected": 75 + 2 * 38}

    def test_single_edge_deletions_of_generated(self):
        from sbspan import GenConfig, generate

        def cases():
            for n in range(4, 16):
                for seed in range(30):
                    g = generate(GenConfig(n=n, seed=seed))
                    yield (n, seed), n, und(g)
                    for e in g.edges:
                        yield (n, seed, e), n, _und_adj(*_deleted_lists(g, e))

        kinds = self._check(cases())
        # 14,622 3-connected, 123 not
        assert kinds["3-connected"] >= 10000
        assert kinds["separation pair"] >= 100, kinds

    def test_known_answers(self):
        from itertools import combinations

        from sbspan.connectivity import _three_connected, _two_vsb_violation

        k14 = bidirected(14, combinations(range(14), 2))
        # two K12 sharing vertices 10 and 11: 2VC, separated by {10, 11}
        glued = bidirected(22, {*combinations(range(12), 2),
                                *combinations(range(10, 22), 2)})
        # vertex 0 keeps only neighbours 1 and 2
        cut = bidirected(14, [(a, b) for a, b in combinations(range(14), 2)
                              if a > 0 or b < 3])
        for g, feasible in ((k14, True), (glued, False), (cut, False)):
            assert is_2vertex_connected(g)
            assert three_connected(und(g), g.n) == feasible
            assert _three_connected(und(g), g.n) == feasible
            assert _two_vsb_violation(g.n, g.out_adj, g.in_adj) == (not feasible)
        assert glued.m == 2 * 131

    def test_deep_known_answers(self):
        # n far above the recursion limit: every walk must be iterative
        from sbspan.connectivity import _three_connected

        n, half = 5000, 2500
        for kind in ("prism", "moebius", "squared"):
            adj = und(bidirected(n, ladder_pairs(kind, n)))
            assert _three_connected(adj, n), kind
            # two copies of half the size glued on the pair {0, 1}: a
            # separation pair found deep inside one long path
            pairs = ladder_pairs(kind, half)
            shift = [0, 1, *range(half, 2 * half - 2)]
            glued = {*pairs, *((shift[a], shift[b]) for a, b in pairs)}
            adj = und(bidirected(2 * half - 2, glued))
            assert min(map(len, adj)) >= 3 and _biconnected(adj, len(adj))
            assert not _three_connected(adj, len(adj)), kind

    def test_dense_two_vsb_violation(self):
        # dense 2VC graphs, some with a vertex cut down to 2 or 3 neighbours
        from collections import Counter

        from sbspan.connectivity import _is_2vc, _two_vsb_violation

        undirected_verdicts = Counter()
        for seed in range(300):
            rng, n = rng_below(seed + 5000, 12)
            n += 13
            rng, percent = rng_below(rng, 21)
            edges = []
            for u in range(n):
                for v in range(n):
                    rng, r = rng_below(rng, 100)
                    if u != v and r < 75 + percent:
                        edges.append((u, v))
            rng, keep = rng_below(rng, 3)
            if keep:
                x, near = n - 1, range(keep + 1)
                edges = [(u, v) for u, v in edges if x not in (u, v)]
                edges += [e for w in near for e in ((x, w), (w, x))]
            g = build(n, edges)
            directed = _is_2vc(n, g.out_adj, g.in_adj)
            undirected = three_connected(und(g), n)
            assert _two_vsb_violation(n, g.out_adj, g.in_adj) == (
                not (directed and undirected)), seed
            undirected_verdicts[undirected] += directed
        # all 300 are 2VC: 207 underlying 3-connected, 93 not
        assert min(undirected_verdicts[False], undirected_verdicts[True]) >= 50


class TestBArticulationPoints:
    def test_fixtures(self):
        assert b_articulation_points(BK4) == set()
        assert b_articulation_points(C4) == {0, 1, 2, 3}
        assert b_articulation_points(BBOWTIE) == {0, 1, 2, 3, 4}

    def test_precondition(self):
        with pytest.raises(ValueError):
            b_articulation_points(build(1, []))

    def test_matches_deletion_definition(self):
        from sbspan import GenConfig, generate

        samples = [random_graph(seed + 4000) for seed in range(80)]
        # feasible inputs, which take the 2VSB fast path
        samples += [generate(GenConfig(n=n, seed=s))
                    for n in range(4, 13) for s in range(20)]
        for g in samples:
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
        # some vertex set holding w and x induces a strongly biconnected
        # subgraph
        from collections import Counter
        from itertools import combinations

        def induces_sb(g, verts):
            pos = {v: i for i, v in enumerate(verts)}
            return is_strongly_biconnected(build(len(verts), [
                (pos[a], pos[b]) for a, b in g.edges if a in pos and b in pos
            ]))

        verdicts = Counter()
        for seed in range(30):
            g = random_graph(seed + 8000, max_n=8)
            for w in range(g.n):
                for x in range(w + 1, g.n):
                    others = [v for v in range(g.n) if v not in (w, x)]
                    expect = any(
                        induces_sb(g, (w, x, *more))
                        for size in range(len(others) + 1)
                        for more in combinations(others, size)
                    )
                    assert same_sbcc(g, w, x) == expect, (seed, w, x)
                    verdicts[expect] += 1
        assert verdicts[True] >= 100 and verdicts[False] >= 100


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


def _count_reroutes(monkeypatch):
    """Counter of ``_reroute``'s results, by verdict, from here on."""
    from collections import Counter

    from sbspan import connectivity

    counts = Counter()
    reroute = connectivity._reroute

    def counted(*args):
        counts[found := reroute(*args)] += 1
        return found

    monkeypatch.setattr(connectivity, "_reroute", counted)
    return counts


class TestDisjointPaths:
    def test_matches_min_vertex_separator(self, monkeypatch):
        # Menger: k internally disjoint paths iff no separator below k.
        from collections import Counter
        from itertools import combinations

        from sbspan.connectivity import _disjoint_paths

        reroutes = _count_reroutes(monkeypatch)
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
                        for k in range(1, 4):
                            expect = not any(
                                _separated(adj, g.n, s, t, cut)
                                for size in range(k)
                                for cut in combinations(rest, size)
                            )
                            args = (g.out_adj, g.in_adj, s, t, k, undirected)
                            got = _disjoint_paths(*args)
                            assert got == expect, (seed, undirected, s, t, k)
                            verdicts[undirected, k, expect] += 1
        assert all(verdicts[u, k, x] for u in (False, True) for k in (2, 3)
                   for x in (False, True))
        # the residual step both found a rerouted path and proved a maximum
        assert reroutes[True] and reroutes[False]

    def test_cancels_a_blocking_path(self, monkeypatch):
        from sbspan.connectivity import _disjoint_paths

        # BFS first routes s-a-d-t; the second path must cancel a->d to
        # reach s-a-b-t plus s-c-d-t.
        s, a, b, c, d, t = range(6)
        g = build(6, [(s, a), (s, c), (a, d), (a, b), (c, d), (d, t), (b, t)])
        reroutes = _count_reroutes(monkeypatch)
        assert _disjoint_paths(g.out_adj, g.in_adj, s, t, 2)
        assert reroutes == {True: 1}
        assert not _disjoint_paths(g.out_adj, g.in_adj, s, t, 3)
        assert not _disjoint_paths(g.out_adj, g.in_adj, t, s, 1)
        assert _disjoint_paths(g.out_adj, g.in_adj, t, s, 2, undirected=True)

    def test_free_search_trap_reroutes(self, monkeypatch):
        from sbspan.connectivity import _disjoint_paths

        # s-a-b-t is the one shortest path and meets both detours,
        # s-a-p-q-t and s-c-d-b-t, which are disjoint only without it.
        s, a, b, t, p, q, c, d = range(8)
        g = build(8, [(s, a), (a, b), (b, t), (a, p), (p, q), (q, t),
                      (s, c), (c, d), (d, b)])
        reroutes = _count_reroutes(monkeypatch)
        assert _disjoint_paths(g.out_adj, g.in_adj, s, t, 2)
        assert reroutes == {True: 1}

    @staticmethod
    def _continue_undirected(g, e, reroutes):
        """Without e = (u, v), the undirected 3-path verdict grown from the
        directed 2-path flow, and ``_reroute``'s results while growing it;
        None where ``_keeps_2vsb`` would not continue."""
        from sbspan.connectivity import _disjoint_paths

        u, v = e
        out_adj, in_adj = _deleted_lists(g, e)
        prv = {}
        if (not _disjoint_paths(out_adj, in_adj, u, v, 2, prv=prv)
                or u in out_adj[v]):
            return None
        before = reroutes.copy()
        got = _disjoint_paths(out_adj, in_adj, u, v, 3, undirected=True,
                              prv=prv)
        return got, reroutes - before

    def test_continued_flow_matches_fresh_on_edge_deletions(self, monkeypatch):
        from collections import Counter

        from sbspan import GenConfig, generate
        from sbspan.connectivity import _disjoint_paths

        reroutes = _count_reroutes(monkeypatch)
        verdicts, continued = Counter(), Counter()
        for n in range(4, 16):
            for seed in range(60):
                g = generate(GenConfig(n=n, seed=seed))
                for e in g.edges:
                    result = self._continue_undirected(g, e, reroutes)
                    if result is None:
                        continue
                    got, seen = result
                    continued += seen
                    fresh = _disjoint_paths(*_deleted_lists(g, e), *e, 3,
                                            undirected=True)
                    assert got == fresh, (n, seed, e)
                    verdicts[got] += 1
        assert verdicts[True] and verdicts[False]
        # the continued searches both rerouted the directed paths and
        # proved a maximum
        assert continued[True] and continued[False]

    @pytest.mark.parametrize("n, seed, e, verdict", [
        (5, 10, (4, 2), True),  # the third path reroutes a directed one
        (6, 41, (1, 0), False),  # the residual search proves two the most
    ])
    def test_continued_flow_pinned(self, monkeypatch, n, seed, e, verdict):
        from sbspan import GenConfig, generate

        reroutes = _count_reroutes(monkeypatch)
        g = generate(GenConfig(n, seed))
        got, seen = self._continue_undirected(g, e, reroutes)
        assert got is verdict and seen == {verdict: 1}


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
