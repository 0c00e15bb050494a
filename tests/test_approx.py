import pytest

from sbspan import (
    AlgoTrace,
    GenConfig,
    algorithm1,
    algorithm2,
    algorithm3,
    b_articulation_points,
    build,
    generate,
    is_2v_strongly_biconnected,
    is_2vertex_connected,
    is_strongly_connected,
    minimal_2vcss,
)
from sbspan.approx import greedy_degree_cover
from sbspan.connectivity import same_sbcc, strong_articulation_points_bruteforce
from sbspan.graph import delete_edge, delete_vertex
from fixtures import BK4, C4, CHAIN4, OCT8, bidirected, ladder_pairs


def small_instances(count=8, start_seed=0):
    for i in range(count):
        n = 5 + (i % 4)  # n in 5..8
        yield generate(GenConfig(n=n, seed=start_seed + i))


class TestMinimal2vcss:
    def test_oct8_is_already_minimal(self):
        assert minimal_2vcss(OCT8) == OCT8

    def test_bk4(self):
        h = minimal_2vcss(BK4)
        assert is_2vertex_connected(h)
        assert 8 <= h.m <= 12
        # minimality: every surviving edge is necessary
        for e in h.edges:
            assert not is_2vertex_connected(delete_edge(h, e))

    def test_infeasible_input(self):
        with pytest.raises(ValueError):
            minimal_2vcss(C4)

    def test_sap_methods_agree(self):
        # every edge kept by the dominator-based pass is necessary by the
        # brute-force strong-articulation-point definition
        for g in small_instances(6, start_seed=40):
            h = minimal_2vcss(g)
            for e in h.edges:
                d = delete_edge(h, e)
                assert (
                    min(map(len, d.out_adj + d.in_adj)) < 2
                    or not is_strongly_connected(d)
                    or strong_articulation_points_bruteforce(d)
                )

    def test_output_spans_and_is_subgraph(self):
        for g in small_instances(4, start_seed=80):
            h = minimal_2vcss(g)
            assert h.n == g.n
            assert h.edge_set <= g.edge_set


def _definition_level_alg1(g):
    """Algorithm 1 by its definition: for each b-articulation point v of the
    minimal 2-vertex-connected subgraph h, while v still is one, re-add the
    first discarded edge avoiding v whose endpoints lie in different
    strongly biconnected components of h - v, rebuilding h each time."""
    h = minimal_2vcss(g)
    bap = frozenset(b_articulation_points(h))
    added = 0
    for v in sorted(bap):
        while v in b_articulation_points(h):
            hv, mapping = delete_vertex(h, v)
            w, x = next(
                (w, x) for w, x in g.edges
                if (w, x) not in h.edge_set and v not in (w, x)
                and not same_sbcc(hv, mapping[w], mapping[x])
            )
            h = build(g.n, (*h.edges, (w, x)))
            added += 1
    return h, AlgoTrace(l_bap_count=len(bap), bap_set=bap, edges_added=added)


class TestAlgorithm1:
    def test_oct8(self):
        r = algorithm1(OCT8)
        assert r.subgraph == OCT8
        assert r.algorithm == "alg1"
        assert r.trace.l_bap_count == 0
        assert r.trace.bap_set == frozenset()
        assert r.trace.edges_added == 0

    def test_bk4(self):
        r = algorithm1(BK4)
        assert is_2v_strongly_biconnected(r.subgraph)
        assert 8 <= r.edges_out <= 12

    def test_generator_instance(self):
        g = generate(GenConfig(n=10, seed=1))
        r = algorithm1(g)
        assert is_2v_strongly_biconnected(r.subgraph)
        assert r.edges_out < 30

    def test_infeasible_input(self):
        with pytest.raises(ValueError):
            algorithm1(C4)

    def test_trace_and_output_contracts(self):
        for g in small_instances(8):
            r = algorithm1(g)
            assert r.subgraph.n == g.n
            assert r.subgraph.edge_set <= g.edge_set
            assert is_2v_strongly_biconnected(r.subgraph)
            assert b_articulation_points(r.subgraph) == set()
            assert r.trace.l_bap_count == len(r.trace.bap_set)
            # re-derive the first-phase subgraph and its b-articulation set
            gplus = minimal_2vcss(g)
            assert r.trace.bap_set == frozenset(b_articulation_points(gplus))
            assert r.edges_out == gplus.m + r.trace.edges_added

    def test_repair_loop_fires(self):
        # the first-phase subgraph of this instance has b-articulation
        # points {2, 3}; one re-added edge repairs both
        g = generate(GenConfig(n=5, seed=1))
        gplus = minimal_2vcss(g)
        assert b_articulation_points(gplus) == {2, 3}
        r = algorithm1(g)
        assert r.trace.bap_set == frozenset({2, 3})
        assert r.trace.l_bap_count == 2
        assert r.trace.edges_added == 1
        assert r.edges_out == gplus.m + 1
        assert is_2v_strongly_biconnected(r.subgraph)
        assert b_articulation_points(r.subgraph) == set()

    def test_repair_stall_is_surfaced(self):
        from sbspan import RepairLoopStalled

        # The bidirected 5-cycle is 2-vertex connected but not 2VSB, already
        # minimal, and every vertex is a b-articulation point: there is no
        # discarded edge to re-add.
        g = build(5, [e for i in range(5)
                      for e in ((i, (i + 1) % 5), ((i + 1) % 5, i))])
        assert minimal_2vcss(g) == g
        assert b_articulation_points(g) == set(range(5))
        with pytest.raises(RepairLoopStalled):
            algorithm1(g, precheck=False)

    def test_matches_definition_level_repair(self):
        from collections import Counter

        cases = [(("generate", n, seed), generate(GenConfig(n=n, seed=seed)))
                 for n in range(4, 13) for seed in range(40)]
        # Bidirected prism, Moebius ladder and squared cycle: almost every
        # vertex of the first phase is a b-articulation point.
        for n in range(6, 17, 2):
            k = n // 2
            families = {
                "prism": [(i, (i + 1) % k) for i in range(k)]
                + [(k + i, k + (i + 1) % k) for i in range(k)]
                + [(i, k + i) for i in range(k)],
                "moebius": [(i, (i + 1) % n) for i in range(n)]
                + [(i, i + k) for i in range(k)],
                "squared": [(i, (i + d) % n) for i in range(n) for d in (1, 2)],
            }
            for name, pairs in families.items():
                edges = [e for a, b in pairs for e in ((a, b), (b, a))]
                cases.append(((name, n), build(n, edges)))
        repaired = Counter()
        for case, g in cases:
            r = algorithm1(g, precheck=False)
            ref, trace = _definition_level_alg1(g)
            assert r.subgraph == ref, case
            assert r.trace == trace, case
            repaired[case[0]] += trace.edges_added > 0
        assert repaired["generate"] >= 70
        assert repaired["prism"] == repaired["moebius"] == repaired["squared"] == 6


class TestAlgorithm2:
    def test_oct8(self):
        r = algorithm2(OCT8)
        assert r.subgraph == OCT8
        assert r.trace.edges_removed == 0

    def test_bk4_minimal(self):
        r = algorithm2(BK4)
        assert is_2v_strongly_biconnected(r.subgraph)
        assert 8 <= r.edges_out <= 12
        for e in r.subgraph.edges:
            assert not is_2v_strongly_biconnected(delete_edge(r.subgraph, e))

    def test_infeasible_input(self):
        with pytest.raises(ValueError):
            algorithm2(C4)

    def test_minimality_on_random_instances(self):
        for g in small_instances(6, start_seed=10):
            r = algorithm2(g)
            assert is_2v_strongly_biconnected(r.subgraph)
            assert r.trace.edges_removed == g.m - r.edges_out
            for e in r.subgraph.edges:
                assert not is_2v_strongly_biconnected(
                    delete_edge(r.subgraph, e)
                )


class TestGreedyDegreeCover:
    def test_c4_takes_everything(self):
        assert greedy_degree_cover(C4) == [(0, 1), (1, 2), (2, 3), (3, 0)]

    def test_bk4_scan(self):
        assert greedy_degree_cover(BK4) == [
            (0, 1), (0, 2), (0, 3), (1, 0), (2, 0), (3, 0)
        ]

    def test_oct8_scan(self):
        cover = greedy_degree_cover(OCT8)
        assert cover == [(0, 1), (1, 0), (2, 3), (3, 2)]
        assert len(cover) <= 8

    def test_covers_all_degrees(self):
        for g in small_instances(8, start_seed=20):
            cover = greedy_degree_cover(g)
            assert len(cover) <= 2 * g.n
            outs = {u for u, _ in cover}
            ins = {v for _, v in cover}
            assert outs == set(range(g.n))
            assert ins == set(range(g.n))

    def test_precondition(self):
        with pytest.raises(ValueError):
            greedy_degree_cover(CHAIN4)


class TestAlgorithm3:
    def test_oct8(self):
        r = algorithm3(OCT8)
        assert r.subgraph == OCT8
        assert r.trace.phase1_size == 4

    def test_bk4(self):
        r = algorithm3(BK4)
        assert is_2v_strongly_biconnected(r.subgraph)
        assert 8 <= r.edges_out <= 12

    def test_infeasible_input(self):
        with pytest.raises(ValueError):
            algorithm3(C4)

    def test_cover_protected_and_rest_minimal(self):
        for g in small_instances(6, start_seed=30):
            r = algorithm3(g)
            assert is_2v_strongly_biconnected(r.subgraph)
            cover = set(greedy_degree_cover(g))
            assert cover <= r.subgraph.edge_set
            assert r.trace.phase1_size == len(cover)
            for e in r.subgraph.edges:
                if e in cover:
                    continue
                assert not is_2v_strongly_biconnected(
                    delete_edge(r.subgraph, e)
                )


class TestSharedContracts:
    def test_size_floor_and_ceiling(self):
        for g in small_instances(8, start_seed=50):
            for fn in (algorithm1, algorithm2, algorithm3):
                r = fn(g)
                assert 2 * g.n <= r.edges_out <= g.m
                assert r.edges_out == r.subgraph.m

    def test_determinism(self):
        for g in small_instances(4, start_seed=60):
            for fn in (algorithm1, algorithm2, algorithm3):
                a = fn(g)
                b = fn(g)
                assert a.subgraph == b.subgraph
                assert a.trace == b.trace

    def test_elapsed_recorded(self):
        r = algorithm2(OCT8)
        assert r.elapsed >= 0.0


def _rebuild_per_candidate(g, predicate, protected=frozenset()):
    """Reference deletion loop: one delete_edge rebuild and one public
    predicate call per candidate edge."""
    h = g
    for e in g.edges:
        if e not in protected:
            candidate = delete_edge(h, e)
            if predicate(candidate):
                h = candidate
    return h


def _count_scans(monkeypatch):
    """The test each of the deletion pass's scans runs, from here on."""
    from sbspan import approx

    tests = []
    scan = approx._scan

    def counted(g, test, protected):
        tests.append(test)
        return scan(g, test, protected)

    monkeypatch.setattr(approx, "_scan", counted)
    return tests


def _relabeled(n, pairs, seed):
    """The bidirected graph of the pairs after a seeded random relabeling,
    its edges in random order."""
    import random

    rnd = random.Random(seed)
    label = list(range(n))
    rnd.shuffle(label)
    edges = [(label[a], label[b]) for x, y in pairs for a, b in ((x, y), (y, x))]
    rnd.shuffle(edges)
    return build(n, edges)


def _deletion_pass_inputs():
    for n in range(4, 13):
        for seed in range(40):
            yield (n, seed), generate(GenConfig(n=n, seed=seed))
    for n in range(6, 31):
        for kind in ("prism", "moebius", "squared"):
            if kind == "squared" or n % 2 == 0:
                pairs = ladder_pairs(kind, n)
                yield (kind, n), bidirected(n, pairs)
                yield (kind, n, "relabeled"), _relabeled(n, pairs, n)


class TestDeletionPass:
    def test_matches_rebuild_per_candidate(self, monkeypatch):
        from collections import Counter

        scans = _count_scans(monkeypatch)
        branches = Counter()

        def counted(name, solve):
            before = len(scans)
            out = solve()
            branches[name, len(scans) - before] += 1
            return out

        for case, g in _deletion_pass_inputs():
            r2 = counted("alg2", lambda: algorithm2(g, precheck=False))
            ref = _rebuild_per_candidate(g, is_2v_strongly_biconnected)
            assert r2.subgraph == ref, case
            assert r2.trace.edges_removed == g.m - ref.m
            r3 = counted("alg3", lambda: algorithm3(g, precheck=False))
            cover = set(greedy_degree_cover(g))
            ref = _rebuild_per_candidate(g, is_2v_strongly_biconnected, cover)
            assert r3.subgraph == ref, case
            assert r3.trace.edges_removed == g.m - ref.m
            ref = _rebuild_per_candidate(g, is_2vertex_connected)
            assert counted("alg1 phase 1", lambda: minimal_2vcss(g)) == ref, case
        # one scan when the whole-graph check confirms the first one, two
        # when the per-candidate scan runs after it; both for each property
        # and protected set
        assert {scans for _, scans in branches} == {1, 2}
        for name in ("alg1 phase 1", "alg2", "alg3"):
            assert branches[name, 1] and branches[name, 2], branches
