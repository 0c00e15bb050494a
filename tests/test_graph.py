import pytest

from sbspan import GraphError, ParseError, build, parse, serialize
from sbspan.connectivity import _und_adj
from sbspan.generator import rng_below
from sbspan.graph import delete_edge, delete_vertex
from fixtures import BK4, BOWTIE, C4, OCT8


def random_graph(seed, max_n=12):
    """Seeded random simple digraph for property loops."""
    rng = seed
    rng, nv = rng_below(rng, max_n - 1)
    n = 2 + nv
    rng, mv = rng_below(rng, 3 * n)
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


class TestBuild:
    def test_c4(self):
        g = build(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        assert g == C4
        assert g.m == 4
        assert g.out_adj == ((1,), (2,), (3,), (0,))
        assert g.in_adj == ((3,), (0,), (1,), (2,))

    def test_self_loop_rejected(self):
        with pytest.raises(GraphError, match="self-loop"):
            build(2, [(0, 0)])

    def test_duplicate_rejected(self):
        with pytest.raises(GraphError, match="duplicate edge"):
            build(3, [(0, 1), (0, 1)])

    def test_out_of_range_rejected(self):
        with pytest.raises(GraphError, match="out of range"):
            build(2, [(0, 2)])

    def test_empty_vertex_count_rejected(self):
        with pytest.raises(GraphError):
            build(0, [])

    def test_canonical_order_is_construction_order(self):
        g = build(3, [(2, 1), (0, 1), (1, 2)])
        assert g.edges == ((2, 1), (0, 1), (1, 2))


class TestDeleteEdge:
    def test_c4(self):
        g = delete_edge(C4, (0, 1))
        assert g.edges == ((1, 2), (2, 3), (3, 0))

    def test_bk4(self):
        assert delete_edge(BK4, (0, 1)).m == 11

    def test_missing_edge(self):
        with pytest.raises(GraphError, match="not present"):
            delete_edge(C4, (0, 2))

    def test_adjacency_elsewhere_unchanged(self):
        for seed in range(30):
            g = random_graph(seed)
            if not g.edges:
                continue
            e = g.edges[seed % g.m]
            h = delete_edge(g, e)
            assert h.m == g.m - 1
            assert h.edge_set == g.edge_set - {e}
            for v in range(g.n):
                expect_out = tuple(w for w in g.out_adj[v] if (v, w) != e)
                assert h.out_adj[v] == expect_out


class TestDeleteVertex:
    def test_c4_last(self):
        g, mapping = delete_vertex(C4, 3)
        assert g.n == 3
        assert g.edges == ((0, 1), (1, 2))
        assert mapping == {0: 0, 1: 1, 2: 2}

    def test_bowtie_center(self):
        g, mapping = delete_vertex(BOWTIE, 0)
        assert g.edges == ((0, 1), (2, 3))
        assert mapping == {1: 0, 2: 1, 3: 2, 4: 3}

    def test_bk4(self):
        g, _ = delete_vertex(BK4, 0)
        assert g.n == 3 and g.m == 6
        assert g.edge_set == {(u, v) for u in range(3) for v in range(3) if u != v}

    def test_out_of_range(self):
        with pytest.raises(GraphError):
            delete_vertex(C4, 4)

    def test_edge_count_property(self):
        for seed in range(40):
            g = random_graph(seed + 100)
            if g.n < 2:
                continue
            v = seed % g.n
            h, mapping = delete_vertex(g, v)
            assert h.m == g.m - len(g.out_adj[v]) - len(g.in_adj[v])
            assert sorted(mapping.values()) == list(range(g.n - 1))


def und_pairs(g):
    """Unordered vertex pairs of g's underlying adjacency."""
    und = _und_adj(g.out_adj, g.in_adj)
    return {(v, w) for v in range(g.n) for w in und[v] if v < w}


class TestUnderlying:
    def test_bk4_complete(self):
        assert len(und_pairs(BK4)) == 6

    def test_oct8_complete(self):
        # the 8 edges cover all 6 unordered pairs of a K4
        assert und_pairs(OCT8) == {
            (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)
        }

    def test_c4_cycle(self):
        assert und_pairs(C4) == {(0, 1), (1, 2), (2, 3), (0, 3)}

    def test_pair_count_bound(self):
        for seed in range(40):
            g = random_graph(seed + 200)
            und = _und_adj(g.out_adj, g.in_adj)
            # symmetric, one entry per neighbour
            for v in range(g.n):
                assert len(set(und[v])) == len(und[v])
                assert all(v in und[w] for w in und[v])
            pairs = und_pairs(g)
            antiparallel = any((v, w) in g.edge_set and (w, v) in g.edge_set
                               for v, w in g.edges)
            assert len(pairs) <= g.m
            assert (len(pairs) == g.m) == (not antiparallel)


class TestTextFormat:
    def test_parse_c4(self):
        assert parse("4 4\n0 1\n1 2\n2 3\n3 0\n") == C4

    def test_comments_skipped(self):
        assert parse("# a comment\n4 4\n0 1\n# another\n1 2\n2 3\n3 0\n") == C4

    def test_serialize_c4(self):
        assert serialize(C4) == "4 4\n0 1\n1 2\n2 3\n3 0\n"

    def test_round_trip_random(self):
        for seed in range(40):
            g = random_graph(seed + 300)
            assert parse(serialize(g)) == g

    def test_serialize_of_parse_is_identity(self):
        text = "4 4\n0 1\n1 2\n2 3\n3 0\n"
        assert serialize(parse(text)) == text

    def test_edge_count_mismatch(self):
        with pytest.raises(ParseError, match="edge count mismatch"):
            parse("4 5\n0 1\n")

    def test_too_many_edges(self):
        with pytest.raises(ParseError, match="edge count mismatch"):
            parse("2 1\n0 1\n1 0\n")

    def test_malformed_header(self):
        with pytest.raises(ParseError, match="line 1"):
            parse("banana\n")

    def test_error_carries_line_number(self):
        with pytest.raises(ParseError, match="line 3"):
            parse("3 2\n0 1\n1 1\n")

    def test_outsized_vertex_count(self):
        # rejected on the header line, before any adjacency is allocated
        with pytest.raises(ParseError, match="line 2: vertex count"):
            parse("# huge\n1000000000 0\n")

    def test_missing_header(self):
        with pytest.raises(ParseError, match="missing header"):
            parse("# only a comment\n")

    def test_duplicate_edge_line(self):
        with pytest.raises(ParseError, match="line 3"):
            parse("3 2\n0 1\n0 1\n")
