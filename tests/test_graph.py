import random
import time

import pytest

import sbspan.graph
from sbspan import (
    GenConfig, GraphError, ParseError, build, generate, parse, serialize,
)
from sbspan.connectivity import _und_adj
from sbspan.graph import MAX_VERTICES, _parse_lines, delete_edge, delete_vertex
from fixtures import BK4, BOWTIE, C4, OCT8
from reference import rng_below


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

    def test_repr(self):
        assert repr(BK4) == "DiGraph(n=4, m=12)"


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

    def test_only_vertex(self):
        with pytest.raises(GraphError, match="only vertex"):
            delete_vertex(build(1, []), 0)

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

    @pytest.mark.parametrize("text", [
        "4 4\n0 1\n1 2\n2 3\n3 0\n\n",
        "4 4\n0 1\n1 2\n\n2 3\n3 0\n",
        "4 4\n0 1\n \t\n1 2\n2 3\n3 0\n",
    ], ids=["trailing-blank", "blank-between-edges", "whitespace-only"])
    def test_blank_lines_skipped(self, text):
        assert parse(text) == C4

    def test_line_numbers_count_blank_lines(self):
        with pytest.raises(ParseError, match="line 4: self-loop"):
            parse("3 2\n\n0 1\n1 1\n")

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

    @pytest.mark.parametrize("text, line_no", [
        ("4 1\n0 \uff13\n", 2),  # fullwidth digit three
        ("+4 1\n0 1\n", 1),
        ("4 1\n0 1_0\n", 2),
        ("4 1\n0 -1\n", 2),
    ], ids=["fullwidth-digit", "plus-sign", "underscore", "minus-sign"])
    def test_fields_are_ascii_digits(self, text, line_no):
        with pytest.raises(ParseError, match=f"line {line_no}: expected two decimal"):
            parse(text)

    def test_duplicate_edge_line(self):
        with pytest.raises(ParseError, match="line 3"):
            parse("3 2\n0 1\n0 1\n")


def _outcome(parse_fn, text):
    """What parse_fn makes of text: the graph with its adjacency, or the
    ParseError's text and line number."""
    try:
        g = parse_fn(text)
    except ParseError as exc:
        return str(exc), exc.line_no
    return g, g.out_adj, g.in_adj


def _mutations(text, n):
    """text and variants of it: each spacing the line pass alone reads, and
    each error either pass may meet, placed on a middle edge line."""
    lines = text.splitlines(keepends=True)
    k = 1 + len(lines) // 2
    u, v = lines[k].split()
    head_n, head_m = lines[0].split()
    rest = "".join(lines[1:])

    def at(new):
        return "".join(lines[:k] + [new] + lines[k + 1:])

    return {
        "as-written": text,
        "comment": at("# note\n" + lines[k]),
        "blank": at("\n" + lines[k]),
        "whitespace-only": at(" \t \n" + lines[k]),
        "crlf": text.replace("\n", "\r\n"),
        "tab": at(f"{u}\t{v}\n"),
        "vertical-tab": at(f"{u}\x0b{v}\n"),
        "no-break-space": at(f"{u}\xa0{v}\n"),
        "ideographic-space": at(f"{u}\u3000{v}\n"),
        "no-final-newline": text[:-1],
        "leading-zeros": at(f"00{u} 0{v}\n"),
        "plus-sign": at(f"+{u} {v}\n"),
        "arabic-indic-three": at(f"{u} \u0663\n"),
        "superscript-two": at(f"{u} \xb2\n"),
        "three-fields": at(f"{u} {v} 1\n"),
        "n-zero": f"0 {head_m}\n" + rest,
        "n-too-large": f"{MAX_VERTICES + 1} {head_m}\n" + rest,
        "m-too-small": f"{head_n} {int(head_m) - 1}\n" + rest,
        "m-huge": f"{head_n} {10**12}\n" + rest,
        "out-of-range": at(f"{u} {n}\n"),
        "self-loop": at(f"{u} {u}\n"),
        "duplicate": at(lines[1]),
        # more digits than int() converts by default, with and without a
        # value: a zero-padded field is its value
        "long-endpoint": at(f"{u} {'9' * 5000}\n"),
        "long-header": f"{head_n} {'9' * 5000}\n" + rest,
        "zero-padded": at(f"{u} {v.zfill(5001)}\n"),
    }


class TestParsePasses:
    """``parse`` reads canonical text in one whole-text pass and hands
    everything else to the line pass; both must agree on every text."""

    @pytest.mark.parametrize("relabel", [False, True], ids=["written", "relabeled"])
    def test_matches_line_pass(self, relabel):
        for n in range(4, 31):
            for seed in range(10):
                g = generate(GenConfig(n=n, seed=seed))
                if relabel:
                    rng = random.Random(seed)
                    label = list(range(n))
                    rng.shuffle(label)
                    edges = [(label[a], label[b]) for a, b in g.edges]
                    rng.shuffle(edges)
                    g = build(n, edges)
                for case, text in _mutations(serialize(g), n).items():
                    t0 = time.perf_counter()
                    got = _outcome(parse, text)
                    if case == "m-huge":
                        # nothing is allocated from the header's edge count
                        assert time.perf_counter() - t0 < 1.0
                    assert got == _outcome(_parse_lines, text), (n, seed, case)
                    if case in ("as-written", "zero-padded"):
                        assert got[0] == g

    def test_canonical_text_takes_one_pass(self, monkeypatch):
        def no_line_pass(text):
            raise AssertionError("line pass called")
        monkeypatch.setattr(sbspan.graph, "_parse_lines", no_line_pass)
        assert parse(serialize(OCT8)) == OCT8
        assert parse("4 4\n0 1\n1 2\n2 3\n3 0\n") == C4
