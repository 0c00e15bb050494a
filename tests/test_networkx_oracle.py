"""The library's fast paths against definitions computed by networkx, which
shares no code with them.  Skipped when networkx is not installed."""

import random
from collections import Counter

import pytest

from sbspan import GenConfig, build, generate
from sbspan.connectivity import _analysis, _three_connected
from sbspan.dominators import dominator_tree
from fixtures import ladder_pairs

nx = pytest.importorskip("networkx")


def adjacency(n, pairs, rnd):
    """Adjacency lists of the pairs after a random relabeling, each list in
    random order, so that the DFS root and arc order vary; and the
    relabeled networkx graph."""
    label = list(range(n))
    rnd.shuffle(label)
    adj = [[] for _ in range(n)]
    for a, b in pairs:
        adj[label[a]].append(label[b])
        adj[label[b]].append(label[a])
    for a in adj:
        rnd.shuffle(a)
    u = nx.Graph()
    u.add_nodes_from(range(n))
    u.add_edges_from((label[a], label[b]) for a, b in pairs)
    return adj, u


def min_degree_3(rnd):
    """A random simple graph on 4 to 18 vertices, of minimum degree 3."""
    while True:
        n = rnd.randint(4, 18)
        p = rnd.uniform(3 / (n - 1), 0.9)
        pairs = [(a, b) for a in range(n) for b in range(a + 1, n)
                 if rnd.random() < p]
        degree = Counter(v for e in pairs for v in e)
        if len(degree) == n and min(degree.values()) >= 3:
            return n, pairs


def joined_squared_cycles(rnd):
    """Two squared cycles joined by 2 or 3 edges, plus up to 4 chords: the
    join often leaves a separation pair."""
    k = rnd.randint(5, 9)
    n = k + rnd.randint(5, 9)
    pairs = {*ladder_pairs("squared", k),
             *((k + a, k + b) for a, b in ladder_pairs("squared", n - k))}
    for _ in range(rnd.randint(2, 3)):
        pairs.add((rnd.randrange(k), rnd.randrange(k, n)))
    for _ in range(rnd.randint(0, 4)):
        pairs.add(tuple(rnd.sample(range(n), 2)))
    return n, {tuple(sorted(e)) for e in pairs}


def glued_pieces(rnd):
    """Two to four ladders glued on vertex pairs, plus up to 2 chords."""
    def piece():
        kind = rnd.choice(("prism", "moebius", "squared"))
        k = rnd.randrange(6, 12, 2)
        return k, ladder_pairs(kind, k)

    n, pairs = piece()
    pairs = set(pairs)
    for _ in range(rnd.randint(1, 3)):
        k, more = piece()
        glue = [*rnd.sample(range(n), 2), *range(n, n + k - 2)]
        pairs |= {(glue[a], glue[b]) for a, b in more}
        n += k - 2
    for _ in range(rnd.randint(0, 2)):
        pairs.add(tuple(rnd.sample(range(n), 2)))
    return n, {tuple(sorted(e)) for e in pairs}


def test_three_connected_matches_node_connectivity():
    rnd = random.Random(28)
    verdicts = Counter()
    for family, count in ((min_degree_3, 1000), (joined_squared_cycles, 1500),
                          (glued_pieces, 500)):
        for i in range(count):
            n, pairs = family(rnd)
            adj, u = adjacency(n, pairs, rnd)
            expect = nx.node_connectivity(u) >= 3
            assert _three_connected(adj, n) == expect, (family.__name__, i)
            verdicts[expect] += 1
    # 1,852 3-connected and 1,148 not: nearly every random graph is
    # 3-connected, and about half of the joined and glued ones are not
    assert min(verdicts.values()) >= 1000, verdicts


def random_digraph(rnd, n):
    """A random simple digraph on n vertices, of a random density."""
    p = rnd.random()
    return build(n, [(a, b) for a in range(n) for b in range(n)
                     if a != b and rnd.random() < p])


def to_nx(g):
    d = nx.DiGraph()
    d.add_nodes_from(range(g.n))
    d.add_edges_from(g.edges)
    return d


def test_dominator_tree_matches_immediate_dominators():
    # in g and its reverse: None iff networkx reaches fewer than n
    # vertices, else the vertices other than the root that immediately
    # dominate some vertex
    rnd = random.Random(29)
    compared = 0
    for _ in range(600):
        g = random_digraph(rnd, rnd.randint(2, 30))
        d = to_nx(g)
        for root in (0, g.n - 1):
            for succ, pred, dd in ((g.out_adj, g.in_adj, d),
                                   (g.in_adj, g.out_adj, d.reverse())):
                idom = nx.immediate_dominators(dd, root)
                idom.pop(root, None)  # networkx < 3.5 maps the root to itself
                inner = dominator_tree(succ, pred, root)
                if len(idom) < g.n - 1:
                    assert inner is None, (g.edges, root)
                    continue
                assert inner == set(idom.values()) - {root}, (g.edges, root)
                compared += 1
    assert compared >= 1000, compared


def strongly_biconnected(d):
    """Strongly connected with a biconnected underlying graph; a single
    vertex counts as strongly biconnected, as in sbspan."""
    return len(d) == 1 or (nx.is_strongly_connected(d)
                           and nx.is_biconnected(d.to_undirected(as_view=True)))


def verdicts_by_definition(g):
    """The six verdicts of ``sbspan check``, by deleting each vertex."""
    d = to_nx(g)
    rest = [d.subgraph(set(d) - {v}) for v in d] if g.n > 1 else []
    sc = nx.is_strongly_connected(d)
    saps = {v for v, h in enumerate(rest) if not nx.is_strongly_connected(h)}
    baps = {v for v, h in enumerate(rest) if not strongly_biconnected(h)}
    return {
        "strongly_connected": sc,
        "strongly_biconnected": strongly_biconnected(d),
        "2vertex_connected": g.n >= 3 and sc and not saps,
        # sbspan defines 2VSB for n >= 4 only
        "2v_strongly_biconnected": (g.n >= 4 and strongly_biconnected(d)
                                    and not baps),
        "strong_articulation_points": saps if g.n >= 3 and sc else None,
        "b_articulation_points": baps if g.n >= 2 else None,
    }


def test_analysis_matches_vertex_deletion():
    rnd = random.Random(30)
    graphs = [random_digraph(rnd, rnd.randint(1, 9)) for _ in range(1500)]
    # generated 2VSB graphs and their single-edge deletions, so that the
    # true verdicts and the points of nearly feasible graphs are sampled
    for n in range(4, 10):
        for seed in range(8):
            g = generate(GenConfig(n=n, seed=seed))
            graphs.append(g)
            graphs += (build(n, [x for x in g.edges if x != e])
                       for e in g.edges[::3])
    seen = Counter()
    for g in graphs:
        got = _analysis(g)
        assert got == verdicts_by_definition(g), g.edges
        seen.update(k for k, v in got.items() if v)
    assert len(seen) == 6 and min(seen.values()) >= 100, seen
