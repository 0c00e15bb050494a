"""Small named graphs used throughout the test suite."""

from sbspan import build

# Directed 4-cycle.
C4 = build(4, [(0, 1), (1, 2), (2, 3), (3, 0)])

# Bidirected complete graph on 4 vertices, edges in lexicographic order.
BK4 = build(4, [(u, v) for u in range(4) for v in range(4) if u != v])

# 8-edge graph on 4 vertices that is 2-vertex strongly biconnected and sits
# exactly on the 2n-edge degree floor.
OCT8 = build(4, [(0, 1), (1, 0), (2, 3), (3, 2), (1, 2), (2, 0), (0, 3), (3, 1)])

# Two directed triangles sharing vertex 0.
BOWTIE = build(5, [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)])

# Bidirected bowtie: both orientations of each BOWTIE-shape pair.
BBOWTIE = build(
    5,
    [
        (0, 1), (1, 0),
        (1, 2), (2, 1),
        (2, 0), (0, 2),
        (0, 3), (3, 0),
        (3, 4), (4, 3),
        (4, 0), (0, 4),
    ],
)

# Two vertex-disjoint 0->3 paths closed by 3->0.
DIAMOND = build(4, [(0, 1), (0, 2), (1, 3), (2, 3), (3, 0)])

# Directed path on 4 vertices.
CHAIN4 = build(4, [(0, 1), (1, 2), (2, 3)])


def bidirected(n, pairs):
    """Both orientations of each vertex pair."""
    return build(n, [e for a, b in pairs for e in ((a, b), (b, a))])


def ladder_pairs(kind, n):
    """Vertex pairs of a prism or Moebius ladder (n even) or a squared cycle
    on n vertices; each is 3-connected for n >= 6."""
    k = n // 2
    if kind == "prism":
        return ([(i, (i + 1) % k) for i in range(k)]
                + [(k + i, k + (i + 1) % k) for i in range(k)]
                + [(i, k + i) for i in range(k)])
    if kind == "moebius":
        return ([(i, (i + 1) % n) for i in range(n)]
                + [(i, i + k) for i in range(k)])
    return [(i, (i + d) % n) for i in range(n) for d in (1, 2)]


# Bidirected: two diamonds (K4 minus an edge) on {0, 1, 2, 3} and
# {2, 3, 4, 5}, glued on their degree-2 vertices 2 and 3.  2VC, and the
# underlying graph has minimum degree 3 and the one separation pair {2, 3},
# which ``_three_connected`` finds by its type-2 test.
TWO_DIAMONDS = bidirected(6, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3),
                              (2, 4), (2, 5), (3, 4), (3, 5), (4, 5)])


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
