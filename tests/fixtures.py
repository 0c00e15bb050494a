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
