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
