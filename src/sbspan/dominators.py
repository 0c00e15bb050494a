"""Dominator trees and the dominator-based strong-articulation-point test.

The inner vertices of a dominator tree are read off the semidominators of
Lengauer & Tarjan's (1979) simple algorithm, O(m log n) on every input,
including the deep dominator chains on which iterative fixed-point schemes
are quadratic (Georgiadis, Tarjan & Werneck 2006 compare the two
families).  Strong articulation points of a strongly connected graph are
the inner vertices other than the root of the trees from any root in the
graph and its reverse, plus the root itself when its deletion disconnects
the rest (Italiano, Laura & Santaroni 2012).
"""

from . import connectivity
from .graph import DiGraph, build


def reverse(g: DiGraph) -> DiGraph:
    """Same vertices, every edge flipped, canonical order preserved."""
    return build(g.n, [(v, u) for u, v in g.edges])


def dominator_tree(succ, pred, root: int) -> set[int] | None:
    """The inner vertices of the dominator tree from root, the root left
    out: the vertices other than root that dominate some other vertex.
    None if some vertex is not reachable from root.

    ``succ``/``pred`` are the out- and in-adjacency lists; swapping them
    gives the tree of the reverse graph.

    One DFS and the semidominator sweep of Lengauer & Tarjan's (1979)
    simple version, O(m log n).  Vertices are handled by their preorder
    numbers from 1; every walk is iterative, since n can reach
    ``MAX_VERTICES``.  The sweep finds the semidominators in reverse
    preorder, over a forest of processed vertices whose paths
    ``_compress`` shortens.

    The semidominators name the inner vertices.  Let d != r dominate some
    x.  Then d dominates its tree child c on the tree path to x: an r->c
    path avoiding d would extend down that path to x.  And d = parent(c)
    dominates c iff sdom(c) = d.  If it does, idom(c) = d, and idom(c) is
    an ancestor of sdom(c) <= parent(c).  If it does not, take an r->c
    path avoiding d and its last vertex z numbered below c, so that
    sdom(c) <= z.  Were d < z < c, z would lie in an earlier child subtree
    of d, with an edge into a vertex numbered >= c, which the DFS would
    have made z's descendant.  So the inner vertices are the parents p !=
    r of the vertices c with sdom(c) = p.
    """
    n = len(succ)
    if not 0 <= root < n:
        raise ValueError(f"root {root} out of range [0, {n})")
    # DFS preorder from the root; each entry resumes its vertex's iterator.
    # num[v] is v's number (0: unreached), vert[i] the vertex numbered i
    # and par[i] its tree parent's number.
    num = [0] * n
    num[root] = 1
    vert = [root, root]
    par = [0, 0]
    stack = [(root, iter(succ[root]))]
    while stack:
        v, it = stack[-1]
        for w in it:
            if not num[w]:
                num[w] = len(vert)
                vert.append(w)
                par.append(num[v])
                stack.append((w, iter(succ[w])))
                break
        else:
            stack.pop()
    size = len(vert)
    if size <= n:
        return None
    semi = list(range(size))
    label = list(range(size))
    anc = [0] * size  # forest parent; 0 while a vertex is a forest root
    for w in range(size - 1, 1, -1):
        s = w
        for x in pred[vert[w]]:
            v = num[x]
            if anc[v]:
                v = _compress(v, anc, label, semi)
            if semi[v] < s:
                s = semi[v]
        semi[w] = s
        anc[w] = par[w]
    return {vert[p] for s, p in zip(semi, par) if s == p > 1}


def _compress(v: int, anc, label, semi) -> int:
    """For a linked v, the vertex of least semidominator on v's forest
    path, the forest root left out; every vertex on the path is relinked
    straight to that root (path compression)."""
    path = []
    x = v
    while anc[anc[x]]:
        path.append(x)
        x = anc[x]
    for x in reversed(path):
        a = anc[x]
        if semi[label[a]] < semi[label[x]]:
            label[x] = label[a]
        anc[x] = anc[a]
    return label[v]


def _strong_articulation_points(n: int, out_adj, in_adj) -> set[int] | None:
    """Dominator-based core of ``strong_articulation_points_fast`` over
    adjacency lists with n >= 3; None unless the graph is strongly connected.

    The inner vertices of the dominator trees of g and of its reverse, both
    rooted at 0, plus 0 when G - 0 is not strongly connected.  No tree
    exists when a vertex is not reached from 0 or does not reach it.
    """
    points: set[int] = set()
    for succ, pred in ((out_adj, in_adj), (in_adj, out_adj)):
        inner = dominator_tree(succ, pred, 0)
        if inner is None:
            return None
        points |= inner
    if not connectivity._strongly_connected(out_adj, in_adj, n, 0):
        points.add(0)
    return points


def strong_articulation_points_fast(g: DiGraph) -> set[int]:
    """Strong articulation points via dominator trees of g and its reverse.

    Requires a strongly connected graph with n >= 3; agrees with the
    per-vertex definition check.
    """
    if g.n < 3:
        raise ValueError(f"strong articulation points require n >= 3, got n={g.n}")
    points = _strong_articulation_points(g.n, g.out_adj, g.in_adj)
    if points is None:
        raise ValueError("graph must be strongly connected")
    return points
