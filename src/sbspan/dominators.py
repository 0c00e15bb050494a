"""Immediate dominators and the dominator-based strong-articulation-point test.

The dominator tree is computed by Lengauer & Tarjan's (1979) simple
algorithm, O(m log n) on every input, including the deep dominator chains on
which iterative fixed-point schemes are quadratic (Georgiadis, Tarjan &
Werneck 2006 compare the two families).  Strong articulation points of a
strongly connected graph are the nontrivial dominators from any root in the
graph and its reverse, plus the root itself when its deletion disconnects
the rest.
"""

from .connectivity import _strongly_connected
from .graph import DiGraph, build


def reverse(g: DiGraph) -> DiGraph:
    """Same vertices, every edge flipped, canonical order preserved."""
    return build(g.n, [(v, u) for u, v in g.edges])


def dominator_tree(succ, pred, root: int) -> tuple[int | None, ...]:
    """Immediate dominator of every vertex reachable from root.

    ``succ``/``pred`` are the out- and in-adjacency lists; swapping them
    gives the dominator tree of the reverse graph.  The entry is None for
    the root and for vertices unreachable from it.

    Lengauer & Tarjan's (1979) simple version, O(m log n): semidominators
    in reverse preorder over a forest of processed vertices whose paths
    ``_compress`` shortens, then one forward pass fixing each immediate
    dominator.  Vertices are handled by their preorder numbers, from 1;
    both walks are iterative, since n can reach ``MAX_VERTICES``.
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
    semi = list(range(size))
    label = list(range(size))
    anc = [0] * size  # forest parent; 0 while a vertex is a forest root
    idom = [0] * size
    # The vertices whose semidominator is s: head[s], nxt[head[s]], ... to 0.
    head = [0] * size
    nxt = [0] * size
    for w in range(size - 1, 1, -1):
        s = w
        for x in pred[vert[w]]:
            v = num[x]
            if not v:  # unreachable from the root
                continue
            if anc[v]:
                v = _compress(v, anc, label, semi)
            if semi[v] < s:
                s = semi[v]
        semi[w] = s
        nxt[w] = head[s]
        head[s] = w
        p = par[w]
        anc[w] = p
        v = head[p]
        while v:
            u = _compress(v, anc, label, semi)
            idom[v] = u if semi[u] < semi[v] else p
            v = nxt[v]
        head[p] = 0
    for w in range(2, size):
        if idom[w] != semi[w]:
            idom[w] = idom[idom[w]]
    out: list[int | None] = [None] * n
    for w in range(2, size):
        out[vert[w]] = vert[idom[w]]
    return tuple(out)


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


def _nontrivial(idom, root: int) -> set[int]:
    """Non-root vertices that immediately dominate some other vertex."""
    return {d for d in idom if d is not None and d != root}


def _strong_articulation_points(n: int, out_adj, in_adj) -> set[int] | None:
    """Dominator-based core of ``strong_articulation_points_fast`` over
    adjacency lists with n >= 3; None unless the graph is strongly connected.

    A vertex missing from the dominator tree of g or of its reverse, both
    rooted at 0, is not reached from 0 or does not reach it.
    """
    points: set[int] = set()
    for succ, pred in ((out_adj, in_adj), (in_adj, out_adj)):
        idom = dominator_tree(succ, pred, 0)
        if idom.count(None) > 1:
            return None
        points |= _nontrivial(idom, 0)
    if not _strongly_connected(out_adj, in_adj, n, 0):
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
