"""Immediate dominators and the dominator-based strong-articulation-point test.

The dominator tree is computed by the iterative fixed-point scheme over a
reverse-postorder numbering: near-linear in practice at these scales and
easy to verify.  Strong articulation points of a strongly connected graph
are the nontrivial dominators from any root in the graph and its reverse,
plus the root itself when its deletion disconnects the rest.
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
    """
    n = len(succ)
    if not 0 <= root < n:
        raise ValueError(f"root {root} out of range [0, {n})")
    # DFS postorder from the root.
    ptr = [0] * n
    seen = bytearray(n)
    seen[root] = 1
    postorder: list[int] = []
    stack = [root]
    while stack:
        v = stack[-1]
        av = succ[v]
        i = ptr[v]
        if i < len(av):
            ptr[v] = i + 1
            w = av[i]
            if not seen[w]:
                seen[w] = 1
                stack.append(w)
        else:
            stack.pop()
            postorder.append(v)
    rpo = postorder[::-1]
    rpo_num = [-1] * n
    for i, v in enumerate(rpo):
        rpo_num[v] = i
    preds = [[u for u in pred[v] if seen[u]] for v in range(n)]

    idom = [-1] * n
    idom[root] = root
    changed = True
    while changed:
        changed = False
        for v in rpo:
            if v == root:
                continue
            new = -1
            for p in preds[v]:
                if idom[p] == -1:
                    continue
                if new == -1:
                    new = p
                    continue
                a, b = p, new
                while a != b:
                    while rpo_num[a] > rpo_num[b]:
                        a = idom[a]
                    while rpo_num[b] > rpo_num[a]:
                        b = idom[b]
                new = a
            if new != -1 and idom[v] != new:
                idom[v] = new
                changed = True

    return tuple(
        None if v == root or not seen[v] else idom[v] for v in range(n)
    )


def _nontrivial(idom, root: int) -> set[int]:
    """Non-root vertices that immediately dominate some other vertex."""
    return {d for d in idom if d is not None and d != root}


def _strong_articulation_points(n: int, out_adj, in_adj) -> set[int]:
    """Dominator-based core of ``strong_articulation_points_fast`` over
    adjacency lists; the graph must be strongly connected with n >= 3."""
    points = _nontrivial(dominator_tree(out_adj, in_adj, 0), 0)
    points |= _nontrivial(dominator_tree(in_adj, out_adj, 0), 0)
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
    if not _strongly_connected(g.out_adj, g.in_adj, g.n):
        raise ValueError("graph must be strongly connected")
    return _strong_articulation_points(g.n, g.out_adj, g.in_adj)
