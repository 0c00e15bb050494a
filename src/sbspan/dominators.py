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
    # DFS postorder from the root; each entry resumes its vertex's iterator.
    seen = bytearray(n)
    seen[root] = 1
    postorder: list[int] = []
    stack = [(root, iter(succ[root]))]
    while stack:
        v, it = stack[-1]
        for w in it:
            if not seen[w]:
                seen[w] = 1
                stack.append((w, iter(succ[w])))
                break
        else:
            stack.pop()
            postorder.append(v)
    rpo = postorder[::-1]
    rpo_num = [-1] * n
    for i, v in enumerate(rpo):
        rpo_num[v] = i

    idom = [-1] * n
    idom[root] = root
    changed = True
    while changed:
        changed = False
        for v in rpo:
            if v == root:
                continue
            new = -1
            for p in pred[v]:
                # an unreachable or not yet processed predecessor is skipped
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
