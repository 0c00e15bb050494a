"""Reference implementations that the tests hold the library's fast paths
against."""


def dominator_tree_iterative(succ, pred, root: int) -> tuple[int | None, ...]:
    """Immediate dominators by Cooper, Harvey & Kennedy's (2001) iterative
    fixed-point scheme over a reverse-postorder numbering; same arguments
    and output as ``sbspan.dominators.dominator_tree``.  Quadratic on deep
    dominator chains, but short and easy to check by hand.
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


def floor_2vsb(out_adj, in_adj, u: int, v: int) -> bool:
    """Degree floor of the local 2VSB deletion test by its definition, with
    a neighbour set per end: u keeps two out-neighbours and v two
    in-neighbours, and unless (v, u) is present, u and v each have three
    distinct underlying neighbours; same arguments as
    ``sbspan.connectivity._floor_2vsb``."""
    return (len(out_adj[u]) > 1 and len(in_adj[v]) > 1
            and (u in out_adj[v]
                 or all(len({*out_adj[x], *in_adj[x]}) > 2 for x in (u, v))))
