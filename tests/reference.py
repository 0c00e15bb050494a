"""Reference implementations that the tests hold the library's fast paths
against."""

from sbspan.connectivity import _two_vsb_violation
from sbspan.graph import build

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def rng_next(state: int) -> tuple[int, int]:
    """One splitmix64 step on a 64-bit int state: new state plus a 64-bit
    output; the output sequence is a pure function of the state."""
    state = (state + _GAMMA) & _MASK
    z = state
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return state, z ^ (z >> 31)


def rng_below(s: int, k: int) -> tuple[int, int]:
    """Next value reduced modulo k (the slight modulo bias is accepted)."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    s, value = rng_next(s)
    return s, value % k


def generate_reference(n: int, seed: int):
    """``sbspan.generate(GenConfig(n, seed))`` drawing each endpoint through
    ``rng_below``: distinct non-loop edges until min(3n, n(n-1)) exist, then
    one more edge at a time until the graph is 2-vertex strongly
    biconnected."""
    rng = seed & _MASK
    seen = set()
    edges = []
    out_adj = [[] for _ in range(n)]
    in_adj = [[] for _ in range(n)]
    target = min(3 * n, n * (n - 1))
    while (len(edges) < target
           or any(len(a) < 2 for a in out_adj + in_adj)
           or _two_vsb_violation(n, out_adj, in_adj)):
        while True:
            rng, u = rng_below(rng, n)
            rng, v = rng_below(rng, n)
            if u != v and (u, v) not in seen:
                break
        seen.add((u, v))
        edges.append((u, v))
        out_adj[u].append(v)
        in_adj[v].append(u)
    return build(n, edges)


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


def nontrivial(idom, root: int) -> set[int] | None:
    """A tuple of immediate dominators, such as ``dominator_tree_iterative``
    returns, projected onto ``sbspan.dominators.dominator_tree``'s result:
    None if a vertex other than root has none (it is unreached), otherwise
    the vertices other than root that immediately dominate some vertex."""
    if idom.count(None) > 1:
        return None
    return {d for d in idom if d is not None and d != root}


def floor_2vc(out_adj, in_adj, u: int, v: int) -> bool:
    """Degree floor of the local 2VC deletion test, on the graph without
    (u, v): two internally disjoint u->v paths leave u and reach v through
    two distinct neighbours."""
    return len(out_adj[u]) > 1 and len(in_adj[v]) > 1


def floor_2vsb(out_adj, in_adj, u: int, v: int) -> bool:
    """Degree floor of the local 2VSB deletion test by its definition, with
    a neighbour set per end: the directed floor, and unless (v, u) is
    present, u and v each have three distinct underlying neighbours."""
    return floor_2vc(out_adj, in_adj, u, v) and (
        u in out_adj[v]
        or all(len({*out_adj[x], *in_adj[x]}) > 2 for x in (u, v)))


def floor_scan(g, floor, protected, keeps=None) -> list:
    """``sbspan.approx._scan`` over mutable adjacency lists: each unprotected
    edge (u, v) is deleted in turn and put back unless ``floor`` and then
    ``keeps``, if given, hold on the graph without it; the kept edges."""
    out_adj = [list(a) for a in g.out_adj]
    in_adj = [list(a) for a in g.in_adj]
    kept = []
    for e in g.edges:
        if e not in protected:
            u, v = e
            out_adj[u].remove(v)
            in_adj[v].remove(u)
            if floor(out_adj, in_adj, u, v) and (
                    keeps is None or keeps(out_adj, in_adj, u, v)):
                continue
            out_adj[u].append(v)
            in_adj[v].append(u)
        kept.append(e)
    return kept
