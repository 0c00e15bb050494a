"""Connectivity predicates for directed graphs and their underlying graphs.

Covers strong connectivity, biconnectivity of the underlying undirected
graph, strong biconnectivity (both at once), the 2-vertex variants obtained
by requiring the property to survive every single-vertex deletion, strong
articulation points by definition, b-articulation points, and the
strongly-biconnected-component co-membership test.

Every public predicate is a pure function of an immutable graph and unwraps
an underscore core over ``(n, out_adj, in_adj)`` adjacency, which also
accepts mutable lists.  The per-vertex deletion checks run DFS cores that
treat one vertex as absent instead of materializing each deleted graph; the
semantics are identical to composing ``delete_vertex`` with the whole-graph
predicates (the test suite checks this equivalence on random instances).

2-vertex strong biconnectivity (2VSB) is checked in one form everywhere: a
graph with n >= 4 is 2VSB exactly when it is 2-vertex connected (2VC:
strongly connected with no strong articulation point, decided by dominator
trees) and its underlying graph is 3-vertex connected (still biconnected
after deleting any one vertex).  This follows from the definition because
G - v is strongly connected for every v iff G is 2VC, and the underlying
graph of G - v is the underlying graph of G minus v.  ``_two_vsb_violation``
decides it for a whole graph.  The deletion pass in ``approx`` judges each
candidate edge locally instead: ``_keeps_2vc``/``_keeps_2vsb`` count
internally vertex-disjoint paths between the edge's endpoints (Menger's
theorem), which is exact when the graph was feasible before the deletion.

Each local verdict is cheap in the common cases.  A degree floor rejects
first, in O(deg): k internally disjoint s-t paths leave s and reach t
through k distinct neighbours.  ``_disjoint_paths`` then packs k paths
greedily, one bidirectional BFS each (``_greedy_paths``); finding all k
certifies a yes.  Only when the greedy packing falls short does the
unit-capacity max flow (``_flow_paths``), the one exact routine, decide, so
every verdict equals the flow's.

Algorithm 1's repair asks whether two vertices share a strongly biconnected
component of G - v, with G 2VC and so G - v strongly connected.  Those are
the blocks of G - v's underlying graph, and two non-adjacent vertices share
a block iff two internally disjoint paths join them (``_disjoint_paths``).
"""

from .graph import DiGraph


# ---- traversal cores --------------------------------------------------------


def _reach_count(adj, n: int, start: int, skip: int | None) -> int:
    """Number of vertices reachable from start, treating skip as absent."""
    seen = bytearray(n)
    seen[start] = 1
    if skip is not None:
        seen[skip] = 1
    count = 1
    stack = [start]
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if not seen[w]:
                seen[w] = 1
                count += 1
                stack.append(w)
    return count


def _strongly_connected(out_adj, in_adj, n: int, skip: int | None = None) -> bool:
    """Forward and backward reachability from one vertex covers everything."""
    n_eff = n if skip is None else n - 1
    if n_eff <= 1:
        return True
    start = 0
    while start == skip:
        start += 1
    return (
        _reach_count(out_adj, n, start, skip) == n_eff
        and _reach_count(in_adj, n, start, skip) == n_eff
    )


def _biconnected(adj, n: int, skip: int | None = None) -> bool:
    """Connected with no articulation point, treating skip as absent.

    Single-vertex graphs count as biconnected, two-vertex graphs count as
    biconnected exactly when the connecting pair is present.
    """
    n_eff = n if skip is None else n - 1
    if n_eff <= 1:
        return True
    root = 0
    while root == skip:
        root += 1
    disc = [0] * n
    low = [0] * n
    parent = [-1] * n
    ptr = [0] * n
    disc[root] = low[root] = 1
    timer = 1
    visited = 1
    root_children = 0
    stack = [root]
    while stack:
        v = stack[-1]
        av = adj[v]
        i = ptr[v]
        if i < len(av):
            ptr[v] = i + 1
            w = av[i]
            if w == skip:
                continue
            if disc[w] == 0:
                parent[w] = v
                timer += 1
                disc[w] = low[w] = timer
                visited += 1
                stack.append(w)
            elif w != parent[v] and disc[w] < low[v]:
                low[v] = disc[w]
        else:
            stack.pop()
            p = parent[v]
            if p == -1:
                continue
            if low[v] < low[p]:
                low[p] = low[v]
            if p == root:
                root_children += 1
            elif low[v] >= disc[p]:
                return False
    return visited == n_eff and root_children < 2


def _und_adj(out_adj, in_adj) -> list[list[int]]:
    """Underlying-graph adjacency (antiparallel edges merged)."""
    return [list(dict.fromkeys(a + b)) for a, b in zip(out_adj, in_adj)]


def _sb_without(n: int, out_adj, in_adj, und, v: int | None = None) -> bool:
    """Strongly biconnected with v treated as absent (the whole graph if None)."""
    return _strongly_connected(out_adj, in_adj, n, v) and _biconnected(und, n, v)


def _is_2vc(n: int, out_adj, in_adj) -> bool:
    """Core of ``is_2vertex_connected``: n >= 3, in/out-degree >= 2,
    strongly connected, and no strong articulation point (dominator test)."""
    if n < 3 or min(map(len, out_adj)) < 2 or min(map(len, in_adj)) < 2:
        return False
    if not _strongly_connected(out_adj, in_adj, n):
        return False
    from .dominators import _strong_articulation_points

    return not _strong_articulation_points(n, out_adj, in_adj)


def _two_vsb_violation(n: int, out_adj, in_adj) -> bool:
    """True unless the graph is 2-vertex strongly biconnected: 2VC plus a
    3-vertex-connected underlying graph (see the module docstring)."""
    if n < 4 or not _is_2vc(n, out_adj, in_adj):
        return True
    und = _und_adj(out_adj, in_adj)
    return not all(_biconnected(und, n, v) for v in range(n))


def _greedy_paths(out_adj, in_adj, s: int, t: int, k: int,
                  undirected: bool = False, avoid: int | None = None) -> bool:
    """True only if k internally vertex-disjoint s->t paths exist; may miss.

    Finds the paths one at a time, each by a bidirectional BFS (Pohl 1971)
    that expands the smaller frontier by one level and skips ``avoid`` and
    the internal vertices of the paths found before.  The k paths found are
    a certificate; a failure proves nothing, since an early path may block
    every later one that a flow would reroute.  Arguments and requirements
    are those of ``_disjoint_paths``.
    """
    fwd = (out_adj, in_adj) if undirected else (out_adj,)
    bwd = (out_adj, in_adj) if undirected else (in_adj,)
    blocked = {avoid}
    for _ in range(k):
        fpar, bpar = {s: s}, {t: t}
        ffront, bfront = [s], [t]
        meet = None
        while meet is None:
            if not ffront or not bfront:
                return False
            if len(ffront) <= len(bfront):
                ffront, meet = _bfs_level(ffront, fwd, fpar, bpar, blocked)
            else:
                bfront, meet = _bfs_level(bfront, bwd, bpar, fpar, blocked)
        for par in (fpar, bpar):
            x = par[meet]
            while par[x] != x:
                blocked.add(x)
                x = par[x]
        if meet != s and meet != t:
            blocked.add(meet)
    return True


def _bfs_level(front, adjs, par, other, blocked):
    """Expand one BFS level; return the next frontier and the first vertex
    reached that the opposite search has already reached (None if none)."""
    nxt = []
    for x in front:
        for adj in adjs:
            for y in adj[x]:
                if y in par or y in blocked:
                    continue
                par[y] = x
                if y in other:
                    return nxt, y
                nxt.append(y)
    return nxt, None


def _disjoint_paths(out_adj, in_adj, s: int, t: int, k: int,
                    undirected: bool = False, avoid: int | None = None) -> bool:
    """True iff there are at least k internally vertex-disjoint s->t paths.

    With ``undirected`` the underlying graph is searched: x's neighbours are
    ``out_adj[x]`` plus ``in_adj[x]``.  Paths never pass through ``avoid``.
    Requires s != t and no edge s->t (in underlying mode, s and t not
    adjacent), so that every path has an internal vertex.

    A greedy packing of paths found by bidirectional BFS (``_greedy_paths``)
    answers first: k paths found certify True.  Only when it falls short
    does the unit-capacity max flow (``_flow_paths``), the one exact
    routine, decide.
    """
    return (_greedy_paths(out_adj, in_adj, s, t, k, undirected, avoid)
            or _flow_paths(out_adj, in_adj, s, t, k, undirected, avoid))


def _flow_paths(out_adj, in_adj, s: int, t: int, k: int,
                undirected: bool = False, avoid: int | None = None) -> bool:
    """Exact core of ``_disjoint_paths``, same arguments and contract.

    Unit-capacity max flow on the implicit vertex-split graph, one BFS
    augmentation per path, stopping at the first BFS that fails.  State 2x
    is x's in-copy and 2x+1 its out-copy; an internal vertex x carries flow
    iff ``prv[x]`` (its flow predecessor) is set.
    """
    adjs = (out_adj, in_adj) if undirected else (out_adj,)
    n = len(out_adj)
    prv = [-1] * n
    src, target = 2 * s + 1, 2 * t
    for _ in range(k):
        par = [-1] * (2 * n)
        par[src] = par[2 * s] = src  # s's in-copy is never entered
        if avoid is not None:
            par[2 * avoid] = src  # nor is the avoided vertex's
        queue = [src]
        for state in queue:
            x = state >> 1
            if state & 1:
                for adj in adjs:
                    for y in adj[x]:
                        w = 2 * y
                        if par[w] < 0:
                            par[w] = state
                            queue.append(w)
                # residual of x's saturated split arc runs out -> in
                if prv[x] >= 0 and par[2 * x] < 0:
                    par[2 * x] = state
                    queue.append(2 * x)
            else:
                # a free vertex passes on to its out-copy; a used one only
                # back along its flow edge, cancelling it
                p = prv[x]
                w = 2 * x + 1 if p < 0 else 2 * p + 1
                if par[w] < 0:
                    par[w] = state
                    queue.append(w)
            if par[target] >= 0:
                break
        else:
            return False
        # Walking back, a vertex's cancelled in-edge precedes its new one.
        w = target
        while w != src:
            p = par[w]
            if p >> 1 != w >> 1:
                if w & 1:
                    prv[p >> 1] = -1
                else:
                    prv[w >> 1] = p >> 1
            w = p
    return True


def _keeps_2vc(out_adj, in_adj, u: int, v: int) -> bool:
    """Whether a 2-vertex-connected graph stays so without edge (u, v).

    Called on the graph with (u, v) already deleted.  Exact only when the
    graph was 2-vertex connected before the deletion: then any separating
    vertex of the rest would split u from v, so two internally disjoint
    u->v paths suffice.  Two such paths leave u and enter v by distinct
    edges, so an out-degree of u or in-degree of v below 2 rejects at once.
    """
    return (len(out_adj[u]) >= 2 and len(in_adj[v]) >= 2
            and _disjoint_paths(out_adj, in_adj, u, v, 2))


def _keeps_2vsb(out_adj, in_adj, u: int, v: int) -> bool:
    """Whether a 2-vertex strongly biconnected graph stays so without (u, v).

    Called on the graph with (u, v) already deleted; exact only when the
    graph was 2VSB before the deletion.  By the 2VC plus underlying-3VC form
    of 2VSB (see the module docstring), the deletion keeps it iff two
    internally disjoint u->v paths remain and, unless the antiparallel edge
    (v, u) keeps the underlying graph unchanged, three internally disjoint
    u-v paths remain in the underlying graph.  Each half first asks the
    degrees those paths need: the directed floor of ``_keeps_2vc``, then
    three distinct underlying neighbours of u and of v.
    """
    if not _keeps_2vc(out_adj, in_adj, u, v):
        return False
    return u in out_adj[v] or (
        len(set(out_adj[u]).union(in_adj[u])) >= 3
        and len(set(out_adj[v]).union(in_adj[v])) >= 3
        and _disjoint_paths(out_adj, in_adj, u, v, 3, undirected=True)
    )


# ---- public predicates ------------------------------------------------------


def scc(g: DiGraph) -> tuple[int, ...]:
    """SCC id per vertex (single-pass lowlink DFS, no recursion).

    Ids are dense and assigned in completion order.
    """
    n = g.n
    adj = g.out_adj
    index = [0] * n
    low = [0] * n
    on_stack = bytearray(n)
    comp = [-1] * n
    ptr = [0] * n
    comp_stack: list[int] = []
    count = 0
    timer = 0
    for root in range(n):
        if index[root]:
            continue
        timer += 1
        index[root] = low[root] = timer
        on_stack[root] = 1
        comp_stack.append(root)
        stack = [root]
        while stack:
            v = stack[-1]
            av = adj[v]
            i = ptr[v]
            if i < len(av):
                ptr[v] = i + 1
                w = av[i]
                if index[w] == 0:
                    timer += 1
                    index[w] = low[w] = timer
                    on_stack[w] = 1
                    comp_stack.append(w)
                    stack.append(w)
                elif on_stack[w] and index[w] < low[v]:
                    low[v] = index[w]
            else:
                stack.pop()
                if stack:
                    p = stack[-1]
                    if low[v] < low[p]:
                        low[p] = low[v]
                if low[v] == index[v]:
                    while True:
                        w = comp_stack.pop()
                        on_stack[w] = 0
                        comp[w] = count
                        if w == v:
                            break
                    count += 1
    return tuple(comp)


def is_strongly_connected(g: DiGraph) -> bool:
    """True iff g has exactly one SCC; single-vertex graphs qualify."""
    return _strongly_connected(g.out_adj, g.in_adj, g.n)


def blocks(n: int, adj) -> tuple[frozenset[int], ...]:
    """Vertex sets of the biconnected components of an undirected graph
    given as adjacency lists, via lowpoint DFS with an edge stack.

    Isolated vertices form singleton blocks; the cut vertices are the
    vertices that lie in two or more blocks.
    """
    disc = [0] * n
    low = [0] * n
    parent = [-1] * n
    ptr = [0] * n
    timer = 0
    out: list[frozenset[int]] = []
    edge_stack: list[tuple[int, int]] = []
    for root in range(n):
        if disc[root]:
            continue
        timer += 1
        disc[root] = low[root] = timer
        if not adj[root]:
            out.append(frozenset((root,)))
            continue
        stack = [root]
        while stack:
            v = stack[-1]
            av = adj[v]
            i = ptr[v]
            if i < len(av):
                ptr[v] = i + 1
                w = av[i]
                if disc[w] == 0:
                    edge_stack.append((v, w))
                    parent[w] = v
                    timer += 1
                    disc[w] = low[w] = timer
                    stack.append(w)
                elif w != parent[v] and disc[w] < disc[v]:
                    edge_stack.append((v, w))
                    if disc[w] < low[v]:
                        low[v] = disc[w]
            else:
                stack.pop()
                p = parent[v]
                if p == -1:
                    continue
                if low[v] < low[p]:
                    low[p] = low[v]
                if low[v] >= disc[p]:
                    verts: set[int] = set()
                    while True:
                        a, b = edge_stack.pop()
                        verts.add(a)
                        verts.add(b)
                        if (a, b) == (p, v):
                            break
                    out.append(frozenset(verts))
    return tuple(out)


def is_strongly_biconnected(g: DiGraph) -> bool:
    """Strongly connected and the underlying graph is biconnected."""
    return _sb_without(g.n, g.out_adj, g.in_adj, _und_adj(g.out_adj, g.in_adj))


def strong_articulation_points_bruteforce(g: DiGraph) -> set[int]:
    """Vertices whose deletion breaks strong connectivity, by definition.

    Requires a strongly connected graph with n >= 3.
    """
    if g.n < 3:
        raise ValueError(f"strong articulation points require n >= 3, got n={g.n}")
    out_adj, in_adj, n = g.out_adj, g.in_adj, g.n
    if not _strongly_connected(out_adj, in_adj, n):
        raise ValueError("graph must be strongly connected")
    return {
        v for v in range(n) if not _strongly_connected(out_adj, in_adj, n, v)
    }


def is_2vertex_connected(g: DiGraph) -> bool:
    """Strongly connected, n >= 3, and no strong articulation point.

    Also requires in/out-degree >= 2; the articulation test is the
    dominator-based one.
    """
    return _is_2vc(g.n, g.out_adj, g.in_adj)


def is_2v_strongly_biconnected(g: DiGraph) -> bool:
    """Strongly biconnected and still so after deleting any single vertex.

    Requires n >= 4: below that no graph satisfies the property under the
    tiny-graph biconnectivity conventions.
    """
    return not _two_vsb_violation(g.n, g.out_adj, g.in_adj)


def b_articulation_points(g: DiGraph) -> set[int]:
    """Vertices whose deletion leaves a graph that is not strongly biconnected."""
    if g.n < 2:
        raise ValueError("b-articulation points require n >= 2")
    und = _und_adj(g.out_adj, g.in_adj)
    return {
        v for v in range(g.n) if not _sb_without(g.n, g.out_adj, g.in_adj, und, v)
    }


def _sbcc_comembership(g: DiGraph) -> tuple[tuple[int, ...], list[frozenset[int]]]:
    """SCC ids plus, per vertex, the ids of its blocks in the underlying graph
    of the edges inside SCCs.

    Each connected component of that graph lies inside one SCC, so two
    vertices lie in the same strongly biconnected component exactly when
    their SCC ids match and their block-id sets intersect.
    """
    comp = scc(g)
    inner = [[w for w in a if comp[w] == comp[v]]
             for v, a in enumerate(_und_adj(g.out_adj, g.in_adj))]
    block_sets: list[set[int]] = [set() for _ in range(g.n)]
    for i, bl in enumerate(blocks(g.n, inner)):
        for v in bl:
            block_sets[v].add(i)
    return comp, [frozenset(s) for s in block_sets]


def same_sbcc(g: DiGraph, w: int, x: int) -> bool:
    """True iff w and x share an SCC and a block of that SCC's underlying graph."""
    if w == x:
        raise ValueError("vertices must be distinct")
    if not (0 <= w < g.n and 0 <= x < g.n):
        raise ValueError(f"vertex out of range [0, {g.n})")
    comp, block_sets = _sbcc_comembership(g)
    return comp[w] == comp[x] and not block_sets[w].isdisjoint(block_sets[x])
