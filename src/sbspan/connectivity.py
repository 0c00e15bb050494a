"""Connectivity predicates for directed graphs and their underlying graphs.

Covers strong connectivity, biconnectivity of the underlying undirected
graph, strong biconnectivity (both at once), the 2-vertex variants obtained
by requiring the property to survive every single-vertex deletion, and
b-articulation points.  Every public predicate is a pure function of an
immutable graph and unwraps an underscore core over ``(n, out_adj,
in_adj)`` adjacency, which also accepts mutable lists.  The per-vertex
deletion checks run DFS cores that treat one vertex as absent (``skip``)
instead of materializing each deleted graph; the semantics are identical
to composing ``delete_vertex`` with the whole-graph predicates (the test
suite checks this equivalence on random instances).

2-vertex strong biconnectivity (2VSB) is checked in one form everywhere: a
graph with n >= 4 is 2VSB exactly when it is 2-vertex connected (2VC:
strongly connected with no strong articulation point, decided by dominator
trees) and its underlying graph is 3-vertex connected (still biconnected
after deleting any one vertex).  This follows from the definition because
G - v is strongly connected for every v iff G is 2VC, and the underlying
graph of G - v is the underlying graph of G minus v.  ``_two_vsb_violation``
decides it for a whole graph, ``_keeps_2vc``/``_keeps_2vsb`` for one edge
deletion.

Each step is explained where it is done: the underlying half in O(n+m) in
``_three_connected``, the one-deletion test in ``_keeps_2vsb`` and
``_disjoint_paths``, the verdicts of ``sbspan check`` in ``_analysis``, and
algorithm 1's repair in ``approx._alg1``.  ``scc``,
``strong_articulation_points_bruteforce`` and ``same_sbcc`` are the
definition-level references that the tests hold the fast paths against.
"""

from .graph import DiGraph


# ---- traversal cores --------------------------------------------------------


def _reached(adj, n: int, start: int, skip: int | None = None) -> bytearray:
    """Marks of the vertices reachable from start, treating skip as absent;
    skip itself is marked too."""
    seen = bytearray(n)
    seen[start] = 1
    if skip is not None:
        seen[skip] = 1
    stack = [start]
    while stack:
        for w in adj[stack.pop()]:
            if not seen[w]:
                seen[w] = 1
                stack.append(w)
    return seen


def _strongly_connected(out_adj, in_adj, n: int, skip: int | None = None) -> bool:
    """Forward and backward reachability from one vertex covers everything."""
    if n - (skip is not None) <= 1:
        return True
    start = 1 if skip == 0 else 0
    return (_reached(out_adj, n, start, skip).count(1) == n
            and _reached(in_adj, n, start, skip).count(1) == n)


def _biconnected(adj, n: int, skip: int | None = None) -> bool:
    """Connected with no articulation point, treating skip as absent.

    Single-vertex graphs count as biconnected, two-vertex graphs count as
    biconnected exactly when the connecting pair is present.
    """
    return n - (skip is not None) <= 1 or _palm_tree(adj, n, skip) is not None


def _palm_tree(adj, n: int, skip: int | None = None):
    """The one lowpoint DFS, treating skip as absent: None when the graph
    is disconnected or has a cut vertex, else the arrays num (preorder
    numbers from 1), par (tree parents, -1 at the root), nd (descendant
    counts), kids (tree arcs out), low1 and low2 (the two lowest numbers a
    subtree reaches by a frond, a non-tree arc, always to an ancestor).
    The root is vertex 0, or 1 when 0 is skipped; skip is numbered above
    every vertex, so its arcs are fronds that change nothing."""
    root = 1 if skip == 0 else 0
    num = [0] * n
    par = [-1] * n
    nd = [1] * n
    kids = [0] * n
    low1 = [0] * n
    low2 = [0] * n
    if skip is not None:
        num[skip] = n + 1
    num[root] = low1[root] = low2[root] = visited = 1
    stack = [(root, -1, iter(adj[root]))]
    while stack:
        v, p, it = stack[-1]
        for w in it:
            x = num[w]
            if not x:
                visited += 1
                num[w] = low1[w] = low2[w] = visited
                par[w] = v
                kids[v] += 1
                stack.append((w, v, iter(adj[w])))
                break
            # a frond v -> w; one from a descendant (x > num[v] >= low2[v])
            # or into skip changes nothing
            if x < low2[v] and w != p:
                if x < low1[v]:
                    low1[v], low2[v] = x, low1[v]
                elif x != low1[v]:
                    low2[v] = x
        else:
            stack.pop()
            if p < 0:
                continue
            nd[p] += nd[v]
            a, b = low1[v], low2[v]
            if a < low1[p]:
                low1[p], low2[p] = a, min(low1[p], b)
            elif a == low1[p]:
                low2[p] = min(low2[p], b)
            elif a < low2[p]:
                low2[p] = a
            if p != root and a >= num[p]:  # p is a cut vertex
                return None
    if visited < n - (skip is not None) or kids[root] > 1:
        return None  # disconnected, or a cut root
    return num, par, nd, kids, low1, low2


def _und_adj(out_adj, in_adj) -> list[list[int]]:
    """Underlying-graph adjacency (antiparallel edges merged)."""
    return [list(dict.fromkeys(a + b)) for a, b in zip(out_adj, in_adj)]


def _is_2vc(n: int, out_adj, in_adj) -> bool:
    """Core of ``is_2vertex_connected``: n >= 3, in/out-degree >= 2, and
    strongly connected with no strong articulation point, both read from
    one pair of dominator trees."""
    if n < 3 or min(map(len, out_adj)) < 2 or min(map(len, in_adj)) < 2:
        return False
    # imported here: dominators imports _strongly_connected from this module
    from .dominators import _strong_articulation_points

    return _strong_articulation_points(n, out_adj, in_adj) == set()


def _three_connected(und, n: int) -> bool:
    """True iff the undirected graph ``und`` is 3-vertex connected: n >= 4,
    and connected after deleting any one or two vertices.

    Requires a simple graph (no loops, no repeated pairs), as ``_und_adj``
    gives.  Hopcroft & Tarjan's (1973) separation-pair search with Gutwenger
    & Mutzel's (2001) corrections, stopped at the first pair: O(n+m), and
    iterative, since n can reach ``MAX_VERTICES``.  A degree check and
    ``_palm_tree`` reject a vertex of degree < 3, a disconnected graph and
    a cut vertex; then each vertex's arcs are bucket-sorted by phi, the
    vertices renumbered in that order, and the path search stops at the
    first type-1 or type-2 separation pair.
    """
    if n < 4 or min(map(len, und)) < 3 or (tree := _palm_tree(und, n)) is None:
        return False
    num, par, nd, kids, low1, low2 = tree
    # Bucket-sort each vertex's arcs by phi: a tree arc v -> w at
    # 3 lowpt1(w), or 3 lowpt1(w) + 2 if lowpt2(w) >= v; a frond v -> w at
    # 3 w + 1.
    buckets = [[] for _ in range(3 * n + 3)]
    for v in range(n):
        nv, pv = num[v], par[v]
        for w in und[v]:
            if par[w] == v:
                buckets[3 * low1[w] + 2 * (low2[w] >= nv)].append((v, w))
            elif num[w] < nv and w != pv:
                buckets[3 * num[w] + 1].append((v, w))
    arcs = [[] for _ in range(n)]
    for bucket in buckets:
        for v, w in bucket:
            arcs[v].append(w)
    # Renumbering DFS over the sorted arcs: v's subtree takes the numbers
    # new[v] .. new[v] + nd[v] - 1, earlier children the higher ones.
    # high[w] is the new number of the first frond source into w it meets.
    new = [0] * n
    high = [0] * n
    new[0] = 1
    m = n
    stack = [(0, iter(arcs[0]))]
    while stack:
        v, it = stack[-1]
        for w in it:
            if par[w] == v:
                new[w] = m - nd[w] + 1
                stack.append((w, iter(arcs[w])))
                break
            if not high[w]:
                high[w] = new[v]
        else:
            stack.pop()
            m -= 1
    # From here on every number is a new one: lowpoints translated.
    renum = [0] * (n + 1)
    for v in range(1, n):
        renum[num[v]] = new[v]
    renum[1] = 1
    low1 = [renum[x] for x in low1]
    low2 = [renum[x] for x in low2]
    # Path search.  Each triple (h, a, b) on ``tstack`` proposes the type-2
    # pair {a, b}, h the highest vertex the split-off part would hold.  An
    # arc starts a new path unless it is the first arc of a non-root
    # vertex; a tree arc that does pushes an end-of-stack marker ``eos``,
    # below which nothing pops until the arc's subtree is done.  ``eos``
    # fails every test a triple is popped or matched by.  Gutwenger &
    # Mutzel's branches for a vertex of degree 2 and for a frond doubling a
    # tree arc cannot fire before the first pair in a simple graph of
    # minimum degree 3, so they are left out.
    eos = (n + 1, 0, 0)
    tstack = [eos]
    stack = [(0, iter(arcs[0]))]
    while stack:
        v, it = stack[-1]
        nv = new[v]
        first = arcs[v][0]
        for w in it:
            starts = w != first or not v
            if par[w] == v:
                if starts:
                    a = low1[w]
                    h, b = new[w] + nd[w] - 1, nv
                    while tstack[-1][1] > a:
                        y, _, b = tstack.pop()
                        h = max(h, y)
                    tstack.append((h, a, b))
                    tstack.append(eos)
                kids[v] -= 1  # now the tree arcs not yet followed
                stack.append((w, iter(arcs[w])))
                break
            if starts:  # a frond v -> w
                a = new[w]
                h = b = nv
                if tstack[-1][1] > a:
                    h = 0
                    while tstack[-1][1] > a:
                        y, _, b = tstack.pop()
                        h = max(h, y)
                tstack.append((h, a, b))
        else:
            stack.pop()
            if not stack:
                break
            # back from the tree arc v -> w
            w, v = v, stack[-1][0]
            nv = new[v]
            # type-2 pair {v, b}.  Hopcroft & Tarjan pop the triple instead
            # when b is a child c of v, but no such triple gets here.  Only
            # c's own push at a tree arc c -> x with low1[x] = v makes one (a
            # frond c -> v would double the tree arc, and pops stop at eos),
            # and back at c from x, low2[x] >= c > low1[x]: the type-1 test
            # below returned False then, unless v is the root, where this
            # test is skipped.
            if nv != 1 and tstack[-1][1] == nv:
                return False
            # type-1 pair {lowpt1(w), v}: w's subtree hangs on those two, and
            # more is left unless v is the root's child and w its last one
            if low2[w] >= nv > low1[w] and (par[v] or kids[v]):
                return False
            if w != arcs[v][0] or not v:
                while tstack.pop() is not eos:
                    pass
            # a frond into v from above h crosses the pairs of these triples
            while True:
                h, a, b = tstack[-1]
                if a == nv or b == nv or high[v] <= h:
                    break
                tstack.pop()
    return True


def _b_articulation_points(und, n: int, cut=frozenset()) -> set[int]:
    """The b-articulation points of G, whose underlying adjacency is
    ``und``: ``cut``, the v for which G - v is not strongly connected, plus
    the v for which und - v is not biconnected (none if und is 3-connected)."""
    return set(cut) if _three_connected(und, n) else {
        v for v in range(n) if v in cut or not _biconnected(und, n, v)}


def _two_vsb_violation(n: int, out_adj, in_adj) -> bool:
    """True unless the graph is 2-vertex strongly biconnected: 2VC plus a
    3-vertex-connected underlying graph (see the module docstring)."""
    return (n < 4 or not _is_2vc(n, out_adj, in_adj)
            or not _three_connected(_und_adj(out_adj, in_adj), n))


def _disjoint_paths(out_adj, in_adj, s: int, t: int, k: int,
                    undirected: bool = False,
                    prv: dict[int, int] | None = None) -> bool:
    """True iff there are at least k internally vertex-disjoint s->t paths.

    With ``undirected`` the underlying graph is searched: x's neighbours are
    ``out_adj[x]`` plus ``in_adj[x]``.  Requires s != t and no edge s->t (in
    underlying mode, s and t not adjacent), so that every path has an
    internal vertex.

    A unit-capacity max flow that grows one path at a time; ``prv`` maps
    each internal vertex on a path to its predecessor there.  A caller may
    pass the ``prv`` of an earlier call on the same s, t, which then grows in
    place: its paths stay paths in underlying mode too, and augmenting from
    any feasible flow reaches the maximum.  Each missing path is sought by
    the free search (``_free_path``) and, only when that fails, by one
    residual BFS (``_reroute``), whose failure proves the flow maximum.
    """
    if undirected:
        fwd = bwd = (out_adj, in_adj)
    else:
        fwd, bwd = (out_adj,), (in_adj,)
    if prv is None:
        prv = {}
    else:  # the paths found already: each one's first vertex follows s
        k -= sum(p == s for p in prv.values())
    for _ in range(k):
        if not (_free_path(fwd, bwd, s, t, prv)
                or _reroute(fwd, s, t, prv)):
            return False
        del prv[t]  # both steps record t's; a later search must enter t
    return True


def _free_path(fwd, bwd, s: int, t: int, prv: dict) -> bool:
    """Add to ``prv`` an s->t path through vertices that no path uses.

    A bidirectional BFS (Pohl 1971) expanding the smaller frontier by one
    level.  Such a path is always an augmenting path of the flow; False only
    means there is none.
    """
    fpar, bpar = {s: s}, {t: t}
    ffront, bfront = [s], [t]
    meet = None
    while meet is None:
        if not ffront or not bfront:
            return False
        if len(ffront) <= len(bfront):
            ffront, meet = _bfs_level(ffront, fwd, fpar, bpar, prv)
        else:
            bfront, meet = _bfs_level(bfront, bwd, bpar, fpar, prv)
    y = meet
    while y != s:  # fpar[y] precedes y
        prv[y] = fpar[y]
        y = fpar[y]
    y = meet
    while y != t:  # bpar[y] follows y
        prv[bpar[y]] = y
        y = bpar[y]
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


def _reroute(adjs, s: int, t: int, prv: dict) -> bool:
    """Add one path to the flow ``prv`` by a BFS over the residual
    vertex-split graph, rerouting earlier paths; False iff the flow is
    maximum.  State 2x is x's in-copy and 2x+1 its out-copy.
    """
    par = [-1] * (2 * len(adjs[0]))
    src, target = 2 * s + 1, 2 * t
    par[src] = par[2 * s] = src  # s's in-copy is never entered
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
            if x in prv and par[2 * x] < 0:
                par[2 * x] = state
                queue.append(2 * x)
        else:
            # a free vertex passes on to its out-copy; a used one only
            # back along its flow edge, cancelling it
            p = prv.get(x)
            w = 2 * x + 1 if p is None else 2 * p + 1
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
                del prv[p >> 1]
            else:
                prv[w >> 1] = p >> 1
        w = p
    return True


def _floor_2vc(out_adj, in_adj, u: int, v: int) -> bool:
    """Degree floor of ``_keeps_2vc``, in O(1): two internally disjoint
    u->v paths leave u and reach v through two distinct neighbours."""
    return len(out_adj[u]) > 1 and len(in_adj[v]) > 1


def _floor_2vsb(out_adj, in_adj, u: int, v: int) -> bool:
    """Degree floor of ``_keeps_2vsb``: the directed floor and three
    distinct underlying neighbours each for u and v.  The directed floor
    implies the rest when (v, u) is present: u then has v besides its two
    out-neighbours, and v has u besides its two in-neighbours.  O(1) for a
    vertex with three out- or three in-neighbours, which are distinct; only
    a vertex short of both builds a neighbour set."""
    return (_floor_2vc(out_adj, in_adj, u, v)
            and (len(out_adj[u]) > 2 or len(in_adj[u]) > 2
                 or len({*out_adj[u], *in_adj[u]}) > 2)
            and (len(out_adj[v]) > 2 or len(in_adj[v]) > 2
                 or len({*out_adj[v], *in_adj[v]}) > 2))


def _keeps_2vc(out_adj, in_adj, u: int, v: int) -> bool:
    """Whether a 2-vertex-connected graph stays so without edge (u, v).

    Called on the graph with (u, v) already deleted.  Exact only when the
    graph was 2-vertex connected before the deletion: then any separating
    vertex of the rest would split u from v, so two internally disjoint
    u->v paths suffice.
    """
    return (_floor_2vc(out_adj, in_adj, u, v)
            and _disjoint_paths(out_adj, in_adj, u, v, 2))


def _keeps_2vsb(out_adj, in_adj, u: int, v: int) -> bool:
    """Whether a 2-vertex strongly biconnected graph stays so without (u, v).

    Called on the graph with (u, v) already deleted; exact only when the
    graph was 2VSB before the deletion.  By the 2VC plus underlying-3VC form
    of 2VSB (see the module docstring), the deletion keeps it iff two
    internally disjoint u->v paths remain and, unless the antiparallel edge
    (v, u) keeps the underlying graph unchanged, three internally disjoint
    u-v paths remain in the underlying graph.  One flow answers both: the
    two directed paths are two undirected ones, so the undirected search
    continues from them and needs only the third.
    """
    if not _floor_2vsb(out_adj, in_adj, u, v):
        return False
    prv: dict[int, int] = {}
    return _disjoint_paths(out_adj, in_adj, u, v, 2, prv=prv) and (
        u in out_adj[v]
        or _disjoint_paths(out_adj, in_adj, u, v, 3, undirected=True, prv=prv))


# ---- public predicates ------------------------------------------------------


def scc(g: DiGraph) -> tuple[int, ...]:
    """SCC id per vertex by definition, mutual reachability; ids are dense,
    numbered in order of each SCC's smallest vertex."""
    n = g.n
    comp = [-1] * n
    count = 0
    for s in range(n):
        if comp[s] < 0:
            fwd = _reached(g.out_adj, n, s)
            bwd = _reached(g.in_adj, n, s)
            for v in range(s, n):
                if fwd[v] and bwd[v]:
                    comp[v] = count
            count += 1
    return tuple(comp)


def is_strongly_connected(g: DiGraph) -> bool:
    """True iff g has exactly one SCC; single-vertex graphs qualify."""
    return _strongly_connected(g.out_adj, g.in_adj, g.n)


def is_strongly_biconnected(g: DiGraph) -> bool:
    """Strongly connected and the underlying graph is biconnected."""
    return (_strongly_connected(g.out_adj, g.in_adj, g.n)
            and _biconnected(_und_adj(g.out_adj, g.in_adj), g.n))


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
    return _analysis(g)["b_articulation_points"]


def _analysis(g: DiGraph) -> dict:
    """The six verdicts ``sbspan check`` prints, keyed by their labels; a
    vertex set is None where it is undefined.  They come from one
    underlying adjacency, one pair of dominator trees, whose strong
    articulation points also decide strong connectivity and 2VC, and one
    ``_b_articulation_points`` call.  A 2VC graph is 2VSB iff
    n >= 4 and it has no b-articulation point: its underlying graph is
    biconnected, so a separation pair {a, b}, or a vertex of underlying
    degree <= 2, leaves a cut vertex in und - a."""
    from .dominators import _strong_articulation_points

    n, out_adj, in_adj = g.n, g.out_adj, g.in_adj
    und = _und_adj(out_adj, in_adj)
    saps = _strong_articulation_points(n, out_adj, in_adj) if n >= 3 else None
    strongly_connected = (saps is not None if n >= 3
                          else _strongly_connected(out_adj, in_adj, n))
    # with n >= 3 and no strong articulation point, in/out-degree >= 2: a
    # vertex's one out- or in-neighbour would be such a point
    two_vc = saps == set()
    cut = saps  # the v for which G - v is not strongly connected
    if n < 3:
        cut = set()  # G - v has one vertex at most
    elif cut is None:
        # G is not strongly connected, so G - v is only if {v} and V - v are
        # G's two SCCs: then v lacks all in- or all out-edges, and no other
        # vertex does, as V - v has two vertices or more
        ends = [v for v in range(n) if not out_adj[v] or not in_adj[v]]
        cut = set(range(n))
        if len(ends) == 1 and _strongly_connected(out_adj, in_adj, n, ends[0]):
            cut.remove(ends[0])
    baps = _b_articulation_points(und, n, cut)
    return {
        "strongly_connected": strongly_connected,
        "strongly_biconnected": strongly_connected and _biconnected(und, n),
        "2vertex_connected": two_vc,
        "2v_strongly_biconnected": two_vc and n >= 4 and not baps,
        "strong_articulation_points": saps,
        "b_articulation_points": baps if n >= 2 else None,
    }


def _sbcc_comembership(g: DiGraph) -> tuple[tuple[int, ...], list[list[int]]]:
    """SCC ids plus the underlying adjacency of the edges inside SCCs.

    Each connected component of that underlying graph spans one SCC, so two
    vertices lie in the same strongly biconnected component exactly when
    their SCC ids match and they share a block of it.
    """
    comp = scc(g)
    inner = [[w for w in a if comp[w] == comp[v]]
             for v, a in enumerate(_und_adj(g.out_adj, g.in_adj))]
    return comp, inner


def same_sbcc(g: DiGraph, w: int, x: int) -> bool:
    """True iff w and x share an SCC and a block of that SCC's underlying
    graph: by Menger's theorem, iff no third vertex separates them there
    (adjacent vertices never are separated)."""
    if w == x:
        raise ValueError("vertices must be distinct")
    if not (0 <= w < g.n and 0 <= x < g.n):
        raise ValueError(f"vertex out of range [0, {g.n})")
    comp, inner = _sbcc_comembership(g)
    return comp[w] == comp[x] and all(
        _reached(inner, g.n, w, z)[x] for z in range(g.n) if z not in (w, x))
