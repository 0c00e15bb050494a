"""Three approximation algorithms for small 2-vertex strongly biconnected
spanning subgraphs.

* ``algorithm1``: minimal 2-vertex-connected spanning subgraph, then repair
  the remaining b-articulation points by re-adding discarded edges.
* ``algorithm2``: one greedy edge-deletion pass keeping the full property.
* ``algorithm3``: protect a greedy degree cover, then delete everything else
  that can go.

All three enter through ``_entry`` and share one edge-deletion pass,
``_deletion_pass``, whose docstring says how a deletion is judged.  Every
scan walks edges in canonical order, so identical inputs produce identical
outputs.
"""

import time
from dataclasses import dataclass, field

from .connectivity import (
    _b_articulation_points,
    _biconnected,
    _disjoint_paths,
    _floor_2vc,
    _floor_2vsb,
    _is_2vc,
    _keeps_2vc,
    _keeps_2vsb,
    _two_vsb_violation,
    _und_adj,
    is_2v_strongly_biconnected,
    is_2vertex_connected,
)
from .graph import DiGraph, Edge, build


class RepairLoopStalled(RuntimeError):
    """Algorithm 1 ran out of candidate edges while a b-articulation point
    remained; signals an invalid input or a component-membership mismatch."""


@dataclass(frozen=True, slots=True)
class AlgoTrace:
    """Counters recorded while an algorithm runs.

    ``bap_set`` holds the b-articulation points of algorithm 1's
    first-phase subgraph, and ``l_bap_count`` counts them; the other
    counters apply where the relevant algorithm says so.
    """

    bap_set: frozenset[int] = frozenset()
    edges_added: int = 0
    edges_removed: int = 0
    phase1_size: int = 0

    @property
    def l_bap_count(self) -> int:
        return len(self.bap_set)


@dataclass(frozen=True, slots=True)
class AlgoResult:
    """Output subgraph plus timing and trace counters."""

    subgraph: DiGraph
    algorithm: str
    elapsed: float
    edges_out: int
    trace: AlgoTrace = field(default_factory=AlgoTrace)


def _entry(alg: str, g: DiGraph, precheck: bool, solve) -> AlgoResult:
    """The one entry path of the three algorithms: the input check unless
    ``precheck`` is False, then ``solve(g)``, which returns the subgraph
    and its trace, timed."""
    if precheck and not is_2v_strongly_biconnected(g):
        raise ValueError("input is not 2-vertex strongly biconnected")
    t0 = time.perf_counter()
    h, trace = solve(g)
    return AlgoResult(h, alg, time.perf_counter() - t0, h.m, trace)


def _is_2vsb(n: int, out_adj, in_adj) -> bool:
    """Whole-graph 2VSB check over adjacency lists."""
    return not _two_vsb_violation(n, out_adj, in_adj)


# Each property the deletion pass keeps: its degree floor, its exact local
# test of one deletion and its whole-graph check.
_2VC = (_floor_2vc, _keeps_2vc, _is_2vc)
_2VSB = (_floor_2vsb, _keeps_2vsb, _is_2vsb)


def _deletion_pass(g: DiGraph, prop, protected=frozenset(),
                   check_input=None) -> DiGraph:
    """Delete, in canonical order, every unprotected edge whose deletion
    keeps the property ``prop`` (``_2VC`` or ``_2VSB``) of the graph left
    by the deletions before it; build the DiGraph once, at the end.

    g must have the property.  The caller guarantees it or passes
    ``check_input``, which is called on g before the per-candidate scan
    below and only then.  A first scan deletes every candidate that passes
    the property's degree floor, and one whole-graph check tests what is
    left.  If it holds, so does g, which contains it, and these are exactly
    the edges the sequential pass deletes, by induction over the scan: a
    floor rejection is a rejection of the local test too, and every graph
    of the sequential pass contains the checked one, so by monotonicity
    under adding edges each deletion that passes the floor keeps the
    property.  Otherwise a second scan is the sequential pass itself: each
    candidate is judged by the local test, exact because every accepted
    deletion keeps the current subgraph feasible.  The output equals that
    of rebuilding the graph per candidate and re-checking the
    definition-level predicate, byte for byte.
    """
    floor, keeps, holds = prop
    kept, out_adj, in_adj = _scan(g, floor, protected)
    if not holds(g.n, out_adj, in_adj):
        if check_input:
            check_input(g)
        kept = _scan(g, keeps, protected)[0]
    return build(g.n, kept)


def _scan(g: DiGraph, test, protected):
    """The kept edges and the adjacency left when every unprotected edge
    (u, v) for which ``test(out_adj, in_adj, u, v)`` holds on the graph
    without it is deleted in turn.  Works on one mutable copy of the
    adjacency lists, re-appending an edge whose deletion fails the test."""
    out_adj = [list(a) for a in g.out_adj]
    in_adj = [list(a) for a in g.in_adj]
    kept: list[Edge] = []
    for e in g.edges:
        if e not in protected:
            u, v = e
            out_adj[u].remove(v)
            in_adj[v].remove(u)
            if test(out_adj, in_adj, u, v):
                continue
            out_adj[u].append(v)
            in_adj[v].append(u)
        kept.append(e)
    return kept, out_adj, in_adj


def minimal_2vcss(g: DiGraph) -> DiGraph:
    """Minimal 2-vertex-connected spanning subgraph by one deletion pass.

    Scans edges in canonical order and deletes each one whose removal keeps
    the graph 2-vertex connected.  Monotonicity of the property under edge
    addition makes the single pass minimal: every surviving edge is
    individually necessary.  Raises ``ValueError`` unless g is 2-vertex
    connected.  The pass's one-shot check, when it holds, vouches for g;
    otherwise g is checked before the per-candidate scan, whose local test
    is exact only on a 2-vertex-connected input.
    """
    return _deletion_pass(g, _2VC, check_input=_require_2vc)


def _require_2vc(g: DiGraph) -> None:
    if not is_2vertex_connected(g):
        raise ValueError("input is not 2-vertex connected")


def algorithm1(g: DiGraph, *, precheck: bool = True) -> AlgoResult:
    """Minimal 2-vertex-connected subgraph plus b-articulation repair.

    With ``precheck=False`` the caller guarantees a feasible (2-vertex
    strongly biconnected) input.
    """
    return _entry("alg1", g, precheck, _alg1)


def _alg1(g: DiGraph):
    gplus = minimal_2vcss(g)
    n = gplus.n
    und = _und_adj(gplus.out_adj, gplus.in_adj)
    bap = frozenset(_b_articulation_points(und, n))
    added: list[Edge] = []
    for v in sorted(bap):
        # gplus - v stays strongly connected, so v is a b-articulation point
        # while und - v is not biconnected.  Until it is, re-add each edge of
        # g whose ends are neither adjacent nor joined by two disjoint paths
        # there; blocks only merge, so an edge passed stays ineligible.
        if _biconnected(und, n, v):
            continue
        rest = [[y for y in a if y != v] for a in und]  # no list holds v
        for w, x in g.edges:
            if (v != w and v != x and x not in und[w]
                    and not _disjoint_paths(rest, rest, w, x, 2)):
                for adj in und, rest:
                    adj[w].append(x)
                    adj[x].append(w)
                added.append((w, x))
                if _biconnected(und, n, v):
                    break
        else:
            raise RepairLoopStalled(
                f"no candidate edge separates components around vertex {v}")
    if added:
        gplus = build(n, (*gplus.edges, *added))
    return gplus, AlgoTrace(bap_set=bap, edges_added=len(added))


def algorithm2(g: DiGraph, *, precheck: bool = True) -> AlgoResult:
    """Greedy deletion scan keeping 2-vertex strong biconnectivity.

    The output is minimal: deleting any surviving edge breaks the property.
    With ``precheck=False`` the caller guarantees a feasible input; the
    deletion pass's local test is exact only on one.
    """
    return _entry("alg2", g, precheck, _deletions)


def _deletions(g: DiGraph, cover=()):
    """One deletion pass keeping 2VSB that never deletes an edge of cover."""
    h = _deletion_pass(g, _2VSB, set(cover))
    return h, AlgoTrace(edges_removed=g.m - h.m, phase1_size=len(cover))


def greedy_degree_cover(g: DiGraph) -> list[Edge]:
    """Greedy edge set giving every vertex in-degree and out-degree >= 1.

    One scan in canonical order: take an edge whenever its tail still lacks
    an outgoing pick or its head still lacks an incoming one.  At most 2n
    edges are taken.  Requires every vertex to have in- and out-degree >= 1.
    """
    for v in range(g.n):
        if not g.out_adj[v] or not g.in_adj[v]:
            raise ValueError(f"vertex {v} lacks an in- or out-edge")
    out_covered = bytearray(g.n)
    in_covered = bytearray(g.n)
    chosen: list[Edge] = []
    for u, v in g.edges:
        if not out_covered[u] or not in_covered[v]:
            chosen.append((u, v))
            out_covered[u] = 1
            in_covered[v] = 1
    return chosen


def algorithm3(g: DiGraph, *, precheck: bool = True) -> AlgoResult:
    """Degree-cover phase, then deletion scan over the uncovered edges.

    Edges of the cover are never deleted; every surviving edge outside it is
    individually necessary.  With ``precheck=False`` the caller guarantees a
    feasible input; the deletion pass's local test is exact only on one.
    """
    return _entry("alg3", g, precheck,
                  lambda g: _deletions(g, greedy_degree_cover(g)))
