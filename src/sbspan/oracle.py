"""Exhaustive exact solver for tiny instances.

Ground truth for approximation-ratio tests: enumerates edge subsets by
increasing size starting at the 2n degree floor, pruning any partial
choice that can no longer give every vertex in- and out-degree 2.  The
search runs on one mutable adjacency of the chosen edges and builds a
DiGraph only for the witness.  Slow by design and obviously correct;
guarded to m <= 24 edges.
"""

from dataclasses import dataclass

from .connectivity import _two_vsb_violation, is_2v_strongly_biconnected
from .generator import GenConfig, generate
from .graph import DiGraph, build

SEARCH_EDGE_LIMIT = 24


@dataclass(frozen=True, slots=True)
class ExactResult:
    """Minimum feasible spanning-subgraph size plus one witness."""

    opt_size: int
    witness: DiGraph


def exact_min_2vsb(g: DiGraph) -> ExactResult:
    """Minimum-size 2-vertex strongly biconnected spanning subgraph.

    Searches subset sizes upward from 2n; within a size, subsets are tried
    in lexicographic edge-index order, so the witness is the
    lexicographically smallest optimum.
    """
    if g.m > SEARCH_EDGE_LIMIT:
        raise ValueError(
            f"edge count {g.m} exceeds the search guard (m <= {SEARCH_EDGE_LIMIT})"
        )
    if not is_2v_strongly_biconnected(g):
        raise ValueError("input is not 2-vertex strongly biconnected")
    n, m, edges = g.n, g.m, g.edges

    # suffix degree availability: how many edges at index >= i leave/enter v
    suf_out = [[0] * n for _ in range(m + 1)]
    suf_in = [[0] * n for _ in range(m + 1)]
    for i in range(m - 1, -1, -1):
        u, v = edges[i]
        suf_out[i] = suf_out[i + 1][:]
        suf_in[i] = suf_in[i + 1][:]
        suf_out[i][u] += 1
        suf_in[i][v] += 1

    out_adj: list[list[int]] = [[] for _ in range(n)]
    in_adj: list[list[int]] = [[] for _ in range(n)]
    chosen: list[int] = []

    def search(next_i: int, remaining: int) -> bool:
        if remaining == 0:
            return not _two_vsb_violation(n, out_adj, in_adj)
        so, si = suf_out[next_i], suf_in[next_i]
        out_deficit = 0
        in_deficit = 0
        for v in range(n):
            co, ci = len(out_adj[v]), len(in_adj[v])
            if co + so[v] < 2 or ci + si[v] < 2:
                return False
            if co < 2:
                out_deficit += 2 - co
            if ci < 2:
                in_deficit += 2 - ci
        if out_deficit > remaining or in_deficit > remaining:
            return False
        for i in range(next_i, m - remaining + 1):
            u, v = edges[i]
            chosen.append(i)
            out_adj[u].append(v)
            in_adj[v].append(u)
            if search(i + 1, remaining - 1):
                return True
            chosen.pop()
            out_adj[u].pop()
            in_adj[v].pop()
        return False

    for k in range(2 * n, m + 1):
        if search(0, k):
            return ExactResult(opt_size=k, witness=build(n, [edges[i] for i in chosen]))
    raise AssertionError("unreachable: the full edge set is feasible")


def small_instance_suite(
    count: int, seed: int
) -> list[tuple[DiGraph, ExactResult]]:
    """Generate and exactly solve `count` instances with n alternating 4, 5.

    Instance i is generated from seed + i.  Every instance fits the search
    guard: at n <= 5, m <= n(n-1) <= 20 < 24.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    pairs: list[tuple[DiGraph, ExactResult]] = []
    for i in range(count):
        g = generate(GenConfig(n=4 if i % 2 == 0 else 5, seed=seed + i))
        pairs.append((g, exact_min_2vsb(g)))
    return pairs
