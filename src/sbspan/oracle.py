"""Exhaustive exact solver for tiny instances.

Ground truth for approximation-ratio tests: enumerates edge subsets by
increasing size starting at the 2n degree floor, pruning any partial
choice that can no longer give every vertex in- and out-degree 2.  Slow by
design and obviously correct; guarded to m <= 24 edges.
"""

from dataclasses import dataclass

from .connectivity import is_2v_strongly_biconnected
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

    cur_out = [0] * n
    cur_in = [0] * n
    chosen: list[int] = []

    def search(next_i: int, remaining: int) -> DiGraph | None:
        if remaining == 0:
            sub = build(n, [edges[i] for i in chosen])
            return sub if is_2v_strongly_biconnected(sub) else None
        if m - next_i < remaining:
            return None
        so, si = suf_out[next_i], suf_in[next_i]
        out_deficit = 0
        in_deficit = 0
        for v in range(n):
            co, ci = cur_out[v], cur_in[v]
            if co + so[v] < 2 or ci + si[v] < 2:
                return None
            if co < 2:
                out_deficit += 2 - co
            if ci < 2:
                in_deficit += 2 - ci
        if out_deficit > remaining or in_deficit > remaining:
            return None
        for i in range(next_i, m - remaining + 1):
            u, v = edges[i]
            chosen.append(i)
            cur_out[u] += 1
            cur_in[v] += 1
            found = search(i + 1, remaining - 1)
            if found is not None:
                return found
            chosen.pop()
            cur_out[u] -= 1
            cur_in[v] -= 1
        return None

    for k in range(2 * n, m + 1):
        witness = search(0, k)
        if witness is not None:
            return ExactResult(opt_size=k, witness=witness)
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
