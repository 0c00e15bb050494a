"""Seeded random 2-vertex strongly biconnected benchmark instances.

Randomness comes from splitmix64 with pinned constants, so a given
(n, seed) pair yields the same graph, byte for byte, on any platform.
Construction draws distinct non-loop edges until min(3n, n(n-1)) exist,
then keeps adding one edge at a time until the graph is 2-vertex strongly
biconnected.
"""

from dataclasses import dataclass

from .connectivity import _two_vsb_violation
from .graph import DiGraph, Edge, build

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


@dataclass(frozen=True, slots=True)
class GenConfig:
    n: int
    seed: int


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


def generate(cfg: GenConfig) -> DiGraph:
    """Random 2-vertex strongly biconnected graph for (cfg.n, cfg.seed).

    Requires n >= 4; the target property is unsatisfiable below that.
    Terminates because the complete bidirected graph qualifies.
    """
    n = cfg.n
    if n < 4:
        raise ValueError(f"n must be >= 4, got {n}")
    rng = cfg.seed & _MASK
    seen: set[Edge] = set()
    edges: list[Edge] = []
    out_adj: list[list[int]] = [[] for _ in range(n)]
    in_adj: list[list[int]] = [[] for _ in range(n)]
    # Out- and in-degrees still below 2; no 2VSB graph has one, so the
    # whole-graph check waits until this count reaches 0.
    short = 2 * n
    target = min(3 * n, n * (n - 1))
    while len(edges) < target or short or _two_vsb_violation(n, out_adj, in_adj):
        while True:
            rng, u = rng_below(rng, n)
            rng, v = rng_below(rng, n)
            if u != v and (u, v) not in seen:
                break
        seen.add((u, v))
        edges.append((u, v))
        out_adj[u].append(v)
        in_adj[v].append(u)
        short -= (len(out_adj[u]) == 2) + (len(in_adj[v]) == 2)
    return build(n, edges)
