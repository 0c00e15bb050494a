"""Seeded random 2-vertex strongly biconnected benchmark instances.

Randomness comes from splitmix64 (Steele, Lea & Flood 2014) with pinned
constants, so a given (n, seed) pair yields the same graph, byte for byte,
on any platform.  Each draw reduces one 64-bit output modulo n (the slight
modulo bias is accepted).  The step is written out in the draw loop; the
tests hold the generator against a reference loop in ``tests/reference.py``
that draws one value per call of ``rng_below``.

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
            # two splitmix64 steps, each output reduced modulo n
            z = rng = (rng + _GAMMA) & _MASK
            z = ((z ^ (z >> 30)) * _MIX1) & _MASK
            z = ((z ^ (z >> 27)) * _MIX2) & _MASK
            u = (z ^ (z >> 31)) % n
            z = rng = (rng + _GAMMA) & _MASK
            z = ((z ^ (z >> 30)) * _MIX1) & _MASK
            z = ((z ^ (z >> 27)) * _MIX2) & _MASK
            v = (z ^ (z >> 31)) % n
            if u != v and (u, v) not in seen:
                break
        seen.add((u, v))
        edges.append((u, v))
        out_adj[u].append(v)
        in_adj[v].append(u)
        short -= (len(out_adj[u]) == 2) + (len(in_adj[v]) == 2)
    return build(n, edges)
