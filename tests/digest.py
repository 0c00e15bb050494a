"""Print one sha256 over the outputs of alg1, alg2 and alg3 on a fixed corpus.

    PYTHONPATH=src python tests/digest.py

Each algorithm's output subgraph is serialized, followed by its trace:
``bap_set`` sorted, ``edges_added``, ``edges_removed`` and
``phase1_size``.  The corpus is ``generate`` at n=4..30 with seeds 0..19
and at n=60, 100 and 200 with seed 1; the bidirected prism, Moebius ladder
and squared cycle at even n=6..60; and 300 seeded copies of ``generate``
graphs with their vertices relabeled and their edges shuffled.  Run it on
two checkouts to see whether a change moved any output.
"""

import hashlib

from fixtures import bidirected, ladder_pairs
from reference import rng_below

from sbspan import GenConfig, algorithm1, algorithm2, algorithm3, build, generate, serialize


def relabeled(g, seed):
    """g under a seeded vertex permutation, its edges in a seeded order
    (Fisher-Yates both)."""
    perm = list(range(g.n))
    edges = list(g.edges)
    for seq in perm, edges:
        for i in range(len(seq) - 1, 0, -1):
            seed, j = rng_below(seed, i + 1)
            seq[i], seq[j] = seq[j], seq[i]
    return build(g.n, [(perm[u], perm[v]) for u, v in edges])


def corpus():
    for n in range(4, 31):
        for seed in range(20):
            yield generate(GenConfig(n=n, seed=seed))
    for n in (60, 100, 200):
        yield generate(GenConfig(n=n, seed=1))
    for n in range(6, 61, 2):
        for kind in ("prism", "moebius", "squared"):
            yield bidirected(n, ladder_pairs(kind, n))
    for i in range(300):
        yield relabeled(generate(GenConfig(n=4 + i % 27, seed=i // 27)), i)


def corpus_digest() -> str:
    h = hashlib.sha256()
    for g in corpus():
        for alg in (algorithm1, algorithm2, algorithm3):
            r = alg(g)
            t = r.trace
            h.update(serialize(r.subgraph).encode())
            h.update(f"{sorted(t.bap_set)} {t.edges_added} {t.edges_removed} "
                     f"{t.phase1_size}\n".encode())
    return h.hexdigest()


if __name__ == "__main__":
    print(corpus_digest())
