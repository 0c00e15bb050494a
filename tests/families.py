"""Write a bidirected ladder or squared cycle in the graph text format.

    PYTHONPATH=src python tests/families.py KIND N [--drop {three,into0}]

KIND is prism, moebius or squared (``fixtures.ladder_pairs``).  Each vertex
pair gives both of its edges, in pair order.  ``--drop three`` leaves out
(1, 0), (2, 0) and (N - 1, 0), so that a squared cycle keeps N - 2 as 0's
only in-neighbour; ``--drop into0`` leaves out every edge into 0.
"""

import argparse

from fixtures import ladder_pairs


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("kind", choices=("prism", "moebius", "squared"))
    parser.add_argument("n", type=int)
    parser.add_argument("--drop", choices=("three", "into0"))
    args = parser.parse_args()
    n = args.n
    drop = {"three": {(1, 0), (2, 0), (n - 1, 0)},
            "into0": {(v, 0) for v in range(n)}}.get(args.drop, ())
    edges = [e for a, b in ladder_pairs(args.kind, n)
             for e in ((a, b), (b, a)) if e not in drop]
    print(n, len(edges))
    print(*(f"{a} {b}" for a, b in edges), sep="\n")


if __name__ == "__main__":
    main()
