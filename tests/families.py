"""Write a bidirected ladder, a squared cycle or a gate chain as graph text.

    PYTHONPATH=src python tests/families.py KIND N [--drop {three,into0}]

KIND is prism, moebius or squared (``fixtures.ladder_pairs``), or gates
(``fixtures.gates``), for which N is the number of gates k and the graph
has 3k + 1 vertices.  Each ladder pair gives both of its edges, in pair
order.  ``--drop three`` leaves out (1, 0), (2, 0) and (N - 1, 0), so that
a squared cycle keeps N - 2 as 0's only in-neighbour; ``--drop into0``
leaves out every edge into 0.  Neither applies to gates.
"""

import argparse

from fixtures import gates, ladder_pairs

from sbspan import build, serialize


def family(kind, n, drop=None):
    """The graph that ``families.py KIND N [--drop DROP]`` writes."""
    if kind == "gates":
        return gates(n)
    dropped = {"three": {(1, 0), (2, 0), (n - 1, 0)},
               "into0": {(v, 0) for v in range(n)}}.get(drop, ())
    return build(n, [e for a, b in ladder_pairs(kind, n)
                     for e in ((a, b), (b, a)) if e not in dropped])


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("kind", choices=("prism", "moebius", "squared", "gates"))
    parser.add_argument("n", type=int)
    parser.add_argument("--drop", choices=("three", "into0"))
    args = parser.parse_args()
    if args.kind == "gates" and args.drop:
        parser.error("--drop applies to the ladders only")
    print(serialize(family(args.kind, args.n, args.drop)), end="")


if __name__ == "__main__":
    main()
