"""Immutable simple directed graphs and their text format.

A graph is a value: vertex count ``n`` plus an ordered edge sequence whose
construction order is the canonical order used by every deterministic scan
in this package.  Edges are plain ``(tail, head)`` int pairs.  Deletions
return new values, so graphs can be shared and hashed; the algorithms'
deletion pass edits its own copy of the adjacency and builds once.
"""

import re
from dataclasses import dataclass, field


class GraphError(ValueError):
    """Raised when a graph would violate its construction invariants."""


class ParseError(GraphError):
    """Raised for malformed graph text; carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


Edge = tuple[int, int]

# Largest vertex count read from text or the command line (100x the largest
# timed instance).  The whole-graph checks are near-linear, but a deletion
# pass whose one-shot check fails runs one flow per candidate edge, and
# algorithm 1's repair is quadratic, so large inputs can still take long.
MAX_VERTICES = 100_000


@dataclass(frozen=True, slots=True)
class DiGraph:
    """Simple directed graph: no self-loops, no duplicate ordered pairs.

    ``edges`` keeps construction order (the canonical order).  ``out_adj``
    and ``in_adj`` list neighbors in that same order.  Equality and hashing
    use only ``n`` and ``edges``; the adjacency views are derived.
    """

    n: int
    edges: tuple[Edge, ...]
    out_adj: tuple[tuple[int, ...], ...] = field(compare=False, repr=False)
    in_adj: tuple[tuple[int, ...], ...] = field(compare=False, repr=False)

    @property
    def m(self) -> int:
        return len(self.edges)

    @property
    def edge_set(self) -> frozenset[Edge]:
        """The edges as a set, built on each read."""
        return frozenset(self.edges)

    def __repr__(self) -> str:
        return f"DiGraph(n={self.n}, m={self.m})"


def build(n: int, edge_list) -> DiGraph:
    """Construct a DiGraph from an edge sequence, validating invariants.

    Raises GraphError naming the offending pair on a self-loop, duplicate
    edge, or out-of-range endpoint.
    """
    if n < 1:
        raise GraphError(f"vertex count must be >= 1, got {n}")
    edges: list[Edge] = []
    seen: set[Edge] = set()
    out_adj: list[list[int]] = [[] for _ in range(n)]
    in_adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edge_list:
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"edge ({u}, {v}) endpoint out of range [0, {n})")
        if u == v:
            raise GraphError(f"self-loop ({u}, {v}) not allowed")
        e = (u, v)
        if e in seen:
            raise GraphError(f"duplicate edge ({u}, {v})")
        seen.add(e)
        edges.append(e)
        out_adj[u].append(v)
        in_adj[v].append(u)
    return DiGraph(
        n=n,
        edges=tuple(edges),
        out_adj=tuple(map(tuple, out_adj)),
        in_adj=tuple(map(tuple, in_adj)),
    )


def delete_edge(g: DiGraph, e: Edge) -> DiGraph:
    """Return g without edge e, canonical order preserved.

    Raises GraphError if e is not present.
    """
    e = (e[0], e[1])
    if e not in g.edges:
        raise GraphError(f"edge {e} not present")
    return build(g.n, (x for x in g.edges if x != e))


def delete_vertex(g: DiGraph, v: int) -> tuple[DiGraph, dict[int, int]]:
    """Return (g without vertex v, mapping old id -> new id).

    Surviving vertices are relabeled densely, preserving relative order.
    Requires n >= 2 and v in range.
    """
    if not 0 <= v < g.n:
        raise GraphError(f"vertex {v} out of range [0, {g.n})")
    if g.n < 2:
        raise GraphError("cannot delete the only vertex")
    mapping = {u: (u if u < v else u - 1) for u in range(g.n) if u != v}
    kept = [
        (mapping[u], mapping[w]) for (u, w) in g.edges if u != v and w != v
    ]
    return build(g.n - 1, kept), mapping


# The text ``serialize`` writes: a header and m edge lines, each two runs of
# ASCII digits joined by one space and ended by one newline.
_CANONICAL = re.compile(r"(?:[0-9]+ [0-9]+\n)+")


def parse(text: str) -> DiGraph:
    """Parse the canonical text format.

    Lines starting with '#' are comments, and blank or whitespace-only
    lines are ignored; both may appear anywhere.  The first data line is
    "n m" with 1 <= n <= MAX_VERTICES; exactly m data lines "u v" follow.
    Fields are runs of ASCII digits, at most 20 past any leading zeros,
    separated by any whitespace.  Raises ParseError naming the line.

    Text exactly as ``serialize`` writes it is read in one whole-text pass,
    whose only per-edge check is ``build``'s.  Every other text, and any
    text that pass rejects, goes to a line-by-line pass, which alone names
    the line of an error; the two passes give the same graph or error.
    """
    if _CANONICAL.fullmatch(text):
        try:
            n, m, *ends = map(int, text.split())
            if 1 <= n <= MAX_VERTICES and len(ends) == 2 * m:
                it = iter(ends)
                return build(n, zip(it, it))
        except ValueError:  # a GraphError, or an int too long to convert
            pass
    return _parse_lines(text)


def _quote(raw: str) -> str:
    """repr(raw) cut to 60 characters, so an error stays one short line."""
    text = repr(raw)
    return text if len(text) <= 60 else text[:57] + "..."


def _parse_lines(text: str) -> DiGraph:
    """``parse`` one line at a time, naming the line of the first error."""
    header: tuple[int, int] | None = None
    edges: list[Edge] = []
    seen: set[Edge] = set()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split()
        if not parts or raw.startswith("#"):
            continue
        if len(parts) != 2 or not all(t.isascii() and t.isdigit() for t in parts):
            raise ParseError(line_no, f"expected two decimal integers, got {_quote(raw)}")
        fields = [t.lstrip("0") or "0" for t in parts]
        longest = max(map(len, fields))  # no valid count has 21 digits
        if longest > 20:
            raise ParseError(line_no, f"{longest}-digit number exceeds 20 digits")
        a, b = map(int, fields)
        if header is None:
            if a < 1:
                raise ParseError(line_no, f"invalid header {_quote(raw)}")
            if a > MAX_VERTICES:
                raise ParseError(line_no, f"vertex count {a} exceeds {MAX_VERTICES}")
            header = (a, b)
            continue
        n, m = header
        if len(edges) >= m:
            raise ParseError(line_no, "edge count mismatch: more edges than header declares")
        if not (0 <= a < n and 0 <= b < n):
            raise ParseError(line_no, f"edge ({a}, {b}) endpoint out of range [0, {n})")
        if a == b:
            raise ParseError(line_no, f"self-loop ({a}, {b}) not allowed")
        if (a, b) in seen:
            raise ParseError(line_no, f"duplicate edge ({a}, {b})")
        seen.add((a, b))
        edges.append((a, b))
    if header is None:
        raise ParseError(1, "missing header line")
    if len(edges) != header[1]:
        raise ParseError(
            len(text.splitlines()) + 1,
            f"edge count mismatch: header declares {header[1]}, found {len(edges)}",
        )
    return build(header[0], edges)


def serialize(g: DiGraph) -> str:
    """Canonical text form: header then edges in canonical order, no comments."""
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"
