"""Command-line front end: generate instances, run algorithms, verify
outputs, and benchmark with a results table plus CSV.

Exit status is zero only when every requested check or run succeeded.
"""

import argparse
import json
import os
import platform
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from .approx import AlgoResult, _deletion_pass, algorithm1, algorithm2, algorithm3
from .connectivity import (
    _keeps_2vsb,
    b_articulation_points,
    is_2v_strongly_biconnected,
    is_2vertex_connected,
    is_strongly_biconnected,
    is_strongly_connected,
)
from .dominators import strong_articulation_points_fast
from .generator import GenConfig, generate
from .graph import MAX_VERTICES, DiGraph, GraphError, parse, serialize
from .oracle import SEARCH_EDGE_LIMIT, exact_min_2vsb

# Results are reported in the table order alg2, alg3, alg1.
ALG_ORDER = ("alg2", "alg3", "alg1")
ALG_FUNCS = {"alg1": algorithm1, "alg2": algorithm2, "alg3": algorithm3}
CSV_HEADER = "n,m,alg,elapsed_ms,edges_out,feasible"


@dataclass(frozen=True, slots=True)
class BenchRow:
    n: int
    m: int
    algorithm: str
    elapsed_ms: int
    edges_out: int
    feasible: bool


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 1


def _load_graph(path: str) -> DiGraph:
    return parse(Path(path).read_text())


def _selected_algorithms(raw: str) -> tuple[str, ...]:
    names = [a.strip() for a in raw.split(",") if a.strip()]
    if not names:
        raise ValueError("no algorithms selected")
    if names == ["all"]:
        names = list(ALG_FUNCS)
    for name in names:
        if name not in ALG_FUNCS:
            raise ValueError(f"unknown algorithm {name!r} (expected alg1, alg2, alg3, or all)")
    return tuple(a for a in ALG_ORDER if a in names)


def _int_list(raw: str, what: str) -> tuple[int, ...]:
    items = [s.strip() for s in raw.split(",") if s.strip()]
    if not items:
        raise ValueError(f"no {what} given")
    try:
        return tuple(int(s) for s in items)
    except ValueError:
        raise ValueError(f"invalid {what} list {raw!r}") from None


def _vertex_set_line(label: str, points: set[int] | None, reason: str = "") -> str:
    if points is None:
        return f"{label}: n/a ({reason})"
    return f"{label}: " + (" ".join(map(str, sorted(points))) if points else "none")


def _row(g: DiGraph, result: AlgoResult, feasible: bool) -> BenchRow:
    return BenchRow(n=g.n, m=g.m, algorithm=result.algorithm,
                    elapsed_ms=round(result.elapsed * 1000),
                    edges_out=result.edges_out, feasible=feasible)


def _csv_line(r: BenchRow) -> str:
    return (f"{r.n},{r.m},{r.algorithm},{r.elapsed_ms},{r.edges_out},"
            f"{str(r.feasible).lower()}")


def cmd_gen(args: argparse.Namespace) -> int:
    if not 4 <= args.n <= MAX_VERTICES:
        return _fail(f"n must be >= 4 and <= {MAX_VERTICES}")
    g = generate(GenConfig(n=args.n, seed=args.seed))
    Path(args.out).write_text(serialize(g))
    print(f"{g.n} {g.m}")
    return 0


def _out_path(base: str, alg: str, multiple: bool) -> Path:
    path = Path(base)
    if not multiple:
        return path
    return path.with_name(f"{path.stem}.{alg}{path.suffix}")


def cmd_run(args: argparse.Namespace) -> int:
    try:
        algs = _selected_algorithms(args.alg)
    except ValueError as exc:
        return _fail(str(exc))
    try:
        g = _load_graph(args.in_path)
    except (OSError, GraphError) as exc:
        return _fail(str(exc))
    if not is_2v_strongly_biconnected(g):
        return _fail("input is not 2-vertex strongly biconnected")
    all_feasible = True
    if args.csv:
        print(CSV_HEADER)
    for alg in algs:
        result = ALG_FUNCS[alg](g, precheck=False)
        feasible = _verify_output(g, result.subgraph)
        all_feasible &= feasible
        if args.out:
            path = _out_path(args.out, alg, len(algs) > 1)
            path.write_text(serialize(result.subgraph))
        row = _row(g, result, feasible)
        if args.csv:
            print(_csv_line(row))
        else:
            print(f"{alg}: elapsed_ms={row.elapsed_ms} edges_out={row.edges_out} "
                  f"feasible={str(feasible).lower()}")
    return 0 if all_feasible else 1


def _verify_output(g: DiGraph, sub: DiGraph) -> bool:
    return (
        sub.n == g.n
        and sub.edge_set <= g.edge_set
        and is_2v_strongly_biconnected(sub)
    )


def cmd_check(args: argparse.Namespace) -> int:
    try:
        g = _load_graph(args.in_path)
    except (OSError, GraphError) as exc:
        return _fail(str(exc))
    print(f"n={g.n} m={g.m}")
    strongly_connected = is_strongly_connected(g)
    print(f"strongly_connected: {str(strongly_connected).lower()}")
    print(f"strongly_biconnected: {str(is_strongly_biconnected(g)).lower()}")
    print(f"2vertex_connected: {str(is_2vertex_connected(g)).lower()}")
    print(f"2v_strongly_biconnected: {str(is_2v_strongly_biconnected(g)).lower()}")
    if g.n >= 3 and strongly_connected:
        saps = strong_articulation_points_fast(g)
        print(_vertex_set_line("strong_articulation_points", saps))
    else:
        print(_vertex_set_line(
            "strong_articulation_points", None, "requires strongly connected, n >= 3"
        ))
    if g.n >= 2:
        print(_vertex_set_line("b_articulation_points", b_articulation_points(g)))
    else:
        print(_vertex_set_line("b_articulation_points", None, "requires n >= 2"))

    status = 0
    if args.subgraph:
        try:
            sub = _load_graph(args.subgraph)
        except (OSError, GraphError) as exc:
            return _fail(str(exc))
        subset = sub.n == g.n and sub.edge_set <= g.edge_set
        print(f"subgraph_subset: {'pass' if subset else 'fail'}")
        if not subset:
            return 1
        print("subgraph_spanning: pass")
        feasible = is_2v_strongly_biconnected(sub)
        print(f"subgraph_feasible: {str(feasible).lower()}")
        if not feasible:
            status = 1
        if args.minimal:
            # Minimal iff the pass deletes nothing: h equals sub until then.
            # Its local test needs a feasible sub; an infeasible one is
            # vacuously minimal, as no deletion restores feasibility.
            minimal = not feasible or _deletion_pass(sub, _keeps_2vsb).m == sub.m
            print(f"subgraph_minimal: {'pass' if minimal else 'fail'}")
            if not minimal:
                status = 1
    if args.exact:
        if g.m > SEARCH_EDGE_LIMIT:
            return _fail(
                f"--exact requires m <= {SEARCH_EDGE_LIMIT}, graph has {g.m} edges"
            )
        try:
            print(f"exact_minimum: {exact_min_2vsb(g).opt_size}")
        except ValueError as exc:
            return _fail(str(exc))
    return status


def cmd_bench(args: argparse.Namespace) -> int:
    try:
        sizes = _int_list(args.sizes, "sizes")
        seeds = _int_list(args.seeds, "seeds")
        algorithms = _selected_algorithms(args.algs)
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    if args.reps < 1:
        print("usage error: --reps must be >= 1", file=sys.stderr)
        return 2
    if min(sizes) < 4 or max(sizes) > MAX_VERTICES:
        print(f"usage error: sizes must be in [4, {MAX_VERTICES}]", file=sys.stderr)
        return 2

    rows: list[BenchRow] = []
    records: list[dict] = []
    all_feasible = True
    for n in sizes:
        for seed in seeds:
            g = generate(GenConfig(n=n, seed=seed))
            print(f"bench: n={n} seed={seed} m={g.m}", file=sys.stderr)
            for alg in algorithms:
                results = [
                    ALG_FUNCS[alg](g, precheck=False) for _ in range(args.reps)
                ]
                best = min(results, key=lambda r: r.elapsed)
                t0 = time.perf_counter()
                feasible = _verify_output(g, best.subgraph)
                verify_s = time.perf_counter() - t0
                all_feasible &= feasible
                rows.append(_row(g, best, feasible))
                records.append({
                    "n": n, "seed": seed, "m": g.m, "alg": alg,
                    "elapsed_s": round(best.elapsed, 6),
                    "verify_s": round(verify_s, 6),
                    "edges_out": best.edges_out, "feasible": feasible,
                })

    csv_path = Path(args.csv)
    csv_path.write_text("\n".join([CSV_HEADER, *map(_csv_line, rows)]) + "\n")
    if args.json:
        Path(args.json).write_text(json.dumps({
            "platform": platform.platform(),
            "python_version": platform.python_version(),
            "cpu_count": os.cpu_count(),
            "reps": args.reps,
            "records": records,
        }, indent=1) + "\n")

    print(_markdown_table(rows, algorithms))
    print(f"wrote {csv_path}", file=sys.stderr)
    return 0 if all_feasible else 1


def _markdown_table(rows: list[BenchRow], algorithms: tuple[str, ...]) -> str:
    titles = {"alg1": "Algorithm1", "alg2": "Algorithm2", "alg3": "Algorithm3"}
    header = ["Input (V, E)"]
    for alg in algorithms:
        header += [f"{titles[alg]} Time", f"{titles[alg]} Edges"]
    lines = [
        "| " + " | ".join(header) + " |",
        "|" + "|".join([" --- "] * len(header)) + "|",
    ]
    by_input: dict[tuple[int, int], dict[str, BenchRow]] = {}
    for row in rows:
        by_input.setdefault((row.n, row.m), {})[row.algorithm] = row
    for (n, m), by_alg in by_input.items():
        cells = [f"({n}, {m})"]
        for alg in algorithms:
            row = by_alg.get(alg)
            if row is None:
                cells += ["-", "-"]
            else:
                mark = "" if row.feasible else " (infeasible)"
                cells += [f"{row.elapsed_ms} ms", f"{row.edges_out}{mark}"]
        lines.append("| " + " | ".join(cells) + " |")
    return "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sbspan",
        description=(
            "Generate, shrink, verify, and benchmark 2-vertex strongly "
            "biconnected spanning subgraphs of directed graphs."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a random feasible instance")
    p_gen.add_argument("--n", type=int, required=True, help="vertex count (>= 4)")
    p_gen.add_argument("--seed", type=int, required=True, help="generator seed")
    p_gen.add_argument("--out", required=True, help="output graph file")
    p_gen.set_defaults(func=cmd_gen)

    p_run = sub.add_parser("run", help="run algorithms on a graph file")
    p_run.add_argument("--alg", required=True,
                       help="alg1, alg2, alg3, a comma list, or all")
    p_run.add_argument("--in", dest="in_path", required=True, help="input graph file")
    p_run.add_argument("--out", help="write the output subgraph(s) here; with "
                       "several algorithms the tag lands before the extension")
    p_run.add_argument("--csv", action="store_true",
                       help="emit CSV rows instead of text lines")
    p_run.set_defaults(func=cmd_run)

    p_check = sub.add_parser("check", help="report connectivity verdicts")
    p_check.add_argument("--in", dest="in_path", required=True, help="graph file")
    p_check.add_argument("--subgraph", help="verify this subgraph against the graph")
    p_check.add_argument("--minimal", action="store_true",
                         help="also verify single-edge minimality of the subgraph")
    p_check.add_argument("--exact", action="store_true",
                         help=f"report the exact optimum (m <= {SEARCH_EDGE_LIMIT})")
    p_check.set_defaults(func=cmd_check)

    p_bench = sub.add_parser("bench", help="generate, run, and tabulate")
    p_bench.add_argument("--sizes", required=True, help="comma list of n values")
    p_bench.add_argument("--seeds", required=True, help="comma list of seeds")
    p_bench.add_argument("--algs", default="alg1,alg2,alg3",
                         help="comma list of algorithms (default: all three)")
    p_bench.add_argument("--reps", type=int, default=1,
                         help="repetitions per run; minimum elapsed is reported")
    p_bench.add_argument("--csv", default="bench.csv", help="CSV output path")
    p_bench.add_argument("--json", help="also write one JSON record per "
                         "(n, seed, alg) with algorithm and verification "
                         "seconds, plus the platform, here")
    p_bench.set_defaults(func=cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
