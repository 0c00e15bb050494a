"""Command-line front end: generate instances, run algorithms, verify
outputs, and benchmark with a results table plus CSV.

Exit status: 0 when every requested check or run succeeded; 1 for a failed
run or check, an unreadable or unwritable file, or a parse error; 2 for a
usage error.  Only ``main`` maps failures to statuses.
"""

import argparse
import json
import os
import platform
import sys
import time
from contextlib import ExitStack
from pathlib import Path

from .approx import algorithm1, algorithm2, algorithm3
from .connectivity import _analysis, is_2v_strongly_biconnected
from .generator import GenConfig, generate
from .graph import MAX_VERTICES, DiGraph, GraphError, parse, serialize
from .oracle import SEARCH_EDGE_LIMIT, exact_min_2vsb

# Results are reported in the table order alg2, alg3, alg1.
ALG_ORDER = ("alg2", "alg3", "alg1")
ALG_FUNCS = {"alg1": algorithm1, "alg2": algorithm2, "alg3": algorithm3}
CSV_HEADER = "n,m,alg,elapsed_ms,edges_out,feasible"
# Why check prints n/a for a vertex set.
NA_REASONS = {"strong_articulation_points": "requires strongly connected, n >= 3",
              "b_articulation_points": "requires n >= 2"}


class UsageError(Exception):
    """A bad argument value; ``main`` reports it with exit status 2."""


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 1


def _load_graph(path: str) -> DiGraph:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise GraphError(f"{path}: byte {exc.object[exc.start]:#04x} at offset "
                         f"{exc.start} is not UTF-8 text") from None
    return parse(text)


def _selected_algorithms(raw: str) -> tuple[str, ...]:
    names = [a.strip() for a in raw.split(",") if a.strip()]
    if not names:
        raise UsageError("no algorithms selected")
    if names == ["all"]:
        names = list(ALG_FUNCS)
    for name in names:
        if name not in ALG_FUNCS:
            raise UsageError(f"unknown algorithm {name!r} (expected alg1, alg2, alg3, or all)")
    return tuple(a for a in ALG_ORDER if a in names)


def _int_list(raw: str, what: str) -> tuple[int, ...]:
    items = [s.strip() for s in raw.split(",") if s.strip()]
    if not items:
        raise UsageError(f"no {what} given")
    try:
        return tuple(int(s) for s in items)
    except ValueError:
        raise UsageError(f"invalid {what} list {raw!r}") from None


def _best_of(reps: int, fn):
    """Call fn() reps times: its last value and its least seconds, to 1 us."""
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - t0)
    return value, round(best, 6)


def _solve(g: DiGraph, alg: str, reps: int = 1, **extra) -> tuple[DiGraph, dict]:
    """Run alg on g reps times and verify the fastest output as often; return
    that output and its record, from which the CSV line, the table cell and
    the JSON record are all read.  Both times are the least of reps."""
    best = min((ALG_FUNCS[alg](g, precheck=False) for _ in range(reps)),
               key=lambda r: r.elapsed)
    sub, edges = best.subgraph, g.edge_set
    feasible, verify_s = _best_of(reps, lambda: (
        sub.n == g.n and edges.issuperset(sub.edges)
        and is_2v_strongly_biconnected(sub)))
    return sub, {"n": g.n, "m": g.m, "alg": alg,
                 "elapsed_s": round(best.elapsed, 6),
                 "edges_out": best.edges_out, "feasible": feasible,
                 **extra, "verify_s": verify_s}


def _ms(r: dict) -> int:
    return round(r["elapsed_s"] * 1000)


def _csv_line(r: dict) -> str:
    return (f"{r['n']},{r['m']},{r['alg']},{_ms(r)},{r['edges_out']},"
            f"{str(r['feasible']).lower()}")


def cmd_gen(args: argparse.Namespace) -> int:
    if not 4 <= args.n <= MAX_VERTICES:
        raise UsageError(f"n must be >= 4 and <= {MAX_VERTICES}")
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
    algs = _selected_algorithms(args.alg)
    g = _load_graph(args.in_path)
    if not is_2v_strongly_biconnected(g):
        return _fail("input is not 2-vertex strongly biconnected")
    all_feasible = True
    with ExitStack() as files:
        # Open the outputs first, so that an unwritable path fails before
        # the first solve rather than after it.
        outs = [files.enter_context(open(_out_path(args.out, alg, len(algs) > 1), "w"))
                if args.out else None for alg in algs]
        if args.csv:
            print(CSV_HEADER)
        for alg, out in zip(algs, outs):
            sub, rec = _solve(g, alg)
            all_feasible &= rec["feasible"]
            if out is not None:
                out.write(serialize(sub))
            if args.csv:
                print(_csv_line(rec))
            else:
                print(f"{alg}: elapsed_ms={_ms(rec)} edges_out={rec['edges_out']} "
                      f"feasible={str(rec['feasible']).lower()}")
    return 0 if all_feasible else 1


def cmd_check(args: argparse.Namespace) -> int:
    if args.minimal and not args.subgraph:
        raise UsageError("--minimal requires --subgraph")
    g = _load_graph(args.in_path)
    print(f"n={g.n} m={g.m}")
    for label, value in _analysis(g).items():
        if isinstance(value, bool):
            value = str(value).lower()
        elif value is None:
            value = "n/a (" + NA_REASONS[label] + ")"
        else:
            value = " ".join(map(str, sorted(value))) or "none"
        print(f"{label}: {value}")

    status = 0
    if args.subgraph:
        sub = _load_graph(args.subgraph)
        subset, spanning = g.edge_set.issuperset(sub.edges), sub.n == g.n
        print(f"subgraph_subset: {'pass' if subset else 'fail'}")
        print(f"subgraph_spanning: {'pass' if spanning else 'fail'}")
        if not (subset and spanning):
            return 1
        feasible = is_2v_strongly_biconnected(sub)
        print(f"subgraph_feasible: {str(feasible).lower()}")
        if not feasible:
            status = 1
        if args.minimal:
            # Minimal iff alg2's deletion pass deletes nothing.  Its local
            # test needs a feasible sub; an infeasible one is vacuously
            # minimal, as no deletion restores feasibility.
            minimal = not feasible or algorithm2(sub, precheck=False).edges_out == sub.m
            print(f"subgraph_minimal: {'pass' if minimal else 'fail'}")
            if not minimal:
                status = 1
    if args.exact:
        try:
            print(f"exact_minimum: {exact_min_2vsb(g).opt_size}")
        except ValueError as exc:
            return _fail(str(exc))
    return status


def cmd_bench(args: argparse.Namespace) -> int:
    sizes = _int_list(args.sizes, "sizes")
    seeds = _int_list(args.seeds, "seeds")
    algorithms = _selected_algorithms(args.algs)
    if args.reps < 1:
        raise UsageError("--reps must be >= 1")
    if min(sizes) < 4 or max(sizes) > MAX_VERTICES:
        raise UsageError(f"sizes must be in [4, {MAX_VERTICES}]")

    with ExitStack() as files:
        # Open the outputs first, so that an unwritable path fails before
        # the run rather than after it.
        csv_file = files.enter_context(open(args.csv, "w")) if args.csv else None
        json_file = files.enter_context(open(args.json, "w")) if args.json else None
        records = []
        for n in sizes:
            for seed in seeds:
                g, gen_s = _best_of(
                    args.reps, lambda: generate(GenConfig(n=n, seed=seed)))
                text = serialize(g)
                _, parse_s = _best_of(args.reps, lambda: parse(text))
                print(f"bench: n={n} seed={seed} m={g.m}", file=sys.stderr)
                records += [_solve(g, alg, args.reps, seed=seed, gen_s=gen_s,
                                   parse_s=parse_s)[1]
                            for alg in algorithms]
        if csv_file:
            csv_file.write("\n".join([CSV_HEADER, *map(_csv_line, records)]) + "\n")
        if json_file:
            json_file.write(json.dumps({
                "platform": platform.platform(),
                "python_version": platform.python_version(),
                "cpu_count": os.cpu_count(),
                "reps": args.reps,
                "records": records,
            }, indent=1) + "\n")

    print(_markdown_table(records, algorithms))
    for path in filter(None, (args.csv, args.json)):
        print(f"wrote {Path(path)}", file=sys.stderr)
    return 0 if all(r["feasible"] for r in records) else 1


def _markdown_table(records: list[dict], algorithms: tuple[str, ...]) -> str:
    """One row per generated instance, in generation order: each instance's
    records are consecutive, one per algorithm in table order."""
    titles = {"alg1": "Algorithm1", "alg2": "Algorithm2", "alg3": "Algorithm3"}
    header = ["Input (V, E)"]
    for alg in algorithms:
        header += [f"{titles[alg]} Time", f"{titles[alg]} Edges"]
    lines = [
        "| " + " | ".join(header) + " |",
        "|" + "|".join([" --- "] * len(header)) + "|",
    ]
    k = len(algorithms)
    for i in range(0, len(records), k):
        cells = [f"({records[i]['n']}, {records[i]['m']})"]
        for r in records[i:i + k]:
            mark = "" if r["feasible"] else " (infeasible)"
            cells += [f"{_ms(r)} ms", f"{r['edges_out']}{mark}"]
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
                         help="also verify single-edge minimality of the "
                         "subgraph (requires --subgraph)")
    p_check.add_argument("--exact", action="store_true",
                         help=f"report the exact optimum (m <= {SEARCH_EDGE_LIMIT})")
    p_check.set_defaults(func=cmd_check)

    p_bench = sub.add_parser("bench", help="generate, run, and tabulate")
    p_bench.add_argument("--sizes", required=True, help="comma list of n values")
    p_bench.add_argument("--seeds", required=True, help="comma list of seeds")
    p_bench.add_argument("--algs", default="alg1,alg2,alg3",
                         help="comma list of algorithms (default: all three)")
    p_bench.add_argument("--reps", type=int, default=1,
                         help="repetitions per run; minimum times are reported")
    p_bench.add_argument("--csv", help="write one CSV row per (n, seed, alg) here")
    p_bench.add_argument("--json", help="write one JSON record per "
                         "(n, seed, alg) with generation, parse, algorithm "
                         "and verification seconds, plus the platform, here")
    p_bench.set_defaults(func=cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (OSError, GraphError) as exc:
        return _fail(str(exc))


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
