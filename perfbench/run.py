"""Pipeline benchmark for sbspan: generate -> serialize/parse -> solve -> verify.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload table-n60 --seed 1 --seconds 30 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
line before it is a JSON detail record (environment, combined output digest,
failure reasons, sample counts).  Workloads and metrics are described in
``perfbench/README.md`` and ``BENCHMARK.json``.

The package is imported from ``src/`` of the checkout this file sits in;
without it the benchmark exits with status 2 and prints no result.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN_DIR = HERE / "golden"
SPAN_DIR = ROOT / ".perfbench_out"
DEFAULT_SEED = 1
# A slice of set-up, repeated until SETUP_SLICE_S is spent, runs before the
# first pass, between passes and after the last one.
SETUP_SLICE_S = 1.0
# The exact counts of a traced run are compared across this many pipelines.
MIN_TRACED = 2

_SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# Metric names reported with --trace 0 and --trace 1, in BENCHMARK.json order.
DECLARED = {0: [m["name"] for m in _SPEC["end_to_end"]],
            1: [m["name"] for m in _SPEC["per_layer"]]}
UNITS = {m["name"]: m["unit"] for m in _SPEC["end_to_end"] + _SPEC["per_layer"]}


def _import_package():
    """Import sbspan from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import sbspan
    except ImportError as exc:
        print(f"perfbench: cannot import sbspan from {src}: {exc}", file=sys.stderr)
        raise SystemExit(2) from None
    if Path(sbspan.__file__).resolve().parent.parent != src.resolve():
        print(f"perfbench: sbspan resolved outside {src}: {sbspan.__file__}", file=sys.stderr)
        raise SystemExit(2)


# ---- golden digests ---------------------------------------------------------


def golden_path(workload: str) -> Path:
    return GOLDEN_DIR / f"{workload}.sha256"


def read_golden(workload: str) -> dict[str, str] | None:
    path = golden_path(workload)
    if not path.exists():
        return None
    pairs = (line.split() for line in path.read_text().splitlines() if line)
    return {key: dig for dig, key in pairs}


def write_golden(workload: str, outputs) -> Path:
    path = golden_path(workload)
    path.parent.mkdir(exist_ok=True)
    path.write_text("".join(f"{o.digest}  {o.key}\n" for o in outputs))
    return path


def combined_digest(outputs) -> str:
    h = hashlib.sha256()
    for o in outputs:
        h.update(f"{o.digest}  {o.key}\n".encode("ascii"))
    return h.hexdigest()


def score(passes, reference: dict[str, str]) -> tuple[int, int, dict[str, int]]:
    """(attempted, failed, reason counts) over every output of every pass.

    An output fails when its solver raised, when it fails verification, or
    when its digest differs from the reference (the committed golden file at
    the default seed, else the first pass of this run).
    """
    attempted = failed = 0
    reasons: dict[str, int] = {}
    for p in passes:
        for o in p.outputs:
            attempted += 1
            reason = o.error
            if reason is None and reference.get(o.key) != o.digest:
                reason = "digest differs from the reference"
            if reason is not None:
                failed += 1
                reasons[reason] = reasons.get(reason, 0) + 1
    return attempted, failed, reasons


# ---- end-to-end run ---------------------------------------------------------


def end_to_end(passes, setup_times) -> dict[str, float]:
    setup_s = statistics.median(setup_times)
    outputs = passes[0].outputs
    return {
        "setup_s": setup_s,
        "solve_s": statistics.median([p.solve_s for p in passes]),
        "wall_s": setup_s + statistics.median([p.wall_s for p in passes]),
        "edges_out_ratio": sum(o.edges_out for o in outputs)
        / sum(2 * o.n for o in outputs),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _drop_results(p):
    """Keep a later pass's digests and errors, not its output graphs, so that
    memory does not grow with the number of passes."""
    for o in p.outputs:
        o.result = None
    return p


def run_untraced(wl, seconds: float):
    """Alternate set-up slices and passes until ``seconds`` are spent.

    Set-up is sampled across the whole run, like the passes, rather than
    only at its start, so that its median sees the same drift of the host's
    speed as theirs.
    """
    from workloads import build_instances, run_pass

    clock = time.perf_counter
    setup_times, passes = [], []
    t_start = clock()
    while True:
        t_slice = clock()
        while True:
            t0 = clock()
            instances = build_instances(wl)
            t1 = clock()
            setup_times.append(t1 - t0)
            if t1 - t_slice >= SETUP_SLICE_S:
                break
        if passes and t1 - t_start >= seconds:
            break
        p = run_pass(wl, instances)
        passes.append(_drop_results(p) if passes else p)
    return passes, setup_times


# ---- traced run -------------------------------------------------------------

# Per-layer metrics read straight off the span aggregates: (span, statistic).
SPAN_METRICS = (
    ("graph.build", "calls"),
    ("graph.build", "self_s"),
    ("graph.build", "edges"),
    ("graph.build.from_approx", "calls"),
    ("graph.build.from_approx", "self_s"),
    ("graph.build.from_dominators", "calls"),
    ("graph.build.from_dominators", "self_s"),
    ("graph.build.from_generator", "calls"),
    ("graph.build.from_generator", "self_s"),
    ("graph.delete_edge", "calls"),
    ("graph.delete_vertex", "calls"),
    ("graph.parse", "s"),
    ("graph.serialize", "s"),
    ("connectivity.is_2v_strongly_biconnected", "calls"),
    ("connectivity.is_2v_strongly_biconnected", "self_s"),
    ("connectivity.is_2vertex_connected", "calls"),
    ("connectivity.is_2vertex_connected", "s"),
    ("connectivity.b_articulation_points", "calls"),
    ("connectivity.b_articulation_points", "s"),
    ("connectivity.sbcc_comembership", "calls"),
    ("connectivity.sbcc_comembership", "s"),
    ("dominators.strong_articulation_points_fast", "calls"),
    ("dominators.strong_articulation_points_fast", "s"),
    ("dominators.dominator_tree", "calls"),
    ("dominators.dominator_tree", "self_s"),
    ("dominators.reverse", "calls"),
    ("dominators.reverse", "self_s"),
    ("approx.alg1", "s"),
    ("approx.alg2", "s"),
    ("approx.alg3", "s"),
    ("generator.generate", "s"),
    ("oracle.exact_min_2vsb", "calls"),
    ("oracle.exact_min_2vsb", "s"),
)


def layer_metrics(agg, outputs, instances) -> dict[str, float]:
    """Per-layer metrics of one traced pipeline (set-up plus one pass)."""
    spans = agg["spans"]

    def stat(name, key):
        return spans.get(name, {}).get(key, 0)

    out = {f"{name}.{key}": stat(name, key) for name, key in SPAN_METRICS}
    twovsb_calls = stat("connectivity.is_2v_strongly_biconnected", "calls")
    out["connectivity.is_2v_strongly_biconnected.ms_per_call"] = (
        1000.0 * stat("connectivity.is_2v_strongly_biconnected", "s") / twovsb_calls
        if twovsb_calls else 0.0
    )
    # minimal_2vcss runs only as algorithm 1's first phase.
    out["approx.alg1.phase1_s"] = stat("approx.minimal_2vcss", "s")
    out["approx.alg1.repair_s"] = stat("approx.alg1", "s") - stat("approx.minimal_2vcss", "s")
    out["approx.self_s"] = agg["layer_self_s"].get("approx", 0.0)

    candidates = removed = repairs = baps = cover = 0
    extra_edges = 0
    for o in outputs:
        r = o.result
        if r is None:
            continue
        if o.key.startswith("oracle-"):
            extra_edges += o.m - min(3 * o.n, o.n * (o.n - 1))
            continue
        t = r.trace
        if r.algorithm == "alg1":
            candidates += o.m
            removed += o.m - (r.edges_out - t.edges_added)
            repairs += t.edges_added
            baps += t.l_bap_count
        elif r.algorithm == "alg2":
            candidates += o.m
            removed += t.edges_removed
        else:
            candidates += o.m - t.phase1_size
            removed += t.edges_removed
            cover += t.phase1_size
    for g in instances:
        extra_edges += g.m - min(3 * g.n, g.n * (g.n - 1))
    out["approx.candidates"] = candidates
    out["approx.edges_removed"] = removed
    out["approx.accept_ratio"] = removed / candidates if candidates else 0.0
    out["approx.repairs"] = repairs
    out["approx.bap_count"] = baps
    out["approx.cover_size"] = cover
    out["generator.extra_edges"] = extra_edges
    out["generator.feasibility_checks"] = stat("connectivity.two_vsb_violation", "calls")
    out["generator.check_s"] = stat("connectivity.two_vsb_violation", "s")
    # The oracle builds one graph per complete subset it tests.
    out["oracle.subsets_checked"] = stat("graph.build.from_oracle", "calls")
    return out


def exact_counts(metrics: dict[str, float]) -> dict[str, float]:
    """The metrics that are counts: identical on every traced run."""
    return {k: v for k, v in metrics.items() if UNITS[k] == "count"}


def traced_pipeline(wl, tracer):
    """Set-up plus one pass with the tracer installed; (pass, instances, wall)."""
    from workloads import build_instances, run_pass

    with tracer:
        t0 = time.perf_counter()
        instances = build_instances(wl, tracer)
        p = run_pass(wl, instances, tracer)
        wall = time.perf_counter() - t0
    return p, instances, wall


def run_traced(wl, seconds: float):
    """Untraced and traced pipelines in the order U T T U U T T ... until
    ``seconds`` are spent and at least MIN_TRACED traced ones and one
    untraced one have run.  Alternating keeps warm-up of the first pipeline
    in the process from counting against one side only."""
    from tracing import Tracer
    from workloads import build_instances, run_pass

    passes, plain_walls, traced_walls, layers = [], [], [], []
    first_tracer = None
    t_start = time.perf_counter()
    k = 0
    while (time.perf_counter() - t_start < seconds or len(layers) < MIN_TRACED
           or not plain_walls):
        traced = k % 4 in (1, 2)
        k += 1
        if traced:
            tracer = Tracer()
            p, instances, wall = traced_pipeline(wl, tracer)
            traced_walls.append(wall)
            m = layer_metrics(tracer.aggregate(), p.outputs, instances)
            m["trace.spans"] = len(tracer)
            layers.append(m)
            if first_tracer is None:
                first_tracer = tracer
        else:
            t0 = time.perf_counter()
            p = run_pass(wl, build_instances(wl))
            plain_walls.append(time.perf_counter() - t0)
        passes.append(_drop_results(p))
    exact = exact_counts(layers[0])
    metrics = {
        k: exact[k] if k in exact else statistics.median([m[k] for m in layers])
        for k in layers[0]
    }
    metrics["trace.overhead"] = (
        statistics.median(traced_walls) / statistics.median(plain_walls) - 1.0
    )
    counts_repeat = all(exact_counts(m) == exact for m in layers)
    return passes, metrics, counts_repeat, first_tracer, len(layers)


# ---- main -------------------------------------------------------------------


def _environment(load_start, cpu_start, wall_start) -> dict:
    return {
        "python_version": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "loadavg_start": list(load_start),
        "loadavg_end": list(os.getloadavg()),
        "cpu_s": time.process_time() - cpu_start,
        "wall_s": time.perf_counter() - wall_start,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=_SPEC["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-golden", action="store_true",
                    help="record this run's output digests as the golden file "
                         "(default seed, untraced, all outputs verified)")
    args = ap.parse_args(argv)
    load_start = os.getloadavg()
    cpu_start, wall_start = time.process_time(), time.perf_counter()

    _import_package()
    from workloads import WORKLOADS, make_workload

    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    if args.write_golden and (args.seed != DEFAULT_SEED or args.trace):
        ap.error(f"--write-golden needs --seed {DEFAULT_SEED} --trace 0")
    wl = make_workload(args.workload, args.seed)

    detail: dict = {"workload": wl.name, "seed": args.seed, "trace": args.trace}
    if args.trace:
        passes, metrics, counts_repeat, tracer, traced = run_traced(wl, args.seconds)
        detail["exact_counts_repeat"] = counts_repeat
        detail["traced_pipelines"] = traced
        SPAN_DIR.mkdir(exist_ok=True)
        span_file = SPAN_DIR / f"{wl.name}-seed{args.seed}.spans.tsv.gz"
        tracer.write(span_file)
        detail["span_file"] = str(span_file.relative_to(ROOT))
    else:
        passes, setup_times = run_untraced(wl, args.seconds)
        metrics = end_to_end(passes, setup_times)
        counts_repeat = True
        call_ms = sorted(s * 1000.0 for p in passes for s in p.call_s)
        detail["setup_times_s"] = setup_times
        detail["pass_solve_s"] = [p.solve_s for p in passes]
        detail["call_samples"] = len(call_ms)
        detail["call_ms_p50"] = statistics.median(call_ms)
        if len(call_ms) >= 1000:
            detail["call_ms_p99"] = statistics.quantiles(call_ms, n=100)[98]

    golden = read_golden(wl.name) if args.seed == DEFAULT_SEED else None
    if args.write_golden:
        bad = [o.key for o in passes[0].outputs if o.error is not None]
        if bad:
            print(f"perfbench: not writing golden digests, failed outputs: {bad[:5]}",
                  file=sys.stderr)
            return 1
        golden = {o.key: o.digest for o in passes[0].outputs}
        print(f"perfbench: wrote {write_golden(wl.name, passes[0].outputs)}", file=sys.stderr)
    if args.seed == DEFAULT_SEED and golden is None:
        print(f"perfbench: missing golden digests {golden_path(wl.name)}", file=sys.stderr)
        golden = {}
    reference = golden if golden is not None else {o.key: o.digest for o in passes[0].outputs}
    attempted, failed, reasons = score(passes, reference)

    detail["golden_checked"] = golden is not None
    detail["output_digest"] = combined_digest(passes[0].outputs)
    detail["outputs_per_pass"] = len(passes[0].outputs)
    detail["failed_frac"] = failed / attempted
    detail["failure_reasons"] = reasons
    detail["env"] = _environment(load_start, cpu_start, wall_start)
    if sorted(metrics) != sorted(DECLARED[args.trace]):
        print(f"perfbench: measured metrics differ from BENCHMARK.json: "
              f"{sorted(set(metrics) ^ set(DECLARED[args.trace]))}", file=sys.stderr)
        return 1
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0 and counts_repeat,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": UNITS[name]} for name in DECLARED[args.trace]
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
