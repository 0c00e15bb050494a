"""The user pipeline the benchmark measures: generate, serialize/parse, solve,
verify.  Only sbspan's library functions are called, through their module
attributes, so that a traced run sees every call.

A workload is a list of instance specs and a list of solver calls, both a
pure function of the workload seed.  One *pass* runs every call once and
verifies every output.
"""

import hashlib
import random
import time
from dataclasses import dataclass

from sbspan import approx, connectivity, generator, graph, oracle

# Paper table order.
TABLE_ORDER = ("alg2", "alg3", "alg1")
ALG_ATTR = {"alg1": "algorithm1", "alg2": "algorithm2", "alg3": "algorithm3"}
ORACLE_COUNT = 100
TINY_SIZES = (6, 8, 10, 12)
TINY_PER_SIZE = 100


class SetupError(RuntimeError):
    """An instance failed its serialize/parse round trip."""


@dataclass(frozen=True, slots=True)
class Spec:
    """One input: generator (n, seed), optionally relabeled by a seed."""

    key: str
    n: int
    gen_seed: int
    relabel_seed: int | None


@dataclass(frozen=True, slots=True)
class Workload:
    name: str
    specs: tuple[Spec, ...]
    calls: tuple[tuple[int, str], ...]  # (spec index, alg) in run order
    oracle_seed: int | None  # small_instance_suite seed, when it runs


def make_workload(name: str, seed: int) -> Workload:
    """Instances and calls of a workload for one workload seed.

    ``table-n60`` and ``alg1-n200`` take fixed generator seeds (1, 2, 3 as in
    the README's bench example; 2 at n=200, where seed 1 gives m=2418 and a
    12 s alg1 call, too long to repeat within a run) and let the workload seed relabel
    the vertices and shuffle the edge order.  Independent generator draws at
    n=60 span m=307..632 and a 3x range of solve time, which no affordable
    run length averages out; a relabeled instance keeps n and m and changes
    the canonical scan order, hence the output.  ``tiny-batch`` offsets every
    generator seed by the workload seed: 400 instances average out.
    """
    if name == "table-n60":
        specs = tuple(
            Spec(f"n60-g{b}", 60, b, seed * 1000 + b) for b in (1, 2, 3)
        )
        calls = tuple((i, alg) for i in range(len(specs)) for alg in TABLE_ORDER)
        return Workload(name, specs, calls, None)
    if name == "alg1-n200":
        return Workload(name, (Spec("n200-g2", 200, 2, seed * 1000 + 2),),
                        ((0, "alg1"),), None)
    if name == "tiny-batch":
        specs = tuple(
            Spec(f"n{n}-k{k}", n, seed * 1000 + k, None)
            for n in TINY_SIZES
            for k in range(TINY_PER_SIZE)
        )
        calls = tuple((i, alg) for i in range(len(specs)) for alg in TABLE_ORDER)
        return Workload(name, specs, calls, seed * 1000)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("table-n60", "alg1-n200", "tiny-batch")


def _relabeled_text(g, relabel_seed: int) -> str:
    rng = random.Random(relabel_seed)
    perm = list(range(g.n))
    rng.shuffle(perm)
    edges = [(perm[u], perm[v]) for u, v in g.edges]
    rng.shuffle(edges)
    lines = [f"{g.n} {len(edges)}"]
    lines.extend(f"{u} {v}" for u, v in edges)
    return "\n".join(lines) + "\n"


def build_instances(wl: Workload, tracer=None) -> list:
    """Generate every instance and pass it through text and back.

    Raises SetupError when serialize(parse(text)) differs from the text.
    """
    out = []
    for i, spec in enumerate(wl.specs):
        if tracer is not None:
            tracer.begin_call(-1 - i)
        g = generator.generate(generator.GenConfig(n=spec.n, seed=spec.gen_seed))
        if spec.relabel_seed is None:
            text = graph.serialize(g)
        else:
            text = _relabeled_text(g, spec.relabel_seed)
        back = graph.parse(text)
        if graph.serialize(back) != text:
            raise SetupError(f"{spec.key}: serialize(parse(text)) != text")
        out.append(back)
    return out


def digest(sub) -> str:
    return hashlib.sha256(graph.serialize(sub).encode("ascii")).hexdigest()


def check_output(g, sub, claimed_edges: int) -> str | None:
    """None when sub is a valid answer for g, else the reason it is not."""
    if sub.n != g.n:
        return "vertex count differs from the input"
    if sub.m != claimed_edges:
        return "reported edge count differs from the subgraph"
    if not sub.edge_set <= g.edge_set:
        return "edge not in the input"
    if not connectivity.is_2v_strongly_biconnected(sub):
        return "not 2-vertex strongly biconnected"
    return None


@dataclass
class Output:
    """One verified output of a pass."""

    key: str
    n: int
    m: int  # input edges
    edges_out: int
    digest: str | None
    error: str | None
    result: object  # AlgoResult, or ExactResult for the oracle


@dataclass
class Pass:
    solve_s: float
    verify_s: float
    wall_s: float
    call_s: list[float]
    outputs: list[Output]


def run_pass(wl: Workload, instances: list, tracer=None) -> Pass:
    """Run every solver call of the workload once, then verify every output."""
    clock = time.perf_counter
    t_pass = clock()
    call_s: list[float] = []
    raw = []
    for call_id, (i, alg) in enumerate(wl.calls):
        if tracer is not None:
            tracer.begin_call(call_id)
        fn = getattr(approx, ALG_ATTR[alg])
        t0 = clock()
        try:
            res, err = fn(instances[i], precheck=False), None
        except Exception as exc:  # a raising solver is a counted failure
            res, err = None, f"raised {type(exc).__name__}: {exc}"
        call_s.append(clock() - t0)
        raw.append((i, alg, res, err))
    solve_s = sum(call_s)
    pairs, oracle_err = [], None
    if wl.oracle_seed is not None:
        if tracer is not None:
            tracer.begin_call(len(wl.calls))
        t0 = clock()
        try:
            pairs = oracle.small_instance_suite(ORACLE_COUNT, wl.oracle_seed)
        except Exception as exc:  # counted as ORACLE_COUNT failures below
            oracle_err = f"raised {type(exc).__name__}: {exc}"
        solve_s += clock() - t0

    t_verify = clock()
    outputs = []
    for call_id, (i, alg, res, err) in enumerate(raw):
        if tracer is not None:
            tracer.begin_verify(call_id)
        g = instances[i]
        key = f"{wl.specs[i].key}/{alg}"
        if err is not None:
            outputs.append(Output(key, g.n, g.m, 0, None, err, None))
            continue
        err = check_output(g, res.subgraph, res.edges_out)
        outputs.append(Output(
            key, g.n, g.m, res.edges_out, digest(res.subgraph), err, res
        ))
    if wl.oracle_seed is not None:
        if tracer is not None:
            tracer.begin_verify(len(wl.calls))
        if oracle_err is not None:
            outputs.extend(
                Output(f"oracle-{k}", 0, 0, 0, None, oracle_err, None)
                for k in range(ORACLE_COUNT)
            )
        for k, (g, exact) in enumerate(pairs):
            err = check_output(g, exact.witness, exact.opt_size)
            text = f"{exact.opt_size}\n{graph.serialize(exact.witness)}"
            outputs.append(Output(
                f"oracle-{k}", g.n, g.m, exact.opt_size,
                hashlib.sha256(text.encode("ascii")).hexdigest(), err, exact,
            ))
    end = clock()
    return Pass(solve_s, end - t_verify, end - t_pass, call_s, outputs)
