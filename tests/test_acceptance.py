"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The expensive corpus
(n in {10, 50, 100} x seeds 1..5, all three algorithms) is computed once
and shared; the determinism criterion repeats it from scratch.  Expect
about 9 s end to end on a 2-core x86-64 VM (CPython 3.11.7), dominated by
the determinism rerun and the corpus generation.
"""

import time
from itertools import count, islice

import pytest

from sbspan import (
    GenConfig,
    algorithm1,
    algorithm2,
    algorithm3,
    b_articulation_points,
    build,
    generate,
    is_2v_strongly_biconnected,
    is_strongly_connected,
    minimal_2vcss,
    serialize,
    small_instance_suite,
    strong_articulation_points_fast,
)
from sbspan.connectivity import strong_articulation_points_bruteforce
from sbspan.oracle import SEARCH_EDGE_LIMIT, exact_min_2vsb
from sbspan.graph import delete_edge
from fixtures import BBOWTIE, BK4, DIAMOND
from reference import rng_below

SIZES = (10, 50, 100)
SEEDS = (1, 2, 3, 4, 5)
ALG_FUNCS = {"alg1": algorithm1, "alg2": algorithm2, "alg3": algorithm3}

_timings = {}


def _report(number: int, label: str, detail: str) -> None:
    print(f"criterion {number} ({label}): PASS - {detail}")


@pytest.fixture(scope="module")
def corpus():
    t0 = time.perf_counter()
    graphs = {
        (n, seed): generate(GenConfig(n=n, seed=seed))
        for n in SIZES
        for seed in SEEDS
    }
    _timings["generate"] = time.perf_counter() - t0
    return graphs


@pytest.fixture(scope="module")
def runs(corpus):
    t0 = time.perf_counter()
    results = {
        (n, seed, alg): fn(corpus[(n, seed)], precheck=False)
        for (n, seed) in corpus
        for alg, fn in ALG_FUNCS.items()
    }
    _timings["runs"] = time.perf_counter() - t0
    return results


def test_criterion_1_feasibility_and_size_window(corpus, runs):
    for (n, seed), g in corpus.items():
        for alg in ALG_FUNCS:
            r = runs[(n, seed, alg)]
            assert r.subgraph.n == g.n, (n, seed, alg)
            assert r.subgraph.edge_set <= g.edge_set, (n, seed, alg)
            assert is_2v_strongly_biconnected(r.subgraph), (n, seed, alg)
            assert 2 * n <= r.edges_out < 3 * n, (n, seed, alg, r.edges_out)
    elapsed = _timings["generate"] + _timings["runs"]
    assert elapsed < 300, f"corpus took {elapsed:.0f}s, budget 300s"
    _report(
        1,
        "feasibility and size window",
        f"{len(corpus) * 3} runs feasible with 2n <= edges_out < 3n "
        f"in {elapsed:.0f}s",
    )


def test_criterion_2_table_shape(runs):
    means = {}
    for alg in ALG_FUNCS:
        sizes = [runs[(100, seed, alg)].edges_out for seed in SEEDS]
        means[alg] = sum(sizes) / len(sizes)
        assert 200 <= means[alg] <= 270, (alg, means[alg])
    _report(
        2,
        "table shape at n=100",
        "mean edges_out " + ", ".join(
            f"{alg}={means[alg]:.1f}" for alg in sorted(means)
        ) + " (window [200, 270])",
    )


def test_criterion_3_algorithm2_minimality(runs):
    checked = 0
    for n in SIZES:
        for seed in SEEDS:
            sub = runs[(n, seed, "alg2")].subgraph
            for e in sub.edges:
                assert not is_2v_strongly_biconnected(delete_edge(sub, e)), \
                    (n, seed, e)
                checked += 1
    _report(3, "algorithm2 minimality",
            f"{checked} single-edge deletions all break feasibility")


def test_criterion_4_approximation_ratio():
    t0 = time.perf_counter()
    suite = small_instance_suite(50, seed=1)
    # Past n in {4, 5}: per n in {6, 7}, the first 20 seeds whose instance
    # fits the oracle's m <= 24 guard.  The filter favours sparser instances.
    for n in (6, 7):
        fitting = (g for g in (generate(GenConfig(n=n, seed=s)) for s in count())
                   if g.m <= SEARCH_EDGE_LIMIT)
        suite += [(g, exact_min_2vsb(g)) for g in islice(fitting, 20)]
    ratios = {alg: [] for alg in ALG_FUNCS}
    worst_past_5 = {alg: 0.0 for alg in ALG_FUNCS}
    for g, exact in suite:
        for alg, fn in ALG_FUNCS.items():
            r = fn(g, precheck=False)
            assert is_2v_strongly_biconnected(r.subgraph)
            assert r.edges_out >= exact.opt_size
            ratio = r.edges_out / exact.opt_size
            ratios[alg].append(ratio)
            if g.n > 5:
                worst_past_5[alg] = max(worst_past_5[alg], ratio)
    worst_alg2 = max(ratios["alg2"])
    assert worst_alg2 <= 3.5, f"alg2 ratio {worst_alg2} exceeds 7/2"
    elapsed = time.perf_counter() - t0
    assert elapsed < 120, f"ratio suite took {elapsed:.0f}s, budget 120s"
    summary = ", ".join(
        f"{alg} max={max(r):.3f} mean={sum(r) / len(r):.3f} "
        f"(n=6,7 max={worst_past_5[alg]:.3f})"
        for alg, r in sorted(ratios.items())
    )
    _report(4, "approximation ratio",
            f"{len(suite)} instances (n=4-7), alg2 bound 3.5 held; {summary}; "
            f"{elapsed:.0f}s")


def _random_sc_graph(seed, max_n=50):
    rng, nv = rng_below(seed, max_n - 2)
    n = 3 + nv
    edges, seen = [], set()
    target = 2 * n
    while True:
        while len(edges) < target:
            rng, u = rng_below(rng, n)
            rng, v = rng_below(rng, n)
            if u != v and (u, v) not in seen:
                seen.add((u, v))
                edges.append((u, v))
        g = build(n, edges)
        if is_strongly_connected(g):
            return g
        target += 1


def test_criterion_5_sap_oracle_equivalence():
    assert strong_articulation_points_fast(BBOWTIE) == {0}
    assert strong_articulation_points_fast(DIAMOND) == {0, 3}
    assert strong_articulation_points_fast(BK4) == set()
    count = 100
    for seed in range(count):
        g = _random_sc_graph(seed * 7919 + 13)
        assert strong_articulation_points_fast(g) == \
            strong_articulation_points_bruteforce(g), seed
    _report(5, "strong articulation point equivalence",
            f"fast == brute force on {count} random graphs plus fixtures")


def test_criterion_6_algorithm1_trace(corpus, runs):
    for (n, seed), g in corpus.items():
        r = runs[(n, seed, "alg1")]
        assert b_articulation_points(r.subgraph) == set(), (n, seed)
        assert r.trace.l_bap_count == len(r.trace.bap_set), (n, seed)
    # on the cheap inputs, re-derive the first-phase subgraph independently
    for seed in SEEDS:
        g = corpus[(10, seed)]
        gplus = minimal_2vcss(g)
        expect = frozenset(b_articulation_points(gplus))
        assert runs[(10, seed, "alg1")].trace.bap_set == expect, seed
    _report(6, "algorithm1 internal contract",
            "no b-articulation points in any output; traces consistent")


def test_criterion_7_determinism(corpus, runs, tmp_path):
    mismatches = []
    for (n, seed), g in corpus.items():
        g2 = generate(GenConfig(n=n, seed=seed))
        assert g2 == g, (n, seed)
        for alg, fn in ALG_FUNCS.items():
            first = runs[(n, seed, alg)]
            second = fn(g2, precheck=False)
            a = tmp_path / f"{n}-{seed}-{alg}-a.txt"
            b = tmp_path / f"{n}-{seed}-{alg}-b.txt"
            a.write_text(serialize(first.subgraph))
            b.write_text(serialize(second.subgraph))
            if a.read_bytes() != b.read_bytes():
                mismatches.append((n, seed, alg))
            row_a = (g.n, g.m, alg, first.edges_out,
                     is_2v_strongly_biconnected(first.subgraph))
            row_b = (g2.n, g2.m, alg, second.edges_out,
                     is_2v_strongly_biconnected(second.subgraph))
            if row_a != row_b:
                mismatches.append((n, seed, alg, "csv"))
    assert not mismatches, mismatches
    _report(7, "determinism",
            f"{len(corpus) * 3} reruns byte-identical "
            "(subgraph files and CSV rows, elapsed excluded)")


def test_criterion_8_relative_speed(runs):
    lines = []
    for seed in SEEDS:
        ms1 = round(runs[(100, seed, "alg1")].elapsed * 1000)
        ms2 = round(runs[(100, seed, "alg2")].elapsed * 1000)
        lines.append(
            f"n=100 seed={seed} alg1_ms={ms1} alg2_ms={ms2} "
            f"alg1_not_slower={ms1 <= ms2}"
        )
    g200 = generate(GenConfig(n=200, seed=1))
    r1 = algorithm1(g200, precheck=False)
    r2 = algorithm2(g200, precheck=False)
    assert is_2v_strongly_biconnected(r1.subgraph)
    assert is_2v_strongly_biconnected(r2.subgraph)
    ms1, ms2 = round(r1.elapsed * 1000), round(r2.elapsed * 1000)
    lines.append(
        f"n=200 seed=1 alg1_ms={ms1} alg2_ms={ms2} "
        f"alg1_not_slower={ms1 <= ms2}"
    )
    for line in lines:
        print(f"criterion 8 timing: {line}")
    _report(8, "relative speed ordering",
            "timings surfaced above (reported, not asserted)")
