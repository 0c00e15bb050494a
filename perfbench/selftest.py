"""Self-tests of the benchmark itself (not of sbspan).

    python3 perfbench/selftest.py

Checks, on the ``tiny-batch`` workload at the default seed:

* traced outputs have the same digests as untraced ones, and both match
  the committed golden file;
* every wrapped module attribute is the original function again after a
  traced run (identity check), and was a wrapper during it;
* the exact per-layer counts repeat across two traced runs, and leave out
  the spans of verification (two ``graph.serialize`` per instance, from the
  set-up round trip, though verification serializes every output too);
* the verifier fails an output with one edge dropped and an output with
  an edge that is not in the input, and both raise the failure count.

Exits 0 when every check passes.
"""

import sys

import run

run._import_package()  # sbspan from the checkout's src/

from sbspan import build  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

WORKLOAD = "tiny-batch"


def _namespaces():
    mods = {name: tracing._module(name) for name in tracing.MODULES}
    return {(name, attr): getattr(mod, attr)
            for name, mod in mods.items()
            for _, attr, _, _ in tracing.TARGETS if hasattr(mod, attr)}


def check_traced_digests_and_restore(wl, instances):
    plain = workloads.run_pass(wl, instances)
    before = _namespaces()
    tracer = tracing.Tracer()
    traced, _, _ = run.traced_pipeline(wl, tracer)
    after = _namespaces()
    assert before.keys() == after.keys()
    for key, fn in before.items():
        assert after[key] is fn, f"{key} not restored"
    assert tracer.patched == [], "tracer still holds patches"
    wrapped = 0
    with tracing.Tracer() as t:
        for mod, attr, original in t.patched:
            assert getattr(mod, attr) is not original
            assert getattr(mod, attr).__wrapped__ is original
            wrapped += 1
    assert _namespaces() == before
    assert wrapped >= len(tracing.TARGETS), wrapped

    plain_digests = [(o.key, o.digest) for o in plain.outputs]
    traced_digests = [(o.key, o.digest) for o in traced.outputs]
    assert plain_digests == traced_digests, "traced outputs differ from untraced"
    golden = run.read_golden(WORKLOAD)
    assert golden is not None, "golden file missing"
    _, failed, reasons = run.score([plain, traced], golden)
    assert failed == 0, reasons
    return plain


def check_counts_repeat(wl):
    runs = []
    for _ in range(2):
        tracer = tracing.Tracer()
        p, instances, _ = run.traced_pipeline(wl, tracer)
        agg = tracer.aggregate()
        assert agg["spans"]["graph.serialize"]["calls"] == 2 * len(instances)
        assert any(c >= tracing.VERIFY_BASE for c in tracer.call), "no verification spans"
        runs.append(run.exact_counts(run.layer_metrics(agg, p.outputs, instances)))
    assert runs[0] == runs[1], {k: (v, runs[1][k]) for k, v in runs[0].items() if runs[1][k] != v}
    for name in ("graph.build.calls", "connectivity.is_2v_strongly_biconnected.calls",
                 "dominators.dominator_tree.calls", "approx.candidates",
                 "approx.repairs", "oracle.subsets_checked"):
        assert runs[0][name] > 0, name
    return runs[0]


def check_verifier_fails(wl, instances, plain):
    golden = run.read_golden(WORKLOAD)
    by_key = {o.key: o for o in plain.outputs}
    idx = next(i for i, (_, alg) in enumerate(wl.calls) if alg == "alg2")
    i, alg = wl.calls[idx]
    g = instances[i]
    good = by_key[f"{wl.specs[i].key}/{alg}"]
    sub = good.result.subgraph

    dropped = build(sub.n, sub.edges[1:])
    absent = next((u, v) for u in range(g.n) for v in range(g.n)
                  if u != v and (u, v) not in g.edge_set)
    added = build(sub.n, (*sub.edges, absent))
    for bad, reason in ((dropped, "not 2-vertex strongly biconnected"),
                        (added, "edge not in the input")):
        err = workloads.check_output(g, bad, bad.m)
        assert err == reason, (err, reason)
        mutated = workloads.Output(good.key, g.n, g.m, bad.m, workloads.digest(bad), err, None)
        p = workloads.Pass(0.0, 0.0, 0.0, [], [mutated if o is good else o for o in plain.outputs])
        attempted, failed, _ = run.score([p], golden)
        assert failed / attempted > 0, "mutated output not counted"
        # Even with verification skipped, the golden digest catches it.
        mutated.error = None
        assert run.score([p], golden)[1] == 1


def main() -> int:
    wl = workloads.make_workload(WORKLOAD, run.DEFAULT_SEED)
    instances = workloads.build_instances(wl)
    plain = check_traced_digests_and_restore(wl, instances)
    print("ok: traced digests equal untraced and golden; attributes restored")
    counts = check_counts_repeat(wl)
    print("ok: exact counts repeat:", {k: counts[k] for k in sorted(counts)})
    check_verifier_fails(wl, instances, plain)
    print("ok: verifier fails a dropped edge and an edge not in the input")
    return 0


if __name__ == "__main__":
    sys.exit(main())
