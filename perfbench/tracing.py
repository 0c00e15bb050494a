"""Spans at the module boundaries of sbspan, recorded from outside the package.

``Tracer.install`` replaces selected functions with timing wrappers on the
module attributes through which one sbspan module calls another (and on
which the benchmark itself calls the library); ``Tracer.uninstall`` puts
every original back.  Nothing inside ``src/`` changes.

A span is (name, start, end, parent, call id).  Spans stay in memory, in
flat arrays, until the run ends.  Self time is a span's duration minus the
durations of its direct children; calls are synchronous and single
threaded, so children never overlap.  Spans recorded while the benchmark
verifies an output carry the call id plus ``VERIFY_BASE`` and are left out
of the aggregates, so that per-layer figures cover set-up and solving only.
"""

import gzip
import importlib
import time
from array import array
from collections import defaultdict

# (defining module, function, span name, namespaces to patch or None for
# every sbspan module that holds the function).  Private helpers are wrapped
# only where another module calls them: ``connectivity`` calls
# ``_two_vsb_violation`` itself once per 2VSB check.  The per-vertex DFS
# cores (``_reach_count``, ``_biconnected``, ``_strongly_connected``) are
# never wrapped: one run calls them more than 10^5 times.
TARGETS = (
    ("graph", "build", "graph.build", None),
    ("graph", "delete_edge", "graph.delete_edge", None),
    ("graph", "delete_vertex", "graph.delete_vertex", None),
    ("graph", "parse", "graph.parse", None),
    ("graph", "serialize", "graph.serialize", None),
    ("connectivity", "is_2v_strongly_biconnected",
     "connectivity.is_2v_strongly_biconnected", None),
    ("connectivity", "is_2vertex_connected", "connectivity.is_2vertex_connected", None),
    ("connectivity", "b_articulation_points", "connectivity.b_articulation_points", None),
    ("connectivity", "_sbcc_comembership", "connectivity.sbcc_comembership", ("approx",)),
    ("connectivity", "_two_vsb_violation", "connectivity.two_vsb_violation", ("generator",)),
    ("dominators", "dominator_tree", "dominators.dominator_tree", None),
    ("dominators", "reverse", "dominators.reverse", None),
    ("dominators", "strong_articulation_points_fast",
     "dominators.strong_articulation_points_fast", None),
    ("approx", "algorithm1", "approx.alg1", None),
    ("approx", "algorithm2", "approx.alg2", None),
    ("approx", "algorithm3", "approx.alg3", None),
    ("approx", "minimal_2vcss", "approx.minimal_2vcss", None),
    ("generator", "generate", "generator.generate", None),
    ("oracle", "exact_min_2vsb", "oracle.exact_min_2vsb", None),
    ("oracle", "small_instance_suite", "oracle.small_instance_suite", None),
)
MODULES = ("graph", "connectivity", "dominators", "approx", "generator", "oracle")
# Call ids at or above this tag verification spans.
VERIFY_BASE = 1 << 30


def _module(name):
    return importlib.import_module(f"sbspan.{name}")


class Tracer:
    """Records spans while installed; aggregates them afterwards."""

    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.call = array("l")
        self.size = array("l")
        self.call_id = -1
        self._open: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def begin_call(self, call_id: int) -> None:
        """Tag the spans that follow with one (instance, algorithm) id."""
        self.call_id = call_id

    def begin_verify(self, call_id: int) -> None:
        """Tag the spans that follow as verification of one call's output."""
        self.call_id = VERIFY_BASE + call_id

    def _wrap(self, fn, name: str):
        name_id = len(self.names)
        self.names.append(name)
        sized = name == "graph.build"  # record edges materialised
        span_name, start, end = self.span_name, self.start, self.end
        parent, call, size, stack = self.parent, self.call, self.size, self._open
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            i = len(start)
            span_name.append(name_id)
            parent.append(stack[-1] if stack else -1)
            call.append(self.call_id)
            size.append(-1)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if sized:
                size[i] = result.m
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = {name: _module(name) for name in MODULES}
        for home, attr, span, namespaces in TARGETS:
            original = getattr(modules[home], attr)
            wrapper = self._wrap(original, span)
            for ns in namespaces or MODULES:
                mod = modules[ns]
                if getattr(mod, attr, None) is original:
                    self._patched.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        while self._patched:
            mod, attr, original = self._patched.pop()
            setattr(mod, attr, original)

    @property
    def patched(self) -> list[tuple[object, str, object]]:
        return list(self._patched)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # ---- aggregation --------------------------------------------------------

    def __len__(self) -> int:
        return len(self.start)

    def aggregate(self) -> dict:
        """Per span name: calls, total seconds, self seconds, edges built;
        plus ``graph.build`` split by the nearest enclosing non-graph layer.
        Verification spans are skipped."""
        count = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(count)]
        child = [0.0] * count
        for i in range(count):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        stats: dict[str, dict] = defaultdict(
            lambda: {"calls": 0, "s": 0.0, "self_s": 0.0, "edges": 0}
        )
        layer = [name.split(".", 1)[0] for name in self.names]
        layer_self: dict[str, float] = defaultdict(float)
        for i in range(count):
            if self.call[i] >= VERIFY_BASE:
                continue
            name_id = self.span_name[i]
            rec = stats[self.names[name_id]]
            rec["calls"] += 1
            rec["s"] += dur[i]
            rec["self_s"] += dur[i] - child[i]
            layer_self[layer[name_id]] += dur[i] - child[i]
            if self.size[i] >= 0:
                rec["edges"] += self.size[i]
            if self.names[name_id] == "graph.build":
                p = self.parent[i]
                while p >= 0 and layer[self.span_name[p]] == "graph":
                    p = self.parent[p]
                caller = layer[self.span_name[p]] if p >= 0 else "harness"
                sub = stats[f"graph.build.from_{caller}"]
                sub["calls"] += 1
                sub["s"] += dur[i]
                sub["self_s"] += dur[i] - child[i]
                sub["edges"] += self.size[i]
        return {"spans": dict(stats), "layer_self_s": dict(layer_self)}

    def write(self, path) -> None:
        """Write every span as one tab-separated line (gzip)."""
        with gzip.open(path, "wt", encoding="ascii") as out:
            out.write("id\tname\tstart\tend\tparent\tcall\n")
            for i in range(len(self.start)):
                out.write(
                    f"{i}\t{self.names[self.span_name[i]]}\t{self.start[i]:.9f}\t"
                    f"{self.end[i]:.9f}\t{self.parent[i]}\t{self.call[i]}\n"
                )
