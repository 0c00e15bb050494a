"""The benchmark's tracer wraps sbspan functions by module attribute name
(``perfbench/tracing.py``'s ``TARGETS``).  A rename in sbspan would break
``perfbench/run.py --trace 1`` only when it runs; this test fails fast
instead.  It reads ``TARGETS`` without installing the tracer.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_targets_resolve_in_sbspan():
    tracing = _tracing()
    for name in tracing.MODULES:
        importlib.import_module(f"sbspan.{name}")
    for home, attr, span, namespaces in tracing.TARGETS:
        original = getattr(importlib.import_module(f"sbspan.{home}"), attr, None)
        assert callable(original), f"sbspan.{home}.{attr} is gone ({span})"
        for ns in namespaces or ():
            mod = importlib.import_module(f"sbspan.{ns}")
            if (attr, ns) == ("_sbcc_comembership", "approx"):
                # alg1's repair asks a disjoint-paths test instead: the
                # tracer patches nothing here, and
                # connectivity.sbcc_comembership.* reads 0 calls, as
                # connectivity.b_articulation_points.* already does.
                assert not hasattr(mod, attr)
                continue
            assert getattr(mod, attr, None) is original, (
                f"sbspan.{ns} no longer calls {attr} through its own attribute"
            )
