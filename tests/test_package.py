"""Package-level contracts: a stdlib-only runtime, the exported API, and the
README's library example."""

import ast
import re
import sys
from pathlib import Path

import sbspan

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "sbspan"

EXPORTS = {
    "AlgoResult", "AlgoTrace", "RepairLoopStalled",
    "algorithm1", "algorithm2", "algorithm3", "minimal_2vcss",
    "DiGraph", "Edge", "GraphError", "ParseError", "build", "parse", "serialize",
    "is_strongly_connected", "is_strongly_biconnected", "is_2vertex_connected",
    "is_2v_strongly_biconnected", "b_articulation_points",
    "strong_articulation_points_fast",
    "GenConfig", "generate",
    "ExactResult", "exact_min_2vsb", "small_instance_suite",
}


def test_runtime_imports_are_stdlib_only():
    checked = 0
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                roots = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                roots = [node.module.split(".")[0]]
            else:
                continue  # relative imports stay inside sbspan
            for root in roots:
                assert root == "sbspan" or root in sys.stdlib_module_names, (
                    f"{path.name} imports {root}"
                )
                checked += 1
    assert checked


def test_exports():
    assert len(sbspan.__all__) == len(EXPORTS) == 25
    assert set(sbspan.__all__) == EXPORTS
    for name in sbspan.__all__:
        assert getattr(sbspan, name) is not None


def test_readme_library_snippet_runs():
    readme = (ROOT / "README.md").read_text()
    library = readme[readme.index("## Library"):]
    snippet = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    exec(compile(snippet, "README.md", "exec"), {})
