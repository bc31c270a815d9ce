"""The benchmark tracer wraps package functions by name; each name must resolve.

bench/tracer.py lists them in _TARGETS, one tuple per hankel_lab module,
with methods written as "Class.method". A renamed or deleted function
would make a traced benchmark run fail; this catches it in the test suite.
The file is read as text, not imported.
"""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def tracer_targets():
    for node in ast.parse(TRACER.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "_TARGETS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/tracer.py defines no _TARGETS")


def test_every_traced_name_resolves():
    targets = tracer_targets()
    assert "hankel" in targets and "_fill" in targets["hankel"]
    missing = []
    for layer, names in targets.items():
        module = importlib.import_module(f"hankel_lab.{layer}")
        for name in names:
            owner = module
            for part in name.split("."):
                owner = getattr(owner, part, None)
            if not callable(owner):
                missing.append(f"hankel_lab.{layer}.{name}")
    assert missing == []
