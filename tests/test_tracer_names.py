"""The benchmark tracer wraps pstlab functions by name: each must resolve."""
import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def traced_names() -> tuple:
    """TRACED from bench/tracer.py, read without importing it."""
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "TRACED" for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{TRACER} defines no TRACED")


def test_every_traced_name_resolves():
    names = traced_names()
    assert names
    for name in names:
        module, attr = name.split(".")
        assert callable(getattr(importlib.import_module(f"pstlab.{module}"), attr, None)), name
