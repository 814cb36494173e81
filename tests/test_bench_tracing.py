"""The benchmark's tracer (``bench/tracing.py``) wraps pointerlab functions
by module and attribute name.  Every name it lists must resolve, or a
refactor silently breaks ``bench/run.py --trace 1``.  The table is read
with ``ast``, so nothing under ``bench/`` is imported or written."""

import ast
import importlib
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _wrapped() -> dict:
    for node in ast.parse(TRACING.read_text("utf-8")).body:
        targets = [getattr(t, "id", None) for t in getattr(node, "targets", ())]
        if isinstance(node, ast.Assign) and targets == ["WRAPPED"]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"{TRACING} defines no WRAPPED table")


@pytest.mark.parametrize("module, attribute", sorted(_wrapped()))
def test_traced_name_resolves(module, attribute):
    owner = importlib.import_module(f"pointerlab.{module}")
    for part in attribute.split("."):
        owner = getattr(owner, part)
    assert callable(owner)
