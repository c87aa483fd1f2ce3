"""The benchmark's tracer wraps `subsym` functions by name; renaming or
removing one breaks only `perfbench/run.py --trace 1`, which this suite
never runs.  The tracer source is parsed, not imported, so nothing is
written under perfbench/."""

import ast
import functools
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def tracer_targets():
    """(layer, attribute path) for every entry of the tracer's TARGETS table."""
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    table = next(
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "TARGETS"
    )
    return [
        (layer.value, entry.elts[0].value)
        for layer, entries in zip(table.keys, table.values)
        for entry in entries.elts
    ]


def test_tracer_targets_resolve():
    targets = tracer_targets()
    assert len(targets) > 30
    missing = []
    for layer, path in targets:
        module = importlib.import_module(f"subsym.{layer}")
        try:
            functools.reduce(getattr, path.split("."), module)
        except AttributeError:
            missing.append(f"subsym.{layer}.{path}")
    assert not missing
