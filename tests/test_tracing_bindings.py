"""The benchmark's tracer wraps library names; each one it names must exist.

`perfbench/tracing.py` replaces every binding in its `_bindings()` when a
run passes ``--trace 1``, so a deleted or renamed function would crash every
traced run.  This resolves them all without installing the tracer.
"""

from __future__ import annotations

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_traced_binding_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    bindings = tracing._bindings()
    assert bindings
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attribute}"
        for owner, attribute, _, _ in bindings
        if not callable(getattr(owner, attribute, None))
    ]
    assert missing == []
