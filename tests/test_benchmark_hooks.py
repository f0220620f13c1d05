"""The benchmark's traced run wraps library attributes by name.

``perfbench/tracing.py`` replaces each ``(owner, attribute)`` from
``targets()`` with a timing wrapper.  A rename in the library would only
surface when the benchmark runs; this test fails first.  It imports the
tracing module read-only and changes nothing under ``perfbench/``.
"""

import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_every_traced_attribute_is_defined_on_its_owner(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ untouched
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _ in tracing.targets()
        if attr not in vars(owner)
    ]
    assert not missing
