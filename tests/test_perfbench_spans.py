"""The benchmark's span discovery stays in step with bfmi's public functions.

``perfbench/spans.py`` wraps every public function of the traced modules
under a span named ``layer.function``.  A renamed or added function can
give two callables one span name, which breaks traced runs, or leave a
per-layer counter pointing at a span that no longer exists, which then
reads 0.  The module is loaded from its file without writing bytecode.
"""

import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_span_names_are_unique_and_cover_every_counter(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    names = {name for name, *_ in spans.public_functions()}  # raises on a shared span name
    assert set(spans.COUNTERS) <= names
