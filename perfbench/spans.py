"""Spans around bfmi's public functions, installed from outside the library.

Each public function (and public plain method) of the traced modules is
replaced by a wrapper at every name under which a ``bfmi`` module holds
it, so ``bfmi.verify.joint_yz`` and ``bfmi.cli.certify_instance`` are
wrapped as well as ``bfmi.channel.joint_yz``.  A span's self time is its
duration minus the durations of the spans opened inside it; summed over
every span, self times equal the duration of the root spans.

Work done only to count (distinct rows, file sizes) runs inside a
``trace.count`` span, so that it is charged to the tracer and not to the
layer that happened to call the counted function.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import tracemalloc
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("boolfn", "channel", "mi", "karamata", "verify", "cli")
ROOT = "bench.call"
COUNT = "trace.count"


def _arg(sig, args, kwargs, name):
    return sig.bind(*args, **kwargs).arguments[name]


# Counters recorded at the layer boundary where the work happens:
# span name -> (parameter it reads, function(counts, value, result)).
def _count_joint(counts, table, result):
    counts["channel.cells"] += 1 << table.n


def _count_dump(counts, path, result):
    counts["channel.dump_bytes"] += os.path.getsize(path)


def _count_rows(counts, joint, result):
    counts["mi.rows"] += 1 << joint.n
    counts["mi.distinct_rows"] += len(set(joint.rows))


def _count_certificate(counts, inst, result):
    counts["karamata.certificates"] += 1
    counts["karamata.runs"] += len(inst.x_seq.runs) + len(inst.y_seq.runs)


def _count_report(counts, reports, result):
    counts["verify.report_bytes"] += len(result)


def _count_scan(counts, n, result):
    counts["verify.tables_scanned"] += sum(s.num_functions_scanned for s in result)


COUNTERS = {
    "channel.joint_yz": ("f", _count_joint),
    "channel.write_csv": ("path", _count_dump),
    "mi.mutual_information": ("j", _count_rows),
    "karamata.certify_instance": ("inst", _count_certificate),
    "verify.reports_to_json": ("reports", _count_report),
    "verify.exhaustive_check": ("n", _count_scan),
}


def public_functions():
    """(span name, holder, attribute, function) for every traced callable.

    The holder is the module or class the function is defined in.  Plain
    methods are named ``layer.method`` (``channel.write_csv``).
    """
    out = []
    seen = set()
    for layer in LAYERS:
        mod = importlib.import_module(f"bfmi.{layer}")
        for name, obj in vars(mod).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                out.append((f"{layer}.{name}", mod, name, obj))
            elif inspect.isclass(obj):
                for mname, meth in vars(obj).items():
                    if not mname.startswith("_") and inspect.isfunction(meth):
                        out.append((f"{layer}.{mname}", obj, mname, meth))
    for span_name, *_ in out:
        if span_name in seen:
            raise RuntimeError(f"two traced callables share the span name {span_name}")
        seen.add(span_name)
    return out


class Patch:
    """Replace functions at every place bfmi holds them; ``undo`` restores."""

    def __init__(self, replacements):
        # replacements: list of (holder, attribute, original, wrapper)
        self._undo = []
        by_id = {id(orig): (orig, wrapper) for _, _, orig, wrapper in replacements}
        for holder, attr, orig, wrapper in replacements:
            if inspect.isclass(holder):
                self._set(holder, attr, wrapper)
        for modname, mod in list(sys.modules.items()):
            if modname != "bfmi" and not modname.startswith("bfmi."):
                continue
            for attr, val in list(vars(mod).items()):
                hit = by_id.get(id(val))
                if hit is not None and hit[0] is val:
                    self._set(mod, attr, hit[1])

    def _set(self, holder, attr, value):
        self._undo.append((holder, attr, getattr(holder, attr)))
        setattr(holder, attr, value)

    def undo(self):
        for holder, attr, value in reversed(self._undo):
            setattr(holder, attr, value)
        self._undo.clear()


class Tracer:
    """Aggregated spans: self seconds and calls per span name, plus counters."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self.root_s = 0.0
        self._open = []  # child seconds accumulated by each open span

    def _enter(self):
        self._open.append(0.0)
        return perf_counter()

    def _leave(self, name, t0):
        dur = perf_counter() - t0
        self.self_s[name] += dur - self._open.pop()
        self.calls[name] += 1
        if self._open:
            self._open[-1] += dur
        else:
            self.root_s += dur

    def root(self, fn, *args):
        """Call ``fn`` inside a root span."""
        t0 = self._enter()
        try:
            return fn(*args)
        finally:
            self._leave(ROOT, t0)

    def wrap(self, name, fn):
        counter = COUNTERS.get(name)
        sig = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t0 = self._enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._leave(name, t0)
            if counter is not None:
                t1 = self._enter()
                try:
                    counter[1](self.counts, _arg(sig, args, kwargs, counter[0]), result)
                finally:
                    self._leave(COUNT, t1)
            return result

        return traced

    def install(self) -> Patch:
        return Patch([(holder, attr, fn, self.wrap(name, fn))
                      for name, holder, attr, fn in public_functions()])


def install_peak_alloc(span_name: str, peaks: list) -> Patch:
    """Wrap one function so each call appends its tracemalloc peak (bytes) to ``peaks``."""
    [(holder, attr, fn)] = [(h, a, f) for name, h, a, f in public_functions() if name == span_name]

    @functools.wraps(fn)
    def measured(*args, **kwargs):
        tracemalloc.start()
        try:
            return fn(*args, **kwargs)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

    return Patch([(holder, attr, fn, measured)])
