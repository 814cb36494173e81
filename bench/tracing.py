"""Spans recorded from the benchmark's own wrappers around pointerlab's
public functions.

Each wrapped function is replaced in every pointerlab module namespace that
binds it, so calls across module boundaries (runner -> experiment,
experiment -> measurement, ...) and the replays inside ``experiment`` all
pass through a wrapper.  Spans live in memory; ``Tracer.document`` returns
them as one JSON-ready object at the end of a run.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict

# (module, attribute) -> span name.  A dotted attribute names a method.
WRAPPED = {
    ("scenario", "parse_scenario"): "scenario.parse",
    ("runner", "run"): "runner.run",
    ("runner", "Report.to_json"): "runner.render",
    ("experiment", "apply_step"): "experiment.apply_step",
    ("experiment", "certainty"): "experiment.certainty",
    ("experiment", "consistency_audit"): "experiment.reports",
    ("experiment", "decoherence_compare"): "experiment.reports",
    ("measurement", "premeasure"): "measurement.premeasure",
    ("measurement", "environment_couple"): "measurement.couple",
    ("measurement", "born"): "measurement.born",
    ("measurement", "condition"): "measurement.condition",
    ("measurement", "outcome_probability"): "measurement.condition",
    ("hilbert", "group_state"): "hilbert.group",
    ("hilbert", "partial_trace"): "hilbert.partial_trace",
    ("decomposition", "triortho_verdict"): "decomposition.triortho",
    ("decomposition", "rewrite"): "decomposition.rewrite",
}
# Spans whose first argument is a state: its dimension is the kernel's work.
KERNELS = {"measurement.premeasure", "measurement.couple"}


class Tracer:
    def __init__(self):
        self.spans = []      # [name, start, end, parent index, file id, amplitudes]
        self.stack = []
        self.file_id = None

    def wrap(self, name, fn):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = [name, clock(), None, stack[-1] if stack else None, self.file_id,
                    args[0].layout.dimension if name in KERNELS else 0]
            spans.append(span)
            stack.append(len(spans) - 1)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()

        traced.__wrapped__ = fn
        return traced

    def self_times(self, first=0):
        """{name: [self seconds, calls, amplitudes]} over spans[first:]."""
        child = defaultdict(float)
        for name, start, end, parent, _, _ in self.spans[first:]:
            if parent is not None:
                child[parent] += end - start
        out = defaultdict(lambda: [0.0, 0, 0])
        for i, (name, start, end, _, _, amps) in enumerate(self.spans[first:], first):
            acc = out[name]
            acc[0] += end - start - child[i]
            acc[1] += 1
            acc[2] += amps
        return out

    def document(self):
        return {"spans": [
            {"id": i, "name": n, "start": s, "end": e, "parent": p, "file": f}
            for i, (n, s, e, p, f, _) in enumerate(self.spans)]}


class instrumented:
    """Context manager that installs a tracer's wrappers and removes them."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.undo = []

    def __enter__(self):
        for mod, _ in WRAPPED:
            importlib.import_module(f"pointerlab.{mod}")
        modules = [m for k, m in sys.modules.items()
                   if k == "pointerlab" or k.startswith("pointerlab.")]
        for (mod, attr), name in WRAPPED.items():
            owner = sys.modules[f"pointerlab.{mod}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                self.undo.append((cls, meth, cls.__dict__[meth]))
                setattr(cls, meth, self.tracer.wrap(name, cls.__dict__[meth]))
                continue
            fn = getattr(owner, attr)
            traced = self.tracer.wrap(name, fn)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is fn:
                        self.undo.append((m, key, fn))
                        setattr(m, key, traced)
        return self.tracer

    def __exit__(self, *exc):
        for owner, key, value in reversed(self.undo):
            setattr(owner, key, value)
        self.undo.clear()
        return False
