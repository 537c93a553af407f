"""Spans around the calls into cvp's public functions, taken from outside.

A span is recorded where the caller looks the function up: the wrapper
replaces the name in the importing module's namespace (``cvp.optimize``
imports ``lagrangian_matrix`` and ``action`` by name, ``tau_scan`` finds
``anneal``, ``merge_clusters`` and ``analysis.certify`` at call time), so
nothing inside cvp changes.  Spans stay in memory; ``write`` stores them
as JSON lines at the end of a run.
"""

from __future__ import annotations

import json
import time

import numpy as np


def _anneal_counts(args, kwargs, result):
    model = args[0] if args else kwargs["model"]
    m = args[1] if len(args) > 1 else kwargs["m"]
    return {"kind": model.kind, "m": int(m), "support": result.support_size}


def _merge_counts(args, kwargs, result):
    before = len(args[1] if len(args) > 1 else kwargs["m"])
    return {"removed": before - len(result.measure)}


def _cross_counts(args, kwargs, result):
    return {"kernel_evals": int(np.size(result))}


def _scan_counts(args, kwargs, result):
    return {"rows": len(result)}


# (module, attribute, span name, counts); a function imported by name into
# several modules gets one entry per importing module
WRAPPED = (
    ("cvp.cli", "main", "cli.main", None),
    ("cvp.optimize", "anneal", "optimize.anneal", _anneal_counts),
    ("cvp.optimize", "tau_scan", "optimize.scan", _scan_counts),
    ("cvp.optimize", "merge_clusters", "optimize.merge", _merge_counts),
    ("cvp.optimize", "optimal_weights_info", "optimize.qp", None),
    ("cvp.optimize", "lagrangian_matrix", "manifold.gram", None),
    ("cvp.measure", "lagrangian_matrix", "manifold.gram", None),
    ("cvp.analysis", "lagrangian_matrix", "manifold.gram", None),
    ("cvp.analysis", "kernel_matrix", "manifold.gram", None),
    ("cvp.analysis", "kernel_cross", "manifold.cross", _cross_counts),
    ("cvp.analysis", "certify", "analysis.certify", None),
    ("cvp.analysis", "bounds_report", "analysis.bounds", None),
    ("cvp.analysis", "optimize_heat_params", "analysis.heat", None),
    ("cvp.analysis", "nu0_monte_carlo", "analysis.mc", None),
    ("cvp.optimize", "action", "measure.action", None),
    ("cvp.analysis", "action", "measure.action", None),
    ("cvp.cli", "action", "measure.action", None),
    ("cvp.cli", "measure_to_dict", "measure.io", None),
    ("cvp.measure", "load_measure", "measure.io", None),
    ("cvp.analysis", "volume_action", "measure.volume_action", None),
    ("cvp.cli", "density_action", "measure.density_action", None),
)


class Tracer:
    """Records nested spans (name, start, end, parent, job) and their counts."""

    def __init__(self):
        self.spans: list[dict] = []
        self.job: str | None = None
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def install(self, modules: dict) -> None:
        for modname, attr, name, counts in WRAPPED:
            module = modules[modname]
            orig = getattr(module, attr)
            self._saved.append((module, attr, orig))
            setattr(module, attr, self._wrap(orig, name, counts))

    def uninstall(self) -> None:
        for module, attr, orig in reversed(self._saved):
            setattr(module, attr, orig)
        self._saved.clear()

    def _wrap(self, fn, name, counts):
        def traced(*args, **kwargs):
            span = {
                "id": len(self.spans),
                "name": name,
                "parent": self._stack[-1] if self._stack else None,
                "job": self.job,
            }
            self.spans.append(span)
            self._stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if counts is not None:
                span.update(counts(args, kwargs, result))
            return result

        traced.__wrapped__ = fn
        return traced

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, sort_keys=True) + "\n")


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the part covered by its direct children."""
    out = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            out[s["parent"]] -= s["end"] - s["start"]
    return out
