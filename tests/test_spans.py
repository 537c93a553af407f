"""The names that perfbench's spans wrap still resolve in cvp.

``perfbench/spans.py`` replaces each (module, attribute) of ``WRAPPED`` in
the importing module's namespace; a name lost in a refactor would otherwise
show only when the benchmark runs.  The file is read, never changed.
"""

import importlib
import importlib.util
from pathlib import Path

from cvp import ManifoldModel, analysis, optimize

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def wrapped_names():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [(modname, attr) for modname, attr, *_ in module.WRAPPED]


def test_every_wrapped_name_is_a_callable_of_cvp():
    names = wrapped_names()
    assert names
    for modname, attr in names:
        assert callable(getattr(importlib.import_module(modname), attr, None)), (modname, attr)


def test_bounds_report_calls_the_heat_search_through_the_module(monkeypatch):
    # the span around optimize_heat_params sees bounds_report's call only if
    # bounds_report looks the name up in cvp.analysis at call time
    calls = []
    search = analysis.optimize_heat_params

    def spy(*args, **kwargs):
        calls.append(args[0].tau)
        return search(*args, **kwargs)

    monkeypatch.setattr(analysis, "optimize_heat_params", spy)
    analysis.bounds_report(ManifoldModel.sphere(1.5))
    assert calls == [1.5]


def test_tau_scan_certifies_through_the_module(monkeypatch):
    # the span around certify counts a scan's rows only if tau_scan looks the
    # name up in cvp.analysis at call time
    calls = []
    certify = analysis.certify

    def spy(model, *args, **kwargs):
        calls.append(model.tau)
        return certify(model, *args, **kwargs)

    monkeypatch.setattr(analysis, "certify", spy)
    optimize.tau_scan("circle", [1.7, 1.72], 6, steps_per_temp=5, restarts=1)
    assert calls == [1.7, 1.72]


def test_tau_scan_anneals_through_the_module(monkeypatch):
    # the span around anneal counts a scan's anneals only if tau_scan looks
    # the name up in cvp.optimize at call time
    calls = []
    anneal = optimize.anneal

    def spy(model, *args, **kwargs):
        calls.append(model.tau)
        return anneal(model, *args, **kwargs)

    monkeypatch.setattr(optimize, "anneal", spy)
    optimize.tau_scan("circle", [1.7, 1.72], 6, steps_per_temp=5, restarts=1)
    assert calls == [1.7, 1.72, 1.72, 1.7]  # cold, cold, warm up, warm down
