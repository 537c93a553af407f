"""Per-layer metrics from the spans of the traced passes, and the weight-QP probe.

Layers are the modules of ``src/cvp``.  Times and counts are per traced
pass unless the name says per call (``.us`` is microseconds per call).
Layers a workload does not reach report 0.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

import numpy as np

import oracles
import spans as spanlib
import workloads

PROBES_PER_JOB = 20
PROBES_PER_SCAN_ROW = 8
# seeded 10-point Grams compared with face enumeration: 40 at each case
ORACLE_CASES = (("circle", 1.3), ("circle", 2.6), ("sphere", 1.2), ("sphere", 2.0))
ORACLE_PER_CASE = 40
ORACLE_N = 10
ORACLE_RTOL = 1e-9

PER_LAYER = (
    "optimize.anneal.self_s.circle", "optimize.anneal.self_s.sphere",
    "optimize.anneal.self_s.flag", "optimize.anneal.calls",
    "optimize.scan.anneal_calls_per_row", "optimize.scan.row_s",
    "optimize.anneal.support_ratio", "optimize.qp.solve_us", "optimize.qp.iterations",
    "optimize.qp.kkt_max", "optimize.qp.oracle_miss_share", "optimize.merge.ms",
    "optimize.merge.points_removed", "manifold.gram.calls", "manifold.gram.us",
    "manifold.cross.ms", "manifold.cross.kernel_evals", "analysis.certify.calls",
    "analysis.certify.ms", "analysis.bounds.ms", "analysis.heat.ms", "analysis.mc.ms",
    "measure.action.calls", "measure.action.us", "measure.io.ms",
    "measure.volume_action.ms", "measure.density_action.ms", "cli.self_s",
)


def _configs(jobs):
    """(kind, tau, m, f, count) for the QP probe at each job's model and size."""
    out = []
    for j in jobs:
        if j.argv is not None and j.argv[0] == "minimize":
            out.append((j.meta["kind"], j.meta["tau"], j.meta["m"], j.meta.get("f"),
                        PROBES_PER_JOB))
        elif j.argv is not None and j.argv[0] == "scan":
            lo, hi, step = workloads.SCAN_TAUS
            out += [("circle", lo + i * step, workloads.SCAN_M, None, PROBES_PER_SCAN_ROW)
                    for i in range(int(round((hi - lo) / step)) + 1)]
    return out


def probe_qp(cvp, tracer, modules: dict, jobs, seed: int) -> dict:
    """Cold weight solves through ``optimal_weights_info`` on seeded configurations."""
    rng = np.random.default_rng((seed, 23))
    oracle_rng = np.random.default_rng((seed, 29))
    optimize = cvp.optimize
    probes = {"config": [], "oracle": []}
    tracer.install(modules)
    try:
        for kind, tau, m, f, count in _configs(jobs):
            model = cvp.ManifoldModel(kind, float(tau), f)
            tracer.job = f"probe:{kind}:{tau}:{m}"
            for _ in range(count):
                sol = optimize.optimal_weights_info(model, oracles.sample(kind, m, rng, f))
                probes["config"].append((sol, model.kernel_scale))
        tracer.job = "probe:oracle"
        for kind, tau in ORACLE_CASES:
            model = cvp.ManifoldModel(kind, tau)
            for _ in range(ORACLE_PER_CASE):
                pts = oracles.sample(kind, ORACLE_N, oracle_rng)
                sol = optimize.optimal_weights_info(model, pts)
                best, _ = oracles.stqp_enumerate(oracles.lagrangian_gram(kind, tau, pts))
                probes["oracle"].append(sol.action - best > ORACLE_RTOL * abs(best))
    finally:
        tracer.uninstall()
    return probes


def layer_metrics(spans: list, passes: int, probes: dict) -> dict:
    """name -> (value, unit) for every name in PER_LAYER."""
    self_t = spanlib.self_times(spans)
    dur = [s["end"] - s["start"] for s in spans]
    by = defaultdict(list)
    for i, s in enumerate(spans):
        by[("probe" if s["job"].startswith("probe:") else "job", s["name"])].append(i)

    def of(name):
        return by[("job", name)]

    def total(name):
        return sum(dur[i] for i in of(name)) / passes

    def mean_us(name):
        idx = of(name)
        return 1e6 * sum(dur[i] for i in idx) / len(idx) if idx else 0.0

    def in_scan(i):
        p = spans[i]["parent"]
        while p is not None:
            if spans[p]["name"] == "optimize.scan":
                return True
            p = spans[p]["parent"]
        return False

    anneals = of("optimize.anneal")
    minimize = [i for i in anneals if not in_scan(i)]
    rows = sum(spans[i]["rows"] for i in of("optimize.scan"))
    qp = by[("probe", "optimize.qp")]
    qp_config = [i for i in qp if spans[i]["job"] != "probe:oracle"]
    sols = probes["config"]
    out = {}
    for kind in ("circle", "sphere", "flag"):
        out[f"optimize.anneal.self_s.{kind}"] = (
            sum(self_t[i] for i in anneals if spans[i]["kind"] == kind) / passes, "s")
    out["optimize.anneal.calls"] = (len(anneals) / passes, "count")
    out["optimize.scan.anneal_calls_per_row"] = (
        sum(1 for i in anneals if in_scan(i)) / rows if rows else 0.0, "count")
    out["optimize.scan.row_s"] = (
        sum(dur[i] for i in of("optimize.scan")) / rows if rows else 0.0, "s")
    out["optimize.anneal.support_ratio"] = (
        statistics.mean(spans[i]["support"] / spans[i]["m"] for i in minimize)
        if minimize else 0.0, "ratio")
    out["optimize.qp.solve_us"] = (
        1e6 * statistics.median(self_t[i] for i in qp_config) if qp_config else 0.0, "us")
    out["optimize.qp.iterations"] = (
        statistics.mean(s.iterations for s, _ in sols) if sols else 0.0, "count")
    out["optimize.qp.kkt_max"] = (
        max(s.kkt_residual / scale for s, scale in sols) if sols else 0.0, "ratio")
    out["optimize.qp.oracle_miss_share"] = (
        sum(probes["oracle"]) / len(probes["oracle"]), "ratio")
    out["optimize.merge.ms"] = (1e3 * total("optimize.merge"), "ms")
    out["optimize.merge.points_removed"] = (
        sum(spans[i]["removed"] for i in of("optimize.merge")) / passes, "count")
    out["manifold.gram.calls"] = (len(of("manifold.gram")) / passes, "count")
    out["manifold.gram.us"] = (mean_us("manifold.gram"), "us")
    out["manifold.cross.ms"] = (1e3 * total("manifold.cross"), "ms")
    out["manifold.cross.kernel_evals"] = (
        sum(spans[i]["kernel_evals"] for i in of("manifold.cross")) / passes, "count")
    out["analysis.certify.calls"] = (len(of("analysis.certify")) / passes, "count")
    out["analysis.certify.ms"] = (1e3 * total("analysis.certify"), "ms")
    out["analysis.bounds.ms"] = (1e3 * total("analysis.bounds"), "ms")
    out["analysis.heat.ms"] = (1e3 * total("analysis.heat"), "ms")
    out["analysis.mc.ms"] = (1e3 * total("analysis.mc"), "ms")
    out["measure.action.calls"] = (len(of("measure.action")) / passes, "count")
    out["measure.action.us"] = (mean_us("measure.action"), "us")
    out["measure.io.ms"] = (1e3 * total("measure.io"), "ms")
    out["measure.volume_action.ms"] = (1e3 * total("measure.volume_action"), "ms")
    out["measure.density_action.ms"] = (1e3 * total("measure.density_action"), "ms")
    out["cli.self_s"] = (sum(self_t[i] for i in of("cli.main")) / passes, "s")
    assert tuple(out) == PER_LAYER
    return out
