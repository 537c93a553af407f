"""cvp benchmark: time to solution, solution quality and per-module layers.

Run from the repository root:

    python3 perfbench/run.py --workload solve --seed 0 --seconds 56 --trace 0

Workloads (see BENCHMARK.json for why each was chosen):

* ``solve``           three `cvp minimize` jobs (circle, sphere, flag) and one
                      `cvp scan` across tau_5 on the circle;
* ``certify_bounds``  `cvp certify`, `cvp bounds`, `cvp exact density` and
                      `nu0_monte_carlo`, with no annealing.

The loop is closed: one process, one caller, CVP_THREADS=1, and each job
starts after the previous one ends.  A pass runs every job of the workload
once; passes repeat until the next one would end after ``--seconds``, and
at least two run, so that every job's output bytes can be compared with
pass 1.  Pass 1 also records the measures the scan hands to ``certify``.
Set-up is timed SETUPS times, spread over the run between passes, so that
its median sees the same machine as the passes do.
After the passes, pass-1 outputs are checked against the oracles in
``oracles.py``; a job fails on a non-zero exit code, a failed check, or
output that differs from pass 1.  Each pass prints its wall time and the
machine's steal ticks from /proc/stat, so that noisy passes show.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs an
untraced warm-up pass, then alternates traced passes (spans from
``spans.py``) with untraced ones, reports the
per-layer metrics, probes the weight QP, and writes the spans as JSON lines
to ``.perfbench_work/``.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUPS = 12
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import cvp; "
    "print(repr(time.perf_counter() - t))"
)


def _env() -> dict:
    env = dict(os.environ)
    env["CVP_THREADS"] = "1"
    env["PYTHONPATH"] = str(SRC)
    return env


def _steal_ticks() -> int | None:
    """Steal ticks of the whole machine from /proc/stat (None when unreadable)."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8])
    except (OSError, IndexError, ValueError):
        return None


def _setup_once(workloads, name: str, seed: int, workdir: Path):
    """`import cvp` in a fresh interpreter plus generating the inputs."""
    child = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=_env(),
                           capture_output=True, text=True, timeout=60, check=True)
    t_import = float(child.stdout.strip().splitlines()[-1])
    shutil.rmtree(workdir, ignore_errors=True)
    t0 = time.perf_counter()
    jobs = workloads.build(name, seed, workdir, ROOT)
    return t_import + time.perf_counter() - t0, jobs


class Runner:
    """Runs passes of one workload and keeps pass-1 outputs for comparison."""

    def __init__(self, cvp, jobs):
        self.cvp = cvp
        self.jobs = jobs
        self.first: list | None = None
        self.mismatch = [0] * len(jobs)  # passes whose output differs from pass 1
        self.attempted = 0
        # per job, the (model, measure) pairs handed to certify during pass 1
        self.certified = [[] for _ in jobs]

    def _run_job(self, job) -> tuple[int, str]:
        buf = io.StringIO()
        try:
            with contextlib.redirect_stdout(buf):
                if job.argv is not None:
                    rc = self.cvp.cli.main(job.argv)
                else:
                    f, tau, n, seed = job.mc
                    est = self.cvp.analysis.nu0_monte_carlo(
                        self.cvp.ManifoldModel.flag(f, tau), n, seed)
                    print(json.dumps({"estimate": est.estimate, "std_error": est.std_error}))
                    rc = 0
        except Exception:  # a crashing job is a failed job; the run goes on
            traceback.print_exc()
            rc = -1
        return rc, buf.getvalue()

    def run_pass(self, tracer=None, capture=False) -> float:
        """Run every job once and return the wall time of the pass."""
        analysis = self.cvp.analysis
        certify = analysis.certify
        seen = None
        if capture:
            def recording(model, m, *args, **kwargs):
                seen.append((model, m))
                return certify(model, m, *args, **kwargs)
            analysis.certify = recording
        outputs = []
        try:
            t0 = time.perf_counter()
            for i, job in enumerate(self.jobs):
                if tracer is not None:
                    tracer.job = job.id
                seen = self.certified[i]
                outputs.append(self._run_job(job))
            elapsed = time.perf_counter() - t0
        finally:
            analysis.certify = certify
        self.attempted += len(outputs)
        if self.first is None:
            self.first = outputs
        else:
            for i, out in enumerate(outputs):
                self.mismatch[i] += out != self.first[i]
        return elapsed


def _check(runner) -> tuple[list, list]:
    """Per job: list of problems, and the quality values from its check."""
    problems, quality = [], []
    for job, (rc, out), certified in zip(runner.jobs, runner.first, runner.certified):
        if rc != 0:
            problems.append([f"exit code {rc}"])
            quality.append({})
            continue
        try:
            p, q = job.check(job, out, certified)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            p, q = [f"unreadable output: {exc!r}"], {}
        problems.append(p)
        quality.append(q)
    return problems, quality


def _tail(times: list) -> tuple[float, str]:
    """Highest percentile with at least ten samples beyond it (max below 11)."""
    s = sorted(times)
    if len(s) < 11:
        return s[-1], f"max of {len(s)}"
    return s[len(s) - 11], f"p{100.0 * (len(s) - 10) / len(s):.0f} of {len(s)}"


def _quality_metrics(quality: list, step: float) -> tuple[dict, dict]:
    """Ratio metrics (1 = exact or not applicable) and the raw values behind them."""
    def pick(key, where=lambda q: True):
        return [q[key] for q in quality if key in q and where(q)]

    raw = {
        "action_excess": max(pick("action_excess"), default=None),
        "el_gap_rel": max(pick("el_gap_rel", lambda q: "flag" not in q), default=None),
        "el_gap_rel.flag": max(pick("el_gap_rel", lambda q: "flag" in q), default=None),
        "transition_err": max(pick("transition_err"), default=None),
    }
    gaps = pick("bracket_gap_rel")
    raw["bracket_gap_rel"] = sum(gaps) / len(gaps) if gaps else None
    ratios = {
        "action_ratio": 1.0 + (raw["action_excess"] or 0.0),
        "el_ratio": 1.0 + (raw["el_gap_rel"] or 0.0),
        "el_ratio.flag": 1.0 + (raw["el_gap_rel.flag"] or 0.0),
        "transition_ratio": 1.0 + (raw["transition_err"] or 0.0) / step,
        "bracket_ratio": 1.0 + (raw["bracket_gap_rel"] or 0.0),
    }
    return ratios, raw


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("solve", "certify_bounds"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "cvp" / "__init__.py").is_file():
        print(f"error: no cvp sources under {SRC}", file=sys.stderr)
        return 2
    os.environ["CVP_THREADS"] = "1"
    sys.path.insert(0, str(SRC))
    import cvp
    import cvp.cli

    if Path(cvp.__file__).resolve().parent != SRC / "cvp":
        print(f"error: imported cvp from {cvp.__file__}", file=sys.stderr)
        return 2
    import workloads

    workdir = WORK / f"{args.workload}-s{args.seed}-t{args.trace}"
    t_setup, jobs = _setup_once(workloads, args.workload, args.seed, workdir)
    setups = [t_setup]

    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
    modules = {name: sys.modules[name] for name in
               ("cvp.cli", "cvp.optimize", "cvp.measure", "cvp.analysis")}

    runner = Runner(cvp, jobs)
    # with tracing, pass 1 is an untraced warm-up left out of trace.overhead_s
    min_passes = 2 if tracer is None else 3
    passes, kinds, steals = [], [], []
    t_start = time.perf_counter()
    while True:
        k = len(passes) + 1
        traced = tracer is not None and k % 2 == 0
        steal0 = _steal_ticks()
        if traced:
            tracer.install(modules)
            try:
                dt = runner.run_pass(tracer)
            finally:
                tracer.uninstall()
        else:
            dt = runner.run_pass(capture=(k == 1))
        steal1 = _steal_ticks()
        passes.append(dt)
        kinds.append("traced" if traced else "warm-up" if tracer is not None and k == 1
                     else "untraced")
        steals.append(None if steal0 is None or steal1 is None else steal1 - steal0)
        elapsed = time.perf_counter() - t_start
        if (tracer is None and len(setups) < SETUPS
                and elapsed >= len(setups) * args.seconds / SETUPS):
            setups.append(_setup_once(workloads, args.workload, args.seed,
                                      workdir.with_name(workdir.name + "-setup"))[0])
            elapsed = time.perf_counter() - t_start
        if k >= min_passes and elapsed + dt > args.seconds:
            break

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    problems, quality = _check(runner)
    failed = 0
    for i, job in enumerate(jobs):
        # a pass-1 verdict holds for every later pass with identical bytes
        failed += len(passes) if problems[i] else runner.mismatch[i]
        if runner.mismatch[i]:
            problems[i].append(f"output differs from pass 1 in {runner.mismatch[i]} passes")
        if problems[i]:
            print(f"FAIL {job.id}: {'; '.join(problems[i])}")
    attempted = runner.attempted
    ratios, raw = _quality_metrics(quality, workloads.SCAN_TAUS[2])

    for i, (dt, kind, st) in enumerate(zip(passes, kinds, steals), 1):
        print(f"pass {i} ({kind}): {dt:.4f} s, steal {st} ticks")

    if tracer is None:
        q = statistics.quantiles(passes, n=4)
        tail, tail_label = _tail(passes)
        print(f"setup_s: median of {len(setups)} set-ups")
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "wall_s": (statistics.median(passes), "s"),
            "wall_s.tail": (tail, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "ok_ratio": ((attempted - failed) / attempted, "ratio"),
        }
        for name, value in ratios.items():
            metrics[name] = (value, "ratio")
        print(f"wall_s: median {metrics['wall_s'][0]:.4f} s, quartiles "
              f"{q[0]:.4f} / {q[2]:.4f} s, n = {len(passes)} passes")
        print(f"wall_s.tail: {tail:.4f} s ({tail_label})")
        print(f"failed_ratio: {failed / attempted:.6g} ratio ({failed} of {attempted} jobs)")
        for name, value in raw.items():
            unit = "tau" if name == "transition_err" else "ratio"
            print(f"{name}: {'n/a' if value is None else f'{value:.6g}'} {unit}")
    else:
        import layers

        WORK.mkdir(exist_ok=True)
        probes = layers.probe_qp(cvp, tracer, modules, jobs, args.seed)
        tracer.write(WORK / f"trace-{args.workload}-s{args.seed}.jsonl")
        traced_times = [dt for dt, kind in zip(passes, kinds) if kind == "traced"]
        untraced_times = [dt for dt, kind in zip(passes, kinds) if kind == "untraced"]
        metrics = layers.layer_metrics(tracer.spans, len(traced_times), probes)
        metrics["trace.overhead_s"] = (
            statistics.median(traced_times) - statistics.median(untraced_times), "s")
        print(f"trace.overhead_s: median of {len(traced_times)} traced minus median of "
              f"{len(untraced_times)} untraced passes")

    for name, (value, unit) in metrics.items():
        print(f"{name}: {value:.6g} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
