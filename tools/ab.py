"""Per-job timings and outputs of two trees, each tree in its own fresh process.

    python3 tools/ab.py PARENT CHANGE [--workload certify_bounds] [--seed 0]
                        [--processes 10] [--passes 10]

Each tree must hold ``src/cvp`` and ``perfbench/``.  For each of
``--processes`` rounds the script starts one child interpreter per tree,
one after the other, the parent first in even rounds and the change first
in odd ones.  A child imports only its own tree's ``cvp`` and perfbench
files (``perfbench/workloads.py`` builds the jobs, unchanged), with
CVP_THREADS=1 and no bytecode written.  It runs one untimed warm-up pass
through perfbench's ``Runner``, then ``--passes`` passes timing each job
with ``time.perf_counter``, and reports its timings and each job's stdout
sha256.  No process ever loads both trees: a job's time depends on the heap
state the jobs before it leave, so two packages in one process would time
each other's leftovers.

Prints one JSON object, one line per job, ready to paste as a section of
a ``BENCH_*.json``: per job and per tree the best and the median in ms
over all timed passes of all processes, the change's median over the
parent's, and the stdout sha256 (``"exit N"`` for a job that exits N,
``"unstable"`` when a pass or a process printed other bytes); the same
per group of two or more jobs (the job id up to its first ``:``) and for
the whole pass, each summed over its jobs per pass; and ``moved``, the
jobs whose hashes differ.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from outputs import load_tree

TREES = ("parent", "change")


def child(root: Path, workload: str, seed: int, passes: int) -> dict:
    """One tree's timings in this process: {"ms": {job: [...]}, "sha256": {job: ...}}."""
    cvp, run, workloads = load_tree(root)
    with tempfile.TemporaryDirectory() as workdir:
        runner = run.Runner(cvp, workloads.build(workload, seed, Path(workdir), root))
        runner.run_pass()  # warm-up; keeps pass 1's outputs in runner.first
        ms = {job.id: [] for job in runner.jobs}
        stable = {job.id: True for job in runner.jobs}
        for _ in range(passes):
            for job, first in zip(runner.jobs, runner.first):
                t0 = time.perf_counter()
                out = runner._run_job(job)
                ms[job.id].append(1e3 * (time.perf_counter() - t0))
                stable[job.id] &= out == first
    sha = {}
    for job, (rc, text) in zip(runner.jobs, runner.first):
        sha[job.id] = ("unstable" if not stable[job.id] else f"exit {rc}" if rc
                       else hashlib.sha256(text.encode()).hexdigest())
    return {"ms": ms, "sha256": sha}


def _spawn(root: Path, workload: str, seed: int, passes: int) -> dict:
    env = dict(os.environ, CVP_THREADS="1", PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONPATH", None)
    argv = [sys.executable, str(Path(__file__).resolve()), "--child", str(root),
            "--workload", workload, "--seed", str(seed), "--passes", str(passes)]
    done = subprocess.run(argv, env=env, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(done.stdout)


def _stats(values: list) -> dict:
    return {"best_ms": round(min(values), 4), "median_ms": round(statistics.median(values), 4)}


def _series(ms: dict) -> dict:
    """One process's timings per job, per group of two or more jobs (the
    job id up to its first ``:``) and per pass, groups and passes summed
    over their jobs, one value per timed pass."""
    groups = {}
    for job, values in ms.items():
        groups.setdefault(f"group {job.split(':')[0]}", []).append(values)
    sums = {key: [sum(t) for t in zip(*rows)] for key, rows in groups.items() if len(rows) > 1}
    return {**ms, **sums, "pass": [sum(t) for t in zip(*ms.values())]}


def compare(roots: dict, workload: str, seed: int, processes: int, passes: int) -> dict:
    runs = {name: [] for name in TREES}
    for r in range(processes):
        for name in TREES if r % 2 == 0 else TREES[::-1]:
            runs[name].append(_spawn(roots[name], workload, seed, passes))
    series, sha = {}, {}
    for name in TREES:
        series[name] = {}
        for one in runs[name]:
            for key, values in _series(one["ms"]).items():
                series[name].setdefault(key, []).extend(values)
        sha[name] = {
            job: h if all(one["sha256"][job] == h for one in runs[name]) else "unstable"
            for job, h in runs[name][0]["sha256"].items()
        }
    rows = {}
    for key in series["parent"]:
        row = {name: _stats(series[name][key]) for name in TREES}
        row["median_ratio"] = round(row["change"]["median_ms"] / row["parent"]["median_ms"], 4)
        if key in sha["parent"]:
            for name in TREES:
                row[name]["sha256"] = sha[name][key]
        rows[key] = row
    return {
        "how": (f"python3 tools/ab.py PARENT CHANGE --workload {workload} --seed {seed} "
                f"--processes {processes} --passes {passes}: {processes} fresh processes per "
                "tree, alternated, each one warm-up pass then timed passes; best and median "
                "in ms over all timed passes; groups and pass are sums of their jobs per pass"),
        "trees": {name: str(roots[name]) for name in TREES},
        "jobs": rows,
        "moved": [job for job in sha["parent"] if sha["parent"][job] != sha["change"][job]],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", nargs="?", type=Path)
    parser.add_argument("change", nargs="?", type=Path)
    parser.add_argument("--workload", choices=("solve", "certify_bounds"), default="certify_bounds")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--processes", type=int, default=10)
    parser.add_argument("--passes", type=int, default=10)
    parser.add_argument("--child", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.processes < 1 or args.passes < 1:
        parser.error("--processes and --passes must be >= 1")
    if args.child is not None:
        json.dump(child(args.child.resolve(), args.workload, args.seed, args.passes), sys.stdout)
        return 0
    if args.parent is None or args.change is None:
        parser.error("PARENT and CHANGE are required")
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    result = compare(roots, args.workload, args.seed, args.processes, args.passes)
    rows = (f" {json.dumps(key)}: {json.dumps(row)}" for key, row in result.pop("jobs").items())
    head = ",\n".join(f"{json.dumps(key)}: {json.dumps(value)}" for key, value in result.items())
    sys.stdout.write("{\n" + head + ',\n"jobs": {\n' + ",\n".join(rows) + "\n}}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
