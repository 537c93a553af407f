"""Exit code and stdout sha256 of every benchmark job, to compare two trees.

    python3 tools/outputs.py [TREE] [--seeds 0 1 2] [--workload NAME]

Builds the jobs of ``perfbench/workloads.py`` (both workloads, or the one
named) for each seed, runs them once in this process against TREE's
``src/cvp`` with CVP_THREADS=1, through perfbench's own ``Runner``, and
prints one JSON object with one line per job:

    "workload:seed:job": [exit code, stdout sha256]

TREE defaults to the checkout that holds this script; it must hold
``src/cvp`` and ``perfbench/``.  Two trees whose printed objects are equal
gave byte-identical output on every job, so ``diff`` of two runs names the
jobs whose output moved.  No bytecode is written, so a measured tree stays
as it was checked out.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

WORKLOADS = ("solve", "certify_bounds")


def outputs(root: Path, seeds, names=WORKLOADS) -> dict:
    """{"workload:seed:job": [exit code, stdout sha256]} for root's tree."""
    os.environ["CVP_THREADS"] = "1"  # before numpy is first imported
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import cvp
    import cvp.cli
    import run
    import workloads

    if Path(cvp.__file__).resolve().parent != root / "src" / "cvp":
        raise SystemExit(f"error: imported cvp from {cvp.__file__}, not from {root}")
    out = {}
    for name in names:
        for seed in seeds:
            with tempfile.TemporaryDirectory() as workdir:
                runner = run.Runner(cvp, workloads.build(name, seed, Path(workdir), root))
                runner.run_pass()
            for job, (rc, text) in zip(runner.jobs, runner.first):
                out[f"{name}:{seed}:{job.id}"] = [rc, hashlib.sha256(text.encode()).hexdigest()]
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("tree", nargs="?", type=Path, default=Path(__file__).resolve().parents[1])
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    parser.add_argument("--workload", choices=WORKLOADS, default=None)
    args = parser.parse_args(argv)
    names = WORKLOADS if args.workload is None else (args.workload,)
    hashes = outputs(args.tree.resolve(), args.seeds, names)
    lines = (f"{json.dumps(key)}: {json.dumps(value)}" for key, value in hashes.items())
    sys.stdout.write("{\n" + ",\n".join(lines) + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
