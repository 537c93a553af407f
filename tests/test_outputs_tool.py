"""``tools/outputs.py`` hashes every job's output the same way twice."""

import json
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "outputs.py"


def test_certify_bounds_hashes_repeat():
    argv = [sys.executable, str(TOOL), "--workload", "certify_bounds", "--seeds", "0"]
    first, second = (json.loads(subprocess.run(argv, capture_output=True, text=True,
                                               check=True).stdout) for _ in range(2))
    assert len(first) == 22
    assert all(key.startswith("certify_bounds:0:") and rc == 0 for key, (rc, _) in first.items())
    assert first == second
