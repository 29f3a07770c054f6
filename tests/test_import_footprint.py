"""Importing the serving stack must not import scipy.

scipy adds ~40 MB of resident memory to every process that loads it,
and the serving path (registry, service, guard, shards and their forked
workers) never calls it: only RDC clustering (DeepDB fit), the KDE
estimator and QuickSel's solver do, and they import it on first use.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_serving_imports_leave_scipy_unloaded():
    code = (
        "import sys\n"
        "import repro, repro.registry, repro.serve, repro.guard, repro.shard\n"
        "print(','.join(sorted(m for m in sys.modules if m.startswith('scipy'))))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "", f"scipy modules imported: {out.stdout.strip()}"
