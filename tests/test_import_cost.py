"""Import guard: the serving and detection entry points stay training-free.

scipy is a training dependency (the sparse feature-projection product of
:mod:`repro.boosting.responses`).  Every detector, server and spawn
worker imports ``repro``, so a module-level scipy import there would
cost each of them its import time and memory.  The check runs in a
fresh interpreter: the test process itself may have imported scipy
already.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
TRAINING_ONLY = ("scipy",)


@pytest.mark.parametrize(
    "module", ["repro.cli", "repro.detect.engine", "repro.serve.server"]
)
def test_entry_point_leaves_training_deps_unimported(module):
    code = (
        "import sys\n"
        f"import {module}\n"
        f"print(sorted(m for m in sys.modules if m.split('.')[0] in {TRAINING_ONLY!r}))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    assert out.stdout.strip() == "[]", out.stdout
