"""Import guards: the serving and detection entry points stay lean.

scipy is a training dependency (the sparse feature-projection product of
:mod:`repro.boosting.responses`).  Every detector, server and spawn
worker imports ``repro``, so a module-level scipy import there would
cost each of them its import time and memory.  The same holds for
``importlib.metadata`` (read only for ``repro.__version__``) and for
``numpy.ma``, which no frame needs.  Each check runs in a fresh
interpreter: the test process itself may have imported them already.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
TRAINING_ONLY = ("scipy",)
ENTRY_POINTS = ["repro.cli", "repro.detect.engine", "repro.serve.server"]


def _fresh(code: str) -> str:
    """Stdout of ``code`` run in a fresh interpreter on this source tree."""
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
    return out.stdout.strip()


@pytest.mark.parametrize("module", ENTRY_POINTS)
def test_entry_point_leaves_training_deps_unimported(module):
    code = (
        "import sys\n"
        f"import {module}\n"
        f"print(sorted(m for m in sys.modules if m.split('.')[0] in {TRAINING_ONLY!r}))\n"
    )
    out = _fresh(code)
    assert out == "[]", out


def test_entry_points_leave_importlib_metadata_unimported():
    imports = "".join(f"import {m}\n" for m in ENTRY_POINTS)
    code = f"import sys\n{imports}print('importlib.metadata' in sys.modules)\n"
    assert _fresh(code) == "False"


def test_one_workspace_frame_leaves_numpy_ma_unimported():
    code = (
        "import sys\n"
        "import numpy as np\n"
        "from repro.detect.pipeline import FaceDetectionPipeline, PipelineConfig\n"
        "from repro.zoo import quick_cascade\n"
        "pipeline = FaceDetectionPipeline(quick_cascade(seed=0), config=PipelineConfig())\n"
        "frame = np.tile(np.arange(160, dtype=np.float32), (120, 1))\n"
        "pipeline.make_workspace().process_frame(frame)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[:2] == ['numpy', 'ma']))\n"
    )
    out = _fresh(code)
    assert out == "[]", out
