"""Import guards: the serving and detection entry points stay lean.

scipy is a training dependency (the sparse feature-projection product of
:mod:`repro.boosting.responses`).  Every detector, server and spawn
worker imports ``repro``, so a module-level scipy import there would
cost each of them its import time and memory.  The same holds for
``importlib.metadata`` (read only for ``repro.__version__``) and for
``numpy.ma``, which no frame needs.  Each check runs in a fresh
interpreter: the test process itself may have imported them already.

The package namespaces import their exports on first use, so a server
loads the detection path and not the trainer, the data and video
synthesisers, the array-API backend or the shared-memory frame ring
(process sharding only).  :data:`SERVING_UNIMPORTED` and
:data:`SERVING_MAX_MODULES` pin that set.
"""

import json

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
TRAINING_ONLY = ("scipy",)
ENTRY_POINTS = ["repro.cli", "repro.detect.engine", "repro.serve.server"]
#: packages and modules a serving process never runs (each with its submodules)
SERVING_UNIMPORTED = (
    "repro.boosting",
    "repro.data",
    "repro.backend.arrayapi",
    "repro.video.h264",
    "repro.video.decoder",
    "repro.video.synthesis",
    "repro.video.trailer",
    "repro.experiments",
    "repro.evaluation",
    "multiprocessing.shared_memory",
)
#: ``repro`` modules ``import repro.serve.server, repro.cli`` may load
SERVING_MAX_MODULES = 65


def _fresh(code: str, *args: str) -> str:
    """Stdout of ``code`` run in a fresh interpreter on this source tree."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    out = subprocess.run(
        [sys.executable, "-c", code, *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert out.returncode == 0, out.stderr
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


def test_serving_import_set():
    code = (
        "import json, sys\n"
        "import repro.serve.server, repro.cli\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    loaded = json.loads(_fresh(code))
    stray = [
        m for m in loaded if any(m == p or m.startswith(p + ".") for p in SERVING_UNIMPORTED)
    ]
    assert stray == []
    ours = [m for m in loaded if m == "repro" or m.startswith("repro.")]
    assert len(ours) <= SERVING_MAX_MODULES, ours
