"""repro — reproduction of *Accelerating Boosting-based Face Detection on
GPUs* (Oro, Fernandez, Segura, Martorell, Hernando — ICPP 2012).

The package implements the paper's full system on simulated substrates:

* :mod:`repro.gpusim` — a functional + timing SIMT GPU simulator (the GTX 470
  stand-in) with CUDA streams and concurrent kernel execution;
* :mod:`repro.video` — mock H.264 bitstreams, a hardware-decoder model, and
  synthetic "movie trailers";
* :mod:`repro.image` — texture-fetch pyramid scaling, anti-alias filtering,
  and integral images via parallel prefix sums + tiled transposes;
* :mod:`repro.haar` — Haar features, Table I enumeration, the 16-bit packed
  constant-memory encoding, and cascade containers;
* :mod:`repro.boosting` — GentleBoost / AdaBoost training with the paper's
  dataset-matrix layout and its task/data-parallel trainer;
* :mod:`repro.detect` — the cascade-evaluation kernel and the Fig. 1 pipeline
  (the paper's core contribution);
* :mod:`repro.evaluation` — S_eyes/S_square metrics, Hungarian matching and
  TPR/FP curves;
* :mod:`repro.experiments` — drivers that regenerate every table and figure.

Quickstart::

    from repro import FaceDetector
    detector = FaceDetector.pretrained()
    result = detector.detect(gray_image)
    for det in result.detections:
        print(det.x, det.y, det.size, det.score)
"""

from repro.detect.detector import Detection, DetectionResult, FaceDetector

__all__ = ["FaceDetector", "DetectionResult", "Detection", "__version__"]


def __getattr__(name: str) -> str:
    """``__version__``, resolved on first read.

    importlib.metadata costs every process that imports ``repro`` about a
    megabyte and 25 ms, and only ``--version``/``info`` read the value.
    """
    if name != "__version__":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib.metadata import PackageNotFoundError, version

    try:
        # the single source of truth is pyproject.toml, surfaced through
        # the installed distribution metadata ...
        value = version("repro")
    except PackageNotFoundError:  # pragma: no cover - source-tree runs
        # ... with a fallback for PYTHONPATH=src runs of an uninstalled tree
        # (kept in sync with pyproject.toml by tests/test_package.py)
        value = "1.0.0"
    globals()["__version__"] = value
    return value
