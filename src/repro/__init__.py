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

from repro._lazy import lazy_exports

# ``__version__`` is read from the distribution metadata on first access:
# importlib.metadata costs a process about a megabyte and 25 ms, and only
# ``--version``/``info`` read the value
__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "detect.detector": ("FaceDetector", "DetectionResult", "Detection"),
        "_version": ("__version__",),
    },
)
