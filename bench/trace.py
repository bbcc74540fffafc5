"""Span recording at the program's layer boundaries, from outside the program.

:func:`install` wraps, at class level, every public method declared on
:class:`BilinearPlan`, :class:`IntegralPlan`, :class:`CascadeEvaluator`
and :class:`ComputeBackend` on every class of their hierarchies, plus
``DeviceScheduler.run`` and ``BatchFrameWorkspace.process_batch``.
Class-level wrapping reaches plans and evaluators that workspaces built
before the install, so a warmed engine can be traced.

A span is ``[name, layer, start, end, parent, items, bytes, info]``:
``start``/``end`` are ``time.perf_counter`` seconds (one clock for every
process on Linux), ``parent`` indexes the caller's span in the same
thread's list (``-1`` at the top), ``items`` names the frames or
requests of the enclosing device batch, ``bytes`` counts the ndarray
bytes in and out of the outermost call into a backend layer, and
``info`` holds what a device batch returned.  Spans stay in memory
until :meth:`Recorder.dump` or :func:`write_chrome`.

A layer's self time is its spans' durations minus the time their child
spans cover; children never outlive their parent, since the parent is
the caller on the same thread.
"""

from __future__ import annotations

import functools
import inspect
import json
import threading
import time
from collections import defaultdict

import numpy as np

from common import percentile
from repro.backend.base import BilinearPlan, CascadeEvaluator, ComputeBackend, IntegralPlan
from repro.detect.devicebatch import BatchFrameWorkspace
from repro.gpusim.scheduler import DeviceScheduler

#: the three backend layers the per-layer metrics report, plus a bucket
#: for public backend methods this table does not know
BACKEND_LAYERS = ("resample", "integral", "cascade", "backend")

_BACKEND_METHOD_LAYER = {
    "antialias": "resample",
    "downscale": "resample",
    "make_bilinear_plan": "resample",
    "integral_image": "integral",
    "squared_integral_image": "integral",
    "transpose": "integral",
    "make_integral_plan": "integral",
    "make_cascade_evaluator": "cascade",
}

_PLAN_LAYER = {
    BilinearPlan: "resample",
    IntegralPlan: "integral",
    CascadeEvaluator: "cascade",
}

NAME, LAYER, START, END, PARENT, ITEMS, BYTES, INFO = range(8)


class Recorder:
    """Per-thread span lists plus the item tags that name batch members."""

    def __init__(self) -> None:
        #: ``(thread id, spans)`` per recording thread, in first-span order
        self.threads: list[tuple[int, list]] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._items: dict[int, object] = {}

    def tag(self, array, item) -> None:
        """Name the frame or request ``array`` carries into the engine."""
        self._items[id(array)] = item

    def _take(self, arrays) -> list:
        return [self._items.pop(id(array), None) for array in arrays]

    def _state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            spans: list = []
            state = self._local.state = (spans, [], [None])
            with self._lock:
                self.threads.append((threading.get_ident(), spans))
        return state

    def dump(self, path) -> None:
        with open(path, "w") as f:
            json.dump({"threads": self.threads}, f)

    @classmethod
    def load(cls, path) -> "Recorder":
        recorder = cls()
        with open(path) as f:
            recorder.threads = [(tid, spans) for tid, spans in json.load(f)["threads"]]
        return recorder


def _nbytes(obj) -> int:
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, (tuple, list)):
        return sum(_nbytes(item) for item in obj)
    if hasattr(obj, "__dataclass_fields__"):
        return sum(_nbytes(getattr(obj, name)) for name in obj.__dataclass_fields__)
    return 0


def _batch_info(execution) -> dict:
    """What one ``process_batch`` produced, from public result fields."""
    results = execution.results
    if execution.schedule is not None:
        sim_s = execution.schedule.makespan_s
    else:
        sim_s = sum(result.schedule.makespan_s for result in results)
    levels = reused = anchors = evaluated = 0
    for result in results:
        fp = result.fastpath
        if fp is not None:
            levels += fp.levels
            reused += fp.levels_reused
            anchors += fp.anchors
            evaluated += fp.anchors_evaluated
        else:
            levels += len(result.levels)
            count = sum(int(np.sum(kr.rejections_by_depth)) for kr in result.kernel_results)
            anchors += count
            evaluated += count
    return {
        "n": len(results),
        "fused": execution.fused,
        "sim_s": sim_s,
        "levels": levels,
        "levels_reused": reused,
        "anchors": anchors,
        "anchors_evaluated": evaluated,
    }


def _wrap(recorder: Recorder, fn, name: str, layer: str, *, batch: bool = False):
    measure_bytes = layer in BACKEND_LAYERS

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        spans, stack, context = recorder._state()
        items = context[-1]
        if batch:
            items = recorder._take(args[1] if len(args) > 1 else kwargs["lumas"])
            context.append(items)
        parent = stack[-1] if stack else -1
        record = [name, layer, 0.0, 0.0, parent, items, 0, None]
        stack.append(len(spans))
        spans.append(record)
        record[START] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            record[END] = time.perf_counter()
            stack.pop()
            if batch:
                context.pop()
        if batch:
            record[INFO] = _batch_info(result)
        elif measure_bytes and (parent < 0 or spans[parent][LAYER] != layer):
            record[BYTES] = _nbytes(args[1:]) + _nbytes(list(kwargs.values())) + _nbytes(result)
        return result

    wrapper.__bench_wrapped__ = True
    return wrapper


def _hierarchy(base: type) -> list[type]:
    out, todo = [], [base]
    while todo:
        cls = todo.pop()
        if cls not in out:
            out.append(cls)
            todo.extend(cls.__subclasses__())
    return out


def _patch(recorder: Recorder, cls: type, attr: str, layer: str, **kw) -> None:
    fn = vars(cls)[attr]
    if getattr(fn, "__bench_wrapped__", False) or getattr(fn, "__isabstractmethod__", False):
        return
    setattr(cls, attr, _wrap(recorder, fn, f"{cls.__name__}.{attr}", layer, **kw))


def install(recorder: Recorder) -> None:
    """Wrap the layer boundaries so every call records a span in ``recorder``."""
    import repro.backend  # noqa: F401  (registers every backend subclass)

    for base in (BilinearPlan, IntegralPlan, CascadeEvaluator, ComputeBackend):
        public = {
            attr
            for attr, value in vars(base).items()
            if inspect.isfunction(value) and not attr.startswith("_")
        }
        for cls in _hierarchy(base):
            for attr in public & vars(cls).keys():
                if not inspect.isfunction(vars(cls)[attr]):
                    continue
                layer = _PLAN_LAYER.get(base) or _BACKEND_METHOD_LAYER.get(attr, "backend")
                _patch(recorder, cls, attr, layer)
    _patch(recorder, DeviceScheduler, "run", "schedule")
    _patch(recorder, BatchFrameWorkspace, "process_batch", "engine", batch=True)


def batches(recorder: Recorder, since: float) -> list[list]:
    """Every device-batch span that started at or after ``since``."""
    return [
        span
        for _, spans in recorder.threads
        for span in spans
        if span[LAYER] == "engine" and span[START] >= since
    ]


def layer_metrics(recorder: Recorder, since: float, wall_s: float, workers: int) -> dict:
    """Per-layer metrics over spans that started at or after ``since``.

    Counts and times are divided by the frames the device batches
    carried.  ``engine.unattributed_ms_per_frame`` is the engine's worker
    capacity (``wall_s`` x ``workers``) not spent in backend or
    scheduler self time: orchestration, grouping, launch building,
    interpreter-lock waits and idle time.
    """
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    nbytes = 0
    for _, spans in recorder.threads:
        covered = [0.0] * len(spans)
        for span in spans:
            if span[PARENT] >= 0:
                covered[span[PARENT]] += span[END] - span[START]
        for i, span in enumerate(spans):
            if span[START] < since:
                continue
            layer = span[LAYER]
            self_s[layer] += span[END] - span[START] - covered[i]
            if span[PARENT] < 0 or spans[span[PARENT]][LAYER] != layer:
                calls[layer] += 1
            nbytes += span[BYTES]
    infos = [span[INFO] for span in batches(recorder, since)]
    frames = sum(info["n"] for info in infos)
    if frames == 0:
        raise RuntimeError("the traced phase processed no frames")
    levels = sum(info["levels"] for info in infos)
    anchors = sum(info["anchors"] for info in infos)
    busy = sum(self_s[layer] for layer in BACKEND_LAYERS) + self_s["schedule"]
    out = {
        "engine.fused_frame_ratio": (
            sum(info["n"] for info in infos if info["fused"]) / frames,
            "ratio",
        ),
        "engine.fastpath_level_reuse_ratio": (
            sum(info["levels_reused"] for info in infos) / levels if levels else 0.0,
            "ratio",
        ),
        "engine.fastpath_anchor_eval_ratio": (
            sum(info["anchors_evaluated"] for info in infos) / anchors if anchors else 1.0,
            "ratio",
        ),
        "engine.unattributed_ms_per_frame": ((wall_s * workers - busy) * 1e3 / frames, "ms"),
    }
    for layer in BACKEND_LAYERS[:3]:
        out[f"backend.{layer}_ms_per_frame"] = (self_s[layer] * 1e3 / frames, "ms")
        out[f"backend.{layer}_calls_per_frame"] = (calls[layer] / frames, "count")
    out["backend.mb_per_frame"] = (nbytes / 1e6 / frames, "MB")
    out["gpusim.schedule_ms_per_frame"] = (self_s["schedule"] * 1e3 / frames, "ms")
    out["gpusim.schedule_calls_per_frame"] = (calls["schedule"] / frames, "count")
    out["gpusim.sim_ms_per_frame"] = (sum(info["sim_s"] for info in infos) * 1e3 / frames, "ms")
    return {name: (value, unit, frames) for name, (value, unit) in out.items()}


def dispatch_metrics(queue_wait_s, batch_form_s, infer_s, unattributed_s, batch_sizes) -> dict:
    """The dispatch layer: the serving micro-batcher, or the engine's frame grouping.

    Per item: ``queue_wait`` from arrival (admission, or the engine's
    pull) to its batch starting, which includes ``batch_form``;
    ``infer`` for its batch; ``unattributed`` is item latency minus
    ``queue_wait``, ``infer`` and (serving) ``serialize``.
    """
    n = len(queue_wait_s)
    return {
        "dispatch.queue_wait_ms.p50": (percentile(queue_wait_s, 50) * 1e3, "ms", n),
        "dispatch.queue_wait_ms.p95": (percentile(queue_wait_s, 95) * 1e3, "ms", n),
        "dispatch.batch_form_ms.p50": (percentile(batch_form_s, 50) * 1e3, "ms", n),
        "dispatch.infer_ms.p50": (percentile(infer_s, 50) * 1e3, "ms", n),
        "dispatch.unattributed_ms.p50": (percentile(unattributed_s, 50) * 1e3, "ms", n),
        "dispatch.batch_size.mean": (
            sum(batch_sizes) / len(batch_sizes),
            "count",
            len(batch_sizes),
        ),
    }


def write_chrome(path, recorder: Recorder, origin: float, pid: int) -> None:
    """Write the spans as a Chrome trace (``chrome://tracing``, Perfetto)."""
    events = []
    for tid, spans in recorder.threads:
        for span in spans:
            args = {"parent": span[PARENT]}
            if span[ITEMS]:
                args["items"] = span[ITEMS]
            if span[BYTES]:
                args["bytes"] = span[BYTES]
            if span[INFO]:
                args.update(span[INFO])
            events.append(
                {
                    "name": span[NAME],
                    "cat": span[LAYER],
                    "ph": "X",
                    "ts": (span[START] - origin) * 1e6,
                    "dur": (span[END] - span[START]) * 1e6,
                    "pid": pid,
                    "tid": tid,
                    "args": args,
                }
            )
    with open(path, "w") as f:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, f)
