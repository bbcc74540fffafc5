"""Zero-downtime model management for the detection service.

:class:`ModelManager` owns which cascade the server is serving.  A swap
(``POST /v1/models/swap``, or SIGHUP re-resolving the configured
``--model`` reference) goes through four phases, none of which ever
makes ``/readyz`` flip false:

1. **load** — resolve the reference through the zoo (training on demand
   for built-in recipes), build a fresh pipeline + engine, on a
   dedicated loader thread so serving latency is untouched;
2. **warm** — construct workspace plans and push one synthetic frame
   through the new engine (first-request latency never pays cold start);
3. **flip** — install the new engine into the :class:`~repro.detect.
   swap.EngineSlot` as a job on the *single-thread infer executor*:
   micro-batches also run as single jobs there, so the flip lands
   atomically between batches and no batch straddles two engines;
4. **retire** — drain and close the old engine on the loader thread.

One swap at a time: a second request while one is in flight gets a 409.
Every phase is a span on the server tracer and a lifecycle event, and
the manager's ``info()`` feeds the ``model`` block of ``/stats``.
"""

from __future__ import annotations

import asyncio
import time
from collections.abc import Callable
from concurrent.futures import Executor, ThreadPoolExecutor

from repro.detect.swap import EngineSlot
from repro.errors import BadRequestError
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer

__all__ = ["ModelManager"]


class ModelManager:
    """Loads, warms, flips, and retires the serving model."""

    def __init__(
        self,
        *,
        build_pipeline: Callable[[str], tuple],
        build_engine: Callable,
        warm: Callable,
        flip_executor: Executor,
        tracer: Tracer,
        metrics: MetricsRegistry,
        lifecycle: Callable[..., None],
    ) -> None:
        self._build_pipeline = build_pipeline
        self._build_engine = build_engine
        self._warm = warm
        self._flip_executor = flip_executor
        self._tracer = tracer
        self._metrics = metrics
        self._lifecycle = lifecycle
        self._loader = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-model-loader"
        )
        self._slot: EngineSlot | None = None
        self._ref: str | None = None
        self._info: dict = {}
        self._swap_in_flight = False
        self._swaps = 0
        self._last_swap: dict | None = None

    # -- boot ----------------------------------------------------------------

    def boot(self, ref: str) -> EngineSlot:
        """Build the initial pipeline/engine pair and the serving slot."""
        pipeline, info = self._build_pipeline(ref)
        engine = self._build_engine(pipeline)
        self._slot = EngineSlot(engine, info["version_tag"])
        self._ref = ref
        self._info = info
        return self._slot

    @property
    def slot(self) -> EngineSlot:
        if self._slot is None:
            raise BadRequestError("model manager is not booted", status=503)
        return self._slot

    def info(self) -> dict:
        """The ``model`` block for ``/stats`` and ``GET /v1/models``."""
        return {
            **self._info,
            "state": "swapping" if self._swap_in_flight else "serving",
            "swaps": self._swaps,
            "last_swap": self._last_swap,
        }

    # -- swapping ------------------------------------------------------------

    async def swap(self, ref: str) -> dict:
        """Hot-swap to ``ref``; returns a summary of what happened.

        Raises :class:`~repro.errors.BadRequestError` (409) when a swap
        is already in flight, and lets zoo resolution errors propagate
        (the server maps them to a 400) — the serving model is untouched
        on any failure.
        """
        if self._swap_in_flight:
            raise BadRequestError("a model swap is already in flight", status=409)
        slot = self.slot
        self._swap_in_flight = True
        loop = asyncio.get_running_loop()
        previous = self._info.get("version_tag")
        start = time.perf_counter()
        self._lifecycle("model_swap_begin", ref=ref, serving=previous)
        try:
            pipeline, info = await loop.run_in_executor(
                self._loader, self._load_phase, ref
            )
            engine = self._build_engine(pipeline)
            warm_s = await loop.run_in_executor(
                self._loader, self._warm_phase, engine
            )
            flip_start = time.perf_counter()
            old = await loop.run_in_executor(
                self._flip_executor, self._flip_phase, slot, engine, info
            )
            flip_s = time.perf_counter() - flip_start
            await loop.run_in_executor(self._loader, self._retire_phase, old)
        except Exception as exc:
            self._metrics.counter("serve.swap_failures").inc()
            self._lifecycle(
                "model_swap_failed", level="error", ref=ref, error=str(exc)
            )
            raise
        finally:
            self._swap_in_flight = False
        self._ref = ref
        self._info = info
        self._swaps += 1
        self._metrics.counter("serve.swaps").inc()
        summary = {
            "previous": previous,
            "serving": info["version_tag"],
            "total_s": round(time.perf_counter() - start, 6),
            "warm_s": round(warm_s, 6),
            "flip_s": round(flip_s, 6),
        }
        self._last_swap = summary
        self._lifecycle("model_swap", **summary)
        return summary

    async def reload(self) -> dict | None:
        """Re-resolve the configured reference (the SIGHUP path).

        ``--model`` typically names an alias (``quick`` means
        ``quick@latest``); when the alias has moved, this swaps to the
        new target.  Returns ``None`` when already serving the resolved
        version (or while another swap is in flight — the signal is
        advisory, not queued).
        """
        if self._swap_in_flight or self._ref is None:
            return None
        loop = asyncio.get_running_loop()
        ref = self._ref
        try:
            target = await loop.run_in_executor(self._loader, self._peek, ref)
        except Exception as exc:
            self._lifecycle(
                "model_reload_failed", level="error", ref=ref, error=str(exc)
            )
            return None
        if target is not None and target == self._info.get("version_tag"):
            self._lifecycle("model_reload_noop", ref=ref, serving=target)
            return None
        return await self.swap(ref)

    def close(self) -> None:
        self._loader.shutdown(wait=True)

    # -- phases (sync, run on the loader / infer executors) ------------------

    def _load_phase(self, ref: str) -> tuple:
        with self._tracer.span("model.load", cat="serve", ref=ref):
            return self._build_pipeline(ref)

    def _warm_phase(self, engine) -> float:
        start = time.perf_counter()
        with self._tracer.span("model.warm", cat="serve"):
            self._warm(engine)
        return time.perf_counter() - start

    def _flip_phase(self, slot: EngineSlot, engine, info: dict):
        with self._tracer.span("model.flip", cat="serve", version=info["version_tag"]):
            return slot.swap(engine, info["version_tag"])

    def _retire_phase(self, engine) -> None:
        with self._tracer.span("model.retire", cat="serve"):
            engine.drain()
            engine.close()

    def _peek(self, ref: str) -> str | None:
        """What ``ref`` resolves to right now, without loading it."""
        from repro.zoo import RECIPES, default_store, parse_ref

        try:
            model, version = parse_ref(ref)
        except Exception:
            return None
        store = default_store()
        if version is None:
            version = store.latest(model)
        if version is None and model not in RECIPES:
            return None
        return f"{model}@{version}" if version is not None else None
