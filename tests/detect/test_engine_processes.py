"""Process-sharding tests: real worker processes, real shared memory.

Everything the threaded engine guarantees must survive the jump across
the process boundary: byte-identical output, input-order emission under
scrambled completion (injected per-frame delays), bounded in-flight
window, and a *loud* failure — :class:`~repro.errors.WorkerCrashError`,
never a hang — when a worker dies mid-batch.

Fault injection rides on the ``REPRO_ENGINE_TEST_*`` environment
variables (inherited by spawn workers), so the faults happen inside
genuine pool processes, not monkeypatched stand-ins.
"""

import os
import sys
import threading

import numpy as np
import pytest

from repro.detect.engine import DetectionEngine, ShardingMode
from repro.detect.pipeline import FaceDetectionPipeline
from repro.detect.shard import CRASH_INDEX_ENV, DELAY_ENV
from repro.errors import ConfigurationError, WorkerCrashError
from repro.utils.rng import rng_for
from repro.video.stream import synthetic_stream
from repro.video.synthesis import render_scene
from repro.zoo import quick_cascade


@pytest.fixture(scope="module")
def pipeline():
    return FaceDetectionPipeline(quick_cascade(seed=0))


@pytest.fixture(scope="module")
def frames():
    return [
        render_scene(96, 72, faces=1, rng=rng_for(13, "proc-engine-test", i))[0]
        for i in range(5)
    ]


@pytest.fixture(scope="module")
def engine(pipeline):
    """One persistent process-sharded engine shared by the module.

    Spawn startup costs ~1s per worker; sharing the pool across tests
    also exercises the persistence claim (state survives between runs).
    """
    with DetectionEngine(pipeline, workers=2, sharding="processes") as engine:
        yield engine


@pytest.fixture(scope="module")
def batched_engine(pipeline):
    """A persistent process-sharded engine fusing device batches of 3."""
    with DetectionEngine(
        pipeline,
        workers=2,
        sharding="processes",
        batch_across_frames=True,
        device_batch=3,
    ) as engine:
        yield engine


def _detections(result):
    return [(d.x, d.y, d.size, d.score) for d in result.raw_detections]


def _rejections(result):
    return [kr.rejections_by_depth.tobytes() for kr in result.kernel_results]


def _worker_maps(pipeline, frames, device_batch=1):
    """Full results of the pipeline a spawn worker rebuilds from its spec.

    Engine results are slim, so the maps are read from a workspace that
    keeps them, built the way :func:`repro.detect.shard.init_worker`
    builds its resident one and fed the engine's groups of
    ``device_batch`` frames.
    """
    workspace = pipeline.spec().build().make_workspace(keep_maps=True)
    return [
        result
        for i in range(0, len(frames), device_batch)
        for result in workspace.process_batch(frames[i : i + device_batch]).results
    ]


class TestIdentity:
    def test_byte_identical_to_serial(self, pipeline, frames, engine):
        reference = [pipeline.process_frame(f) for f in frames]
        # two passes: cold pool+ring, then warm (persistent workers)
        for _ in range(2):
            sharded = list(engine.process_frames(iter(frames)))
            assert len(sharded) == len(reference)
            for ref, out in zip(reference, sharded):
                assert _detections(out) == _detections(ref)
                assert out.schedule.makespan_s == ref.schedule.makespan_s
                assert _rejections(out) == _rejections(ref)
        for ref, full in zip(reference, _worker_maps(pipeline, frames)):
            assert _detections(full) == _detections(ref)
            assert len(full.kernel_results) == len(ref.kernel_results)
            for kr, ko in zip(ref.kernel_results, full.kernel_results):
                assert kr.depth_map.tobytes() == ko.depth_map.tobytes()
                assert kr.margin_map.tobytes() == ko.margin_map.tobytes()
                assert kr.sigma_map.tobytes() == ko.sigma_map.tobytes()

    def test_accepts_frame_packets(self, pipeline, engine):
        packets = list(synthetic_stream(96, 72, 3, seed=5))
        reference = [pipeline.process_frame(p.luma) for p in packets]
        out = list(engine.process_frames(iter(packets)))
        for ref, got in zip(reference, out):
            assert _detections(got) == _detections(ref)


class TestOrdering:
    def test_ordered_output_under_scrambled_completion(
        self, pipeline, frames, monkeypatch
    ):
        # frame 0 sleeps longest inside its worker, so completion order
        # inverts; emission order must not
        monkeypatch.setenv(DELAY_ENV, "0:0.30,1:0.15,2:0.05")
        with DetectionEngine(pipeline, workers=2, sharding="processes") as engine:
            reference = [pipeline.process_frame(f) for f in frames[:4]]
            out = list(engine.process_frames(iter(frames[:4])))
        assert [_detections(r) for r in out] == [_detections(r) for r in reference]

    def test_backpressure_bounds_source_readahead(self, pipeline, frames, engine):
        pulled = []

        def source():
            for i in range(8):
                pulled.append(i)
                yield frames[i % len(frames)]

        results = engine.process_frames(source())
        next(results)
        # the source may only ever run max_in_flight ahead of consumption
        assert len(pulled) <= engine.max_in_flight + 1
        assert len(list(results)) == 7
        assert len(pulled) == 8

    @pytest.mark.parametrize(
        "which", ["engine", "batched_engine"], ids=["per-frame", "batched"]
    )
    def test_ring_occupancy_never_exceeds_bound(self, pipeline, frames, which, request):
        # drain fully, then the ring must be back to all-free: every slot
        # acquired at submit was released on completion — single frames
        # and fused batches ride the ring alike
        engine = request.getfixturevalue(which)
        list(engine.process_frames(iter(frames)))
        ring = engine._ring
        assert ring is not None
        assert ring.free_slots == ring.slots
        assert ring.slots == engine.max_in_flight


class TestCrashSurfacing:
    def test_worker_crash_raises_not_hangs(self, pipeline, frames, monkeypatch):
        monkeypatch.setenv(CRASH_INDEX_ENV, "2")
        with DetectionEngine(pipeline, workers=2, sharding="processes") as engine:
            with pytest.raises(WorkerCrashError, match="worker process died"):
                list(engine.process_frames(iter(frames)))

            # the engine recovers: next run lazily rebuilds pool + ring
            monkeypatch.delenv(CRASH_INDEX_ENV)
            reference = [pipeline.process_frame(f) for f in frames[:2]]
            out = list(engine.process_frames(iter(frames[:2])))
            assert [_detections(r) for r in out] == [
                _detections(r) for r in reference
            ]

    def test_worker_dies_mid_fused_batch(self, pipeline, monkeypatch):
        # frames 3..5 form the second fused batch; frame 4 kills its worker
        monkeypatch.setenv(CRASH_INDEX_ENV, "4")
        frames = [
            render_scene(96, 72, faces=1, rng=rng_for(17, "fused-crash", i))[0]
            for i in range(7)
        ]
        with DetectionEngine(
            pipeline,
            workers=2,
            sharding="processes",
            batch_across_frames=True,
            device_batch=3,
        ) as engine:
            futures = engine.submit_batch(frames)
            ring_name = engine._ring.name
            resolutions = []
            for future in futures:
                future.add_done_callback(resolutions.append)
            engine.drain()
            crashed = futures[3:6]
            for future in crashed:
                assert isinstance(future.exception(), WorkerCrashError)
            assert sorted(map(id, resolutions)) == sorted(map(id, futures))
            for future in futures:
                error = future.exception()
                assert error is None or isinstance(error, WorkerCrashError)
            # the failed pool's ring is gone, segment unlinked
            assert engine._ring is None
            if os.path.isdir("/dev/shm"):
                assert not os.path.exists(os.path.join("/dev/shm", ring_name))

            with pytest.raises(WorkerCrashError, match="worker process died"):
                list(engine.process_frames(iter(frames)))

            # the next run rebuilds the pool and matches the serial path
            monkeypatch.delenv(CRASH_INDEX_ENV)
            reference = [pipeline.process_frame(f) for f in frames]
            out = list(engine.process_frames(iter(frames)))
            assert len(out) == len(frames)
            for ref, got in zip(reference, out):
                assert _detections(got) == _detections(ref)
                assert _rejections(got) == _rejections(ref)
            for ref, full in zip(reference, _worker_maps(pipeline, frames, 3)):
                assert len(full.kernel_results) == len(ref.kernel_results)
                for kr, ko in zip(ref.kernel_results, full.kernel_results):
                    assert kr.depth_map.tobytes() == ko.depth_map.tobytes()
                    assert kr.margin_map.tobytes() == ko.margin_map.tobytes()

    def test_crash_error_is_configuration_free(self, pipeline, frames, monkeypatch):
        # a crash on the very first frame (initializer ran, frame 0 dies)
        monkeypatch.setenv(CRASH_INDEX_ENV, "0")
        with DetectionEngine(pipeline, workers=1, sharding="processes") as engine:
            with pytest.raises(WorkerCrashError):
                list(engine.process_frames(iter(frames[:2])))


class TestModeSelection:
    def test_auto_resolution_follows_cores(self, pipeline):
        resolved = ShardingMode.AUTO.resolve(4)
        if (os.cpu_count() or 1) >= 2:
            assert resolved is ShardingMode.PROCESSES
        else:
            assert resolved is ShardingMode.THREADS
        # zero/one worker never pays process overhead
        assert ShardingMode.AUTO.resolve(0) is ShardingMode.THREADS
        assert ShardingMode.AUTO.resolve(1) is ShardingMode.THREADS

    def test_coerce(self):
        assert ShardingMode.coerce("processes") is ShardingMode.PROCESSES
        assert ShardingMode.coerce("THREADS") is ShardingMode.THREADS
        assert ShardingMode.coerce(ShardingMode.AUTO) is ShardingMode.AUTO
        with pytest.raises(ConfigurationError, match="sharding"):
            ShardingMode.coerce("fork-bomb")

    def test_engine_resolves_auto_sharding(self, pipeline):
        engine = DetectionEngine(pipeline, workers=4, sharding="auto")
        assert engine.sharding in (ShardingMode.THREADS, ShardingMode.PROCESSES)

    def test_unknown_start_method_rejected(self, pipeline):
        with pytest.raises(ConfigurationError, match="start method"):
            DetectionEngine(
                pipeline, workers=2, sharding="processes", start_method="teleport"
            )

    def test_workers_zero_stays_inline(self, pipeline, frames):
        # sharding=processes with workers=0 degrades to the inline path
        engine = DetectionEngine(pipeline, workers=0, sharding="processes")
        reference = pipeline.process_frame(frames[0])
        (out,) = list(engine.process_frames(iter(frames[:1])))
        assert _detections(out) == _detections(reference)


class TestObservability:
    def test_traced_run_merges_worker_spans_and_metrics(self, pipeline, frames):
        from repro.obs.metrics import MetricsRegistry
        from repro.obs.tracer import Tracer

        tracer = Tracer()
        registry = MetricsRegistry()
        with DetectionEngine(
            pipeline, workers=2, sharding="processes",
            tracer=tracer, metrics=registry,
        ) as engine:
            reference = [pipeline.process_frame(f) for f in frames[:4]]
            out = list(engine.process_frames(iter(frames[:4])))
        # tracing must not change a single output byte
        assert [_detections(r) for r in out] == [_detections(r) for r in reference]

        spans = tracer.spans()
        names = {s.name for s in spans}
        assert {"frame", "integral", "cascade"} <= names
        # worker spans come back pid-tagged: one Chrome lane per process
        lanes = {s.thread_name for s in spans if s.name == "frame"}
        assert lanes and all(lane.startswith("pid ") for lane in lanes)
        frame_args = sorted(
            s.args["frame"] for s in spans if s.name == "frame"
        )
        assert frame_args == [0, 1, 2, 3]

        assert registry.counter("engine.frames").value == 4
        assert registry.histogram("engine.frame_latency_s").count == 4
        assert registry.histogram("engine.queue_wait_s").count == 4

    def test_chrome_trace_exports_pid_lanes(self, pipeline, frames):
        from repro.obs.chrome import engine_trace_events
        from repro.obs.tracer import Tracer

        tracer = Tracer()
        with DetectionEngine(
            pipeline, workers=2, sharding="processes", tracer=tracer
        ) as engine:
            results = list(engine.process_frames(iter(frames[:3])))
        events = engine_trace_events(tracer, results)
        assert events
        tids = {
            e["tid"] for e in events if e.get("ph") == "X" and e.get("cat") == "engine"
        }
        assert tids  # at least one worker-pid lane made it to the export


class TestSubmitAcrossProcesses:
    def test_submit_matches_serial(self, pipeline, frames, engine):
        reference = [pipeline.process_frame(f) for f in frames]
        futures = [engine.submit(f) for f in frames]
        engine.drain()
        for ref, future in zip(reference, futures):
            assert future.done()
            assert _detections(future.result()) == _detections(ref)

    def test_concurrent_submitters_leave_every_slot_free(self, pipeline, frames, engine):
        # submitters on several threads put frames into the ring while the
        # pool's completion hooks release slots: a lost update would leak
        reference = _detections(pipeline.process_frame(frames[0]))
        futures, lock = [], threading.Lock()

        def submitter():
            for _ in range(6):
                future = engine.submit(frames[0])
                with lock:
                    futures.append(future)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=submitter) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        assert len(futures) == 24
        assert all(_detections(f.result(timeout=120)) == reference for f in futures)
        ring = engine._ring
        assert ring.free_slots == ring.slots

    def test_submit_overflow_falls_back_to_pickle(self, pipeline, frames, engine):
        # more outstanding submissions than ring slots: the extras ship
        # inline rather than raising, and every result is still correct
        reference = _detections(pipeline.process_frame(frames[0]))
        futures = [engine.submit(frames[0]) for _ in range(engine.max_in_flight + 3)]
        engine.drain()
        assert all(_detections(f.result()) == reference for f in futures)
