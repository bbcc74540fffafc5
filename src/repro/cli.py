"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``detect``    detect faces in a PGM/PPM image (or a synthesised demo scene)
``trailers``  list the synthetic Table II trailers
``info``      print device model, cascade zoo and profile information
``train``     train a cascade: a checkpointed zoo recipe or an ad-hoc profile
``zoo``       list / show / garbage-collect the versioned model store
``bench``     run one paper experiment driver, or ``bench check`` artifacts
``trace``     record a Chrome trace + metrics snapshot of the engine
``serve``     run the asyncio detection service (POST /v1/detect)
``loadtest``  drive a running service and write BENCH_serving.json
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from repro.errors import ReproError
from repro.video.pnm import read_pnm, write_ppm

__all__ = ["main", "read_pnm", "write_ppm"]


def _cmd_detect(args: argparse.Namespace) -> int:
    from repro import FaceDetector
    from repro.detect.display import draw_detections
    from repro.detect.grouping import RawDetection
    from repro.utils.rng import rng_for
    from repro.video.synthesis import render_scene

    if args.image:
        frame = read_pnm(args.image)
        truth = None
    else:
        frame, truth = render_scene(
            args.width, args.height, faces=args.faces, rng=rng_for(args.seed, "cli-demo")
        )
        print(f"(no image given: synthesised a demo scene with {len(truth)} faces)")
    detector = FaceDetector.pretrained(args.profile, seed=0)
    result = detector.detect(frame)
    print(
        f"{len(result.detections)} detections ({result.raw_count} raw windows), "
        f"simulated GPU time {result.detection_time_s * 1e3:.2f} ms"
    )
    for d in result.detections:
        print(f"  x={d.x:7.1f} y={d.y:7.1f} size={d.size:6.1f} score={d.score:7.1f}")
    if args.output:
        boxes = [RawDetection(d.x, d.y, d.size, d.score) for d in result.detections]
        write_ppm(args.output, draw_detections(frame, boxes))
        print(f"annotated frame -> {args.output}")
    return 0


def _cmd_trailers(_args: argparse.Namespace) -> int:
    from repro.utils.tables import format_table
    from repro.video.trailer import TRAILERS

    rows = [
        [t.name, t.mean_faces, t.face_scale, t.scene_length, t.clutter]
        for t in TRAILERS
    ]
    print(
        format_table(
            ["trailer", "faces/scene", "face scale", "scene frames", "clutter"],
            rows,
            title="synthetic Table II trailers",
        )
    )
    return 0


def _cmd_info(_args: argparse.Namespace) -> int:
    from repro import __version__
    from repro.experiments.config import active_profile
    from repro.gpusim.device import GTX470
    from repro.utils.artifacts import artifact_dir

    profile = active_profile()
    print(f"repro {__version__}")
    print(
        f"device model: {GTX470.name} — {GTX470.sm_count} SMs x "
        f"{GTX470.cores_per_sm} cores @ {GTX470.clock_hz / 1e9:.3f} GHz, "
        f"{GTX470.dram_bandwidth_bytes / 1e9:.1f} GB/s"
    )
    print(
        f"profile: {profile.name} ({profile.frame_width}x{profile.frame_height}, "
        f"{profile.frames_per_trailer} frames/trailer)"
    )
    print(f"artifact cache: {artifact_dir()}")
    for f in sorted(artifact_dir().glob("*.json")):
        print(f"  cached: {f.name}")
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    if args.recipe is not None:
        return _cmd_train_recipe(args)
    from repro.boosting.cascade_trainer import CascadeTrainer, default_negative_source
    from repro.data.faces import render_training_chip
    from repro.haar.enumeration import subsampled_feature_pool
    from repro.utils.rng import rng_for

    rng = rng_for(args.seed, "cli-train")
    print(f"rendering {args.faces} training faces...")
    faces = np.stack([render_training_chip(rng, 24) for _ in range(args.faces)])
    pool = subsampled_feature_pool(args.pool, seed=args.seed)
    sizes = [int(s) for s in args.stages.split(",")]
    trainer = CascadeTrainer(pool, algorithm=args.algorithm)
    print(f"training {len(sizes)} stages {sizes} with the {args.algorithm} learner...")
    output = args.output or "cascade.json"
    cascade, reports = trainer.train(
        faces,
        stage_sizes=sizes,
        negative_source=default_negative_source(args.seed),
        name=Path(output).stem,
        seed=args.seed,
    )
    for r in reports:
        print(
            f"  stage {r.index + 1:2d}: {r.size:3d} weak, hit {r.hit_rate:.3f}, "
            f"stage FPR {r.false_positive_rate:.3f}"
        )
    cascade.save(output)
    print(f"cascade ({cascade.num_weak_classifiers} weak classifiers) -> {output}")
    return 0


def _cmd_train_recipe(args: argparse.Namespace) -> int:
    """``repro train --recipe``: checkpointed training into the zoo."""
    from repro.zoo import default_store, recipe_for, train_model

    recipe = recipe_for(args.recipe)
    store = default_store()
    version = recipe.version(args.seed)
    total = len(recipe.stage_sizes)
    if store.has(recipe.name, version) and not args.force:
        print(
            f"{recipe.name}@{version} is already published "
            f"(--force retrains and re-verifies)"
        )
    else:
        print(
            f"training recipe {recipe.name!r} ({recipe.algorithm}, {total} stages) "
            f"-> {recipe.name}@{version}"
        )

    def on_stage(state) -> None:
        r = state.reports[-1]
        print(
            f"  stage {r.index + 1:2d}/{total}: {r.size:3d} weak, "
            f"hit {r.hit_rate:.3f}, stage FPR {r.false_positive_rate:.3f} "
            f"[checkpoint saved]"
        )

    cascade, manifest = train_model(
        recipe,
        seed=args.seed,
        store=store,
        force=args.force,
        resume=not args.no_resume,
        on_stage=on_stage,
    )
    print(
        f"published {manifest.model}@{manifest.version} "
        f"({cascade.num_weak_classifiers} weak classifiers, "
        f"source={manifest.source}, digest {manifest.content_digest[:19]}...)"
    )
    ev = manifest.evaluation or {}
    if ev:
        print(
            f"  held-out ROC point: hit {ev['hit_rate']:.3f}, "
            f"false accept {ev['false_accept_rate']:.4f} "
            f"({ev['faces']} faces / {ev['negatives']} negatives)"
        )
    print(f"  store: {store.version_dir(manifest.model, manifest.version)}")
    if args.output:
        cascade.save(args.output)
        print(f"  exported copy -> {args.output}")
    return 0


def _cmd_zoo_list(_args: argparse.Namespace) -> int:
    from repro.utils.tables import format_table
    from repro.zoo import default_store

    store = default_store()
    rows = []
    for model in store.models():
        latest = store.latest(model)
        for version in store.versions(model):
            manifest = store.manifest(model, version)
            ev = manifest.evaluation or {}
            rows.append(
                [
                    model,
                    version,
                    "*" if version == latest else "",
                    manifest.source,
                    manifest.seed,
                    sum(r["size"] for r in manifest.rounds) or "-",
                    round(ev["hit_rate"], 3) if "hit_rate" in ev else "-",
                ]
            )
    if not rows:
        print(f"model store at {store.root} is empty")
        return 0
    print(
        format_table(
            ["model", "version", "latest", "source", "seed", "weak", "hit rate"],
            rows,
            title=f"model store — {store.root}",
        )
    )
    return 0


def _cmd_zoo_show(args: argparse.Namespace) -> int:
    import json

    from repro.zoo import default_store

    store = default_store()
    model, version = store.resolve(args.ref)
    manifest = store.manifest(model, version)
    print(json.dumps(manifest.to_dict(), indent=2))
    return 0


def _cmd_zoo_gc(args: argparse.Namespace) -> int:
    from repro.zoo import default_store

    removed = default_store().gc(args.model)
    if not removed:
        print("nothing to collect")
        return 0
    for name in removed:
        print(f"removed {name}")
    return 0


def _add_device_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--device",
        choices=("auto", "cuda", "mps", "cpu", "list"),
        default=None,
        help="compute device kind; 'auto' probes cuda -> mps -> cpu and falls "
        "back to the first available, 'list' prints the capability probe "
        "report and exits",
    )
    p.add_argument(
        "--gpu",
        action="store_true",
        help="shorthand for --device auto (prefer an accelerator, fall back to cpu)",
    )


def _resolve_device(args: argparse.Namespace) -> str | None:
    if args.device is None and args.gpu:
        return "auto"
    return args.device


def _maybe_list_devices(args: argparse.Namespace) -> bool:
    """Handle ``--device list``: print the probe report, signal early exit."""
    if args.device != "list":
        return False
    from repro.backend import probe_all

    print(probe_all().format_report())
    return True


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.experiments.config import active_profile

    if args.experiment == "check":
        return _cmd_bench_check(args)
    profile = active_profile()
    drivers = {
        "table1": lambda: _fmt("table1", profile),
        "table2": lambda: _fmt("table2", profile),
        "fig5": lambda: _fmt("fig5", profile),
        "fig6": lambda: _fmt("fig6", profile),
        "fig7": lambda: _fmt("fig7", profile),
        "fig8": lambda: _fmt("fig8", profile),
        "fig9": lambda: _fmt("fig9", profile),
    }
    if args.experiment not in drivers:
        print(
            f"unknown experiment {args.experiment!r}; choose from "
            f"{sorted(drivers) + ['check']}"
        )
        return 2
    print(drivers[args.experiment]())
    return 0


def _cmd_bench_check(args: argparse.Namespace) -> int:
    from repro.experiments.benchcheck import run_bench_check

    result = run_bench_check(
        args.files or None,
        baselines_dir=args.baselines,
        tolerance=args.tolerance,
    )
    print(result.format_report())
    return 0 if result.ok else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.serve.admission import AdmissionConfig
    from repro.serve.server import ServerConfig, run_server

    if _maybe_list_devices(args):
        return 0
    config = ServerConfig(
        host=args.host,
        port=args.port,
        cascade=args.cascade,
        model=args.model,
        backend=args.backend,
        device=_resolve_device(args),
        workers=args.workers,
        sharding=args.mode,
        max_batch=args.max_batch,
        max_delay_s=args.max_delay_ms / 1e3,
        device_batch=args.device_batch,
        fastpath=args.fastpath,
        admission=AdmissionConfig(
            max_queue=args.max_queue,
            max_concurrency=args.max_concurrency,
            queue_budget_s=args.queue_budget_ms / 1e3,
        ),
        trace=args.trace,
        log_format=args.log_format,
        log_level=args.log_level,
        flight_capacity=args.flight_capacity,
        flight_path=args.flight_dump,
    )
    try:
        asyncio.run(run_server(config))
    except KeyboardInterrupt:
        pass
    return 0


def _cmd_loadtest(args: argparse.Namespace) -> int:
    import asyncio
    import json

    from repro.serve.loadgen import build_payloads, run_loadtest, serving_artifact
    from repro.utils.tables import format_table

    payloads = build_payloads(
        width=args.width,
        height=args.height,
        frames=args.frames,
        faces=args.faces,
        seed=args.seed,
        trailer=args.trailer,
        references=args.references,
    )

    async def drive():
        result = await run_loadtest(
            args.host,
            args.port,
            requests=args.requests,
            concurrency=args.concurrency,
            rate_rps=args.rate,
            payloads=payloads,
            ready_timeout_s=args.ready_timeout,
        )
        stats = None
        try:
            from repro.serve.loadgen import _Connection

            conn = _Connection(args.host, args.port)
            status, body = await conn.request("GET", "/stats")
            conn.close()
            if status == 200:
                stats = json.loads(body).get("serve")
        except (OSError, ValueError):
            pass
        return result, stats

    result, stats = asyncio.run(drive())
    lat = result.latency_summary()
    print(
        format_table(
            ["mode", "ok", "shed", "errors", "req/s", "p50 ms", "p95 ms"],
            [[
                result.mode,
                result.ok,
                result.shed,
                result.errors,
                round(result.rps, 2),
                round(lat.get("p50_s", 0.0) * 1e3, 1),
                round(lat.get("p95_s", 0.0) * 1e3, 1),
            ]],
            title=(
                f"loadtest — {result.requests} requests at concurrency "
                f"{result.concurrency} against {args.host}:{args.port}"
            ),
        )
    )
    slowest = result.slowest(args.slowest)
    if slowest:
        # the trace ids name the server-side log lines / flight events /
        # Chrome-trace spans for the tail — paste one into a grep
        print(f"slowest {len(slowest)} requests:")
        for entry in slowest:
            trace = entry["trace_id"] or "(no trace header)"
            print(f"  {entry['latency_s'] * 1e3:8.1f} ms  trace_id={trace}")
    artifact = serving_artifact(
        result,
        width=args.width,
        height=args.height,
        frames=args.frames,
        trailer=args.trailer,
        server_stats=stats,
    )
    from pathlib import Path as _Path

    _Path(args.output).write_text(json.dumps(artifact, indent=2) + "\n")
    print(f"benchmark artifact -> {args.output}")
    if result.errors or (result.ok == 0 and result.requests > 0):
        print("loadtest saw transport errors or zero OK responses", file=sys.stderr)
        return 1
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs.capture import run_trace

    if _maybe_list_devices(args):
        return 0
    capture = run_trace(
        frames=args.frames,
        workers=args.workers,
        width=args.width,
        height=args.height,
        cascade=args.cascade,
        faces=args.faces,
        seed=args.seed,
        backend=args.backend,
        device=_resolve_device(args),
        mode=args.mode,
        fastpath=args.fastpath,
    )
    trace_path = capture.write_trace(args.output)
    metrics_path = capture.write_metrics(args.metrics_output)
    print(capture.render_snapshot())
    print(
        f"\ntraced {capture.frames} frames on {capture.workers} workers"
        f" ({capture.backend} backend, {capture.mode} sharding)"
        f"\nchrome trace -> {trace_path}  (open via chrome://tracing or ui.perfetto.dev)"
        f"\nmetrics snapshot -> {metrics_path}"
    )
    return 0


def _fmt(name: str, profile) -> str:
    if name == "table1":
        from repro.experiments.table1 import run_table1

        return run_table1().format_table()
    if name == "table2":
        from repro.experiments.table2 import run_table2

        return run_table2(profile).format_table()
    if name == "fig5":
        from repro.experiments.fig5 import run_fig5

        return run_fig5(profile).format_summary()
    if name == "fig6":
        from repro.experiments.fig6 import run_fig6

        return run_fig6(profile).format_trace()
    if name == "fig7":
        from repro.experiments.fig7 import run_fig7

        return run_fig7(profile).format_table()
    if name == "fig8":
        from repro.experiments.fig8 import run_fig8

        return run_fig8(profile).format_table()
    from repro.experiments.fig9 import run_fig9

    return run_fig9(profile).format_table()


class _VersionAction(argparse.Action):
    """``--version`` that reads ``repro.__version__`` only when asked, so
    building the parser leaves importlib.metadata unimported."""

    def __init__(self, option_strings, dest, **kwargs) -> None:
        super().__init__(option_strings, dest, nargs=0, default=argparse.SUPPRESS, **kwargs)

    def __call__(self, parser, namespace, values, option_string=None) -> None:
        from repro import __version__

        print(f"{parser.prog} {__version__}")
        parser.exit()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Face detection reproduction (Oro et al., ICPP 2012)",
    )
    parser.add_argument(
        "--version", action=_VersionAction, help="show program's version number and exit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("detect", help="detect faces in an image")
    p.add_argument("image", nargs="?", help="PGM/PPM image (omit for a demo scene)")
    p.add_argument("--output", "-o", help="write annotated PPM here")
    p.add_argument("--profile", default="quick", help="cascade profile (quick/paper/opencv)")
    p.add_argument("--width", type=int, default=320)
    p.add_argument("--height", type=int, default=240)
    p.add_argument("--faces", type=int, default=3)
    p.add_argument("--seed", type=int, default=7)
    p.set_defaults(func=_cmd_detect)

    p = sub.add_parser("trailers", help="list the synthetic trailers")
    p.set_defaults(func=_cmd_trailers)

    p = sub.add_parser("info", help="device model / profile / cache info")
    p.set_defaults(func=_cmd_info)

    p = sub.add_parser(
        "train",
        help="train a cascade: a zoo recipe (checkpointed, resumable, "
        "published to the model store) or an ad-hoc profile saved as JSON",
    )
    p.add_argument(
        "--recipe",
        default=None,
        help="named zoo recipe (quick/quick_baseline/paper/opencv_like); "
        "checkpoints after every stage, resumes byte-identically, and "
        "publishes a versioned manifest-carrying artifact",
    )
    p.add_argument(
        "--force",
        action="store_true",
        help="retrain even when the recipe version is already published",
    )
    p.add_argument(
        "--no-resume",
        action="store_true",
        help="discard any training checkpoint and start from stage 1",
    )
    p.add_argument(
        "--output",
        "-o",
        default=None,
        help="cascade JSON path (ad-hoc default: cascade.json; with "
        "--recipe: an extra exported copy next to the store publish)",
    )
    p.add_argument("--stages", default="4,6,8,12", help="comma-separated stage sizes")
    p.add_argument("--faces", type=int, default=250)
    p.add_argument("--pool", type=int, default=800)
    p.add_argument("--algorithm", choices=("gentle", "ada"), default="gentle")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("zoo", help="inspect the versioned model store")
    zoo_sub = p.add_subparsers(dest="zoo_command", required=True)
    z = zoo_sub.add_parser("list", help="every model and version in the store")
    z.set_defaults(func=_cmd_zoo_list)
    z = zoo_sub.add_parser("show", help="print one version's manifest JSON")
    z.add_argument("ref", help="model[@version] (version defaults to latest)")
    z.set_defaults(func=_cmd_zoo_show)
    z = zoo_sub.add_parser(
        "gc", help="drop all non-latest versions and published checkpoints"
    )
    z.add_argument("--model", default=None, help="restrict collection to one model")
    z.set_defaults(func=_cmd_zoo_gc)

    p = sub.add_parser(
        "bench",
        help="run one experiment driver",
        description="Run one paper experiment driver, or validate "
        "BENCH_*.json artifacts (check).",
    )
    p.add_argument("experiment", help="table1|table2|fig5|fig6|fig7|fig8|fig9|check")
    p.add_argument(
        "files",
        nargs="*",
        help="BENCH_*.json artifacts to validate (check; default: glob cwd)",
    )
    p.add_argument(
        "--baselines",
        default="benchmarks/baselines",
        help="baseline directory for metric comparisons (check)",
    )
    p.add_argument(
        "--tolerance",
        type=float,
        default=0.1,
        help="relative tolerance applied to baseline min/max bounds (check)",
    )
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser(
        "trace", help="record a Chrome trace + metrics snapshot of the engine"
    )
    p.add_argument("--frames", type=int, default=8, help="frames to process")
    p.add_argument("--workers", type=int, default=2, help="engine workers")
    p.add_argument(
        "--mode",
        choices=("threads", "processes", "auto"),
        default="threads",
        help="engine sharding: thread pool, process pool with shared-memory "
        "frame transport, or auto (processes iff the host has the cores)",
    )
    p.add_argument("--width", type=int, default=480)
    p.add_argument("--height", type=int, default=270)
    p.add_argument(
        "--cascade",
        choices=("quick", "paper", "opencv"),
        default="quick",
        help="cascade profile",
    )
    p.add_argument("--faces", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--backend",
        default=None,
        help="compute backend (reference/vectorized/arrayapi; default: "
        "$REPRO_BACKEND or reference)",
    )
    _add_device_flags(p)
    p.add_argument(
        "--fastpath",
        choices=("off", "exact", "fast"),
        default=None,
        help="two-tier fast-path policy; its fastpath.diff/screen spans "
        "land on the trace (default: $REPRO_FASTPATH or off)",
    )
    p.add_argument(
        "--output", "-o", default="TRACE_engine.json", help="Chrome trace JSON path"
    )
    p.add_argument(
        "--metrics-output",
        default="TRACE_metrics.json",
        help="metrics snapshot JSON path",
    )
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser(
        "serve", help="run the asyncio detection service (POST /v1/detect)"
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8035, help="0 picks a free port")
    p.add_argument(
        "--cascade",
        choices=("quick", "paper", "opencv"),
        default="quick",
        help="cascade profile",
    )
    p.add_argument(
        "--model",
        default=None,
        help="zoo model reference to serve (name, name@version, or a "
        "cascade JSON path); overrides --cascade, hot-swappable via "
        "POST /v1/models/swap and SIGHUP",
    )
    p.add_argument(
        "--backend",
        default=None,
        help="compute backend (reference/vectorized/arrayapi; default: "
        "$REPRO_BACKEND or reference)",
    )
    _add_device_flags(p)
    p.add_argument("--workers", type=int, default=1, help="engine workers")
    p.add_argument(
        "--mode",
        choices=("threads", "processes", "auto"),
        default="threads",
        help="engine sharding under the micro-batcher",
    )
    p.add_argument(
        "--max-batch", type=int, default=4, help="micro-batch width (1 disables)"
    )
    p.add_argument(
        "--max-delay-ms",
        type=float,
        default=5.0,
        help="longest a lone request waits for batch company",
    )
    p.add_argument(
        "--device-batch",
        action="store_true",
        help="fuse each micro-batch into one device batch: same-shaped "
        "frames share one launch set and one host<->device crossing "
        "per transfer site (detections stay byte-identical)",
    )
    p.add_argument(
        "--fastpath",
        choices=("off", "exact", "fast"),
        default=None,
        help="two-tier fast-path policy; temporal reuse stays disabled for "
        "serving — requests must never delta against each other "
        "(default: $REPRO_FASTPATH or off)",
    )
    p.add_argument(
        "--max-queue", type=int, default=64, help="queued requests before 429s"
    )
    p.add_argument(
        "--max-concurrency",
        type=int,
        default=128,
        help="admitted-but-unanswered requests before 429s",
    )
    p.add_argument(
        "--queue-budget-ms",
        type=float,
        default=500.0,
        help="queue deadline: admitted requests older than this are shed",
    )
    p.add_argument(
        "--trace",
        action="store_true",
        help="record request-lifecycle spans (adds overhead)",
    )
    p.add_argument(
        "--log-format",
        choices=("json", "text"),
        default="text",
        help="structured-log format on stderr (level: --log-level or $REPRO_LOG)",
    )
    p.add_argument(
        "--log-level",
        choices=("debug", "info", "warning", "error"),
        default=None,
        help="minimum log level (default: $REPRO_LOG or info)",
    )
    p.add_argument(
        "--flight-capacity",
        type=int,
        default=256,
        help="flight-recorder ring size (last N request/lifecycle events)",
    )
    p.add_argument(
        "--flight-dump",
        default="FLIGHT_serve.json",
        help="path for crash/SIGUSR2 flight-recorder dumps",
    )
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser(
        "loadtest", help="drive a running service and write BENCH_serving.json"
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8035)
    p.add_argument("--requests", type=int, default=64)
    p.add_argument(
        "--concurrency", type=int, default=8, help="closed-loop client workers"
    )
    p.add_argument(
        "--rate",
        type=float,
        default=None,
        help="open-loop arrival rate in req/s (default: closed loop)",
    )
    p.add_argument("--width", type=int, default=96, help="payload frame width")
    p.add_argument("--height", type=int, default=96, help="payload frame height")
    p.add_argument(
        "--frames", type=int, default=6, help="distinct payload frames to rotate"
    )
    p.add_argument("--faces", type=int, default=1, help="faces per synthetic frame")
    p.add_argument(
        "--trailer",
        default=None,
        help="draw payload frames from this synthetic Table II trailer",
    )
    p.add_argument(
        "--references",
        action="store_true",
        help="send JSON frame references instead of raw PGM pixels",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--ready-timeout",
        type=float,
        default=30.0,
        help="seconds to wait for /readyz before failing",
    )
    p.add_argument(
        "--slowest",
        type=int,
        default=5,
        help="print the k slowest requests with their x-repro-trace-id",
    )
    p.add_argument(
        "--output", "-o", default="BENCH_serving.json", help="JSON artifact path"
    )
    p.set_defaults(func=_cmd_loadtest)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
