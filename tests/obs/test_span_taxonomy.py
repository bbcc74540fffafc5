"""The DESIGN §8 span taxonomy, emitted the same way by every path.

Every path into the Fig. 1 stage sequence — the one-shot pipeline, a
workspace frame (an N=1 lane), a fused device batch and the exact fast
path on a miss and on a whole-frame hit — must emit the §8 stage spans,
minus only the stages a whole-frame hit skips.  The fast path's diff
span must sit at the same depth whether it checks the whole frame or one
pyramid level.
"""

import re
from pathlib import Path

import pytest

from repro.detect.pipeline import FaceDetectionPipeline, PipelineConfig
from repro.obs.tracer import Tracer
from repro.utils.rng import rng_for
from repro.video.synthesis import render_scene
from repro.zoo import quick_cascade

_DESIGN = Path(__file__).resolve().parents[2] / "DESIGN.md"


def _design_span_names() -> set[str]:
    """Span names of the DESIGN §8 table."""
    text = _DESIGN.read_text()
    section = text.split("## 8.", 1)[1].split("\n## ", 1)[0]
    return set(re.findall(r"^\| `([a-z.]+)` \|", section, flags=re.MULTILINE))


#: the §8 stages one frame's pass emits (``frame`` is the engine's wrapper)
STAGES = _design_span_names() - {"frame"}
#: what a whole-frame fast-path hit replays instead of recomputing
HIT_SKIPS = STAGES


@pytest.fixture(scope="module")
def cascade():
    return quick_cascade(seed=0)


@pytest.fixture(scope="module")
def frames():
    # 96x96 has two octaves, so the anti-alias stage runs
    return [
        render_scene(96, 96, faces=1, rng=rng_for(5, "span-taxonomy", i))[0]
        for i in range(4)
    ]


def _pipeline(cascade, fastpath, tracer):
    return FaceDetectionPipeline(
        cascade,
        config=PipelineConfig(backend="vectorized", fastpath=fastpath),
        tracer=tracer,
    )


def _run_pipeline(cascade, frames, tracer):
    pipeline = _pipeline(cascade, "off", tracer)
    return lambda: pipeline.process_frame(frames[0])


def _run_workspace(cascade, frames, tracer):
    workspace = _pipeline(cascade, "off", tracer).make_workspace()
    return lambda: workspace.process_frame(frames[0])


def _run_fused(cascade, frames, tracer):
    workspace = _pipeline(cascade, "off", tracer).make_workspace()
    return lambda: workspace.process_batch(frames[:4])


def _run_exact_miss(cascade, frames, tracer):
    workspace = _pipeline(cascade, "exact", tracer).make_workspace()
    workspace.process_frame(frames[0])
    return lambda: workspace.process_frame(frames[1])


def _run_exact_hit(cascade, frames, tracer):
    workspace = _pipeline(cascade, "exact", tracer).make_workspace()
    workspace.process_frame(frames[0])
    return lambda: workspace.process_frame(frames[0].copy())


PATHS = {
    "pipeline.process_frame": (_run_pipeline, STAGES),
    "workspace N=1": (_run_workspace, STAGES),
    "fused N=4": (_run_fused, STAGES),
    "exact miss": (_run_exact_miss, STAGES),
    "exact whole-frame hit": (_run_exact_hit, STAGES - HIT_SKIPS),
}


def _traced(build, cascade, frames):
    """Spans of one call, wrapped in an engine-style ``frame`` span."""
    tracer = Tracer()
    call = build(cascade, frames, tracer)
    tracer.clear()
    with tracer.span("frame", cat="engine"):
        call()
    return tracer.spans()


def _parent(span, spans):
    """The innermost other span on the same thread enclosing ``span``."""
    enclosing = [
        other
        for other in spans
        if other is not span
        and other.thread_id == span.thread_id
        and other.start_us <= span.start_us
        and other.end_us >= span.end_us
    ]
    return min(enclosing, key=lambda s: s.dur_us).name if enclosing else None


def test_stage_set_matches_design():
    assert STAGES == {
        "pyramid.antialias",
        "pyramid.scale",
        "integral",
        "cascade",
        "grouping",
        "schedule",
    }


@pytest.mark.parametrize("path", list(PATHS))
def test_every_path_emits_the_design_stage_set(path, cascade, frames):
    build, expected = PATHS[path]
    names = {span.name for span in _traced(build, cascade, frames)}
    assert names & STAGES == expected


def test_fastpath_diff_has_one_parent_on_frame_and_level_checks(cascade, frames):
    miss = _traced(_run_exact_miss, cascade, frames)
    hit = _traced(_run_exact_hit, cascade, frames)
    miss_diffs = [s for s in miss if s.name == "fastpath.diff"]
    hit_diffs = [s for s in hit if s.name == "fastpath.diff"]
    # a miss diffs the whole frame, then every level; a hit only the frame
    assert len(miss_diffs) > 1 and len(hit_diffs) == 1
    parents = {_parent(s, miss) for s in miss_diffs} | {_parent(s, hit) for s in hit_diffs}
    assert parents == {"frame"}
