"""Validate the CI pipeline definition.

``actionlint`` is not a baked-in dependency, so the tier-1 gate is a
structural check: the workflow must parse as YAML and contain the jobs
the repo's quality gates depend on (lint, test matrix, vectorized-backend
test pass, benchmark smoke) with the exact tier-1 pytest invocation.
"""

import re
from pathlib import Path

import pytest

yaml = pytest.importorskip("yaml", reason="PyYAML needed to parse the workflow")

_WORKFLOW = Path(__file__).resolve().parent.parent / ".github" / "workflows" / "ci.yml"


@pytest.fixture(scope="module")
def workflow():
    assert _WORKFLOW.is_file(), "CI workflow .github/workflows/ci.yml is missing"
    return yaml.safe_load(_WORKFLOW.read_text())


def _steps_text(job: dict) -> str:
    return "\n".join(str(step.get("run", "")) for step in job["steps"])


def test_triggers(workflow):
    # YAML 1.1 parses the bare key `on` as boolean True
    triggers = workflow.get("on", workflow.get(True))
    assert triggers is not None, "workflow has no trigger block"
    assert "pull_request" in triggers
    assert triggers["push"]["branches"] == ["main"]


def test_jobs_present(workflow):
    assert {
        "lint", "test", "test-vectorized", "test-arrayapi", "test-processes",
        "test-fastpath", "bench", "serve-smoke",
    } <= set(workflow["jobs"])


def test_concurrency_cancels_superseded_runs(workflow):
    """Pushes to the same ref must cancel the in-flight run."""
    group = workflow["concurrency"]
    assert group["cancel-in-progress"] is True
    assert "github.ref" in str(group["group"])


def test_every_job_has_a_timeout(workflow):
    """A hung step must fail its job, not hold the runner for hours."""
    for name, job in workflow["jobs"].items():
        minutes = job.get("timeout-minutes")
        assert isinstance(minutes, int) and 0 < minutes <= 60, (
            f"{name}: missing or unreasonable timeout-minutes"
        )


def test_lint_job_runs_ruff(workflow):
    text = _steps_text(workflow["jobs"]["lint"])
    assert "ruff check" in text
    assert "ruff format --check" in text


def test_test_job_matrix_and_command(workflow):
    job = workflow["jobs"]["test"]
    versions = job["strategy"]["matrix"]["python-version"]
    assert versions == ["3.10", "3.11", "3.12"]
    assert "PYTHONPATH=src python -m pytest -x -q" in _steps_text(job)


_PYPROJECT = _WORKFLOW.parents[2] / "pyproject.toml"
_TIER1_JOBS = ("test", "test-vectorized", "test-arrayapi", "test-fastpath")


def _quiet_flags(args: str) -> int:
    """How many levels of ``-q`` a pytest argument string asks for."""
    return sum(
        token.count("q") if re.fullmatch(r"-q+", token) else int(token == "--quiet")
        for token in args.split()
    )


def test_tier1_runs_quiet_once_so_the_summary_line_prints(workflow):
    """``addopts`` plus a tier-1 step's own flags give ``-q`` at most once:
    at ``-qq`` pytest prints no "N passed" summary."""
    addopts = re.search(
        r'^addopts\s*=\s*"([^"]*)"', _PYPROJECT.read_text(), flags=re.MULTILINE
    )
    from_addopts = _quiet_flags(addopts.group(1)) if addopts else 0
    for name in _TIER1_JOBS:
        steps = [
            line
            for line in _steps_text(workflow["jobs"][name]).splitlines()
            if "python -m pytest -x" in line
        ]
        assert steps, f"{name}: no tier-1 pytest step"
        for step in steps:
            args = step.split("python -m pytest", 1)[1]
            assert from_addopts + _quiet_flags(args) <= 1, (name, step)


def test_vectorized_backend_job(workflow):
    """The tier-1 suite must also run once under REPRO_BACKEND=vectorized."""
    text = _steps_text(workflow["jobs"]["test-vectorized"])
    assert "REPRO_BACKEND=vectorized" in text
    assert "PYTHONPATH=src python -m pytest -x -q" in text


def test_arrayapi_backend_job(workflow):
    """The tier-1 suite must also run once under REPRO_BACKEND=arrayapi,
    and only that: the device-batch tolerance golden pins
    ``backend="arrayapi"`` itself, so the ``test`` matrix already runs it."""
    text = _steps_text(workflow["jobs"]["test-arrayapi"])
    assert "REPRO_BACKEND=arrayapi" in text
    assert "PYTHONPATH=src python -m pytest -x -q" in text
    steps = [line for line in text.splitlines() if "python -m pytest" in line]
    assert steps == ["REPRO_BACKEND=arrayapi PYTHONPATH=src python -m pytest -x -q"]


def test_process_sharding_job(workflow):
    """The process-sharding subset must run under explicit spawn semantics."""
    text = _steps_text(workflow["jobs"]["test-processes"])
    assert "REPRO_START_METHOD=spawn" in text
    assert "tests/detect/test_engine_processes.py" in text
    # the batched process path (fused groups over the shm ring) and the
    # submit hook run under spawn too
    assert "tests/detect/test_devicebatch.py" in text
    assert "tests/detect/test_engine_submit.py" in text
    assert "tests/detect/test_pickling.py" in text
    assert "tests/video/test_shm.py" in text
    # the slim-result, scratch-arena and offset-table memory guards run
    # there too, and so does the import guard: spawn workers re-import repro
    assert "tests/detect/test_memory.py" in text
    assert "tests/test_import_cost.py" in text
    # process workers each replay from their own slim fast-path cache
    assert "tests/detect/test_fastpath.py" in text


def test_fastpath_job(workflow):
    """The full tier-1 suite must run under the exact fast path (the
    byte-identity oracle mode), on the default backend and again on
    ``vectorized``, the benchmark's pinned stream configuration; its
    recall/precision floors for ``fast`` are tier-1 tests, so the job
    runs nothing from ``benchmarks/``."""
    text = _steps_text(workflow["jobs"]["test-fastpath"])
    steps = [line for line in text.splitlines() if "python -m pytest" in line]
    assert steps == [
        "REPRO_FASTPATH=exact PYTHONPATH=src python -m pytest -x -q",
        "REPRO_BACKEND=vectorized REPRO_FASTPATH=exact PYTHONPATH=src python -m pytest -x -q",
    ]
    assert "benchmarks/" not in text


def test_bench_smoke_job(workflow):
    """The repo benchmark's own smoke suite runs, with its cascade cache."""
    job = workflow["jobs"]["bench-smoke"]
    assert "PYTHONPATH=src python -m pytest bench/tests -q" in _steps_text(job)
    assert job["timeout-minutes"] == 30
    caches = [
        step["with"]["path"]
        for step in job["steps"]
        if "actions/cache" in str(step.get("uses", ""))
    ]
    assert caches == [".bench_cache/"]


def test_bench_artifacts_are_checked(workflow):
    """Every BENCH_*.json CI produces goes through ``repro bench check``
    in the producing job, so a schema or invariant break fails it
    directly; the serve-smoke job is the only producer."""
    for name, job in workflow["jobs"].items():
        if name != "serve-smoke":
            assert not re.search(r"BENCH_[\w-]+\.json", _steps_text(job)), name
    serve = _steps_text(workflow["jobs"]["serve-smoke"])
    check = serve[serve.index("repro bench check") :]
    for artifact in (
        "BENCH_serving-loadtest.json",
        "BENCH_log_overhead.json",
        "BENCH_swap-loadtest.json",
    ):
        assert artifact in check


def test_serve_smoke_always_drains_the_server(workflow):
    """The CLI round trip must SIGTERM + wait the server even when the
    loadtest fails, then fail the step on the loadtest's own status —
    otherwise a failing loadtest leaks the background server."""
    job = workflow["jobs"]["serve-smoke"]
    script = next(
        str(step.get("run", ""))
        for step in job["steps"]
        if "repro loadtest" in str(step.get("run", ""))
    )
    assert "|| STATUS=$?" in script
    assert "kill -TERM" in script
    assert "wait" in script
    assert 'exit "$STATUS"' in script
    # the drain must come after the status capture, never before
    assert script.index("|| STATUS=$?") < script.index("kill -TERM")


def test_pip_caching(workflow):
    for name in (
        "lint", "test", "test-vectorized", "test-arrayapi", "test-processes",
        "test-fastpath", "bench", "serve-smoke",
    ):
        setup = next(
            step
            for step in workflow["jobs"][name]["steps"]
            if "setup-python" in str(step.get("uses", ""))
        )
        assert setup["with"]["cache"] == "pip", f"{name}: pip cache not enabled"


def test_bench_job_smoke_and_artifact(workflow):
    """The bench job runs the trace-overhead smoke and prints the
    capability probe report through ``repro trace``."""
    text = _steps_text(workflow["jobs"]["bench"])
    assert "REPRO_BENCH_SMOKE=1" in text
    assert "benchmarks/test_trace_overhead.py" in text
    assert "python -m repro trace --device list" in text
    assert "repro bench" not in text


def test_serve_smoke_job(workflow):
    """The serving stack must be exercised end to end in CI: the serve
    test suite and a real ``repro serve`` process driven by ``repro
    loadtest`` then drained with SIGTERM."""
    job = workflow["jobs"]["serve-smoke"]
    text = _steps_text(job)
    assert "tests/serve" in text
    assert "REPRO_BENCH_SMOKE=1" in text
    assert "repro serve" in text
    assert "repro loadtest" in text
    assert "kill -TERM" in text, "the CLI round trip must drain via SIGTERM"
    uploads = {
        step["with"]["name"]: step["with"]
        for step in job["steps"]
        if "upload-artifact" in str(step.get("uses", ""))
    }
    serving = uploads["BENCH_serving"]
    assert "BENCH_serving-loadtest.json" in str(serving["path"])
    assert "BENCH_log_overhead.json" in str(serving["path"])
    assert serving.get("if-no-files-found") == "error"


def test_serve_smoke_observability(workflow):
    """The CLI round trip must exercise the observability surface: JSON
    structured logs captured to a file, a ``/debug/flight`` dump fetched
    before the drain, exactly-once request accounting checked by grepping
    the log, the log-overhead bench validated, and the log + flight dump
    published as artifacts."""
    job = workflow["jobs"]["serve-smoke"]
    text = _steps_text(job)
    assert "benchmarks/test_log_overhead.py" in text
    script = next(
        str(step.get("run", ""))
        for step in job["steps"]
        if "repro loadtest" in str(step.get("run", ""))
    )
    assert "--log-format json" in script
    assert "2> serve.log" in script
    # flight dump comes from the live server, before the SIGTERM drain
    assert "/debug/flight" in script
    assert script.index("/debug/flight") < script.index("kill -TERM")
    # exactly-once accounting: requests logged == requests sent
    assert "--requests 24" in script
    assert 'grep -c \'"event": "request"\' serve.log' in script
    assert '-ne 24' in script
    uploads = {
        step["with"]["name"]: step["with"]
        for step in job["steps"]
        if "upload-artifact" in str(step.get("uses", ""))
    }
    obs = uploads["serve-observability"]
    assert "serve.log" in str(obs["path"])
    assert "FLIGHT_serve-smoke.json" in str(obs["path"])
    assert obs.get("if-no-files-found") == "error"


def test_serve_smoke_hot_swap(workflow):
    """The serve-smoke job must exercise the zero-downtime hot-swap end
    to end against a real ``repro serve`` process: pre-train both zoo
    models (so the swap window is load-warm-flip, never a bootstrap run),
    swap quick -> quick_baseline mid-loadtest via POST /v1/models/swap,
    verify the flip in /stats, and publish + validate the loadtest's
    artifact.  The swap-window latency and readiness gates are tier-1
    (tests/serve/test_swap.py), so no swap bench runs here."""
    job = workflow["jobs"]["serve-smoke"]
    text = _steps_text(job)
    assert "repro train --recipe quick" in text
    assert "repro train --recipe quick_baseline" in text
    assert re.findall(r"repro bench (\w+)", text) == ["check"]
    script = next(
        str(step.get("run", ""))
        for step in job["steps"]
        if "/v1/models/swap" in str(step.get("run", ""))
    )
    assert "--model quick" in script
    assert '"model": "quick_baseline"' in script
    # the swap fires while the loadtest is in flight, and the server is
    # always drained afterwards regardless of the verdict
    assert script.index("repro loadtest") < script.index("/v1/models/swap")
    assert script.index("/v1/models/swap") < script.index("kill -TERM")
    assert 'exit "$STATUS"' in script
    # the flip + zero-failure gate reads /stats and the loadtest artifact
    assert "/stats" in script
    assert "quick_baseline@" in script
    assert 'load["errors"] == 0' in script
    # the swap loadtest's artifact goes through the same bench-check +
    # upload path as every other serving artifact
    uploads = {
        step["with"]["name"]: step["with"]
        for step in job["steps"]
        if "upload-artifact" in str(step.get("uses", ""))
    }
    assert "BENCH_swap-loadtest.json" in str(uploads["BENCH_serving"]["path"])
    assert "swap-serve.log" in str(uploads["serve-observability"]["path"])


def test_bench_job_records_and_uploads_trace(workflow):
    """The bench smoke job must run ``repro trace`` and upload its output."""
    job = workflow["jobs"]["bench"]
    trace_step = next(
        (step for step in job["steps"] if "repro trace" in str(step.get("run", ""))),
        None,
    )
    assert trace_step is not None, "no 'repro trace' step in the bench job"
    assert "TRACE_engine.json" in trace_step["run"]
    uploads = [
        step for step in job["steps"] if "upload-artifact" in str(step.get("uses", ""))
    ]
    trace_upload = next(
        (step for step in uploads if "TRACE_engine.json" in str(step["with"]["path"])),
        None,
    )
    assert trace_upload is not None, "trace output is not uploaded as an artifact"
    assert "TRACE_metrics.json" in str(trace_upload["with"]["path"])
    assert trace_upload["with"].get("if-no-files-found") == "error"
