"""Validate ``BENCH_*.json`` artifacts: the ``repro bench check`` backend.

Every benchmark artifact the suite publishes
(``BENCH_serving-loadtest.json`` from ``repro loadtest``,
``BENCH_log_overhead.json`` from ``benchmarks/test_log_overhead.py``)
shares a contract: an ``experiment`` tag, an integer
``schema_version``, a full provenance block, and a per-experiment set
of required result keys.  CI runs ``repro bench check`` after every
bench smoke so a refactor that breaks an artifact's shape — or a
regression that flips a hard invariant like zero transport errors —
fails the job even when the wall-clock gates are smoke-skipped.

Baselines live under ``benchmarks/baselines/<experiment>.json``::

    {"experiment": "serving-loadtest",
     "checks": [{"path": "runs.loadtest.requests", "min": 1},
                {"path": "runs.loadtest.errors", "max": 0},
                {"path": "speedup", "exists": true}]}

``exists`` asserts presence (any value, including ``null``) — shape
checks for fields whose value varies by run or is legitimately null.
``equals`` is strict; ``min``/``max`` are loosened by the relative
``tolerance`` (a ``min`` of 0.99 at tolerance 0.1 accepts >= 0.891) so
the checked-in floors survive noisy shared runners.  Baselines assert
CI-robust invariants: zero transport errors and exactly-once log
accounting.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import ConfigurationError

__all__ = ["CheckReport", "BenchCheckResult", "check_artifact", "run_bench_check"]

#: provenance keys every artifact must carry (see repro.utils.provenance)
REQUIRED_PROVENANCE = frozenset(
    {"git_sha", "timestamp_utc", "python", "numpy", "platform", "cpu_count"}
)

#: top-level keys every artifact must carry, whatever the experiment
REQUIRED_COMMON = frozenset({"experiment", "schema_version", "provenance"})

#: per-experiment required result keys (presence, not value — a loadtest
#: serving artifact legitimately publishes ``"speedup": null``)
REQUIRED_KEYS = {
    "log_overhead": frozenset({"workload", "runs", "overhead", "accounting"}),
    "serving-loadtest": frozenset(
        {"workload", "runs", "fps", "latency", "speedup", "identical_responses"}
    ),
}

_MISSING = object()


def _lookup(payload: dict, dotted: str):
    """Resolve ``a.b.c`` into nested dicts; ``_MISSING`` when absent."""
    node = payload
    for part in dotted.split("."):
        if not isinstance(node, dict) or part not in node:
            return _MISSING
        node = node[part]
    return node


@dataclass
class CheckReport:
    """Validation outcome for one artifact file."""

    path: Path
    experiment: str | None = None
    failures: list[str] = field(default_factory=list)
    checks_run: int = 0

    @property
    def ok(self) -> bool:
        return not self.failures


@dataclass
class BenchCheckResult:
    """Aggregated outcome of one ``repro bench check`` invocation."""

    reports: list[CheckReport]
    baselines_dir: Path | None
    tolerance: float

    @property
    def ok(self) -> bool:
        return bool(self.reports) and all(r.ok for r in self.reports)

    def format_report(self) -> str:
        if not self.reports:
            return "bench check: no BENCH_*.json artifacts found"
        lines = []
        for r in self.reports:
            status = "ok" if r.ok else "FAIL"
            lines.append(
                f"[{status}] {r.path} ({r.experiment or '?'}, "
                f"{r.checks_run} checks)"
            )
            lines.extend(f"       - {failure}" for failure in r.failures)
        total = sum(r.checks_run for r in self.reports)
        failed = sum(len(r.failures) for r in self.reports)
        lines.append(
            f"bench check: {len(self.reports)} artifacts, {total} checks, "
            f"{failed} failures"
        )
        return "\n".join(lines)


def _check_schema(payload: dict, report: CheckReport) -> None:
    for key in sorted(REQUIRED_COMMON):
        report.checks_run += 1
        if key not in payload:
            report.failures.append(f"missing required key {key!r}")
    experiment = payload.get("experiment")
    report.experiment = experiment if isinstance(experiment, str) else None

    report.checks_run += 1
    version = payload.get("schema_version")
    if not isinstance(version, int) or version < 1:
        report.failures.append(
            f"schema_version must be a positive integer, got {version!r}"
        )

    report.checks_run += 1
    prov = payload.get("provenance")
    if not isinstance(prov, dict):
        report.failures.append("provenance block missing or not an object")
    else:
        absent = sorted(REQUIRED_PROVENANCE - set(prov))
        if absent:
            report.failures.append(f"provenance missing keys: {absent}")

    report.checks_run += 1
    if report.experiment is None:
        report.failures.append("experiment tag missing or not a string")
    elif report.experiment not in REQUIRED_KEYS:
        report.failures.append(
            f"unknown experiment {report.experiment!r}; "
            f"known: {sorted(REQUIRED_KEYS)}"
        )
    else:
        for key in sorted(REQUIRED_KEYS[report.experiment]):
            report.checks_run += 1
            if key not in payload:
                report.failures.append(
                    f"{report.experiment} artifact missing key {key!r}"
                )


def _check_baseline(
    payload: dict, baseline: dict, tolerance: float, report: CheckReport
) -> None:
    checks = baseline.get("checks", [])
    if not isinstance(checks, list):
        report.failures.append("baseline 'checks' must be a list")
        return
    for check in checks:
        report.checks_run += 1
        dotted = check.get("path")
        value = _lookup(payload, dotted) if dotted else _MISSING
        if "exists" in check:
            # presence-only: valuable for provenance fields whose value
            # depends on the host (device kind, probe path)
            present = value is not _MISSING
            if present != bool(check["exists"]):
                expectation = "present" if check["exists"] else "absent"
                report.failures.append(
                    f"{dotted}: expected path to be {expectation}"
                )
            continue
        if value is _MISSING:
            report.failures.append(f"baseline path {dotted!r} absent from artifact")
            continue
        if "equals" in check:
            expected = check["equals"]
            if value != expected:
                report.failures.append(
                    f"{dotted}: expected {expected!r}, got {value!r}"
                )
        elif "min" in check:
            floor = check["min"] - tolerance * abs(check["min"])
            if not isinstance(value, (int, float)) or value < floor:
                report.failures.append(
                    f"{dotted}: {value!r} below baseline min {check['min']} "
                    f"(tolerance-adjusted floor {floor:.6g})"
                )
        elif "max" in check:
            ceil = check["max"] + tolerance * abs(check["max"])
            if not isinstance(value, (int, float)) or value > ceil:
                report.failures.append(
                    f"{dotted}: {value!r} above baseline max {check['max']} "
                    f"(tolerance-adjusted ceiling {ceil:.6g})"
                )
        else:
            report.failures.append(
                f"baseline check for {dotted!r} has no equals/min/max/exists"
            )


def check_artifact(
    path: str | Path,
    *,
    baselines_dir: str | Path | None = None,
    tolerance: float = 0.1,
) -> CheckReport:
    """Validate one artifact: schema + provenance + optional baseline."""
    path = Path(path)
    report = CheckReport(path=path)
    try:
        payload = json.loads(path.read_text())
    except FileNotFoundError:
        report.failures.append("file not found")
        return report
    except json.JSONDecodeError as exc:
        report.failures.append(f"invalid JSON: {exc}")
        return report
    if not isinstance(payload, dict):
        report.failures.append("artifact root must be a JSON object")
        return report

    _check_schema(payload, report)

    if baselines_dir is not None and report.experiment is not None:
        baseline_path = Path(baselines_dir) / f"{report.experiment}.json"
        if baseline_path.exists():
            try:
                baseline = json.loads(baseline_path.read_text())
            except json.JSONDecodeError as exc:
                report.failures.append(f"invalid baseline {baseline_path}: {exc}")
            else:
                _check_baseline(payload, baseline, tolerance, report)
    return report


def run_bench_check(
    paths: list[str | Path] | None = None,
    *,
    baselines_dir: str | Path | None = "benchmarks/baselines",
    tolerance: float = 0.1,
) -> BenchCheckResult:
    """Validate artifacts (default: ``BENCH_*.json`` in the cwd).

    An empty artifact set is a *failure* — CI calling this after a bench
    smoke that produced nothing is exactly the misconfiguration the
    check exists to catch.
    """
    if tolerance < 0:
        raise ConfigurationError("tolerance must be >= 0")
    if paths is None:
        paths = sorted(Path.cwd().glob("BENCH_*.json"))
    resolved_dir: Path | None = None
    if baselines_dir is not None:
        candidate = Path(baselines_dir)
        if candidate.is_dir():
            resolved_dir = candidate
    reports = [
        check_artifact(p, baselines_dir=resolved_dir, tolerance=tolerance)
        for p in paths
    ]
    return BenchCheckResult(
        reports=reports, baselines_dir=resolved_dir, tolerance=tolerance
    )
