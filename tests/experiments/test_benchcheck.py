"""``repro bench check``: artifact schema + baseline validation."""

import json
from pathlib import Path

import pytest

from repro.errors import ConfigurationError
from repro.experiments.benchcheck import (
    REQUIRED_KEYS,
    REQUIRED_PROVENANCE,
    check_artifact,
    run_bench_check,
)
from repro.utils.provenance import provenance

_REPO = Path(__file__).resolve().parent.parent.parent
_BASELINES = _REPO / "benchmarks" / "baselines"


def _log_overhead_payload() -> dict:
    return {
        "experiment": "log_overhead",
        "schema_version": 1,
        "provenance": provenance(mode="threads"),
        "workload": {"requests": 24, "concurrency": 4},
        "runs": {"silent": {"rps": 50.0}, "observed": {"rps": 48.0, "suppressed": 0}},
        "overhead": 0.04,
        "accounting": {"exactly_once": True, "identical_detections": True},
    }


def _write(tmp_path: Path, name: str, payload) -> Path:
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


class TestSchemaChecks:
    def test_valid_artifact_passes(self, tmp_path):
        path = _write(tmp_path, "BENCH_log_overhead.json", _log_overhead_payload())
        report = check_artifact(path)
        assert report.ok, report.failures
        assert report.experiment == "log_overhead"
        assert report.checks_run > 0

    def test_missing_provenance_keys_fail(self, tmp_path):
        payload = _log_overhead_payload()
        del payload["provenance"]["git_sha"]
        report = check_artifact(_write(tmp_path, "a.json", payload))
        assert not report.ok
        assert any("git_sha" in f for f in report.failures)

    def test_missing_required_experiment_key_fails(self, tmp_path):
        payload = _log_overhead_payload()
        del payload["overhead"]
        report = check_artifact(_write(tmp_path, "a.json", payload))
        assert any("overhead" in f for f in report.failures)

    def test_unknown_experiment_fails(self, tmp_path):
        payload = _log_overhead_payload()
        payload["experiment"] = "mystery"
        report = check_artifact(_write(tmp_path, "a.json", payload))
        assert any("unknown experiment" in f for f in report.failures)

    def test_bad_schema_version_fails(self, tmp_path):
        payload = _log_overhead_payload()
        payload["schema_version"] = "one"
        report = check_artifact(_write(tmp_path, "a.json", payload))
        assert any("schema_version" in f for f in report.failures)

    def test_invalid_json_fails(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        report = check_artifact(path)
        assert any("invalid JSON" in f for f in report.failures)

    def test_missing_file_fails(self, tmp_path):
        report = check_artifact(tmp_path / "absent.json")
        assert report.failures == ["file not found"]


class TestBaselineChecks:
    def _baseline_dir(self, tmp_path: Path, checks: list[dict]) -> Path:
        bdir = tmp_path / "baselines"
        bdir.mkdir()
        (bdir / "log_overhead.json").write_text(
            json.dumps({"experiment": "log_overhead", "checks": checks})
        )
        return bdir

    def test_equals_min_max_pass(self, tmp_path):
        path = _write(tmp_path, "a.json", _log_overhead_payload())
        bdir = self._baseline_dir(
            tmp_path,
            [
                {"path": "accounting.exactly_once", "equals": True},
                {"path": "runs.observed.rps", "min": 45.0},
                {"path": "runs.observed.suppressed", "max": 0},
            ],
        )
        report = check_artifact(path, baselines_dir=bdir)
        assert report.ok, report.failures

    def test_min_respects_tolerance(self, tmp_path):
        payload = _log_overhead_payload()
        payload["runs"]["observed"]["rps"] = 0.95
        path = _write(tmp_path, "a.json", payload)
        bdir = self._baseline_dir(tmp_path, [{"path": "runs.observed.rps", "min": 0.99}])
        strict = check_artifact(path, baselines_dir=bdir, tolerance=0.0)
        assert any("below baseline min" in f for f in strict.failures)
        loose = check_artifact(path, baselines_dir=bdir, tolerance=0.1)
        assert loose.ok, loose.failures

    def test_equals_mismatch_fails(self, tmp_path):
        payload = _log_overhead_payload()
        payload["accounting"]["exactly_once"] = False
        path = _write(tmp_path, "a.json", payload)
        bdir = self._baseline_dir(
            tmp_path, [{"path": "accounting.exactly_once", "equals": True}]
        )
        report = check_artifact(path, baselines_dir=bdir)
        assert any("expected True" in f for f in report.failures)

    def test_missing_baseline_path_fails(self, tmp_path):
        path = _write(tmp_path, "a.json", _log_overhead_payload())
        bdir = self._baseline_dir(tmp_path, [{"path": "no.such.key", "min": 1}])
        report = check_artifact(path, baselines_dir=bdir)
        assert any("absent from artifact" in f for f in report.failures)

    def test_exists_check_passes_on_present_path(self, tmp_path):
        path = _write(tmp_path, "a.json", _log_overhead_payload())
        bdir = self._baseline_dir(
            tmp_path, [{"path": "provenance.mode", "exists": True}]
        )
        report = check_artifact(path, baselines_dir=bdir)
        assert report.ok, report.failures

    def test_exists_check_fails_on_absent_path(self, tmp_path):
        path = _write(tmp_path, "a.json", _log_overhead_payload())
        bdir = self._baseline_dir(
            tmp_path, [{"path": "provenance.backend", "exists": True}]
        )
        report = check_artifact(path, baselines_dir=bdir)
        assert any("expected path to be present" in f for f in report.failures)

    def test_exists_false_rejects_present_path(self, tmp_path):
        path = _write(tmp_path, "a.json", _log_overhead_payload())
        bdir = self._baseline_dir(tmp_path, [{"path": "overhead", "exists": False}])
        report = check_artifact(path, baselines_dir=bdir)
        assert any("expected path to be absent" in f for f in report.failures)

    def test_exists_accepts_null_values(self, tmp_path):
        # "exists" is a presence check, not a truthiness check: a field
        # legitimately published as null (a loadtest artifact's speedup)
        # must satisfy it
        payload = _log_overhead_payload()
        payload["overhead"] = None
        path = _write(tmp_path, "a.json", payload)
        bdir = self._baseline_dir(tmp_path, [{"path": "overhead", "exists": True}])
        report = check_artifact(path, baselines_dir=bdir)
        assert report.ok, report.failures

    def test_checked_in_baselines_cover_known_experiments(self):
        """The repo's own baselines must parse and target known
        experiments with well-formed checks."""
        names = {p.stem for p in _BASELINES.glob("*.json")}
        assert names == set(REQUIRED_KEYS)
        for path in _BASELINES.glob("*.json"):
            baseline = json.loads(path.read_text())
            assert baseline["experiment"] in REQUIRED_KEYS
            for check in baseline["checks"]:
                assert "path" in check
                assert {"equals", "min", "max", "exists"} & set(check)


class TestRunBenchCheck:
    def test_empty_artifact_set_is_a_failure(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        result = run_bench_check()
        assert not result.ok
        assert "no BENCH_*.json" in result.format_report()

    def test_missing_baselines_dir_degrades_to_schema_only(self, tmp_path):
        path = _write(tmp_path, "BENCH_log_overhead.json", _log_overhead_payload())
        result = run_bench_check([path], baselines_dir=tmp_path / "nope")
        assert result.ok
        assert result.baselines_dir is None

    def test_aggregates_multiple_files(self, tmp_path):
        good = _write(tmp_path, "BENCH_a.json", _log_overhead_payload())
        bad_payload = _log_overhead_payload()
        bad_payload["experiment"] = 7
        bad = _write(tmp_path, "BENCH_b.json", bad_payload)
        result = run_bench_check([good, bad], baselines_dir=None)
        assert not result.ok
        assert [r.ok for r in result.reports] == [True, False]
        assert "FAIL" in result.format_report()

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ConfigurationError):
            run_bench_check([], tolerance=-0.1)

    def test_provenance_constant_matches_provenance_helper(self):
        assert REQUIRED_PROVENANCE <= set(provenance())
