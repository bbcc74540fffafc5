"""Smoke test of the benchmark harness (not part of tier-1).

    PYTHONPATH=src python -m pytest bench/tests -q

Runs all four workloads under ``--smoke`` (every phase about 20x
shorter), untraced and traced, and checks that each prints every metric
``BENCHMARK.json`` lists and every windowed timing, with its unit.
Then checks that a corrupted input digest fails a multi-workload run,
in its last-line JSON as well as its exit status, and that
``compare.py`` flags an injected 20% regression.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
sys.path.insert(0, str(BENCH))
from common import WINDOWED  # noqa: E402

#: every end-to-end metric a run prints: those BENCHMARK.json gates on,
#: and the windowed timings it does not list
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
END_TO_END.update({name: unit for name, (unit, _) in WINDOWED.items()})


def _bench(script: str, *args: str, root: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / "bench" / script), *args],
        cwd=root,
        capture_output=True,
        text=True,
        timeout=900,
    )


@pytest.fixture(scope="module", params=[0, 1], ids=["end_to_end", "per_layer"])
def smoke(request, tmp_path_factory):
    out = tmp_path_factory.mktemp("smoke") / "run.json"
    proc = _bench("run.py", "--smoke", "--trace", str(request.param), "--out", str(out))
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    return request.param, proc.stdout.splitlines(), json.loads(out.read_text())


def test_all_workloads_run_and_pass_the_oracle(smoke):
    _, lines, doc = smoke
    assert sorted(doc["workloads"]) == sorted(WORKLOADS)
    for record in doc["workloads"].values():
        assert record["attempted"] >= 1
        assert record["checks"] >= 1
        assert record["failed"] == 0
    summary = json.loads(lines[-1])
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert summary["correct"] is True


def test_every_metric_is_printed_with_its_unit(smoke):
    trace, lines, _ = smoke
    rows = {tuple(line.split()[:2]): line.split() for line in lines if len(line.split()) >= 5}
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]} if trace else END_TO_END
    for workload in WORKLOADS:
        for name, unit in units.items():
            row = rows.get((workload, name))
            assert row is not None, f"{workload} did not print {name}"
            float(row[2])
            assert row[3] == unit


def _checkout(tmp_path) -> Path:
    """A checkout of its own: a copy of the benchmark, the program and the cascades."""
    root = tmp_path / "checkout"
    shutil.copytree(BENCH, root / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", root)
    (root / "src").symlink_to(ROOT / "src")
    cache = ROOT / ".bench_cache"
    cache.mkdir(exist_ok=True)
    (root / ".bench_cache").symlink_to(cache)
    return root


def test_corrupted_input_digest_fails(tmp_path):
    root = _checkout(tmp_path)
    path = root / "bench" / "digests.json"
    digests = json.loads(path.read_text())
    digests["serve-small"] = "0" * 64
    path.write_text(json.dumps(digests))
    proc = _bench(
        "run.py", "--smoke", "--workload", "serve-small", "--workload", "serve-mixed", root=root
    )
    assert proc.returncode != 0
    assert "inputs changed" in proc.stderr
    summary = json.loads(proc.stdout.splitlines()[-1])
    assert summary["correct"] is False
    assert summary["failed"] >= 1
    assert "serve-mixed/setup_s" in summary["metrics"]
    assert not any(key.startswith("serve-small/") for key in summary["metrics"])


def _runs(tmp_path, side: str, regression: float) -> list[str]:
    """Three runs of every end-to-end metric, each made worse by ``regression``."""
    better = {m["name"]: m["better"] for m in SPEC["end_to_end"]}
    better.update({name: direction for name, (_, direction) in WINDOWED.items()})
    paths = []
    for i, jitter in enumerate((1.0, 1.01, 0.99)):
        metrics = {}
        for name, unit in END_TO_END.items():
            worse = 1 - regression if better[name] == "higher" else 1 + regression
            metrics[name] = {"value": 100.0 * jitter * worse, "unit": unit, "n": 1}
        path = tmp_path / f"{side}{i}.json"
        path.write_text(json.dumps({"workloads": {"serve-small": {"metrics": metrics}}}))
        paths.append(str(path))
    return paths


def test_compare_flags_an_injected_regression(tmp_path):
    base = _runs(tmp_path, "a", 0.0)
    same = _bench("compare.py", *base, "--", *_runs(tmp_path, "b", 0.0))
    assert same.returncode == 0, same.stdout
    assert "worse" not in same.stdout.replace("worse pairs", "")

    slower = _bench("compare.py", *base, "--", *_runs(tmp_path, "c", 0.2))
    assert slower.returncode == 1
    verdicts = {line.split()[1]: line.split()[-1] for line in slower.stdout.splitlines()[1:-1]}
    assert verdicts.keys() == END_TO_END.keys()
    for name in WINDOWED:
        assert verdicts[name] == "worse", name
    for m in SPEC["end_to_end"]:
        assert verdicts[m["name"]] == ("worse" if m["bound"] < 0.2 else "same"), m["name"]
