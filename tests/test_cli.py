"""Tests for the command-line interface."""

import numpy as np
import pytest

from repro.cli import main, read_pnm, write_ppm
from repro.errors import ReproError


class TestPnmIO:
    def test_ppm_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        rgb = rng.integers(0, 255, (10, 12, 3), dtype=np.uint8)
        path = tmp_path / "x.ppm"
        write_ppm(path, rgb)
        gray = read_pnm(path)
        assert gray.shape == (10, 12)
        expected = 0.299 * rgb[..., 0] + 0.587 * rgb[..., 1] + 0.114 * rgb[..., 2]
        np.testing.assert_allclose(gray, expected.astype(np.float32), atol=0.5)

    def test_pgm_read(self, tmp_path):
        path = tmp_path / "x.pgm"
        pixels = np.arange(12, dtype=np.uint8).reshape(3, 4)
        path.write_bytes(b"P5 4 3 255\n" + pixels.tobytes())
        np.testing.assert_array_equal(read_pnm(path), pixels)

    def test_pgm_with_comment(self, tmp_path):
        path = tmp_path / "c.pgm"
        path.write_bytes(b"P5\n# a comment\n2 2\n255\n" + bytes([1, 2, 3, 4]))
        np.testing.assert_array_equal(read_pnm(path), [[1, 2], [3, 4]])

    def test_rejects_ascii_pnm(self, tmp_path):
        path = tmp_path / "a.pgm"
        path.write_bytes(b"P2 2 2 255\n1 2 3 4")
        with pytest.raises(ReproError):
            read_pnm(path)


class TestCommands:
    def test_trailers(self, capsys):
        assert main(["trailers"]) == 0
        out = capsys.readouterr().out
        assert "50/50" in out
        assert "The Dictator" in out

    def test_info(self, capsys):
        import repro

        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "GTX 470" in out
        assert "profile" in out
        assert f"repro {repro.__version__}" in out

    def test_version_flag(self, capsys):
        import repro

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert capsys.readouterr().out.strip() == f"repro {repro.__version__}"

    def test_bench_table1(self, capsys):
        assert main(["bench", "table1"]) == 0
        assert "55660" in capsys.readouterr().out

    def test_bench_unknown(self, capsys):
        for experiment in ("fig99", "swap"):
            assert main(["bench", experiment]) == 2
            out = capsys.readouterr().out
            assert f"unknown experiment {experiment!r}" in out
            assert "swap" not in out.split("choose from")[1]

    def test_trace(self, capsys, tmp_path):
        import json

        trace_path = tmp_path / "trace.json"
        metrics_path = tmp_path / "metrics.json"
        assert (
            main(
                [
                    "trace",
                    "--frames", "2",
                    "--workers", "2",
                    "--width", "120",
                    "--height", "90",
                    "--output", str(trace_path),
                    "--metrics-output", str(metrics_path),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "traced 2 frames on 2 workers" in out
        assert "host stage busy time" in out
        payload = json.loads(trace_path.read_text())
        assert payload["traceEvents"]
        snapshot = json.loads(metrics_path.read_text())
        assert snapshot["counters"]["engine.frames"] == 2
        assert "stage_busy_seconds" in snapshot

    def test_detect_demo_scene(self, capsys, tmp_path):
        out_path = tmp_path / "annotated.ppm"
        code = main(
            ["detect", "--width", "192", "--height", "144", "--faces", "1",
             "--output", str(out_path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "detections" in out
        assert out_path.exists()
        assert read_pnm(out_path).shape == (144, 192)

    def test_detect_on_pgm(self, capsys, tmp_path):
        from repro.utils.rng import rng_for
        from repro.video.synthesis import render_scene

        frame, _ = render_scene(160, 120, faces=1, rng=rng_for(3, "cli"))
        path = tmp_path / "scene.pgm"
        path.write_bytes(
            "P5 160 120 255\n".encode() + frame.astype(np.uint8).tobytes()
        )
        assert main(["detect", str(path)]) == 0
        assert "simulated GPU time" in capsys.readouterr().out

    def test_train_small_cascade(self, capsys, tmp_path):
        out_path = tmp_path / "tiny.json"
        code = main(
            ["train", "--output", str(out_path), "--stages", "2,3",
             "--faces", "60", "--pool", "150", "--seed", "5"]
        )
        assert code == 0
        from repro.haar.cascade import Cascade

        cascade = Cascade.load(out_path)
        assert cascade.stage_sizes() == [2, 3]


class TestZooCommands:
    def test_zoo_list_empty_store(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert main(["zoo", "list"]) == 0
        assert "is empty" in capsys.readouterr().out

    def test_zoo_gc_empty_store(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert main(["zoo", "gc"]) == 0
        assert "nothing to collect" in capsys.readouterr().out

    def test_train_unknown_recipe_is_an_error(self, capsys):
        assert main(["train", "--recipe", "nonexistent"]) == 1
        assert "unknown recipe" in capsys.readouterr().err

    def test_zoo_show_unknown_model_is_an_error(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert main(["zoo", "show", "nonexistent"]) == 1
        assert "no published versions" in capsys.readouterr().err

    def test_zoo_list_and_show_published_model(
        self, capsys, tmp_path, monkeypatch
    ):
        import json

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        from repro.zoo import TrainingRecipe, train_model

        micro = TrainingRecipe(
            name="micro", stage_sizes=(2, 3), algorithm="gentle",
            min_hit_rate=0.99, n_faces=60, pool_size=150,
        )
        _, manifest = train_model(micro, seed=5)

        assert main(["zoo", "list"]) == 0
        out = capsys.readouterr().out
        assert "micro" in out and manifest.version in out

        assert main(["zoo", "show", "micro"]) == 0
        shown = json.loads(capsys.readouterr().out)
        assert shown["version"] == manifest.version
        assert shown["content_digest"] == manifest.content_digest


class TestDeviceFlags:
    def test_trace_device_list(self, capsys):
        assert main(["trace", "--device", "list"]) == 0
        out = capsys.readouterr().out
        assert "requested device:" in out
        assert "arrayapi:cuda skipped" in out
        assert "arrayapi:mps" in out

    def test_serve_device_list(self, capsys):
        assert main(["serve", "--device", "list"]) == 0
        assert "reference:cpu ok" in capsys.readouterr().out

    @staticmethod
    def _trace_backend(tmp_path, *flags) -> dict:
        """``repro trace`` on two small frames; the snapshot's backend block."""
        import json

        metrics_path = tmp_path / "metrics.json"
        code = main(
            ["trace", *flags, "--frames", "2", "--workers", "1",
             "--width", "120", "--height", "90",
             "--output", str(tmp_path / "trace.json"),
             "--metrics-output", str(metrics_path)]
        )
        assert code == 0
        return json.loads(metrics_path.read_text())["backend"]

    def test_trace_stamps_device_and_probe(self, capsys, tmp_path):
        backend = self._trace_backend(tmp_path, "--backend", "arrayapi", "--device", "cpu")
        assert "(arrayapi backend, threads sharding)" in capsys.readouterr().out
        assert backend["active"] == "arrayapi"
        assert backend["device"] == "cpu"
        assert backend["probe"]["path"].endswith("arrayapi:cpu ok")

    def test_gpu_flag_walks_to_cpu(self, tmp_path, monkeypatch):
        # no accelerator in CI: --gpu must fall back, recording why.
        # An env override (REPRO_BACKEND=...) legitimately short-circuits
        # the probe walk, so the scenario under test needs it cleared.
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        backend = self._trace_backend(tmp_path, "--gpu")
        assert backend["device"] == "cpu"
        assert "skipped" in backend["probe"]["path"]
