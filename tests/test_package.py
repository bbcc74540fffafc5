"""Package-level tests: public API surface and metadata."""

import importlib
import pkgutil
import re
from pathlib import Path

import repro


class TestPackageSurface:
    def test_version(self):
        """``__version__`` surfaces the pyproject.toml version.

        Installed trees read distribution metadata; PYTHONPATH=src runs
        use the hard-coded fallback — either way the value must match
        the pyproject the tree was built from, so the fallback cannot
        silently drift.
        """
        pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
        match = re.search(
            r'^version\s*=\s*"([^"]+)"', pyproject.read_text(), re.MULTILINE
        )
        assert match, "pyproject.toml has no version field"
        assert repro.__version__ == match.group(1)

    def test_top_level_api(self):
        assert hasattr(repro, "FaceDetector")
        assert hasattr(repro, "Detection")
        assert hasattr(repro, "DetectionResult")

    def test_subpackages_importable(self):
        import repro.boosting
        import repro.data
        import repro.detect
        import repro.evaluation
        import repro.experiments
        import repro.gpusim
        import repro.haar
        import repro.image
        import repro.video  # noqa: F401

    def test_all_exports_resolve(self):
        """Every name in every ``repro.*`` module's ``__all__`` resolves."""
        names = {"repro"} | {
            info.name for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")
        }
        assert {"repro.backend", "repro.obs", "repro.serve", "repro.utils", "repro.zoo"} <= names
        for name in sorted(names):
            module = importlib.import_module(name)
            for export in getattr(module, "__all__", ()):
                assert hasattr(module, export), f"{name}.{export} missing"

    def test_errors_hierarchy(self):
        from repro import errors

        for name in errors.__all__:
            exc = getattr(errors, name)
            assert issubclass(exc, Exception)
            if name != "ReproError":
                assert issubclass(exc, errors.ReproError)
