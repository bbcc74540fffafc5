"""``repro.__version__``, read once from the installed distribution."""

from importlib.metadata import PackageNotFoundError, version

try:
    # the single source of truth is pyproject.toml, surfaced through the
    # installed distribution metadata ...
    __version__ = version("repro")
except PackageNotFoundError:  # pragma: no cover - source-tree runs
    # ... with a fallback for PYTHONPATH=src runs of an uninstalled tree
    # (kept in sync with pyproject.toml by tests/test_package.py)
    __version__ = "1.0.0"
