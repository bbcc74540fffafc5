"""Package namespaces resolve on first use, in a fresh interpreter.

Every ``repro`` package imports its exports on first access
(:mod:`repro._lazy`).  Inside one test process the packages are warm,
so an import cycle that bites only when a name is the *first* thing a
process touches (a spawn worker, a CLI command) stays hidden from
``tests/test_package.py::test_all_exports_resolve``.  Each check here
runs in a fresh interpreter on this source tree, which forks once per
exported name: every name is resolved with no ``repro`` module imported
before it.  Then, with every submodule of the package imported, no
export may read as a module: importing a submodule binds it on its
package, over a same-named export.
"""

import importlib
import json
import os
import pkgutil

import pytest

import repro
from tests.test_import_cost import _fresh

PACKAGES = ["repro"] + sorted(
    info.name for info in pkgutil.walk_packages(repro.__path__, prefix="repro.") if info.ispkg
)

_PROBE = """
import importlib, json, os, pkgutil, sys, types
import numpy  # not repro: imported once here instead of once per fork

package, names = sys.argv[1], json.loads(sys.argv[2])
first_touch_failures = []
for name in names:
    pid = os.fork()
    if pid == 0:
        try:
            getattr(importlib.import_module(package), name)
        except BaseException:
            import traceback

            traceback.print_exc()
            os._exit(1)
        os._exit(0)
    if os.waitpid(pid, 0)[1]:
        first_touch_failures.append(name)
module = importlib.import_module(package)
for info in pkgutil.iter_modules(module.__path__):
    importlib.import_module(f"{package}.{info.name}")
shadowed = [n for n in names if isinstance(getattr(module, n), types.ModuleType)]
star = {}
exec(f"from {package} import *", star)
try:
    module.no_such_export
    unknown = None
except AttributeError as exc:
    unknown = str(exc)
print(json.dumps({
    "first_touch_failures": first_touch_failures,
    "shadowed_by_a_submodule": shadowed,
    "missing_from_dir": sorted(set(names) - set(dir(module))),
    "missing_from_star": sorted(set(names) - set(star)),
    "unknown": unknown,
}))
"""


def test_every_package_is_covered():
    assert {"repro.backend", "repro.detect", "repro.serve", "repro.video"} <= set(PACKAGES)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="one fork per exported name")
@pytest.mark.parametrize("package", PACKAGES)
def test_exports_resolve_first_in_a_fresh_interpreter(package):
    names = list(importlib.import_module(package).__all__)
    assert names and len(set(names)) == len(names)
    report = json.loads(_fresh(_PROBE, package, json.dumps(names)))
    assert report["first_touch_failures"] == []
    assert report["shadowed_by_a_submodule"] == []
    assert report["missing_from_dir"] == []
    assert report["missing_from_star"] == []
    assert report["unknown"] is not None and "no_such_export" in report["unknown"]


def test_lazily_registered_arrayapi_is_probed_and_resolved():
    code = (
        "import sys\n"
        "from repro.backend import get_backend, probe_all\n"
        "before = 'repro.backend.arrayapi' in sys.modules\n"
        "probed = {(p.backend, p.device) for p in probe_all().probes}\n"
        "print(before, ('arrayapi', 'cpu') in probed, get_backend('arrayapi').name)\n"
    )
    assert _fresh(code) == "False True arrayapi"
