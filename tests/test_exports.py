"""Every exported name of the package and its modules resolves."""

import importlib
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import cvconf

MODULES = [
    module
    for module in (
        cvconf,
        *(
            importlib.import_module(f"cvconf.{info.name}")
            for info in pkgutil.iter_modules(cvconf.__path__)
            if info.name != "__main__"  # importing it runs the CLI
        ),
    )
    if hasattr(module, "__all__")
]


@pytest.mark.parametrize("module", MODULES, ids=lambda module: module.__name__)
def test_every_export_resolves_once(module):
    exports = list(module.__all__)
    assert sorted({name for name in exports if exports.count(name) > 1}) == []
    assert [name for name in exports if not hasattr(module, name)] == []


def test_import_leaves_scipy_out():
    # scipy is a test dependency only; the package runs on numpy alone
    src = str(Path(cvconf.__file__).parents[1])
    code = f"import sys; sys.path.insert(0, {src!r}); import cvconf; print('scipy' in sys.modules)"
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert run.stdout.strip() == "False"
