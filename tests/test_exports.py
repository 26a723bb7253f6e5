"""Every exported name of the package and its modules resolves."""

import importlib
import pkgutil

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
