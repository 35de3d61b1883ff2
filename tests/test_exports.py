"""The public name lists: the package star-imports each module's
`__all__`, so a name deleted from a module must leave its `__all__` too,
or importing the package fails."""

import importlib
import pkgutil

import pytest

import klbasis

MODULES = sorted(f"klbasis.{m.name}" for m in pkgutil.iter_modules(klbasis.__path__))
EXPORTED = [
    name
    for name, value in vars(klbasis).items()
    if not name.startswith("_") and getattr(value, "__module__", "").startswith("klbasis.")
]


@pytest.mark.parametrize("module", MODULES)
def test_every_name_in_all_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert missing == []
    exec(f"from {module} import *", {})


@pytest.mark.parametrize("name", EXPORTED)
def test_package_exports_are_public_in_their_module(name):
    value = getattr(klbasis, name)
    home = importlib.import_module(value.__module__)
    assert getattr(home, name) is value
    assert name in getattr(home, "__all__", [name])
