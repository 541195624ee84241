import importlib
import pkgutil

import pytest

import lenswall

# __main__ runs the CLI on import, so it is not a library module
MODULES = sorted(
    f"lenswall.{info.name}"
    for info in pkgutil.iter_modules(lenswall.__path__)
    if info.name != "__main__"
)


@pytest.mark.parametrize("name", MODULES)
def test_every_all_entry_resolves(name):
    module = importlib.import_module(name)
    missing = [entry for entry in getattr(module, "__all__", ()) if not hasattr(module, entry)]
    assert not missing, f"{name}.__all__ names what the module does not define: {missing}"

