"""The package namespace re-exports its submodules' public names."""

import importlib
import pkgutil
import types

import laxrom


def test_package_exports_exactly_the_submodule_all_lists():
    listed = set()
    for info in pkgutil.iter_modules(laxrom.__path__):
        module = importlib.import_module(f"laxrom.{info.name}")
        for name in getattr(module, "__all__", ()):
            getattr(module, name)  # a stale __all__ entry raises here
            listed.add(name)
    exported = {
        name for name, value in vars(laxrom).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert exported == listed
