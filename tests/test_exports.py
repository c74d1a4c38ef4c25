import importlib
import pkgutil

import defaultlab


def test_every_exported_name_resolves():
    # a name left in __all__ after its definition moved fails only at
    # `from module import *`; check every module's exports directly
    names = [m.name for m in pkgutil.iter_modules(defaultlab.__path__)]
    assert "family" in names and "tree" in names
    missing = []
    for name in names:
        mod = importlib.import_module(f"defaultlab.{name}")
        missing += [f"{name}.{attr}" for attr in getattr(mod, "__all__", ()) if not hasattr(mod, attr)]
    assert missing == []
