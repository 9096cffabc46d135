"""Every name a slpn module lists in ``__all__`` resolves on that module."""
import importlib
import pkgutil

import slpn


def test_every_exported_name_resolves():
    modules = [
        importlib.import_module(f"slpn.{info.name}") for info in pkgutil.iter_modules(slpn.__path__)
    ]
    exported = [(mod, name) for mod in modules for name in getattr(mod, "__all__", ())]
    assert {"gf2", "sampling", "pke", "owf"} <= {mod.__name__[len("slpn.") :] for mod in modules}
    assert exported
    missing = [f"{mod.__name__}.{name}" for mod, name in exported if not hasattr(mod, name)]
    assert missing == []
