import importlib
import pkgutil

import dospsim


def test_every_exported_name_exists():
    for info in pkgutil.iter_modules(dospsim.__path__):
        module = importlib.import_module(f"dospsim.{info.name}")
        missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
        assert not missing, f"dospsim.{info.name}.__all__ names {missing}"
