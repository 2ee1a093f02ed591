import ast
import dataclasses
import importlib
import pkgutil
from pathlib import Path

import dospsim


def test_every_exported_name_exists():
    for info in pkgutil.iter_modules(dospsim.__path__):
        module = importlib.import_module(f"dospsim.{info.name}")
        missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
        assert not missing, f"dospsim.{info.name}.__all__ names {missing}"


def test_only_the_five_config_types_are_dataclasses():
    # stacks, _series_key and _run_all hash and compare these five; a record
    # or model type would pay for generated methods at import and use none
    found = set()
    for info in pkgutil.iter_modules(dospsim.__path__):
        module = importlib.import_module(f"dospsim.{info.name}")
        found |= {f"{info.name}.{name}" for name, obj in vars(module).items()
                  if isinstance(obj, type) and dataclasses.is_dataclass(obj)
                  and obj.__module__ == module.__name__}
    assert found == {"dosp.SineParams", "dosp.AlgoConfig", "exchange.ExchangeModel",
                     "perturbation.PerturbationModel", "schedules.PowerLawSchedule"}


def _unused_imports(path):
    """The names ``path`` imports and never uses (nor lists in ``__all__``);
    ``from __future__`` and statements marked ``# noqa: F401`` are exempt."""
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line
               for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= set(getattr(importlib.import_module(
        f"dospsim.{path.stem}"), "__all__", ()))
    return sorted(f"{path.name}:{line}: {name}"
                  for name, line in imported.items() if name not in used)


def test_no_module_imports_a_name_it_never_uses():
    # no linter runs here; __init__.py imports only to re-export
    package = Path(dospsim.__file__).parent
    unused = [found for path in sorted(package.glob("*.py"))
              if path.name != "__init__.py" for found in _unused_imports(path)]
    assert not unused, unused
