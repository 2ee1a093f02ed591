import dataclasses
import importlib
import pkgutil

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
