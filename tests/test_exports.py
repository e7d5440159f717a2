import importlib
import pkgutil

import pytest

import cgdp


@pytest.mark.parametrize(
    "name", sorted(info.name for info in pkgutil.iter_modules(cgdp.__path__)))
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"cgdp.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
