import ast
import importlib
import os
import pkgutil

import pytest

import cgdp


@pytest.mark.parametrize(
    "name", sorted(info.name for info in pkgutil.iter_modules(cgdp.__path__)))
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"cgdp.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_every_exported_name_is_used_in_the_package():
    """A public name that no module outside ``__init__`` reads is code no
    command reaches: delete it, wire it in or move it under ``tests``."""
    loaded = set()
    exported = {}
    for info in pkgutil.iter_modules(cgdp.__path__):
        path = os.path.join(cgdp.__path__[0], f"{info.name}.py")
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute) and \
                    isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
        exported[info.name] = importlib.import_module(
            f"cgdp.{info.name}").__all__
    unused = [f"{module}.{name}" for module, names in exported.items()
              for name in names if name not in loaded]
    assert unused == []
