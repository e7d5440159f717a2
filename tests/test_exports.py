import ast
import importlib
import os
import pkgutil

import pytest

import cgdp
from cgdp import config


def _module_trees():
    """(module name, parsed source) of every module of the package."""
    for info in pkgutil.iter_modules(cgdp.__path__):
        path = os.path.join(cgdp.__path__[0], f"{info.name}.py")
        with open(path, encoding="utf-8") as fh:
            yield info.name, ast.parse(fh.read())


def _loaded_names(tree):
    """The names and attribute names ``tree`` reads."""
    loaded = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            loaded.add(node.id)
        elif isinstance(node, ast.Attribute) and \
                isinstance(node.ctx, ast.Load):
            loaded.add(node.attr)
    return loaded


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
    for name, tree in _module_trees():
        loaded |= _loaded_names(tree)
        exported[name] = importlib.import_module(f"cgdp.{name}").__all__
    unused = [f"{module}.{name}" for module, names in exported.items()
              for name in names if name not in loaded]
    assert unused == []


def test_every_config_key_is_read_in_the_package():
    """A config key that no module but ``config`` reads sets nothing:
    delete it or wire it in.  A dataclass key is read when its field is
    read as an attribute, a plain key when its string appears."""
    loaded, strings = set(), set()
    for name, tree in _module_trees():
        if name == "config":
            continue
        loaded |= _loaded_names(tree)
        strings |= {node.value for node in ast.walk(tree)
                    if isinstance(node, ast.Constant)
                    and isinstance(node.value, str)}
    field_of = {key: field for pairs in config._FIELDS.values()
                for field, key in pairs}
    unread = [key for key in config.CONFIG_SCHEMA
              if (field_of[key] not in loaded if key in field_of
                  else key not in strings)]
    assert unread == []
