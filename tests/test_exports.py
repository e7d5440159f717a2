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


def test_the_package_root_holds_only_its_docstring():
    """Public names are imported from their modules: a re-export list in
    ``__init__`` would be a second list of them, which drifts."""
    with open(os.path.join(cgdp.__path__[0], "__init__.py"),
              encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    assert ast.get_docstring(tree)
    assert [type(node).__name__ for node in tree.body] == ["Expr"]


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


def _file_writers(tree):
    """The names of the functions of ``tree`` that call ``open`` with a
    mode that writes, or with a mode that is not a constant."""
    writers = set()

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call) and \
                    isinstance(child.func, ast.Name) and \
                    child.func.id == "open":
                modes = child.args[1:2] + [k.value for k in child.keywords
                                           if k.arg == "mode"]
                if any(not isinstance(m, ast.Constant)
                       or set(str(m.value)) & set("wax+") for m in modes):
                    writers.add(func)
            visit(child, func)

    visit(tree, None)
    return writers


def test_every_file_is_written_by_one_of_three_writers():
    """Checkpoints, the dataset and the tables each have one writer, so
    that a file format lives in one place."""
    writers = {f"{name}.{func}" for name, tree in _module_trees()
               for func in _file_writers(tree)}
    assert writers == {"checkpoint.save_arrays", "scm.save_dataset",
                       "cli._write_rows"}
