import ast
import importlib
import pkgutil
from pathlib import Path

import musielak


def _exported(module):
    """The names ``from module import *`` takes: ``__all__``, else the public ones."""
    return getattr(module, "__all__", [name for name in vars(module) if not name.startswith("_")])


def test_every_package_name_is_exported_by_its_module():
    tree = ast.parse(Path(musielak.__file__).read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1]
    assert imports
    missing = [f"{node.module}.{alias.name}" for node in imports
               for alias in node.names
               if alias.name not in _exported(importlib.import_module(f"musielak.{node.module}"))]
    assert missing == []


def test_every_name_in_a_modules_all_is_defined():
    # The benchmark tracer looks up each __all__ name of every module, so a
    # name left behind by a deleted function would break every traced run.
    modules = [importlib.import_module(f"musielak.{info.name}") for info in pkgutil.iter_modules(musielak.__path__)]
    assert modules
    missing = [f"{module.__name__}.{name}" for module in modules
               for name in getattr(module, "__all__", []) if not hasattr(module, name)]
    assert missing == []
