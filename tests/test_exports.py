import ast
import importlib
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
