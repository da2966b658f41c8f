"""Export consistency: each module's `__all__` names only what exists, and the
package namespace re-exports only names its source modules export."""

import ast
import importlib
from pathlib import Path

import pytest

import circjacobi

MODULES = sorted(p.stem for p in Path(circjacobi.__file__).parent.glob("*.py")
                 if not p.stem.startswith("_"))


def exported(module) -> list[str]:
    """What `from module import *` binds: `__all__`, else the public names."""
    return getattr(module, "__all__", [n for n in vars(module) if not n.startswith("_")])


@pytest.mark.parametrize("name", MODULES)
def test_every_listed_name_exists(name):
    module = importlib.import_module(f"circjacobi.{name}")
    missing = [n for n in getattr(module, "__all__", []) if not hasattr(module, n)]
    assert not missing, f"circjacobi.{name}.__all__ lists undefined names {missing}"


def test_package_imports_only_exported_names():
    tree = ast.parse(Path(circjacobi.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1]
    assert imports
    for node in imports:
        module = importlib.import_module(f"circjacobi.{node.module}")
        unlisted = [a.name for a in node.names if a.name not in exported(module)]
        assert not unlisted, f"circjacobi imports {unlisted} not exported by {node.module}"
