"""The package's layout: which exact routes may import which, and the public
names the package re-exports, and no private module name left unused."""

import ast
import importlib
from pathlib import Path

import oidrd
from oidrd import solver


def _package_imports(module: str) -> set[str]:
    """The oidrd modules that oidrd.<module> imports, read from its source."""
    source = (Path(oidrd.__file__).parent / f"{module}.py").read_text()
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level:
            found |= {node.module} if node.module else {a.name for a in node.names}
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("oidrd."):
            found.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            found |= {a.name.split(".")[1] for a in node.names if a.name.startswith("oidrd.")}
    return found


def test_private_module_names_are_used_in_the_package():
    # a module-level _name that no package code loads is dead, or kept only
    # for tests, which hold their own reference copies; docstrings do not count
    defined, used = {}, {pred for _, pred in solver.INVARIANTS.values()}
    for path in Path(oidrd.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text())
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                targets = [stmt.name]
            elif isinstance(stmt, ast.Assign):
                targets = [t.id for t in stmt.targets if isinstance(t, ast.Name)]
            elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                targets = [stmt.target.id]
            else:
                continue
            defined |= {name: path.name for name in targets
                        if name.startswith("_") and not name.startswith("__")}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used |= {a.name for a in node.names}
    assert "_build_plan" in defined
    assert {name: module for name, module in defined.items() if name not in used} == {}


def test_forest_route_is_independent_of_the_engine():
    assert _package_imports("forest") == {"graphs"}
    assert "forest" not in _package_imports("solver")
    # a check that the reader finds imports at all: harness uses both routes
    assert {"forest", "solver"} <= _package_imports("harness")


def test_recognizer_is_independent_of_the_engine():
    # classify reads the family table in graphs, so the characterization
    # check stays an exact route apart from the engine it is checked against
    assert _package_imports("characterize") == {"graphs"}


def test_public_names_are_the_objects_their_modules_define():
    assert len(set(oidrd.__all__)) == len(oidrd.__all__)
    for name in oidrd.__all__:
        obj = getattr(oidrd, name)
        assert obj.__module__.startswith("oidrd.") and obj.__qualname__ == name, name
        assert getattr(importlib.import_module(obj.__module__), name) is obj, name
