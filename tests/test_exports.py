"""Module structure: every name a slpn module lists in ``__all__`` resolves on
that module, and the modules import one another once, at the top, along an
acyclic graph, and only by public names."""
import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import slpn

PACKAGE = Path(slpn.__file__).parent
MODULES = [info.name for info in pkgutil.iter_modules(slpn.__path__)]


def test_every_exported_name_resolves():
    modules = [importlib.import_module(f"slpn.{name}") for name in MODULES]
    exported = [(mod, name) for mod in modules for name in getattr(mod, "__all__", ())]
    assert {"gf2", "sampling", "pke", "owf"} <= {mod.__name__[len("slpn.") :] for mod in modules}
    assert exported
    missing = [f"{mod.__name__}.{name}" for mod, name in exported if not hasattr(mod, name)]
    assert missing == []


def test_no_import_inside_a_function_or_class():
    nested = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for scope in ast.walk(ast.parse(path.read_text())):
            if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                nested.update(
                    f"{path.name}:{node.lineno}"
                    for node in ast.walk(scope)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                )
    assert sorted(nested) == []


def test_each_module_imports_first_in_a_fresh_interpreter():
    # an import cycle fails only when one of its modules is imported first
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    failed = [
        name
        for name in MODULES
        if subprocess.run(
            [sys.executable, "-c", f"import slpn.{name}"], env=env, capture_output=True
        ).returncode
    ]
    assert failed == []


def test_no_module_imports_a_private_name_of_another():
    # the imported name counts, not its alias: `from .pke import dec as _dec`
    # imports a public name
    private = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (
                node.level or node.module.split(".")[0] == "slpn"
            ):
                private.extend(
                    f"{path.name}: {node.module}.{alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_")
                )
    assert private == []
