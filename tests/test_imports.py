"""The runtime of the package is stdlib-only."""

import ast
import sys
import warnings
from pathlib import Path

import raaggrowth

SOURCES = sorted(Path(raaggrowth.__file__).parent.glob("*.py"))


def test_sources_found():
    assert SOURCES


def test_runtime_imports_only_the_standard_library():
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                modules = [node.module]
            else:
                continue  # relative imports stay inside the package
            for module in modules:
                top = module.split(".")[0]
                assert top in sys.stdlib_module_names, f"{path.name}: {ast.unparse(node)}"


def test_sources_compile_without_warnings():
    # an invalid escape such as "\ " in a docstring warns at compile time
    # (DeprecationWarning, SyntaxWarning from Python 3.12)
    for path in SOURCES:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            compile(path.read_text(encoding="utf-8"), str(path), "exec")
