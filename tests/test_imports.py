"""The runtime of the package is stdlib-only, compiles cleanly and imports without a closure."""

import ast
import os
import subprocess
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


def test_sources_have_no_assert():
    # invariants raise typed errors; python -O strips an assert
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert not lines, f"{path.name}: assert on lines {lines}"


# Counts the calls into raaggrowth/automata.py by function name while the
# package is imported; run in a fresh interpreter, where nothing is cached.
IMPORT_CALLS = """
import collections, os, sys
calls = collections.Counter()
def profile(frame, event, arg):
    if event == "call" and frame.f_code.co_filename.endswith(os.path.join("raaggrowth", "automata.py")):
        calls[frame.f_code.co_name] += 1
sys.setprofile(profile)
import raaggrowth
sys.setprofile(None)
print(calls["cyc_perm"], calls["minimize"])
"""


def test_import_builds_no_model_by_a_closure():
    # every letter-class model is a table, a pullback of one or a product:
    # importing the package takes no cyclic closure (minimize shows the hook sees the calls)
    root = str(Path(raaggrowth.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": root}
    done = subprocess.run([sys.executable, "-c", IMPORT_CALLS], env=env, capture_output=True, text=True,
                          check=True, timeout=60)
    closures, minimizations = map(int, done.stdout.split())
    assert closures == 0
    assert minimizations >= 1
