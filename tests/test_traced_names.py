"""Every name the benchmark tracer binds must exist in the package.

``perfbench/tracer.py`` rebinds layer functions by name and looks each one up
in its owner's ``__dict__``, so a deleted or renamed traced function breaks
every traced benchmark run.  This guard reads the tracer's tables without
installing it.
"""

import sys
from pathlib import Path

import raaggrowth  # noqa: F401  (imports every layer module the tracer names)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import tracer  # noqa: E402


def test_every_traced_name_resolves():
    missing = []
    for module, attribute, _ in tracer.TRACED + tracer.COUNTED:
        try:
            owner, name = tracer._resolve(module, attribute)
        except (KeyError, AttributeError):
            missing.append(f"{module}.{attribute}")
            continue
        if name not in owner.__dict__:
            missing.append(f"{module}.{attribute}")
    assert not missing, f"traced names missing from the package: {missing}"
