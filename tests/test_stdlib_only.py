"""The kernel needs nothing beyond the standard library.

Every ``mvtrop`` module is imported in a fresh interpreter, and the top-level
names that the import adds to ``sys.modules`` must be ``mvtrop`` itself or
standard-library modules.  Comparing before and after the import keeps out
whatever the interpreter's start-up (``site`` and its ``.pth`` files) loads.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

PROBE = """
import importlib, json, sys
before = set(sys.modules)
for name in sys.argv[1:]:
    importlib.import_module(name)
print(json.dumps(sorted({name.partition(".")[0] for name in set(sys.modules) - before})))
"""


def test_kernel_imports_only_the_standard_library():
    modules = ["mvtrop"] + sorted(f"mvtrop.{path.stem}" for path in (SRC / "mvtrop").glob("*.py")
                                  if path.stem != "__init__")
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    probe = subprocess.run([sys.executable, "-c", PROBE, *modules], capture_output=True,
                           text=True, check=True, env={**os.environ, "PYTHONPATH": path})
    added = json.loads(probe.stdout)
    assert "mvtrop" in added
    assert [name for name in added
            if name != "mvtrop" and name not in sys.stdlib_module_names] == []
