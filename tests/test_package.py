"""Package-level properties: the import has no third-party dependencies."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import dagplan

PROBE = """
import json, sys
before = set(sys.modules)
import dagplan
print(json.dumps(sorted(set(sys.modules) - before)))
"""


def test_import_loads_only_the_standard_library():
    src = str(Path(dagplan.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", PROBE], env=env, capture_output=True,
                         text=True, check=True, timeout=60).stdout
    loaded = {name.partition(".")[0] for name in json.loads(out)}
    foreign = sorted(loaded - set(sys.stdlib_module_names) - {"dagplan"})
    assert foreign == [], f"import dagplan loaded non-stdlib modules: {foreign}"
