"""Importing the package pulls in numpy and nothing else from outside
the standard library, so no launch of the CLI, ``repro serve`` or a pool
worker pays for a dependency it does not use."""

import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parent.parent

PROBE = """
import sys
before = set(sys.modules)
import repro, repro.cli, repro.service
loaded = {name.partition(".")[0] for name in set(sys.modules) - before}
# Dunder names (multiprocessing's __mp_main__) alias the main script.
print(" ".join(sorted(
    name for name in loaded
    if name not in sys.stdlib_module_names and not name.startswith("__")
)))
"""


def test_only_numpy_is_imported_from_outside_the_stdlib():
    path = [str(SRC), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    probe = subprocess.run(
        [sys.executable, "-c", PROBE],
        env=env, capture_output=True, text=True, check=True,
    )
    assert set(probe.stdout.split()) == {"numpy", "repro"}
