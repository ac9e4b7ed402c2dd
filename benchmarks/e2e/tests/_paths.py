"""Puts the benchmark's modules (and ``src``) on the import path.

pytest adds this directory to ``sys.path`` when it collects the tests, so
``import _paths`` works; a ``conftest.py`` here would shadow the one the
legacy suites in ``benchmarks/`` import by name.
"""

import os
import sys

E2E = os.path.normpath(os.path.join(os.path.dirname(__file__), ".."))
ROOT = os.path.normpath(os.path.join(E2E, "..", ".."))

for path in (os.path.join(ROOT, "src"), E2E):
    if path not in sys.path:
        sys.path.insert(0, path)
