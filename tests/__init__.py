"""Tier-1 tests, and the helpers several of them share."""

import importlib.util
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def load_module(relative: str):
    """The repo's file ``relative`` (a tool, or a benchmark module read
    only), loaded by path and left out of ``sys.modules``."""
    path = REPO_ROOT / relative
    spec = importlib.util.spec_from_file_location(f"_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module      # its dataclasses look it up
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module
