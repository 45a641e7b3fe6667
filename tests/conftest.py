"""Helpers shared by the test modules."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_python(*args, cwd=None):
    """Run ``python *args`` in a child process that imports constrep from src."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=dict(os.environ, PYTHONPATH=path),
    )


def run_cli(*args):
    """Run ``python -m constrep *args`` through :func:`run_python`."""
    return run_python("-m", "constrep", *args)
