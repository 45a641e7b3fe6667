"""Helpers shared by the test modules."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
from hypothesis import settings

from constrep.linalg import unitary_eig
from constrep.representation import Representation

ROOT = Path(__file__).resolve().parent.parent

# No per-example deadline: one example may build a long word or run an ascent,
# and its time depends on the machine, not on the code under test. Loaded
# here, before the test modules build their @settings from the default.
settings.register_profile("constrep", deadline=None)
settings.load_profile("constrep")


def loop_calculus(w, fn):
    """g(W) for unitary W, calling the scalar ``fn`` once per eigenvalue."""
    eigenvalues, vectors = unitary_eig(w)
    values = np.array([complex(fn(complex(z))) for z in eigenvalues])
    return (vectors * values) @ vectors.conj().T


def character(theta, phi):
    """The 1 x 1 pair u -> e^(i theta), v -> e^(i phi)."""
    return Representation(np.array([[np.exp(1j * theta)]]), np.array([[np.exp(1j * phi)]]))


def run_python(*args, cwd=None):
    """Run ``python *args`` in a child process that imports constrep from src.

    The child turns RuntimeWarnings into errors, as pytest does in-process.
    """
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=dict(os.environ, PYTHONPATH=path),
    )


def run_cli(*args):
    """Run ``python -m constrep *args`` through :func:`run_python`."""
    return run_python("-m", "constrep", *args)
