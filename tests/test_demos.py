"""Every demo script runs to the end without writing to stderr."""

import pytest
from conftest import ROOT, run_python


@pytest.mark.parametrize(
    "demo", sorted((ROOT / "demos").glob("*.py")), ids=lambda path: path.stem
)
def test_demo_runs_cleanly(demo, tmp_path):
    # norm_curves.py writes its CSV and SVG into the working directory
    result = run_python(str(demo), cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    assert result.stderr == ""
