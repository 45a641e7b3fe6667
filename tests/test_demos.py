"""Every demo script runs to the end without writing to stderr."""

import pytest
from conftest import ROOT, run_python

# Diagnostic lines a demo must print, by line prefix.
EXPECTED_LINES = {
    "norm_curves": ("monotone: True", "max increment: ", "max deviation from the line: "),
    "wedge_and_homotopies": (
        "winding of z:",
        "matrix substitution residual:",
        "plus_minus ",
        "minus_plus ",
        "fold_swap ",
    ),
}


@pytest.mark.parametrize(
    "demo", sorted((ROOT / "demos").glob("*.py")), ids=lambda path: path.stem
)
def test_demo_runs_cleanly(demo, tmp_path):
    # norm_curves.py writes its CSV and SVG into the working directory
    result = run_python(str(demo), cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    assert result.stderr == ""
    lines = result.stdout.splitlines()
    for prefix in EXPECTED_LINES.get(demo.stem, ()):
        assert any(line.startswith(prefix) for line in lines), prefix
