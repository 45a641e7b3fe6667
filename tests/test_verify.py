"""Residual functions read their facts, and the verify suite table chains them.

Also checks that the package's public names and the ``verify`` docstring's
map of check names stay in step with the code.
"""

import ast
import dataclasses
import re
from fnmatch import fnmatchcase
from types import SimpleNamespace

import pytest
from conftest import ROOT

import constrep
from constrep import verify
from constrep.freegroup import averaging_element
from constrep.homotopy import CHARACTER_PATHS
from constrep.optimize import NormCurve, OptimizerConfig, norm_curve, one_dim_oracle
from constrep.representation import random_constrained
from constrep.verify import (
    SUITE_NAMES,
    averaging_curve_residuals,
    character_path_residuals,
    run_suite,
)


def test_averaging_curve_residuals_and_oracle_floor():
    x = averaging_element()
    config = OptimizerConfig(dims=(1,), restarts=2, max_steps=60, seed=0)
    curve = norm_curve(x, [0.0, 0.5, 1.0, 1.5, 2.0], config)
    line, decrease, increase = averaging_curve_residuals(curve)
    assert line <= 5e-2 and decrease == 0.0 and increase <= 0.55
    for mu, value in zip(curve.grid, curve.values):
        assert value >= one_dim_oracle(x, mu) - 1e-9
    # the residuals are read from the values: a dip shows as a decrease
    values = (0.0, 0.75, 0.5)
    dipped = NormCurve(x, (0.0, 0.5, 1.0), tuple(SimpleNamespace(value=v) for v in values))
    assert averaging_curve_residuals(dipped) == (0.5, 0.25, 0.75)


def test_character_path_residuals_per_path():
    rep = random_constrained(4, 3.0, seed=57)
    paths = character_path_residuals([rep], 17)
    assert tuple(paths) == CHARACTER_PATHS
    for residuals in paths.values():
        assert max(residuals) < 1e-9
    # only the fold-swap path scales the constraint; the scalar paths read 0
    assert paths["plus_minus"][3] == paths["minus_plus"][3] == 0.0


@pytest.mark.parametrize("seed", [0, 1])
def test_named_suites_pass_and_all_chains_them(seed):
    chained = [result for name in SUITE_NAMES[:-1] for result in run_suite(name, seed)]
    assert SUITE_NAMES[-1] == "all"
    assert [result.name for result in chained if not result.passed] == []
    assert run_suite("all", seed) == chained
    # every check is named, exactly or as ``prefix_*``, in the docstring's map
    documented = re.findall(r"``(\w+\*?)``", verify.__doc__)
    assert [
        result.name
        for result in chained
        if not any(fnmatchcase(result.name, name) for name in documented)
    ] == []


def test_public_names_resolve():
    assert [name for name in constrep.__all__ if not hasattr(constrep, name)] == []


# Exported for a reader that is planned but not yet written: the pair file
# check of ROADMAP item 12.
_AWAITING_READER = {"load_representation"}


def test_public_names_have_a_reader_outside_tests():
    """Every exported name is read, as a name or an attribute, by code in the
    package outside ``__init__.py``, a demo or the benchmark harness."""
    read = set()
    for folder in ("src", "demos", "perfbench"):
        for path in (ROOT / folder).rglob("*.py"):
            if path.name == "__init__.py":
                continue
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    read.add(node.id)
                elif isinstance(node, ast.Attribute):
                    read.add(node.attr)
    assert sorted(set(constrep.__all__) - read - _AWAITING_READER) == []


def test_package_has_no_global_statement():
    """The package keeps no mutable module state: no function rebinds a
    module name. Constants it builds on first use live in ``functools``
    caches instead."""
    rebinding = []
    for path in (ROOT / "src" / "constrep").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Global):
                rebinding.append(f"{path.name}:{node.lineno} {', '.join(node.names)}")
    assert rebinding == []


def test_optimizer_config_fields_are_set_outside_tests():
    """Every ``OptimizerConfig`` field is passed by keyword in some call of
    ``OptimizerConfig`` by the verify suites, a demo or the benchmark
    harness. A field that no such caller sets is a rule, not a setting, and
    belongs in the code as a constant."""
    paths = [ROOT / "src" / "constrep" / "verify.py"]
    for folder in ("demos", "perfbench"):
        paths.extend((ROOT / folder).rglob("*.py"))
    passed = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name == "OptimizerConfig":
                passed.update(keyword.arg for keyword in node.keywords)
    fields = {field.name for field in dataclasses.fields(OptimizerConfig)}
    assert sorted(fields - passed) == []


def test_unknown_suite_is_rejected():
    with pytest.raises(ValueError):
        run_suite("everything")
