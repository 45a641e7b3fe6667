"""The verify suite table: every named suite passes and ``all`` chains them."""

import pytest

from constrep.verify import SUITE_NAMES, run_suite


@pytest.mark.parametrize("seed", [0, 1])
def test_named_suites_pass_and_all_chains_them(seed):
    chained = [result for name in SUITE_NAMES[:-1] for result in run_suite(name, seed)]
    assert SUITE_NAMES[-1] == "all"
    assert [result.name for result in chained if not result.passed] == []
    assert run_suite("all", seed) == chained


def test_unknown_suite_is_rejected():
    with pytest.raises(ValueError):
        run_suite("everything")
