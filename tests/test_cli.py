"""End-to-end command line behavior through ``python -m constrep``, and
through ``cli.main`` where a test times the command."""

import dataclasses
import time
import tracemalloc

import pytest
from conftest import character, run_cli

from constrep import cli, optimize
from constrep.linalg import MAX_DIM
from constrep.optimize import NormEstimate
from constrep.representation import constraint_value, load_representation

FAST_FLAGS = ["--dims", "1,2", "--restarts", "2", "--max-steps", "60"]


def test_version_flag():
    result = run_cli("--version")
    assert result.returncode == 0
    assert "0.1.0" in result.stdout


def test_estimate_unit_generator():
    result = run_cli("estimate", "-e", "u", "-m", "2", *FAST_FLAGS)
    assert result.returncode == 0
    assert "norm_estimate: 1\n" in result.stdout
    assert result.stdout.startswith("element: u\n")
    lines = result.stdout.splitlines()
    assert lines[2] == "norm_estimate: 1"
    assert lines[3] == "upper: 1"
    assert lines[4].startswith("gap: ")
    assert float(lines[4][len("gap: "):]) <= 1e-7
    assert "converged: true" in result.stdout


def test_estimate_bracket_at_zero_is_not_inverted():
    result = run_cli("estimate", "-e", "u + u^-1 + v + v^-1", "-m", "0")
    assert result.returncode == 0
    assert "norm_estimate: 0\nupper: 0\n" in result.stdout
    # the gap is upper - value, unclamped, so an inverted bracket would show
    fields = dict(line.split(": ") for line in result.stdout.splitlines())
    assert float(fields["gap"]) == float(fields["upper"]) - float(fields["norm_estimate"])
    inverted = NormEstimate(1.0, character(0.0, 0.0), 0, 0, True, upper=0.5)
    assert inverted.gap == -0.5


def test_estimate_is_byte_deterministic():
    first = run_cli("estimate", "-e", "u + v", "-m", "1.5", *FAST_FLAGS)
    second = run_cli("estimate", "-e", "u + v", "-m", "1.5", *FAST_FLAGS)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout


@pytest.mark.parametrize(
    "args",
    [
        (),
        ("estimate",),
        ("estimate", "-e", "2u", "-m", "1"),
        ("estimate", "-e", "u", "-m", "5"),
        ("estimate", "-e", "u - u", "-m", "1"),
        ("curve", "-e", "u", "--grid", "0:4"),
        ("curve", "-e", "u", "--grid", "0:4:0.3"),
        ("curve", "-e", "u", "--grid", "0:4:1e-9"),
        ("curve", "-e", "u", "--grid", "0:4:5e-324"),
        ("curve", "-e", "u", "--grid", "0:nan:1"),
        ("nonsense",),
        ("estimate", "-e", "u", "-m", "1", "--bogus"),
        ("estimate", "-e", "u", "-m", "1", "--oracle-grid", "720"),
        ("estimate", "-e", "u^" + "9" * 5000, "-m", "1"),
        ("estimate", "-e", "1e400*u", "-m", "1"),
        ("estimate", "-e", "1e308*u + 1e308*u", "-m", "1"),
        ("estimate", "-e", "1e308*u + 1e308*v", "-m", "1"),
        ("estimate", "-e", "(1.5e308+1.5e308i)*u", "-m", "1"),
        ("estimate", "-e", "u", "-m", "1", "--dims", "a"),
        ("estimate", "-e", "u", "-m", "1", "--initial-step", "0.2"),
        ("estimate", "-e", "u", "-m", "1", "--step-decay", "0.9"),
        ("estimate", "-e", "u", "-m", "1", "--stall-tolerance", "1e-6"),
        ("estimate", "-e", "u", "-m", "2", "--config", "c.json"),
        ("curve", "-e", "u", "--config", "c.json"),
    ],
)
def test_usage_errors_exit_two(args):
    result = run_cli(*args)
    assert result.returncode == 2
    assert len(result.stderr) < 1000  # the input is not echoed back
    assert "Warning" not in result.stderr


@pytest.mark.parametrize("dims", ["0", "-3", "2,0"])
def test_nonpositive_dims_exit_one(dims, capsys):
    # The same rule as --dims 129 or a library caller's dims=(0,).
    assert cli.main(["estimate", "-e", "u", "-m", "1", "--dims", dims]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: dims entries must lie in [1, ")


def test_verify_winding_suite():
    result = run_cli("verify", "--suite", "winding")
    assert result.returncode == 0
    assert "SUITE winding PASS (3/3 checks passed)" in result.stdout
    assert result.stdout.count("CHECK ") == 3
    assert "FAIL" not in result.stdout


def test_curve_writes_files(tmp_path):
    csv_path = tmp_path / "out.csv"
    svg_path = tmp_path / "out.svg"
    result = run_cli(
        "curve",
        "-e",
        "u + u^-1 + v + v^-1",
        "--grid",
        "0:4:2",
        "--csv",
        str(csv_path),
        "--svg",
        str(svg_path),
        *FAST_FLAGS,
    )
    assert result.returncode == 0
    assert csv_path.read_text() == result.stdout
    assert result.stdout.startswith("mu,estimate,dim,restarts,converged\n")
    assert svg_path.read_text().startswith("<svg ")
    plain = run_cli("curve", "-e", "u + u^-1 + v + v^-1", "--grid", "0:4:2", *FAST_FLAGS)
    assert plain.returncode == 0
    assert plain.stdout == result.stdout


def test_curve_is_byte_deterministic():
    args = ("curve", "-e", "u + u^-1 + v + v^-1", "--grid", "0:4:1", *FAST_FLAGS)
    first = run_cli(*args)
    second = run_cli(*args)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout


def test_rep_gen_writes_loadable_pair(tmp_path):
    out = tmp_path / "pair.json"
    result = run_cli("rep-gen", "-d", "3", "-m", "2", "--seed", "5", "-o", str(out))
    assert result.returncode == 0
    rep = load_representation(out)
    assert rep.dim == 3
    assert constraint_value(rep) <= 2.0 + 1e-8

    again = tmp_path / "pair2.json"
    result2 = run_cli("rep-gen", "-d", "3", "-m", "2", "--seed", "5", "-o", str(again))
    assert result2.returncode == 0
    assert out.read_text() == again.read_text()


def test_rep_gen_at_level_zero_prints_positive_zero(tmp_path):
    out = tmp_path / "pair.json"
    result = run_cli("rep-gen", "-d", "3", "-m", "0", "--seed", "2", "-o", str(out))
    assert result.returncode == 0
    assert result.stdout == "wrote %s dim=3 constraint=0\n" % out


def test_kesten_table():
    result = run_cli("kesten", "--depth", "3")
    assert result.returncode == 0
    lines = result.stdout.strip().splitlines()
    assert lines[0] == "depth vertices norm"
    assert lines[1] == "1 5 2"
    assert lines[-1].startswith("reference 3.4641016")
    assert len(lines) == 5


def test_kesten_rejects_bad_depth():
    for depth in (0, cli.MAX_KESTEN_DEPTH + 1):
        result = run_cli("kesten", "--depth", str(depth))
        assert result.returncode == 1
        assert "error:" in result.stderr
        assert result.stdout == ""


def test_kesten_prints_every_row_up_to_its_cap(capsys):
    depth = cli.MAX_KESTEN_DEPTH
    start = time.perf_counter()
    assert cli.main(["kesten", "--depth", str(depth)]) == 0
    assert time.perf_counter() - start < 1.0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == depth + 2
    assert lines[-2].split()[:2] == [str(depth), str(2 * 3**depth - 1)]


@pytest.mark.parametrize(
    "args, own",
    [
        (["estimate", "-e", "u", "-m", "1"], {"command", "element", "mu"}),
        (["curve", "-e", "u"], {"command", "element", "grid", "csv", "svg"}),
    ],
    ids=["estimate", "curve"],
)
def test_optimizer_flags_are_the_config_fields(args, own):
    # One flag per OptimizerConfig field; nothing else.
    flags = set(vars(cli.build_parser().parse_args(args))) - own
    fields = {field.name for field in dataclasses.fields(optimize.OptimizerConfig)}
    assert flags == fields


@pytest.mark.parametrize(
    "args",
    [
        ["verify", "--suite", "winding"],
        ["verify", "--suite", "deformation"],
        ["verify", "--suite", "all"],
        ["rep-gen", "-d", "2", "-m", "1", "-o", "pair.json"],
        ["estimate", "-e", "u", "-m", "1"],
    ],
    ids=["verify_winding", "verify_deformation", "verify_all", "rep_gen", "estimate"],
)
def test_negative_seed_exits_one_before_running(args, capsys, tmp_path, monkeypatch):
    # The same rule and message for every command, whether or not the
    # command's work reads the seed.
    monkeypatch.chdir(tmp_path)
    assert cli.main([*args, "--seed", "-1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: seed must be non-negative\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "args",
    [
        ["--dims", str(MAX_DIM + 1)],
        ["--dims", ",".join(["1"] * (optimize.MAX_DIMS + 1))],
        ["--restarts", str(optimize.MAX_RESTARTS + 1)],
        ["--max-steps", str(optimize.MAX_STEPS + 1)],
        ["rep-gen", "-d", str(MAX_DIM + 1), "-m", "2", "-o", "pair.json"],
    ],
    ids=["dims_entry", "dims_length", "restarts", "max_steps", "rep_gen_dim"],
)
def test_size_over_its_cap_exits_one_before_allocating(args, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    if args[0] != "rep-gen":
        # An element no other test scans, so its oracle grid is not cached.
        args = ["estimate", "-e", "u + 2*v^3", "-m", "2", *args]
    # Load what both commands import lazily, through calls rejected below any cap.
    assert cli.main(["estimate", "-e", "u", "-m", "2", "--restarts", "0"]) == 1
    assert cli.main(["rep-gen", "-d", "0", "-m", "2", "-o", "pair.json"]) == 1
    capsys.readouterr()
    tracemalloc.start()
    try:
        code = cli.main(args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    # Running on would allocate more: the oracle grid is 4 MB, and a Haar draw
    # at d = 128 peaks at 1.2 MB.
    assert peak < 2**20
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert list(tmp_path.iterdir()) == []
