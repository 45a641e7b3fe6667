"""Command line interface.

Subcommands:

* ``estimate`` -- estimate the constrained norm of one group-ring element;
* ``curve`` -- estimate a norm curve over a constraint grid, with optional
  CSV and SVG export;
* ``verify`` -- run the built-in verification suites;
* ``kesten`` -- norms of Cayley-tree balls against the 2*sqrt(3) reference;
* ``rep-gen`` -- draw a random constrained pair and write it as JSON.

Exit codes: 0 on success, 1 on verification failure or runtime/IO errors,
2 on usage errors (malformed flags, elements, or grids).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

import numpy as np

from . import __version__, bundle, optimize, representation, verify
from .freegroup import ParseError, format_element, parse_element

MAX_GRID_POINTS = 10001
# kesten rows print 2 * 3**R - 1; Python prints no int of over 4300 digits.
MAX_KESTEN_DEPTH = 1000

_CONFIG_KEYS = tuple(
    field.name for field in dataclasses.fields(optimize.OptimizerConfig)
)


def _element_arg(text):
    try:
        element = parse_element(text)
    except ParseError as exc:
        raise argparse.ArgumentTypeError(f"bad element: {exc}") from exc
    if not element.terms:
        raise argparse.ArgumentTypeError("element must be nonzero")
    return element


def _mu_arg(text):
    try:
        value = float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad constraint level: {text!r}") from exc
    if not 0.0 <= value <= 4.0:
        raise argparse.ArgumentTypeError(
            f"constraint level must lie in [0, 4], got {value}"
        )
    return value


def _dims_arg(text):
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad dimension list: {text!r}") from exc


def _grid_arg(text):
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(
            f"grid must look like start:stop:step, got {text!r}"
        )
    try:
        start, stop, step = (float(part) for part in parts)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad grid {text!r}") from exc
    if not all(math.isfinite(x) for x in (start, stop, step)):
        raise argparse.ArgumentTypeError(f"grid values must be finite, got {text!r}")
    if step <= 0 or stop < start:
        raise argparse.ArgumentTypeError("grid needs stop >= start and step > 0")
    # Each point is a full estimate; checked before anything is allocated,
    # and before an overflowing quotient reaches round().
    span = (stop - start) / step
    if not span < MAX_GRID_POINTS - 0.5:
        raise argparse.ArgumentTypeError(
            f"grid has more than {MAX_GRID_POINTS} points"
        )
    count = int(round(span))
    if abs(start + count * step - stop) > 1e-9:
        raise argparse.ArgumentTypeError("grid step must divide the range evenly")
    values = start + step * np.arange(count + 1)
    if values[0] < -1e-12 or values[-1] > 4.0 + 1e-12:
        raise argparse.ArgumentTypeError("grid must stay inside [0, 4]")
    return np.clip(values, 0.0, 4.0)


def _add_optimizer_flags(parser):
    parser.add_argument(
        "--dims",
        type=_dims_arg,
        default=None,
        help="comma separated matrix sizes to search (default 1,2,4,8)",
    )
    parser.add_argument(
        "--restarts", type=int, default=None, help="fresh starts per size"
    )
    parser.add_argument(
        "--max-steps", type=int, default=None, help="ascent step cap per start"
    )
    parser.add_argument(
        "--initial-step", type=float, default=None, help="first ascent step size"
    )
    parser.add_argument(
        "--step-decay",
        type=float,
        default=None,
        help="per-step geometric decay of starts of dimension >= 2",
    )
    parser.add_argument(
        "--stall-tolerance",
        type=float,
        default=None,
        help="window improvement below which a start stops",
    )
    parser.add_argument("--seed", type=int, default=None, help="master seed")
    parser.add_argument(
        "--config",
        default=None,
        help="JSON file with optimizer settings; flags override it",
    )


def _optimizer_config(args):
    from_file = {}
    if getattr(args, "config", None) is not None:
        with open(args.config, "r", encoding="utf-8") as handle:
            data = json.load(handle)
        if not isinstance(data, dict):
            raise ValueError("config file must hold a JSON object")
        unknown = sorted(set(data) - set(_CONFIG_KEYS))
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(unknown)}")
        from_file = data

    defaults = optimize.OptimizerConfig()

    def pick(name):
        flag = getattr(args, name, None)
        if flag is not None:
            return flag
        if name in from_file:
            return from_file[name]
        return getattr(defaults, name)

    # The constructor validates file values and flags alike.
    return optimize.OptimizerConfig(**{name: pick(name) for name in _CONFIG_KEYS})


def build_parser():
    parser = argparse.ArgumentParser(
        prog="constrep",
        description="Constrained unitary pairs and group-ring norm estimates.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    commands = parser.add_subparsers(dest="command", required=True)

    est = commands.add_parser(
        "estimate", help="estimate the constrained norm of an element"
    )
    est.add_argument(
        "-e", "--element", type=_element_arg, required=True,
        help="group-ring element, e.g. 'u + u^-1 + v + v^-1'",
    )
    est.add_argument(
        "-m", "--mu", type=_mu_arg, required=True, help="constraint level in [0, 4]"
    )
    _add_optimizer_flags(est)

    crv = commands.add_parser(
        "curve", help="estimate a norm curve over a constraint grid"
    )
    crv.add_argument("-e", "--element", type=_element_arg, required=True)
    crv.add_argument(
        "--grid",
        type=_grid_arg,
        default=None,
        help="constraint grid start:stop:step (default 0:4:0.25)",
    )
    crv.add_argument("--csv", default=None, help="also write the curve as CSV")
    crv.add_argument("--svg", default=None, help="also render the curve as SVG")
    _add_optimizer_flags(crv)

    ver = commands.add_parser("verify", help="run the built-in check suites")
    ver.add_argument(
        "--suite",
        choices=verify.SUITE_NAMES,
        default="all",
        help="which suite to run (default all)",
    )
    ver.add_argument("--seed", type=int, default=0)

    kes = commands.add_parser(
        "kesten", help="norms of Cayley-tree balls vs the tree norm"
    )
    kes.add_argument(
        "--depth",
        type=int,
        default=10,
        help=f"largest ball radius, 1..{MAX_KESTEN_DEPTH} (default 10)",
    )

    gen = commands.add_parser(
        "rep-gen", help="draw a random constrained pair and save it as JSON"
    )
    gen.add_argument("-d", "--dim", type=int, required=True, help="matrix size")
    gen.add_argument("-m", "--mu", type=_mu_arg, required=True)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("-o", "--output", required=True, help="output JSON path")

    return parser


def _run_estimate(args):
    config = _optimizer_config(args)
    estimate = optimize.estimate_norm(args.element, args.mu, config)
    print("element: %s" % format_element(args.element))
    print("mu: %.9g" % args.mu)
    print("norm_estimate: %.9g" % estimate.value)
    print("upper: %.9g" % estimate.upper)
    print("gap: %.9g" % estimate.gap)
    print("dim: %d" % estimate.dim_used)
    print("restart_index: %d" % estimate.restart_index)
    print("steps: %d" % estimate.steps)
    print("converged: %s" % ("true" if estimate.converged else "false"))
    return 0


def _run_curve(args):
    config = _optimizer_config(args)
    grid = args.grid
    if grid is None:
        grid = _grid_arg("0:4:0.25")
    curve = optimize.norm_curve(args.element, grid, config)
    sys.stdout.write(bundle.export_csv(curve, args.csv or None))
    if args.svg:
        bundle.render_svg(curve, args.svg)
    return 0


def _run_verify(args):
    results = verify.run_suite(args.suite, seed=args.seed)
    sys.stdout.write(verify.format_report(args.suite, results))
    return 0 if all(result.passed for result in results) else 1


def _run_kesten(args):
    if not 1 <= args.depth <= MAX_KESTEN_DEPTH:
        raise ValueError(f"depth must lie in [1, {MAX_KESTEN_DEPTH}], got {args.depth}")
    norms = bundle.ball_norm_table(args.depth)
    print("depth vertices norm")
    for radius, norm in enumerate(norms, start=1):
        print("%d %d %.9g" % (radius, bundle.ball_vertex_count(radius), norm))
    print("reference %.9g" % bundle.KESTEN_NORM)
    return 0


def _run_rep_gen(args):
    rep = representation.random_constrained(args.dim, args.mu, seed=args.seed)
    representation.save_representation(rep, args.output)
    print(
        "wrote %s dim=%d constraint=%.9g"
        % (args.output, rep.dim, representation.constraint_value(rep))
    )
    return 0


_RUNNERS = {
    "estimate": _run_estimate,
    "curve": _run_curve,
    "verify": _run_verify,
    "kesten": _run_kesten,
    "rep-gen": _run_rep_gen,
}


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _RUNNERS[args.command](args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
