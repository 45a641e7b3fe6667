"""Span tracing of the package from outside, by rebinding its functions.

The package imports functions with ``from .linalg import ...``, so one
function can be bound in several modules. ``Tracer.install`` wraps each
target once and rebinds every module attribute that holds the original
function; ``uninstall`` restores them. Each wrapped call records a span
(name, start, end, parent span) in flat arrays; self time is a span's
duration minus the durations of its children.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from collections import defaultdict

import constrep
from constrep import representation

# Layers whose self time is reported as a share of round wall time; the only
# traced freegroup function, parse_element, runs during set-up.
SELF_FRAC_LAYERS = ("linalg", "representation", "optimize", "bundle")

# (module, attribute, span name); every binding of the function is wrapped.
# Helpers left unwrapped (hermitian_eig, unitarity_defect, ...) count in
# their caller's self time.
TARGETS = (
    ("freegroup", "parse_element", "freegroup.parse_element"),
    ("linalg", "top_singular_triple", "linalg.top_singular_triple"),
    ("linalg", "unitary_eig", "linalg.unitary_eig"),
    ("linalg", "unitary_exponential", "linalg.unitary_exponential"),
    ("representation", "evaluate", "representation.evaluate"),
    ("representation", "constraint_value", "representation.constraint_value"),
    ("representation", "retract_to", "representation.retract_to"),
    ("representation", "deform", "representation.deform"),
    ("optimize", "_oracle_scan", "optimize.oracle"),
    ("optimize", "_subgradient", "optimize.subgradient"),
    ("optimize", "_ascend", "optimize.ascent"),
    ("optimize", "estimate_norm", "optimize.estimate_norm"),
    ("bundle", "cayley_ball", "bundle.cayley_ball"),
    ("bundle", "cayley_ball_norm", "bundle.cayley_ball_norm"),
)
VALIDATE = "representation.Representation.validate"
ROUND = "bench.round"
BEST_TIE = 1e-9


class Tracer:
    def __init__(self):
        self.names = []
        self._name_id = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._patches = []
        self.counts = defaultdict(int)
        self._starts = []  # per-start (value, steps, converged) of the open estimate

    def _nid(self, name):
        if name not in self._name_id:
            self._name_id[name] = len(self.names)
            self.names.append(name)
        return self._name_id[name]

    def wrap(self, name, fn, observe=None):
        nid = self._nid(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = len(self.start)
            self.name.append(nid)
            self.parent.append(self._stack[-1])
            self.end.append(0.0)
            self._stack.append(sid)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[sid] = clock()
                self._stack.pop()
            if observe is not None:
                observe(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def round(self, fn, *args):
        """Run one benchmark round under a root span."""
        return self.wrap(ROUND, fn)(*args)

    # ----- observers feeding the counters --------------------------------

    def _on_triple(self, args, result):
        if not result[3]:
            self.counts["linalg.top_singular_triple.unconverged"] += 1

    def _on_retract(self, args, result):
        self.counts["representation.retract_to.deformed"] += result is not args[0]

    def _on_ascend(self, args, result):
        value, _, steps, converged = result
        self._starts.append((value, steps, converged))

    def _on_estimate(self, args, result):
        starts, self._starts = self._starts, []
        if not starts:
            return
        best = max(v for v, _, _ in starts)
        c = self.counts
        c["optimize.estimates"] += 1
        c["optimize.ascent.starts"] += len(starts)
        c["optimize.ascent.steps"] += sum(s for _, s, _ in starts)
        c["optimize.ascent.converged"] += sum(1 for _, _, ok in starts if ok)
        c["optimize.ascent.useful_steps"] += starts[result.restart_index][1]
        c["optimize.ascent.starts_at_best"] += sum(1 for v, _, _ in starts if v >= best - BEST_TIE)

    def _on_ball(self, args, result):
        self.counts["bundle.vertices"] += result.shape[0]

    # ----- installing and removing the wrappers ---------------------------

    def install(self):
        observers = {
            "linalg.top_singular_triple": self._on_triple,
            "representation.retract_to": self._on_retract,
            "optimize.ascent": self._on_ascend,
            "optimize.estimate_norm": self._on_estimate,
            "bundle.cayley_ball": self._on_ball,
        }
        modules = [m for k, m in sys.modules.items() if k == "constrep" or k.startswith("constrep.")]
        for module_name, attr, name in TARGETS:
            original = getattr(getattr(constrep, module_name), attr, None)
            if original is None:
                continue
            wrapper = self.wrap(name, original, observers.get(name))
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, original))
                        setattr(module, key, wrapper)
        cls = representation.Representation
        original = cls.__dict__.get("__post_init__")
        if original is not None:
            self._patches.append((cls, "__post_init__", original))
            cls.__post_init__ = self.wrap(VALIDATE, original)

    def uninstall(self):
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches = []

    # ----- aggregation ----------------------------------------------------

    def totals(self):
        """Per span name: (calls, inclusive seconds, self seconds)."""
        n = len(self.start)
        child = [0.0] * n
        for sid in range(n):
            p = self.parent[sid]
            if p >= 0:
                child[p] += self.end[sid] - self.start[sid]
        calls = defaultdict(int)
        incl = defaultdict(float)
        own = defaultdict(float)
        for sid in range(n):
            name = self.names[self.name[sid]]
            dur = self.end[sid] - self.start[sid]
            calls[name] += 1
            incl[name] += dur
            own[name] += dur - child[sid]
        return calls, incl, own

    def write_jsonl(self, path):
        with open(path, "w", encoding="ascii") as fh:
            for sid in range(len(self.start)):
                fh.write(
                    json.dumps(
                        {
                            "id": sid,
                            "name": self.names[self.name[sid]],
                            "start": self.start[sid],
                            "end": self.end[sid],
                            "parent": self.parent[sid],
                        }
                    )
                )
                fh.write("\n")


def layer_metrics(tracer, ops):
    """Per-layer metrics per traced op: {name: (value, unit)}."""
    calls, incl, own = tracer.totals()
    c = tracer.counts
    per_op = max(ops, 1)
    wall = incl.get(ROUND, 0.0)

    def rate(value):
        return value / per_op

    def share(num, den):
        return num / den if den else 0.0

    starts = c["optimize.ascent.starts"]
    steps = c["optimize.ascent.steps"]
    m = {}
    for name in ("linalg.top_singular_triple", "representation.constraint_value",
                 "representation.retract_to", "representation.evaluate", "optimize.subgradient"):
        m[name + ".calls"] = (rate(calls[name]), "calls/op")
        m[name + ".s"] = (rate(own[name]), "s/op")
    for name in ("representation.deform", "linalg.unitary_eig", "linalg.unitary_exponential",
                 VALIDATE, "optimize.oracle", "bundle.cayley_ball", "bundle.cayley_ball_norm"):
        m[name + ".s"] = (rate(own[name]), "s/op")
    # Parsing runs in set-up, not in rounds, so it is per call.
    m["freegroup.parse_element.s"] = (
        share(own["freegroup.parse_element"], calls["freegroup.parse_element"]), "s/call")
    m["linalg.top_singular_triple.unconverged"] = (
        rate(c["linalg.top_singular_triple.unconverged"]), "calls/op")
    m["representation.retract_to.deform_frac"] = (
        share(c["representation.retract_to.deformed"], calls["representation.retract_to"]), "frac")
    m["optimize.ascent.starts"] = (rate(starts), "starts/op")
    m["optimize.ascent.steps"] = (rate(steps), "steps/op")
    m["optimize.ascent.converged_frac"] = (share(c["optimize.ascent.converged"], starts), "frac")
    m["optimize.ascent.useful_step_frac"] = (share(c["optimize.ascent.useful_steps"], steps), "frac")
    m["optimize.ascent.starts_at_best"] = (
        share(c["optimize.ascent.starts_at_best"], c["optimize.estimates"]), "starts/op")
    m["bundle.vertices"] = (rate(c["bundle.vertices"]), "vertices/op")
    for layer in SELF_FRAC_LAYERS:
        layer_self = sum(t for name, t in own.items() if name.startswith(layer + "."))
        m[layer + ".self_frac"] = (share(layer_self, wall), "frac")
    return m
