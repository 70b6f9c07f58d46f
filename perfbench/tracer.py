"""Spans around calls into bccrates, recorded from outside the package.

Each traced layer is a function of some ``bccrates`` module.  Installing the
tracer replaces that function in every ``bccrates`` namespace that binds it
(``from .chain import informations`` binds a second name in ``regions``, and
``fold_max`` is looked up as a global of ``_sweep_py``), and uninstalling
puts the originals back.  A span is recorded only while a benchmark
operation is open, so calls made by the benchmark's own checks do not count.
Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import sys
import time
from collections import defaultdict

import numpy as np


def _grid_cells(a):
    return len(a["p_grid"]) * len(a["a_grid"]) * len(a["b_grid"])


def _hull_sizes(a, result):
    out = {"frontier.hull.points_in": len(a["xs"])}
    if result is not None:
        out["frontier.hull.vertices_out"] = len(result)
    return out


def _general_cells(a, result):
    mx = np.asarray(a["w_y"]).shape[0]
    k = max(1, round(1.0 / a["grid"].prob_step))
    laws = math.comb(k + mx - 1, mx - 1)
    cells = laws if a["v_equals_x"] else laws * laws**mx
    return {"frontier.general_sweep.cells": cells}


def _degraded_candidates(a, result):
    w_y, w_z = a["w_y"].matrix, a["w_z"].matrix
    if w_y.shape == w_z.shape and np.array_equal(w_y, w_z):
        return {}
    if w_y.shape[1] == 2 and np.linalg.matrix_rank(w_y) == 2:
        return {}
    k = max(1, round(1.0 / a["grid_step"]))
    rows = math.comb(k + w_z.shape[1] - 1, w_z.shape[1] - 1)
    return {"regions.is_degraded.candidates": rows ** w_y.shape[1]}


def _tail_outcomes(a, result):
    base = len(a["probs"]) if a["alphabet_size"] is None else a["alphabet_size"]
    return {"exponents.iid_sum_tail.outcomes": base ** a["n"]}


# (layer, module, function, counter, span).  A span records time.  A counter
# is either a metric name, counted once per call, or a function of the call's
# bound arguments and result returning {metric: amount}.
TARGETS = (
    ("frontier.sweep_binary", "bccrates._sweep_backend", "sweep_binary",
     lambda a, r: {"frontier.sweep_binary.cells": _grid_cells(a)}, True),
    ("frontier.fold_max", "bccrates._sweep_py", "fold_max",
     lambda a, r: {"frontier.fold_max.items": int(np.size(a["rd"]))}, True),
    ("frontier.hull", "bccrates.frontier", "_hull_vertices", _hull_sizes, True),
    ("frontier.general_sweep", "bccrates.frontier", "_general_sweep", _general_cells, True),
    ("frontier.binary_cells", "bccrates._sweep_py", "binary_cells",
     lambda a, r: {"frontier.binary_cells.cells": _grid_cells(a)}, True),
    ("regions.min_dummy_rate", "bccrates.regions", "min_dummy_rate", None, True),
    ("regions.check_rate_quad", "bccrates.regions", "check_rate_quad", None, True),
    ("regions.split_rates", "bccrates.regions", "split_rates", None, True),
    ("regions.is_degraded", "bccrates.regions", "is_degraded", _degraded_candidates, True),
    ("chain.informations", "bccrates.chain", "informations", None, True),
    ("chain.build_joint", "bccrates.chain", "build_joint", None, True),
    ("probability.conditional_mutual_information", "bccrates.probability",
     "conditional_mutual_information",
     "probability.conditional_mutual_information.calls", True),
    ("exponents.optimize_theta", "bccrates.exponents", "optimize_theta", None, True),
    # exponent evaluations are counted, not timed, so their time stays in
    # the theta search that makes them
    ("exponents.exponent", "bccrates.exponents", "superposition_exponent",
     "exponents.exponent_evals", False),
    ("exponents.exponent", "bccrates.exponents", "resolvability_exponent",
     "exponents.exponent_evals", False),
    ("exponents.iid_sum_tail", "bccrates.exponents", "iid_sum_tail", _tail_outcomes, True),
    ("simulate.generate", "bccrates.simulate", "generate_super_codebook", None, True),
    ("simulate.generate", "bccrates.simulate", "generate_bcc_codebook", None, True),
    ("simulate.exact_output_divergence", "bccrates.simulate", "exact_output_divergence",
     lambda a, r: {"simulate.exact_output_divergence.outputs":
                   a["w_z"].output_size ** a["codebook"].n}, True),
    ("simulate.exact_bob_error", "bccrates.simulate", "exact_bob_error", None, True),
    ("simulate.exact_eve_error", "bccrates.simulate", "exact_eve_error", None, True),
    ("simulate.exact_leakage", "bccrates.simulate", "exact_leakage", None, True),
    ("simulate.mc_output_divergence", "bccrates.simulate", "mc_output_divergence",
     lambda a, r: {"simulate.mc_output_divergence.samples": a["samples"]}, True),
    ("cli.region", "bccrates.cli", "_cmd_region", None, True),
)


class Tracer:
    """Span store and the wrappers that fill it."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self.counts: dict[str, float] = defaultdict(float)
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._op: int | None = None
        self._ops = 0
        self._patches: list[tuple] = []

    @property
    def installed(self) -> bool:
        return bool(self._patches)

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "bccrates" or name.startswith("bccrates."))]
        self.missing = []
        for layer, module, attr, counter, span in TARGETS:
            fn = getattr(sys.modules.get(module), attr, None)
            if fn is None:
                self.missing.append(f"{module}.{attr}")
                continue
            wrapper = self._wrap(layer, fn, counter, span)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, wrapper)
                        self._patches.append((mod, key, fn))

    def uninstall(self) -> None:
        for mod, key, fn in reversed(self._patches):
            setattr(mod, key, fn)
        self._patches = []

    def _wrap(self, layer, fn, counter, span):
        spans, stack, counts = self.spans, self._stack, self.counts
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            result = None
            if span:
                idx = len(spans)
                spans.append([layer, time.perf_counter(), None,
                              stack[-1] if stack else -1, self._op])
                stack.append(idx)
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                if span:
                    spans[idx][2] = time.perf_counter()
                    stack.pop()
                if isinstance(counter, str):
                    counts[counter] += 1
                elif counter is not None:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    for name, amount in counter(bound.arguments, result).items():
                        counts[name] += amount

        return wrapper

    def begin(self, label: str) -> None:
        """Open one benchmark operation: a root span all its calls nest in."""
        self._op = self._ops
        self._ops += 1
        self._stack.append(len(self.spans))
        self.spans.append([f"op.{label}", time.perf_counter(), None, -1, self._op])

    def end(self) -> None:
        self.spans[self._stack.pop()][2] = time.perf_counter()
        self._op = None

    def self_times(self) -> dict[str, float]:
        """Total self time per layer: span duration minus its children's."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for (name, start, end, _, _), inner in zip(self.spans, child):
            totals[name] += (end - start) - inner
        return totals

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")
