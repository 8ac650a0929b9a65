"""Per-layer tracing from outside the program.

The layers are relaypair's modules.  Each traced function is found by name
in the module that defines it; its wrapper then replaces every reference to
that function object in the loaded relaypair modules, because the solvers
import their kernels by name (``from .kernels import total_phase1``).  A
layer none of whose functions exists any more is reported as absent.

Spans (layer, parent span, start, end) are kept in memory and written out
once, when the run ends.  A span's self time is its duration minus the
durations of the spans it directly encloses.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
import time
from array import array

import numpy as np

# layer -> functions, each "module:function"
LAYERS = {
    "kernels.phase1": ("relaypair.kernels:total_phase1", "relaypair.kernels:ind_phase1",
                       "relaypair.kernels:extra_phase1", "relaypair.kernels:extra_ind_phase1"),
    "kernels.scores": ("relaypair.kernels:total_scores", "relaypair.kernels:ind_scores",
                       "relaypair.kernels:ind_tables", "relaypair.kernels:extra_scores",
                       "relaypair.kernels:extra_ind_scores"),
    "kernels.nu_solve": ("relaypair.kernels:nu_solve",),
    "waterfill": ("relaypair.waterfill:waterfill",),
    "pairing.amend": ("relaypair.pairing:amend_pairing",),
    "pairing.greedy": ("relaypair.pairing:greedy_assignment",),
    "lap": ("scipy.optimize:linear_sum_assignment",),
    "refine": ("relaypair.refine:zero_crossing_refine",),
    "refine.extra_alloc": ("relaypair.solver_extra:extra_individual_allocate",),
    "rates": ("relaypair.rates:weighted_sum_rate",),
    "validate": ("relaypair.validate:validate_allocation",),
    "oracle": ("relaypair.oracle:exhaustive_total", "relaypair.oracle:exhaustive_extra_total",
               "relaypair.oracle:exhaustive_individual",
               "relaypair.oracle:reference_extra_individual"),
    "baselines": ("relaypair.baselines:evaluate_baseline", "relaypair.baselines:baseline_pairing"),
    "solver": ("relaypair.solver_total:solve_total", "relaypair.solver_individual:solve_individual",
               "relaypair.solver_extra:solve_extra_total",
               "relaypair.solver_extra:solve_extra_individual"),
    "experiments": ("relaypair.experiments:run_trial",),
    "channel.sample": ("relaypair.channel:sample_realization",),
}

# (name, unit, better); every value is per round (one pass over the
# workload's fixed operations), so counts repeat exactly from run to run
PER_LAYER = (
    ("kernels.phase1.s", "s", "lower"),
    ("kernels.phase1.calls", "count", "lower"),
    ("kernels.phase1.iters", "count", "lower"),
    ("kernels.phase1.us_per_iter", "us", "lower"),
    ("kernels.phase1.cells", "count", "lower"),
    ("kernels.scores.s", "s", "lower"),
    ("kernels.scores.calls", "count", "lower"),
    ("kernels.nu_solve.s", "s", "lower"),
    ("kernels.nu_solve.calls", "count", "lower"),
    ("kernels.nu_solve.us_per_call", "us", "lower"),
    ("kernels.nu_solve.calls_per_refine", "1", "lower"),
    ("waterfill.s", "s", "lower"),
    ("waterfill.calls", "count", "lower"),
    ("waterfill.channels", "count", "lower"),
    ("waterfill.us_per_call", "us", "lower"),
    ("waterfill.calls_per_solve", "1", "lower"),
    ("pairing.amend.s", "s", "lower"),
    ("pairing.amend.calls", "count", "lower"),
    ("pairing.greedy.s", "s", "lower"),
    ("lap.s", "s", "lower"),
    ("lap.calls", "count", "lower"),
    ("refine.s", "s", "lower"),
    ("refine.calls", "count", "lower"),
    ("refine.calls_per_solve", "1", "lower"),
    ("refine.extra_alloc.s", "s", "lower"),
    ("refine.extra_alloc.calls", "count", "lower"),
    ("rates.s", "s", "lower"),
    ("rates.calls", "count", "lower"),
    ("validate.s", "s", "lower"),
    ("validate.calls", "count", "lower"),
    ("oracle.s", "s", "lower"),
    ("oracle.calls", "count", "lower"),
    ("oracle.candidates", "count", "lower"),
    ("baselines.s", "s", "lower"),
    ("baselines.calls", "count", "lower"),
    ("solver.self_s", "s", "lower"),
    ("solver.calls", "count", "lower"),
    ("experiments.self_s", "s", "lower"),
    ("channel.sample.s", "s", "lower"),
    ("traced.round_s", "s", "lower"),
)


def _phase1_work(args, out, counts):
    m = len(args[0])
    counts["kernels.phase1.iters"] += out[0]
    counts["kernels.phase1.cells"] += out[0] * m * m


def _waterfill_work(args, out, counts):
    counts["waterfill.channels"] += len(args[0])


def _oracle_candidates(extra):
    def count(args, out, counts):
        real = args[0]
        relay_capable = int(np.count_nonzero(real.a_sr > real.a_sd))
        counts["oracle.candidates"] += math.factorial(real.m) * (2 ** relay_capable if extra else 1)
    return count


# work counted from a traced call's arguments and result
WORK = {
    "total_phase1": _phase1_work, "ind_phase1": _phase1_work,
    "extra_phase1": _phase1_work, "extra_ind_phase1": _phase1_work,
    "waterfill": _waterfill_work,
    "exhaustive_total": _oracle_candidates(False),
    "exhaustive_individual": _oracle_candidates(False),
    "exhaustive_extra_total": _oracle_candidates(True),
    "reference_extra_individual": _oracle_candidates(True),
}


def _find(target: str):
    module_name, name = target.split(":")
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        return None
    return getattr(module, name, None)


class Tracer:
    def __init__(self):
        self.layer_names = list(LAYERS)
        self.absent = []
        self.counts = {"kernels.phase1.iters": 0, "kernels.phase1.cells": 0,
                       "waterfill.channels": 0, "oracle.candidates": 0}
        self._layer = array("h")
        self._parent = array("i")
        self._t0 = array("d")
        self._t1 = array("d")
        self._stack = []
        self._patched = []  # (module, attribute, original)

    def _wrap(self, fn, layer_id: int, work):
        layers, parents, t0s, t1s = self._layer, self._parent, self._t0, self._t1
        stack, counts, clock = self._stack, self.counts, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(layers)
            layers.append(layer_id)
            parents.append(stack[-1] if stack else -1)
            t1s.append(0.0)
            stack.append(idx)
            t0s.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                t1s[idx] = clock()
                stack.pop()
            if work is not None:
                work(args, out, counts)
            return out

        return traced

    def install(self) -> None:
        modules = [mod for name, mod in sorted(sys.modules.items())
                   if mod is not None and (name == "relaypair" or name.startswith("relaypair."))]
        for layer_id, layer in enumerate(self.layer_names):
            found = 0
            for target in LAYERS[layer]:
                fn = _find(target)
                if fn is None:
                    continue
                found += 1
                wrapper = self._wrap(fn, layer_id, WORK.get(target.split(":")[1]))
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            setattr(mod, attr, wrapper)
                            self._patched.append((mod, attr, fn))
            if not found:
                self.absent.append(layer)

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._patched):
            setattr(mod, attr, fn)
        self._patched.clear()

    def spans(self) -> dict:
        return {"layer": np.frombuffer(self._layer, dtype=np.int16),
                "parent": np.frombuffer(self._parent, dtype=np.int32),
                "t0": np.frombuffer(self._t0), "t1": np.frombuffer(self._t1),
                "layer_names": np.array(self.layer_names)}

    def metrics(self, rounds: int, round_s: float) -> dict:
        """Per-layer values per round."""
        sp = self.spans()
        dur = sp["t1"] - sp["t0"]
        enclosed = sp["parent"] >= 0
        child = np.bincount(sp["parent"][enclosed], weights=dur[enclosed], minlength=dur.size)
        own = dur - child
        n_layers = len(self.layer_names)
        self_s = np.bincount(sp["layer"], weights=own, minlength=n_layers) / rounds
        calls = np.bincount(sp["layer"], minlength=n_layers) / rounds
        s = dict(zip(self.layer_names, self_s))
        c = dict(zip(self.layer_names, calls))
        work = {k: v / rounds for k, v in self.counts.items()}

        def ratio(a, b):
            return a / b if b else 0.0

        fixed_pairing_solves = c["refine"] + c["refine.extra_alloc"]
        values = {
            "kernels.phase1.s": s["kernels.phase1"],
            "kernels.phase1.calls": c["kernels.phase1"],
            "kernels.phase1.iters": work["kernels.phase1.iters"],
            "kernels.phase1.us_per_iter": ratio(1e6 * s["kernels.phase1"], work["kernels.phase1.iters"]),
            "kernels.phase1.cells": work["kernels.phase1.cells"],
            "kernels.scores.s": s["kernels.scores"],
            "kernels.scores.calls": c["kernels.scores"],
            "kernels.nu_solve.s": s["kernels.nu_solve"],
            "kernels.nu_solve.calls": c["kernels.nu_solve"],
            "kernels.nu_solve.us_per_call": ratio(1e6 * s["kernels.nu_solve"], c["kernels.nu_solve"]),
            "kernels.nu_solve.calls_per_refine": ratio(c["kernels.nu_solve"], fixed_pairing_solves),
            "waterfill.s": s["waterfill"],
            "waterfill.calls": c["waterfill"],
            "waterfill.channels": work["waterfill.channels"],
            "waterfill.us_per_call": ratio(1e6 * s["waterfill"], c["waterfill"]),
            "waterfill.calls_per_solve": ratio(c["waterfill"], c["solver"]),
            "pairing.amend.s": s["pairing.amend"],
            "pairing.amend.calls": c["pairing.amend"],
            "pairing.greedy.s": s["pairing.greedy"],
            "lap.s": s["lap"],
            "lap.calls": c["lap"],
            "refine.s": s["refine"],
            "refine.calls": c["refine"],
            "refine.calls_per_solve": ratio(c["refine"], c["solver"]),
            "refine.extra_alloc.s": s["refine.extra_alloc"],
            "refine.extra_alloc.calls": c["refine.extra_alloc"],
            "rates.s": s["rates"],
            "rates.calls": c["rates"],
            "validate.s": s["validate"],
            "validate.calls": c["validate"],
            "oracle.s": s["oracle"],
            "oracle.calls": c["oracle"],
            "oracle.candidates": work["oracle.candidates"],
            "baselines.s": s["baselines"],
            "baselines.calls": c["baselines"],
            "solver.self_s": s["solver"],
            "solver.calls": c["solver"],
            "experiments.self_s": s["experiments"],
            "channel.sample.s": s["channel.sample"],
            "traced.round_s": round_s,
        }
        return {name: {"value": float(values[name]), "unit": unit} for name, unit, _ in PER_LAYER}
