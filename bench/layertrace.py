"""Layer tracing from outside the program.

The public functions of each layer module (and ``DenseNetwork.evaluate_batch``)
are replaced by wrappers that record one span per call: name, start, end,
parent span and, for a few functions, counts of the work the call was asked
to do.  Spans stay in memory; ``layer_metrics`` turns them into per-layer
self times and counts, and the run writes them out when it ends.

Every module of the package that holds a reference to a wrapped function is
rebound, so calls made through ``from .instance import sample_a4d`` style
imports are traced too.  Default arguments bound at definition time (the
ReLU approximator of ``build_generic``) stay untraced; their time shows in
the caller's self time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import sys
import time
from contextlib import contextmanager

LAYERS = ("instance", "networks", "depth3", "threshold", "reduction", "training", "harness")

# function -> the per-layer metric its self time adds to
SELF_TIME = {
    "instance.build_packing": "instance.build_s",
    "instance.build_instance": "instance.build_s",
    "instance.sample_a4d": "instance.sample_s",
    "instance.eval_f_batch": "instance.eval_f_s",
    "instance.eval_f": "instance.eval_f_s",
    "networks.DenseNetwork.evaluate_batch": "networks.eval_s",
    "networks.absorb_input_map": "networks.absorb_s",
    "networks.absorb_input_shift": "networks.absorb_s",
    "networks.average_ensemble": "networks.ensemble_s",
    "depth3.build_exact_relu": "depth3.build_s",
    "depth3.build_generic": "depth3.build_s",
    "depth3.relu_1d_approximator": "depth3.build_s",
    "depth3.reference_g1": "depth3.build_s",
    "depth3.reference_g2": "depth3.build_s",
    "harness.measure_sup_error": "harness.sup_error_s",
    "harness.run_separation_experiment": "harness.sweep_s",
    "threshold.compile_scalar": "threshold.compile_s",
    "threshold.compile_network": "threshold.compile_s",
    "threshold.segment_budget": "threshold.compile_s",
    "threshold.threshold_1d_approximator": "threshold.compile_s",
    "threshold.to_circuit": "threshold.compile_s",
    "threshold.boolean_cube_max_error": "threshold.cube_error_s",
    "training.train_depth2": "training.train_s",
    "training.loss_and_gradients": "training.train_s",
    "training.estimate_population_loss": "training.train_s",
    "training.constant_network": "training.train_s",
    "reduction.randomize_batch": "reduction.randomize_batch_s",
    "reduction.draw_record": "reduction.draw_record_s",
    "reduction.expand_pair": "reduction.draw_record_s",
    "reduction.randomize_input": "reduction.draw_record_s",
    "reduction.block_input_map": "reduction.block_input_map_s",
    "reduction.build_averaged_network": "reduction.averaged_build_s",
    "reduction.output_bound": "reduction.averaged_build_s",
    "reduction.hoeffding_block_count": "reduction.averaged_build_s",
    "reduction.exact_count_distribution": "reduction.count_law_s",
    "reduction.count_signature": "reduction.count_law_s",
    "reduction.exact_l2_norm_squared": "reduction.l2_s",
    "reduction.block_signatures": "reduction.block_signatures_s",
    "reduction.multinomial_square_ratio_report": "reduction.a1_s",
    "reduction.mgf_bound_report": "reduction.a2_s",
}

# (metric, numerator, denominator) computed from the per-pass totals
RATES = (
    ("networks.eval_madds_per_s", "networks.eval_madds", "networks.eval_s"),
    ("training.steps_per_s", "training.steps", "training.train_s"),
    ("reduction.trials_per_s", "reduction.trials", "reduction.randomize_batch_s"),
    ("reduction.law_terms_per_s", "reduction.law_terms", "reduction.count_law_s"),
)

COUNTS = (
    "instance.points_placed",
    "instance.samples",
    "networks.eval_rows",
    "networks.eval_madds",
    "depth3.hidden_units",
    "threshold.segments",
    "threshold.compiled_units",
    "training.steps",
    "reduction.trials",
    "reduction.law_terms",
    "reduction.a1_terms",
    "reduction.a2_terms",
)

METRIC_UNITS = {
    **{m: "s" for m in SELF_TIME.values()},
    **{m: "count" for m in COUNTS},
    **{m: "1/s" for m, _, _ in RATES},
    "trace.overhead_s": "s",
}


def _even_pad_signatures(D: int) -> int:
    """Compositions (n1..n4) of D with n4 even: the pad terms of one law."""
    return sum(math.comb(D - n4 + 2, 2) for n4 in range(0, D + 1, 2))


def _arguments(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _eval_counts(fn, result, args, kwargs):
    net, X = args[0], args[1]
    rows = 1 if getattr(X, "ndim", 1) == 1 else len(X)
    fan_in, madds = net.input_dim, 0
    for W, _ in net.hidden:
        madds += fan_in * W.shape[0]
        fan_in = W.shape[0]
    madds += fan_in
    return {"networks.eval_rows": rows, "networks.eval_madds": rows * madds}


def _law_counts(fn, result, args, kwargs):
    a = _arguments(fn, args, kwargs)
    return {"reduction.law_terms": 4 ** len(a["x"]) * _even_pad_signatures(a["D"])}


def _a1_counts(fn, result, args, kwargs):
    a = _arguments(fn, args, kwargs)
    return {"reduction.a1_terms": math.comb(a["d"] + 3, 3) * math.comb(a["D"] + 3, 3)}


def _a2_counts(fn, result, args, kwargs):
    a = _arguments(fn, args, kwargs)
    return {"reduction.a2_terms": result["n_inputs"] * 4 ** a["d"]}


def _compiled_units(result):
    net = result[0] if isinstance(result, tuple) else result
    return {"threshold.compiled_units": sum(net.widths)}


# counts of the work a call was asked to do: (function, result, args, kwargs) -> counts
COUNTERS = {
    "instance.build_packing": lambda fn, r, a, k: {"instance.points_placed": r.n_points},
    "instance.sample_a4d": lambda fn, r, a, k: {"instance.samples": len(r)},
    "networks.DenseNetwork.evaluate_batch": _eval_counts,
    "depth3.build_exact_relu": lambda fn, r, a, k: {"depth3.hidden_units": sum(r.widths)},
    "depth3.build_generic": lambda fn, r, a, k: {"depth3.hidden_units": sum(r.widths)},
    "threshold.compile_scalar": lambda fn, r, a, k: {"threshold.segments": r[1].n_segments},
    "training.loss_and_gradients": lambda fn, r, a, k: {"training.steps": 1},
    "reduction.randomize_batch": lambda fn, r, a, k: {"reduction.trials": len(r[0])},
    "reduction.exact_count_distribution": _law_counts,
    "reduction.multinomial_square_ratio_report": _a1_counts,
    "reduction.mgf_bound_report": _a2_counts,
}

# compiler entry points whose result counts as compiled units when called
# from outside the threshold layer (nested calls would count twice)
UNIT_PRODUCERS = {
    "threshold.compile_scalar",
    "threshold.compile_network",
    "threshold.threshold_1d_approximator",
}


class Tracer:
    """In-memory span recorder.  A span is [name, start, end, parent, counts]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        spans, stack = self.spans, self._stack
        layer = name.split(".", 1)[0] + "."
        units = name in UNIT_PRODUCERS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            span = [name, time.perf_counter(), 0.0, parent, None]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            counts = counter(fn, result, args, kwargs) if counter else None
            if units and (parent < 0 or not spans[parent][0].startswith(layer)):
                counts = {**(counts or {}), **_compiled_units(result)}
            span[4] = counts
            return result

        return traced


def _targets():
    """(owner, attribute, span name) for every traced callable."""
    for layer in LAYERS:
        mod = importlib.import_module(f"depthsep.{layer}")
        for attr in mod.__all__:
            obj = getattr(mod, attr)
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                yield mod, attr, f"{layer}.{attr}"
    networks = importlib.import_module("depthsep.networks")
    yield networks.DenseNetwork, "evaluate_batch", "networks.DenseNetwork.evaluate_batch"


@contextmanager
def installed(tracer: Tracer):
    """Route every call of a traced callable through ``tracer`` while active."""
    replaced = []  # (owner, attribute, original)
    wrappers = {}  # id(original) -> wrapper
    for owner, attr, name in _targets():
        original = owner.__dict__[attr]
        wrappers[id(original)] = (original, tracer.wrap(name, original))
    modules = [m for n, m in list(sys.modules.items()) if n == "depthsep" or n.startswith("depthsep.")]
    owners = modules + [importlib.import_module("depthsep.networks").DenseNetwork]
    try:
        for owner in owners:
            for attr, value in list(vars(owner).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(owner, attr, hit[1])
                    replaced.append((owner, attr, value))
        yield tracer
    finally:
        for owner, attr, original in replaced:
            setattr(owner, attr, original)


def _self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its child spans."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_metrics(spans: list[list], n_passes: int) -> dict[str, float]:
    """Per-pass self time and counts for every per-layer metric."""
    totals = {m: 0.0 for m in METRIC_UNITS if m != "trace.overhead_s"}
    for (name, _, _, _, counts), own in zip(spans, _self_times(spans)):
        metric = SELF_TIME.get(name)
        if metric is not None:
            totals[metric] += own
        for key, value in (counts or {}).items():
            totals[key] += value
    per_pass = {m: v / n_passes for m, v in totals.items()}
    for rate, num, den in RATES:
        per_pass[rate] = totals[num] / totals[den] if totals[den] > 0 else 0.0
    return per_pass


def self_time_by_function(spans: list[list], n_passes: int) -> dict[str, float]:
    """Per-pass self time of every traced function, for the run record."""
    out: dict[str, float] = {}
    for (name, *_), own in zip(spans, _self_times(spans)):
        out[name] = out.get(name, 0.0) + own / n_passes
    return dict(sorted(out.items(), key=lambda kv: -kv[1]))
