"""Argument boundaries: every size or count is a positive integer
(``bits._sizes``), every accuracy, bound or step a positive finite real
(``bits._positive``) and every seed a non-negative integer (``bits._seed``),
checked where the argument enters; JSON fields are not coerced, and a JSON
number beyond its type's range is refused.  A rejected value raises a
ValueError naming the argument; a numpy unsigned size gives the same result
as the equal Python int, and a numpy float32 MGF parameter s the same as the
equal Python float."""

import json
import math
import reprlib
from fractions import Fraction

import numpy as np
import pytest
from click.testing import CliRunner

from depthsep import depth3, harness, instance, networks, reduction, threshold, training
from depthsep.cli import main

SPEC = instance.build_instance(1, seed=7)
NET = networks.DenseNetwork(4, ((np.ones((2, 4)), np.zeros(2)),), np.ones(2), 0.0, networks.RELU)
SPEC_DOC = json.loads(instance.spec_to_json(SPEC))
NET_1 = networks.DenseNetwork(1, ((np.ones((2, 1)), np.zeros(2)),), np.ones(2), 0.0, networks.RELU)


def _spec_with_d(d):
    return instance.spec_from_json(json.dumps({**SPEC_DOC, "d": d}))


# (entry point, argument, call with the argument set to v, a valid value or None)
SIZES = [
    ("check_l2_size", "d", lambda v: reduction.check_l2_size(v, 5), 2),
    ("check_l2_size", "D", lambda v: reduction.check_l2_size(2, v), 5),
    ("l2_bound_report", "d", lambda v: reduction.l2_bound_report(v, 5), 2),
    ("l2_bound_report", "D", lambda v: reduction.l2_bound_report(2, v), 5),
    ("exact_l2_norm_squared", "D", lambda v: reduction.exact_l2_norm_squared([1, 0], [1, 1], v), 9),
    ("check_a1_size", "d", lambda v: reduction.check_a1_size(v, 8), 4),
    ("check_a1_size", "D", lambda v: reduction.check_a1_size(4, v), 8),
    ("multinomial_square_ratio_report", "d", lambda v: reduction.multinomial_square_ratio_report(v, 8), 4),
    ("multinomial_square_ratio_report", "D", lambda v: reduction.multinomial_square_ratio_report(4, v), 8),
    ("check_a2_size", "d", lambda v: reduction.check_a2_size(v, Fraction(1, 1000)), 4),
    ("mgf_bound_report", "d", lambda v: reduction.mgf_bound_report(v, Fraction(1, 1000)), 4),
    ("exact_count_distribution", "D", lambda v: reduction.exact_count_distribution([1], [0], v), 5),
    ("hoeffding_block_count", "d", lambda v: reduction.hoeffding_block_count(1.0, v), 3),
    ("build_packing", "d", lambda v: instance.build_packing(v, seed=3), 2),
    ("build_packing", "max_attempts", lambda v: instance.build_packing(1, seed=3, max_attempts=v), 200),
    ("spec_from_json", "d", _spec_with_d, None),
    ("sample_a4d", "n", lambda v: instance.sample_a4d(SPEC, v, seed=1), 50),
    ("measure_sup_error", "n", lambda v: harness.measure_sup_error(NET, SPEC, v, seed=1), 50),
    ("estimate_population_loss", "n", lambda v: training.estimate_population_loss(NET, SPEC, v, seed=1), 50),
    ("build_exact_relu", "d", depth3.build_exact_relu, 2),
    ("build_generic", "d", lambda v: depth3.build_generic(v, 0.2), 1),
    ("TrainConfig", "width", lambda v: training.TrainConfig(width=v), 3),
    ("TrainConfig", "epochs", lambda v: training.TrainConfig(width=1, epochs=v), 3),
    ("TrainConfig", "batch_size", lambda v: training.TrainConfig(width=1, batch_size=v), 3),
    ("TrainConfig", "samples_per_epoch", lambda v: training.TrainConfig(width=1, samples_per_epoch=v), 3),
]

REALS = [
    ("hoeffding_block_count", "B", lambda v: reduction.hoeffding_block_count(v, 2)),
    ("check_a2_size", "s", lambda v: reduction.check_a2_size(2, v)),
    ("mgf_bound_report", "s", lambda v: reduction.mgf_bound_report(2, v)),
    ("build_generic", "eps", lambda v: depth3.build_generic(1, v)),
    ("Approx1DSpec", "accuracy", lambda v: depth3.Approx1DSpec(depth3.reference_g1, 0.0, 1.0, 1.0, v)),
    ("TrainConfig", "learning_rate", lambda v: training.TrainConfig(width=1, learning_rate=v)),
    ("TrainConfig", "weight_clip", lambda v: training.TrainConfig(width=1, weight_clip=v)),
    ("compile_scalar", "R", lambda v: threshold.compile_scalar(networks.RELU, v, 0.1)),
    ("compile_scalar", "delta", lambda v: threshold.compile_scalar(networks.RELU, 1.0, v)),
    ("compile_network", "delta", lambda v: threshold.compile_network(NET, v)),
    ("segment_budget", "R", lambda v: threshold.segment_budget(networks.RELU, v, 0.1)),
    ("segment_budget", "delta", lambda v: threshold.segment_budget(networks.RELU, 1.0, v)),
]


def _spec_with(**fields):
    return instance.spec_from_json(json.dumps({**SPEC_DOC, **fields}))


def _net_with_weight(value):
    doc = json.loads(networks.network_to_json(NET))
    doc["layers"][0]["W"][0][0] = value
    return networks.network_from_json(json.dumps(doc))


def _net_with(**fields):
    return networks.network_from_json(json.dumps({**json.loads(networks.network_to_json(NET)), **fields}))


def _approx_with(**fields):
    return depth3.Approx1DSpec(**{"target": depth3.reference_g1, "lo": 0.0, "hi": 1.0, "lipschitz": 1.0,
                                  "accuracy": 0.1, **fields})


# (entry point, argument, call, values that were once coerced or accepted)
REFUSED = [
    ("spec_from_json", "seed", lambda v: _spec_with(seed=v), [2.7, True, -4]),
    ("spec_from_json", "matching", lambda v: _spec_with(matching=v),
     [[0, 1, 2, 3.7], [True, 0, 2, 3], [0, 1, 2, 10**30]]),
    ("network_from_json", "layer 0 W", lambda v: _net_with_weight(v), [10**400]),
    ("network_from_json", "network JSON", lambda v: networks.network_from_json(json.dumps(v)), [[2]]),
    ("network_from_json", "layers", lambda v: _net_with(layers=v), [5]),
    ("network_from_json", "layer 0", lambda v: _net_with(layers=v), [[5]]),
    ("network_from_json", "output", lambda v: _net_with(output=v), [7]),
    ("TrainConfig", "seed", lambda v: training.TrainConfig(width=1, seed=v), [True]),
    ("evaluate_batch", "X", NET_1.evaluate_batch, [2.0, [[[0.5]], [[1.5]]]]),
    *(("Approx1DSpec", name, lambda v, name=name: _approx_with(**{name: v}), [math.nan, math.inf, -math.inf])
      for name in ("lo", "hi", "lipschitz")),
]

BAD_SIZES = [0, -1, 1.5, True, math.nan, math.inf]
BAD_REALS = [0, -1, True, math.nan, math.inf, -math.inf]


def _canonical(result):
    """A value that compares equal exactly when two results are the same:
    arrays by their bytes, reports without their wall time, anything else
    by repr, so a numpy integer left in a result shows as np.uint8(...)."""
    if isinstance(result, depth3.GenericBuildReport):
        result = result.net
    if isinstance(result, networks.DenseNetwork):
        return networks.network_to_json(result)
    if isinstance(result, instance.Packing):
        return result.points.tobytes()
    if isinstance(result, instance.SampleBatch):
        return result.points.tobytes(), result.component_index.tobytes(), result.labels.tobytes()
    if isinstance(result, dict):
        result = {k: v for k, v in result.items() if k != "elapsed_s"}
    return repr(result)


# (entry point, argument, call, a numpy value that must act as the equal Python number)
EQUAL_NUMBERS = [
    ("check_a2_size", "s", lambda v: reduction.check_a2_size(2, v), np.float32(0.01)),
    ("mgf_bound_report", "s", lambda v: reduction.mgf_bound_report(2, v), np.float32(0.01)),
    ("Approx1DSpec", "accuracy", lambda v: _approx_with(accuracy=v), np.float32(0.05)),
    ("TrainConfig", "learning_rate", lambda v: training.TrainConfig(width=1, learning_rate=v), np.float32(0.05)),
    ("TrainConfig", "weight_clip", lambda v: training.TrainConfig(width=1, weight_clip=v), np.float32(0.05)),
]

CASES = ([(e, n, c, v) for e, n, c, _ in SIZES for v in BAD_SIZES]
         + [(e, n, c, v) for e, n, c in REALS for v in BAD_REALS]
         + [(e, n, c, np.uint8(v)) for e, n, c, v in SIZES if v is not None]
         + EQUAL_NUMBERS
         + [(e, n, c, v) for e, n, c, values in REFUSED for v in values])


@pytest.mark.parametrize(
    "entry, name, call, value",
    [pytest.param(*case, id=f"{case[0]}-{case[1]}-{reprlib.repr(case[3])}") for case in CASES],
)
def test_argument_boundary(entry, name, call, value):
    if isinstance(value, np.generic):
        assert _canonical(call(value)) == _canonical(call(value.item())), entry
    else:
        with pytest.raises(ValueError, match=f"^{name} must be "):
            call(value)


@pytest.mark.parametrize("value", ["0", "-1", "-0.5", "nan", "inf"])
def test_cli_delta_boundary(tmp_path, value):
    net = tmp_path / "net.json"
    net.write_text(networks.network_to_json(NET))
    result = CliRunner().invoke(main, ["compile-threshold", "--net", str(net), "--delta", value],
                                catch_exceptions=False)
    assert result.exit_code == 2, result.output
    assert "delta must be positive and finite" in result.output
