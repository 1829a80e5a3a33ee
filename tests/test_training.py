"""Depth-2 baseline: gradients, determinism, clipping, loss estimation."""

import warnings

import numpy as np
import pytest
from oracle_utils import central_difference_gradient

from depthsep.depth3 import build_exact_relu
from depthsep.training import (
    Depth2Params,
    TrainConfig,
    constant_network,
    estimate_population_loss,
    loss_and_gradients,
    train_depth2,
)


class TestGradients:
    @pytest.mark.parametrize("activation", ["sigmoid", "relu"])
    def test_analytic_matches_finite_differences(self, activation, rng):
        params = Depth2Params.init(6, 5, rng)
        X = rng.normal(size=(32, 6))
        y = rng.normal(size=32)
        if activation == "relu":
            # keep pre-activations away from the kink so central differences
            # see a smooth function
            z = X @ params.W.T + params.b
            assert np.abs(z).min() > 1e-3
        _, g = loss_and_gradients(params, X, y, activation)
        analytic = np.concatenate([a.ravel() for a in g.arrays])
        numeric = central_difference_gradient(params, X, y, activation)
        rel = np.linalg.norm(analytic - numeric) / np.linalg.norm(analytic)
        assert rel <= 1e-4

    def test_threshold_not_trainable(self, rng):
        params = Depth2Params.init(2, 2, rng)
        with pytest.raises(ValueError):
            loss_and_gradients(params, np.zeros((1, 2)), np.zeros(1), "threshold")

    def test_sigmoid_saturates_without_warning(self, rng):
        params = Depth2Params.init(2, 3, rng)
        params.b[:] = -1000.0  # exp(1000) overflows to inf
        X = rng.uniform(-1, 1, size=(4, 2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            loss, g = loss_and_gradients(params, X, np.ones(4), "sigmoid")
        assert loss == pytest.approx(1.0) and all(np.isfinite(a).all() for a in g.arrays)
        assert not g.W.any() and not g.b.any()


class TestTraining:
    def test_deterministic_loss_curves(self, spec_d1):
        cfg = TrainConfig(width=8, epochs=5, seed=3, learning_rate=0.03)
        a = train_depth2(spec_d1, cfg)
        b = train_depth2(spec_d1, cfg)
        assert a.history == b.history

    def test_best_loss_is_running_minimum(self, spec_d1):
        cfg = TrainConfig(width=8, epochs=8, seed=3, learning_rate=0.03)
        result = train_depth2(spec_d1, cfg)
        assert result.best_loss == min(result.history)

    def test_width1_approaches_trivial_loss(self, spec_d1):
        cfg = TrainConfig(width=1, epochs=30, seed=5, learning_rate=0.05)
        result = train_depth2(spec_d1, cfg)
        assert not result.diverged
        assert result.best_loss <= 0.26

    def test_wide_net_beats_trivial_at_d1(self, spec_d1):
        cfg = TrainConfig(width=64, epochs=40, seed=1, learning_rate=0.02)
        result = train_depth2(spec_d1, cfg)
        mean, _ = estimate_population_loss(result.network, spec_d1, 10_000, seed=2)
        assert mean < 0.25  # recorded empirically; easy at tiny d

    def test_weight_clip_enforced(self, spec_d1):
        cfg = TrainConfig(
            width=8, epochs=5, seed=3, learning_rate=0.5, weight_clip=0.5, optimizer="sgd"
        )
        result = train_depth2(spec_d1, cfg)
        assert result.network.max_weight <= 0.5

    def test_divergence_reported_not_raised(self, spec_d1):
        cfg = TrainConfig(width=8, epochs=5, seed=3, learning_rate=1e12, optimizer="sgd")
        result = train_depth2(spec_d1, cfg)
        assert result.diverged
        assert np.isnan(result.history[-1])

    def test_sgd_path_runs(self, spec_d1):
        cfg = TrainConfig(width=4, epochs=3, seed=2, optimizer="sgd", learning_rate=0.05)
        result = train_depth2(spec_d1, cfg)
        assert len(result.history) == 3

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(width=0)
        with pytest.raises(ValueError):
            TrainConfig(width=1, optimizer="lbfgs")
        with pytest.raises(ValueError):
            TrainConfig(width=1, weight_clip=-1.0)
        with pytest.raises(ValueError):
            TrainConfig(width=2.5)
        with pytest.raises(ValueError):
            TrainConfig(width=1, activation="tanh")
        for bad in (
            {"activation": "threshold"},
            {"learning_rate": float("nan")},
            {"learning_rate": float("inf")},
            {"weight_clip": float("nan")},
            {"weight_clip": float("inf")},
        ):
            with pytest.raises(ValueError):
                TrainConfig(width=1, **bad)
        assert TrainConfig(width=np.int64(3)).width == 3


class TestPopulationLoss:
    def test_exact_network_has_zero_loss(self, spec_d2):
        net = build_exact_relu(2)
        mean, _ = estimate_population_loss(net, spec_d2, 5000, seed=4)
        assert mean <= 1e-12

    def test_constant_half_is_exactly_quarter(self, spec_d1):
        net = constant_network(4, 0.5)
        mean, se = estimate_population_loss(net, spec_d1, 5000, seed=6)
        assert mean == 0.25  # (1/2 - bit)^2 = 1/4 pointwise
        assert se == 0.0

    def test_constant_zero_at_d1(self, spec_d1):
        # one quarter of inputs carry label 1 at d=1
        net = constant_network(4, 0.0)
        mean, se = estimate_population_loss(net, spec_d1, 20_000, seed=8)
        assert abs(mean - 0.25) <= 3 * se

    def test_dimension_check(self, spec_d1):
        net = constant_network(8, 0.5)
        with pytest.raises(ValueError):
            estimate_population_loss(net, spec_d1, 100, seed=0)
