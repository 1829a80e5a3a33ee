"""Depth-3 builders: reference curves, the exact network, generic assembly."""

import numpy as np
import pytest
from oracle_utils import and_gadget, assembled_generic, dense_forward, looped_exact_relu, parity_wave

from depthsep import DenseNetwork, build_instance, eval_f_batch, sample_a4d
from depthsep.depth3 import (
    Approx1DSpec,
    build_exact_relu,
    build_generic,
    reference_g1,
    reference_g2,
    relu_1d_approximator,
)
from depthsep.harness import measure_sup_error
from depthsep.threshold import threshold_1d_approximator


class TestReferenceCurves:
    def test_clamp_values(self):
        assert reference_g1(4.0) == 0.0
        assert reference_g1(5.5) == 0.5
        assert reference_g1(7.0) == 1.0

    def test_wave_values(self):
        assert reference_g2(0.3) == pytest.approx(0.3)
        assert reference_g2(1.3) == pytest.approx(0.7)
        for k in (-4, -2, 0, 2, 6):
            assert reference_g2(float(k)) == 0.0

    def test_wave_is_1_lipschitz(self):
        z = np.linspace(-9, 9, 20_001)
        g = reference_g2(z)
        assert np.abs(np.diff(g)).max() <= np.diff(z)[0] + 1e-12

    def test_parity_wave_hits_parity_at_integers(self):
        for d in (1, 2, 3, 4, 6):
            z = np.arange(d + 1.0)
            np.testing.assert_allclose(parity_wave(d, z), z % 2, atol=1e-12)

    def test_parity_wave_worked_values(self):
        assert parity_wave(3, 0.0) == 0.0
        assert parity_wave(3, 1.0) == 1.0
        assert parity_wave(3, 2.0) == 0.0
        assert parity_wave(3, 3.0) == 1.0

    def test_and_gadget(self):
        assert and_gadget(0.8, 0.8) == pytest.approx(1.0)  # 1.4 - 0.4
        assert and_gadget(0.8, 0.1) == pytest.approx(0.0)
        assert and_gadget(0.2, 0.15) == pytest.approx(0.0)
        # agrees with AND of rounded bits on the support-scale region
        for u in (0.0, 0.2, 0.25, 0.75, 0.9, 1.0):
            for v in (0.0, 0.1, 0.25, 0.75, 0.8, 1.0):
                assert and_gadget(u, v) == pytest.approx(round(u) * round(v))


class TestExactNetwork:
    def test_widths_and_depth(self):
        for d in (1, 2, 5):
            net = build_exact_relu(d)
            assert net.depth == 3
            assert net.widths == (2 * d, d + 1)
            assert net.input_dim == 4 * d

    def test_first_layer_weight_scale(self):
        for d in (1, 4):
            net = build_exact_relu(d)
            W1 = net.hidden[0][0]
            assert np.abs(W1).max() == pytest.approx(12 * np.sqrt(d))

    def test_exact_on_centers(self):
        for d in (1, 2, 3, 4):
            spec = build_instance(d, seed=50 + d)
            net = build_exact_relu(d)
            centers = spec.centers()
            err = np.abs(net.evaluate_batch(centers) - eval_f_batch(d, centers)).max()
            assert err <= 1e-9

    def test_exact_on_samples(self):
        for d in (1, 2):
            spec = build_instance(d, seed=60 + d)
            net = build_exact_relu(d)
            batch = sample_a4d(spec, 20_000, seed=3)
            err = np.abs(net.evaluate_batch(batch.points) - batch.labels).max()
            assert err <= 1e-9

    def test_oracle_detects_weight_corruption(self):
        """Sensitivity guard: a small weight perturbation must blow the
        1e-9 agreement, so the exactness checks cannot pass vacuously."""
        d = 2
        spec = build_instance(d, seed=64)
        net = build_exact_relu(d)
        W1 = net.hidden[0][0].copy()
        W1[0, 2 * d] += 1e-3
        corrupted = DenseNetwork(
            net.input_dim,
            ((W1, net.hidden[0][1].copy()), net.hidden[1]),
            net.out_w.copy(),
            net.out_b,
            net.activation,
        )
        centers = spec.centers()
        err = np.abs(corrupted.evaluate_batch(centers) - eval_f_batch(d, centers)).max()
        assert err > 1e-9

    def test_constant_within_components(self):
        spec = build_instance(2, seed=62)
        net = build_exact_relu(2)
        batch = sample_a4d(spec, 16_000, seed=4)
        outs = net.evaluate_batch(batch.points)
        for i in range(16):
            vals = outs[batch.component_index == i]
            assert vals.size > 100
            assert vals.var() <= 1e-18


class TestReluApproximator:
    def test_linear_target_single_knot(self):
        spec = Approx1DSpec(lambda z: np.asarray(z), 0.0, 1.0, 1.0, 1.0)
        net = relu_1d_approximator(spec)
        assert net.widths == (1,)
        xs = np.linspace(0, 1, 101)
        err = np.abs(net.evaluate_batch(xs[:, None]) - xs).max()
        assert err <= 1e-12  # linear targets are represented exactly

    def test_clamp_certified(self):
        spec = Approx1DSpec(reference_g1, -8.0, 8.0, 1.0, 0.05)
        net = relu_1d_approximator(spec)
        xs = np.linspace(-8, 8, 10_000)
        err = np.abs(net.evaluate_batch(xs[:, None]) - reference_g1(xs)).max()
        assert err <= 0.05

    def test_wave_certified(self):
        spec = Approx1DSpec(reference_g2, -3.0, 3.0, 1.0, 0.25)
        net = relu_1d_approximator(spec)
        xs = np.linspace(-3, 3, 10_000)
        err = np.abs(net.evaluate_batch(xs[:, None]) - reference_g2(xs)).max()
        assert err <= 0.25

    def test_clamp_nonaligned_spacing(self):
        # knot spacing 0.07 leaves the ramp corners off-grid, so the
        # interpolant carries real (but certified) error
        spec = Approx1DSpec(reference_g1, 0.0, 8.0, 1.0, 0.07)
        net = relu_1d_approximator(spec)
        xs = np.linspace(0, 8, 40_001)
        errs = np.abs(net.evaluate_batch(xs[:, None]) - reference_g1(xs))
        assert 0 < errs.max() <= 0.07

    def test_smooth_target(self):
        spec = Approx1DSpec(np.sin, -3.0, 3.0, 1.0, 0.05)
        net = relu_1d_approximator(spec)
        xs = np.linspace(-3, 3, 20_000)
        errs = np.abs(net.evaluate_batch(xs[:, None]) - np.sin(xs))
        assert 0 < errs.max() <= 0.05

    def test_scalar_bounds(self):
        spec = Approx1DSpec(reference_g1, -8.0, 8.0, 1.0, 0.05)
        net = relu_1d_approximator(spec)
        assert net.widths[0] <= 2 * 8 * 1 / 0.05 + 2
        assert np.abs(net.out_w).max() <= 2.0 + 1e-12  # slope increments
        assert np.abs(net.hidden[0][1]).max() <= 8.0 + 1e-12  # knots

    def test_rejects_bad_accuracy(self):
        with pytest.raises(ValueError):
            Approx1DSpec(reference_g1, -1.0, 1.0, 1.0, 0.0)


class TestGenericBuilder:
    @pytest.mark.parametrize("eps", [0.6, 1.0])
    @pytest.mark.parametrize("approximator", [relu_1d_approximator, threshold_1d_approximator])
    @pytest.mark.parametrize("d", [1, 2])
    def test_large_eps_meets_bound(self, d, eps, approximator):
        """eps above 1/2 takes the same composition as any other eps."""
        report = build_generic(d, eps, approximator)
        assert report.net.depth == 3
        err = measure_sup_error(report.net, build_instance(d, seed=90 + d), 20_000, seed=5)
        assert err <= eps
        assert report.widths[0] <= 40 * d * d / eps
        assert report.max_weights[1] <= 40 * d / eps**2

    def test_refuses_unusable_approximator(self):
        """An approximator's network must be depth 2 with one input, in one
        activation for both curves."""
        def two_inputs(spec):
            net = relu_1d_approximator(spec)
            return DenseNetwork(2, ((np.hstack([net.hidden[0][0]] * 2), net.hidden[0][1]),),
                                net.out_w, net.out_b, net.activation)

        def mixed(spec):
            return (relu_1d_approximator if spec.target is reference_g1 else threshold_1d_approximator)(spec)

        with pytest.raises(ValueError, match="must be depth 2 with one input"):
            build_generic(1, 0.2, two_inputs)
        with pytest.raises(ValueError, match="must share one activation"):
            build_generic(1, 0.2, mixed)

    def test_relu_certificate_d1(self, spec_d1):
        report = build_generic(1, 0.1)
        err = measure_sup_error(report.net, spec_d1, 50_000, seed=6)
        assert err <= 0.1

    def test_width_accounting(self):
        for d, eps in [(1, 0.5), (2, 0.1), (2, 0.05)]:
            report = build_generic(d, eps)
            assert report.widths[0] <= 40 * d * d / eps
            assert report.widths[1] <= 40 * d / eps
            assert report.max_weights[1] <= 40 * d / eps**2

    def test_monotone_width_growth(self):
        w_coarse = build_generic(2, 0.2).widths[0]
        w_fine = build_generic(2, 0.1).widths[0]
        assert w_coarse <= w_fine <= 2 * w_coarse + 4

    def test_threshold_approximator_variant(self, spec_d1):
        report = build_generic(1, 0.2, threshold_1d_approximator)
        assert report.net.activation.tag == "threshold"
        assert report.net.depth == 3
        err = measure_sup_error(report.net, spec_d1, 20_000, seed=7)
        assert err <= 0.2

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            build_generic(0, 0.1)
        with pytest.raises(ValueError):
            build_generic(1, -0.5)


def assert_same_network(net, ref, X):
    """Equal widths, equal weights (up to the sign of zero), bit-identical dense
    forwards over the stored weights, and the factored evaluation of the
    spliced layers within 1e-12 of the dense forward."""
    assert net.widths == ref.widths and net.input_dim == ref.input_dim
    assert net.activation.tag == ref.activation.tag
    for (W, b), (W_ref, b_ref) in zip(net.hidden, ref.hidden, strict=True):
        assert np.array_equal(W, W_ref) and np.array_equal(b, b_ref)
    assert np.array_equal(net.out_w, ref.out_w) and net.out_b == ref.out_b
    dense = dense_forward(net, X)
    assert dense.tobytes() == dense_forward(ref, X).tobytes()
    np.testing.assert_allclose(net.evaluate_batch(X), dense, rtol=0, atol=1e-12)


def random_inputs(d, seed, n=2000):
    """Support samples plus uniform points of [-1, 1]^{4d}."""
    batch = sample_a4d(build_instance(d, seed=seed), n, seed=seed)
    uniform = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(n, 4 * d))
    return np.vstack([batch.points, uniform])


class TestReferenceBuilders:
    """The spliced builders against the parent's index-by-index assembly."""

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
    def test_exact_network(self, d):
        X = np.random.default_rng(d).uniform(-1.0, 1.0, size=(2000, 4 * d))
        if d <= 3:
            X = np.vstack([X, random_inputs(d, 70 + d)])
        assert_same_network(build_exact_relu(d), looped_exact_relu(d), X)

    @pytest.mark.parametrize(
        "d, eps, approximator",
        [(d, eps, relu_1d_approximator) for d in (1, 2, 3) for eps in (0.1, 0.05)]
        + [(d, 0.1, threshold_1d_approximator) for d in (1, 2, 3)],
    )
    def test_generic_network(self, d, eps, approximator):
        h1 = approximator(Approx1DSpec(reference_g1, 0.0, 8.0, 1.0, eps / (2.0 * d)))
        h2 = approximator(
            Approx1DSpec(reference_g2, -(2.0 * d + 1.0), 2.0 * d + 1.0, 1.0, eps / 2.0)
        )
        ref, ref_max_weights = assembled_generic(d, h1, h2)
        report = build_generic(d, eps, approximator)
        assert report.widths == ref.widths
        assert report.max_weights == ref_max_weights
        assert_same_network(report.net, ref, random_inputs(d, 80 + d))
