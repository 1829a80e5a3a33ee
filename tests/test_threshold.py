"""Threshold compilation: staircase plans, certified errors, circuits."""

import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from oracle_utils import per_neuron_compile_network

from depthsep.bits import ip_mod2
from depthsep.instance import hypercube_enumeration
from depthsep.networks import (
    RELU,
    SIGMOID,
    THRESHOLD,
    Activation,
    DenseNetwork,
    absorb_input_map,
)
from depthsep import threshold
from depthsep.threshold import (
    BudgetExceeded,
    CompiledNetwork,
    SegmentPlan,
    boolean_cube_max_error,
    compile_network,
    compile_scalar,
    segment_budget,
    to_circuit,
)


def identity_activation():
    return Activation(
        "custom", lambda z: np.asarray(z, dtype=float), lipschitz=1.0, variation=(1.0, 1.0)
    )


def random_relu_net(rng, input_dim=8, width=8, C=2.0):
    return DenseNetwork(
        input_dim,
        (
            (
                rng.uniform(-C, C, size=(width, input_dim)),
                rng.uniform(-C, C, size=width),
            ),
        ),
        rng.uniform(-C, C, size=width),
        float(rng.uniform(-C, C)),
        RELU,
    )


class TestCompileScalar:
    def test_threshold_is_its_own_compilation(self):
        """compile_network passes a threshold net through; the scalar
        compiler takes only Lipschitz activations, which the step is not."""
        with pytest.raises(ValueError, match="needs a Lipschitz constant"):
            compile_scalar(THRESHOLD, R=1.0, delta=0.1)

    def test_relu_certified(self):
        net, plan = compile_scalar(RELU, R=10.0, delta=0.01)
        xs = np.linspace(-10, 10, 50_000)
        err = np.abs(net.evaluate_batch(xs[:, None]) - np.maximum(xs, 0)).max()
        assert err <= 0.01
        # exact variation of relu on [-10, 10] is 10
        assert plan.n_segments <= 2 * 10 / 0.01 + 1

    def test_identity_segment_count(self):
        net, plan = compile_scalar(identity_activation(), R=0.5, delta=0.1)
        # staircase over [-0.5, 0.5]: optimal level spacing gives ~6 levels
        assert 5 <= plan.n_segments <= 8
        xs = np.linspace(-0.5, 0.5, 5000)
        assert np.abs(net.evaluate_batch(xs[:, None]) - xs).max() <= 0.1

    def test_segment_budget_law(self):
        for delta in (0.2, 0.1, 0.05):
            _, plan = compile_scalar(identity_activation(), R=1.0, delta=delta)
            budget = segment_budget(identity_activation(), 1.0, delta)
            assert plan.n_segments <= budget

    def test_budget_exceeded_on_bad_profile(self):
        # declared variation far below the truth forces a budget violation
        lying = Activation(
            "custom",
            lambda z: 5.0 * np.asarray(z, dtype=float),
            lipschitz=5.0,
            variation=(0.01, 0.0),
        )
        with pytest.raises(BudgetExceeded):
            compile_scalar(lying, R=1.0, delta=0.05)

    def test_needs_variation_profile(self):
        anon = Activation("custom", lambda z: np.asarray(z), lipschitz=1.0)
        with pytest.raises(ValueError):
            compile_scalar(anon, R=1.0, delta=0.1)

    def test_rejects_bad_delta(self):
        with pytest.raises(ValueError):
            compile_scalar(RELU, R=1.0, delta=0.0)

    def test_certification_detects_bad_plan(self):
        # sensitivity guard: a staircase with a wrong level must not be built
        with pytest.raises(RuntimeError, match="certification failed"):
            SegmentPlan(
                RELU,
                breakpoints=np.array([-1.0, 0.0]),
                levels=np.array([0.0, 1.0]),  # relu reaches 1 only at x = 1
                tolerance=0.2,
                domain=(-1.0, 1.0),
            )

    def test_sigmoid_certified(self):
        from depthsep.networks import SIGMOID

        net, plan = compile_scalar(SIGMOID, R=6.0, delta=0.05)
        xs = np.linspace(-6, 6, 20_000)
        err = np.abs(net.evaluate_batch(xs[:, None]) - 1 / (1 + np.exp(-xs))).max()
        assert err <= 0.05

    def test_wide_sigmoid_raises_no_warning(self):
        """exp(-z) overflows for z < -709; the sigmoid takes its limit 0
        there without a RuntimeWarning."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            compile_scalar(SIGMOID, 1000.0, 0.05)
            assert SIGMOID(np.array([-1000.0, -710.0, 0.0, 1000.0])).tolist() == [0.0, 0.0, 0.5, 1.0]


def constant_activation(value=0.3):
    return Activation(
        "custom", lambda z: np.full(np.shape(z), value), lipschitz=0.0, variation=(0.0, 0.0)
    )


class TestCertificate:
    """certified_error is a proven bound: above every sampled error, at most
    the tolerance, and broken by a moved level or breakpoint."""

    @pytest.mark.parametrize(
        "sigma, R, delta",
        [
            (RELU, 10.0, 0.01),
            (SIGMOID, 10.0, 0.01),
            (Activation("custom", np.sin, lipschitz=1.0, variation=(1.0, 1.0)), 7.0, 0.02),
            (identity_activation(), 1.0, 0.05),
        ],
        ids=["relu", "sigmoid", "sin", "identity"],
    )
    def test_sampled_error_below_bound(self, sigma, R, delta):
        net, plan = compile_scalar(sigma, R, delta)
        bps = plan.breakpoints
        xs = np.concatenate((np.linspace(-R, R, 200_001), bps, np.nextafter(bps, -np.inf)))
        xs = xs[np.abs(xs) <= R]
        sampled = float(np.abs(plan.values(xs) - sigma.fn(xs)).max())
        assert sampled <= plan.certified_error <= delta
        # the network sums the jumps, which rounds each level by a few ulps
        realized = float(np.abs(net.evaluate_batch(xs[:, None]) - sigma.fn(xs)).max())
        assert realized <= plan.certified_error + 1e-12
        # the rule's own guarantee: 0.85 delta per run plus L h / 2 <= delta / 8
        assert plan.certified_error <= 0.975 * delta * (1 + 1e-12)
        assert plan.grid_points >= 8 * R * sigma.lipschitz / delta

    @pytest.mark.parametrize("shift", [0.003, -0.003])
    def test_moved_level_fails(self, shift):
        _, plan = compile_scalar(RELU, R=10.0, delta=0.01)
        assert replace(plan).certified_error == plan.certified_error
        levels = plan.levels.copy()
        levels[plan.n_segments // 2] += shift
        with pytest.raises(RuntimeError, match="certification failed"):
            replace(plan, levels=levels)

    @pytest.mark.parametrize("shift", [0.004, -0.004])
    def test_moved_breakpoint_fails(self, shift):
        _, plan = compile_scalar(RELU, R=10.0, delta=0.01)
        bps = plan.breakpoints.copy()
        bps[plan.n_segments // 2] += shift
        with pytest.raises(RuntimeError, match="certification failed"):
            replace(plan, breakpoints=bps)

    @pytest.mark.parametrize(
        "fields, message",
        [
            (dict(levels=np.array([0.0, np.nan])), "certification failed"),
            (dict(breakpoints=np.array([0.0, -1.0])), "sorted"),
            (dict(breakpoints=np.array([]), levels=np.array([])), "align"),
            (dict(domain=(1.0, -1.0)), "finite interval"),
            (dict(domain=(-1.0, np.inf)), "finite interval"),
        ],
    )
    def test_malformed_plan_refused(self, fields, message):
        """A NaN level once certified, since NaN > tolerance is false; an
        unsorted plan evaluates differently from its network."""
        plan = dict(breakpoints=np.array([-1.0, 0.0]), levels=np.array([0.0, 0.5]),
                    tolerance=1.0, domain=(-1.0, 1.0))
        with pytest.raises((RuntimeError, ValueError), match=message):
            SegmentPlan(RELU, **{**plan, **fields})

    def test_constant_activation_is_one_segment(self):
        net, plan = compile_scalar(constant_activation(), R=2.0, delta=0.1)
        assert plan.n_segments == 1 and plan.certified_error == 0.0
        assert net.widths == (0,)
        xs = np.linspace(-2.0, 2.0, 101)
        assert np.array_equal(net.evaluate_batch(xs[:, None]), np.full(101, 0.3))

    def test_oversized_grid_rejected_before_sampling(self):
        def never(z):
            raise AssertionError("sampled an oversized grid")

        steep = Activation("custom", never, lipschitz=1e6, variation=(1e6, 1.0))
        with pytest.raises(BudgetExceeded, match="8e[+]08 points"):
            compile_scalar(steep, R=1.0, delta=0.01)


class TestCompileNetwork:
    def test_all_zero_net_evaluates(self):
        net = DenseNetwork(3, ((np.zeros((2, 3)), np.zeros(2)),), np.zeros(2), 0.0, RELU)
        compiled = compile_network(net, delta=0.05)
        assert compiled.widths == (0,)
        assert boolean_cube_max_error(net, compiled) == 0.0

    def test_constant_activation_net_evaluates(self, rng):
        net = DenseNetwork(
            3, ((rng.uniform(-1, 1, (2, 3)), np.zeros(2)),), np.ones(2), 0.5, constant_activation()
        )
        compiled = compile_network(net, delta=0.05)
        assert compiled.widths == (0,)
        X = hypercube_enumeration(3).astype(np.float64)
        np.testing.assert_allclose(compiled.evaluate_batch(X), 1.1, rtol=0, atol=1e-12)

    def test_threshold_net_unchanged(self, rng):
        net = DenseNetwork(
            3,
            ((rng.uniform(-1, 1, (4, 3)), rng.uniform(-1, 1, 4)),),
            rng.uniform(-1, 1, 4),
            0.0,
            THRESHOLD,
        )
        compiled = compile_network(net, delta=0.05)
        assert boolean_cube_max_error(net, compiled) == 0.0
        assert compiled.widths == net.widths

    def test_random_relu_nets_certified(self, rng):
        for _ in range(4):
            net = random_relu_net(rng)
            compiled = compile_network(net, delta=0.05)
            assert compiled.activation.tag == "threshold"
            assert boolean_cube_max_error(net, compiled) <= 0.05

    def test_halving_delta_recertifies_at_half(self, rng):
        net = random_relu_net(rng, input_dim=6, width=6)
        e1 = boolean_cube_max_error(net, compile_network(net, delta=0.1))
        e2 = boolean_cube_max_error(net, compile_network(net, delta=0.05))
        # the certified budget halves; the measured error tightens with it
        assert e1 <= 0.1
        assert e2 <= 0.05
        assert e2 < e1

    def test_commutes_with_input_map(self, rng):
        net = random_relu_net(rng, input_dim=5, width=4)
        P = np.eye(5)[[2, 0, 4, 1, 3]]
        b = np.zeros(5)
        first = compile_network(absorb_input_map(net, P, b), delta=0.1)
        second = absorb_input_map(compile_network(net, delta=0.1), P, b)
        assert boolean_cube_max_error(first, second) <= 1e-12

    def test_depth3_rejected(self, rng):
        deep = DenseNetwork(
            2,
            (
                (rng.normal(size=(3, 2)), rng.normal(size=3)),
                (rng.normal(size=(3, 3)), rng.normal(size=3)),
            ),
            rng.normal(size=3),
            0.0,
            RELU,
        )
        with pytest.raises(ValueError):
            compile_network(deep, delta=0.1)


def layer_bytes(net):
    return [a.tobytes() for W, b in net.hidden for a in (W, b)] + [net.out_w.tobytes()]


class TestReferenceCompileNetwork:
    """The spliced compiler against the parent's per-neuron loop."""

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_per_neuron_loop(self, seed):
        rng = np.random.default_rng(seed)
        activation = RELU if seed % 2 == 0 else SIGMOID
        net = DenseNetwork(
            6,
            ((rng.uniform(-2, 2, (5, 6)), rng.uniform(-2, 2, 5)),),
            rng.uniform(-2, 2, 5),
            float(rng.uniform(-2, 2)),
            activation,
        )
        compiled = compile_network(net, delta=0.1)
        ref = per_neuron_compile_network(net, delta=0.1)
        assert compiled.widths == ref.widths
        assert layer_bytes(compiled) == layer_bytes(ref) and compiled.out_b == ref.out_b
        X = hypercube_enumeration(6).astype(np.float64)
        assert compiled.evaluate_batch(X).tobytes() == ref.evaluate_batch(X).tobytes()

    @pytest.mark.parametrize("activation", [RELU, SIGMOID], ids=["relu", "sigmoid"])
    def test_matches_per_neuron_loop_past_the_cube(self, rng, activation):
        net = DenseNetwork(14, ((rng.uniform(-0.5, 0.5, (4, 14)), rng.uniform(-1, 1, 4)),),
                           rng.uniform(-1, 1, 4), 0.2, activation)
        compiled = compile_network(net, delta=0.1)
        ref = per_neuron_compile_network(net, delta=0.1)
        assert not compiled.plan.finite and compiled.widths == ref.widths
        assert layer_bytes(compiled) == layer_bytes(ref) and compiled.out_b == ref.out_b

    def test_threshold_input_returned_as_is(self, rng):
        layer = (rng.uniform(-1, 1, (4, 3)), rng.uniform(-1, 1, 4))
        net = DenseNetwork(3, (layer,), rng.uniform(-1, 1, 4), 0.3, THRESHOLD)
        compiled = compile_network(net, delta=0.05)
        ref = per_neuron_compile_network(net, delta=0.05)
        assert compiled is net
        assert layer_bytes(compiled) == layer_bytes(ref) and compiled.out_b == ref.out_b

    def test_zero_weights_match(self):
        net = DenseNetwork(3, ((np.zeros((2, 3)), np.zeros(2)),), np.zeros(2), 0.0, RELU)
        compiled = compile_network(net, delta=0.05)
        ref = per_neuron_compile_network(net, delta=0.05)
        assert compiled.widths == ref.widths == (0,)
        assert layer_bytes(compiled) == layer_bytes(ref) and compiled.out_b == ref.out_b


class TestCircuit:
    def test_constant_bits(self):
        def const_threshold_net(value):
            return DenseNetwork(
                1,
                ((np.zeros((1, 1)), np.zeros(1)),),
                np.zeros(1),
                value,
                THRESHOLD,
            )

        assert to_circuit(const_threshold_net(0.9)).evaluate([0.0]) == 1
        assert to_circuit(const_threshold_net(0.2)).evaluate([0.0]) == 0
        # 0.49 margins decode to the nearer bit, boundary included
        assert to_circuit(const_threshold_net(0.51)).evaluate([0.0]) == 1
        assert to_circuit(const_threshold_net(0.49)).evaluate([0.0]) == 0

    def test_requires_threshold_activation(self):
        net = DenseNetwork(1, ((np.ones((1, 1)), np.zeros(1)),), np.ones(1), 0.0, RELU)
        with pytest.raises(ValueError, match="circuit base must use the threshold activation"):
            to_circuit(net)

    def test_compiled_parity_circuit_d2(self):
        """A depth-2 net computing the parity inner product exactly on
        {0,1}^4, compiled to threshold form with margin below 0.49 and
        thresholded, decodes the parity on all 16 inputs."""
        X = hypercube_enumeration(4).astype(float)
        want = np.array(
            [ip_mod2(r[:2].astype(int), r[2:].astype(int)) for r in X], dtype=float
        )
        # one indicator neuron per vertex v: relu(<2v-1, 2x-1> - 3) is 1
        # iff x == v on the cube, so the output weights memorize parity
        V = 2.0 * X - 1.0
        W = 2.0 * V
        b = -V.sum(axis=1) - 3.0
        exact = DenseNetwork(4, ((W, b),), want, 0.0, RELU)
        np.testing.assert_allclose(exact.evaluate_batch(X), want, atol=1e-12)

        compiled = compile_network(exact, delta=0.45)
        assert boolean_cube_max_error(exact, compiled) <= 0.45  # margin <= 0.49
        circuit = to_circuit(compiled)
        np.testing.assert_array_equal(circuit.evaluate_batch(X), want.astype(int))


def dense_forward(net, X):
    """Plain numpy forward pass of a depth-2 network's dense weights."""
    ((W, b),) = net.hidden
    return net.activation.fn(X @ W.T + b) @ net.out_w + net.out_b


def indicator_ip_net(d):
    """The depth-2 ReLU net for IP_d: one unit relu(<2v - 1, z> - |v| + 1)
    per vertex v of {0,1}^(2d) with IP(v) = 1, each read with weight 1; the
    unit is 1 at z = v and at most 0 elsewhere on the cube."""
    Z = hypercube_enumeration(2 * d).astype(np.int64)
    ip = (Z[:, :d] * Z[:, d:]).sum(axis=1) % 2
    V = Z[ip == 1].astype(np.float64)
    net = DenseNetwork(2 * d, ((2.0 * V - 1.0, 1.0 - V.sum(axis=1)),), np.ones(len(V)), 0.0, RELU)
    return net, Z.astype(np.float64), ip


class TestFiniteDomain:
    """A plan on a sorted finite set is certified by its error at every
    point: exactly, with no grid and no Lipschitz constant."""

    def test_certificate_is_the_error_at_the_points(self, rng):
        xs = np.unique(rng.uniform(-3.0, 3.0, 500))
        plan = threshold._segment_lipschitz(SIGMOID, xs, 0.01)
        assert plan.finite and plan.grid_points == xs.size
        assert plan.certified_error == float(np.abs(SIGMOID.fn(xs) - plan.values(xs)).max())
        assert plan.certified_error <= 0.85 * 0.01
        net = threshold._plan_to_network(plan)
        assert np.abs(net.evaluate_batch(xs[:, None]) - plan.values(xs)).max() <= 1e-12

    @pytest.mark.parametrize("shift", [0.02, -0.02])
    def test_moved_level_fails(self, rng, shift):
        xs = np.unique(rng.uniform(-3.0, 3.0, 500))
        plan = threshold._segment_lipschitz(RELU, xs, 0.01)
        levels = plan.levels.copy()
        levels[plan.n_segments // 2] += shift
        with pytest.raises(RuntimeError, match="certification failed"):
            replace(plan, levels=levels)

    @pytest.mark.parametrize(
        "points",
        [np.array([1.0, 0.0]), np.array([0.0, 0.0, 1.0]), np.array([0.0, np.nan]), np.zeros((2, 2)),
         np.array([])],
        ids=["unsorted", "repeated", "nan", "2-d", "empty"],
    )
    def test_malformed_set_refused(self, points):
        with pytest.raises(ValueError, match="finite domain"):
            SegmentPlan(RELU, np.array([0.0]), np.array([0.0]), 0.1, points)

    def test_values_within_rounding_are_never_split(self):
        """0 and 1.9e-11 span more than the band 1.7 delta at delta = 1e-11,
        but lie within rounding of each other next to 5.0, so they share a
        level; the same points scaled up are split."""
        identity = Activation("custom", lambda z: np.asarray(z, dtype=float), lipschitz=1.0,
                              variation=(1.0, 1.0))
        plan = threshold._segment_lipschitz(identity, np.array([0.0, 1.9e-11, 5.0]), 1e-11)
        assert plan.breakpoints.tolist() == [0.0, 0.5 * (1.9e-11 + 5.0)] and plan.certified_error <= 1e-11
        scaled = threshold._segment_lipschitz(identity, np.array([0.0, 1.9, 500.0]), 1.0)
        assert scaled.n_segments == 3

    def test_one_point_at_zero(self):
        plan = threshold._segment_lipschitz(RELU, np.array([0.0]), 0.1)
        assert plan.n_segments == 1 and plan.certified_error == 0.0


class TestReachedDomain:
    """compile_network plans over the pre-activations the net reaches and
    returns the proven bound sum |out_w| certified_error with the net."""

    @pytest.mark.parametrize("d", range(1, 7))
    def test_indicator_ip_nets_compile_to_ip(self, d):
        net, Z, ip = indicator_ip_net(d)
        np.testing.assert_array_equal(net.evaluate_batch(Z), ip)
        compiled = compile_network(net, delta=0.05)
        assert isinstance(compiled, CompiledNetwork) and compiled.plan.finite
        assert compiled.widths == net.widths and compiled.proven_error == 0.0
        np.testing.assert_array_equal(to_circuit(compiled).evaluate_batch(Z), ip)
        assert boolean_cube_max_error(net, compiled) == 0.0

    def test_proven_error_bounds_the_cube(self, rng):
        for _ in range(4):
            net = random_relu_net(rng)
            compiled = compile_network(net, delta=0.05)
            mass = float(np.abs(net.out_w).sum())
            assert compiled.plan.tolerance == 0.05 / mass
            assert compiled.proven_error == mass * compiled.plan.certified_error <= 0.05
            X = hypercube_enumeration(8).astype(np.float64)
            assert compiled.plan.domain.tolist() == np.unique(X @ net.hidden[0][0].T + net.hidden[0][1]).tolist()
            exhaustive = float(np.abs(dense_forward(net, X) - dense_forward(compiled, X)).max())
            assert exhaustive <= compiled.proven_error + 1e-12

    def test_dropped_value_fails_the_exhaustive_cross_check(self):
        net, _, _ = indicator_ip_net(2)
        reached = threshold._reached
        with mock.patch.object(threshold, "_reached", lambda W, b: reached(W, b)[:-1]):
            compiled = compile_network(net, delta=0.05)
        assert compiled.proven_error == 0.0 and boolean_cube_max_error(net, compiled) == 1.0

    def test_interval_past_the_cube_dimension(self, rng):
        """At 16 inputs the plan covers the hull of the neurons' exact
        ranges over [0,1]^16, and the proven bound holds on all 65536
        cube inputs."""
        net = random_relu_net(rng, input_dim=16, width=6, C=0.5)
        compiled = compile_network(net, delta=0.05)
        W, b = net.hidden[0]
        lo = (b + np.minimum(W, 0.0).sum(axis=1)).min()
        hi = (b + np.maximum(W, 0.0).sum(axis=1)).max()
        assert not compiled.plan.finite
        np.testing.assert_allclose(compiled.plan.domain, (lo, hi), rtol=0, atol=1e-12)
        assert compiled.proven_error <= 0.05
        X = hypercube_enumeration(16).astype(np.float64)
        exhaustive = float(np.abs(dense_forward(net, X) - dense_forward(compiled, X)).max())
        assert exhaustive <= compiled.proven_error + 1e-12

    def test_narrower_interval_fails_certification(self, rng):
        net = random_relu_net(rng, input_dim=16, width=6, C=0.5)
        plan = compile_network(net, delta=0.05).plan
        lo, hi = plan.domain
        narrow = threshold._segment_lipschitz(RELU, (lo, hi - 0.1 * (hi - lo)), plan.tolerance)
        with pytest.raises(RuntimeError, match="certification failed"):
            replace(narrow, domain=(lo, hi))

    @pytest.mark.parametrize("n", [3, 14])
    def test_constant_pre_activations(self, n):
        """W = 0 reaches one value, b; at b = 0 the segment budget has R = 0."""
        for bias in (0.0, 0.7):
            net = DenseNetwork(n, ((np.zeros((2, n)), np.full(2, bias)),), np.array([1.0, -2.0]), 0.25, RELU)
            compiled = compile_network(net, delta=0.05)
            assert compiled.plan.domain.tolist() == [bias] and compiled.widths == (0,)
            x = np.zeros((1, n))
            assert compiled.evaluate_batch(x)[0] == pytest.approx(net.evaluate_batch(x)[0], abs=1e-15)

    def test_zero_output_weights_compile_to_width_zero(self, rng):
        net = DenseNetwork(3, ((rng.uniform(-1, 1, (4, 3)), rng.uniform(-1, 1, 4)),), np.zeros(4), 0.4, RELU)
        compiled = compile_network(net, delta=0.05)
        assert compiled.widths == (0,) and compiled.plan is None and compiled.proven_error == 0.0
        assert boolean_cube_max_error(net, compiled) == 0.0
